"""Shared fixtures: seeded desk-scale mixtures, iteration histories and stacking oracles."""

from types import SimpleNamespace

import numpy as np
import pytest

from drbss import (
    AlgorithmVariant,
    ExtendedDemixer,
    Spectrogram,
    StackedObservation,
    StftConfig,
    SyntheticRoomConfig,
    TapConfig,
    analyze,
    build_stacked,
    cost,
    demix,
    make_sources,
    mix,
    run,
)

FS = 8000
DESK_FRAME = 256
DESK_HOP = 128
DESK_SAMPLES = 15000
DESK_TAPS = TapConfig(5, 2)
DESK_SEEDS = tuple(range(10))

ITERATIVE_VARIANTS = (
    AlgorithmVariant.ILRMA_IP,
    AlgorithmVariant.ILRMA_ISS,
    AlgorithmVariant.ILRMA_T_IP,
    AlgorithmVariant.ILRMA_T_ISS_JOINT,
    AlgorithmVariant.ILRMA_T_ISS_SEQ,
)
TAPPED_VARIANTS = (
    AlgorithmVariant.ILRMA_T_IP,
    AlgorithmVariant.ILRMA_T_ISS_JOINT,
    AlgorithmVariant.ILRMA_T_ISS_SEQ,
)


def desk_mixture(seed, n_sources=2, n_samples=DESK_SAMPLES, rt60=0.3, snr=1e4, **kwargs):
    sources = make_sources(n_sources, n_samples, FS, seed=seed)
    room = SyntheticRoomConfig(
        n_sources, sample_rate=FS, rt60=rt60, snr=snr, seed=seed, **kwargs
    )
    return mix(sources, room)


def desk_spectrogram(seed, frame_len=DESK_FRAME, hop=DESK_HOP, **kwargs):
    result = desk_mixture(seed, **kwargs)
    return analyze(result.mixture, StftConfig(frame_len, hop, FS))


def stack_rows(sx):
    """Oracle for the (F, D, T) stacked tensor, built from ``sx.spec.data`` alone: per lag, the
    channels shifted later by the lag, with that many zero frames written in front of them."""
    x = sx.spec.data
    n_bins, n_channels, n_frames = x.shape
    blocks = []
    for lag in sx.lags:
        zeros = np.zeros((n_bins, n_channels, lag), dtype=x.dtype)
        blocks.append(np.concatenate([zeros, x[:, :, : n_frames - lag]], axis=2))
    return np.concatenate(blocks, axis=1)


def model_sum(power, variances):
    """Oracle model term: the sum of power/r + log r over whole arrays of one shape."""
    return float(np.sum(power / variances + np.log(variances)))


def objective(dm, outputs, variances):
    """Oracle objective of ``outputs`` under fixed (F, N, T) ``variances``: ``cost`` with the model
    term summed from whole arrays by ``model_sum``."""
    return cost(dm, outputs.shape[2], model_sum(np.abs(outputs) ** 2, variances))


def zero_tap_stack(x):
    """Plain (F, M, T) vectors as a zero-tap stacked observation, whose stacked rows they are.

    A ``Spectrogram`` needs an STFT's bin count, so only the data and the two shape
    fields the stacking reads are given.
    """
    return StackedObservation(SimpleNamespace(data=x, n_channels=x.shape[1], n_frames=x.shape[2]), (0,))


def normal_equation_instance(seed=0, n_bins=129, n_src=3, n_frames=316):
    """The benchmark's engine shape: F=129, T=316, N=3, TapConfig(5, 2)."""
    rng = np.random.default_rng(seed)
    shape = (n_bins, n_src, n_frames)
    spec = Spectrogram(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape), StftConfig(256, 64, 8000)
    )
    sx = build_stacked(spec, TapConfig(5, 2))
    dm = ExtendedDemixer.identity(n_bins, n_src, TapConfig(5, 2))
    dm.top[:] += 0.1 * rng.standard_normal((n_bins, n_src, sx.dim))
    variances = rng.uniform(0.1, 3.0, size=(n_src, n_bins, n_frames)).transpose(1, 0, 2)  # (F, N, T)
    return spec, sx, dm, variances, demix(dm, sx).data


@pytest.fixture(scope="session")
def desk_histories():
    """Cost histories for the five iterative variants, 10 seeds x 100 iters.

    Computed once; the monotonicity and final-cost parity checks both
    read from here.
    """
    histories = {}
    for variant in ITERATIVE_VARIANTS:
        per_seed = []
        for seed in DESK_SEEDS:
            spec = desk_spectrogram(seed)
            result = run(
                variant, spec, iterations=100, taps=DESK_TAPS, n_bases=2, seed=seed
            )
            per_seed.append(np.asarray(result.trace.costs))
        histories[variant] = per_seed
    return histories
