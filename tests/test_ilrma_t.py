"""Unified-filter runs: cost, reductions, projection, and bookkeeping."""

import numpy as np
import pytest

from drbss import (
    AlgorithmVariant,
    ExtendedDemixer,
    NumericalError,
    SolveCounter,
    Spectrogram,
    StftConfig,
    TapConfig,
    analyze,
    build_stacked,
    cost,
    ilrma_t_iss_seq_iteration,
    init_model,
    nmf_update,
    projection_back,
    run,
    variance,
)
from tests.conftest import FS, TAPPED_VARIANTS, desk_mixture, desk_spectrogram

SMALL_TAPS = TapConfig(2, 2)


def small_spec(seed, n_samples=6000, n_sources=2):
    return desk_spectrogram(seed, n_samples=n_samples, n_sources=n_sources, rt60=0.2)


def test_variant_names_round_trip():
    for variant in AlgorithmVariant:
        assert AlgorithmVariant.from_name(variant.value) is variant
    with pytest.raises(ValueError):
        AlgorithmVariant.from_name("ilrma-t-unknown")


def test_cost_identity_filter_unit_variances():
    rng = np.random.default_rng(0)
    outputs = rng.standard_normal((4, 2, 9)) + 1j * rng.standard_normal((4, 2, 9))
    dm = ExtendedDemixer.identity(4, 2, TapConfig(0, 1))
    value = cost(dm, outputs, np.ones((2, 4, 9)))
    assert np.isclose(value, np.sum(np.abs(outputs) ** 2), rtol=1e-12)


def test_cost_row_scaling_oracle():
    """Scaling one separation row by c shifts the cost by a closed form."""
    rng = np.random.default_rng(1)
    n_bins, n_src, n_frames = 3, 2, 11
    outputs = rng.standard_normal((n_bins, n_src, n_frames)) + 1j * rng.standard_normal(
        (n_bins, n_src, n_frames)
    )
    variances = rng.uniform(0.5, 2.0, size=(n_src, n_bins, n_frames))
    dm = ExtendedDemixer.identity(n_bins, n_src, TapConfig(0, 1))
    base = cost(dm, outputs, variances)
    c = 1.7
    scaled = ExtendedDemixer(dm.matrix.copy(), n_src)
    scaled.matrix[:, 0, :] *= c
    out2 = outputs.copy()
    out2[:, 0, :] *= c
    got = cost(scaled, out2, variances) - base
    row_power = np.sum(np.abs(outputs[:, 0, :]) ** 2 / variances[0].reshape(n_bins, n_frames))
    want = -2.0 * n_frames * n_bins * np.log(c) + (c**2 - 1.0) * row_power
    assert np.isclose(got, want, rtol=1e-10)


def test_cost_singular_block_raises():
    dm = ExtendedDemixer.identity(3, 2, TapConfig(0, 1))
    dm.matrix[2, :2, :2] = 0.0
    with pytest.raises(NumericalError, match="frequency bin 2"):
        cost(dm, np.zeros((3, 2, 4), dtype=complex), np.ones((2, 3, 4)))


def test_zero_taps_reduces_to_untapped_counterpart():
    """With no taps the unified variants reproduce their plain versions."""
    pairs = [
        (AlgorithmVariant.ILRMA_T_IP, AlgorithmVariant.ILRMA_IP),
        (AlgorithmVariant.ILRMA_T_ISS_SEQ, AlgorithmVariant.ILRMA_ISS),
        (AlgorithmVariant.ILRMA_T_ISS_JOINT, AlgorithmVariant.ILRMA_ISS),
    ]
    spec = small_spec(0)
    for tapped, plain in pairs:
        a = run(tapped, spec, iterations=5, taps=TapConfig(0, 2), n_bases=2, seed=0)
        b = run(plain, spec, iterations=5, taps=TapConfig(0, 2), n_bases=2, seed=0)
        assert np.array_equal(a.outputs.data, b.outputs.data)
        assert a.trace.costs == b.trace.costs


def test_projection_back_diagonal_oracle():
    # diagonal demixing means source 1 never reaches channel 0, so its
    # first-channel image scale is exactly zero
    outputs = np.ones((2, 2, 3), dtype=complex)
    dm = ExtendedDemixer.identity(2, 2, TapConfig(0, 1))
    dm.matrix[:, 0, 0] = 2.0
    dm.matrix[:, 1, 1] = 0.5
    scaled, scales = projection_back(dm, outputs)
    assert np.allclose(scales, [[0.5, 0.0], [0.5, 0.0]], atol=1e-14)
    assert np.allclose(scaled[:, 0, :], 0.5, atol=1e-14)
    assert np.allclose(scaled[:, 1, :], 0.0, atol=1e-14)


def test_projection_back_restores_mixture_images():
    """Demixing with the exact inverse then projecting back recovers the
    per-source images at the first channel."""
    rng = np.random.default_rng(2)
    n_bins, n_src, n_frames = 5, 2, 30
    s = rng.standard_normal((n_bins, n_src, n_frames)) + 1j * rng.standard_normal(
        (n_bins, n_src, n_frames)
    )
    a = np.array([[1.0, 0.6], [-0.4, 1.2]], dtype=complex)
    x = np.einsum("mn,fnt->fmt", a, s)
    dm = ExtendedDemixer.identity(n_bins, n_src, TapConfig(0, 1))
    dm.matrix[:, :n_src, :n_src] = np.linalg.inv(a)
    outputs = dm.top @ x
    scaled, _ = projection_back(dm, outputs)
    for n in range(n_src):
        assert np.allclose(scaled[:, n, :], a[0, n] * s[:, n, :], atol=1e-10)


def test_projection_back_counts_per_bin():
    outputs = np.ones((7, 2, 3), dtype=complex)
    dm = ExtendedDemixer.identity(7, 2, TapConfig(0, 1))
    counter = SolveCounter()
    projection_back(dm, outputs, counter)
    assert counter.projection_solves == 7
    assert counter.iteration_solves == 0


def test_run_zero_iterations_is_identity():
    spec = small_spec(1)
    result = run(AlgorithmVariant.ILRMA_T_ISS_SEQ, spec, iterations=0, taps=SMALL_TAPS, seed=1)
    assert np.array_equal(result.outputs.data, spec.data)
    assert result.scales is None
    assert len(result.trace.costs) == 1
    assert result.trace.iterations == 0


def test_run_does_not_mutate_the_input_spectrogram():
    spec = small_spec(2)
    before = spec.data.copy()
    for variant in AlgorithmVariant:
        run(variant, spec, iterations=3, taps=SMALL_TAPS, seed=2)
        assert np.array_equal(spec.data, before), variant


def test_run_single_channel_does_not_mutate_input():
    # with one channel, a reshaped view of the input is easily mistaken for a copy
    spec = small_spec(3, n_sources=1)
    before = spec.data.copy()
    for variant in AlgorithmVariant:
        run(variant, spec, iterations=2, taps=SMALL_TAPS, seed=3)
        assert np.array_equal(spec.data, before), variant


def test_run_deterministic():
    spec = small_spec(4)
    a = run(AlgorithmVariant.ILRMA_T_IP, spec, iterations=4, taps=SMALL_TAPS, seed=4)
    b = run(AlgorithmVariant.ILRMA_T_IP, spec, iterations=4, taps=SMALL_TAPS, seed=4)
    assert np.array_equal(a.outputs.data, b.outputs.data)
    assert a.trace.costs == b.trace.costs
    assert a.trace.cumulative_solves == b.trace.cumulative_solves


def test_run_trace_shapes_and_monotone_costs():
    spec = small_spec(5)
    result = run(AlgorithmVariant.ILRMA_T_ISS_SEQ, spec, iterations=6, taps=SMALL_TAPS, seed=5)
    costs = np.asarray(result.trace.costs)
    assert len(costs) == 7
    assert len(result.trace.cumulative_solves) == 7
    assert len(result.trace.wall_ms) == 6
    assert np.all(np.diff(costs) <= 1e-8 * np.abs(costs[:-1]))


def test_run_solve_counts_per_variant():
    spec = small_spec(6)
    f = spec.n_bins
    n = spec.n_channels
    iters = 3
    expected = {
        AlgorithmVariant.ILRMA_IP: 2 * n * f * iters,
        AlgorithmVariant.ILRMA_ISS: 0,
        AlgorithmVariant.ILRMA_T_IP: 2 * n * f * iters,
        AlgorithmVariant.ILRMA_T_ISS_JOINT: n * f * iters,
        AlgorithmVariant.ILRMA_T_ISS_SEQ: 0,
    }
    for variant, want in expected.items():
        counter = SolveCounter()
        run(variant, spec, iterations=iters, taps=SMALL_TAPS, seed=6, counter=counter)
        assert counter.iteration_solves == want, variant
        assert counter.projection_solves == f


def test_run_callback_schedule():
    spec = small_spec(7)
    seen = []
    run(
        AlgorithmVariant.ILRMA_ISS,
        spec,
        iterations=6,
        taps=SMALL_TAPS,
        seed=7,
        callback=lambda i, outputs, dm: seen.append(i),
        callback_every=2,
    )
    assert seen == [0, 2, 4, 6]


def test_run_wpe_variant():
    spec = small_spec(8)
    counter = SolveCounter()
    result = run(AlgorithmVariant.WPE, spec, iterations=4, taps=TapConfig(3, 2), counter=counter)
    assert counter.iteration_solves == 4 * spec.n_bins
    assert len(result.trace.costs) == 5
    assert result.scales is None
    assert result.outputs.data.shape == spec.data.shape
    assert result.demixer.dim == spec.n_channels  # no tap rows on the result
    costs = np.asarray(result.trace.costs)
    assert np.all(np.diff(costs) <= 1e-8 * np.abs(costs[:-1]))


def test_run_wpe_initialized_variants_count_both_stages():
    spec = small_spec(9)
    iters, wpe_iters = 3, 2
    f, n = spec.n_bins, spec.n_channels
    counter = SolveCounter()
    run(
        AlgorithmVariant.WPE_ILRMA_IP,
        spec,
        iterations=iters,
        taps=TapConfig(3, 2),
        seed=9,
        wpe_iterations=wpe_iters,
        counter=counter,
    )
    assert counter.iteration_solves == wpe_iters * f + iters * 2 * n * f


def test_maintained_outputs_match_fresh_demix():
    spec = small_spec(10)
    sx = build_stacked(spec, SMALL_TAPS)
    n = spec.n_channels
    dm = ExtendedDemixer.identity(spec.n_bins, n, SMALL_TAPS)
    model = init_model(n, 2, spec.n_bins, spec.n_frames, seed=10)
    variances = variance(model)
    outputs = spec.data.copy()
    for _ in range(5):
        outputs = ilrma_t_iss_seq_iteration(dm, sx, variances, outputs)
        variances = nmf_update(model, np.abs(outputs.transpose(1, 0, 2)) ** 2)
    fresh = dm.top @ sx.tilde
    assert np.abs(outputs - fresh).max() <= 1e-10


def test_run_rejects_bad_arguments():
    spec = small_spec(11)
    with pytest.raises(ValueError):
        run(AlgorithmVariant.ILRMA_IP, spec, iterations=-1, taps=SMALL_TAPS)
    with pytest.raises(ValueError):
        run(AlgorithmVariant.ILRMA_IP, spec, iterations=1, taps=SMALL_TAPS, n_bases=0)


def test_tapped_variants_differ_from_plain_on_reverberant_input():
    """Sanity: taps actually change the trajectory on reverberant data."""
    spec = small_spec(12)
    plain = run(AlgorithmVariant.ILRMA_ISS, spec, iterations=5, taps=SMALL_TAPS, seed=12)
    for variant in TAPPED_VARIANTS:
        tapped = run(variant, spec, iterations=5, taps=SMALL_TAPS, seed=12)
        assert not np.allclose(tapped.outputs.data, plain.outputs.data)
