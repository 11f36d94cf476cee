"""Linear-prediction dereverberation: filter fits and the run loop."""

import numpy as np
import pytest

from drbss import (
    Spectrogram,
    StftConfig,
    TapConfig,
    analyze,
    build_stacked,
    wpe_dereverb,
    wpe_filter_update,
    wpe_run,
    wpe_variance_update,
)
from drbss.linalg import SolveCounter
from drbss.wpe import wpe_objective
from tests.conftest import desk_spectrogram

CFG = StftConfig(256, 128, 8000)


def test_variance_update_oracle():
    z = np.array([[[1.0 + 0j, 2.0], [0.0, 2j]]])  # (F=1, M=2, T=2)
    r = wpe_variance_update(z)
    assert np.allclose(r, [[0.5, 4.0]], atol=1e-15)


def test_variance_update_floor():
    r = wpe_variance_update(np.zeros((2, 1, 3), dtype=complex))
    assert np.all(r == 1e-10)


def test_white_input_gives_small_coefficients():
    """Past frames of white noise carry no predictable energy."""
    rng = np.random.default_rng(0)
    spec = analyze(rng.standard_normal((1, 16000)), CFG)
    sx = build_stacked(spec, TapConfig(3, 2))
    coeffs = wpe_filter_update(wpe_variance_update(spec.data), sx, spec)
    assert np.abs(coeffs).max() <= 0.2


def test_recovers_frame_recursion_pole():
    """Frames obeying y_t = 0.8 y_{t-1} + e_t fit a one-tap filter near 0.8."""
    rng = np.random.default_rng(100)
    n_bins, n_frames = 129, 4000
    e = (rng.standard_normal((n_bins, n_frames)) + 1j * rng.standard_normal((n_bins, n_frames))) / np.sqrt(2)
    data = np.empty((n_bins, n_frames), dtype=complex)
    data[:, 0] = e[:, 0]
    for t in range(1, n_frames):
        data[:, t] = 0.8 * data[:, t - 1] + e[:, t]
    spec = Spectrogram(data[:, None, :], CFG)
    sx = build_stacked(spec, TapConfig(1, 1))
    coeffs = wpe_filter_update(np.ones((n_bins, n_frames)), sx, spec)
    assert np.abs(coeffs[:, 0, 0] - 0.8).max() <= 0.05


def test_dereverb_is_exact_subtraction():
    rng = np.random.default_rng(1)
    spec = analyze(rng.standard_normal((2, 4000)), CFG)
    sx = build_stacked(spec, TapConfig(2, 2))
    coeffs = rng.standard_normal((spec.n_bins, 2, 4)) + 1j * rng.standard_normal((spec.n_bins, 2, 4))
    out = wpe_dereverb(coeffs, spec, sx)
    want = spec.data - coeffs @ sx.past
    assert np.allclose(out.data, want, atol=1e-14)
    assert out.n_samples == spec.n_samples

    same = wpe_dereverb(np.zeros_like(coeffs), spec, sx)
    assert np.array_equal(same.data, spec.data)


def test_objective_oracle():
    z = np.array([[[2.0 + 0j], [0.0 + 0j]]])  # (1, 2, 1), mean power 2
    r = np.array([[4.0]])
    assert np.isclose(wpe_objective(z, r), 2.0 / 4.0 + np.log(4.0), atol=1e-12)


def test_run_objective_monotone_on_reverberant_mixture():
    spec = desk_spectrogram(0)
    trace = []
    wpe_run(spec, TapConfig(5, 2), 10, trace=trace)
    costs = np.asarray(trace)
    assert len(costs) == 11
    diffs = np.diff(costs)
    assert np.all(diffs <= 1e-8 * np.abs(costs[:-1]))
    assert costs[-1] < costs[0]


def test_run_deterministic():
    spec = desk_spectrogram(1)
    a = wpe_run(spec, TapConfig(3, 2), 3)
    b = wpe_run(spec, TapConfig(3, 2), 3)
    assert np.array_equal(a.data, b.data)


def test_run_counts_one_solve_per_bin_iteration():
    spec = desk_spectrogram(2)
    counter = SolveCounter()
    wpe_run(spec, TapConfig(3, 2), 4, counter=counter)
    assert counter.iteration_solves == 4 * spec.n_bins
    assert counter.projection_solves == 0


def test_run_zero_iterations_returns_input():
    spec = desk_spectrogram(3)
    out = wpe_run(spec, TapConfig(3, 2), 0)
    assert np.array_equal(out.data, spec.data)


def test_run_validation():
    spec = desk_spectrogram(4)
    with pytest.raises(ValueError):
        wpe_run(spec, TapConfig(3, 2), -1)
    with pytest.raises(ValueError):
        wpe_run(spec, TapConfig(0, 2), 3)
