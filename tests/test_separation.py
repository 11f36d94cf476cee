"""Row updates: iterative projection and solve-free source steering."""

import tracemalloc

import numpy as np
import pytest

from drbss import AlgorithmVariant, NumericalError, linalg, run, separation
from drbss.ilrma_t import _joint_tap_update
from drbss.linalg import add_loading, checked_solve
from drbss.separation import (
    ip_update_row,
    iss_coefficients,
    iss_source_sweep,
    weighted_cov,
    weighted_gram,
)
from drbss.stacking import ExtendedDemixer, TapConfig
from drbss.wpe import wpe_filter_update
from tests.conftest import desk_spectrogram, normal_equation_instance, objective, stack_rows, zero_tap_stack


def random_instance(seed, n_bins=4, n_src=2, n_frames=60):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_bins, n_src, n_frames)) + 1j * rng.standard_normal(
        (n_bins, n_src, n_frames)
    )
    variances = rng.uniform(0.5, 2.0, size=(n_src, n_bins, n_frames)).transpose(1, 0, 2)  # (F, N, T)
    return x, variances


def test_weighted_cov_oracle():
    v = np.array([[[1.0 + 0j, 2.0], [1j, 0.0]]])  # (1, 2, 2)
    w = np.array([[1.0, 2.0]])
    got = weighted_cov(zero_tap_stack(v), 1.0 / w[:, None, :])[:, 0]
    want = (
        np.outer(v[0, :, 0], v[0, :, 0].conj()) / 1.0
        + np.outer(v[0, :, 1], v[0, :, 1].conj()) / 2.0
    ) / 2.0
    assert np.allclose(got[0], want, atol=1e-14)
    assert np.allclose(got[0], got[0].conj().T, atol=1e-14)


def test_weighted_cov_zero_frames():
    with pytest.raises(ValueError):
        weighted_cov(zero_tap_stack(np.zeros((1, 2, 0), dtype=complex)), np.zeros((1, 1, 0)))


def test_ip_row_is_unit_norm_under_its_covariance():
    """Each updated row w satisfies w^T G conj(w) = 1."""
    x, variances = random_instance(0)
    dm = ExtendedDemixer.identity(x.shape[0], 2, TapConfig(0, 1))
    covs = weighted_cov(zero_tap_stack(x), 1.0 / variances)
    for n in range(2):
        g = add_loading(covs[:, n])
        ip_update_row(dm.top, g, n)
        w = dm.top[:, n, :]
        q = np.einsum("fd,fde,fe->f", w, g, w.conj())
        assert np.allclose(q.real, 1.0, atol=1e-12)
        assert np.allclose(q.imag, 0.0, atol=1e-12)


def test_ip_sweeps_decrease_cost_at_fixed_variances():
    x, variances = random_instance(1)
    n_bins, n_src, _ = x.shape
    dm = ExtendedDemixer.identity(n_bins, n_src, TapConfig(0, 1))
    outputs = dm.top @ x
    values = [objective(dm, outputs, variances)]
    for _ in range(20):
        covs = add_loading(weighted_cov(zero_tap_stack(x), 1.0 / variances))
        for n in range(n_src):
            ip_update_row(dm.top, covs[:, n], n)
        outputs = dm.top @ x
        values.append(objective(dm, outputs, variances))
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-8 * np.maximum(1.0, np.abs(np.asarray(values[:-1]))))


def test_ip_fixed_point_resists_row_perturbations():
    """After convergence, nudging any free row does not lower the cost."""
    x, variances = random_instance(2, n_bins=3, n_frames=50)
    n_bins, n_src, _ = x.shape
    dm = ExtendedDemixer.identity(n_bins, n_src, TapConfig(0, 1))
    for _ in range(200):
        covs = add_loading(weighted_cov(zero_tap_stack(x), 1.0 / variances))
        for n in range(n_src):
            ip_update_row(dm.top, covs[:, n], n)
    base = objective(dm, dm.top @ x, variances)
    rng = np.random.default_rng(3)
    for _ in range(10):
        bump = 1e-4 * (
            rng.standard_normal(dm.top.shape)
            + 1j * rng.standard_normal(dm.top.shape)
        )
        trial = ExtendedDemixer(dm.top + bump)
        assert objective(trial, trial.top @ x, variances) >= base - 1e-8


def test_ip_singular_block_raises():
    x, variances = random_instance(4)
    dm = ExtendedDemixer.identity(x.shape[0], 2, TapConfig(0, 1))
    dm.top[1, :2, :2] = 0.0
    g = add_loading(weighted_cov(zero_tap_stack(x), 1.0 / variances)[:, 0])
    with pytest.raises(NumericalError, match="frequency bin 1"):
        ip_update_row(dm.top, g, 0)


def test_ip_nonpositive_projection_norm_raises():
    x, variances = random_instance(5)
    dm = ExtendedDemixer.identity(x.shape[0], 2, TapConfig(0, 1))
    bad = np.broadcast_to(-np.eye(2, dtype=complex), (x.shape[0], 2, 2)).copy()
    with pytest.raises(NumericalError, match="non-positive projection norm"):
        ip_update_row(dm.top, bad, 0)


def test_iss_self_gain_normalizes_pivot():
    """After a pivot update its weighted power equals the frame count. The last pivot, N-1, is the last
    update of a sweep to touch its output, so that holds for it when the sweep ends."""
    x, variances = random_instance(6)
    n_bins, n_src, n_frames = x.shape
    top = ExtendedDemixer.identity(n_bins, n_src, TapConfig(0, 1)).top
    outputs = x.copy()
    iss_source_sweep(top, outputs, 1.0 / variances)
    weighted_power = np.einsum(
        "ft,ft->f", np.abs(outputs[:, -1, :]) ** 2, 1.0 / variances[:, -1]
    )
    assert np.allclose(weighted_power, n_frames, rtol=1e-10)


def test_iss_signal_form_matches_covariance_form():
    """Gains from live outputs equal gains from weighted covariances."""
    x, variances = random_instance(7, n_bins=5)
    n_bins, n_src, n_frames = x.shape
    rng = np.random.default_rng(8)
    w = rng.standard_normal((n_bins, n_src, n_src)) + 1j * rng.standard_normal(
        (n_bins, n_src, n_src)
    )
    w += 2.0 * np.eye(n_src)
    outputs = w @ x
    covs = weighted_cov(zero_tap_stack(x), 1.0 / variances)
    for pivot in range(n_src):
        got = iss_coefficients(outputs, 1.0 / variances, pivot)
        want = np.empty_like(got)
        for f in range(n_bins):
            for m in range(n_src):
                g = covs[f, m]
                num = w[f, m] @ g @ w[f, pivot].conj()
                den = w[f, pivot] @ g @ w[f, pivot].conj()
                if m == pivot:
                    want[f, m] = 1.0 - 1.0 / np.sqrt(den.real)
                else:
                    want[f, m] = num / den
        assert np.abs(got - want).max() <= 1e-10


def test_iss_sweep_keeps_outputs_consistent():
    """Incrementally maintained outputs match a fresh multiply."""
    x, variances = random_instance(9)
    n_bins, n_src, _ = x.shape
    top = ExtendedDemixer.identity(n_bins, n_src, TapConfig(0, 1)).top
    outputs = x.copy()
    for _ in range(5):
        iss_source_sweep(top, outputs, 1.0 / variances)
    fresh = top @ x
    assert np.abs(outputs - fresh).max() <= 1e-10


def test_iss_sweep_decreases_cost():
    x, variances = random_instance(10)
    n_bins, n_src, _ = x.shape
    dm = ExtendedDemixer.identity(n_bins, n_src, TapConfig(0, 1))
    outputs = x.copy()
    values = [objective(dm, outputs, variances)]
    for _ in range(20):
        iss_source_sweep(dm.top, outputs, 1.0 / variances)
        values.append(objective(dm, outputs, variances))
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-8 * np.maximum(1.0, np.abs(np.asarray(values[:-1]))))


def test_iss_zero_pivot_stays_finite():
    x, variances = random_instance(11)
    x[:, 1, :] = 0.0
    top = ExtendedDemixer.identity(x.shape[0], 2, TapConfig(0, 1)).top
    outputs = x.copy()
    iss_source_sweep(top, outputs, 1.0 / variances)
    assert np.all(np.isfinite(top))
    assert np.all(np.isfinite(outputs))


STEERING_VARIANTS = (
    AlgorithmVariant.ILRMA_ISS,
    AlgorithmVariant.ILRMA_T_ISS_SEQ,
    AlgorithmVariant.ILRMA_T_ISS_JOINT,
    AlgorithmVariant.WPE_ILRMA_ISS,
)


@pytest.mark.parametrize("n_src", [2, 3])
@pytest.mark.parametrize("variant", STEERING_VARIANTS, ids=lambda v: v.value)
def test_steering_moves_log_det_by_the_self_gain_alone(monkeypatch, variant, n_src):
    """A source-steering step multiplies bin f's separation block by I - g e_n^T, so log|det W_f|
    moves by exactly log|1 - g_n| (the matrix determinant lemma), and no tap step touches the
    block: the sum of those terms tracks ``slogdet`` at every iteration."""
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1 << 40)  # every sweep is one block of all bins, on the caller
    spec = desk_spectrogram(0, frame_len=256, hop=64, n_sources=n_src, n_samples=8000)
    log_det = np.zeros(spec.n_bins)
    coefficients = separation.iss_coefficients

    def tracked(outputs, inv, n):
        gains = coefficients(outputs, inv, n)
        log_det[:] += np.log(np.abs(1.0 - gains[:, n]))
        return gains

    def check(i, outputs, dm):
        assert np.abs(np.linalg.slogdet(dm.mixing)[1] - log_det).max() <= 1e-12
        checked.append(i)

    checked = []
    monkeypatch.setattr(separation, "iss_coefficients", tracked)
    run(variant, spec, iterations=30, taps=TapConfig(5, 2), callback=check)
    assert checked == list(range(31)) and np.abs(log_det).max() > 0


def peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_normal_equation_builders_hold_one_operand_sized_temporary():
    """Peak allocation stays below the (F, D, T) operand the builders gather."""
    spec, sx, dm, variances, outputs = normal_equation_instance()
    inv = 1.0 / variances
    tilde = stack_rows(sx)
    tilde_bytes, past_bytes = tilde.nbytes, tilde[:, dm.n_channels :].nbytes
    joint = peak_traced_bytes(lambda: _joint_tap_update(dm, sx, inv, outputs))
    cov = peak_traced_bytes(lambda: weighted_cov(sx, inv))
    wpe = peak_traced_bytes(lambda: wpe_filter_update(variances[:, 0], sx))
    assert joint < past_bytes
    assert cov < tilde_bytes
    assert wpe < past_bytes


def test_normal_equation_builders_are_bit_identical_to_direct_products():
    """Oracles: the weighted operand times the conjugated one, as written."""
    spec, sx, dm, variances, outputs = normal_equation_instance(seed=1)
    tilde, n = stack_rows(sx), dm.n_channels
    past = tilde[:, n:]  # a strided view
    covs = weighted_cov(sx, 1.0 / variances)
    grams = np.empty_like(covs[:, :, n:, n:])
    weighted_gram(sx.gather(spec.data, past=True), 1.0 / variances, grams)
    for m in range(n):  # all rows, contiguous, and the delayed rows, strided
        inv = 1.0 / variances[:, m]
        want = (tilde * inv[:, None, :]) @ tilde.conj().swapaxes(1, 2) / tilde.shape[2]
        assert np.array_equal(covs[:, m], want)
        assert np.array_equal(grams[:, m], (past * inv[:, None, :]) @ past.conj().swapaxes(1, 2))

    inv = 1.0 / variances
    weighted = past[:, None, :, :] * inv[:, :, None, :]  # (F, N, NL, T)
    normal = weighted @ past.conj().swapaxes(1, 2)[:, None, :, :]
    rhs = weighted @ outputs[:, :, None, :].conj().swapaxes(2, 3)  # (F, N, NL, 1)
    gains = checked_solve(add_loading(normal), rhs, "oracle")[..., 0].conj()
    want_top = dm.top.copy()
    want_top[:, :, n:] -= gains
    want_outputs = outputs - gains @ past
    _joint_tap_update(dm, sx, inv, outputs)
    assert np.array_equal(dm.top, want_top)
    assert np.array_equal(outputs, want_outputs)

    inv = 1.0 / variances[:, 0]
    weighted = past * inv[:, None, :]
    normal = weighted @ past.conj().swapaxes(1, 2)
    rhs = weighted @ spec.data.conj().swapaxes(1, 2)
    want = checked_solve(add_loading(normal), rhs, "oracle").conj().swapaxes(1, 2)
    assert np.array_equal(wpe_filter_update(variances[:, 0], sx), want)
