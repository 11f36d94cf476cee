"""Low-rank variance model: init, reconstruction, and update behavior."""

import numpy as np
import pytest

from drbss import (
    AlgorithmVariant,
    ExtendedDemixer,
    NmfVarianceModel,
    TapConfig,
    cost,
    init_model,
    linalg,
    model_term,
    nmf_update,
    run,
    variance,
    wpe_variance_update,
)
from drbss.linalg import VARIANCE_FLOOR
from drbss.wpe import wpe_objective
from tests.conftest import desk_spectrogram, model_sum


def test_init_model_determinism_and_range():
    a = init_model(2, 3, 5, 7, seed=42)
    b = init_model(2, 3, 5, 7, seed=42)
    assert np.array_equal(a.bases, b.bases)
    assert np.array_equal(a.activations, b.activations)
    assert np.all(a.bases == 1.0)
    assert a.bases.shape == (2, 3, 5)
    assert a.activations.shape == (2, 7, 3)
    assert np.all((a.activations >= 0.1) & (a.activations < 1.0))
    c = init_model(2, 3, 5, 7, seed=43)
    assert not np.array_equal(a.activations, c.activations)


def test_init_model_rejects_bad_dims():
    with pytest.raises(ValueError):
        init_model(0, 2, 4, 4, seed=0)
    with pytest.raises(ValueError):
        init_model(2, 2, 4, 0, seed=0)


def test_variance_oracle():
    bases = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # (1, K=2, F=2)
    acts = np.array([[[1.0, 0.5], [2.0, 1.0]]])  # (1, T=2, K=2)
    model = NmfVarianceModel(bases, acts)
    r = variance(model)
    # r[f, 0, t] = sum_k bases[k, f] * acts[t, k]
    want = np.array([[[1 * 1 + 0.5 * 3, 1 * 2 + 1 * 3]], [[1 * 2 + 0.5 * 4, 2 * 2 + 1 * 4]]])
    assert np.allclose(r, want, atol=1e-15)
    assert r.shape == (2, 1, 2)


def test_variance_floor_engages():
    model = NmfVarianceModel(np.zeros((1, 1, 2)), np.zeros((1, 3, 1)))
    assert np.all(variance(model) == VARIANCE_FLOOR)
    inv = np.empty((2, 1, 3))
    assert model_term(model, np.zeros((2, 1, 3)), inv) == 6 * np.log(VARIANCE_FLOOR)
    assert np.all(inv == 1.0 / VARIANCE_FLOOR)


def test_exact_rank_one_fit_is_a_fixed_point():
    """When the power is exactly the modelled product, neither half moves."""
    rng = np.random.default_rng(0)
    bases = rng.uniform(0.5, 2.0, size=(2, 1, 6))
    acts = rng.uniform(0.5, 2.0, size=(2, 9, 1))
    model = NmfVarianceModel(bases.copy(), acts.copy())
    power = variance(model).copy()
    inv = np.empty(power.shape)
    nmf_update(model, np.sqrt(power), inv)
    assert np.allclose(model.bases, bases, rtol=1e-12)
    assert np.allclose(model.activations, acts, rtol=1e-12)
    assert np.allclose(1.0 / inv, power, rtol=1e-12)


def test_updates_monotone_in_model_cost():
    """Fifty sweeps against random power never increase the divergence, which each sweep returns."""
    rng = np.random.default_rng(1)
    power = rng.uniform(0.1, 4.0, size=(2, 8, 20)).transpose(1, 0, 2)  # (F, N, T)
    outputs = np.sqrt(power)
    model = init_model(2, 3, 8, 20, seed=5)
    inv = np.empty(power.shape)
    costs = [model_term(model, outputs, inv)]
    for _ in range(50):
        costs.append(nmf_update(model, outputs, inv))
    diffs = np.diff(costs)
    assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(costs[:-1])))
    assert costs[-1] < costs[0]
    assert np.isclose(costs[-1], model_sum(np.abs(outputs) ** 2, variance(model)), rtol=1e-14, atol=0)


def test_update_handles_zero_power():
    model = init_model(1, 2, 4, 6, seed=2)
    inv = np.empty((4, 1, 6))
    assert np.isfinite(nmf_update(model, np.zeros((4, 1, 6)), inv))
    assert np.all(np.isfinite(inv))
    assert np.all((inv > 0) & (inv <= 1.0 / VARIANCE_FLOOR))
    assert np.all(model.bases > 0)
    assert np.all(model.activations > 0)


def test_update_validates_input():
    model = init_model(1, 2, 4, 6, seed=3)
    for sweep in (nmf_update, model_term):
        with pytest.raises(ValueError):
            sweep(model, np.zeros((4, 1, 5)), np.empty((4, 1, 6)))
        with pytest.raises(ValueError):
            sweep(model, np.zeros((4, 1, 6)), np.empty((4, 1, 5)))
        with pytest.raises(ValueError):
            sweep(model, np.zeros((4, 2, 6)), np.empty((4, 2, 6)))


def test_factors_stay_nonnegative():
    rng = np.random.default_rng(4)
    model = init_model(2, 2, 6, 10, seed=6)
    inv = np.empty((6, 2, 10))
    for _ in range(10):
        power = rng.uniform(0.0, 2.0, size=(2, 6, 10)).transpose(1, 0, 2)  # (F, N, T)
        nmf_update(model, np.sqrt(power), inv)
        assert np.all(model.bases > 0)
        assert np.all(model.activations > 0)


def test_variances_share_the_outputs_layout():
    """``variance`` and ``nmf_update``'s buffer are (F, N, T), the layout of ``run``'s outputs."""
    spec = desk_spectrogram(13, n_samples=4000, n_sources=3)
    outputs = run(AlgorithmVariant.ILRMA_ISS, spec, iterations=1).outputs.data
    model = init_model(3, 2, spec.n_bins, spec.n_frames, seed=0)
    assert variance(model).shape == outputs.shape
    inv = np.empty(outputs.shape)
    nmf_update(model, outputs, inv)
    assert np.array_equal(inv, 1.0 / variance(model))


def test_variances_are_f_fastest_and_refreshed_in_place():
    """``variance`` is (F, N, T)-shaped but laid out (N, T, F) in memory, the order einsum
    gives it and NMF's bits depend on; ``model_term`` and ``nmf_update`` evaluate the model
    per block in that order and write its inverse into the caller's C-ordered buffer, bit for
    bit the inverse of ``variance``, and return the model term."""
    model = init_model(2, 3, 5, 7, seed=0)
    r = variance(model)
    assert r.shape == (5, 2, 7)
    assert r.strides == (r.itemsize, 5 * 7 * r.itemsize, 5 * r.itemsize)
    rng = np.random.default_rng(7)
    outputs = rng.standard_normal((5, 2, 7)) + 1j * rng.standard_normal((5, 2, 7))
    inv = np.empty((5, 2, 7))
    for sweep in (model_term, nmf_update):
        term = sweep(model, outputs, inv)
        r = variance(model)
        assert inv.flags.c_contiguous and np.array_equal(inv, 1.0 / r)
        assert np.isclose(term, model_sum(np.abs(outputs) ** 2, r), rtol=1e-15, atol=0)


@pytest.mark.parametrize("workers, block_bytes", [(1, linalg.BLOCK_BYTES), (2, 1 << 10)])
def test_model_cost_sums_in_power_and_takes_a_wpe_track(monkeypatch, workers, block_bytes):
    """The model term sums power/r + log r for (F, N, T) tensors and WPE's (F, T) track alike:
    ``model_term``'s block walk gives, for any split and worker count, the bits it gives in one
    block, with its 1/r in the buffer; ``wpe_objective`` is, bit for bit, the oracle's model sum
    of the channel-averaged power under the track; the oracle's one expression has the bits of a
    division and an in-place addition; ``cost`` adds the term it is given to the log-det term,
    which the identity filter makes zero."""
    rng = np.random.default_rng(8)
    z = rng.standard_normal((33, 2, 40)) + 1j * rng.standard_normal((33, 2, 40))
    track = wpe_variance_update(z)
    model = init_model(2, 2, 33, 40, seed=8)
    inv = np.empty(z.shape)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1 << 30)
    whole = model_term(model, z, inv)
    monkeypatch.setattr(linalg, "WORKERS", workers)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
    inv[...] = 0.0
    assert model_term(model, z, inv) == whole
    assert np.array_equal(inv, 1.0 / variance(model))
    assert np.isclose(whole, model_sum(np.abs(z) ** 2, variance(model)), rtol=1e-15, atol=0)
    for power, variances in ((np.abs(z) ** 2, variance(model)), (np.mean(np.abs(z) ** 2, axis=1), track)):
        want = power / variances
        want += np.log(variances)
        assert model_sum(power, variances) == float(np.sum(want))
    assert wpe_objective(z, track) == model_sum(np.sum(np.abs(z) ** 2, axis=1) / 2, track)

    want = model_sum(np.abs(z) ** 2, variance(model))
    assert cost(ExtendedDemixer.identity(33, 2, TapConfig(0, 1)), 40, want) == want
