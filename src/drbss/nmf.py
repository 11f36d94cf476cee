"""Low-rank nonnegative variance model for the separated sources.

Each source's time-frequency variance is r[:, n] = bases[n].T @
activations[n].T, updated with multiplicative rules that never increase
the Itakura-Saito fit between the output power and the model. Power and
variances share the outputs' (F, N, T) layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import VARIANCE_FLOOR

# Lower bound applied to the nonnegative factors themselves, so a
# factor driven to zero cannot wedge later multiplicative updates.
FACTOR_FLOOR = 1e-12


@dataclass
class NmfVarianceModel:
    """Per-source factors: bases (N, K, F), activations (N, T, K)."""

    bases: np.ndarray
    activations: np.ndarray
    floor: float = VARIANCE_FLOOR

    @property
    def n_sources(self) -> int:
        return self.bases.shape[0]


def init_model(
    n_sources: int, n_bases: int, n_bins: int, n_frames: int, seed: int
) -> NmfVarianceModel:
    """Unit bases, activations drawn uniformly from [0.1, 1)."""
    if min(n_sources, n_bases, n_bins, n_frames) < 1:
        raise ValueError("model dimensions must be positive")
    rng = np.random.default_rng(seed)
    bases = np.ones((n_sources, n_bases, n_bins))
    activations = rng.uniform(0.1, 1.0, size=(n_sources, n_frames, n_bases))
    return NmfVarianceModel(bases, activations)


def variance(model: NmfVarianceModel) -> np.ndarray:
    """Modelled variances, shape (F, N, T), floored away from zero."""
    r = np.einsum("nkf,ntk->fnt", model.bases, model.activations)
    return np.maximum(r, model.floor)


def nmf_update(model: NmfVarianceModel, power: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """One multiplicative sweep (bases, then activations) against ``power``.

    ``power`` is the output power |y|^2 and ``variances`` the model's
    current ``variance(model)``, both (F, N, T). The model is evaluated
    once after each half-update; the second, refreshed variances are
    returned.
    """
    shape = (model.bases.shape[2], model.n_sources, model.activations.shape[1])
    if power.shape != shape or variances.shape != shape:
        raise ValueError("power and variance tensor shapes do not match the model")
    if np.any(power < 0):
        raise ValueError("power tensor must be nonnegative")

    for factor, other, subscripts in (
        (model.bases, model.activations, "ntk,fnt->nkf"),
        (model.activations, model.bases, "nkf,fnt->ntk"),
    ):
        num = np.einsum(subscripts, other, power / (variances * variances))
        den = np.einsum(subscripts, other, 1.0 / variances)
        factor *= np.sqrt(num / np.maximum(den, FACTOR_FLOOR))
        np.maximum(factor, FACTOR_FLOOR, out=factor)
        variances = variance(model)
    return variances


def model_cost(power: np.ndarray, variances: np.ndarray) -> float:
    """Sum of power/r + log r, the variance-model part of the objective."""
    q = power / variances
    q += np.log(variances)
    return float(np.sum(q))
