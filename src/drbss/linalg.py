"""Shared dense linear-algebra helpers for the update rules.

All demixing and prediction updates reduce to small batched complex
solves. This module centralizes the numerical conventions: the variance
floor, the relative diagonal loading applied to weighted covariance
matrices, and the solve bookkeeping used to audit per-iteration costs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Lower bound for time-varying source variances (applied wherever a
# variance enters a denominator or a logarithm).
VARIANCE_FLOOR = 1e-10

# Relative Tikhonov term: cov + (DIAGONAL_LOADING * trace / dim) * I.
DIAGONAL_LOADING = 1e-10

# Lower bound for the scalar denominators of rank-1 updates.
DENOMINATOR_GUARD = 1e-10


class NumericalError(RuntimeError):
    """A linear solve or an objective evaluation went numerically bad."""


@dataclass
class SolveCounter:
    """Tally of dense linear solves, the unit of per-iteration cost.

    A solve against one matrix counts once regardless of the number of
    right-hand sides; a batched call counts once per matrix in the
    batch. Terminal projection-back solves are tallied separately so
    iteration budgets stay comparable across algorithms.
    """

    iteration_solves: int = 0
    projection_solves: int = 0

    def count(self, n: int = 1) -> None:
        self.iteration_solves += int(n)

    def count_projection(self, n: int = 1) -> None:
        self.projection_solves += int(n)


def add_loading(mats: np.ndarray) -> np.ndarray:
    """Return ``mats + (DIAGONAL_LOADING * trace / dim) * I`` over the last two axes."""
    dim = mats.shape[-1]
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    return mats + (DIAGONAL_LOADING / dim) * tr[..., None, None] * np.eye(dim)


def checked_solve(
    mats: np.ndarray,
    rhs: np.ndarray,
    what: str,
    counter: SolveCounter | None = None,
    projection: bool = False,
) -> np.ndarray:
    """Batched ``solve(mats, rhs)`` with diagnostics and solve tallying.

    ``mats`` has shape (..., D, D) with the frequency bin on the leading
    axis; a singular system is reported with its bin index instead of
    propagating NaNs.
    """
    try:
        out = np.linalg.solve(mats, rhs)
    except np.linalg.LinAlgError:
        flat = mats.reshape(-1, mats.shape[-1], mats.shape[-1])
        dets = np.linalg.det(flat)
        bad = np.flatnonzero(~np.isfinite(dets) | (dets == 0))
        first = int(bad[0]) if bad.size else 0
        bin_index = np.unravel_index(first, mats.shape[:-2])[0] if mats.ndim > 2 else 0
        raise NumericalError(
            f"singular {what} at frequency bin {bin_index}"
        ) from None
    if counter is not None:
        n_systems = int(np.prod(mats.shape[:-2]))
        if projection:
            counter.count_projection(n_systems)
        else:
            counter.count(n_systems)
    return out
