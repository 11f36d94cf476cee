"""Determined-BSS row updates shared by the plain and unified filters.

Two exact row updates for the Gaussian determined-mixture objective:
an iterative-projection step that solves two small systems per row, and
an iterative source-steering step that is solve-free. Both operate on
the leading rows of a (possibly extended) square demixing matrix and
never touch the pinned tap rows.
"""
from __future__ import annotations

import numpy as np

from .linalg import DENOMINATOR_GUARD, NumericalError, SolveCounter, checked_solve, over_bins


def weighted_gram(vectors: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Weighted Gram matrices sum_t inv v v^H, shape (F, D, D).

    ``vectors`` is (F, D, T); ``inv`` is a real (F, T) weight track. Per bin
    block, the only (B, D, T) temporary is the weighted conjugate; since
    conj(x) conj(y) == conj(x y) exactly, the result is bit-identical to
    ``(vectors * inv) @ vectors.conj().swapaxes(1, 2)``.
    """
    out = np.empty(vectors.shape[:2] + vectors.shape[1:2], dtype=np.result_type(vectors, inv))
    over_bins(_gram_block, len(vectors), 2 * vectors.nbytes + inv.nbytes, vectors, inv, out)
    return out


def _gram_block(vectors: np.ndarray, inv: np.ndarray, out: np.ndarray) -> None:
    weighted = vectors.conj()
    weighted *= inv[:, None, :]
    np.conj(np.matmul(weighted, vectors.swapaxes(1, 2), out=out), out=out)


def weighted_cov(vectors: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Frame-averaged covariance sum_t inv v v^H / T, shape (F, D, D).

    ``vectors`` is (F, D, T); ``inv`` is a real (F, T) inverse-variance
    track 1 / r, as for ``weighted_gram``.
    """
    if vectors.shape[2] == 0:
        raise ValueError("cannot average a covariance over zero frames")
    return weighted_gram(vectors, inv) / vectors.shape[2]


def ip_update_row(
    matrix: np.ndarray,
    cov: np.ndarray,
    row: int,
    n_channels: int,
    counter: SolveCounter | None = None,
) -> None:
    """Iterative-projection update of one demixing row, in place.

    ``matrix`` is the (F, D, D) filter whose leading ``n_channels``
    rows are free; ``cov`` is the diagonally loaded weighted covariance
    of the stacked observation under the row's source variance. Exactly
    two solves per frequency: one against the separation block, one
    against the covariance.
    """
    n_bins, dim, _ = matrix.shape
    n = n_channels
    rhs = np.zeros((n, 1), dtype=np.complex128)
    rhs[row, 0] = 1.0
    a = np.zeros((n_bins, dim), dtype=np.complex128)  # zero over the tap columns
    a[:, :n] = checked_solve(matrix[:, :n, :n], rhs, "separation block", counter)[..., 0]
    u = checked_solve(cov, a[..., None], "weighted covariance", counter)[..., 0]
    scale = np.einsum("fd,fd->f", a.conj(), u).real
    if np.any(scale <= 0) or not np.all(np.isfinite(scale)):
        bad = int(np.flatnonzero((scale <= 0) | ~np.isfinite(scale))[0])
        raise NumericalError(f"non-positive projection norm at frequency bin {bad}")
    matrix[:, row, :] = u.conj() / np.sqrt(scale)[:, None]


def steering_gains(
    weighted: np.ndarray, inv: np.ndarray, pivot_conj: np.ndarray, pivot_power: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 steering gains of every output y against a pivot p, shape (F, N).

    ``weighted`` is y / r, (F, N, T), for the inverse variances ``inv``; the
    pivot enters as conj(p) and |p|^2, (F, T), so a sweep can hoist them. Each
    gain is sum_t y conj(p) / r divided by the guarded weighted pivot power
    sum_t |p|^2 / r, which is also returned: the exact coordinate minimizer.
    """
    num = np.einsum("fmt,ft->fm", weighted, pivot_conj)
    den = np.maximum(np.einsum("fmt,ft->fm", inv, pivot_power), DENOMINATOR_GUARD)
    return num / den, den


def iss_coefficients(outputs: np.ndarray, inv: np.ndarray, n: int) -> np.ndarray:
    """Source-steering gains for pivot source ``n``, shape (F, N).

    ``inv`` holds the (F, N, T) inverse variances 1 / r. Computed from the
    current outputs alone: cross gains are ratios of variance-weighted
    correlations, and the self gain rescales the pivot to unit weighted power.
    """
    n_frames = outputs.shape[2]
    pivot = outputs[:, n, :]
    gains, den = steering_gains(outputs * inv, inv, pivot.conj(), np.abs(pivot) ** 2)
    gains[:, n] = 1.0 - np.sqrt(n_frames) / np.sqrt(den[:, n])
    return gains


def iss_update_source(
    matrix: np.ndarray,
    outputs: np.ndarray,
    inv: np.ndarray,
    n: int,
) -> None:
    """Rank-1 source-steering update around pivot source ``n``, in place.

    Subtracts ``gains[m] * row_n`` from every free row and keeps the
    outputs consistent incrementally. No linear solves.
    """
    n_src = outputs.shape[1]
    gains = iss_coefficients(outputs, inv, n)
    pivot_row = matrix[:, n, :].copy()
    pivot_out = outputs[:, n, :].copy()
    matrix[:, :n_src, :] -= gains[:, :, None] * pivot_row[:, None, :]
    outputs -= gains[:, :, None] * pivot_out[:, None, :]


def iss_source_sweep(
    matrix: np.ndarray,
    outputs: np.ndarray,
    inv: np.ndarray,
) -> None:
    """One steering sweep over sources 0..N-1 under fixed (F, N, T) inverse variances."""
    # per pivot it touches the outputs, their weighted copy and update, and inv
    over_bins(_iss_block, outputs.shape[0], 3 * outputs.nbytes + inv.nbytes, matrix, outputs, inv)


def _iss_block(matrix: np.ndarray, outputs: np.ndarray, inv: np.ndarray) -> None:
    for n in range(outputs.shape[1]):
        iss_update_source(matrix, outputs, inv, n)
