"""Determined-BSS row updates shared by the plain and unified filters.

Two exact row updates for the Gaussian determined-mixture objective:
an iterative-projection step that solves two small systems per row, and
an iterative source-steering step that is solve-free. Both act on the
free rows ``top``, (F, N, D), of a (possibly extended) demixing filter,
which are all that ``ExtendedDemixer`` stores.
"""
from __future__ import annotations

import numpy as np

from .linalg import DENOMINATOR_GUARD, NumericalError, SolveCounter, add_loading, checked_solve, over_bins
from .stacking import StackedObservation


def weighted_gram(
    rows: np.ndarray, inv: np.ndarray, out: np.ndarray, targets: np.ndarray | None = None, rhs: np.ndarray | None = None
) -> None:
    """Weighted Gram matrices sum_t inv v v^H of one bin block, into ``out``, (B, K, D, D).

    ``rows`` is (B, D, T) and ``inv`` K real weight tracks, (B, K, T). Given ``targets``, (B, K, J, T), track k
    also writes the right-hand sides sum_t inv v conj(u) of its J targets u into ``rhs``, (B, K, D, J). The
    tracks share one scratch for conj(rows) * inv; as conj(x) conj(y) == conj(x y) exactly, each product is
    bit-identical to ``(rows * inv) @ rows.conj().mT``, or ``(rows * inv) @ targets[:, k].conj().mT``.
    """
    weighted = np.empty_like(rows)
    for k in range(inv.shape[1]):
        np.multiply(np.conjugate(rows, out=weighted), inv[:, k, None, :], out=weighted)
        np.conj(np.matmul(weighted, rows.swapaxes(1, 2), out=out[:, k]), out=out[:, k])
        if targets is not None:
            np.conj(np.matmul(weighted, targets[:, k].swapaxes(1, 2), out=rhs[:, k]), out=rhs[:, k])


def prediction_solve(
    sx: StackedObservation, inv: np.ndarray, targets: np.ndarray, what: str, counter: SolveCounter | None
) -> np.ndarray:
    """Weighted linear-prediction coefficients c, (F, K, L, J), of ``targets`` from the delayed stacked rows.

    Per bin and real weight track k of ``inv``, (F, K, T), it solves sum_t inv p p^H c = sum_t inv p conj(u),
    loaded, for the L delayed rows p and the J targets u of ``targets[:, k]``, (F, K, J, T): one solve per
    (bin, track), counted as ``what``, over the bin blocks of ``sx.over_blocks``.
    """
    lags = sx.dim - sx.n_channels
    normal = np.empty((*inv.shape[:2], lags, lags), dtype=np.complex128)
    rhs = np.empty((*inv.shape[:2], lags, targets.shape[2]), dtype=np.complex128)
    shared = np.may_share_memory(targets, sx.spec.data)  # over_blocks already counts spec.data
    extra = inv.nbytes + (0 if shared else targets.nbytes)
    # one track forms one Gram per gathered block, too little to gain from the pool
    sx.over_blocks(weighted_gram, True, extra, inv, normal, targets, rhs, pooled=inv.shape[1] > 1)
    return checked_solve(add_loading(normal), rhs, what, counter)


def weighted_cov(sx: StackedObservation, inv: np.ndarray) -> np.ndarray:
    """Frame-averaged covariances sum_t inv v v^H / T of the stacked rows v, (F, N, D, D).

    ``inv`` holds the real (F, N, T) inverse variances 1 / r. Each bin block
    gathers its stacked rows once for every source's ``weighted_gram``; the
    sums are divided by T once, after the walk.
    """
    n_bins, n_src, n_frames = inv.shape
    if n_frames == 0:
        raise ValueError("cannot average a covariance over zero frames")
    out = np.empty((n_bins, n_src, sx.dim, sx.dim), dtype=np.complex128)
    sx.over_blocks(weighted_gram, False, inv.nbytes, inv, out)
    out /= n_frames
    return out


def ip_update_row(top: np.ndarray, cov: np.ndarray, row: int, counter: SolveCounter | None = None) -> None:
    """Iterative-projection update of one free row of ``top``, (F, N, D), in place.

    ``cov`` is the diagonally loaded weighted covariance of the stacked
    observation under the row's source variance. Exactly two solves per
    frequency: one against the separation block, one against the covariance.
    """
    n_bins, n, dim = top.shape
    rhs = np.zeros((n, 1), dtype=np.complex128)
    rhs[row, 0] = 1.0
    a = np.zeros((n_bins, dim), dtype=np.complex128)  # zero over the tap columns
    a[:, :n] = checked_solve(top[:, :, :n], rhs, "separation block", counter)[..., 0]
    u = checked_solve(cov, a[..., None], "weighted covariance", counter)[..., 0]
    scale = np.einsum("fd,fd->f", a.conj(), u).real
    if np.any(scale <= 0) or not np.all(np.isfinite(scale)):
        bad = int(np.flatnonzero((scale <= 0) | ~np.isfinite(scale))[0])
        raise NumericalError(f"non-positive projection norm at frequency bin {bad}")
    top[:, row, :] = u.conj() / np.sqrt(scale)[:, None]


def steering_gains(
    weighted: np.ndarray, inv: np.ndarray, pivot: np.ndarray, pivot_power: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 steering gains of every output y against a pivot p, shape (F, N).

    ``weighted`` is y / r, (F, N, T), for the inverse variances ``inv``; the
    pivot enters as p and |p|^2, (F, T), so a sweep can hoist the power. Each
    gain is sum_t y conj(p) / r divided by the guarded weighted pivot power
    sum_t |p|^2 / r, which is also returned: the exact coordinate minimizer.
    Both sums are BLAS dot products over frames (``vecdot`` conjugates its
    first argument), which read contiguous memory when ``inv`` is C-ordered.
    """
    num = np.vecdot(pivot[:, None, :], weighted)
    den = np.maximum(np.vecdot(inv, pivot_power[:, None, :]), DENOMINATOR_GUARD)
    return num / den, den


def iss_coefficients(outputs: np.ndarray, inv: np.ndarray, n: int) -> np.ndarray:
    """Source-steering gains for pivot source ``n``, shape (F, N).

    ``inv`` holds the (F, N, T) inverse variances 1 / r. Computed from the
    current outputs alone: cross gains are ratios of variance-weighted
    correlations, and the self gain rescales the pivot to unit weighted power.
    """
    n_frames = outputs.shape[2]
    pivot = outputs[:, n, :]
    gains, den = steering_gains(outputs * inv, inv, pivot, np.abs(pivot) ** 2)
    gains[:, n] = 1.0 - np.sqrt(n_frames) / np.sqrt(den[:, n])
    return gains


def iss_update_source(top: np.ndarray, outputs: np.ndarray, inv: np.ndarray, n: int) -> None:
    """Rank-1 source-steering update around pivot source ``n``, in place.

    Subtracts ``gains[m] * row_n`` from every free row of ``top``,
    (F, N, D), and keeps the outputs consistent incrementally. No linear solves.
    """
    gains = iss_coefficients(outputs, inv, n)
    top -= gains[:, :, None] * top[:, None, n, :]  # the product is whole before the subtraction reads it
    outputs -= gains[:, :, None] * outputs[:, None, n, :]


def iss_source_sweep(top: np.ndarray, outputs: np.ndarray, inv: np.ndarray) -> None:
    """One steering sweep of the free rows ``top`` over sources 0..N-1 under fixed (F, N, T) inverse variances."""
    # per pivot it touches the outputs, their weighted copy and update, and inv
    over_bins(_iss_block, 3 * outputs.nbytes + inv.nbytes, top, outputs, inv)


def _iss_block(top: np.ndarray, outputs: np.ndarray, inv: np.ndarray) -> None:
    for n in range(outputs.shape[1]):
        iss_update_source(top, outputs, inv, n)
