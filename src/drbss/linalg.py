"""Shared dense linear-algebra helpers for the update rules.

All demixing and prediction updates reduce to small batched complex
solves. This module centralizes the numerical conventions: the variance
floor, the relative diagonal loading applied to weighted covariance
matrices, and the solve bookkeeping used to audit per-iteration costs.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextvars import copy_context
from dataclasses import dataclass

import numpy as np

# Lower bound for time-varying source variances (applied wherever a
# variance enters a denominator or a logarithm).
VARIANCE_FLOOR = 1e-10

# Relative Tikhonov term: cov + (DIAGONAL_LOADING * trace / dim) * I.
DIAGONAL_LOADING = 1e-10

# Lower bound for the scalar denominators of rank-1 updates.
DENOMINATOR_GUARD = 1e-10

# Bytes one bin block may touch (near L2), and the threads sharing a call's
# blocks: the caller and a pool, which starts its threads on first use.
BLOCK_BYTES = 2 << 20
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _new_pool() -> None:
    global _pool  # also in a forked child, which inherits the pool but none of its threads
    _pool = ThreadPoolExecutor(max(1, WORKERS - 1), thread_name_prefix="drbss-bins")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)

class NumericalError(RuntimeError):
    """A linear solve or an objective evaluation went numerically bad."""


@dataclass
class SolveCounter:
    """Tally of the dense linear solves made by the updates, the unit of per-iteration cost.

    A solve against one matrix counts once regardless of the number of
    right-hand sides; a batched call counts once per matrix in the
    batch. The terminal projection back is not counted: it makes one
    solve per bin, one per entry of ``RunResult.scales``.
    """

    iteration_solves: int = 0


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
) -> np.ndarray:
    """Batched ``solve(mats, rhs)`` with diagnostics; each matrix counts in ``counter.iteration_solves``.

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
        counter.iteration_solves += int(np.prod(mats.shape[:-2]))
    return out


def over_bins(kernel, working_bytes: int, *arrays: np.ndarray | range, pooled: bool = True) -> None:
    """Run ``kernel(*blocks)`` over contiguous slices of the leading (bin) axis of ``arrays``.

    A kernel that blocks another axis of its operands takes ``range(n)`` and slices them itself.

    The only place a walk is sized: a call whose kernel touches ``working_bytes`` runs in
    ``ceil(working_bytes / BLOCK_BYTES)`` equal blocks (at least one, at most one per bin), in
    order on the calling thread. If ``pooled`` and that makes two blocks per worker or more, the
    count is rounded up to a multiple of ``WORKERS``, every ``WORKERS``-th block runs on the
    caller and the rest on the pool. A per-bin kernel is bit-identical for any split.
    Pool blocks run in a copy of the caller's context, so its ``np.errstate`` holds for them too.
    Every block ends before an exception is re-raised.
    """
    n_bins = len(arrays[0])
    n_blocks = -(-working_bytes // BLOCK_BYTES)
    step = WORKERS if pooled and min(n_bins, n_blocks) >= 2 * WORKERS else 1  # fewer blocks: not worth waking the pool
    n_blocks = max(1, min(n_bins, -(-n_blocks // step) * step))
    edges = [i * n_bins // n_blocks for i in range(n_blocks + 1)]
    blocks = [[a[lo:hi] for a in arrays] for lo, hi in zip(edges, edges[1:])]
    futures = [_pool.submit(copy_context().run, kernel, *b) for i, b in enumerate(blocks) if i % step]
    try:
        for b in blocks[::step]:
            kernel(*b)
    finally:
        wait(futures)
    for future in futures:
        future.result()
