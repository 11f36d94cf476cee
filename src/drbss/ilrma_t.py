"""Joint dereverberation and separation with a unified square filter.

The algorithms minimize the negative log-likelihood of a determined
Gaussian mixture model with low-rank source variances,

    sum_f -2 T log|det W_f|  +  sum_{n,f,t} (|y|^2 / r + log r),

where y is produced by one extended filter that both separates and
predicts late reverberation away. Three exact update families are
provided (iterative projection, joint source steering, sequential
source steering) plus the plain separation baselines as the taps->0
special case of the same engine.
"""
from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import (
    DENOMINATOR_GUARD,
    NumericalError,
    SolveCounter,
    add_loading,
    checked_solve,
)
from .nmf import init_model, model_cost, nmf_update, variance
from .separation import ip_update_row, iss_source_sweep, weighted_cov
from .stacking import ExtendedDemixer, StackedObservation, TapConfig, build_stacked
from .stft import Spectrogram
from .wpe import wpe_run


class AlgorithmVariant(enum.Enum):
    """Selectable algorithms, including the dereverberation-free baselines."""

    ILRMA_IP = "ilrma-ip"
    ILRMA_ISS = "ilrma-iss"
    ILRMA_T_IP = "ilrma-t-ip"
    ILRMA_T_ISS_JOINT = "ilrma-t-iss-joint"
    ILRMA_T_ISS_SEQ = "ilrma-t-iss-seq"
    WPE = "wpe"
    WPE_ILRMA_IP = "wpe+ilrma-ip"
    WPE_ILRMA_ISS = "wpe+ilrma-iss"

    @classmethod
    def from_name(cls, name: str) -> "AlgorithmVariant":
        try:
            return cls(name)
        except ValueError:
            options = ", ".join(v.value for v in cls)
            raise ValueError(f"unknown variant {name!r}; expected one of: {options}") from None


@dataclass
class CostTrace:
    """Objective value, cumulative solves, and wall time per iteration.

    ``costs`` and ``cumulative_solves`` have ``iterations + 1`` entries
    (index 0 is the state before the first update); ``wall_ms`` has one
    entry per iteration.
    """

    costs: list[float] = field(default_factory=list)
    cumulative_solves: list[int] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.costs) - 1


@dataclass
class RunResult:
    outputs: Spectrogram
    trace: CostTrace
    demixer: ExtendedDemixer
    scales: np.ndarray | None = None


def cost(dm: ExtendedDemixer, outputs: np.ndarray, variances: np.ndarray) -> float:
    """Negative log-likelihood of the current filter and variance model.

    ``outputs`` is (F, N, T); ``variances`` is (N, F, T), already
    floored. A singular separation block is an error, not -inf.
    """
    n_frames = outputs.shape[2]
    _, logdet = np.linalg.slogdet(dm.mixing)
    if not np.all(np.isfinite(logdet)):
        bad = int(np.flatnonzero(~np.isfinite(logdet))[0])
        raise NumericalError(f"singular separation block at frequency bin {bad}")
    det_term = -2.0 * n_frames * float(np.sum(logdet))
    return det_term + model_cost(_power(outputs), variances)


def ilrma_t_ip_iteration(
    dm: ExtendedDemixer,
    sx: StackedObservation,
    variances: np.ndarray,
    outputs: np.ndarray | None = None,
    counter: SolveCounter | None = None,
) -> np.ndarray:
    """One iterative-projection sweep over all free rows.

    The weighted covariances are fixed for the whole sweep (the
    variances do not move here), each row update re-reads the current
    separation block, and the outputs are recomputed at the end.
    """
    del outputs  # recomputed from scratch below
    tilde = sx.tilde
    covs = [
        add_loading(weighted_cov(tilde, variances[n])) for n in range(dm.n_channels)
    ]
    for n in range(dm.n_channels):
        ip_update_row(dm.matrix, covs[n], n, dm.n_channels, counter)
    return dm.top @ tilde


def _steering_sweep_over_taps(
    dm: ExtendedDemixer,
    sx: StackedObservation,
    variances: np.ndarray,
    outputs: np.ndarray,
) -> None:
    """Scalar steering updates against each pinned tap row, ascending.

    The tap signals are constant; the gains are re-derived from the
    live outputs after every column so each scalar step is an exact
    coordinate minimization. Touches only column ``k`` of the free
    rows, so the determinant never moves.
    """
    n = dm.n_channels
    if sx.dim == n:
        return
    inv = 1.0 / variances.transpose(1, 0, 2)  # (F, N, T)
    for k in range(n, sx.dim):
        tap = sx.tilde[:, k, :]
        num = np.einsum("fmt,ft->fm", outputs * inv, tap.conj())
        den = np.einsum("fmt,ft->fm", inv, np.abs(tap) ** 2)
        gains = num / np.maximum(den, DENOMINATOR_GUARD)
        dm.matrix[:, :n, k] -= gains
        outputs -= gains[:, :, None] * tap[:, None, :]


def _joint_tap_update(
    dm: ExtendedDemixer,
    sx: StackedObservation,
    variances: np.ndarray,
    outputs: np.ndarray,
    counter: SolveCounter | None = None,
) -> None:
    """Exact block update of each row's full tap segment.

    Per source, the best tap row is the weighted projection of the
    current output onto the delayed frames: one loaded solve per
    (frequency, source).
    """
    past = sx.past
    n_lags = past.shape[1]
    if n_lags == 0:
        return
    n = dm.n_channels
    inv = 1.0 / variances.transpose(1, 0, 2)
    weighted = past[:, None, :, :] * inv[:, :, None, :]  # (F, N, NL, T)
    normal = weighted @ past.conj().swapaxes(1, 2)[:, None, :, :]  # (F, N, NL, NL)
    corr = np.einsum("fmt,fjt->fmj", outputs * inv, past.conj())  # (F, N, NL)
    sol = checked_solve(
        add_loading(normal),
        corr.conj()[..., None],
        "tap normal matrix",
        counter,
    )
    gains = sol[..., 0].conj()
    dm.matrix[:, :n, n:] -= gains
    outputs -= gains @ past


def ilrma_t_iss_seq_iteration(
    dm: ExtendedDemixer,
    sx: StackedObservation,
    variances: np.ndarray,
    outputs: np.ndarray,
    counter: SolveCounter | None = None,
) -> np.ndarray:
    """Source-steering sweep, then scalar sweeps over every tap column."""
    iss_source_sweep(dm.matrix, outputs, variances)
    _steering_sweep_over_taps(dm, sx, variances, outputs)
    return outputs


def ilrma_t_iss_joint_iteration(
    dm: ExtendedDemixer,
    sx: StackedObservation,
    variances: np.ndarray,
    outputs: np.ndarray,
    counter: SolveCounter | None = None,
) -> np.ndarray:
    """Source-steering sweep, then one exact block solve per tap row."""
    iss_source_sweep(dm.matrix, outputs, variances)
    _joint_tap_update(dm, sx, variances, outputs, counter)
    return outputs


@dataclass(frozen=True)
class VariantSpec:
    """Everything that tells one variant apart from the others.

    ``step`` is the filter update per iteration (None for plain
    dereverberation), ``tapped`` whether the filter carries prediction
    taps, ``wpe_first`` whether a dereverberation pass runs before
    separation, and ``solve_law(n_sources)`` the dense solves per
    frequency bin per iteration.
    """

    step: Callable | None
    tapped: bool
    wpe_first: bool
    solve_law: Callable[[int], int]


VARIANTS = {
    AlgorithmVariant.ILRMA_IP: VariantSpec(ilrma_t_ip_iteration, False, False, lambda n: 2 * n),
    AlgorithmVariant.ILRMA_ISS: VariantSpec(ilrma_t_iss_seq_iteration, False, False, lambda n: 0),
    AlgorithmVariant.ILRMA_T_IP: VariantSpec(ilrma_t_ip_iteration, True, False, lambda n: 2 * n),
    AlgorithmVariant.ILRMA_T_ISS_JOINT: VariantSpec(ilrma_t_iss_joint_iteration, True, False, lambda n: n),
    AlgorithmVariant.ILRMA_T_ISS_SEQ: VariantSpec(ilrma_t_iss_seq_iteration, True, False, lambda n: 0),
    AlgorithmVariant.WPE: VariantSpec(None, False, False, lambda n: 1),
    AlgorithmVariant.WPE_ILRMA_IP: VariantSpec(ilrma_t_ip_iteration, False, True, lambda n: 2 * n),
    AlgorithmVariant.WPE_ILRMA_ISS: VariantSpec(ilrma_t_iss_seq_iteration, False, True, lambda n: 0),
}
# ``run`` looks each step up here, so it can be replaced per variant.
_ITERATIONS = {v: s.step for v, s in VARIANTS.items() if s.step is not None}


def projection_back(
    dm: ExtendedDemixer,
    outputs: np.ndarray,
    counter: SolveCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Rescale each source to its image at the first channel.

    The scale for source n is entry (0, n) of the inverse separation
    block, obtained as one transposed solve per frequency. Returns the
    scaled outputs and the (F, N) scales.
    """
    n = dm.n_channels
    rhs = np.zeros((n, 1), dtype=np.complex128)
    rhs[0, 0] = 1.0
    scales = checked_solve(
        dm.mixing.swapaxes(1, 2), rhs, "separation block", counter, projection=True
    )[..., 0]
    return outputs * scales[:, :, None], scales


def _power(outputs: np.ndarray) -> np.ndarray:
    return np.abs(outputs.transpose(1, 0, 2)) ** 2


def run(
    variant: AlgorithmVariant,
    spec: Spectrogram,
    iterations: int = 100,
    taps: TapConfig | None = None,
    n_bases: int = 2,
    seed: int = 0,
    wpe_iterations: int = 3,
    counter: SolveCounter | None = None,
    callback=None,
    callback_every: int = 0,
) -> RunResult:
    """Run one algorithm end to end on an observed spectrogram.

    Every iteration performs the variant's filter updates, then one
    multiplicative sweep of the variance model, and appends the
    objective. The final outputs are rescaled by projection back onto
    the first channel (skipped for a zero-iteration run, which returns
    the input unchanged, and for plain dereverberation).

    ``callback(iteration, outputs, demixer)`` is invoked every
    ``callback_every`` iterations (and at iteration 0) with live
    arrays; callers must copy what they keep.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    taps = taps if taps is not None else TapConfig(5, 2)
    counter = counter if counter is not None else SolveCounter()

    traits = VARIANTS[variant]
    if traits.step is None:
        return _run_wpe(spec, taps, iterations, counter, callback, callback_every)

    work = wpe_run(spec, taps, wpe_iterations, counter) if traits.wpe_first else spec
    eff_taps = taps if traits.tapped else TapConfig(0, taps.delay)

    sx = build_stacked(work, eff_taps)
    dm = ExtendedDemixer.identity(work.n_bins, work.n_channels, eff_taps)
    model = init_model(work.n_channels, n_bases, work.n_bins, work.n_frames, seed)
    variances = variance(model)
    outputs = work.data.copy()  # iteration steps update this buffer in place

    step = _ITERATIONS[variant]
    trace = CostTrace()
    trace.costs.append(cost(dm, outputs, variances))
    trace.cumulative_solves.append(counter.iteration_solves)
    if callback is not None:
        callback(0, outputs, dm)
    for i in range(iterations):
        t0 = time.perf_counter()
        outputs = step(dm, sx, variances, outputs, counter)
        dm.assert_structure()
        variances = nmf_update(model, _power(outputs))
        value = cost(dm, outputs, variances)
        trace.wall_ms.append((time.perf_counter() - t0) * 1e3)
        if not np.isfinite(value):
            raise NumericalError(f"non-finite objective at iteration {i + 1}")
        trace.costs.append(value)
        trace.cumulative_solves.append(counter.iteration_solves)
        if callback is not None and callback_every > 0 and (i + 1) % callback_every == 0:
            callback(i + 1, outputs, dm)

    scales = None
    if iterations > 0:
        outputs, scales = projection_back(dm, outputs, counter)
    out_spec = Spectrogram(outputs, work.config, work.n_samples)
    return RunResult(out_spec, trace, dm, scales)


def _run_wpe(
    spec: Spectrogram,
    taps: TapConfig,
    iterations: int,
    counter: SolveCounter,
    callback=None,
    callback_every: int = 0,
) -> RunResult:
    """Plain dereverberation: the trace carries the prediction objective."""
    dm = ExtendedDemixer.identity(spec.n_bins, spec.n_channels, TapConfig(0, taps.delay))
    trace = CostTrace()
    t0 = time.perf_counter()

    def record(i: int, dereverbed: np.ndarray) -> None:
        nonlocal t0
        if i > 0:
            trace.wall_ms.append((time.perf_counter() - t0) * 1e3)
            if not np.isfinite(trace.costs[-1]):
                raise NumericalError(f"non-finite objective at iteration {i}")
        trace.cumulative_solves.append(counter.iteration_solves)
        if callback is not None and (i == 0 or (callback_every > 0 and i % callback_every == 0)):
            callback(i, dereverbed, dm)
        t0 = time.perf_counter()

    out = wpe_run(spec, taps, iterations, counter, trace.costs, record)
    return RunResult(out, trace, dm, None)
