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

from .linalg import NumericalError, SolveCounter, add_loading, checked_solve, over_bins
from .nmf import init_model, model_term, nmf_update
from .separation import ip_update_row, iss_source_sweep, prediction_solve, steering_gains, weighted_cov
from .stacking import ExtendedDemixer, StackedObservation, TapConfig, build_stacked
from .stft import Spectrogram
from .wpe import wpe_objective, wpe_run


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

    def record(self, value: float, solves: int, started: float | None = None) -> None:
        """Append a state's objective and cumulative solves. ``started`` is the
        ``perf_counter()`` at the start of the iteration that produced the state (None
        for the initial state); the time since then goes to ``wall_ms``, and a
        non-finite objective raises NumericalError."""
        if started is not None:
            self.wall_ms.append((time.perf_counter() - started) * 1e3)
            if not np.isfinite(value):
                raise NumericalError(f"non-finite objective at iteration {len(self.costs)}")
        self.costs.append(value)
        self.cumulative_solves.append(solves)


@dataclass
class RunResult:
    outputs: Spectrogram
    trace: CostTrace
    demixer: ExtendedDemixer | None  # None for plain dereverberation, which runs no demixer
    scales: np.ndarray | None = None  # projection_back's (F, N) scales; None when it did not run


def cost(dm: ExtendedDemixer, n_frames: int, term: float) -> float:
    """Negative log-likelihood of the current filter and variance model.

    ``term`` is the variance model's sum(|y|^2/r + log r) over the outputs,
    which ``nmf_update`` and ``model_term`` return; this adds the demixer's
    -2 T log|det| over ``n_frames`` frames. A singular separation block is
    an error, not -inf.
    """
    _, logdet = np.linalg.slogdet(dm.mixing)
    if not np.all(np.isfinite(logdet)):
        bad = int(np.flatnonzero(~np.isfinite(logdet))[0])
        raise NumericalError(f"singular separation block at frequency bin {bad}")
    return -2.0 * n_frames * float(np.sum(logdet)) + term


def ilrma_t_ip_iteration(
    dm: ExtendedDemixer,
    sx: StackedObservation,
    inv: np.ndarray,
    outputs: np.ndarray,
    counter: SolveCounter | None = None,
) -> None:
    """One iterative-projection sweep over all free rows.

    The covariances, weighted by ``inv``, are fixed for the whole sweep;
    each row update re-reads the current separation block, and the
    outputs are rewritten in place at the end.
    """
    covs = weighted_cov(sx, inv)
    for n in range(dm.n_channels):
        ip_update_row(dm.top, add_loading(covs[:, n]), n, counter)
    sx.apply(dm.top, outputs)


def _steering_sweep_over_taps(
    dm: ExtendedDemixer,
    sx: StackedObservation,
    inv: np.ndarray,
    outputs: np.ndarray,
) -> None:
    """Scalar steering updates against each pinned tap row, ascending.

    ``inv`` holds the (F, N, T) inverse variances; the tap signals are
    constant. Gains are re-derived from the live outputs after every column,
    so each scalar step is an exact coordinate minimization. Only column ``k``
    of the free rows moves, so the determinant never does.
    """
    n = dm.n_channels
    if sx.dim == n:
        return

    t, last = sx.spec.n_frames, sx.lags[-1]

    def row(of, k):  # stacked row k of a bin block front-padded with ``last`` zero frames
        start = last - sx.lags[k // n]
        return of[:, k % n, start : start + t]

    def sweep(top, data, inv, outputs):  # one bin block, padded; every lag reads its hoisted power
        padded = np.empty((len(data), n, t + last), dtype=data.dtype)  # a quarter of np.pad's time per block
        padded[:, :, :last], padded[:, :, last:] = 0, data
        power = np.abs(padded) ** 2
        work = np.empty_like(outputs)
        for k in range(n, sx.dim):
            weighted = np.multiply(outputs, inv, out=work)
            gains, _ = steering_gains(weighted, inv, row(padded, k), row(power, k))
            top[:, :, k] -= gains
            outputs -= np.multiply(gains[:, :, None], row(padded, k)[:, None, :], out=work)

    # it touches the block, its padded copy and power, and outputs, work and inv
    over_bins(sweep, 5 * (sx.spec.data.nbytes + outputs.nbytes) // 2, dm.top, sx.spec.data, inv, outputs)


def _joint_tap_update(
    dm: ExtendedDemixer,
    sx: StackedObservation,
    inv: np.ndarray,
    outputs: np.ndarray,
    counter: SolveCounter | None = None,
) -> None:
    """Exact block update of each row's full tap segment.

    Per source, the best tap row is the projection of the current output
    onto the delayed frames, weighted by the (F, N, T) inverse variances
    ``inv``: WPE's :func:`prediction_solve` with source n's output as the
    one target of weight track n, one loaded solve per (frequency, source).
    """
    n = dm.n_channels
    if sx.dim == n:
        return
    gains = prediction_solve(sx, inv, outputs[:, :, None], "tap normal matrix", counter)[..., 0].conj()
    dm.top[:, :, n:] -= gains
    sx.apply(gains, outputs, past=True)


def ilrma_t_iss_seq_iteration(
    dm: ExtendedDemixer,
    sx: StackedObservation,
    inv: np.ndarray,
    outputs: np.ndarray,
    counter: SolveCounter | None = None,
) -> None:
    """Source-steering sweep, then scalar sweeps over every tap column, in place."""
    iss_source_sweep(dm.top, outputs, inv)
    _steering_sweep_over_taps(dm, sx, inv, outputs)


def ilrma_t_iss_joint_iteration(
    dm: ExtendedDemixer,
    sx: StackedObservation,
    inv: np.ndarray,
    outputs: np.ndarray,
    counter: SolveCounter | None = None,
) -> None:
    """Source-steering sweep, then one exact block solve per tap row, in place."""
    iss_source_sweep(dm.top, outputs, inv)
    _joint_tap_update(dm, sx, inv, outputs, counter)


@dataclass(frozen=True)
class VariantSpec:
    """Everything that tells one variant apart from the others.

    ``step(dm, sx, inv, outputs, counter)`` updates ``outputs`` in place
    each iteration (None for plain dereverberation), ``tapped`` whether
    the filter carries prediction taps, ``wpe_first`` whether a
    dereverberation pass runs before separation, and
    ``solve_law(n_sources)`` the dense solves per frequency bin per iteration.
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


def projection_back(dm: ExtendedDemixer, outputs: np.ndarray) -> np.ndarray:
    """Rescale each source of the (F, N, T) ``outputs``, in place, to its image at the first channel.

    Returns the (F, N) scales: entry (0, n) of the inverse separation block
    for every source n, one transposed solve per frequency. A caller that
    keeps the unscaled outputs projects a copy.
    """
    rhs = np.zeros((dm.n_channels, 1), dtype=np.complex128)
    rhs[0, 0] = 1.0
    scales = checked_solve(dm.mixing.swapaxes(1, 2), rhs, "separation block")[..., 0]
    outputs *= scales[:, :, None]
    return scales


def run(
    variant: AlgorithmVariant,
    spec: Spectrogram,
    iterations: int = 100,
    taps: TapConfig = TapConfig(5, 2),
    n_bases: int = 2,
    seed: int = 0,
    wpe_iterations: int = 3,
    counter: SolveCounter | None = None,
    callback=None,
) -> RunResult:
    """Run one algorithm end to end on an observed spectrogram.

    The run's state is the variance model's factors, the outputs and one
    real C-ordered (F, N, T) buffer. Every iteration hands the buffer's
    ``1 / r`` to the variant's filter update, which rewrites the outputs in
    place, then runs one multiplicative sweep of the variance model, which
    passes |y|^2 through the buffer and leaves the new ``1 / r`` in it, and
    appends the objective. C order lets the steering gains' dot products
    over frames read contiguous memory; the variances are evaluated per
    block from the factors, f-fastest, the order NMF's rounding depends
    on. The final outputs are rescaled in place by :func:`projection_back`,
    except in plain dereverberation and in a zero-iteration run. That run
    returns the input unchanged, or in the cascades the output of their
    ``wpe_iterations`` pre-pass.

    ``callback(iteration, outputs, demixer)`` is invoked at iteration 0
    and after every iteration with live arrays; callers must copy what
    they keep. Plain dereverberation has no demixer: the callback and
    ``RunResult.demixer`` get None.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    counter = counter if counter is not None else SolveCounter()

    traits = VARIANTS[variant]
    if traits.step is None:
        return _run_wpe(spec, taps, iterations, counter, callback)

    work = wpe_run(spec, taps, wpe_iterations, counter) if traits.wpe_first else spec
    eff_taps = taps if traits.tapped else TapConfig(0, taps.delay)

    sx = build_stacked(work, eff_taps)
    dm = ExtendedDemixer.identity(work.n_bins, work.n_channels, eff_taps)
    model = init_model(work.n_channels, n_bases, work.n_bins, work.n_frames, seed)
    outputs = work.data.copy()  # iteration steps update this buffer in place
    inv = np.empty(outputs.shape)  # 1/r through each filter step, |y|^2 inside each NMF sweep

    step = _ITERATIONS[variant]
    trace = CostTrace()
    trace.record(cost(dm, work.n_frames, model_term(model, outputs, inv)), counter.iteration_solves)
    if callback is not None:
        callback(0, outputs, dm)
    for i in range(iterations):
        started = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):  # a filter that overflows is reported once, below
            step(dm, sx, inv, outputs, counter)
        dm.assert_structure()
        trace.record(cost(dm, work.n_frames, nmf_update(model, outputs, inv)), counter.iteration_solves, started)
        if callback is not None:
            callback(i + 1, outputs, dm)

    scales = projection_back(dm, outputs) if iterations > 0 else None
    out_spec = Spectrogram(outputs, work.config, work.n_samples)
    return RunResult(out_spec, trace, dm, scales)


def _run_wpe(
    spec: Spectrogram,
    taps: TapConfig,
    iterations: int,
    counter: SolveCounter,
    callback=None,
) -> RunResult:
    """Plain dereverberation, with no demixer: the trace carries the prediction objective."""
    trace = CostTrace()
    started = time.perf_counter()

    def record(i: int, dereverbed: np.ndarray, variances: np.ndarray) -> None:
        nonlocal started
        value = wpe_objective(dereverbed, variances)
        trace.record(value, counter.iteration_solves, started if i > 0 else None)
        if callback is not None:
            callback(i, dereverbed, None)
        started = time.perf_counter()

    out = wpe_run(spec, taps, iterations, counter, record)
    return RunResult(out, trace, None)
