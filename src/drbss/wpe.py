"""Weighted prediction-error dereverberation.

Late reverberation is modelled as a linear prediction from delayed
stacked frames; the predictable part is subtracted and the per-frame
residual variance re-estimated, alternating until the implicit
objective sum(|z|^2 / (M r) + log r) stops improving.
"""
from __future__ import annotations

import numpy as np

from .linalg import VARIANCE_FLOOR, SolveCounter, add_loading, checked_solve
from .nmf import model_cost
from .stacking import StackedObservation, TapConfig, build_stacked
from .stft import Spectrogram


def wpe_variance_update(dereverbed: np.ndarray) -> np.ndarray:
    """Channel-averaged power of the residual, floored: shape (F, T)."""
    return np.maximum(np.mean(np.abs(dereverbed) ** 2, axis=1), VARIANCE_FLOOR)


def wpe_filter_update(
    variances: np.ndarray,
    sx: StackedObservation,
    spec: Spectrogram,
    counter: SolveCounter | None = None,
) -> np.ndarray:
    """Solve the prediction coefficients for the (F, T) variance track.

    One (loaded) normal-equation solve per frequency, shared by all
    channels. Returns the (F, M, M*taps) coefficients.
    """
    if sx.n_frames == 0:
        raise ValueError("cannot fit a prediction filter on zero frames")
    past = sx.past
    inv = 1.0 / variances  # (F, T)
    weighted = past * inv[:, None, :]
    normal = weighted @ past.conj().swapaxes(1, 2)  # (F, NL, NL)
    rhs = weighted @ spec.data.conj().swapaxes(1, 2)  # (F, NL, M)
    sol = checked_solve(add_loading(normal), rhs, "prediction normal matrix", counter)
    return sol.conj().swapaxes(1, 2)  # (F, M, NL)


def wpe_dereverb(coeffs: np.ndarray, spec: Spectrogram, sx: StackedObservation) -> Spectrogram:
    """Subtract the late reverberation ``coeffs`` predict from the observation."""
    return Spectrogram(spec.data - coeffs @ sx.past, spec.config, spec.n_samples)


def wpe_objective(dereverbed: np.ndarray, variances: np.ndarray) -> float:
    """sum over (f, t) of |z|^2 / (M r) + log r."""
    n_channels = dereverbed.shape[1]
    return model_cost(np.sum(np.abs(dereverbed) ** 2, axis=1) / n_channels, variances)


def wpe_run(
    spec: Spectrogram,
    taps: TapConfig,
    iterations: int,
    counter: SolveCounter | None = None,
    trace: list[float] | None = None,
    callback=None,
) -> Spectrogram:
    """Alternate variance, filter, and dereverberation steps.

    If ``trace`` is given, the objective is appended once before the
    first iteration and once after each iteration. ``callback(iteration,
    dereverbed)`` is invoked at the same points, after the objective,
    with the live (F, M, T) residual.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if taps.taps == 0:
        raise ValueError("prediction needs at least one tap")
    sx = build_stacked(spec, taps)
    z = spec.data
    variances = wpe_variance_update(z)
    out = spec
    for i in range(iterations + 1):
        if i > 0:
            coeffs = wpe_filter_update(variances, sx, spec, counter)
            out = wpe_dereverb(coeffs, spec, sx)
            z = out.data
            variances = wpe_variance_update(z)
        if trace is not None:
            trace.append(wpe_objective(z, variances))
        if callback is not None:
            callback(i, z)
    return out
