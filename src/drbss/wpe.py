"""Weighted prediction-error dereverberation.

Late reverberation is modelled as a linear prediction from delayed
stacked frames; the predictable part is subtracted and the per-frame
residual variance re-estimated, alternating until the implicit
objective sum(|z|^2 / (M r) + log r) stops improving.
"""
from __future__ import annotations

import numpy as np

from .linalg import VARIANCE_FLOOR, SolveCounter
from .separation import prediction_solve
from .stacking import StackedObservation, TapConfig, build_stacked
from .stft import Spectrogram


def wpe_variance_update(dereverbed: np.ndarray) -> np.ndarray:
    """Channel-averaged power of the residual, floored: shape (F, T)."""
    return np.maximum(np.mean(np.abs(dereverbed) ** 2, axis=1), VARIANCE_FLOOR)


def wpe_filter_update(variances: np.ndarray, sx: StackedObservation, counter: SolveCounter | None = None) -> np.ndarray:
    """Solve the (F, M, M*taps) prediction filters for the (F, T) variance track.

    It is the joint tap update's :func:`prediction_solve` with one weight track, 1 / variances,
    and all M channels as its targets: one (loaded) solve per frequency, on the calling thread.
    """
    inv, targets = 1.0 / variances[:, None], sx.spec.data[:, None]  # (F, 1, T) and (F, 1, M, T)
    return prediction_solve(sx, inv, targets, "prediction normal matrix", counter)[:, 0]


def wpe_dereverb(coeffs: np.ndarray, sx: StackedObservation) -> Spectrogram:
    """Subtract the late reverberation ``coeffs`` predict from the observation."""
    spec = sx.spec
    return Spectrogram(sx.apply(coeffs, spec.data.copy(), past=True), spec.config, spec.n_samples)


def wpe_objective(dereverbed: np.ndarray, variances: np.ndarray) -> float:
    """sum over (f, t) of |z|^2 / (M r) + log r."""
    terms = np.sum(np.abs(dereverbed) ** 2, axis=1) / dereverbed.shape[1]
    terms /= variances
    terms += np.log(variances)
    return float(np.sum(terms))


def wpe_run(
    spec: Spectrogram,
    taps: TapConfig,
    iterations: int,
    counter: SolveCounter | None = None,
    callback=None,
) -> Spectrogram:
    """Alternate variance, filter, and dereverberation steps.

    ``callback(iteration, dereverbed, variances)`` is invoked once
    before the first iteration and once after each iteration, with the
    live (F, M, T) residual and its (F, T) variance track; evaluate
    :func:`wpe_objective` on them to trace the objective.
    """
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if taps.taps == 0:
        raise ValueError("prediction needs at least one tap")
    sx = build_stacked(spec, taps)
    variances = wpe_variance_update(spec.data)
    if callback is not None:
        callback(0, spec.data, variances)
    out = spec
    for i in range(1, iterations + 1):
        out = wpe_dereverb(wpe_filter_update(variances, sx, counter), sx)
        variances = wpe_variance_update(out.data)
        if callback is not None:
            callback(i, out.data, variances)
    return out
