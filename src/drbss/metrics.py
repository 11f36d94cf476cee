"""Objective quality metrics for separated and dereverberated signals.

Scale-invariant SDR/SIR in dB (capped at +-80), a cepstral distance for
spectral-envelope error, exhaustive permutation alignment, and a report
builder that scores estimates against references with the unprocessed
mixture as the baseline.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .stft import hann_window

DB_CAP = 80.0
_LOG_FLOOR = 1e-12
_CEPSTRAL_COEFFS = 24
_ACTIVE_FLOOR_DB = -40.0


def _ratio_db(num: float, den: float) -> float:
    if num <= 0.0:
        return -DB_CAP
    if den <= 0.0:
        return DB_CAP
    return float(np.clip(10.0 * np.log10(num / den), -DB_CAP, DB_CAP))


def _as_signal_pair(reference: np.ndarray, estimate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ref = np.asarray(reference, dtype=np.float64).ravel()
    est = np.asarray(estimate, dtype=np.float64).ravel()
    if ref.shape != est.shape:
        raise ValueError(f"length mismatch: reference {ref.size}, estimate {est.size}")
    if ref.size == 0:
        raise ValueError("empty signals")
    return ref, est


def si_sdr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Scale-invariant signal-to-distortion ratio in dB.

    The estimate is compared against its own least-squares projection
    onto the reference, so any global gain on the estimate cancels.
    """
    ref, est = _as_signal_pair(reference, estimate)
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise ValueError("reference signal is all zero")
    alpha = float(np.dot(est, ref)) / ref_energy
    target = alpha * ref
    err = est - target
    return _ratio_db(float(np.dot(target, target)), float(np.dot(err, err)))


def si_sir(references: np.ndarray, estimate: np.ndarray, target_index: int) -> float:
    """Scale-invariant signal-to-interference ratio in dB.

    The estimate is decomposed by a joint least-squares fit on all
    references; interference is the part explained by the non-target
    references.
    """
    refs = np.asarray(references, dtype=np.float64)
    est = np.asarray(estimate, dtype=np.float64).ravel()
    if refs.ndim != 2 or refs.shape[1] != est.size:
        raise ValueError("references must be (n_sources, n_samples) matching the estimate")
    if not 0 <= target_index < refs.shape[0]:
        raise ValueError("target_index out of range")
    basis = refs.T
    coef, _, rank, _ = np.linalg.lstsq(basis, est, rcond=None)
    if rank < refs.shape[0]:
        raise ValueError("reference set is rank-deficient")
    target = coef[target_index] * refs[target_index]
    interference = basis @ coef - target
    return _ratio_db(float(np.dot(target, target)), float(np.dot(interference, interference)))


def _real_cepstra(frames: np.ndarray) -> np.ndarray:
    """Real cepstra of the Hann-windowed rows of ``frames``, coefficients 1..24."""
    frame_len = frames.shape[1]
    mag = np.abs(np.fft.rfft(frames * hann_window(frame_len), axis=1))
    log_mag = np.log(np.maximum(mag, _LOG_FLOOR))
    ceps = np.fft.irfft(log_mag, n=frame_len, axis=1)
    return ceps[:, 1 : _CEPSTRAL_COEFFS + 1]


def cepstral_distance(reference: np.ndarray, estimate: np.ndarray, sample_rate: int) -> float:
    """Mean cepstral distance in dB over active reference frames.

    Frames are 32 ms with half overlap; a frame counts as active when
    its reference energy is within 40 dB of the loudest frame. The
    zeroth cepstral coefficient is excluded, so the measure ignores
    overall gain. It raises below 766 Hz, where a frame is under 25 samples.
    """
    ref, est = _as_signal_pair(reference, estimate)
    frame_len = int(round(0.032 * sample_rate))
    if frame_len <= _CEPSTRAL_COEFFS:
        raise ValueError(f"at {sample_rate} Hz the 32 ms frame length {frame_len} is too short for cepstral distance")
    hop = frame_len // 2
    if ref.size < frame_len:
        raise ValueError("signals are shorter than one analysis frame")
    ref_frames, est_frames = (sliding_window_view(x, frame_len)[::hop] for x in (ref, est))
    energies = np.sum(ref_frames**2, axis=1)
    peak = float(energies.max())
    if peak == 0.0:
        raise ValueError("reference signal is all zero")
    active = energies >= peak * 10.0 ** (_ACTIVE_FLOOR_DB / 10.0)
    diff = _real_cepstra(ref_frames)[active] - _real_cepstra(est_frames)[active]
    per_frame = (10.0 / np.log(10.0)) * np.sqrt(2.0 * np.sum(diff**2, axis=1))
    return float(np.clip(np.mean(per_frame), 0.0, DB_CAP))


def align_permutation(references: np.ndarray, estimates: np.ndarray) -> tuple[int, ...]:
    """Assignment of estimates to references maximizing total SI-SDR.

    Exhaustive over all permutations; ties keep the lexicographically
    first assignment, so the result is deterministic. A NaN total never
    displaces an earlier assignment, so an all-NaN table gives the identity.
    """
    return _align(np.asarray(references, dtype=np.float64), np.asarray(estimates, dtype=np.float64))[0]


def _align(refs: np.ndarray, ests: np.ndarray) -> tuple[tuple[int, ...], list[float]]:
    """``align_permutation`` and the SI-SDR of each chosen (reference, estimate) pair."""
    if refs.shape != ests.shape:
        raise ValueError("references and estimates must have matching shapes")
    n = refs.shape[0]
    table = np.array([[si_sdr(refs[i], ests[j]) for j in range(n)] for i in range(n)])
    perm = max(permutations(range(n)), key=lambda perm: sum(table[i, perm[i]] for i in range(n)))
    return perm, [float(table[i, perm[i]]) for i in range(n)]


@dataclass
class EvalReport:
    """Per-source metrics after alignment, plus deltas over the mixture."""

    permutation: tuple[int, ...]
    si_sdr: list[float]
    si_sir: list[float]
    cepstral_distance: list[float]
    delta_si_sdr: list[float]
    delta_si_sir: list[float]

    @property
    def mean_delta_si_sdr(self) -> float:
        return float(np.mean(self.delta_si_sdr))


def mixture_baseline(references: np.ndarray, mixture: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """The mixture channels aligned to the references and each pair's SI-SDR: the
    baseline of every estimate's gain, scored once for any number of estimates."""
    mix = np.asarray(mixture, dtype=np.float64)
    if mix.ndim == 1:
        mix = mix[None, :]
    perm, sdr = _align(np.asarray(references, dtype=np.float64), mix)
    return mix[list(perm)], sdr


def mean_delta_si_sdr(references: np.ndarray, estimates: np.ndarray, baseline: list[float]) -> float:
    """``evaluate(...).mean_delta_si_sdr`` without SI-SIR or cepstral distance, given the
    mixture's SI-SDR per reference, ``mixture_baseline(references, mixture)[1]``."""
    _, sdr = _align(np.asarray(references, dtype=np.float64), np.asarray(estimates, dtype=np.float64))
    return float(np.mean([s - b for s, b in zip(sdr, baseline)]))


def evaluate(
    references: np.ndarray,
    estimates: np.ndarray,
    mixture: np.ndarray,
    sample_rate: int,
) -> EvalReport:
    """Score estimates against references with the mixture as baseline.

    The mixture channels are aligned to the references by the same
    exhaustive assignment as the estimates, so scoring the mixture
    against itself yields exactly zero deltas.
    """
    base, base_sdr = mixture_baseline(references, mixture)
    refs = np.asarray(references, dtype=np.float64)
    ests = np.asarray(estimates, dtype=np.float64)
    perm, sdr = _align(refs, ests)
    ests = ests[list(perm)]
    sir = [si_sir(refs, e, i) for i, e in enumerate(ests)]
    cd = [cepstral_distance(r, e, sample_rate) for r, e in zip(refs, ests)]
    d_sdr = [s - b for s, b in zip(sdr, base_sdr)]
    d_sir = [s - si_sir(refs, b, i) for i, (s, b) in enumerate(zip(sir, base))]
    return EvalReport(perm, sdr, sir, cd, d_sdr, d_sir)
