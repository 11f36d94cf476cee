"""Synthetic reverberant mixtures with known ground truth.

Impulse responses are a delayed direct spike plus an exponentially
decaying noise tail; sources are seeded two-band resonator noise with
independent slow amplitude envelopes, which gives each source a
distinct low-rank time-frequency footprint. Everything is derived
deterministically from the config seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve, lfilter

# Distinct stream tags so per-purpose generators never collide.
_RIR_TAG = 7919
_NOISE_TAG = 104729
_SOURCE_TAG = 15485863


@dataclass(frozen=True)
class SyntheticRoomConfig:
    """Square (sources == mics) synthetic room description.

    ``snr`` is a linear power ratio (noise variance per mic is
    n_sources / snr); ``tail_gain`` sets the reverberant tail level
    relative to the direct spike. ``direct_delays``/``direct_gains``
    override the seeded per-(source, mic) draws when given, as nested
    tuples indexed [source][mic].
    """

    n_sources: int
    sample_rate: int = 16000
    rt60: float = 0.3
    snr: float = 100.0
    seed: int = 0
    max_direct_delay: int = 12
    tail_gain: float = 0.35
    direct_delays: tuple[tuple[int, ...], ...] | None = None
    direct_gains: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        for name in ("n_sources", "sample_rate", "seed", "max_direct_delay"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be int, got {getattr(self, name)!r}")
        for name in ("rt60", "snr", "tail_gain"):
            if type(getattr(self, name)) not in (int, float):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not 1 <= self.n_sources <= 4:
            raise ValueError("n_sources must be between 1 and 4")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.rt60 < 0:
            raise ValueError("rt60 must be non-negative")
        if not self.snr > 0:
            raise ValueError("snr must be positive (may be inf)")
        if self.max_direct_delay < 0:
            raise ValueError("max_direct_delay must be non-negative")
        if self.tail_gain < 0:
            raise ValueError("tail_gain must be non-negative")

    @property
    def n_mics(self) -> int:
        return self.n_sources


def _direct_path(cfg: SyntheticRoomConfig, source: int, mic: int, rng: np.random.Generator) -> tuple[int, float]:
    delay = int(rng.integers(0, cfg.max_direct_delay + 1))
    gain = 1.0 if mic == 0 else float(rng.uniform(0.5, 1.5))
    if cfg.direct_delays is not None:
        delay = int(cfg.direct_delays[source][mic])
    if cfg.direct_gains is not None:
        gain = float(cfg.direct_gains[source][mic])
    if mic == 0:
        gain = 1.0
    return delay, gain


def make_rir(cfg: SyntheticRoomConfig, source: int, mic: int) -> np.ndarray:
    """Impulse response from ``source`` to ``mic``: spike plus decaying tail."""
    rng = np.random.default_rng([cfg.seed, _RIR_TAG, source, mic])
    delay, gain = _direct_path(cfg, source, mic, rng)
    tail_len = int(round(cfg.rt60 * cfg.sample_rate))
    length = max(delay + 1, tail_len)
    h = np.zeros(length)
    h[delay] = gain
    if cfg.rt60 > 0 and tail_len > delay + 1:
        k = np.arange(delay + 1, tail_len)
        envelope = np.exp(-3.0 * np.log(10.0) * k / (cfg.rt60 * cfg.sample_rate))
        h[k] = cfg.tail_gain * rng.standard_normal(k.size) * envelope
    return h


@dataclass
class MixResult:
    """Mixture plus every intermediate needed for exact bookkeeping.

    ``mixture`` equals ``full_images.sum(axis=0) + noise`` by
    construction; ``direct_images`` contain only the delayed, scaled
    direct spikes and serve as dry-but-localized references.
    """

    mixture: np.ndarray  # (M, S)
    direct_images: np.ndarray  # (N, M, S)
    full_images: np.ndarray  # (N, M, S)
    impulse_responses: list[list[np.ndarray]]
    sources: np.ndarray  # (N, S), after normalization
    noise: np.ndarray  # (M, S)


def mix(sources: np.ndarray, cfg: SyntheticRoomConfig) -> MixResult:
    """Convolve, normalize, and sum sources into an M-channel mixture.

    Each source is scaled so its full reverberant image at the first
    mic has unit power, making the per-mic noise variance
    ``n_sources / snr`` a calibrated SNR.
    """
    s = np.asarray(sources, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != cfg.n_sources:
        raise ValueError(f"sources must have shape ({cfg.n_sources}, n_samples)")
    n, m = cfg.n_sources, cfg.n_mics
    n_samples = s.shape[1]
    rirs = [[make_rir(cfg, i, j) for j in range(m)] for i in range(n)]

    scaled = np.empty_like(s)
    for i in range(n):
        image = fftconvolve(s[i], rirs[i][0])[:n_samples]
        power = float(np.mean(image**2))
        if power == 0.0:
            raise ValueError(f"source {i} produces a silent image at the first mic")
        scaled[i] = s[i] / np.sqrt(power)

    full = np.zeros((n, m, n_samples))
    direct = np.zeros((n, m, n_samples))
    for i in range(n):
        for j in range(m):
            full[i, j] = fftconvolve(scaled[i], rirs[i][j])[:n_samples]
            rng = np.random.default_rng([cfg.seed, _RIR_TAG, i, j])
            delay, gain = _direct_path(cfg, i, j, rng)
            direct[i, j, delay:] = gain * scaled[i, : n_samples - delay]

    if np.isinf(cfg.snr):
        noise = np.zeros((m, n_samples))
    else:
        sigma = np.sqrt(n / cfg.snr)
        noise = sigma * np.random.default_rng([cfg.seed, _NOISE_TAG]).standard_normal((m, n_samples))
    mixture = full.sum(axis=0) + noise
    return MixResult(mixture, direct, full, rirs, scaled, noise)


def _segment_envelope(
    rng: np.random.Generator, n_samples: int, sample_rate: int, segment_s: float = 0.25
) -> np.ndarray:
    """Piecewise-linear random amplitude contour in [0.05, 1]."""
    seg = max(1, int(round(segment_s * sample_rate)))
    n_knots = n_samples // seg + 2
    knots = rng.uniform(0.05, 1.0, size=n_knots)
    return np.interp(np.arange(n_samples), np.arange(n_knots) * seg, knots)


def make_sources(
    n_sources: int, n_samples: int, sample_rate: int, seed: int = 0
) -> np.ndarray:
    """Seeded test sources: two enveloped resonator-noise bands each.

    The band centers differ across sources and the two envelopes move
    independently, so the sources are both spectrally and temporally
    diverse while staying well inside a rank-2 variance model.
    """
    if n_sources < 1 or n_samples < 1:
        raise ValueError("n_sources and n_samples must be positive")
    nyquist = sample_rate / 2.0
    out = np.zeros((n_sources, n_samples))
    for i in range(n_sources):
        rng = np.random.default_rng([seed, _SOURCE_TAG, i])
        low = rng.uniform(0.04, 0.12) * nyquist * (1.0 + 0.7 * i)
        high = rng.uniform(0.35, 0.55) * nyquist * (1.0 - 0.12 * i)
        sig = np.zeros(n_samples)
        for freq in (low, high):
            radius = rng.uniform(0.90, 0.96)
            theta = np.pi * freq / nyquist
            band = lfilter([1.0], [1.0, -2.0 * radius * np.cos(theta), radius**2],
                           rng.standard_normal(n_samples))
            band /= np.sqrt(np.mean(band**2))
            sig += band * _segment_envelope(rng, n_samples, sample_rate)
        # Broadband floor keeps every band excited, which keeps the
        # per-source variance weights (and the solves built from them)
        # well conditioned.
        sig += 0.1 * rng.standard_normal(n_samples)
        out[i] = sig / np.sqrt(np.mean(sig**2))
    return out
