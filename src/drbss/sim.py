"""Synthetic reverberant mixtures with known ground truth.

Impulse responses are a delayed direct spike plus an exponentially
decaying noise tail; sources are seeded two-band resonator noise with
independent slow amplitude envelopes, which gives each source a
distinct low-rank time-frequency footprint. Everything is derived
deterministically from the config seed.

The module runs on numpy alone, yet reproduces the scipy build that
defined the fixtures bit for bit: the resonators run the exact
recursion of ``scipy.signal.lfilter`` and the room convolves at the
FFT length of ``scipy.signal.fftconvolve``.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

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
    override the seeded per-(source, mic) draws when given, as
    n_sources x n_mics nested tuples indexed [source][mic]; mic 0 is the
    reference, so every ``direct_gains[source][0]`` must be 1.0.
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
            if type(getattr(self, name)) is not int or getattr(self, name) < 0:
                raise ValueError(f"{name} must be a non-negative int, got {getattr(self, name)!r}")
        for name in ("rt60", "snr", "tail_gain"):
            if type(getattr(self, name)) not in (int, float):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not 1 <= self.n_sources <= 4:
            raise ValueError("n_sources must be between 1 and 4")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not 0 <= self.rt60 < np.inf:
            raise ValueError(f"rt60 must be finite and non-negative, got {self.rt60!r}")
        if not self.snr > 0:
            raise ValueError("snr must be positive (may be inf)")
        if not 0 <= self.tail_gain < np.inf:
            raise ValueError(f"tail_gain must be finite and non-negative, got {self.tail_gain!r}")
        n = self.n_sources
        for name in ("direct_delays", "direct_gains"):
            value = getattr(self, name)
            if value is None:
                continue
            if not (
                isinstance(value, (list, tuple))
                and len(value) == n
                and all(isinstance(row, (list, tuple)) and len(row) == n for row in value)
            ):
                raise ValueError(f"{name} must be {n} x {n} (sources x mics), got {value!r}")
            object.__setattr__(self, name, tuple(tuple(row) for row in value))
        delays, gains = self.direct_delays, self.direct_gains
        if delays is not None and not all(type(d) is int and d >= 0 for row in delays for d in row):
            raise ValueError(f"direct_delays must be non-negative ints, got {delays!r}")
        if gains is not None:
            if not all(type(g) in (int, float) and np.isfinite(g) for row in gains for g in row):
                raise ValueError(f"direct_gains must be finite numbers, got {gains!r}")
            if any(row[0] != 1.0 for row in gains):
                raise ValueError(f"direct_gains[source][0] must be 1.0 (mic 0 is the reference), got {gains!r}")

    @property
    def n_mics(self) -> int:
        return self.n_sources


def _direct_path(cfg: SyntheticRoomConfig, source: int, mic: int) -> tuple[int, float, np.random.Generator]:
    """Seed the stream of the RIR from ``source`` to ``mic``; return its spike's (delay, gain) and the stream."""
    rng = np.random.default_rng([cfg.seed, _RIR_TAG, source, mic])
    delay = int(rng.integers(0, cfg.max_direct_delay + 1))
    gain = 1.0 if mic == 0 else float(rng.uniform(0.5, 1.5))
    if cfg.direct_delays is not None:
        delay = int(cfg.direct_delays[source][mic])
    if cfg.direct_gains is not None:
        gain = float(cfg.direct_gains[source][mic])
    return delay, gain, rng


def make_rir(cfg: SyntheticRoomConfig, source: int, mic: int) -> np.ndarray:
    """Impulse response from ``source`` to ``mic``: spike plus decaying tail."""
    delay, gain, rng = _direct_path(cfg, source, mic)
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


def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) >= ``n``: the FFT length
    that ``fftconvolve`` pads a real convolution of length ``n`` to."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            q = p << ((n - 1) // p).bit_length()  # p times the least power of two reaching n
            if q < best:
                best = q
            p *= 3
        p5 *= 5
    return best


def _transfer(h: np.ndarray, n_samples: int) -> tuple[np.ndarray, int]:
    """``h``'s spectrum at the FFT length of a convolution with ``n_samples``
    samples: (spectrum, length). ``fftconvolve`` multiplies a length-1
    operand directly, so then it is ``(h, 0)``."""
    if min(h.size, n_samples) == 1:
        return h, 0
    size = _fft_length(n_samples + h.size - 1)
    return np.fft.rfft(h, size), size


def _convolve(x: np.ndarray, gain: np.ndarray, size: int, spectra: dict[int, np.ndarray]) -> np.ndarray:
    """``fftconvolve(x, h)`` bit for bit, given ``(gain, size) = _transfer(h, x.size)``.

    ``spectra`` keeps x's spectrum per FFT length, so each is taken once.
    """
    if not size:
        return x * gain
    if size not in spectra:
        spectra[size] = np.fft.rfft(x, size)
    return np.fft.irfft(spectra[size] * gain, size)


def mix(sources: np.ndarray, cfg: SyntheticRoomConfig) -> MixResult:
    """Convolve, normalize, and sum sources into an M-channel mixture.

    Each source is scaled so its full reverberant image at the first
    mic has unit power, making the per-mic noise variance
    ``n_sources / snr`` a calibrated SNR. A direct-path delay must be
    shorter than the signal.
    """
    s = np.asarray(sources, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != cfg.n_sources:
        raise ValueError(f"sources must have shape ({cfg.n_sources}, n_samples)")
    n, m = cfg.n_sources, cfg.n_mics
    n_samples = s.shape[1]
    paths = {}
    for i, j in np.ndindex(n, m):
        paths[i, j] = _direct_path(cfg, i, j)[:2]
        if paths[i, j][0] >= n_samples:
            key = "direct_delays" if cfg.direct_delays is not None else "max_direct_delay"
            raise ValueError(f"{key}: direct delay {paths[i, j][0]} of source {i} at mic {j} "
                             f"is not shorter than the signal ({n_samples} samples)")
    rirs = [[make_rir(cfg, i, j) for j in range(m)] for i in range(n)]

    scaled = np.empty_like(s)
    full = np.empty((n, m, n_samples))
    direct = np.zeros((n, m, n_samples))
    for i in range(n):
        transfer = _transfer(rirs[i][0], n_samples)  # one mic's at a time, mic 0's for the calibration image
        image = _convolve(s[i], *transfer, {})[:n_samples]
        power = float(np.mean(image**2))
        if power == 0.0:
            raise ValueError(f"source {i} produces a silent image at the first mic")
        scaled[i] = s[i] / np.sqrt(power)
        spectra: dict[int, np.ndarray] = {}
        for j in range(m):
            if j:
                transfer = _transfer(rirs[i][j], n_samples)
            full[i, j] = _convolve(scaled[i], *transfer, spectra)[:n_samples]
            delay, gain = paths[i, j]
            direct[i, j, delay:] = gain * scaled[i, : n_samples - delay]

    if np.isinf(cfg.snr):
        noise = np.zeros((m, n_samples))
    else:
        sigma = np.sqrt(n / cfg.snr)
        noise = sigma * np.random.default_rng([cfg.seed, _NOISE_TAG]).standard_normal((m, n_samples))
    mixture = full.sum(axis=0)
    mixture += noise
    return MixResult(mixture, direct, full, rirs, scaled, noise)


def _segment_envelope(rng: np.random.Generator, n_samples: int, sample_rate: int) -> np.ndarray:
    """Piecewise-linear random amplitude contour in [0.05, 1], one knot per 0.25 s."""
    seg = max(1, int(round(0.25 * sample_rate)))
    n_knots = n_samples // seg + 2
    knots = rng.uniform(0.05, 1.0, size=n_knots)
    return np.interp(np.arange(n_samples, dtype=np.float64), np.arange(n_knots) * seg, knots)


def _resonate(x: Iterable[float], a1: float, a2: float):
    """Yield ``lfilter([1], [1, a1, a2], x)`` sample by sample, bit for bit.

    scipy's transposed direct form rounds each step as
    ``y[i] = x[i] + (-(a2 * y[i-2]) - a1 * y[i-1])``. With the
    coefficients negated once this is ``x[i] + (y[i-2] * -a2 + y[i-1] * -a1)``:
    the same bits, since negation is exact and ``a - b`` is ``a + -b``.
    The coefficients become Python floats, because numpy scalars would
    make every step a numpy scalar operation, about twice as slow.
    """
    b1, b2 = -float(a1), -float(a2)
    y1 = y2 = 0.0
    for v in x:
        y1, y2 = v + (y2 * b2 + y1 * b1), y1
        yield y1


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
            noise = memoryview(rng.standard_normal(n_samples))  # yields Python floats, without a list of them
            band = np.fromiter(_resonate(noise, -2.0 * radius * np.cos(theta), radius**2), np.float64, n_samples)
            del noise  # read: freed before the envelope is built
            band /= np.sqrt(np.mean(band**2))
            band *= _segment_envelope(rng, n_samples, sample_rate)
            sig += band
        # Broadband floor keeps every band excited, which keeps the
        # per-source variance weights (and the solves built from them)
        # well conditioned.
        sig += 0.1 * rng.standard_normal(n_samples)
        out[i] = sig / np.sqrt(np.mean(sig**2))
    return out
