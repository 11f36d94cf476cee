"""Short-time Fourier analysis and synthesis with exact reconstruction.

Analysis uses a periodic Hann window; synthesis uses its canonical dual
(minimum-norm) window, so ``synthesize(analyze(x))`` returns ``x`` up to
rounding for any hop that divides the frame length. Signals are padded
with ``frame_len - hop`` zeros on both ends plus a tail pad that rounds
the length up to a multiple of the hop, so every sample receives full
window coverage. Both directions transform one ``linalg.over_bins`` block
of frames at a time on the calling thread, its frames and their transforms
(16 bytes a sample) within ``BLOCK_BYTES``, straight into or out of the
``(bins, channels, frames)`` layout, so neither holds a second whole-signal
transform.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import linalg


@dataclass(frozen=True)
class StftConfig:
    """Frame length (power of two), hop (divides frame length), sample rate."""

    frame_len: int
    hop: int
    sample_rate: int = 16000

    def __post_init__(self) -> None:
        for name in ("frame_len", "hop", "sample_rate"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.frame_len <= 0 or self.frame_len & (self.frame_len - 1):
            raise ValueError(f"frame_len must be a positive power of two, got {self.frame_len}")
        if self.hop <= 0 or self.frame_len % self.hop:
            raise ValueError(f"hop must divide frame_len, got hop={self.hop} frame_len={self.frame_len}")
        if self.frame_len < 2 * self.hop:
            raise ValueError("frame_len must be at least twice the hop")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def n_bins(self) -> int:
        return self.frame_len // 2 + 1


@dataclass
class Spectrogram:
    """Complex STFT tensor of shape (n_bins, n_channels, n_frames).

    ``n_samples`` remembers the pre-padding signal length so synthesis
    can trim exactly; left out, it is the hop-rounded length the frames
    cover, ``(n_frames + 1) * hop - frame_len``.
    """

    data: np.ndarray
    config: StftConfig
    n_samples: int | None = None

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 3:
            raise ValueError("spectrogram data must have shape (n_bins, n_channels, n_frames)")
        if self.data.shape[0] != self.config.n_bins:
            raise ValueError(
                f"bin count {self.data.shape[0]} does not match frame_len {self.config.frame_len}"
            )
        if self.n_samples is None:
            self.n_samples = (self.n_frames + 1) * self.config.hop - self.config.frame_len

    @property
    def n_bins(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def n_frames(self) -> int:
        return self.data.shape[2]


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window: 0.5 - 0.5*cos(2*pi*i/n)."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _dual_window(frame_len: int, hop: int) -> np.ndarray:
    """Canonical dual of the analysis window for overlap-add synthesis."""
    window = hann_window(frame_len)
    # With full coverage, the normalizer at in-frame position i depends only on i mod hop: it is the
    # sum of w^2 over that residue class, at least 0.5 for every frame_len and hop StftConfig accepts.
    cola = (window**2).reshape(frame_len // hop, hop).sum(axis=0)
    return window / np.tile(cola, frame_len // hop)


def pad_amounts(n_samples: int, config: StftConfig) -> tuple[int, int]:
    """Leading and trailing zero-pad lengths used by :func:`analyze`."""
    base = config.frame_len - config.hop
    return base, base + (-n_samples) % config.hop


def analyze(signal: np.ndarray, config: StftConfig) -> Spectrogram:
    """Transform a (n_channels, n_samples) signal to a Spectrogram.

    A one-dimensional input is treated as a single channel. The signal
    must be finite and at least one frame long.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError("signal must have shape (n_channels, n_samples)")
    n_channels, n_samples = x.shape
    if n_channels == 0 or n_samples == 0:
        raise ValueError("signal is empty")
    if n_samples < config.frame_len:
        raise ValueError(f"signal length {n_samples} is shorter than one frame ({config.frame_len})")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite samples")

    left, right = pad_amounts(n_samples, config)
    padded = np.pad(x, ((0, 0), (left, right)))
    frames = sliding_window_view(padded, config.frame_len, axis=1)[:, :: config.hop, :]  # (M, T, L) view
    window = hann_window(config.frame_len)
    data = np.empty((config.n_bins, n_channels, frames.shape[1]), dtype=np.complex128)

    def analysis_block(block: range) -> None:  # FFTs land in (F, M, T)
        lo, hi = block.start, block.stop
        np.fft.rfft(frames[:, lo:hi] * window, axis=-1, out=data[:, :, lo:hi].transpose(1, 2, 0))

    linalg.over_bins(analysis_block, 16 * frames.size, range(data.shape[2]), pooled=False)
    return Spectrogram(data, config, n_samples)


def synthesize(spec: Spectrogram) -> np.ndarray:
    """Inverse transform back to a (n_channels, n_samples) signal."""
    config = spec.config
    dual = _dual_window(config.frame_len, config.hop)
    n_frames, ratio = spec.n_frames, config.frame_len // config.hop
    out = np.zeros((spec.n_channels, n_frames - 1 + ratio, config.hop))

    def synthesis_block(block: range) -> None:
        lo, hi = block.start, block.stop
        frames = np.fft.irfft(spec.data[:, :, lo:hi].transpose(1, 2, 0), n=config.frame_len, axis=-1)
        frames *= dual
        segments = frames.reshape(spec.n_channels, hi - lo, ratio, config.hop)
        for r in reversed(range(ratio)):  # hop-long segment r of frame t lands on block t + r: serial blocks
            out[:, lo + r : hi + r] += segments[:, :, r]  # run in order, so every sample adds its frames ascending

    working = 16 * spec.n_channels * n_frames * config.frame_len
    linalg.over_bins(synthesis_block, working, range(n_frames), pooled=False)
    out = out.reshape(spec.n_channels, -1)
    left, _ = pad_amounts(spec.n_samples, config)
    if spec.n_samples < 0 or left + spec.n_samples > out.shape[1]:
        raise ValueError("n_samples is inconsistent with the frame count")
    return out[:, left : left + spec.n_samples]
