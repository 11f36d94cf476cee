"""Tap-delayed observation stacking and the unified demixing filter.

Dereverberation and separation are expressed as one square filter per
frequency acting on the stacked vector [x_t; x_{t-delay}; ...;
x_{t-delay-taps+1}]. Only the top ``n_channels`` rows of that filter are
free parameters; the remaining rows are pinned to [0 I] so the filter
stays invertible and its determinant equals the determinant of the
leading separation block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SolveCounter, checked_solve
from .stft import Spectrogram, StftConfig


@dataclass(frozen=True)
class TapConfig:
    """Number of past taps and the frame delay before the first tap."""

    taps: int
    delay: int

    def __post_init__(self) -> None:
        if self.taps < 0:
            raise ValueError("taps must be non-negative")
        if self.delay < 1:
            raise ValueError("delay must be at least one frame")


@dataclass
class StackedObservation:
    """Stacked tensor of shape (n_bins, n_channels*(taps+1), n_frames).

    The first ``n_channels`` block rows hold the current frame; block
    row j >= 1 holds the frame at lag ``delay + j - 1``, zero-filled
    where the lag runs off the start of the signal.
    """

    tilde: np.ndarray
    n_channels: int
    config: StftConfig
    n_samples: int | None = None

    @property
    def n_bins(self) -> int:
        return self.tilde.shape[0]

    @property
    def n_frames(self) -> int:
        return self.tilde.shape[2]

    @property
    def dim(self) -> int:
        return self.tilde.shape[1]

    @property
    def past(self) -> np.ndarray:
        """View of the delayed block rows, shape (F, n_channels*taps, T)."""
        return self.tilde[:, self.n_channels :, :]


def build_stacked(spec: Spectrogram, taps: TapConfig) -> StackedObservation:
    """Stack a spectrogram with its delayed copies."""
    n_channels, n_frames = spec.n_channels, spec.n_frames
    if n_frames == 0:
        raise ValueError("spectrogram has no frames")
    if taps.taps > 0 and taps.delay >= n_frames:
        raise ValueError(f"delay {taps.delay} leaves no delayed frame in {n_frames} frames")
    dim = n_channels * (taps.taps + 1)
    tilde = np.zeros((spec.n_bins, dim, n_frames), dtype=np.complex128)
    tilde[:, :n_channels, :] = spec.data
    for j in range(1, taps.taps + 1):
        shift = taps.delay + j - 1
        if shift < n_frames:
            tilde[:, j * n_channels : (j + 1) * n_channels, shift:] = spec.data[:, :, : n_frames - shift]
    return StackedObservation(tilde, n_channels, spec.config, spec.n_samples)


@dataclass
class ExtendedDemixer:
    """Square per-frequency filter with the tap rows pinned to [0 I]."""

    matrix: np.ndarray  # (F, D, D) complex
    n_channels: int

    @classmethod
    def identity(cls, n_bins: int, n_channels: int, taps: TapConfig) -> "ExtendedDemixer":
        dim = n_channels * (taps.taps + 1)
        matrix = np.broadcast_to(np.eye(dim, dtype=np.complex128), (n_bins, dim, dim)).copy()
        return cls(matrix, n_channels)

    @property
    def n_bins(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def top(self) -> np.ndarray:
        """The free rows: separation block and prediction taps, (F, N, D)."""
        return self.matrix[:, : self.n_channels, :]

    @property
    def mixing(self) -> np.ndarray:
        """Leading square separation block, (F, N, N)."""
        return self.matrix[:, : self.n_channels, : self.n_channels]

    def assert_structure(self) -> None:
        """Check the pinned [0 I] block; it must never be written."""
        n, d = self.n_channels, self.dim
        expected = np.eye(d, dtype=np.complex128)[n:]
        if not np.array_equal(self.matrix[:, n:, :], np.broadcast_to(expected, (self.n_bins, d - n, d))):
            raise AssertionError("pinned tap rows of the extended demixer were modified")


def demix(dm: ExtendedDemixer, sx: StackedObservation) -> Spectrogram:
    """Apply the free rows of the filter: outputs (F, N, T)."""
    if dm.dim != sx.dim or dm.n_channels != sx.n_channels:
        raise ValueError("demixer and stacked observation shapes do not match")
    return Spectrogram(dm.top @ sx.tilde, sx.config, sx.n_samples)


def split_filter(
    dm: ExtendedDemixer, counter: SolveCounter | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Factor the top rows as [W | -W Zbar]: returns (W, Zbar).

    W is the separation block and Zbar the implied multichannel linear
    prediction coefficients, shape (F, N, N*taps).
    """
    n = dm.n_channels
    w = dm.matrix[:, :n, :n]
    tail = dm.matrix[:, :n, n:]
    if tail.shape[2] == 0:
        return w.copy(), tail.copy()
    zbar = -checked_solve(w, tail, "separation block", counter)
    return w.copy(), zbar
