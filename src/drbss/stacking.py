"""Tap-delayed observation stacking and the unified demixing filter.

Dereverberation and separation are expressed as one square filter per
frequency acting on the stacked vector [x_t; x_{t-delay}; ...;
x_{t-delay-taps+1}]. Only the top ``n_channels`` rows of that filter are
free parameters; the remaining rows are [0 I], so the filter stays
invertible and its determinant equals the determinant of the leading
separation block. ``ExtendedDemixer`` stores the free rows alone: every
kernel takes them, ``top``, or their separation block ``mixing``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

import numpy as np

from . import linalg
from .linalg import NumericalError, checked_solve
from .stft import Spectrogram


@dataclass(frozen=True)
class TapConfig:
    """Number of past taps and the frame delay before the first tap."""

    taps: int
    delay: int

    def __post_init__(self) -> None:
        for name in ("taps", "delay"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.taps < 0:
            raise ValueError("taps must be non-negative")
        if self.delay < 1:
            raise ValueError("delay must be at least one frame")


@dataclass
class StackedObservation:
    """A spectrogram with its lags ``(0, delay, ..., delay+taps-1)``, held once.

    Stacked row k is channel ``k % M`` of ``spec.data`` at lag ``lags[k // M]``,
    zero where the lag runs off the start of the signal. Nothing is copied: the
    Gram-forming updates and the products gather one bin block at a time, and
    the scalar tap sweep pads one.
    """

    spec: Spectrogram
    lags: tuple[int, ...]

    @property
    def n_channels(self) -> int:
        return self.spec.n_channels

    @property
    def dim(self) -> int:
        return self.n_channels * len(self.lags)

    def gather(self, data: np.ndarray, past: bool = False) -> np.ndarray:
        """The stacked rows of a bin block of ``spec.data``, (B, D, T), or only the delayed ones, (B, D - M, T):
        per lag group of M rows, its leading zeros and one copied slice; at zero taps the block itself, uncopied."""
        lags = self.lags[1:] if past else self.lags
        if lags == (0,):
            return data
        m, t = self.n_channels, self.spec.n_frames
        rows = np.empty((len(data), m * len(lags), t), dtype=data.dtype)
        for i, lag in enumerate(lags):
            rows[:, i * m : (i + 1) * m, :lag] = 0
            rows[:, i * m : (i + 1) * m, lag:] = data[:, :, : t - lag]
        return rows

    def over_blocks(self, kernel, past: bool, extra_bytes: int, *arrays: np.ndarray, pooled: bool = True) -> None:
        """``kernel(rows, *blocks)`` per bin block of ``over_bins``, ``rows`` the block's ``gather`` and ``blocks``
        its slices of ``arrays``; ``extra_bytes`` is what the kernel touches besides ``spec.data``, the gather and
        one gather-sized scratch, so ``over_bins`` keeps every block's rows within ``BLOCK_BYTES``. ``pooled`` is
        passed on: the products and one-track prediction solves turn it off, as they gain too little from the pool
        to wait on a second CPU. No call holds every bin's rows."""
        uncopied = self.lags == (0,)  # at zero taps the gather is the block itself
        data = self.spec.data
        working = (1 + 2 * (len(self.lags) - past) - uncopied) * data.nbytes + extra_bytes

        @wraps(kernel)
        def gathered(data, *blocks):
            kernel(self.gather(data, past), *blocks)

        linalg.over_bins(gathered, working, data, *arrays, pooled=pooled)

    def apply(self, filters: np.ndarray, out: np.ndarray, past: bool = False) -> np.ndarray:
        """Per slice of bins, ``out = filters @ rows``, or with ``past`` ``out -= filters @ past_rows``; returns ``out``."""

        def product_block(rows, filters, out):
            product = np.matmul(filters, rows, out=None if past else out)
            if past:
                out -= product

        self.over_blocks(product_block, past, out.nbytes, filters, out, pooled=False)
        return out


def build_stacked(spec: Spectrogram, taps: TapConfig) -> StackedObservation:
    """Hold a spectrogram with its lags; nothing is copied until a bin block is gathered."""
    if spec.n_frames == 0:
        raise ValueError("spectrogram has no frames")
    last = taps.delay + taps.taps - 1 if taps.taps else 0  # checked before any lag is built
    if last >= spec.n_frames:
        reach = f"delay {taps.delay} with {taps.taps} taps reaches lag {last}"
        raise ValueError(f"{reach}, beyond the {spec.n_frames} frames")
    return StackedObservation(spec, (0, *range(taps.delay, taps.delay + taps.taps)))


@dataclass
class ExtendedDemixer:
    """The free rows of a square per-frequency filter; its tap rows, [0 I], are read by no update and not stored."""

    top: np.ndarray  # (F, N, D) complex, separation block then prediction taps; row stride D, as BLAS is handed it

    @classmethod
    def identity(cls, n_bins: int, n_channels: int, taps: TapConfig) -> "ExtendedDemixer":
        top = np.zeros((n_bins, n_channels, n_channels * (taps.taps + 1)), dtype=np.complex128)
        top[:, :, :n_channels] = np.eye(n_channels)
        return cls(top)

    @property
    def n_bins(self) -> int:
        return self.top.shape[0]

    @property
    def n_channels(self) -> int:
        return self.top.shape[1]

    @property
    def dim(self) -> int:
        return self.top.shape[2]

    @property
    def mixing(self) -> np.ndarray:
        """Leading square separation block, (F, N, N), a view."""
        return self.top[:, :, : self.n_channels]

    def assert_structure(self) -> None:
        """Raise NumericalError at the first bin whose free rows are not finite. ``run`` calls it after
        every filter step, and the benchmark's tracer hooks this name to time the check (ROADMAP item 0)."""
        blown = np.flatnonzero(~np.isfinite(self.top).all(axis=(1, 2)))
        if blown.size:
            raise NumericalError(f"non-finite demixing filter at frequency bin {blown[0]}")


def demix(dm: ExtendedDemixer, sx: StackedObservation) -> Spectrogram:
    """Apply the free rows of the filter: outputs (F, N, T)."""
    if dm.dim != sx.dim or dm.n_channels != sx.n_channels:
        raise ValueError("demixer and stacked observation shapes do not match")
    return Spectrogram(sx.apply(dm.top, np.empty_like(sx.spec.data)), sx.spec.config, sx.spec.n_samples)


def split_filter(dm: ExtendedDemixer) -> tuple[np.ndarray, np.ndarray]:
    """Factor the top rows as [W | -W Zbar]: returns (W, Zbar).

    W is the separation block and Zbar the implied multichannel linear
    prediction coefficients, shape (F, N, N*taps).
    """
    w = dm.mixing
    tail = dm.top[:, :, dm.n_channels :]
    if tail.shape[2] == 0:
        return w.copy(), tail.copy()
    zbar = -checked_solve(w, tail, "separation block")
    return w.copy(), zbar
