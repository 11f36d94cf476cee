"""Transform-layer checks: framing, reconstruction, energy, leakage."""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from drbss import Spectrogram, StftConfig, analyze, linalg, synthesize
from drbss.stft import _dual_window, hann_window, pad_amounts


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(a)


def test_config_validation():
    with pytest.raises(ValueError):
        StftConfig(300, 128)  # not a power of two
    with pytest.raises(ValueError):
        StftConfig(256, 200)  # frame < 2 * hop
    with pytest.raises(ValueError):
        StftConfig(256, 0)
    with pytest.raises(ValueError, match="^sample_rate must be positive$"):
        StftConfig(256, 64, 0)
    cfg = StftConfig(1024, 256)
    assert cfg.n_bins == 513
    assert cfg.sample_rate == 16000


@pytest.mark.parametrize(
    "args, name",
    [
        ((1024.0, 256), "frame_len"),
        ((True, 256), "frame_len"),
        ((1024, 256.0), "hop"),
        ((1024, 256, 16000.0), "sample_rate"),
    ],
)
def test_config_rejects_non_integers(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        StftConfig(*args)


def test_hann_window_is_periodic():
    n = 8
    w = hann_window(n)
    i = np.arange(n)
    assert np.allclose(w, 0.5 - 0.5 * np.cos(2 * np.pi * i / n), atol=1e-15)
    assert w[0] == 0.0
    assert len(w) == n


def test_cola_rejection():
    # hop == frame leaves gaps where the window is zero: the config stops it
    with pytest.raises(ValueError):
        StftConfig(8, 8)


def test_frame_count_oracle():
    # 32000 samples, frame 1024, hop 256: both pads are 768, no tail
    # remainder, so (33536 - 1024) // 256 + 1 = 128 frames
    cfg = StftConfig(1024, 256)
    assert pad_amounts(32000, cfg) == (768, 768)
    rng = np.random.default_rng(0)
    spec = analyze(rng.standard_normal((3, 32000)), cfg)
    assert spec.data.shape == (513, 3, 128)
    assert spec.n_samples == 32000


def test_perfect_reconstruction_multiple_configs():
    rng = np.random.default_rng(1)
    for frame, hop, channels, n in [
        (1024, 256, 3, 32000),
        (256, 128, 1, 5000),
        (512, 128, 2, 9999),
        (128, 32, 4, 3001),
    ]:
        x = rng.standard_normal((channels, n))
        spec = analyze(x, StftConfig(frame, hop))
        y = synthesize(spec)
        assert y.shape == x.shape
        assert rel_l2(x, y) <= 1e-10


def test_reconstruction_odd_length_bookkeeping():
    # lengths that do not divide the hop exercise the tail padding
    rng = np.random.default_rng(2)
    cfg = StftConfig(256, 64)
    for n in (257, 300, 511, 1023):
        x = rng.standard_normal(n)
        y = synthesize(analyze(x, cfg))
        assert y.shape == (1, n)
        assert rel_l2(x[None, :], y) <= 1e-10


def test_analyze_promotes_1d():
    x = np.random.default_rng(3).standard_normal(4000)
    spec = analyze(x, StftConfig(256, 128))
    assert spec.n_channels == 1


def test_analyze_linearity():
    rng = np.random.default_rng(4)
    cfg = StftConfig(256, 128)
    a = rng.standard_normal((2, 4000))
    b = rng.standard_normal((2, 4000))
    left = analyze(2.0 * a - 0.5 * b, cfg).data
    right = 2.0 * analyze(a, cfg).data - 0.5 * analyze(b, cfg).data
    assert np.allclose(left, right, atol=1e-12)


def test_analyze_error_contracts():
    cfg = StftConfig(256, 128)
    with pytest.raises(ValueError):
        analyze(np.zeros(100), cfg)  # shorter than one frame
    with pytest.raises(ValueError):
        analyze(np.array([]), cfg)
    with pytest.raises(ValueError, match="^signal must have shape"):
        analyze(np.zeros((1, 2, 4000)), cfg)
    bad = np.ones(4000)
    bad[17] = np.nan
    with pytest.raises(ValueError):
        analyze(bad, cfg)


def test_spectrogram_validation():
    cfg = StftConfig(256, 128)
    with pytest.raises(ValueError):
        Spectrogram(np.zeros((100, 1, 4), dtype=complex), cfg)  # 100 != n_bins
    with pytest.raises(ValueError):
        Spectrogram(np.zeros((129, 4), dtype=complex), cfg)  # not 3-D
    spec = Spectrogram(np.zeros((129, 2, 4), dtype=complex), cfg)
    assert spec.data.dtype == np.complex128
    assert (spec.n_bins, spec.n_frames, spec.n_channels) == (129, 4, 2)


def overlap_add_frame_by_frame(spec):
    """Oracle: the dual-windowed frames added into the signal one frame at a time, in order."""
    cfg = spec.config
    dual = _dual_window(cfg.frame_len, cfg.hop)
    frames = np.fft.irfft(spec.data.transpose(1, 2, 0), n=cfg.frame_len, axis=-1) * dual
    left = cfg.frame_len - cfg.hop
    out = np.zeros((spec.n_channels, (spec.n_frames - 1) * cfg.hop + cfg.frame_len))
    for t in range(spec.n_frames):
        out[:, t * cfg.hop : t * cfg.hop + cfg.frame_len] += frames[:, t, :]
    return out[:, left : left + spec.n_samples]


@pytest.mark.parametrize("hop", [128, 64])
@pytest.mark.parametrize("n_samples", [4001, 2049])
def test_synthesize_matches_frame_by_frame_overlap_add(hop, n_samples):
    """Bit for bit, at frame/hop ratios 2 and 4 and odd signal lengths."""
    rng = np.random.default_rng(n_samples + hop)
    spec = analyze(rng.standard_normal((2, n_samples)), StftConfig(256, hop, 8000))
    spec.data = spec.data * (1.0 + rng.standard_normal(spec.data.shape))  # no longer an analysis
    got = synthesize(spec)
    assert got.shape == (2, n_samples)
    assert np.array_equal(got, overlap_add_frame_by_frame(spec))


def whole_array_analyze(x, cfg):
    """Reference: every windowed frame at once, transformed, then one transposed copy."""
    left, right = pad_amounts(x.shape[1], cfg)
    frames = sliding_window_view(np.pad(x, ((0, 0), (left, right))), cfg.frame_len, axis=1)[:, :: cfg.hop, :]
    window = hann_window(cfg.frame_len)
    return np.ascontiguousarray(np.fft.rfft(frames * window, axis=-1).transpose(2, 0, 1))


def whole_array_synthesize(spec):
    """Reference: every frame's inverse at once, then overlap-add by hop-long segment."""
    cfg = spec.config
    dual = _dual_window(cfg.frame_len, cfg.hop)
    frames = np.fft.irfft(spec.data.transpose(1, 2, 0), n=cfg.frame_len, axis=-1)
    frames *= dual
    ratio = cfg.frame_len // cfg.hop
    segments = frames.reshape(spec.n_channels, spec.n_frames, ratio, cfg.hop)
    out = np.zeros((spec.n_channels, spec.n_frames - 1 + ratio, cfg.hop))
    for r in reversed(range(ratio)):
        out[:, r : r + spec.n_frames] += segments[:, :, r]
    left = cfg.frame_len - cfg.hop
    return out.reshape(spec.n_channels, -1)[:, left : left + spec.n_samples]


@pytest.mark.parametrize("block_bytes", [None, 5 << 13])  # about 5, 2.5 and 1.7 frames per block
@pytest.mark.parametrize("n_samples", [16000, 16001])
@pytest.mark.parametrize("n_channels", [1, 2, 3])
def test_frame_blocks_match_the_whole_array_transforms(monkeypatch, n_channels, n_samples, block_bytes):
    """Bit for bit, in one block or in blocks of a few frames, at a length that is not a multiple of the hop."""
    if block_bytes is not None:
        monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(n_channels)
    cfg = StftConfig(512, 128, 8000)
    x = rng.standard_normal((n_channels, n_samples))
    spec = analyze(x, cfg)
    assert spec.data.flags.c_contiguous
    assert np.array_equal(spec.data, whole_array_analyze(x, cfg))
    spec.data = spec.data * (1.0 + rng.standard_normal(spec.data.shape))  # no longer an analysis
    assert np.array_equal(synthesize(spec), whole_array_synthesize(spec))


def _extra_bytes(call):
    """(result, bytes allocated at the peak of ``call`` beyond what it returns)."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - held


@pytest.mark.parametrize("n_channels", [1, 2, 3])
def test_transforms_hold_less_than_one_extra_spectrogram(n_channels):
    """At the pipeline's shape (16 kHz, 10 s, 1024/256), analysis and synthesis allocate less
    than one spectrogram beyond their input and output: they transform a block of frames at
    a time, straight into or out of the (F, M, T) layout."""
    cfg = StftConfig(1024, 256, 16000)
    x = np.random.default_rng(n_channels).standard_normal((n_channels, 160000))
    spec, analysis_extra = _extra_bytes(lambda: analyze(x, cfg))
    _, synthesis_extra = _extra_bytes(lambda: synthesize(spec))
    assert analysis_extra < spec.data.nbytes
    assert synthesis_extra < spec.data.nbytes


def test_synthesize_without_a_length_returns_the_hop_rounded_signal():
    """With no ``n_samples`` a spectrogram carries the hop-rounded length, so synthesis keeps the tail pad:
    ``S + (-S) % hop`` samples, the first ``S`` the input."""
    cfg = StftConfig(256, 64)
    x = np.random.default_rng(6).standard_normal(1000)
    spec = Spectrogram(analyze(x, cfg).data, cfg)
    assert spec.n_samples == 1000 + (-1000) % 64
    y = synthesize(spec)
    assert y.shape == (1, 1000 + (-1000) % 64)
    assert np.max(np.abs(y[0, :1000] - x)) <= 1e-12


def test_synthesize_rejects_inconsistent_length():
    cfg = StftConfig(256, 128)
    spec = analyze(np.random.default_rng(5).standard_normal(4000), cfg)
    bad = Spectrogram(spec.data, cfg, n_samples=10**6)
    with pytest.raises(ValueError):
        synthesize(bad)


def test_bin_centered_leakage():
    """A bin-centered cosine leaks into exactly three bins under this window.

    For every fully interior frame the center magnitude is n/4 and both
    neighbors carry half of it, independent of the frame's phase offset.
    """
    cfg = StftConfig(256, 128)
    n = cfg.frame_len
    k = 20
    i = np.arange(16000)
    spec = analyze(np.cos(2 * np.pi * k * i / n), cfg)
    left, _ = pad_amounts(16000, cfg)
    for t in range(5, 15):  # frames well inside the signal
        assert t * cfg.hop >= left
        frame = spec.data[:, 0, t]
        assert abs(abs(frame[k]) - n / 4) <= 1e-9
        assert abs(abs(frame[k - 1]) - n / 8) <= 1e-9
        assert abs(abs(frame[k + 1]) - n / 8) <= 1e-9
        three = np.sum(np.abs(frame[k - 1 : k + 2]) ** 2)
        assert three >= 0.99 * np.sum(np.abs(frame) ** 2)


def test_parseval_per_frame():
    """One-sided spectra carry the windowed frame energy (interior bins twice)."""
    cfg = StftConfig(256, 128)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(4000)
    spec = analyze(x, cfg)
    left, right = pad_amounts(x.size, cfg)
    padded = np.concatenate([np.zeros(left), x, np.zeros(right)])
    window = hann_window(cfg.frame_len)
    weights = np.full(cfg.n_bins, 2.0)
    weights[0] = weights[-1] = 1.0
    for t in range(spec.n_frames):
        frame = padded[t * cfg.hop : t * cfg.hop + cfg.frame_len] * window
        spectral = np.sum(weights * np.abs(spec.data[:, 0, t]) ** 2) / cfg.frame_len
        assert abs(spectral - np.sum(frame**2)) <= 1e-9 * max(1.0, np.sum(frame**2))
