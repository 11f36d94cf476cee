"""Transform-layer checks: framing, reconstruction, energy, leakage."""

import numpy as np
import pytest

from drbss import Spectrogram, StftConfig, analyze, synthesize
from drbss.stft import _windows, hann_window, pad_amounts


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(a)


def test_config_validation():
    with pytest.raises(ValueError):
        StftConfig(300, 128)  # not a power of two
    with pytest.raises(ValueError):
        StftConfig(256, 200)  # frame < 2 * hop
    with pytest.raises(ValueError):
        StftConfig(256, 0)
    cfg = StftConfig(1024, 256)
    assert cfg.n_bins == 513
    assert cfg.sample_rate == 16000


def test_hann_window_is_periodic():
    n = 8
    w = hann_window(n)
    i = np.arange(n)
    assert np.allclose(w, 0.5 - 0.5 * np.cos(2 * np.pi * i / n), atol=1e-15)
    assert w[0] == 0.0
    assert len(w) == n


def test_cola_rejection():
    # hop == frame leaves gaps where the window is zero
    with pytest.raises(ValueError):
        _windows(8, 8)


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
