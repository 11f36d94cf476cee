"""Stacked observations and the structure of the extended demixer."""

from unittest.mock import patch

import numpy as np
import pytest

from drbss import (
    ExtendedDemixer,
    NumericalError,
    Spectrogram,
    StftConfig,
    TapConfig,
    analyze,
    build_stacked,
    demix,
    split_filter,
)
from tests.conftest import stack_rows

CFG = StftConfig(256, 128, 8000)


def random_spec(seed, n_frames=12, n_channels=2):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((CFG.n_bins, n_channels, n_frames)) + 1j * rng.standard_normal(
        (CFG.n_bins, n_channels, n_frames)
    )
    return Spectrogram(data, CFG)


def test_tap_config_validation():
    with pytest.raises(ValueError):
        TapConfig(-1, 2)
    with pytest.raises(ValueError):
        TapConfig(3, 0)
    TapConfig(0, 1)  # zero taps is a legal degenerate case


@pytest.mark.parametrize(
    "args, name", [((2.5, 1), "taps"), ((True, 1), "taps"), ((2, 1.0), "delay"), ((2, False), "delay")]
)
def test_tap_config_rejects_non_integers(args, name):
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        TapConfig(*args)


def test_zero_taps_is_just_the_input():
    spec = random_spec(0)
    sx = build_stacked(spec, TapConfig(0, 2))
    assert sx.dim == spec.n_channels
    assert sx.gather(spec.data, past=True).shape == (CFG.n_bins, 0, spec.n_frames)
    assert np.array_equal(stack_rows(sx), spec.data)
    assert sx.gather(spec.data) is spec.data  # nothing to copy


def test_delay_blocks_and_zero_fill():
    spec = random_spec(1, n_frames=8, n_channels=2)
    x = spec.data
    sx = build_stacked(spec, TapConfig(2, 2))
    assert sx.dim == 6
    tilde = stack_rows(sx)
    # frame 4 sees lags 2 and 3; frame 1 sees neither
    assert np.array_equal(tilde[:, 0:2, 4], x[:, :, 4])
    assert np.array_equal(tilde[:, 2:4, 4], x[:, :, 2])
    assert np.array_equal(tilde[:, 4:6, 4], x[:, :, 1])
    assert np.array_equal(tilde[:, 2:6, 1], np.zeros((CFG.n_bins, 4)))
    # lag 2 starts contributing at frame 2
    assert np.array_equal(tilde[:, 2:4, 2], x[:, :, 0])


def test_past_is_a_view():
    """The stacked observation holds only the spectrogram; a bin block's gather copies its rows
    out of ``spec.data`` and writes each lag's leading zeros, over whatever its buffer held."""
    spec = random_spec(2)
    sx = build_stacked(spec, TapConfig(3, 2))
    assert sx.lags == (0, 2, 3, 4)
    assert sx.spec is spec and vars(sx).keys() == {"spec", "lags"}
    tilde = stack_rows(sx)
    assert np.array_equal(sx.gather(spec.data), tilde)
    dirty = np.full((4, 6, spec.n_frames), np.nan + 1j)  # the gather's buffer, reused dirty
    with patch.object(np, "empty", lambda *args, **kwargs: dirty):
        past = sx.gather(spec.data[3:7], past=True)
    assert past is dirty and np.array_equal(past, tilde[3:7, 2:])
    assert past.flags.c_contiguous and not np.shares_memory(past, spec.data)


def test_build_stacked_rejects_empty():
    spec = Spectrogram(np.zeros((CFG.n_bins, 2, 0), dtype=complex), CFG)
    with pytest.raises(ValueError):
        build_stacked(spec, TapConfig(1, 1))
    # a delay past the last frame would leave every delayed row zero
    with pytest.raises(ValueError, match="delay 12"):
        build_stacked(random_spec(0, n_frames=12), TapConfig(2, 12))
    # so would a last lag delay + taps - 1 past it, for the last tap rows
    with pytest.raises(ValueError, match="delay 10 with 3 taps reaches lag 12, beyond the 12 frames"):
        build_stacked(random_spec(0, n_frames=12), TapConfig(3, 10))
    assert build_stacked(random_spec(0, n_frames=12), TapConfig(2, 10)).lags[-1] == 11


def test_identity_demixer_structure():
    """Only the free rows are stored: [I 0] in every bin, the separation block a view of them."""
    dm = ExtendedDemixer.identity(5, 2, TapConfig(2, 1))
    assert dm.top.shape == (5, 2, 6)
    assert (dm.n_bins, dm.n_channels, dm.dim) == (5, 2, 6)
    assert all(np.array_equal(block, np.eye(6)[:2]) for block in dm.top)
    assert dm.mixing.shape == (5, 2, 2)
    assert np.shares_memory(dm.mixing, dm.top)
    dm.assert_structure()


def test_assert_structure_names_the_first_non_finite_bin():
    dm = ExtendedDemixer.identity(4, 2, TapConfig(1, 1))
    dm.top[2, 1, 3] = np.nan  # a tap coefficient of bin 2
    dm.top[3, 0, 0] = np.inf
    with pytest.raises(NumericalError, match="^non-finite demixing filter at frequency bin 2$"):
        dm.assert_structure()


def test_demix_identity_returns_current_frames():
    spec = random_spec(3)
    sx = build_stacked(spec, TapConfig(2, 2))
    dm = ExtendedDemixer.identity(spec.n_bins, spec.n_channels, TapConfig(2, 2))
    out = demix(dm, sx)
    assert np.array_equal(out.data, spec.data)


def test_demix_matches_naive_loop():
    spec = random_spec(4, n_frames=6, n_channels=2)
    taps = TapConfig(2, 1)
    sx = build_stacked(spec, taps)
    dm = ExtendedDemixer.identity(spec.n_bins, 2, taps)
    rng = np.random.default_rng(5)
    dm.top += 0.3 * (
        rng.standard_normal((spec.n_bins, 2, 6)) + 1j * rng.standard_normal((spec.n_bins, 2, 6))
    )
    out = demix(dm, sx).data
    tilde = stack_rows(sx)
    for f in (0, 7, spec.n_bins - 1):
        for t in range(6):
            want = dm.top[f] @ tilde[f, :, t]
            assert np.allclose(out[f, :, t], want, atol=1e-14)


def test_demix_shape_mismatch():
    spec = random_spec(6)
    sx = build_stacked(spec, TapConfig(2, 1))
    dm = ExtendedDemixer.identity(spec.n_bins, 2, TapConfig(1, 1))
    with pytest.raises(ValueError):
        demix(dm, sx)


def test_split_filter_round_trip():
    rng = np.random.default_rng(7)
    n_bins, n, taps = 6, 2, 3
    dim = n * (taps + 1)
    w = rng.standard_normal((n_bins, n, n)) + 1j * rng.standard_normal((n_bins, n, n))
    w += 2.0 * np.eye(n)  # keep it comfortably invertible
    zbar = rng.standard_normal((n_bins, n, n * taps)) + 1j * rng.standard_normal(
        (n_bins, n, n * taps)
    )
    dm = ExtendedDemixer.identity(n_bins, n, TapConfig(taps, 2))
    dm.top[:, :, :n] = w
    dm.top[:, :, n:] = -w @ zbar
    got_w, got_zbar = split_filter(dm)
    assert np.allclose(got_w, w, atol=1e-12)
    assert np.allclose(got_zbar, zbar, atol=1e-12)


def test_split_filter_zero_taps():
    dm = ExtendedDemixer.identity(4, 2, TapConfig(0, 1))
    w, zbar = split_filter(dm)
    assert w.shape == (4, 2, 2)
    assert zbar.shape == (4, 2, 0)


def test_split_filter_singular_block():
    dm = ExtendedDemixer.identity(3, 2, TapConfig(1, 1))
    dm.top[1, :2, :2] = 0.0
    with pytest.raises(NumericalError, match="frequency bin 1"):
        split_filter(dm)


def test_stacking_keeps_sample_count():
    x = np.random.default_rng(8).standard_normal((2, 5000))
    spec = analyze(x, CFG)
    sx = build_stacked(spec, TapConfig(2, 2))
    assert sx.spec is spec
    dm = ExtendedDemixer.identity(spec.n_bins, spec.n_channels, TapConfig(2, 2))
    out = demix(dm, sx)
    assert out.n_samples == 5000
    assert out.n_frames == spec.n_frames
