"""scipy as the oracle: the numpy-only simulator and WAV codec reproduce it bit for bit.

The simulated fixtures were defined with ``scipy.signal.lfilter`` and
``fftconvolve``, and the WAV files with ``scipy.io.wavfile``; scipy comes
with the test extra only.
"""

import struct
from dataclasses import fields

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.io import wavfile
from scipy.signal import fftconvolve, lfilter

from drbss import MixResult, SyntheticRoomConfig, make_rir, make_sources, mix, sim
from drbss.cli import main, read_wav, write_wav


def scipy_make_sources(n_sources, n_samples, sample_rate, seed=0):
    """``make_sources`` as it was written against ``lfilter``."""
    nyquist = sample_rate / 2.0
    out = np.zeros((n_sources, n_samples))
    for i in range(n_sources):
        rng = np.random.default_rng([seed, sim._SOURCE_TAG, i])
        low = rng.uniform(0.04, 0.12) * nyquist * (1.0 + 0.7 * i)
        high = rng.uniform(0.35, 0.55) * nyquist * (1.0 - 0.12 * i)
        sig = np.zeros(n_samples)
        for freq in (low, high):
            radius = rng.uniform(0.90, 0.96)
            theta = np.pi * freq / nyquist
            band = lfilter([1.0], [1.0, -2.0 * radius * np.cos(theta), radius**2],
                           rng.standard_normal(n_samples))
            band /= np.sqrt(np.mean(band**2))
            sig += band * sim._segment_envelope(rng, n_samples, sample_rate)
        sig += 0.1 * rng.standard_normal(n_samples)
        out[i] = sig / np.sqrt(np.mean(sig**2))
    return out


def scipy_mix(s, cfg):
    """``mix`` as it was written against ``fftconvolve``."""
    n, m, n_samples = cfg.n_sources, cfg.n_mics, s.shape[1]
    rirs = [[make_rir(cfg, i, j) for j in range(m)] for i in range(n)]
    scaled = np.empty_like(s)
    for i in range(n):
        image = fftconvolve(s[i], rirs[i][0])[:n_samples]
        scaled[i] = s[i] / np.sqrt(float(np.mean(image**2)))
    full = np.zeros((n, m, n_samples))
    direct = np.zeros((n, m, n_samples))
    for i in range(n):
        for j in range(m):
            full[i, j] = fftconvolve(scaled[i], rirs[i][j])[:n_samples]
            delay, gain = sim._direct_path(cfg, i, j)[:2]
            direct[i, j, delay:] = gain * scaled[i, : n_samples - delay]
    if np.isinf(cfg.snr):
        noise = np.zeros((m, n_samples))
    else:
        noise = np.sqrt(n / cfg.snr) * np.random.default_rng([cfg.seed, sim._NOISE_TAG]).standard_normal((m, n_samples))
    return MixResult(full.sum(axis=0) + noise, direct, full, rirs, scaled, noise)


def assert_same_mix(got, want):
    for f in fields(MixResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "impulse_responses":
            assert all(np.array_equal(x, y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b))
        else:
            assert np.array_equal(a, b), f.name


@pytest.mark.parametrize("n_sources", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_benchmark_fixtures_equal_the_scipy_build(seed, n_sources):
    """The ``unified`` and ``baselines`` fixtures: 8 kHz, 20000 samples, rt60 0.3, snr 1e4."""
    sources = make_sources(n_sources, 20000, 8000, seed)
    assert np.array_equal(sources, scipy_make_sources(n_sources, 20000, 8000, seed))
    room = SyntheticRoomConfig(n_sources, sample_rate=8000, rt60=0.3, snr=1e4, seed=seed)
    assert_same_mix(mix(sources, room), scipy_mix(sources, room))


def test_pipeline_draw_equals_the_scipy_build():
    """The ``pipeline`` shape: 16 kHz, 160000 samples, 2 sources."""
    sources = make_sources(2, 160000, 16000, 7)
    assert np.array_equal(sources, scipy_make_sources(2, 160000, 16000, 7))
    room = SyntheticRoomConfig(2, sample_rate=16000, rt60=0.3, snr=1e4, seed=7)
    assert_same_mix(mix(sources, room), scipy_mix(sources, room))


@pytest.mark.parametrize(
    "n_sources, n_samples, room",
    [
        (3, 3001, dict(rt60=0.0, snr=np.inf)),  # one-sample RIRs: fftconvolve multiplies directly
        (2, 1, dict(rt60=0.0, max_direct_delay=0)),  # a one-sample signal
        (1, 5, dict(rt60=0.01, max_direct_delay=2)),
        (3, 999, dict(rt60=0.05, direct_delays=((0, 0, 0), (1, 2, 3), (4, 0, 0)))),
        (2, 777, dict(sample_rate=11025, rt60=0.2, tail_gain=0.0)),
    ],
)
def test_edge_rooms_equal_the_scipy_build(n_sources, n_samples, room):
    room = SyntheticRoomConfig(n_sources, **{"sample_rate": 8000, "seed": 3} | room)
    sources = make_sources(n_sources, n_samples, room.sample_rate, 3)
    assert np.array_equal(sources, scipy_make_sources(n_sources, n_samples, room.sample_rate, 3))
    assert_same_mix(mix(sources, room), scipy_mix(sources, room))


def test_fft_length_is_next_fast_len():
    n = np.arange(1, 200001)
    assert [sim._fft_length(k) for k in n.tolist()] == [next_fast_len(k, True) for k in n.tolist()]


@pytest.mark.parametrize("channels", [1, 2, 3, 4])
def test_float32_writes_are_byte_identical_to_scipy(tmp_path, channels):
    x = 0.3 * np.random.default_rng(channels).standard_normal((channels, 1001))
    data = x[0] if channels == 1 else x
    write_wav(tmp_path / "ours.wav", 16000, data)
    wavfile.write(tmp_path / "scipy.wav", 16000, data.T.astype(np.float32))
    ours = (tmp_path / "ours.wav").read_bytes()
    assert ours == (tmp_path / "scipy.wav").read_bytes()
    assert ours[16:20] == struct.pack("<I", 18) and ours[38:42] == b"fact" and len(ours) == 58 + 4 * 1001 * channels


def scaled(data):
    """scipy's read, scaled as ``read_wav`` scales it, channels first."""
    if data.dtype == np.int16:
        data = data / 32768.0
    elif data.dtype == np.int32:
        data = data / 2147483648.0
    elif data.dtype == np.uint8:
        data = (data.astype(np.float64) - 128.0) / 128.0
    arr = np.asarray(data, dtype=np.float64)
    return arr[None, :] if arr.ndim == 1 else arr.T


def samples(dtype, channels, rng):
    if np.dtype(dtype).kind == "f":
        return rng.standard_normal((500, channels)).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, (500, channels), endpoint=True, dtype=dtype)


def wav_bytes(tag, channels, bits, data, extensible=False):
    """A RIFF WAVE file around raw ``data``, optionally as WAVE_FORMAT_EXTENSIBLE."""
    rate, align = 8000, channels * bits // 8
    if extensible:
        guid = struct.pack("<I", tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
        fmt = struct.pack("<HHIIHHHHI", 0xFFFE, channels, rate, rate * align, align, bits, 22, bits, 0) + guid
    else:
        fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("dtype", ["u1", "<i2", "<i4", "<f4", "<f8"])
def test_reads_equal_scipy_for_every_supported_format(tmp_path, dtype, channels):
    rng = np.random.default_rng(channels)
    x = samples(dtype, channels, rng)
    wavfile.write(tmp_path / "plain.wav", 8000, x[:, 0] if channels == 1 else x)
    tag, bits = (3 if np.dtype(dtype).kind == "f" else 1), 8 * np.dtype(dtype).itemsize
    (tmp_path / "ext.wav").write_bytes(wav_bytes(tag, channels, bits, x.tobytes(), extensible=True))
    for name in ("plain.wav", "ext.wav"):
        rate, got = read_wav(tmp_path / name)
        want_rate, want = wavfile.read(tmp_path / name)
        assert rate == want_rate == 8000
        assert got.dtype == np.float64 and np.array_equal(got, scaled(want)), name


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("extensible", [False, True])
def test_24_bit_reads_equal_scipy(tmp_path, channels, extensible):
    x = np.random.default_rng(channels).integers(-(2**23), 2**23, (700, channels))
    raw = x.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    path = tmp_path / "x.wav"
    path.write_bytes(wav_bytes(1, channels, 24, raw, extensible))
    got = read_wav(path)[1]
    assert np.array_equal(got, scaled(wavfile.read(path)[1]))
    assert np.array_equal(got, x.T / 2.0**23)


def test_a_cut_or_unsupported_wav_exits_2_naming_its_path(tmp_path, capsys):
    write_wav(tmp_path / "good.wav", 8000, 0.1 * np.random.default_rng(0).standard_normal((2, 4000)))
    good = (tmp_path / "good.wav").read_bytes()
    pcm = np.arange(8, dtype="<i2").tobytes()
    bad = {f"cut{n}": good[:n] for n in (0, 10, 30, 50, 62, 1001)} | {
        "text": b"not a wav file at all",
        "rifx": b"RIFX" + good[4:],
        "pcm64": wav_bytes(1, 1, 64, pcm),
        "float16": wav_bytes(3, 1, 16, pcm),
        "alaw": wav_bytes(6, 1, 8, pcm),
        "pcm12": wav_bytes(1, 1, 12, pcm),
        "no_fmt": b"RIFF" + struct.pack("<I", 12 + len(pcm)) + b"WAVEdata" + struct.pack("<I", len(pcm)) + pcm,
        "odd_guid": wav_bytes(1, 1, 16, pcm, extensible=True).replace(b"\x00\x38\x9b\x71", b"\x00\x38\x9b\x72"),
        "partial_frame": wav_bytes(1, 2, 16, pcm[:6]),
        "short_fmt": b"RIFF" + struct.pack("<I", 28 + len(pcm)) + b"WAVEfmt " + struct.pack("<IHHI", 8, 1, 1, 8000)
        + b"data" + struct.pack("<I", len(pcm)) + pcm,
    }
    for name, data in bad.items():
        path = tmp_path / f"{name}.wav"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=str(path)):
            read_wav(path)
        capsys.readouterr()
        assert main(["separate", str(path), "--out", str(tmp_path / "out")]) == 2, name
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err, (name, err)
        if name == "short_fmt":
            assert err.endswith(f"{path}: WAV fmt chunk is too short (8 of at least 16 bytes)\n"), err
    assert not (tmp_path / "out").exists()
