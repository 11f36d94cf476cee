"""Synthetic rooms: impulse responses, mixing bookkeeping, sources."""

import tracemalloc

import numpy as np
import pytest

from drbss import (
    AlgorithmVariant,
    StftConfig,
    SyntheticRoomConfig,
    analyze,
    evaluate,
    make_rir,
    make_sources,
    mix,
    run,
    synthesize,
)

FS = 8000


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticRoomConfig(0)
    with pytest.raises(ValueError):
        SyntheticRoomConfig(5)
    with pytest.raises(ValueError):
        SyntheticRoomConfig(2, rt60=-0.1)
    with pytest.raises(ValueError):
        SyntheticRoomConfig(2, snr=0.0)
    cfg = SyntheticRoomConfig(3, snr=np.inf)
    assert cfg.n_mics == 3


def test_rir_is_pure_spike_without_reverb():
    cfg = SyntheticRoomConfig(2, sample_rate=FS, rt60=0.0, seed=5)
    for i in range(2):
        for j in range(2):
            h = make_rir(cfg, i, j)
            nz = np.flatnonzero(h)
            assert nz.size == 1
            delay = nz[0]
            assert 0 <= delay <= cfg.max_direct_delay
            if j == 0:
                assert h[delay] == 1.0


def test_rir_determinism():
    cfg = SyntheticRoomConfig(2, sample_rate=FS, rt60=0.25, seed=9)
    a = make_rir(cfg, 1, 0)
    b = make_rir(cfg, 1, 0)
    assert np.array_equal(a, b)
    c = make_rir(SyntheticRoomConfig(2, sample_rate=FS, rt60=0.25, seed=10), 1, 0)
    assert not np.array_equal(a, c)


def test_rir_tail_energy_decays():
    cfg = SyntheticRoomConfig(1, sample_rate=FS, rt60=0.2, seed=0)
    h = make_rir(cfg, 0, 0)
    assert h.size == int(round(0.2 * FS))
    quarters = np.array_split(h[cfg.max_direct_delay + 1 :] ** 2, 4)
    energies = [q.sum() for q in quarters]
    assert energies[0] > energies[1] > energies[2] > energies[3]
    # the tail prescribes 60 dB of decay across rt60 seconds
    envelope_end = np.exp(-3.0 * np.log(10.0))
    assert abs(h[-200:]).max() <= 10 * envelope_end


def test_direct_overrides_and_forced_reference_gain():
    cfg = SyntheticRoomConfig(
        2,
        sample_rate=FS,
        rt60=0.0,
        seed=0,
        direct_delays=((3, 1), (0, 2)),
        direct_gains=((1.0, 0.4), (1.0, 1.6)),
    )
    h00 = make_rir(cfg, 0, 0)
    h01 = make_rir(cfg, 0, 1)
    h11 = make_rir(cfg, 1, 1)
    assert h00[3] == 1.0
    assert h01[1] == 0.4
    assert h11[2] == 1.6
    # mic 0 is the reference: an overridden gain there is an error, not ignored
    with pytest.raises(ValueError, match=r"direct_gains\[source\]\[0\] must be 1.0"):
        SyntheticRoomConfig(2, direct_gains=((0.7, 0.4), (1.0, 1.6)))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("direct_delays", ((0,),), "direct_delays must be 2 x 2"),
        ("direct_delays", ((0, 1), (2,)), "direct_delays must be 2 x 2"),
        ("direct_delays", 3, "direct_delays must be 2 x 2"),
        ("direct_delays", ((0, -3), (1, 2)), "direct_delays must be non-negative ints"),
        ("direct_delays", ((0, 1.5), (1, 2)), "direct_delays must be non-negative ints"),
        ("direct_gains", ((1.0,), (1.0,)), "direct_gains must be 2 x 2"),
        ("direct_gains", ((1.0, float("nan")), (1.0, 1.0)), "direct_gains must be finite numbers"),
        ("direct_gains", ((1.0, "x"), (1.0, 1.0)), "direct_gains must be finite numbers"),
    ],
)
def test_direct_path_overrides_are_validated(key, value, message):
    with pytest.raises(ValueError, match=message):
        SyntheticRoomConfig(2, **{key: value})


def test_direct_path_overrides_become_tuples():
    cfg = SyntheticRoomConfig(2, direct_delays=[[0, 3], [5, 1]], direct_gains=[[1.0, 0.5], [1, 2.0]])
    assert cfg.direct_delays == ((0, 3), (5, 1))
    assert cfg.direct_gains == ((1.0, 0.5), (1, 2.0))


@pytest.mark.parametrize(
    "n_samples, overrides, message",
    [
        (4000, {"direct_delays": ((0, 5000), (0, 0))}, r"direct_delays: direct delay 5000 of source 0 at mic 1 .*4000 samples"),
        (4000, {"direct_delays": ((0, 4000), (0, 0))}, r"direct_delays: direct delay 4000 of source 0 at mic 1 .*4000 samples"),
        (8, {}, r"max_direct_delay: direct delay 11 of source 1 at mic 1 .*8 samples"),
    ],
    ids=["given-past-the-end", "given-at-the-end", "drawn"],
)
def test_mix_rejects_a_direct_delay_reaching_the_signal_length(n_samples, overrides, message):
    cfg = SyntheticRoomConfig(2, sample_rate=FS, max_direct_delay=12, **overrides)
    with pytest.raises(ValueError, match=message):
        mix(make_sources(2, n_samples, FS, seed=0), cfg)


def test_mix_accepts_the_longest_direct_delay():
    cfg = SyntheticRoomConfig(2, sample_rate=FS, rt60=0.0, direct_delays=((0, 3999), (0, 0)))
    res = mix(make_sources(2, 4000, FS, seed=0), cfg)
    assert np.flatnonzero(res.direct_images[0, 1]).tolist() == [3999]
    assert res.direct_images[0, 1, 3999] == res.direct_images[0, 0, 0] * make_rir(cfg, 0, 1)[3999]


@pytest.mark.parametrize(
    "n_sources, seed, overrides",
    [
        (2, 0, {}),
        (3, 3, {"max_direct_delay": 40}),
        (4, 7, {"rt60": 0.0}),
        (2, 1, {"direct_delays": ((4, 0), (1, 9))}),
        (2, 2, {"direct_gains": ((1.0, 0.3), (1.0, 1.7))}),
        (3, 5, {"direct_delays": ((0, 2, 6), (3, 0, 1), (8, 8, 0)), "direct_gains": ((1.0, 0.6, 1.2),) * 3}),
    ],
    ids=["seeded-2", "seeded-3", "seeded-4-no-tail", "given-delays", "given-gains", "given-both"],
)
def test_direct_images_use_the_spike_of_each_impulse_response(n_sources, seed, overrides):
    """Every direct image is its source delayed and scaled by the (delay, gain) of the spike
    that ``make_rir`` draws from the same stream: ``h[delay] == gain``, nothing before it."""
    cfg = SyntheticRoomConfig(n_sources, sample_rate=FS, seed=seed, **{"rt60": 0.1, **overrides})
    res = mix(make_sources(n_sources, 3000, FS, seed=seed), cfg)
    for i, j in np.ndindex(n_sources, n_sources):
        h = res.impulse_responses[i][j]
        assert np.array_equal(h, make_rir(cfg, i, j))
        delay = int(np.flatnonzero(h)[0])
        gain = h[delay]
        if "direct_delays" in overrides:
            assert delay == overrides["direct_delays"][i][j]
        if "direct_gains" in overrides:
            assert gain == overrides["direct_gains"][i][j]
        image = res.direct_images[i, j]
        assert not image[:delay].any()
        assert np.array_equal(image[delay:], gain * res.sources[i, : 3000 - delay]), (i, j)


def test_mixture_identity_and_unit_image_power():
    sources = make_sources(2, 12000, FS, seed=1)
    cfg = SyntheticRoomConfig(2, sample_rate=FS, rt60=0.2, snr=100.0, seed=1)
    res = mix(sources, cfg)
    assert np.allclose(res.mixture, res.full_images.sum(axis=0) + res.noise, atol=1e-12)
    for i in range(2):
        power = np.mean(res.full_images[i, 0] ** 2)
        assert abs(power - 1.0) <= 1e-10


def test_noise_power_matches_snr():
    sources = make_sources(2, 40000, FS, seed=2)
    cfg = SyntheticRoomConfig(2, sample_rate=FS, rt60=0.1, snr=10.0, seed=2)
    res = mix(sources, cfg)
    want = 2 / 10.0
    got = np.mean(res.noise**2)
    assert abs(got - want) <= 0.05 * want
    silent = mix(sources, SyntheticRoomConfig(2, sample_rate=FS, rt60=0.1, snr=np.inf, seed=2))
    assert np.all(silent.noise == 0.0)


def test_single_source_pure_delay():
    sources = make_sources(1, 5000, FS, seed=3)
    cfg = SyntheticRoomConfig(
        1, sample_rate=FS, rt60=0.0, snr=np.inf, seed=3, direct_delays=((4,),)
    )
    res = mix(sources, cfg)
    assert np.allclose(res.mixture[0, 4:], res.sources[0, :-4], atol=1e-12)
    assert np.abs(res.mixture[0, :4]).max() <= 1e-12


def test_mix_is_invariant_to_source_scale():
    sources = make_sources(2, 8000, FS, seed=4)
    cfg = SyntheticRoomConfig(2, sample_rate=FS, rt60=0.15, snr=50.0, seed=4)
    a = mix(sources, cfg)
    b = mix(3.0 * sources, cfg)
    assert np.allclose(a.mixture, b.mixture, atol=1e-12)


def test_mix_rejects_silent_source():
    sources = make_sources(2, 8000, FS, seed=5)
    sources[1] = 0.0
    cfg = SyntheticRoomConfig(2, sample_rate=FS, rt60=0.1, seed=5)
    with pytest.raises(ValueError):
        mix(sources, cfg)
    with pytest.raises(ValueError):
        mix(sources[0], cfg)  # wrong rank


def test_make_sources_shape_rms_determinism():
    s = make_sources(3, 10000, FS, seed=6)
    assert s.shape == (3, 10000)
    rms = np.sqrt(np.mean(s**2, axis=1))
    assert np.allclose(rms, 1.0, atol=1e-12)
    assert np.array_equal(s, make_sources(3, 10000, FS, seed=6))
    assert not np.array_equal(s, make_sources(3, 10000, FS, seed=7))
    with pytest.raises(ValueError):
        make_sources(0, 100, FS)
    with pytest.raises(ValueError):
        make_sources(1, 0, FS)


def test_make_sources_holds_no_list_of_floats():
    """The resonator reads each band's noise through a memoryview, one Python float at a
    time: a list of a band's 160000 floats alone would be about 5 MB, two outputs' worth.
    The noise is freed once read and the envelope applied in place: at its peak a band holds
    the source's sum, the band, the envelope and its grid beside the output, three outputs' worth."""
    tracemalloc.start()
    try:
        out = make_sources(2, 160000, 16000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.75 * out.nbytes


def test_sources_are_spectrally_distinct():
    s = make_sources(2, 16000, FS, seed=8)
    spectra = np.abs(np.fft.rfft(s, axis=1))
    corr = np.corrcoef(spectra[0], spectra[1])[0, 1]
    assert corr < 0.9


def test_instantaneous_mixture_separates_cleanly():
    """A gain-only 2x2 mixture comes apart by more than 20 dB in 30 sweeps."""
    seed = 3
    sources = make_sources(2, 32000, FS, seed=seed)
    cfg = SyntheticRoomConfig(
        2,
        sample_rate=FS,
        rt60=0.0,
        snr=np.inf,
        seed=seed,
        direct_delays=((0, 0), (0, 0)),
        direct_gains=((1.0, 1.0), (1.0, -1.0)),
    )
    res = mix(sources, cfg)
    spec = analyze(res.mixture, StftConfig(256, 128, FS))
    result = run(AlgorithmVariant.ILRMA_IP, spec, iterations=30, n_bases=2, seed=seed)
    estimates = synthesize(result.outputs)
    report = evaluate(res.direct_images[:, 0, :], estimates, res.mixture, FS)
    assert report.mean_delta_si_sdr >= 20.0
