"""Objective metrics: constructions with known answers, then invariances."""

import numpy as np
import pytest

from drbss import (
    align_permutation,
    cepstral_distance,
    evaluate,
    si_sdr,
    si_sir,
)
from drbss import metrics
from drbss.metrics import DB_CAP, hann_window, mean_delta_si_sdr, mixture_baseline

FS = 8000


def orthogonalize(noise, ref):
    out = noise - (np.dot(noise, ref) / np.dot(ref, ref)) * ref
    assert abs(np.dot(out, ref)) < 1e-9 * np.linalg.norm(out) * np.linalg.norm(ref)
    return out


def test_si_sdr_twenty_db_construction():
    """Reference plus orthogonal noise at 1/100 of its power reads 20 dB."""
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(4000)
    noise = orthogonalize(rng.standard_normal(4000), ref)
    noise *= np.sqrt(np.dot(ref, ref) / (100.0 * np.dot(noise, noise)))
    assert abs(si_sdr(ref, ref + noise) - 20.0) <= 1e-6


def test_si_sdr_naive_formula_oracle():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal(500)
    est = rng.standard_normal(500)
    alpha = np.dot(est, ref) / np.dot(ref, ref)
    want = 10 * np.log10(np.sum((alpha * ref) ** 2) / np.sum((est - alpha * ref) ** 2))
    assert abs(si_sdr(ref, est) - want) <= 1e-10


def test_si_sdr_scale_invariance():
    rng = np.random.default_rng(2)
    ref = rng.standard_normal(1000)
    est = ref + 0.1 * rng.standard_normal(1000)
    base = si_sdr(ref, est)
    for gain in (0.01, 3.7, -2.0):
        assert abs(si_sdr(ref, gain * est) - base) <= 1e-10


def test_si_sdr_perfect_match_hits_the_cap():
    ref = np.sin(np.linspace(0, 20, 1500))
    assert si_sdr(ref, 3.7 * ref) == DB_CAP


def test_si_sdr_error_contracts():
    with pytest.raises(ValueError):
        si_sdr(np.zeros(100), np.ones(100))
    with pytest.raises(ValueError):
        si_sdr(np.ones(100), np.ones(99))
    with pytest.raises(ValueError):
        si_sdr(np.array([]), np.array([]))


def test_si_sdr_of_an_estimate_orthogonal_to_its_reference_is_the_negative_cap():
    ref = np.tile([1.0, 0.0], 500)
    assert si_sdr(ref, np.roll(ref, 1)) == -DB_CAP


def test_si_sir_error_contracts():
    refs = np.random.default_rng(14).standard_normal((2, 300))
    with pytest.raises(ValueError, match="^references must be"):
        si_sir(refs, refs[0, :299], 0)
    with pytest.raises(ValueError, match="^references must be"):
        si_sir(refs[0], refs[0], 0)
    for index in (-1, 2):
        with pytest.raises(ValueError, match="^target_index out of range$"):
            si_sir(refs, refs[0], index)


def test_mixture_baseline_takes_a_one_channel_mixture():
    rng = np.random.default_rng(15)
    ref = rng.standard_normal((1, 2000))
    mixture = ref[0] + 0.1 * rng.standard_normal(2000)
    aligned, sdr = mixture_baseline(ref, mixture)
    assert np.array_equal(aligned, mixture[None, :])
    assert sdr == [si_sdr(ref[0], mixture)]


def test_si_sir_orthonormal_oracle():
    """est = 2 ref0 + 0.5 ref1 gives exactly 10 log10(16) for target 0."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal(2000)
    b = orthogonalize(rng.standard_normal(2000), a)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    refs = np.stack([a, b])
    est = 2.0 * a + 0.5 * b
    assert abs(si_sir(refs, est, 0) - 10 * np.log10(16.0)) <= 1e-6
    assert abs(si_sir(refs, est, 1) - 10 * np.log10(1 / 16.0)) <= 1e-6


def test_si_sir_ignores_residual_noise():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(2000)
    b = orthogonalize(rng.standard_normal(2000), a)
    refs = np.stack([a, b])
    noise = orthogonalize(orthogonalize(rng.standard_normal(2000), a), b)
    with_noise = si_sir(refs, 2.0 * a + 0.5 * b + noise, 0)
    without = si_sir(refs, 2.0 * a + 0.5 * b, 0)
    assert abs(with_noise - without) <= 1e-6


def test_si_sir_rank_deficient_references():
    a = np.random.default_rng(5).standard_normal(500)
    refs = np.stack([a, 2.0 * a])
    with pytest.raises(ValueError):
        si_sir(refs, a, 0)


def test_cepstral_distance_self_is_zero():
    x = np.random.default_rng(6).standard_normal(4000)
    assert cepstral_distance(x, x, FS) == 0.0


def test_cepstral_distance_gain_invariance():
    rng = np.random.default_rng(7)
    ref = rng.standard_normal(4000)
    est = ref + 0.05 * rng.standard_normal(4000)
    base = cepstral_distance(ref, est, FS)
    assert base > 0.0
    assert abs(cepstral_distance(ref, 5.0 * est, FS) - base) >= 0.0  # stays defined
    # scaling the estimate only shifts the zeroth coefficient, which is excluded
    assert abs(cepstral_distance(ref, 5.0 * est, FS) - base) <= 1e-10


def test_cepstral_distance_second_implementation():
    """Frame-by-frame reference implementation agrees to 1e-8."""
    rng = np.random.default_rng(8)
    ref = rng.standard_normal(3000)
    est = rng.standard_normal(3000)
    got = cepstral_distance(ref, est, FS)

    frame_len = int(round(0.032 * FS))
    hop = frame_len // 2
    window = hann_window(frame_len)

    def cepstrum(frame):
        spectrum = np.abs(np.fft.rfft(frame * window))
        return np.fft.irfft(np.log(np.maximum(spectrum, 1e-12)), n=frame_len)

    distances = []
    energies = []
    frames = (ref.size - frame_len) // hop + 1
    for t in range(frames):
        seg = slice(t * hop, t * hop + frame_len)
        energies.append(np.sum(ref[seg] ** 2))
        d = cepstrum(ref[seg])[1:25] - cepstrum(est[seg])[1:25]
        distances.append((10.0 / np.log(10.0)) * np.sqrt(2.0 * np.sum(d**2)))
    energies = np.asarray(energies)
    active = energies >= energies.max() * 10 ** (-4.0)
    want = float(np.mean(np.asarray(distances)[active]))
    assert abs(got - want) <= 1e-8


def test_cepstral_distance_errors():
    with pytest.raises(ValueError):
        cepstral_distance(np.zeros(4000), np.ones(4000), FS)
    with pytest.raises(ValueError):
        cepstral_distance(np.ones(10), np.ones(10), FS)  # shorter than a frame


@pytest.mark.parametrize("rate, frame_len", [(40, 1), (62, 2), (765, 24)])
def test_cepstral_distance_rejects_frames_shorter_than_its_coefficients(rate, frame_len):
    """Below 47 Hz the hop was zero (``slice step cannot be zero``); up to 765 Hz a frame
    gave fewer than 24 coefficients, and at 62 Hz a noisy estimate scored 0.0."""
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(4 * rate)
    with pytest.raises(ValueError, match=f"at {rate} Hz the 32 ms frame length {frame_len} is too short"):
        cepstral_distance(ref, ref + rng.standard_normal(ref.size), rate)
    assert cepstral_distance(ref, ref, 766) == 0.0  # 25 samples: the shortest frame that fits


def test_align_permutation_recovers_shuffle():
    rng = np.random.default_rng(9)
    refs = rng.standard_normal((4, 3000))
    shuffle = (2, 0, 3, 1)
    ests = np.stack([refs[list(shuffle).index(i)] for i in range(4)])
    # ests[j] == refs[i] where shuffle[i] = j, so the alignment is shuffle
    perm = align_permutation(refs, ests)
    assert perm == shuffle
    for i in range(4):
        assert np.array_equal(ests[perm[i]], refs[i])


def test_align_permutation_single_source():
    x = np.random.default_rng(10).standard_normal((1, 100))
    assert align_permutation(x, x) == (0,)


def test_align_permutation_tie_break_is_lexicographic():
    x = np.random.default_rng(11).standard_normal(200)
    refs = np.stack([x, x])
    assert align_permutation(refs, refs) == (0, 1)


def test_align_permutation_nan_scores_keep_the_identity():
    refs = np.random.default_rng(12).standard_normal((3, 200))
    assert align_permutation(refs, np.full((3, 200), np.nan)) == (0, 1, 2)


def test_align_permutation_shape_mismatch():
    with pytest.raises(ValueError):
        align_permutation(np.zeros((2, 10)), np.zeros((3, 10)))


def test_evaluate_mixture_against_itself_has_zero_deltas():
    """Scoring the mixture as the estimate zeroes every delta exactly."""
    rng = np.random.default_rng(12)
    refs = rng.standard_normal((2, 4000))
    mixture = np.stack([refs[0] + 0.5 * refs[1], refs[1] - 0.25 * refs[0]])
    report = evaluate(refs, mixture, mixture, FS)
    assert report.delta_si_sdr == [0.0, 0.0]
    assert report.delta_si_sir == [0.0, 0.0]


def test_evaluate_improvement_is_positive_for_cleaner_estimates():
    rng = np.random.default_rng(13)
    refs = rng.standard_normal((2, 4000))
    mixture = np.stack([refs[0] + refs[1], refs[0] - refs[1]])
    ests = refs + 0.01 * rng.standard_normal((2, 4000))
    report = evaluate(refs, ests, mixture, FS)
    assert min(report.delta_si_sdr) > 10.0
    assert report.permutation == (0, 1)
    assert report.mean_delta_si_sdr == pytest.approx(np.mean(report.delta_si_sdr))
    # the SI-SDR-only score takes the same alignment path, bit for bit
    _, baseline = mixture_baseline(refs, mixture)
    assert mean_delta_si_sdr(refs, ests, baseline) == report.mean_delta_si_sdr
    assert mean_delta_si_sdr(refs, ests[::-1], baseline) == report.mean_delta_si_sdr


def test_evaluate_scores_each_pair_once(monkeypatch):
    """Alignment scores every (reference, signal) pair once, and the report
    reuses the chosen pairs' scores: the same calls, so the same bits."""
    rng = np.random.default_rng(14)
    refs = rng.standard_normal((3, 4000))
    mixture = np.stack([refs[0] + 0.5 * refs[1], refs[1] - 0.25 * refs[2], refs[2] + 0.3 * refs[0]])
    ests = refs[[2, 0, 1]] + 0.1 * rng.standard_normal((3, 4000))
    report = evaluate(refs, ests, mixture, FS)
    assert report.permutation == (1, 2, 0)
    assert report.si_sdr == [si_sdr(refs[i], ests[j]) for i, j in enumerate(report.permutation)]
    base = [si_sdr(refs[i], mixture[i]) for i in range(3)]
    assert report.delta_si_sdr == [s - b for s, b in zip(report.si_sdr, base)]

    calls = []

    def counted(reference, estimate):
        calls.append(1)
        return si_sdr(reference, estimate)

    monkeypatch.setattr(metrics, "si_sdr", counted)
    assert evaluate(refs, ests, mixture, FS) == report
    assert len(calls) == 2 * 3 * 3
    calls.clear()
    _, baseline = mixture_baseline(refs, mixture)
    assert len(calls) == 3 * 3
    assert mean_delta_si_sdr(refs, ests, baseline) == report.mean_delta_si_sdr
    assert len(calls) == 2 * 3 * 3
