"""Acceptance checks: one test per shipped guarantee, at its stated tolerance.

Each test is self-contained and seeded. Together they pin transform
invertibility, objective monotonicity, the structural reduction of the
unified filter to its separation-only counterpart, the equivalence of the
block dereverberation update with classic linear-prediction fitting, the
solve-count laws, steering-gain form equivalence, final-cost parity,
separation-quality ordering on synthetic rooms, stationarity at
convergence, metric oracles, end-to-end pipeline determinism, and the
stability of the solve-free sequential update under a one-ulp rescale.
"""

import csv
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import (
    DESK_FRAME,
    DESK_HOP,
    DESK_SEEDS,
    DESK_TAPS,
    FS,
    ITERATIVE_VARIANTS,
    TAPPED_VARIANTS,
    desk_mixture,
    desk_spectrogram,
    objective,
    stack_rows,
    zero_tap_stack,
)
from drbss import (
    AlgorithmVariant,
    ExtendedDemixer,
    SolveCounter,
    StftConfig,
    SyntheticRoomConfig,
    TapConfig,
    align_permutation,
    analyze,
    build_stacked,
    cepstral_distance,
    evaluate,
    init_model,
    make_sources,
    model_term,
    nmf,
    nmf_update,
    run,
    si_sdr,
    split_filter,
    synthesize,
    variance,
    wpe_filter_update,
)
from drbss.cli import RunConfig, cmd_separate, cmd_simulate
from drbss.ilrma_t import _joint_tap_update, ilrma_t_iss_seq_iteration
from drbss.separation import iss_coefficients, weighted_cov


def test_criterion_01_stft_perfect_reconstruction():
    """Round trip of a random 3-channel 2 s signal, relative L2 <= 1e-10."""
    rng = np.random.default_rng(11)
    signal = rng.standard_normal((3, 32000))
    spec = analyze(signal, StftConfig(1024, 256, 16000))
    rebuilt = synthesize(spec)
    rel = np.linalg.norm(rebuilt - signal) / np.linalg.norm(signal)
    assert rel <= 1e-10, f"relative reconstruction error {rel:.3e}"


def test_criterion_02_cost_monotonicity(desk_histories):
    """All five iterative variants never increase the objective.

    10 seeded 2x2 mixtures, 100 iterations each, tolerance 1e-8 relative
    per step.
    """
    for variant in ITERATIVE_VARIANTS:
        for seed, costs in zip(DESK_SEEDS, desk_histories[variant]):
            rises = np.diff(costs) - 1e-8 * np.abs(costs[:-1])
            worst = float(rises.max())
            assert worst <= 0.0, (
                f"{variant.value} seed {seed}: objective rises by {worst:.3e}"
            )


def test_criterion_03_zero_tap_reduction_is_bit_identical():
    """With no prediction taps each unified variant equals its baseline.

    20 iterations from the same seed: outputs, demixers, scales, and the
    full cost trajectory must match bit for bit.
    """
    pairs = [
        (AlgorithmVariant.ILRMA_T_IP, AlgorithmVariant.ILRMA_IP),
        (AlgorithmVariant.ILRMA_T_ISS_SEQ, AlgorithmVariant.ILRMA_ISS),
        (AlgorithmVariant.ILRMA_T_ISS_JOINT, AlgorithmVariant.ILRMA_ISS),
    ]
    spec = desk_spectrogram(4)
    no_taps = TapConfig(0, 2)
    for tapped, plain in pairs:
        a = run(tapped, spec, iterations=20, taps=no_taps, n_bases=2, seed=4)
        b = run(plain, spec, iterations=20, taps=no_taps, n_bases=2, seed=4)
        label = f"{tapped.value} vs {plain.value}"
        assert np.array_equal(a.outputs.data, b.outputs.data), label
        assert np.array_equal(a.demixer.top, b.demixer.top), label
        assert np.array_equal(a.scales, b.scales), label
        assert a.trace.costs == b.trace.costs, label


def _one_source_tap_fits(seed):
    """Single source, 3 taps, frozen variances: the prediction filter and the coefficients
    that the block tap update from an identity separation block implies."""
    taps = TapConfig(3, 2)
    res = desk_mixture(seed, n_sources=1, n_samples=6000, rt60=0.2)
    spec = analyze(res.mixture, StftConfig(256, 128, FS))
    sx = build_stacked(spec, taps)
    n_bins, _, n_frames = spec.data.shape
    rvar = np.random.default_rng(seed + 77).uniform(
        0.5, 2.0, (1, n_bins, n_frames)
    ).transpose(1, 0, 2)  # (F, N, T)

    predicted = wpe_filter_update(rvar[:, 0], sx)

    dm = ExtendedDemixer.identity(n_bins, 1, taps)
    outputs = spec.data.copy()
    _joint_tap_update(dm, sx, 1.0 / rvar, outputs)
    _, implied = split_filter(dm)
    return predicted, implied


def test_criterion_04_block_tap_update_matches_prediction_filter():
    """Single source, 3 taps, frozen variances: both fits agree to 1e-8.

    The block tap update of the unified filter and the classic weighted
    linear-prediction solve answer the same normal equations, so their
    coefficients must coincide to solver precision on every seed.
    """
    worst = 0.0
    for seed in range(5):
        predicted, implied = _one_source_tap_fits(seed)
        worst = max(worst, float(np.abs(implied - predicted).max()))
    assert worst <= 1e-8, f"max coefficient mismatch {worst:.3e}"


def test_block_tap_update_is_the_prediction_filter_bit_for_bit():
    """Criterion 4's instances: with one source both fits run one weighted normal-equation
    kernel on the same operands, so the implied filter equals the prediction filter exactly."""
    for seed in range(5):
        predicted, implied = _one_source_tap_fits(seed)
        assert np.array_equal(implied, predicted), f"seed {seed}"


def test_criterion_05_solve_count_laws():
    """Solves per iteration per bin: 2N projection, N block, 0 steering, 1 prediction."""
    res = desk_mixture(1, n_sources=3, n_samples=8000)
    spec = analyze(res.mixture, StftConfig(256, 128, FS))
    n_bins = spec.data.shape[0]
    iterations = 4
    laws = {
        AlgorithmVariant.ILRMA_T_IP: 2 * 3,
        AlgorithmVariant.ILRMA_T_ISS_JOINT: 3,
        AlgorithmVariant.ILRMA_T_ISS_SEQ: 0,
        AlgorithmVariant.WPE: 1,
    }
    for variant, per_bin in laws.items():
        counter = SolveCounter()
        run(
            variant,
            spec,
            iterations=iterations,
            taps=TapConfig(3, 2),
            n_bases=2,
            seed=1,
            counter=counter,
        )
        expected = per_bin * iterations * n_bins
        assert counter.iteration_solves == expected, (
            f"{variant.value}: {counter.iteration_solves} solves, expected {expected}"
        )


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_criterion_06_steering_gain_forms_agree(case_seed):
    """Gains from live outputs equal gains from weighted covariances, 1e-10."""
    rng = np.random.default_rng(case_seed)
    n_bins, n_src, n_frames = 4, 2, 30
    x = rng.standard_normal((n_bins, n_src, n_frames)) + 1j * rng.standard_normal(
        (n_bins, n_src, n_frames)
    )
    variances = rng.uniform(0.2, 3.0, (n_src, n_bins, n_frames)).transpose(1, 0, 2)  # (F, N, T)
    w = rng.standard_normal((n_bins, n_src, n_src)) + 1j * rng.standard_normal(
        (n_bins, n_src, n_src)
    )
    w += 2.0 * np.eye(n_src)
    outputs = w @ x
    covs = weighted_cov(zero_tap_stack(x), 1.0 / variances)
    for pivot in range(n_src):
        got = iss_coefficients(outputs, 1.0 / variances, pivot)
        want = np.empty_like(got)
        for f in range(n_bins):
            for m in range(n_src):
                g = covs[f, m]
                num = w[f, m] @ g @ w[f, pivot].conj()
                den = w[f, pivot] @ g @ w[f, pivot].conj()
                if m == pivot:
                    want[f, m] = 1.0 - 1.0 / np.sqrt(den.real)
                else:
                    want[f, m] = num / den
        assert np.abs(got - want).max() <= 1e-10


def test_criterion_07_final_cost_parity(desk_histories):
    """Steering variants land within 2% of the projection variant's cost.

    Compared per seed after 100 iterations on the same 10 mixtures.
    """
    ip_finals = [h[-1] for h in desk_histories[AlgorithmVariant.ILRMA_T_IP]]
    for variant in (
        AlgorithmVariant.ILRMA_T_ISS_SEQ,
        AlgorithmVariant.ILRMA_T_ISS_JOINT,
    ):
        finals = [h[-1] for h in desk_histories[variant]]
        for seed, got, ref in zip(DESK_SEEDS, finals, ip_finals):
            rel = abs(got - ref) / abs(ref)
            assert rel <= 0.02, f"{variant.value} seed {seed}: {rel:.4f} relative gap"


def test_criterion_08_separation_quality_ordering():
    """Tapped variants beat their separation-only baselines on reverberant rooms.

    Mean SI-SDR improvement over 10 seeded 2x2 mixtures: every tapped
    variant at least 1 dB above every baseline and at least +4 dB
    absolute, completing within a 10 minute budget.
    """
    t_start = time.perf_counter()
    stft = StftConfig(256, 64, FS)
    means = {}
    for variant in ITERATIVE_VARIANTS:
        deltas = []
        for seed in DESK_SEEDS:
            res = desk_mixture(
                seed, n_samples=20000, rt60=0.3, snr=1e4, tail_gain=0.25
            )
            spec = analyze(res.mixture, stft)
            out = run(
                variant, spec, iterations=100, taps=DESK_TAPS, n_bases=2, seed=seed
            )
            estimates = synthesize(out.outputs)
            refs = res.direct_images[:, 0, :]
            report = evaluate(refs, estimates, res.mixture, FS)
            deltas.append(report.mean_delta_si_sdr)
        means[variant] = float(np.mean(deltas))
    elapsed = time.perf_counter() - t_start

    tapped = [means[v] for v in TAPPED_VARIANTS]
    plain = [
        means[AlgorithmVariant.ILRMA_IP],
        means[AlgorithmVariant.ILRMA_ISS],
    ]
    summary = ", ".join(f"{v.value}: {means[v]:+.2f} dB" for v in ITERATIVE_VARIANTS)
    assert min(tapped) >= max(plain) + 1.0, summary
    assert min(tapped) >= 4.0, summary
    assert elapsed <= 600.0, f"took {elapsed:.0f}s"


def test_criterion_09_stationarity_at_convergence(monkeypatch):
    """No descent direction at a converged sequential-steering iterate.

    Central-difference directional derivatives of the objective along 20
    random unit perturbations of the free rows (step 1e-5) must all be
    >= -1e-3.
    """
    res = desk_mixture(0, n_samples=4000, rt60=0.1, snr=10)
    spec = analyze(res.mixture, StftConfig(128, 64, FS))
    taps = TapConfig(2, 2)
    sx = build_stacked(spec, taps)
    n_bins, n_src, n_frames = spec.data.shape
    dm = ExtendedDemixer.identity(n_bins, n_src, taps)
    model = init_model(n_src, 2, n_bins, n_frames, seed=0)
    # raise the variance floor so the model cannot chase near-silent
    # cells into a region where finite differences lose precision
    monkeypatch.setattr(nmf, "VARIANCE_FLOOR", 1e-2)
    outputs = spec.data.copy()
    inv = np.empty(outputs.shape)
    model_term(model, outputs, inv)
    for _ in range(150):
        ilrma_t_iss_seq_iteration(dm, sx, inv, outputs)
        nmf_update(model, outputs, inv)
    for _ in range(1000):
        ilrma_t_iss_seq_iteration(dm, sx, inv, outputs)
    variances = variance(model)

    rng = np.random.default_rng(2024)
    step = 1e-5
    tilde = stack_rows(sx)
    worst = np.inf
    for _ in range(20):
        direction = rng.standard_normal(
            (n_bins, n_src, sx.dim)
        ) + 1j * rng.standard_normal((n_bins, n_src, sx.dim))
        direction /= np.linalg.norm(direction)
        two_sided = []
        for sign in (1.0, -1.0):
            moved = ExtendedDemixer(dm.top + sign * step * direction)
            two_sided.append(objective(moved, moved.top @ tilde, variances))
        worst = min(worst, (two_sided[0] - two_sided[1]) / (2 * step))
    assert worst >= -1e-3, f"descent direction found: {worst:.3e}"


def test_criterion_10_metric_oracles():
    """Closed-form metric values: 20 dB construction, zero self-distance, shuffle recovery."""
    rng = np.random.default_rng(5)
    ref = rng.standard_normal(8000)
    noise = rng.standard_normal(8000)
    noise -= ref * (ref @ noise) / (ref @ ref)
    noise *= np.linalg.norm(ref) / (10.0 * np.linalg.norm(noise))
    assert abs(si_sdr(ref, ref + noise) - 20.0) <= 1e-6

    assert cepstral_distance(ref, ref, FS) == 0.0

    refs = make_sources(4, 8000, FS, seed=9)
    shuffle = (2, 0, 3, 1)
    estimates = refs[list(shuffle)]
    perm = align_permutation(refs, estimates)
    assert tuple(perm) == tuple(shuffle.index(i) for i in range(4))
    for i in range(4):
        assert np.array_equal(estimates[perm[i]], refs[i])


def test_criterion_11_pipeline_determinism(tmp_path):
    """Two separations with one seed and config produce identical artifacts.

    Estimate waveforms and the run report must match byte for byte; the
    trace must match on every deterministic column (iteration, cost,
    cumulative solves), leaving only wall-clock timing free to vary.
    """
    room = SyntheticRoomConfig(2, sample_rate=FS, rt60=0.15, snr=1e4, seed=3)
    sim = tmp_path / "sim"
    cmd_simulate(room, sim, duration=1.5)
    cfg = RunConfig(
        variant="ilrma-t-iss-seq",
        iterations=10,
        taps=3,
        delay=2,
        frame_len=256,
        hop=128,
        seed=0,
    )
    outs = []
    for name in ("run-a", "run-b"):
        out = tmp_path / name
        cmd_separate(sim / "mixture.wav", cfg, out)
        outs.append(out)
    first, second = outs

    for wav in sorted((first / "estimates").glob("*.wav")):
        twin = second / "estimates" / wav.name
        assert wav.read_bytes() == twin.read_bytes(), wav.name
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()

    with open(first / "trace.csv") as fh:
        rows_a = list(csv.DictReader(fh))
    with open(second / "trace.csv") as fh:
        rows_b = list(csv.DictReader(fh))
    assert len(rows_a) == len(rows_b) == cfg.iterations + 1
    for row_a, row_b in zip(rows_a, rows_b):
        for column in ("iteration", "cost", "cumulative_solves"):
            assert row_a[column] == row_b[column]


def test_criterion_12_iss_seq_is_stable_under_a_one_ulp_rescale():
    """Scaling the input by 1 + 2**-52 leaves exact ΔSI-SDR unchanged; ``ilrma-t-iss-seq``,
    which inverts no matrix, moves its final cost and ΔSI-SDR by <= 1e-12 relative.

    Two seeded desk rooms per N in {2, 3}, 30 iterations. Measured: at most 2.1e-16 in cost and
    3.4e-15 in ΔSI-SDR, where ``ilrma-t-ip`` at N=3 moves by 3.1e-11 and 2.2e-8.
    """
    for n_sources in (2, 3):
        for seed in (0, 1):
            res = desk_mixture(seed, n_sources=n_sources)
            final = []
            for scale in (1.0, 1.0 + 2.0**-52):
                x = res.mixture * scale
                spec = analyze(x, StftConfig(DESK_FRAME, DESK_HOP, FS))
                out = run(AlgorithmVariant.ILRMA_T_ISS_SEQ, spec, iterations=30, taps=DESK_TAPS)
                report = evaluate(res.direct_images[:, 0, :], synthesize(out.outputs), x, FS)
                final.append((out.trace.costs[-1], report.mean_delta_si_sdr))
            (cost_a, sdr_a), (cost_b, sdr_b) = final
            assert abs(cost_b - cost_a) <= 1e-12 * abs(cost_a), (n_sources, seed, cost_a, cost_b)
            assert abs(sdr_b - sdr_a) <= 1e-12 * abs(sdr_a), (n_sources, seed, sdr_a, sdr_b)
