"""Unified-filter runs: cost, reductions, projection, and bookkeeping."""

import functools
import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from drbss import (
    AlgorithmVariant,
    ExtendedDemixer,
    NumericalError,
    SolveCounter,
    Spectrogram,
    TapConfig,
    build_stacked,
    cost,
    demix,
    ilrma_t_ip_iteration,
    ilrma_t_iss_joint_iteration,
    ilrma_t_iss_seq_iteration,
    init_model,
    model_term,
    nmf_update,
    projection_back,
    run,
    wpe_run,
)
from drbss import ilrma_t, linalg, nmf
from drbss.ilrma_t import _steering_sweep_over_taps
from drbss.separation import iss_coefficients, iss_source_sweep, weighted_cov
from tests.conftest import (
    ITERATIVE_VARIANTS,
    TAPPED_VARIANTS,
    desk_spectrogram,
    normal_equation_instance,
    objective,
    stack_rows,
)

SMALL_TAPS = TapConfig(2, 2)


def small_spec(seed, n_samples=6000, n_sources=2):
    return desk_spectrogram(seed, n_samples=n_samples, n_sources=n_sources, rt60=0.2)


def test_variant_names_round_trip():
    for variant in AlgorithmVariant:
        assert AlgorithmVariant.from_name(variant.value) is variant
    with pytest.raises(ValueError):
        AlgorithmVariant.from_name("ilrma-t-unknown")


def test_cost_identity_filter_unit_variances():
    rng = np.random.default_rng(0)
    outputs = rng.standard_normal((4, 2, 9)) + 1j * rng.standard_normal((4, 2, 9))
    dm = ExtendedDemixer.identity(4, 2, TapConfig(0, 1))
    value = objective(dm, outputs, np.ones((4, 2, 9)))
    assert np.isclose(value, np.sum(np.abs(outputs) ** 2), rtol=1e-12)


def test_cost_row_scaling_oracle():
    """Scaling one separation row by c shifts the cost by a closed form."""
    rng = np.random.default_rng(1)
    n_bins, n_src, n_frames = 3, 2, 11
    outputs = rng.standard_normal((n_bins, n_src, n_frames)) + 1j * rng.standard_normal(
        (n_bins, n_src, n_frames)
    )
    variances = rng.uniform(0.5, 2.0, size=(n_src, n_bins, n_frames)).transpose(1, 0, 2)  # (F, N, T)
    dm = ExtendedDemixer.identity(n_bins, n_src, TapConfig(0, 1))
    base = objective(dm, outputs, variances)
    c = 1.7
    scaled = ExtendedDemixer(dm.top.copy())
    scaled.top[:, 0, :] *= c
    out2 = outputs.copy()
    out2[:, 0, :] *= c
    got = objective(scaled, out2, variances) - base
    row_power = np.sum(np.abs(outputs[:, 0, :]) ** 2 / variances[:, 0])
    want = -2.0 * n_frames * n_bins * np.log(c) + (c**2 - 1.0) * row_power
    assert np.isclose(got, want, rtol=1e-10)


def test_cost_singular_block_raises():
    dm = ExtendedDemixer.identity(3, 2, TapConfig(0, 1))
    dm.top[2, :2, :2] = 0.0
    with pytest.raises(NumericalError, match="frequency bin 2"):
        cost(dm, 4, 0.0)


def test_zero_taps_reduces_to_untapped_counterpart():
    """With no taps the unified variants reproduce their plain versions."""
    pairs = [
        (AlgorithmVariant.ILRMA_T_IP, AlgorithmVariant.ILRMA_IP),
        (AlgorithmVariant.ILRMA_T_ISS_SEQ, AlgorithmVariant.ILRMA_ISS),
        (AlgorithmVariant.ILRMA_T_ISS_JOINT, AlgorithmVariant.ILRMA_ISS),
    ]
    spec = small_spec(0)
    for tapped, plain in pairs:
        a = run(tapped, spec, iterations=5, taps=TapConfig(0, 2), n_bases=2, seed=0)
        b = run(plain, spec, iterations=5, taps=TapConfig(0, 2), n_bases=2, seed=0)
        assert np.array_equal(a.outputs.data, b.outputs.data)
        assert a.trace.costs == b.trace.costs


def test_projection_back_diagonal_oracle():
    # diagonal demixing means source 1 never reaches channel 0, so its
    # first-channel image scale is exactly zero
    outputs = np.ones((2, 2, 3), dtype=complex)
    dm = ExtendedDemixer.identity(2, 2, TapConfig(0, 1))
    dm.top[:, 0, 0] = 2.0
    dm.top[:, 1, 1] = 0.5
    scales = projection_back(dm, outputs)
    assert np.allclose(scales, [[0.5, 0.0], [0.5, 0.0]], atol=1e-14)
    assert np.allclose(outputs[:, 0, :], 0.5, atol=1e-14)
    assert np.allclose(outputs[:, 1, :], 0.0, atol=1e-14)


def test_projection_back_restores_mixture_images():
    """Demixing with the exact inverse then projecting back recovers the
    per-source images at the first channel."""
    rng = np.random.default_rng(2)
    n_bins, n_src, n_frames = 5, 2, 30
    s = rng.standard_normal((n_bins, n_src, n_frames)) + 1j * rng.standard_normal(
        (n_bins, n_src, n_frames)
    )
    a = np.array([[1.0, 0.6], [-0.4, 1.2]], dtype=complex)
    x = np.einsum("mn,fnt->fmt", a, s)
    dm = ExtendedDemixer.identity(n_bins, n_src, TapConfig(0, 1))
    dm.mixing[:] = np.linalg.inv(a)
    outputs = dm.top @ x
    projection_back(dm, outputs)
    for n in range(n_src):
        assert np.allclose(outputs[:, n, :], a[0, n] * s[:, n, :], atol=1e-10)


def test_projection_back_rescales_its_argument_in_place():
    """The bench checkpoint projects a copy of the live outputs of a running job back."""
    spec = small_spec(15)
    result = run(AlgorithmVariant.ILRMA_ISS, spec, iterations=2)
    outputs = result.demixer.top @ spec.data
    before = outputs.copy()
    scales = projection_back(result.demixer, outputs)
    assert np.array_equal(scales, result.scales)
    assert np.array_equal(outputs, before * scales[:, :, None])


def _count_projection_back(monkeypatch):
    """Wrap ``projection_back`` wherever a ``drbss`` module binds it, as the benchmark's tracer
    does; returns the list that collects each call's returned scales."""
    original, calls = projection_back, []

    def counted(dm, outputs):
        scales = original(dm, outputs)
        calls.append(scales)
        return scales

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "drbss":
            for key in [k for k, v in vars(module).items() if v is original]:
                monkeypatch.setitem(vars(module), key, counted)
    return calls


@pytest.mark.parametrize("variant", list(AlgorithmVariant))
def test_run_enters_projection_back_once(monkeypatch, variant):
    """``run`` ends through the module-level ``projection_back``, which the benchmark traces:
    once, with one scale (one solve) per bin and source, and ``RunResult.scales`` as its
    return. It adds no iteration solve. Plain dereverberation and a zero-iteration run never
    enter it."""
    spec, projected = small_spec(16), variant is not AlgorithmVariant.WPE
    calls = _count_projection_back(monkeypatch)
    counter = SolveCounter()
    result = run(variant, spec, iterations=2, taps=SMALL_TAPS, wpe_iterations=1, counter=counter)
    assert len(calls) == projected
    assert counter.iteration_solves == result.trace.cumulative_solves[-1]
    if projected:
        [scales] = calls
        assert scales is result.scales
        assert scales.shape == (spec.n_bins, spec.n_channels)
    run(variant, spec, iterations=0, taps=SMALL_TAPS, wpe_iterations=1, counter=SolveCounter())
    assert len(calls) == projected


@pytest.mark.parametrize("variant", list(AlgorithmVariant))
def test_run_zero_iterations_returns_the_input_or_the_wpe_prepass(variant):
    """With zero iterations the input comes back unchanged, with no solve, except in the two
    cascades: they still run their ``wpe_iterations`` pre-pass and return its output, with
    its solves. No zero-iteration run projects back."""
    spec = small_spec(1)
    counter = SolveCounter()
    result = run(variant, spec, iterations=0, taps=SMALL_TAPS, seed=1, wpe_iterations=3, counter=counter)
    if variant in (AlgorithmVariant.WPE_ILRMA_IP, AlgorithmVariant.WPE_ILRMA_ISS):
        want, solves = wpe_run(spec, SMALL_TAPS, 3).data, 3 * spec.n_bins
    else:
        want, solves = spec.data, 0
    assert np.array_equal(result.outputs.data, want)
    assert counter.iteration_solves == result.trace.cumulative_solves[0] == solves
    assert result.scales is None


def test_run_zero_iterations_is_identity():
    spec = small_spec(1)
    result = run(AlgorithmVariant.ILRMA_T_ISS_SEQ, spec, iterations=0, taps=SMALL_TAPS, seed=1)
    assert np.array_equal(result.outputs.data, spec.data)
    assert result.scales is None
    assert len(result.trace.costs) == 1
    assert result.trace.iterations == 0


def test_run_does_not_mutate_the_input_spectrogram():
    spec = small_spec(2)
    before = spec.data.copy()
    for variant in AlgorithmVariant:
        run(variant, spec, iterations=3, taps=SMALL_TAPS, seed=2)
        assert np.array_equal(spec.data, before), variant


def test_run_single_channel_does_not_mutate_input():
    # with one channel, a reshaped view of the input is easily mistaken for a copy
    spec = small_spec(3, n_sources=1)
    before = spec.data.copy()
    for variant in AlgorithmVariant:
        run(variant, spec, iterations=2, taps=SMALL_TAPS, seed=3)
        assert np.array_equal(spec.data, before), variant


def test_run_deterministic():
    spec = small_spec(4)
    a = run(AlgorithmVariant.ILRMA_T_IP, spec, iterations=4, taps=SMALL_TAPS, seed=4)
    b = run(AlgorithmVariant.ILRMA_T_IP, spec, iterations=4, taps=SMALL_TAPS, seed=4)
    assert np.array_equal(a.outputs.data, b.outputs.data)
    assert a.trace.costs == b.trace.costs
    assert a.trace.cumulative_solves == b.trace.cumulative_solves


def test_run_trace_shapes_and_monotone_costs():
    spec = small_spec(5)
    result = run(AlgorithmVariant.ILRMA_T_ISS_SEQ, spec, iterations=6, taps=SMALL_TAPS, seed=5)
    costs = np.asarray(result.trace.costs)
    assert len(costs) == 7
    assert len(result.trace.cumulative_solves) == 7
    assert len(result.trace.wall_ms) == 6
    assert np.all(np.diff(costs) <= 1e-8 * np.abs(costs[:-1]))


def test_run_solve_counts_per_variant():
    spec = small_spec(6)
    f = spec.n_bins
    n = spec.n_channels
    iters = 3
    expected = {
        AlgorithmVariant.ILRMA_IP: 2 * n * f * iters,
        AlgorithmVariant.ILRMA_ISS: 0,
        AlgorithmVariant.ILRMA_T_IP: 2 * n * f * iters,
        AlgorithmVariant.ILRMA_T_ISS_JOINT: n * f * iters,
        AlgorithmVariant.ILRMA_T_ISS_SEQ: 0,
    }
    for variant, want in expected.items():
        counter = SolveCounter()
        result = run(variant, spec, iterations=iters, taps=SMALL_TAPS, seed=6, counter=counter)
        assert counter.iteration_solves == result.trace.cumulative_solves[-1] == want, variant
        assert result.scales.shape == (f, n)  # one projection solve per bin, not counted


def test_run_callback_schedule():
    spec = small_spec(7)
    seen = []
    run(
        AlgorithmVariant.ILRMA_ISS,
        spec,
        iterations=6,
        taps=SMALL_TAPS,
        seed=7,
        callback=lambda i, outputs, dm: seen.append(i),
    )
    assert seen == [0, 1, 2, 3, 4, 5, 6]
    seen.clear()
    run(AlgorithmVariant.WPE, spec, iterations=3, taps=SMALL_TAPS, callback=lambda i, z, dm: seen.append(i))
    assert seen == [0, 1, 2, 3]


def test_iss_seq_run_never_builds_the_stacked_tensor():
    """The scalar tap sweep reads delayed rows from one front-padded bin block at a time.

    With taps=8 the (F, D, T) stacked tensor is nine copies of the
    observation; the whole run's traced peak stays below it.
    """
    spec = small_spec(12, n_samples=12000)
    taps = TapConfig(8, 2)
    f, m, t = spec.data.shape
    tensor_bytes = 16 * f * m * (taps.taps + 1) * t
    tracemalloc.start()
    try:
        run(AlgorithmVariant.ILRMA_T_ISS_SEQ, spec, iterations=2, taps=taps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tensor_bytes


def test_a_tapped_run_stores_only_the_free_rows_of_its_demixer():
    """With 12 taps and N=2 the square (F, 26, 26) filter alone would be 1.4 MB at F=129; the
    free (F, 2, 26) rows are 0.1 MB, and the whole run's traced peak stays below 2 MB."""
    spec = desk_spectrogram(0, hop=64, n_samples=3200, rt60=0.2)
    assert spec.data.shape == (129, 2, 53)
    tracemalloc.start()
    try:
        result = run(AlgorithmVariant.ILRMA_T_ISS_SEQ, spec, iterations=3, taps=TapConfig(12, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.demixer.top.shape == (129, 2, 26)
    assert peak < 2.0e6


def test_observation_is_held_once(monkeypatch):
    """``build_stacked`` copies nothing, and a tapped run holds no whole copy of the observation.

    The run holds its outputs (one observation's bytes) and one real (F, N, T) buffer, which
    carries 1/r through the filter step and |y|^2 through the NMF sweep. In small bin blocks
    that keeps its traced peak under three observations, which one front-padded copy of the
    observation would pass.
    """
    monkeypatch.setattr(linalg, "WORKERS", 2)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1 << 14)
    spec = small_spec(12, n_samples=36000)
    taps = TapConfig(5, 2)
    run(AlgorithmVariant.ILRMA_T_ISS_SEQ, spec, iterations=1, taps=taps)  # the pool's thread is started
    tracemalloc.start()
    try:
        sx = build_stacked(spec, taps)
        stacking_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        run(AlgorithmVariant.ILRMA_T_ISS_SEQ, spec, iterations=2, taps=taps)
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sx.lags == (0, 2, 3, 4, 5, 6) and np.shares_memory(sx.spec.data, spec.data)
    assert stacking_peak < 1024  # the object and its lags; one stacked row alone is F * T * 16 bytes
    assert run_peak < 3 * spec.data.nbytes


@pytest.mark.parametrize("variant", [AlgorithmVariant.ILRMA_T_ISS_SEQ, AlgorithmVariant.ILRMA_ISS])
def test_run_holds_one_real_track_beside_its_outputs(monkeypatch, variant):
    """Beside its outputs (one observation's bytes), a run holds the variance model's factors and
    one real (F, N, T) buffer, half an observation at N = M, and no whole variance or power array.
    In 16 KiB blocks on two workers its traced peak stays under two observations; with whole
    variances and power beside the inverse it would not (2.29 and 2.23 observations)."""
    monkeypatch.setattr(linalg, "WORKERS", 2)
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1 << 14)
    spec = small_spec(12, n_samples=36000)
    taps = TapConfig(5, 2)
    run(variant, spec, iterations=1, taps=taps)  # the pool's thread is started
    tracemalloc.start()
    try:
        run(variant, spec, iterations=2, taps=taps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.data.shape == (129, 2, 283)
    assert peak < 2 * spec.data.nbytes


def test_run_wpe_variant():
    spec = small_spec(8)
    counter = SolveCounter()
    result = run(AlgorithmVariant.WPE, spec, iterations=4, taps=TapConfig(3, 2), counter=counter)
    assert counter.iteration_solves == 4 * spec.n_bins
    assert len(result.trace.costs) == 5
    assert result.scales is None
    assert result.outputs.data.shape == spec.data.shape
    assert result.demixer is None  # dereverberation alone runs no demixer
    costs = np.asarray(result.trace.costs)
    assert np.all(np.diff(costs) <= 1e-8 * np.abs(costs[:-1]))


def test_run_wpe_initialized_variants_count_both_stages():
    spec = small_spec(9)
    iters, wpe_iters = 3, 2
    f, n = spec.n_bins, spec.n_channels
    counter = SolveCounter()
    run(
        AlgorithmVariant.WPE_ILRMA_IP,
        spec,
        iterations=iters,
        taps=TapConfig(3, 2),
        seed=9,
        wpe_iterations=wpe_iters,
        counter=counter,
    )
    assert counter.iteration_solves == wpe_iters * f + iters * 2 * n * f


def test_maintained_outputs_match_fresh_demix():
    """Every step updates the outputs in place, consistent with a fresh demix, and returns None."""
    spec = small_spec(10)
    sx = build_stacked(spec, SMALL_TAPS)
    n, tilde = spec.n_channels, stack_rows(sx)
    for step in (ilrma_t_ip_iteration, ilrma_t_iss_joint_iteration, ilrma_t_iss_seq_iteration):
        dm = ExtendedDemixer.identity(spec.n_bins, n, SMALL_TAPS)
        model = init_model(n, 2, spec.n_bins, spec.n_frames, seed=10)
        outputs = spec.data.copy()
        buffer = outputs
        inv = np.empty(outputs.shape)
        model_term(model, outputs, inv)
        for _ in range(5):
            assert step(dm, sx, inv, outputs, SolveCounter()) is None
            assert outputs is buffer
            fresh = dm.top @ tilde
            assert np.abs(outputs - fresh).max() <= 1e-10, step.__name__
            nmf_update(model, outputs, inv)


def test_run_evaluates_the_variance_model_three_times_per_iteration(monkeypatch):
    """``run`` stores no variances: it evaluates the initial model once per element, and each
    NMF sweep evaluates the model three times per element (the bases half under the state the
    last sweep left, the activations half before and after its update), in one block or many."""
    evaluated = []
    original = nmf._evaluate

    def counted(bases, activations, out=None):
        r = original(bases, activations, out)
        evaluated.append(r.size)
        return r

    monkeypatch.setattr(nmf, "_evaluate", counted)
    spec = small_spec(14)
    elements = spec.n_bins * spec.n_channels * spec.n_frames
    for workers, block_bytes in ((1, linalg.BLOCK_BYTES), (2, 1 << 12)):
        monkeypatch.setattr(linalg, "WORKERS", workers)
        monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
        for variant in (AlgorithmVariant.ILRMA_IP, AlgorithmVariant.ILRMA_T_ISS_SEQ):
            for iterations in (0, 1, 4):
                evaluated.clear()
                run(variant, spec, iterations=iterations, taps=SMALL_TAPS)
                assert sum(evaluated) == (1 + 3 * iterations) * elements, (variant, iterations, workers)
                if iterations and workers > 1:
                    assert len(evaluated) > 1 + 3 * iterations  # the states were evaluated in blocks


def test_run_rejects_bad_arguments():
    spec = small_spec(11)
    with pytest.raises(ValueError):
        run(AlgorithmVariant.ILRMA_IP, spec, iterations=-1, taps=SMALL_TAPS)
    with pytest.raises(ValueError):
        run(AlgorithmVariant.ILRMA_IP, spec, iterations=1, taps=SMALL_TAPS, n_bases=0)


def test_tapped_variants_differ_from_plain_on_reverberant_input():
    """Sanity: taps actually change the trajectory on reverberant data."""
    spec = small_spec(12)
    plain = run(AlgorithmVariant.ILRMA_ISS, spec, iterations=5, taps=SMALL_TAPS, seed=12)
    for variant in TAPPED_VARIANTS:
        tapped = run(variant, spec, iterations=5, taps=SMALL_TAPS, seed=12)
        assert not np.allclose(tapped.outputs.data, plain.outputs.data)


def inverse_variance_layouts(seed, shape):
    """The same (F, N, T) inverse variances C-ordered, as ``run`` hands them to a step, and
    f-fastest, the layout of NMF's variances."""
    n_bins, n_src, n_frames = shape
    f_fastest = 1.0 / np.random.default_rng(seed).uniform(0.1, 3.0, (n_src, n_frames, n_bins)).transpose(2, 0, 1)
    c_ordered = np.ascontiguousarray(f_fastest)
    assert f_fastest.strides[0] == f_fastest.itemsize and c_ordered.flags.c_contiguous
    return {"C": c_ordered, "f-fastest": f_fastest}


def copy_demixer(dm):
    return ExtendedDemixer(dm.top.copy())


@pytest.mark.parametrize("layout", ["C", "f-fastest"])
def test_tap_sweep_is_an_exact_coordinate_minimizer(layout):
    """Each tap column's gain is the plain-loop minimizer of sum_t |y|^2 / r against the live
    outputs, the maintained outputs equal a fresh demix, and no complex nudge of the last
    column lowers any source's weighted power."""
    _, sx, dm, _, outputs = normal_equation_instance(seed=4, n_src=2, n_frames=40)
    inv = inverse_variance_layouts(4, outputs.shape)[layout]
    tilde, before = stack_rows(sx), dm.top.copy()
    _steering_sweep_over_taps(dm, sx, inv, outputs)

    n_bins, n, _ = outputs.shape
    y = before @ tilde
    for k in range(n, sx.dim):
        for f in range(n_bins):
            for m in range(n):
                num = np.sum(y[f, m] * inv[f, m] * np.conj(tilde[f, k]))
                den = np.sum(inv[f, m] * np.abs(tilde[f, k]) ** 2)
                gain = num / den
                assert abs(before[f, m, k] - dm.top[f, m, k] - gain) <= 1e-10 * max(1.0, abs(gain))
                y[f, m] -= gain * tilde[f, k]
    assert np.abs(outputs - demix(dm, sx).data).max() <= 1e-10

    last = tilde[:, None, sx.dim - 1, :]
    weighted_power = np.sum(np.abs(outputs) ** 2 * inv, axis=2)
    for nudge in (1e-3, -1e-3, 1e-3j, -1e-3j):  # top[:, :, -1] += nudge moves y by nudge * x_last
        assert np.all(np.sum(np.abs(outputs + nudge * last) ** 2 * inv, axis=2) > weighted_power)


def test_run_hands_every_step_c_ordered_inverse_variances(monkeypatch):
    seen = []

    def spy(fn, position):
        def wrapped(*args, **kwargs):
            seen.append((fn.__name__, args[position].flags.c_contiguous))
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(ilrma_t, "iss_source_sweep", spy(iss_source_sweep, 2))
    monkeypatch.setattr(ilrma_t, "weighted_cov", spy(weighted_cov, 1))
    spec = small_spec(13)
    for variant in (AlgorithmVariant.ILRMA_T_ISS_SEQ, AlgorithmVariant.ILRMA_T_IP, AlgorithmVariant.ILRMA_ISS):
        run(variant, spec, iterations=2, taps=SMALL_TAPS)
    assert {name for name, _ in seen} == {"iss_source_sweep", "weighted_cov"}
    assert all(contiguous for _, contiguous in seen), seen


def test_ip_steps_are_bit_identical_for_either_inverse_variance_layout():
    """The IP covariances read ``inv`` only elementwise, so its layout moves no bit."""
    _, sx, dm, _, outputs = normal_equation_instance(seed=5, n_frames=50)
    layouts = inverse_variance_layouts(5, outputs.shape).values()
    assert np.array_equal(*(weighted_cov(sx, inv) for inv in layouts))
    tops, ys = [], []
    for inv in layouts:
        d, y = copy_demixer(dm), outputs.copy()
        ilrma_t_ip_iteration(d, sx, inv, y)
        tops.append(d.top)
        ys.append(y)
    assert np.array_equal(*tops) and np.array_equal(*ys)


def test_steering_steps_agree_across_inverse_variance_layouts():
    """The steering gains sum over frames, in an order that may follow ``inv``'s layout."""
    _, sx, dm, _, outputs = normal_equation_instance(seed=6, n_frames=50)
    results = []
    for inv in inverse_variance_layouts(6, outputs.shape).values():
        gains = [iss_coefficients(outputs, inv, n) for n in range(outputs.shape[1])]
        top, swept = dm.top.copy(), outputs.copy()
        iss_source_sweep(top, swept, inv)
        d, tapped = copy_demixer(dm), outputs.copy()
        _steering_sweep_over_taps(d, sx, inv, tapped)
        results.append([*gains, top, swept, d.top, tapped])
    for a, b in zip(*results):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


@functools.cache
def _desk_room(n_sources, n_samples):
    return desk_spectrogram(2, n_sources=n_sources, n_samples=n_samples)


def _monotone_cost_cases():
    short_taps = TapConfig(4, 3)
    tap_grid = (TapConfig(0, 1), TapConfig(2, 1), short_taps)
    grid = itertools.product(ITERATIVE_VARIANTS, (2, 3), (1500, 8000), tap_grid, (2.0**-20, 1e-3, 1e3, 2.0**20))
    rises = "ROADMAP item 3: ilrma-t-ip's cost rises with 4 taps on 13 frames"
    for variant, n_sources, n_samples, taps, scale in grid:
        marks = ()
        if variant is AlgorithmVariant.ILRMA_T_IP and n_samples == 1500 and taps == short_taps:
            marks = pytest.mark.xfail(strict=True, reason=rises)
        case = f"{variant.value}-n{n_sources}-s{n_samples}-taps{taps.taps}d{taps.delay}-x{scale:g}"
        yield pytest.param(variant, n_sources, n_samples, taps, scale, marks=marks, id=case)


@pytest.mark.parametrize("variant, n_sources, n_samples, taps, scale", _monotone_cost_cases())
def test_cost_never_rises_across_scale_taps_and_short_signals(variant, n_sources, n_samples, taps, scale):
    """13 and 64 frames at 256/128, zero to four taps, inputs scaled far from unit power, 15 iterations."""
    spec = _desk_room(n_sources, n_samples)
    scaled = Spectrogram(spec.data * scale, spec.config, spec.n_samples)
    costs = np.asarray(run(variant, scaled, iterations=15, taps=taps).trace.costs)
    assert np.all(np.diff(costs) <= 1e-9 * np.abs(costs[:-1]))
