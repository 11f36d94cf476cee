"""Tests of the benchmark itself: python3 -m pytest perfbench"""
import json
import sys

import prelude  # pins BLAS threads before numpy loads

prelude.use_checkout_source()

import pytest  # noqa: E402

import spans  # noqa: E402
import worker  # noqa: E402
import workloads as w  # noqa: E402
from drbss import ilrma_t, stacking  # noqa: E402

# (workload, job) pairs traced once each. wpe+ilrma-ip goes through
# wpe_run and every solve site; ilrma-iss goes through the ISS-seq
# iteration, which sweeps over the (absent) tap rows on every iteration.
TRACED_JOBS = {
    "unified": ("unified", w.Job("ilrma-t-iss-joint", 2)),
    "baselines-wpe": ("baselines", w.Job("wpe+ilrma-ip", 2)),
    "baselines-iss": ("baselines", w.Job("ilrma-iss", 2)),
    "pipeline": ("pipeline", w.JOBS["pipeline"][0]),
}


def _namespaces():
    found = {name: dict(vars(m)) for name, m in sys.modules.items() if name.split(".")[0] == "drbss"}
    found["_ITERATIONS"] = dict(ilrma_t._ITERATIONS)
    found["ExtendedDemixer"] = dict(vars(stacking.ExtendedDemixer))
    return found


@pytest.fixture(scope="module", params=sorted(TRACED_JOBS))
def traced(request, tmp_path_factory):
    workload, job = TRACED_JOBS[request.param]
    fixture = w.build_fixture(workload, 0, tmp_path_factory.mktemp("bench"))
    try:
        plain = w.run_job(fixture, job)
        tracer = spans.Tracer()
        before = _namespaces()
        with tracer.installed():
            traced_result = w.run_job(fixture, job, tracer.job)
        after = _namespaces()
    finally:
        fixture.close()
    return job, plain, traced_result, tracer, before, after


def test_traced_final_cost_is_bit_identical(traced):
    _, plain, traced_result, _, _, _ = traced
    assert traced_result.final_cost == plain.final_cost
    assert traced_result.costs == plain.costs
    assert traced_result.delta_si_sdr_db == plain.delta_si_sdr_db


def test_every_wrapper_is_restored(traced):
    _, _, _, _, before, after = traced
    assert before.keys() == after.keys()
    for name in before:
        changed = [k for k in before[name] if before[name][k] is not after[name].get(k)]
        assert not changed, f"{name}: {changed}"


def test_spans_nest_under_the_job_and_route_by_variant(traced):
    job, _, _, tracer, _, _ = traced
    summary = tracer.summary()
    assert summary[spans.JOB]["calls"] == 1
    assert all(parent >= 0 for layer, _, _, parent, _ in tracer.spans if layer != spans.JOB)
    calls = {layer: entry["calls"] for layer, entry in summary.items()}
    assert calls.get("linalg.solve", 0) > 0
    assert (calls.get("ilrma_t.tap_joint", 0) > 0) == (job.variant == "ilrma-t-iss-joint")
    # The ISS-seq iteration (ilrma-t-iss-seq, ilrma-iss, wpe+ilrma-iss)
    # sweeps the tap rows on every iteration, even when there are none.
    iss_seq = job.variant in ("ilrma-t-iss-seq", "ilrma-iss", "wpe+ilrma-iss")
    assert (calls.get("ilrma_t.tap_sweep", 0) > 0) == iss_seq
    if job.variant == "ilrma-iss":
        # D = N: no delayed rows, so a sweep moves only its 1/variances.
        sweep = summary["ilrma_t.tap_sweep"]
        f, t = 129, 316  # the engine fixture's 256/64 STFT of 20000 samples
        assert sweep["mb"] / sweep["calls"] == pytest.approx(2 * spans.R * f * job.n_sources * t / spans.MB)
    assert (calls.get("wpe.run", 0) > 0) == job.variant.startswith("wpe")
    assert (calls.get("cli.main", 0) == 3) == (job in w.JOBS["pipeline"])
    total = sum(entry["self_ms"] for entry in summary.values())
    duration = next((end - start) * 1e3 for layer, start, end, _, _ in tracer.spans if layer == spans.JOB)
    assert total == pytest.approx(duration, rel=1e-9)


def test_per_layer_names_match_benchmark_json(traced):
    _, plain, traced_result, tracer, _, _ = traced
    stats = worker.job_stats([(traced_result, traced_result.wall_s, [])])
    record = {
        "layers": tracer.summary(),
        "traced": stats,
        "untraced": worker.job_stats([(plain, plain.wall_s, [])]),
        "setup": {"import_ms": 1.0, "fixture_ms": 1.0, "warmup_ms": 1.0},
        "quality": worker.quality([(plain, plain.wall_s, [])], [plain.job]),
    }
    emitted = worker.per_layer(w, spans, record)
    declared = json.loads((prelude.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert list(emitted) == [m["name"] for m in declared]
    assert [unit for _, unit, _ in emitted.values()] == [m["unit"] for m in declared]
    assert [better for _, _, better in emitted.values()] == [m["better"] for m in declared]


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(30)]
    assert worker.tail(values) == (19.0, 100.0 * 20 / 30)
    assert worker.tail(values[:5]) == (4.0, 100.0)
