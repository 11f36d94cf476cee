"""One workload process of the drbss benchmark.

Started by ``run.py`` in a fresh interpreter, so the import, the peak RSS
and the BLAS thread pool belong to this workload alone. It sets up
(import, fixture, one untimed warm-up job), runs whole passes over the
workload's jobs one at a time, and prints one JSON object as the last
line of its standard output. With ``--setup-only`` it stops after the
warm-up; ``run.py`` starts several such processes to take the median
set-up time.
"""
import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import prelude  # pins BLAS threads; numpy and drbss load later, in main()


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct).

    With ten samples or fewer no percentile qualifies and the maximum is
    returned as the 100th percentile.
    """
    ordered = sorted(values)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def attempt(w, fixture, reference: dict, job, timed=contextlib.nullcontext) -> tuple:
    """Run and check one job: (JobResult or None, wall seconds, problems)."""
    t0 = time.perf_counter()
    try:
        result = w.run_job(fixture, job, timed)
        problems = w.check(result, reference.get(job.key))
        wall = result.wall_s
    except Exception as exc:  # a failed job is counted and reported; the run goes on
        result, wall, problems = None, time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
    return result, wall, [f"{job.key}: {p}" for p in problems]


def job_stats(outcomes: list) -> dict:
    walls = [wall for _, wall, _ in outcomes]
    tail_value, tail_pct = tail(walls)
    return {
        "job_s_p50": statistics.median(walls),
        "job_s_tail": tail_value,
        "job_s_tail_pct": tail_pct,
        "jobs": len(walls),
        "failed": sum(1 for _, _, problems in outcomes if problems),
        "audio_s": sum(r.audio_s for r, _, _ in outcomes if r is not None),
        "wall_s": sum(walls),
        "errors": [p for _, _, problems in outcomes for p in problems],
    }


def quality(outcomes: list, jobs) -> dict:
    """Deterministic outputs over one pass of the workload (each job once)."""
    first = {}
    for result, _, _ in outcomes:
        if result is not None:
            first.setdefault(result.job, result)
    done = [first[job] for job in jobs if job in first]
    return {
        "delta_si_sdr_db": statistics.fmean(r.delta_si_sdr_db for r in done) if done else 0.0,
        "cost_increases": sum(r.cost_increases for r in done),
        "cost_increases_by_job": {r.job.key: r.cost_increases for r in done},
        "iter_ms": {
            r.job.key: statistics.median(
                ms for o, _, _ in outcomes if o is not None and o.job == r.job for ms in o.iter_ms
            )
            for r in done
        },
        "solves_per_bin_iter": {r.job.key: r.solves_per_bin_iter for r in done},
    }


def all_job_keys(w) -> list[str]:
    return [w.Job(v, n).key for v in w.SOLVE_LAW for n in w.SOURCE_COUNTS]


def per_layer(w, spans, record: dict) -> dict:
    """Per-layer metrics of a traced run: {name: (value, unit, better)}."""
    layers, traced, untraced = record["layers"], record["traced"], record["untraced"]
    jobs = traced["jobs"]
    empty = {"self_ms": 0.0, "calls": 0, "mb": 0.0}
    out = {}
    for name in spans.LAYER_NAMES:
        entry = layers.get(name, empty)
        out[f"{name}_ms"] = (entry["self_ms"] / jobs, "ms", "lower")
        out[f"{name}.calls"] = (entry["calls"] / jobs, "count", "lower")
    for name, metric in spans.COMPUTED_BYTES.items():
        entry = layers.get(name, empty)
        out[metric] = (entry["mb"] / entry["calls"] if entry["calls"] else 0.0, "MB", "lower")
    for phase in ("import_ms", "fixture_ms", "warmup_ms"):
        out[f"setup.{phase}"] = (record["setup"][phase], "ms", "lower")
    total = sum(entry["self_ms"] for entry in layers.values())
    out["trace.coverage"] = (1.0 - layers[spans.JOB]["self_ms"] / total, "ratio", "higher")
    out["trace.overhead"] = (traced["job_s_p50"] / untraced["job_s_p50"], "ratio", "lower")
    q = record["quality"]
    out["ilrma_t.cost_increases"] = (q["cost_increases"], "count", "lower")
    out["metrics.delta_si_sdr_db"] = (q["delta_si_sdr_db"], "dB", "higher")
    for key in all_job_keys(w):
        out[f"ilrma_t.iter_ms.{key}"] = (q["iter_ms"].get(key, 0.0), "ms", "lower")
        out[f"linalg.solves_per_bin_iter.{key}"] = (q["solves_per_bin_iter"].get(key, 0.0), "count", "lower")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    prelude.use_checkout_source()
    t = time.perf_counter()
    import workloads as w

    import_ms = (time.perf_counter() - t) * 1e3
    if args.workload not in w.JOBS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {', '.join(w.JOBS)}")
    jobs = w.JOBS[args.workload]
    fixture_seed = args.seed % w.FIXTURE_SEEDS
    reference = json.loads(prelude.REFERENCE.read_text())
    reference = reference[args.workload].get(str(fixture_seed), {})

    t = time.perf_counter()
    fixture = w.build_fixture(args.workload, fixture_seed, prelude.SCRATCH)
    try:
        fixture_ms = (time.perf_counter() - t) * 1e3
        t = time.perf_counter()
        warmup = attempt(w, fixture, reference, jobs[0])
        warmup_ms = (time.perf_counter() - t) * 1e3
        record = {
            "ready_monotonic": time.monotonic(),
            "setup": {"import_ms": import_ms, "fixture_ms": fixture_ms, "warmup_ms": warmup_ms},
            "warmup_errors": warmup[2],
        }
        if args.setup_only:
            print(json.dumps(record))
            return 0

        passes = w.passes_for(args.workload, args.seconds)
        untraced_passes = max(1, passes // 2) if args.trace else passes
        untraced = [attempt(w, fixture, reference, job) for _ in range(untraced_passes) for job in jobs]
        record.update(
            fixture_seed=fixture_seed,
            env=environment(),
            untraced=job_stats(untraced),
            quality=quality(untraced, jobs),
        )
        if args.trace:
            import spans

            tracer = spans.Tracer()
            with tracer.installed():
                traced = [
                    attempt(w, fixture, reference, job, tracer.job)
                    for _ in range(max(1, passes - untraced_passes))
                    for job in jobs
                ]
            record.update(traced=job_stats(traced), layers=tracer.summary())
            record["per_layer"] = per_layer(w, spans, record)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        fixture.close()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
