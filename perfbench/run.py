"""The drbss benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (see workloads.py):

- ``unified``: ilrma-t-iss-seq, ilrma-t-iss-joint and ilrma-t-ip at N=2
  and N=3, the paper's tapped filter, where the tap updates and the
  stacked covariances do most of the work.
- ``baselines``: ilrma-ip, ilrma-iss, wpe, wpe+ilrma-ip and wpe+ilrma-iss
  at N=2 and N=3, the same engine loop with no taps (D=N).
- ``pipeline``: simulate -> separate -> eval through ``drbss.cli.main``
  at 16 kHz, the file-in/file-out path with a working set above L2.

One client, closed loop: each job starts when the previous one ends.
The workload runs in a fresh worker process (worker.py) with one BLAS
thread; with ``--trace 0`` four more workers set up and stop, two
before it and two after, and ``setup_s`` is the median of the five
set-up times. With ``--trace 1`` the worker times half its passes
untraced and half with every layer wrapped (spans.py), and reports
per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it give every metric with its unit, sample counts, the per-job outputs
that are not gated (``delta_si_sdr_db``, ``failed_ratio``,
``cost_increases``) and the environment.
"""
import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 175.0


class WorkerError(RuntimeError):
    pass


def start_worker(args, deadline: float, *extra: str) -> tuple[dict, float]:
    """Run one worker to completion: (its JSON record, its set-up seconds)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - spawned)
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker did not finish within {DEADLINE_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    record = json.loads(lines[-1])
    return record, record["ready_monotonic"] - spawned


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(record: dict, setup_samples: list[float]) -> tuple[dict, list[str]]:
    stats, q = record["untraced"], record["quality"]
    n = stats["jobs"]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "job_s_p50": (stats["job_s_p50"], "s"),
        "job_s_tail": (stats["job_s_tail"], "s"),
        "audio_s_per_s": (stats["audio_s"] / stats["wall_s"], "s/s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups: "
        + ", ".join(f"{s:.3f}" for s in setup_samples),
        "job_s_p50": f"n={n} jobs",
        "job_s_tail": f"p{stats['job_s_tail_pct']:.1f}, n={n}, the highest percentile with 10 jobs beyond it",
        "audio_s_per_s": f"{stats['audio_s']:.1f} s of mixture in {stats['wall_s']:.2f} s",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    lines = [f"{name:<16} {value:>12.6g} {unit:<5} {notes[name]}" for name, (value, unit) in metrics.items()]
    lines += [
        f"{'delta_si_sdr_db':<16} {q['delta_si_sdr_db']:>12.6g} {'dB':<5} mean over the workload's jobs (not gated)",
        f"{'failed_ratio':<16} {stats['failed'] / n:>12.6g} {'':<5} {stats['failed']}/{n} timed jobs",
        f"{'cost_increases':<16} {q['cost_increases']:>12d} {'count':<5} "
        + ", ".join(f"{k}={v}" for k, v in q["cost_increases_by_job"].items() if v),
    ]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("unified", "baselines", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # subprocess.run kills and reaps the worker when the wait is interrupted.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    # Set-up probes bracket the workload process, half before and half
    # after, so the set-up samples span the same stretch of time as the jobs.
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setup_samples, probe_errors = [], []
    try:
        for i in range(probes + 1):
            if i == probes // 2:
                record, setup = start_worker(args, deadline)
            else:
                probe, setup = start_worker(args, deadline, "--setup-only")
                probe_errors += probe["warmup_errors"]
            setup_samples.append(setup)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    errors = probe_errors + record["warmup_errors"] + record["untraced"]["errors"]
    attempted, failed = record["untraced"]["jobs"], record["untraced"]["failed"]
    if args.trace:
        errors += record["traced"]["errors"]
        attempted += record["traced"]["jobs"]
        failed += record["traced"]["failed"]
        metrics = {name: (value, unit) for name, (value, unit, _) in record["per_layer"].items()}
        lines = [f"{name:<48} {value:>12.6g} {unit}" for name, (value, unit) in metrics.items()]
    else:
        metrics, lines = end_to_end(record, setup_samples)

    env = dict(record["env"], commit=git_commit())
    print(f"drbss benchmark: workload {args.workload}, seed {args.seed} "
          f"(fixture seed {record['fixture_seed']}), trace {args.trace}")
    print("\n".join(lines))
    for error in errors:
        print(f"FAILED {error}")
    print("environment: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
