"""The benchmark's three workloads: fixtures, jobs and per-job checks.

``unified`` and ``baselines`` run analyze -> run -> synthesize -> evaluate
through the public API on a fixture built at set-up: ``make_sources`` +
``mix`` at 8 kHz, 20000 samples, rt60 0.3, snr 1e4, a 256/64 STFT
(F=129, T=316), TapConfig(5, 2) and 100 iterations. ``pipeline`` runs
simulate -> separate -> eval through ``drbss.cli.main`` in a temporary
directory: 16 kHz, 10 s, 2 sources, then the CLI defaults
(ilrma-t-iss-seq, 1024/256, so F=513, T=628) with 10 iterations.

Import this module only after ``prelude``.
"""
from __future__ import annotations

import contextlib
import csv
import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

import drbss
from drbss import cli

SAMPLE_RATE = 8000
N_SAMPLES = 20000
ITERATIONS = 100
STFT = drbss.StftConfig(256, 64, SAMPLE_RATE)
TAPS = drbss.TapConfig(5, 2)

PIPELINE_RATE = 16000
PIPELINE_SECONDS = 10
PIPELINE_ITERATIONS = 10

# ``--seed`` picks one of this many fixtures; each has recorded reference
# results in reference.json.
FIXTURE_SEEDS = 8

# Objective rises larger than this, relative, count as cost increases.
MONOTONE_TOLERANCE = 1e-9
# Final cost and SI-SDR improvement must match the reference to this
# relative tolerance. The SI-SDR improvement is a signed dB value that can
# sit near zero, so its tolerance is taken relative to at least 1 dB.
REFERENCE_TOLERANCE = 1e-10
REFERENCE_FLOOR = {"final_cost": 0.0, "delta_si_sdr_db": 1.0}

# Dense solves per (iteration, frequency bin) with N sources, in the
# order of the README's algorithm table.
SOLVE_LAW = {
    "ilrma-ip": lambda n: 2 * n,
    "ilrma-iss": lambda n: 0,
    "ilrma-t-ip": lambda n: 2 * n,
    "ilrma-t-iss-joint": lambda n: n,
    "ilrma-t-iss-seq": lambda n: 0,
    "wpe": lambda n: 1,
    "wpe+ilrma-ip": lambda n: 2 * n,
    "wpe+ilrma-iss": lambda n: 0,
}
SOURCE_COUNTS = (2, 3)


@dataclass(frozen=True)
class Job:
    variant: str
    n_sources: int

    @property
    def key(self) -> str:
        """Metric-safe name: metric names may not contain ``+``."""
        return f"{self.variant.replace('+', '_')}.n{self.n_sources}"


def _grid(variants: tuple[str, ...]) -> tuple[Job, ...]:
    return tuple(Job(v, n) for v in variants for n in SOURCE_COUNTS)


JOBS = {
    "unified": _grid(("ilrma-t-iss-seq", "ilrma-t-iss-joint", "ilrma-t-ip")),
    "baselines": _grid(("ilrma-ip", "ilrma-iss", "wpe", "wpe+ilrma-ip", "wpe+ilrma-iss")),
    "pipeline": (Job("ilrma-t-iss-seq", 2),),
}

# Wall seconds of one pass over a workload's jobs on the reference
# machine (2 cores, one BLAS thread). A run makes a whole number of
# passes, so every run times the same mix of jobs.
NOMINAL_PASS_S = {"unified": 16.3, "baselines": 10.9, "pipeline": 2.05}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


@dataclass
class Fixture:
    workload: str
    seed: int
    mixtures: dict[int, tuple[np.ndarray, np.ndarray]]  # N -> (mixture, references)
    scratch: Path | None = None

    def close(self) -> None:
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)


def build_fixture(workload: str, seed: int, scratch_root: Path) -> Fixture:
    """Inputs for one workload; only the fixture seed varies them."""
    if workload == "pipeline":
        scratch_root.mkdir(exist_ok=True)
        return Fixture(workload, seed, {}, Path(tempfile.mkdtemp(dir=scratch_root)))
    mixtures = {}
    for n in sorted({job.n_sources for job in JOBS[workload]}):
        sources = drbss.make_sources(n, N_SAMPLES, SAMPLE_RATE, seed=seed)
        room = drbss.SyntheticRoomConfig(n, sample_rate=SAMPLE_RATE, rt60=0.3, snr=1e4, seed=seed)
        res = drbss.mix(sources, room)
        mixtures[n] = (res.mixture, res.direct_images[:, 0, :])
    return Fixture(workload, seed, mixtures)


@dataclass
class JobResult:
    job: Job
    wall_s: float
    audio_s: float
    n_bins: int
    final_cost: float
    delta_si_sdr_db: float
    costs: list[float]
    iter_ms: list[float]
    solves_per_bin_iter: float
    outputs_finite: bool

    @property
    def cost_increases(self) -> int:
        c = self.costs
        return sum(
            1 for a, b in zip(c, c[1:]) if b - a > MONOTONE_TOLERANCE * abs(a)
        )


def run_job(fixture: Fixture, job: Job, timed=contextlib.nullcontext) -> JobResult:
    """Run one job; ``timed()`` is entered around exactly the timed region."""
    if fixture.workload == "pipeline":
        return _pipeline_job(fixture, job, timed)
    return _engine_job(fixture, job, timed)


def _engine_job(fixture: Fixture, job: Job, timed) -> JobResult:
    mixture, refs = fixture.mixtures[job.n_sources]
    counter = drbss.SolveCounter()
    with timed():
        t0 = time.perf_counter()
        spec = drbss.analyze(mixture, STFT)
        result = drbss.run(
            drbss.AlgorithmVariant.from_name(job.variant),
            spec,
            iterations=ITERATIONS,
            taps=TAPS,
            counter=counter,
        )
        estimates = drbss.synthesize(result.outputs)
        report = drbss.evaluate(refs, estimates, mixture, SAMPLE_RATE)
        wall = time.perf_counter() - t0
    trace = result.trace
    solves = trace.cumulative_solves[-1] - trace.cumulative_solves[0]
    return JobResult(
        job=job,
        wall_s=wall,
        audio_s=N_SAMPLES / SAMPLE_RATE,
        n_bins=spec.n_bins,
        final_cost=trace.costs[-1],
        delta_si_sdr_db=report.mean_delta_si_sdr,
        costs=list(trace.costs),
        iter_ms=list(trace.wall_ms),
        solves_per_bin_iter=solves / (trace.iterations * spec.n_bins),
        outputs_finite=bool(
            np.all(np.isfinite(result.outputs.data)) and np.all(np.isfinite(estimates))
        ),
    )


def _pipeline_job(fixture: Fixture, job: Job, timed) -> JobResult:
    work = Path(tempfile.mkdtemp(dir=fixture.scratch))
    room, sep, scores = work / "room", work / "sep", work / "scores"
    steps = [
        ["simulate", "--out", str(room), "--n-sources", str(job.n_sources),
         "--sample-rate", str(PIPELINE_RATE), "--duration", str(PIPELINE_SECONDS),
         "--rt60", "0.3", "--snr", "10000", "--seed", str(fixture.seed)],
        ["separate", str(room / "mixture.wav"), "--out", str(sep),
         "--variant", job.variant, "--iterations", str(PIPELINE_ITERATIONS)],
        ["eval", "--refs", str(room), "--estimates", str(sep / "estimates"),
         "--mixture", str(room / "mixture.wav"), "--out", str(scores)],
    ]
    try:
        with timed():
            t0 = time.perf_counter()
            for argv in steps:
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"drbss {argv[0]} exited with {code}")
            wall = time.perf_counter() - t0
        report = json.loads((sep / "report.json").read_text())
        scored = json.loads((scores / "metrics.json").read_text())
        with open(sep / "trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        finite = all(
            np.all(np.isfinite(wavfile.read(p)[1])) for p in sorted((sep / "estimates").glob("*.wav"))
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return JobResult(
        job=job,
        wall_s=wall,
        audio_s=float(PIPELINE_SECONDS),
        n_bins=report["n_bins"],
        final_cost=report["final_cost"],
        delta_si_sdr_db=scored["mean"]["delta_si_sdr"],
        costs=[float(r["cost"]) for r in rows],
        iter_ms=[float(r["wall_ms"]) for r in rows[1:]],
        solves_per_bin_iter=report["solve_law"]["measured_per_bin_iteration"],
        outputs_finite=finite and all(np.isfinite(scored["si_sdr"])),
    )


def check_output(result: JobResult) -> list[str]:
    """Problems with one job's output; an empty list means it passed."""
    problems = []
    job = result.job
    if not result.outputs_finite:
        problems.append("non-finite outputs")
    law = SOLVE_LAW[job.variant](job.n_sources)
    if result.solves_per_bin_iter != law:
        problems.append(f"{result.solves_per_bin_iter} solves per bin per iteration, law says {law}")
    return problems


def check(result: JobResult, expected: dict | None) -> list[str]:
    """``check_output`` plus agreement with the recorded reference result."""
    problems = check_output(result)
    if expected is None:
        return problems + ["no reference result recorded for this job"]
    for name, value in (("final_cost", result.final_cost), ("delta_si_sdr_db", result.delta_si_sdr_db)):
        ref = expected[name]
        if not abs(value - ref) <= REFERENCE_TOLERANCE * max(abs(ref), REFERENCE_FLOOR[name]):
            problems.append(f"{name} {value!r} differs from reference {ref!r}")
    return problems
