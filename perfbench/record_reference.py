"""Record the reference results the benchmark checks every job against.

    python3 perfbench/record_reference.py

Runs every job of every workload once per fixture seed and writes the
final cost and mean SI-SDR improvement to perfbench/reference.json. Run
it only on a commit whose results are trusted: afterwards a job fails
when either value moves beyond the tolerance in ``workloads.check``.
"""
import json
import sys

import prelude  # pins BLAS threads; numpy and drbss load later, in main()


def main() -> int:
    prelude.use_checkout_source()
    import workloads as w

    reference = {}
    for workload, jobs in w.JOBS.items():
        reference[workload] = {}
        for seed in range(w.FIXTURE_SEEDS):
            fixture = w.build_fixture(workload, seed, prelude.SCRATCH)
            try:
                entries = {}
                for job in jobs:
                    result = w.run_job(fixture, job)
                    problems = w.check_output(result)
                    if problems:
                        raise SystemExit(f"{workload} seed {seed} {job.key}: {'; '.join(problems)}")
                    entries[job.key] = {
                        "final_cost": result.final_cost,
                        "delta_si_sdr_db": result.delta_si_sdr_db,
                    }
                    print(workload, seed, job.key, entries[job.key], file=sys.stderr, flush=True)
            finally:
                fixture.close()
            reference[workload][str(seed)] = entries
    prelude.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
