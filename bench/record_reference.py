"""Record the reference outputs that runs on the default seed are compared with.

Usage, from the root of a source checkout:

    python3 bench/record_reference.py [workload ...]

Runs the traced-run decks of each workload on ``run.DEFAULT_SEED`` and
writes every job with its exit code, standard output and output files to
``bench/reference/<workload>.json``.  Record only at a commit whose outputs
are trusted; a job that fails its invariant checks aborts the recording.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import jobs, run  # noqa: E402


def record(workload: str) -> Path:
    run.cap_threads()
    mb = run.import_maxbias()
    import maxbias.cli  # noqa: F401

    work = run.WORK_DIR / "record"
    work.mkdir(parents=True, exist_ok=True)
    loop = run.Loop(mb, workload, run.DEFAULT_SEED, work, reference=[])
    entries: list[dict] = []
    for index in range(jobs.TRACE_DECKS[workload]):
        loop.run_deck(index, record=entries)
    work.rmdir()
    run.WORK_DIR.rmdir()
    if loop.failures:
        raise SystemExit(f"{workload}: not recorded, {len(loop.failures)} jobs failed:\n"
                         + "\n".join(loop.failures[:5]))
    path = run.REFERENCE_DIR / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    payload = {"workload": workload, "seed": run.DEFAULT_SEED, "jobs": entries}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


if __name__ == "__main__":
    for name in sys.argv[1:] or jobs.WORKLOADS:
        print(record(name))
