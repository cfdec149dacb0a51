"""Benchmark of maxbias: closed-loop job streams, end to end and per layer.

Usage, from the root of a source checkout:

    python3 bench/run.py [--workload curves|diagnostics|efficiency|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop: one client in this single process starts a
job only when the previous one has finished.  A job is one ``maxbias.cli.main``
call or one library entry-point call, generated from the seed (see
``bench/jobs.py``), and builds its own ``GFunction`` objects as every CLI
invocation does.  Only process start-up is kept out of the timed jobs; it is
measured as ``setup_s`` in fresh interpreters.

``--trace 0`` runs whole decks of jobs until ``--seconds`` of job time is
measured and reports the end-to-end metrics.  Job times are reported at the
reference speed of ``bench/calibrate.py``: each is scaled by the median time
of a fixed probe run between the jobs of its deck, which cancels most of the
slowdown a shared host imposes; the times as measured are printed next to
them.

``--trace 1`` runs a fixed number of decks (``jobs.TRACE_DECKS``) once
untraced and once under the tracer of ``bench/trace.py``, and reports the
per-layer metrics; its counts repeat exactly for a given seed.

Every job's output is checked (``bench/checks.py``), and for
``DEFAULT_SEED`` also compared with the reference outputs in
``bench/reference``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in its own process and prints one combined object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
WORK_DIR = ROOT / ".bench_work"

DEFAULT_SEED = 0
SETUP_SPAWNS = 5
# The 90th percentile needs at least 10 jobs beyond it.
MIN_JOBS = 100
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import checks, jobs  # noqa: E402  (after the path set-up above)


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup() -> float:
    """Median wall time of a fresh interpreter up to ``import maxbias`` done.

    Reported as measured: the speed probe does not track import time.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-c", "import maxbias"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode caches
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_maxbias():
    sys.path.insert(0, str(SRC))
    import maxbias

    if Path(maxbias.__file__).resolve().parent != SRC / "maxbias":
        raise RuntimeError(f"imported maxbias from {maxbias.__file__}, not from {SRC}")
    return maxbias


def _rho(mb, family: str, k: float):
    return mb.biweight(k) if family == "biweight" else mb.alpha_quantile(k)


def _avar_spec(mb, p: dict):
    if p["kind"] == "s":
        return mb.s_estimate(mb.biweight(p["k"]), p["b"])
    if p["kind"] == "mm":
        return mb.mm_estimate(mb.biweight(p["k1"]), mb.biweight(p["k2"]), p["b"])
    return mb.cm_estimate(mb.biweight(p["k"]), p["b"], p["c"])


def _call(mb, job: dict) -> str:
    p = job["params"]
    if job["call"] == "inadmissibility_threshold":
        return f"threshold={mb.inadmissibility_threshold(_rho(mb, p['rho'], p['k']))!r}\n"
    cells = mb.avar_table([(p["kind"], _avar_spec(mb, p))], mb.LAW_NAMES)
    lines = ["law,avar,binding,degenerate"]
    lines += [f"{c.law},{c.avar!r},{c.binding},{c.degenerate}" for c in cells]
    return "\n".join(lines) + "\n"


def run_job(mb, job: dict, work: Path) -> tuple[float, dict]:
    """Run one job; returns (seconds, result).  Raised errors propagate."""
    result = {"exit": 0, "stdout": "", "stderr": "", "files": {}}
    if "argv" in job:
        argv = [a.replace(jobs.WORK_TOKEN, str(work)) for a in job["argv"]]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mb.cli.main(argv)
        dt = time.perf_counter() - t0
        result.update(exit=rc, stdout=out.getvalue(), stderr=err.getvalue())
        for arg in job["argv"]:
            if arg.startswith(jobs.WORK_TOKEN):
                path = Path(arg.replace(jobs.WORK_TOKEN, str(work)))
                result["files"][path.name] = path.read_text() if path.exists() else ""
                path.unlink(missing_ok=True)
    else:
        t0 = time.perf_counter()
        result["stdout"] = _call(mb, job)
        dt = time.perf_counter() - t0
    return dt, result


def load_reference(workload: str, seed: int) -> list[dict]:
    if seed != DEFAULT_SEED:
        return []
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())["jobs"]


class Loop:
    """Closed-loop client: runs jobs one after another and checks each result."""

    def __init__(self, mb, workload: str, seed: int, work: Path, tracer=None, reference=None):
        self.mb, self.workload, self.seed, self.work = mb, workload, seed, work
        self.tracer = tracer
        self.reference = load_reference(workload, seed) if reference is None else reference
        self.attempted = 0
        self.failures: list[str] = []
        # Imported here, not at the top: it loads numpy, which must come
        # after cap_threads().
        from bench import calibrate

        self.calibrate = calibrate

    def run_deck(
        self, index: int, record: list | None = None, probes: list | None = None
    ) -> list[tuple[str, float]]:
        """Run deck ``index``; returns (job class, seconds) of each passed job.

        With ``probes``, a machine-speed probe runs before each job and its
        time is appended there.
        """
        timings = []
        deck = jobs.deck(self.workload, self.seed, index)
        for pos, job in enumerate(deck):
            if probes is not None:
                probes.append(self.calibrate.probe())
            self.attempted += 1
            tag = f"deck {index} job {pos} ({job['cls']})"
            if self.tracer is not None:
                self.tracer.set_job_class(job["cls"])
                self.tracer.active = True
            try:
                dt, result = run_job(self.mb, job, self.work)
            except Exception:  # a job that raises is a failed job, not a crash
                self.failures.append(f"{tag}: raised\n{traceback.format_exc()}")
                continue
            finally:
                if self.tracer is not None:
                    self.tracer.active = False
            problems = checks.check_invariants(job, result)
            ref_index = index * len(deck) + pos
            if ref_index < len(self.reference):
                problems += checks.compare_reference(job, result, self.reference[ref_index])
            if problems:
                self.failures.append(f"{tag}: {'; '.join(problems)}")
            else:
                timings.append((job["cls"], dt))
            if record is not None:
                record.append({"job": job, **{k: result[k] for k in ("exit", "stdout", "files")}})
        return timings

    def warm_up(self) -> None:
        for job in jobs.warmup_jobs(self.workload, self.seed):
            run_job(self.mb, job, self.work)


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(mb, workload: str, seed: int, seconds: float, work: Path) -> tuple[Loop, dict, dict]:
    """End-to-end metrics at the reference speed, and as measured."""
    loop = Loop(mb, workload, seed, work)
    loop.warm_up()
    timings: list[tuple[str, float]] = []
    scaled: list[float] = []
    deck_rates, raw_rates = [], []
    index = 0
    # Whole decks keep the job mix exact; the deadline stops a run whose
    # jobs all fail (failed jobs add no job time).
    deadline = time.perf_counter() + 2 * seconds + 60
    while time.perf_counter() < deadline and (
        len(timings) < MIN_JOBS or sum(dt for _, dt in timings) < seconds
    ):
        probes: list[float] = []
        deck = loop.run_deck(index, probes=probes)
        if deck:
            # One factor per deck, from the probes taken between its jobs.
            factor = loop.calibrate.scale(probes)
            busy = sum(dt for _, dt in deck)
            raw_rates.append(len(deck) / busy)
            deck_rates.append(len(deck) / (busy * factor))
            scaled += [dt * factor for _, dt in deck]
        timings += deck
        index += 1
    if len(timings) < 2:
        raise RuntimeError(f"{len(timings)} of {loop.attempted} jobs passed; nothing to measure")
    raw = [dt for _, dt in timings]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Medians over decks (each holds the whole mix) discount a slow spell of
    # the shared machine that covers a few decks.
    metrics = {
        "jobs_per_s": statistics.median(deck_rates),
        "job_p50_ms": 1e3 * _percentile(scaled, 50),
        "job_p90_ms": 1e3 * _percentile(scaled, 90),
        "peak_rss_mb": rss,
    }
    measured = {
        "jobs_per_s": statistics.median(raw_rates),
        "job_p50_ms": 1e3 * _percentile(raw, 50),
        "job_p90_ms": 1e3 * _percentile(raw, 90),
        "peak_rss_mb": rss,
    }
    print(f"{workload}: {index} decks, {len(timings)} jobs timed, {sum(raw):.3f} s of job time")
    for cls in sorted({c for c, _ in timings}):
        ms = sorted(1e3 * dt for c, dt in timings if c == cls)
        print(f"  class {cls}: {len(ms)} jobs, {ms[0]:.1f} to {ms[-1]:.1f} ms, "
              f"median {statistics.median(ms):.1f} ms")
    return loop, metrics, measured


def _scaled_deck(loop: Loop, index: int) -> tuple[list[tuple[str, float]], float]:
    """Run one deck with speed probes; returns its timings and its job time
    at the reference speed."""
    probes: list[float] = []
    deck = loop.run_deck(index, probes=probes)
    return deck, sum(dt for _, dt in deck) * loop.calibrate.scale(probes)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def traced_run(mb, workload: str, seed: int, work: Path, decks: int | None = None) -> tuple[Loop, dict]:
    from bench.trace import (
        FIND_ROOT_EVALS, G_INVERSE_COLD, G_INVERSE_COLD_S, G_INVERSE_WARM_S,
        WRITE_ROWS_BYTES, Tracer,
    )

    decks = decks or jobs.TRACE_DECKS[workload]
    plain = Loop(mb, workload, seed, work)
    plain.warm_up()
    untraced = sum(_scaled_deck(plain, i)[1] for i in range(decks))
    tracer = Tracer()
    loop = Loop(mb, workload, seed, work, tracer)
    with tracer:
        passes = [_scaled_deck(loop, i) for i in range(decks)]
    timings = [t for deck, _ in passes for t in deck]
    loop.attempted += plain.attempted
    loop.failures = plain.failures + loop.failures
    traced = sum(dt for _, dt in timings)
    # The overhead compares job time at the reference speed, so a slow spell
    # during one pass does not read as tracing cost.
    traced_ref = sum(busy for _, busy in passes)
    overhead = traced_ref / untraced - 1.0

    spans, counters = tracer.totals()

    def span(name: str) -> list:
        return spans.get(name, [0, 0.0, 0.0])

    gf = "gfunction.GFunction."
    find_root = span("numerics.find_root")
    metrics = {
        "gfunction.instances": span(gf + "__init__")[0],
        "gfunction.inversions_per_instance": _ratio(span(gf + "g_inverse")[0], counters[G_INVERSE_COLD]),
        "gfunction.g_eval.calls": span(gf + "g_eval")[0],
        "gfunction.g_eval.self_s": span(gf + "g_eval")[2],
        "gfunction.phi_eval.calls": span(gf + "phi_eval")[0],
        "gfunction.phi_eval.self_s": span(gf + "phi_eval")[2],
        "gfunction.g_inverse.calls": span(gf + "g_inverse")[0],
        "gfunction.g_inverse.cold_s": counters[G_INVERSE_COLD_S],
        "gfunction.g_inverse.warm_s": counters[G_INVERSE_WARM_S],
        "gfunction.check_phi_unimodal.s": span(gf + "check_phi_unimodal")[1],
        "gfunction.peak.calls": span(gf + "peak")[0],
        "gfunction.check_g_convex.s": span(gf + "check_g_convex")[1],
        "numerics.find_root.calls": find_root[0],
        "numerics.find_root.evals": int(counters[FIND_ROOT_EVALS]),
        "numerics.find_root.evals_per_call": _ratio(counters[FIND_ROOT_EVALS], find_root[0]),
        "numerics.find_root.self_s": find_root[2],
        "numerics.maximize_unimodal.calls": span("numerics.maximize_unimodal")[0],
        "curves.critical_pair.calls": span("curves.critical_pair")[0],
        "curves.critical_pair.s": span("curves.critical_pair")[1],
        "curves.scale_bounds.calls": span("curves.scale_bounds")[0],
        "curves.bias_curve.s": span("curves.bias_curve")[1],
        "dominance.dominance_report.s": span("dominance.dominance_report")[1],
        "dominance.c_naught.s": span("dominance.c_naught")[1],
        "dominance.inadmissibility_threshold.s": span("dominance.inadmissibility_threshold")[1],
        "efficiency.tune.s": span("efficiency.tune")[1],
        "efficiency.avar_table.s": span("efficiency.avar_table")[1],
        "efficiency.m_avar.calls": span("efficiency.m_avar")[0],
        "cli.main.self_s": span("cli.main")[2],
        "io.write_rows.bytes": int(counters[WRITE_ROWS_BYTES]),
        "io.write_rows.s": span("_io.write_rows")[1],
        "trace_overhead_frac": overhead,
        "share.g_inverse_cold": _ratio(counters[G_INVERSE_COLD_S], traced),
        "share.check_phi_unimodal": _ratio(span(gf + "check_phi_unimodal")[1], traced),
        "share.find_root": _ratio(find_root[1], traced),
        "share.check_g_convex": _ratio(span(gf + "check_g_convex")[1], traced),
    }
    print(f"{workload}: {decks} decks traced, {len(timings)} jobs, "
          f"{untraced:.3f} s untraced, {traced_ref:.3f} s traced (at the reference speed)")
    _print_shares(tracer, timings)
    return loop, metrics


_SHARE_SPANS = (
    "gfunction.GFunction.g_inverse",
    "gfunction.GFunction.check_phi_unimodal",
    "gfunction.GFunction.check_g_convex",
    "numerics.find_root",
    "curves.critical_pair",
)


def _print_shares(tracer, timings: list[tuple[str, float]]) -> None:
    """Per job class: inclusive shares of the key spans and the top self times."""
    from bench.trace import G_INVERSE_COLD_S

    by_class: dict[str, float] = {}
    for cls, dt in timings:
        by_class[cls] = by_class.get(cls, 0.0) + dt
    total = sum(by_class.values())
    for cls, busy in sorted(by_class.items(), key=lambda kv: -kv[1]):
        spans = tracer.spans[cls]
        counters = tracer.counters[cls]
        incl = {name: spans[name][1] for name in _SHARE_SPANS if name in spans}
        incl["g_inverse.cold"] = counters.get(G_INVERSE_COLD_S, 0.0)
        top = sorted(spans.items(), key=lambda kv: -kv[1][2])[:4]
        print(f"  class {cls}: {100 * busy / total:.1f}% of job time; inclusive "
              + ", ".join(f"{n.split('.')[-1]} {100 * t / busy:.1f}%" for n, t in incl.items())
              + "; self " + ", ".join(f"{n} {100 * r[2] / busy:.1f}%" for n, r in top))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    cap_threads()
    setup_s = None if trace else measure_setup()
    mb = import_maxbias()
    import maxbias.cli  # noqa: F401  (the CLI jobs call maxbias.cli.main)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    work = WORK_DIR / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            loop, metrics = traced_run(mb, workload, seed, work)
            measured = metrics
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            loop, metrics, measured = timed_run(mb, workload, seed, seconds, work)
            measured["setup_s"] = metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    for failure in loop.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(loop.failures)
    print(f"{workload} failed_frac {failed / loop.attempted:.6g} frac ({failed}/{loop.attempted} jobs)")
    for name, value in metrics.items():
        as_timed = "" if measured[name] == value else f" (as timed: {measured[name]:.6g})"
        print(f"{workload} {name} {value:.6g} {units[name]}{as_timed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.startswith("share.") or name.endswith("_frac"):
        return "frac"
    if "_per_" in name:
        return "ratio"
    return "count"


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in jobs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=jobs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "maxbias" / "__init__.py").is_file():
        print(f"error: no maxbias sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
