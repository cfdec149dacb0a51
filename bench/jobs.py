"""Seeded job streams for the three benchmark workloads.

A workload is an endless sequence of *decks*.  Every deck of a workload holds
the same number of jobs of each class, in a seeded order and with seeded
parameters, so the mix of a run is exact whenever it stops at a deck boundary
and only the parameters change from seed to seed.  The per-class counts are
chosen so that the median and the 90th percentile of job latency fall well
inside one job class, never on the gap between two classes.

A job is a plain dict, so it can be stored next to its reference output:

* ``cls``: the job class (``curve``, ``phi``, ``check``, ``dominance``,
  ``threshold``, ``tune``, ``avar_row``, ``table``);
* ``argv``: the CLI arguments, for jobs that call ``maxbias.cli.main``;
* ``call``: the library entry point, for the other jobs;
* ``params``: the generated parameters, read by the correctness checks.

Every float parameter is rounded to six significant digits before it is
written into ``argv``, so the CLI parses exactly the value in ``params``.
"""

from __future__ import annotations

import random

WORKLOADS = ("curves", "diagnostics", "efficiency")

# Token in ``argv`` replaced by the run's scratch directory.
WORK_TOKEN = "@work"

# Decks per traced run (and per recorded reference); chosen so that one
# untraced pass over them takes a few seconds on a 2-core machine.
TRACE_DECKS = {"curves": 5, "diagnostics": 4, "efficiency": 1}


def _r(x: float) -> float:
    return float(f"{x:.6g}")


class _Strata:
    """Stratified draws for ``m`` jobs of one class in one deck.

    Within every ``m`` draws of one key, exactly one value falls in each of
    the ``m`` equal bins of [0, 1).  Deck-to-deck (and so seed-to-seed)
    changes in the cost of a deck stay small while every parameter still
    covers its whole range.
    """

    def __init__(self, rng: random.Random, m: int):
        self.rng, self.m, self.pools = rng, m, {}

    def u(self, key: str) -> float:
        pool = self.pools.get(key)
        if not pool:
            pool = [(i + self.rng.random()) / self.m for i in range(self.m)]
            self.rng.shuffle(pool)
            self.pools[key] = pool
        return pool.pop()

    def uniform(self, key: str, lo: float, hi: float) -> float:
        return _r(lo + (hi - lo) * self.u(key))

    def chance(self, key: str, p: float) -> bool:
        return self.u(key) < p

    def randint(self, key: str, lo: int, hi: int) -> int:
        return lo + int(self.u(key) * (hi - lo + 1))


def _model(st: _Strata) -> str:
    return "cauchy" if st.chance("model", 0.3) else "gaussian"


def _curve_job(st: _Strata, estimator: str) -> dict:
    model = _model(st)
    b = st.uniform("b", 0.25, 0.5)
    # n points eps = step, 2 step, ..., n step with n step < min(b, 1 - b).
    n = st.randint("n", 10, 49)
    step = _r(min(b, 1.0 - b) / (n + 1) * (1.0 - 1e-6))
    grid = f"{step!r}:{step * n!r}:{step!r}"
    params = {"estimator": estimator, "model": model, "b": b, "step": step, "n": n}
    argv = ["curve", "--estimator", estimator, "--b", repr(b), "--model", model, "--grid", grid]
    if estimator == "mm":
        k1, k2 = st.uniform("k1", 1.2, 2.0), st.uniform("k2", 3.5, 5.5)
        params.update(rho="biweight", k1=k1, k2=k2)
        argv += ["--k1", repr(k1), "--k2", repr(k2)]
    else:
        step_loss = st.chance("rho", 0.25)
        rho = "alpha-quantile" if step_loss else "biweight"
        k = st.uniform("k", 0.5, 2.0) if step_loss else st.uniform("k", 0.8, 5.0)
        params.update(rho=rho, k=k)
        argv += ["--rho", rho, "--k", repr(k)]
        if estimator == "cm":
            # c is scale-free: the same range suits every cutoff k.
            c = st.uniform("c", 1.5, 3.5) if step_loss else st.uniform("c", 2.0, 5.0)
            params["c"] = c
            argv += ["--c", repr(c)]
    return {"cls": "curve", "argv": argv, "params": params}


def _phi_job(st: _Strata) -> dict:
    rho = "alpha-quantile" if st.chance("rho", 0.25) else "biweight"
    k, model = st.uniform("k", 0.8, 5.0), _model(st)
    smin, smax = _r(10 ** st.uniform("smin", -3, -1)), _r(10 ** st.uniform("smax", 1, 3))
    n = st.randint("n", 50, 200)
    argv = ["phi", "--rho", rho, "--k", repr(k), "--model", model,
            "--smin", repr(smin), "--smax", repr(smax), "--n", str(n)]
    params = {"rho": rho, "k": k, "model": model, "smin": smin, "smax": smax, "n": n}
    return {"cls": "phi", "argv": argv, "params": params}


def _check_job(st: _Strata) -> dict:
    rho = "alpha-quantile" if st.chance("rho", 0.5) else "biweight"
    k, model = st.uniform("k", 0.5, 5.0), _model(st)
    argv = ["check", "--rho", rho, "--k", repr(k), "--model", model]
    return {"cls": "check", "argv": argv, "params": {"rho": rho, "k": k, "model": model}}


def _dominance_job(st: _Strata, rho: str) -> dict:
    k = st.uniform("k", 0.5, 5.0)
    # Half the jobs sit at b = 0.5, where the biweight interval must hold 2.568.
    b = 0.5 if st.chance("b=0.5", 0.5) else st.uniform("b", 0.2, 0.5)
    argv = ["dominance", "--rho", rho, "--k", repr(k), "--b", repr(b),
            "--profile-out", f"{WORK_TOKEN}/c_profile.csv"]
    return {"cls": "dominance", "argv": argv, "params": {"rho": rho, "k": k, "b": b}}


def _threshold_job(st: _Strata, rho: str) -> dict:
    # The threshold is invariant in k; drawing k keeps inputs distinct.
    return {"cls": "threshold", "call": "inadmissibility_threshold",
            "params": {"rho": rho, "k": st.uniform("k", 0.5, 5.0)}}


def _tune_job(st: _Strata, kind: str) -> dict:
    if kind == "cm":
        b, eff = st.uniform("b", 0.3, 0.5), st.uniform("eff", 0.85, 0.97)
        argv = ["tune", "--estimator", "cm", "--b", repr(b), "--target-eff", repr(eff)]
        params = {"estimator": "cm", "b": b, "target_eff": eff}
    elif kind == "mm":
        b, eff = st.uniform("b", 0.3, 0.5), st.uniform("eff", 0.85, 0.99)
        argv = ["tune", "--estimator", "mm", "--b", repr(b), "--target-eff", repr(eff)]
        params = {"estimator": "mm", "b": b, "target_eff": eff}
    elif kind == "s-b":
        b = st.uniform("b", 0.1, 0.5)
        argv = ["tune", "--estimator", "s", "--b", repr(b)]
        params = {"estimator": "s", "b": b}
    else:
        k = st.uniform("k", 1.5, 6.0)
        argv = ["tune", "--estimator", "s", "--k", repr(k)]
        params = {"estimator": "s", "k": k}
    return {"cls": "tune", "argv": argv, "params": params}


def _avar_row_job(st: _Strata, kind: str) -> dict:
    if kind == "s":
        params = {"kind": "s", "k": st.uniform("k", 1.5, 5.0), "b": st.uniform("b", 0.1, 0.5)}
    elif kind == "mm":
        params = {"kind": "mm", "k1": st.uniform("k1", 1.3, 2.5),
                  "k2": st.uniform("k2", 3.5, 5.5), "b": st.uniform("b", 0.3, 0.5)}
    else:
        params = {"kind": "cm", "k": 1.0, "b": st.uniform("b", 0.3, 0.5),
                  "c": st.uniform("c", 2.0, 6.0)}
    return {"cls": "avar_row", "call": "avar_table", "params": params}


def _many(rng: random.Random, make, args: list) -> list[dict]:
    """One job per entry of ``args``; jobs with equal args share strata."""
    strata = {a: _Strata(rng, args.count(a)) for a in dict.fromkeys(args)}
    return [make(strata[a], *([a] if a is not None else [])) for a in args]


def _curves_deck(rng: random.Random) -> list[dict]:
    # 16 curve jobs (5 S, 5 MM, 6 CM), 2 phi, 2 check: both percentiles
    # land among the curve jobs, whose latency is continuous in grid length.
    return (_many(rng, _curve_job, ["s"] * 5 + ["mm"] * 5 + ["cm"] * 6)
            + _many(rng, _phi_job, [None] * 2) + _many(rng, _check_job, [None] * 2))


def _diagnostics_deck(rng: random.Random) -> list[dict]:
    # 6 dominance reports (4 biweight, 2 step) and one threshold per family.
    return (_many(rng, _dominance_job, ["biweight"] * 4 + ["alpha-quantile"] * 2)
            + _many(rng, _threshold_job, ["biweight", "alpha-quantile"]))


def _efficiency_deck(rng: random.Random) -> list[dict]:
    # Latency classes, fastest first: mm and s tunes 8, cm tunes 10, S and MM
    # avar rows 2, CM avar rows 4, the table 1.  The median (12.5th of 25)
    # falls mid-way through the cm tunes and the 90th percentile (22.5th)
    # mid-way through the CM rows.
    return (_many(rng, _tune_job, ["mm"] * 3 + ["s-b"] * 3 + ["s-k"] * 2 + ["cm"] * 10)
            + _many(rng, _avar_row_job, ["s", "mm"] + ["cm"] * 4)
            + [{"cls": "table", "argv": ["table"], "params": {}}])


_DECKS = {
    "curves": _curves_deck,
    "diagnostics": _diagnostics_deck,
    "efficiency": _efficiency_deck,
}


def deck(workload: str, seed: int, index: int) -> list[dict]:
    """The jobs of deck ``index`` of a workload, in run order."""
    if workload not in _DECKS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}:{index}")
    jobs = _DECKS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def warmup_jobs(workload: str, seed: int) -> list[dict]:
    """One job of each class from a stream separate from the measured decks."""
    rng = random.Random(f"{workload}:{seed}:warmup")
    first: dict[str, dict] = {}
    for job in _DECKS[workload](rng):
        first.setdefault(job["cls"], job)
    return list(first.values())
