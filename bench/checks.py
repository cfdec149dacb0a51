"""Correctness checks on every benchmark job.

Two kinds of check:

* Seed-free invariants, applied to every job of every seed: curves are
  nondecreasing, an ``exact`` point has ``lower == upper``, the MM lower
  bound is at least the S bias, a tuned constant reaches its target when
  re-evaluated, the inadmissibility thresholds come out at 0.4094
  (biweight) and 0.3173 (step), 2.568 lies in the biweight b = 0.5
  dominance interval, and so on per job class.
* For the default seed, a comparison with reference outputs recorded at the
  seed commit: numeric cells to ``REL_TOL``, every other token (``exact``
  flags, verdicts, labels) and the exit code exactly.

A check returns a list of problems; an empty list means the job passed.
The re-evaluations call the library, so callers pause tracing around them.
"""

from __future__ import annotations

import math
import re

# CLI cells carry 9 significant digits; 1e-6 absorbs last-digit changes from
# another BLAS or libm and still flags any real change of a result.
REL_TOL = 1e-6
ABS_TOL = 1e-12

THRESHOLDS = {"biweight": 0.4094, "alpha-quantile": 0.3173}
THRESHOLD_TOL = 0.002  # the tolerance of the acceptance suite
CM61 = 2.568

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def _close(a: float, b: float, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def _compare_text(name: str, got: str, want: str) -> list[str]:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"{name}: {len(got_lines)} lines, reference has {len(want_lines)}"]
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        g_nums, w_nums = _NUMBER.findall(g), _NUMBER.findall(w)
        if _NUMBER.split(g) != _NUMBER.split(w) or len(g_nums) != len(w_nums):
            return [f"{name} line {i + 1}: {g!r} != reference {w!r}"]
        for a, b in zip(g_nums, w_nums):
            if not _close(float(a), float(b)):
                return [f"{name} line {i + 1}: {a} != reference {b} (rel tol {REL_TOL:g})"]
    return []


def compare_reference(job: dict, result: dict, ref: dict) -> list[str]:
    """Match a job's result against its recorded reference entry."""
    if ref["job"] != job:
        return ["job differs from the recorded reference job; the generator changed"]
    if result["exit"] != ref["exit"]:
        return [f"exit code {result['exit']} != reference {ref['exit']}"]
    problems = _compare_text("stdout", result["stdout"], ref["stdout"])
    for name, text in ref["files"].items():
        problems += _compare_text(name, result["files"].get(name, ""), text)
    return problems


def _csv(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}, got {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def _model(name: str):
    import maxbias

    return maxbias.cauchy_model() if name == "cauchy" else maxbias.gaussian_model()


def _nondecreasing(values: list[float]) -> bool:
    return all(
        b >= a or (math.isfinite(a) and b >= a - 1e-9 * max(1.0, abs(a)))
        for a, b in zip(values, values[1:])
    )


def _check_curve(p: dict, result: dict) -> list[str]:
    import maxbias

    rows = _csv(result["stdout"], "eps,lower,upper,exact")
    problems = []
    if len(rows) != p["n"]:
        problems.append(f"{len(rows)} points, expected {p['n']}")
    eps = [float(r[0]) for r in rows]
    lower = [float(r[1]) for r in rows]
    upper = [float(r[2]) for r in rows]
    exact = [r[3] for r in rows]
    bp = min(p["b"], 1.0 - p["b"])
    if not all(0.0 < e < bp for e in eps) or any(b <= a for a, b in zip(eps, eps[1:])):
        problems.append("eps grid is not increasing inside (0, breakdown)")
    # Only the MM bracket may open to +inf (its ends are inversions of g2
    # that leave (0, 1)); NaN marks a failed point in every curve.
    finite = [math.isfinite(x) or (p["estimator"] == "mm" and x == math.inf) for x in lower + upper]
    if not all(finite):
        problems.append("NaN or non-finite bias inside the breakdown domain")
    if any(lo > up for lo, up in zip(lower, upper)):
        problems.append("lower bias exceeds upper bias")
    if any(x not in ("true", "false") for x in exact):
        problems.append("exact flag is not true/false")
    if any(x == "true" and lo != up for x, lo, up in zip(exact, lower, upper)):
        problems.append("exact point with lower != upper")
    if p["estimator"] != "mm" and any(x != "true" for x in exact):
        problems.append(f"{p['estimator']} curve has an inexact point")
    if not (_nondecreasing(lower) and _nondecreasing(upper)):
        problems.append("bias curve decreases")
    if p["estimator"] == "mm" and not problems:
        s_curve = maxbias.bias_curve(
            maxbias.s_estimate(maxbias.biweight(p["k1"]), p["b"]), _model(p["model"]), eps
        )
        for e, lo, pt in zip(eps, lower, s_curve.points):
            if lo < pt.lower * (1.0 - 1e-8) - 1e-9:
                problems.append(f"MM lower bound {lo!r} below the S bias {pt.lower!r} at eps={e}")
                break
    return problems


def _check_phi(p: dict, result: dict) -> list[str]:
    rows = _csv(result["stdout"], "s,phi")
    s = [float(r[0]) for r in rows]
    phi = [float(r[1]) for r in rows]
    problems = []
    if len(rows) != p["n"]:
        problems.append(f"{len(rows)} rows, expected {p['n']}")
    elif not (_close(s[0], p["smin"], 1e-8) and _close(s[-1], p["smax"], 1e-8)):
        problems.append("grid does not span [smin, smax]")
    if any(b <= a for a, b in zip(s, s[1:])):
        problems.append("s grid is not increasing")
    if not all(math.isfinite(v) and v >= 0.0 for v in phi):
        problems.append("phi is negative or non-finite")
    return problems


def _check_check(p: dict, result: dict) -> list[str]:
    lines = result["stdout"].splitlines()
    problems = []
    if len(lines) != 7:
        problems.append(f"{len(lines)} check lines, expected 7")
    failing = [line for line in lines if ": pass" not in line]
    if failing:
        problems.append(f"failing checks: {failing}")
    if result["exit"] != 0:
        problems.append(f"exit code {result['exit']}")
    return problems


def _report(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines())


def _check_dominance(p: dict, result: dict) -> list[str]:
    rep = _report(result["stdout"])
    problems = []
    verdict = rep.get("verdict")
    if verdict not in ("Dominated", "Equal", "Inapplicable"):
        return [f"unknown verdict {verdict!r}"]
    c0, c0_limit = float(rep["c0"]), float(rep["c0_limit"])
    if not c0 <= c0_limit * (1.0 + REL_TOL):
        problems.append(f"c0 {c0} exceeds its eps -> 0 limit {c0_limit}")
    low, high = rep["dominance_interval_low"], rep["dominance_interval_high"]
    if (verdict == "Dominated") != (low != "" and high != ""):
        problems.append("dominance interval present iff verdict is Dominated: violated")
    if verdict == "Dominated" and not float(low) < float(high) == c0:
        problems.append(f"interval ({low}, {high}] is not (c1, c0]")
    if p["rho"] == "biweight" and p["b"] == 0.5:
        if verdict != "Dominated" or not float(low) < CM61 <= float(high):
            problems.append(f"{CM61} not in the biweight b = 0.5 interval ({low}, {high}]")
    rows = _csv(result["files"].get("c_profile.csv", ""), "eps,c_eps")
    eps = [float(r[0]) for r in rows]
    bp = min(p["b"], 1.0 - p["b"])
    if not rows or not all(0.0 < e < bp for e in eps) or any(b <= a for a, b in zip(eps, eps[1:])):
        problems.append("c(eps) profile grid is not increasing inside (0, breakdown)")
    if not all(math.isfinite(float(r[1])) and float(r[1]) > 0.0 for r in rows):
        problems.append("c(eps) profile has a non-positive or non-finite value")
    return problems


def _check_threshold(p: dict, result: dict) -> list[str]:
    value = float(_report(result["stdout"])["threshold"])
    want = THRESHOLDS[p["rho"]]
    if abs(value - want) > THRESHOLD_TOL:
        return [f"threshold {value} is not {want} +- {THRESHOLD_TOL}"]
    return []


def _check_tune(p: dict, result: dict) -> list[str]:
    import maxbias

    name, _, text = result["stdout"].strip().partition(" = ")
    value = float(text)
    unit_gf = maxbias.GFunction(maxbias.biweight(1.0), maxbias.gaussian_model())
    if p["estimator"] == "cm":
        spec = maxbias.cm_estimate(maxbias.biweight(1.0), p["b"], value)
        got, want, what = maxbias.gaussian_efficiency(spec), p["target_eff"], "efficiency"
    elif p["estimator"] == "mm":
        k1 = maxbias.tune("s", b=p["b"])
        spec = maxbias.mm_estimate(maxbias.biweight(k1), maxbias.biweight(value), p["b"])
        got, want, what = maxbias.gaussian_efficiency(spec), p["target_eff"], "efficiency"
    elif "b" in p:
        got, want, what = unit_gf.g_eval(value), p["b"], "g(k)"
    else:
        got, want, what = unit_gf.g_inverse(value), p["k"], "g^-1(b)"
    expected_name = {"cm": "c", "mm": "k2"}.get(p["estimator"], "k" if "b" in p else "b")
    problems = [] if name == expected_name else [f"tuned {name!r}, expected {expected_name!r}"]
    if not _close(got, want, 1e-6, 1e-7):
        problems.append(f"re-evaluated {what} {got!r} misses its target {want!r}")
    return problems


def _check_avar_row(p: dict, result: dict) -> list[str]:
    import maxbias

    rows = _csv(result["stdout"], "law,avar,binding,degenerate")
    problems = []
    if [r[0] for r in rows] != list(maxbias.LAW_NAMES):
        problems.append("rows do not cover the seven laws in order")
    avar = {r[0]: float(r[1]) for r in rows}
    if not all(math.isfinite(v) and v > 0.0 for v in avar.values()):
        problems.append("avar is non-positive or non-finite")
    if avar.get("NORM", 0.0) < 1.0 - 1e-9:
        problems.append(f"avar at the normal {avar.get('NORM')} is below the least-squares 1")
    expect_binding = ("True", "False") if p["kind"] == "cm" else ("None",)
    if any(r[2] not in expect_binding or r[3] != "False" for r in rows):
        problems.append("unexpected binding or degenerate flag")
    return problems


def _check_table(p: dict, result: dict) -> list[str]:
    rows = _csv(result["stdout"], "estimator,law,avar,binding")
    problems = []
    if len(rows) != 35:
        problems.append(f"{len(rows)} cells, expected 35")
    avar = {(r[0], r[1]): float(r[2]) for r in rows}
    if not all(math.isfinite(v) and v > 0.0 for v in avar.values()):
        problems.append("avar is non-positive or non-finite")
    for label in ("S95", "MM95", "CM95"):
        if not _close(avar.get((label, "NORM"), math.nan), 1.0 / 0.95, 1e-6):
            problems.append(f"{label} is not 95% efficient at the normal")
    if not 0.28 <= 1.0 / avar.get(("S28", "NORM"), math.inf) <= 0.295:
        problems.append("S28 efficiency at the normal is not 28.7%")
    if any((r[3] in ("true", "false")) != r[0].startswith("CM") for r in rows):
        problems.append("binding column set outside the CM rows")
    return problems


_CHECKS = {
    "curve": _check_curve,
    "phi": _check_phi,
    "check": _check_check,
    "dominance": _check_dominance,
    "threshold": _check_threshold,
    "tune": _check_tune,
    "avar_row": _check_avar_row,
    "table": _check_table,
}


def check_invariants(job: dict, result: dict) -> list[str]:
    """Seed-free checks of one job's result."""
    if job["cls"] != "check" and result["exit"] != 0:
        return [f"exit code {result['exit']}: {result['stderr'].strip()[:200]}"]
    try:
        return _CHECKS[job["cls"]](job["params"], result)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
