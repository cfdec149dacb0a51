"""When does a CM-estimate dominate the S-estimate with the same loss and b?

Under the Gaussian model the two bias curves differ by the sign of

    d_c(eps) = h_c(eps, gamma) - h_c(eps, sigma),
    h_c(eps, s0) = A_{c,eps}(s0) - inf_{s >= s0} A_{c,eps}(s),

so everything reduces to the geometry of the penalized objective A.  The
tuning constant has to clear 1/K (below it the constraint always binds and
the curves coincide) while staying at or below

    c_o = inf over eps of c(eps),   c(eps) = log(sigma_{b,eps}/gamma_{b,eps}) / eps,

above which the CM bias strictly exceeds the S bias somewhere.  g is
convex for every registry law: with a = k s, phi(s) = 2 a int_0^1 W(u)
f(a u) du for a loss weight W >= 0 (6 u^2 (1 - u^2)^2 for the biweight, a
unit mass at u = 1 for the step loss), so

    s^2 g''(s) = -2 a^2 int_0^1 u f'(a u) W(u) du >= 0

as every registry density f is nonincreasing on (0, inf).  Then the slope
condition

    phi(sigma_{b,0}) >= (1 - g(sigma_M))^2 (1 - b) / (2 - b - g(sigma_M))

guarantees that the infimum of c(eps) is attained in the eps -> 0 limit,
c_o = 1/phi(sigma_{b,0}), and that every c in (c_1, c_o] with

    c_1 = log(sigma_M / sigma_{b,0}) / (b - g(sigma_M))

buys a strict improvement somewhere: the S-estimate is then inadmissible
with respect to maximum bias.  This module evaluates all of these
quantities, assembles them into a report with a three-way verdict, and
locates the smallest b above which a loss family becomes inadmissible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._io import fmt, write_rows, write_text
from .curves import (
    _breakdown,
    cm_maxbias,
    objective_tail_inf,
    s_maxbias,
    scale_bounds,
    scale_objective,
)
from .errors import ConditionError, DomainError
from .gfunction import GAUSSIAN, GFunction, Model, gaussian_model
from .rho import RhoSpec

__all__ = [
    "DOMINATED",
    "EQUAL",
    "INAPPLICABLE",
    "c_of_eps",
    "c_zero_limit",
    "c_naught",
    "c_one",
    "slope_condition",
    "h_gap",
    "d_gap",
    "DominanceReport",
    "dominance_report",
    "inadmissibility_threshold",
    "RatioCurve",
    "cm_vs_s_ratio_curve",
    "write_report",
    "write_c_profile_csv",
]

DOMINATED = "Dominated"
EQUAL = "Equal"
INAPPLICABLE = "Inapplicable"

# Points of the exported c(eps) profile.
_PROFILE_POINTS = 64

# Relative width below which (c1, c0] counts as empty.  Just above
# b = g(sigma_M) the interval opens as (b - g(sigma_M))^2: at b = g(sigma_M)
# + 3e-6 its width is 2.4e-10 relative, and at the 9 significant digits the
# report prints both ends read the same, an interval no printed c lies in.
# A width above 1e-8 relative keeps the printed ends apart.
_RESOLUTION = 1e-8


def c_of_eps(gf: GFunction, b: float, eps: float) -> float:
    """c(eps) = log(sigma_{b,eps}/gamma_{b,eps}) / eps, the break-even tuning."""
    return float(_c_values(gf, b, np.array([eps], dtype=float))[0])


def _c_values(gf: GFunction, b: float, eps: np.ndarray) -> np.ndarray:
    """c_of_eps over an array of eps in (0, min(b, 1-b)): one batched inversion
    of sigma_{b,eps} = g^{-1}((b-eps)/(1-eps)) and gamma_{b,eps} = g^{-1}(b/(1-eps))."""
    bp = _breakdown(b)
    outside = ~((eps > 0.0) & (eps < bp))
    if outside.any():
        raise DomainError(f"eps must lie in (0, {bp:g}), got {eps[outside][0]}")
    scales = gf.g_inverse(np.concatenate(((b - eps) / (1.0 - eps), b / (1.0 - eps))))
    sigma, gamma = np.split(scales, 2)
    return np.log(sigma / gamma) / eps


def c_zero_limit(gf: GFunction, b: float) -> float:
    """The eps -> 0 limit of c(eps): 1 / phi(g^{-1}(b))."""
    _breakdown(b)
    return 1.0 / gf.phi_eval(gf.g_inverse(b))


def _profile_grid(bp: float, n: int) -> np.ndarray:
    # Log-spaced toward both endpoints of (0, bp): the infimum often sits at
    # the eps -> 0 boundary, and c(eps) diverges at eps -> bp.
    half = n // 2
    left = np.logspace(-8, math.log10(0.5), half)
    right = 1.0 - np.logspace(-8, math.log10(0.5), half)[::-1]
    t = np.unique(np.concatenate((left, right)))
    return bp * t


def c_naught(gf: GFunction, b: float, n: int = 512) -> float:
    """inf of c(eps) over (0, min(b, 1-b)).

    Where the slope condition holds this is the eps -> 0 limit, by the
    theorem in the module docstring; otherwise the smaller of that limit and
    the minimum of c(eps) over an n-point grid.
    """
    return _c_naught(gf, b, c_zero_limit(gf, b), slope_condition(gf, b), n)


def _c_naught(gf: GFunction, b: float, limit: float, slope: bool, n: int = 512) -> float:
    if slope:
        return limit
    values = _c_values(gf, b, _profile_grid(_breakdown(b), n))
    return min(float(np.min(values)), limit)


def c_one(gf: GFunction, b: float) -> float:
    """log(sigma_M / sigma_{b,0}) / (b - g(sigma_M)); needs g(sigma_M) < b."""
    _breakdown(b)
    sigma_m, _ = gf.peak()
    return _c_one(b, sigma_m, gf.g_eval(sigma_m), gf.g_inverse(b))


def _c_one(b: float, sigma_m: float, g_at_peak: float, sigma_b0: float) -> float:
    if not g_at_peak < b:
        raise ConditionError(
            f"c_1 requires g(sigma_M) < b; here g(sigma_M) = {g_at_peak:.6g} and b = {b:g}"
        )
    return math.log(sigma_m / sigma_b0) / (b - g_at_peak)


def slope_condition(gf: GFunction, b: float) -> bool:
    """phi(sigma_{b,0}) >= (1-g(sigma_M))^2 (1-b) / (2 - b - g(sigma_M)).

    This bound keeps the derivative of eps*c(eps) above 1/phi(sigma_{b,0})
    everywhere, so the infimum of c(eps) is attained in the eps -> 0 limit.
    """
    _breakdown(b)
    g_at_peak = gf.g_eval(gf.peak()[0])
    return _hypotheses(b, g_at_peak, gf.phi_eval(gf.g_inverse(b)))["slope-condition"]


def h_gap(gf: GFunction, c: float, eps: float, sigma: float) -> float:
    """h_c(eps, sigma): how much the objective at sigma exceeds its tail infimum."""
    tail_inf, _ = objective_tail_inf(gf, c, eps, sigma)
    return scale_objective(gf, c, eps, sigma) - tail_inf


def d_gap(gf: GFunction, b: float, c: float, eps: float) -> float:
    """d_c(eps) = h_c(eps, gamma) - h_c(eps, sigma); its sign orders the bias curves."""
    sigma, gamma = scale_bounds(gf, b, eps)
    return h_gap(gf, c, eps, gamma) - h_gap(gf, c, eps, sigma)


@dataclass(frozen=True)
class DominanceReport:
    b: float
    sigma_m: float
    cap_k: float
    g_sigma_m: float
    c0: float
    c0_limit: float
    c1: float | None
    lower_bound_c0: float
    slope_condition: bool
    g_convex: bool
    g_sigma_m_le_b: bool
    dominance_interval: tuple[float, float] | None
    verdict: str
    failed_hypotheses: tuple[str, ...]
    c_profile: np.ndarray  # rows (eps, c(eps))


def dominance_report(gf: GFunction, b: float) -> DominanceReport:
    """Assemble the full tuning diagnosis for the (loss, b) pair under its model."""
    bp = _breakdown(b)
    sigma_m, cap = gf.peak()
    g_at_peak = gf.g_eval(sigma_m)
    sigma_b0 = gf.g_inverse(b)
    phi_b0 = gf.phi_eval(sigma_b0)

    profile_eps = _profile_grid(bp, _PROFILE_POINTS)
    profile = np.column_stack((profile_eps, _c_values(gf, b, profile_eps)))
    hypotheses = _hypotheses(b, g_at_peak, phi_b0)
    c0_lim = 1.0 / phi_b0  # c_zero_limit
    c0 = _c_naught(gf, b, c0_lim, hypotheses["slope-condition"])
    lower_bound = (1.0 - b) / cap + b / phi_b0

    failed = [name for name, holds in hypotheses.items() if not holds]

    c1_value: float | None
    try:
        c1_value = _c_one(b, sigma_m, g_at_peak, sigma_b0)
    except ConditionError:
        c1_value = None

    if not failed:
        if c1_value is not None and c1_value < c0 * (1.0 - _RESOLUTION):
            interval = (c1_value, c0)
            verdict = DOMINATED
        else:
            interval = None
            # Hypotheses hold but no tuning beats 1/K equality by more than
            # the report resolves.
            verdict = EQUAL
    else:
        interval = None
        verdict = INAPPLICABLE

    return DominanceReport(
        b=b,
        sigma_m=sigma_m,
        cap_k=cap,
        g_sigma_m=g_at_peak,
        c0=c0,
        c0_limit=c0_lim,
        c1=c1_value,
        lower_bound_c0=lower_bound,
        slope_condition=hypotheses["slope-condition"],
        g_convex=hypotheses["g-convex"],
        g_sigma_m_le_b=hypotheses["g(sigma_M)<=b"],
        dominance_interval=interval,
        verdict=verdict,
        failed_hypotheses=tuple(failed),
        c_profile=profile,
    )


def _hypotheses(b: float, g_at_peak: float, phi_b0: float) -> dict[str, bool]:
    """Each dominance hypothesis at b from g(sigma_M) and phi(sigma_{b,0}), by name
    in report order; g is convex by the theorem in the module docstring."""
    rhs = (1.0 - g_at_peak) ** 2 * (1.0 - b) / (2.0 - (b + g_at_peak))
    return {
        "g-convex": True,
        "slope-condition": bool(phi_b0 >= rhs),
        "g(sigma_M)<=b": bool(g_at_peak <= b),
    }


def inadmissibility_threshold(rho: RhoSpec, model: Model | None = None) -> float:
    """Smallest b (to 1e-4) above which the loss family's S-estimate is dominated.

    Bisection on the conjunction of the three dominance hypotheses; which
    clause binds depends on the family, so the conjunction itself is
    bisected.  Models of GAUSSIAN bias geometry only.
    """
    model = model or gaussian_model()
    if model.geometry != GAUSSIAN:
        raise DomainError(
            "the inadmissibility threshold is defined under the Gaussian bias geometry"
        )
    gf = GFunction(rho, model)
    g_at_peak = gf.g_eval(gf.peak()[0])

    def hypotheses_hold(b: float) -> bool:
        return all(_hypotheses(b, g_at_peak, gf.phi_eval(gf.g_inverse(b))).values())

    if not hypotheses_hold(0.5):
        raise ConditionError(
            f"the dominance hypotheses never hold on (0, 0.5] for {rho.family}"
        )
    hi = 0.5
    lo = None
    for b in np.arange(0.495, 0.0, -0.005):
        if hypotheses_hold(float(b)):
            hi = float(b)
        else:
            lo = float(b)
            break
    if lo is None:
        return hi  # holds on the whole scanned range
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if hypotheses_hold(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RatioCurve:
    rows: list[tuple[float, float]]  # (eps, B_CM / B_S)
    skipped: list[tuple[float, str]]
    min_ratio: float


def cm_vs_s_ratio_curve(
    gf: GFunction, b: float, c: float, eps_grid: Sequence[float]
) -> RatioCurve:
    """B_CM / B_S over a grid; points with vanishing S bias are skipped with a flag."""
    rows: list[tuple[float, float]] = []
    skipped: list[tuple[float, str]] = []
    for eps in eps_grid:
        s_point = s_maxbias(gf, b, float(eps))
        if not math.isfinite(s_point.lower) or s_point.lower < 1e-12:
            skipped.append((float(eps), "s-bias-vanishes"))
            continue
        cm_point = cm_maxbias(gf, b, c, float(eps))
        rows.append((float(eps), cm_point.lower / s_point.lower))
    if not rows:
        raise DomainError("no usable grid points for the ratio curve")
    return RatioCurve(rows=rows, skipped=skipped, min_ratio=min(r for _, r in rows))


def write_report(report: DominanceReport, out) -> None:
    """Flat ``key=value`` lines, one per report field (profile exported separately)."""
    interval = report.dominance_interval
    items = [
        ("b", report.b),
        ("sigma_m", report.sigma_m),
        ("cap_k", report.cap_k),
        ("g_sigma_m", report.g_sigma_m),
        ("c0", report.c0),
        ("c0_limit", report.c0_limit),
        ("c1", report.c1),
        ("lower_bound_c0", report.lower_bound_c0),
        ("slope_condition", report.slope_condition),
        ("g_convex", report.g_convex),
        ("g_sigma_m_le_b", report.g_sigma_m_le_b),
        ("dominance_interval_low", interval[0] if interval else None),
        ("dominance_interval_high", interval[1] if interval else None),
        ("verdict", report.verdict),
        ("failed_hypotheses", ";".join(report.failed_hypotheses)),
    ]
    write_text(out, "".join(f"{key}={fmt(value)}\n" for key, value in items))


def write_c_profile_csv(report: DominanceReport, out) -> None:
    """The c(eps) profile as CSV rows ``eps,c_eps``."""
    write_rows(out, ("eps", "c_eps"), report.c_profile)
