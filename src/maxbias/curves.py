"""Maximum asymptotic bias curves for S-, MM- and CM-estimates of regression.

All curves are driven by the contaminated-scale extremes of the defining
M-scale.  Writing r = eps / (1 - eps), the scale constraint E rho = b over an
eps-neighborhood pins

    sigma_{b,eps} = g^{-1}((b - eps) / (1 - eps))   (largest attainable scale)
    gamma_{b,eps} = g^{-1}(b / (1 - eps))           (smallest attainable scale)

and the maximum bias of the S-estimate is a fixed transform of their ratio,
set by the model's bias geometry: sqrt((sigma/gamma)^2 - 1) for GAUSSIAN,
sigma/gamma - 1 for CAUCHY; a model whose law has no geometry is rejected
with DomainError.  The CM-estimate adds the gap between two half-line infima
of the penalized objective

    A_{c,eps}(s) = c (1 - eps) g(s) + log s,

and the MM-estimate is bracketed between two inversions of the second-loss
profile g2.  The MM bracket collapses to an exact value whenever the upper
inversion does not exceed the lower one; that flag is carried per point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import numerics
from ._io import write_rows
from .errors import BracketError, DomainError, NumericalError
from .gfunction import GAUSSIAN, GFunction, Model
from .rho import RhoSpec, rho_eval

__all__ = [
    "S_KIND",
    "MM_KIND",
    "CM_KIND",
    "EstimatorSpec",
    "s_estimate",
    "mm_estimate",
    "cm_estimate",
    "breakdown_point",
    "BiasPoint",
    "BiasCurve",
    "CriticalPair",
    "scale_bounds",
    "s_maxbias",
    "scale_objective",
    "critical_pair",
    "objective_tail_inf",
    "cm_maxbias",
    "mm_bounds",
    "bias_curve",
    "write_curve_csv",
]

S_KIND = "s"
MM_KIND = "mm"
CM_KIND = "cm"

# Treat c (1 - eps) K within this distance of 1 as the monotone-objective
# case; the infimum is continuous there, so either branch is correct.
_MONOTONE_SLACK = 1e-10


def _breakdown(b: float) -> float:
    """The breakdown point min(b, 1 - b) of scale quantile b, which must lie in (0, 1)."""
    if not 0.0 < b < 1.0:
        raise DomainError(f"scale quantile b must lie in (0, 1), got {b}")
    return min(b, 1.0 - b)


@dataclass(frozen=True)
class EstimatorSpec:
    """An S, MM or CM regression estimate: loss(es), scale quantile b, CM tuning c."""

    kind: str
    b: float
    rho: RhoSpec | None = None
    rho1: RhoSpec | None = None
    rho2: RhoSpec | None = None
    c: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (S_KIND, MM_KIND, CM_KIND):
            raise DomainError(f"unknown estimator kind {self.kind!r}")
        _breakdown(self.b)
        if self.kind == MM_KIND:
            if self.rho1 is None or self.rho2 is None:
                raise DomainError("an MM estimate needs both rho1 and rho2")
            _require_dominating_losses(self.rho1, self.rho2)
        else:
            if self.rho is None:
                raise DomainError(f"a {self.kind.upper()} estimate needs rho")
        if self.kind == CM_KIND:
            if self.c is None or not self.c > 0:
                raise DomainError(f"a CM estimate needs a tuning constant c > 0, got {self.c}")


@functools.lru_cache(maxsize=256)
def _require_dominating_losses(rho1: RhoSpec, rho2: RhoSpec) -> None:
    # rho1 must dominate rho2 pointwise, strictly wherever not both saturated.
    # Cached per pair (a pair that fails raises again): mm_bounds runs once
    # per curve point.
    grid = np.linspace(1e-6, max(rho1.k, rho2.k), 1001)
    r1 = rho_eval(rho1, grid)
    r2 = rho_eval(rho2, grid)
    if np.any(r1 < r2 - 1e-12):
        raise DomainError("MM losses must satisfy rho1 >= rho2 everywhere")
    active = (r1 < 1.0 - 1e-12) | (r2 < 1.0 - 1e-12)
    if not np.all(r1[active] > r2[active]):
        raise DomainError("MM losses must satisfy rho1 > rho2 where not both saturated")


def s_estimate(rho: RhoSpec, b: float) -> EstimatorSpec:
    return EstimatorSpec(kind=S_KIND, b=b, rho=rho)


def mm_estimate(rho1: RhoSpec, rho2: RhoSpec, b: float) -> EstimatorSpec:
    return EstimatorSpec(kind=MM_KIND, b=b, rho1=rho1, rho2=rho2)


def cm_estimate(rho: RhoSpec, b: float, c: float) -> EstimatorSpec:
    return EstimatorSpec(kind=CM_KIND, b=b, rho=rho, c=c)


def breakdown_point(spec: EstimatorSpec) -> float:
    """min(b, 1 - b); for MM this is driven by the preliminary-scale quantile."""
    return _breakdown(spec.b)


@dataclass(frozen=True)
class BiasPoint:
    """Bias at one contamination level; lower == upper with exact=True unless MM."""

    eps: float
    lower: float
    upper: float
    exact: bool
    flag: str | None = None

    def __post_init__(self) -> None:
        if self.flag is None and not (
            math.isnan(self.lower) or self.lower <= self.upper
        ):
            raise DomainError(f"bias interval is reversed: [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class CriticalPair:
    """The two stationary scales of the penalized objective, around sigma_M."""

    sigma_l: float
    sigma_u: float


@dataclass(frozen=True)
class BiasCurve:
    estimator: EstimatorSpec
    model: Model
    points: list[BiasPoint]
    monotone_violations: list[int] = field(default_factory=list)


def scale_bounds(gf: GFunction, b: float, eps: float) -> tuple[float, float]:
    """(sigma_{b,eps}, gamma_{b,eps}): sup and inf of the M-scale over the neighborhood."""
    bp = _breakdown(b)
    if not 0.0 <= eps < bp:
        raise DomainError(f"eps must satisfy 0 <= eps < min(b, 1-b) = {bp:g}, got {eps}")
    sigma = gf.g_inverse((b - eps) / (1.0 - eps))
    gamma = gf.g_inverse(b / (1.0 - eps))
    return sigma, gamma


def _is_gaussian(model: Model) -> bool:
    """Whether the bias geometry is GAUSSIAN (else CAUCHY); raises without one."""
    if model.geometry is None:
        raise DomainError(f"no bias geometry is defined for the {model.law} law")
    return model.geometry == GAUSSIAN


def _ratio_to_bias(ratio: float, gaussian: bool) -> float:
    if gaussian:
        return math.sqrt(max(ratio * ratio - 1.0, 0.0))
    return ratio - 1.0


def _defined_point(b: float, eps: float, exact_beyond: bool = True) -> BiasPoint | None:
    """The point at eps = 0 (zero bias) or beyond breakdown (infinite bias), else None.

    b is checked first, so a point is never returned for b outside (0, 1).
    """
    bp = _breakdown(b)
    if eps == 0.0:
        return BiasPoint(eps, 0.0, 0.0, exact=True)
    if eps >= bp:
        return BiasPoint(eps, math.inf, math.inf, exact=exact_beyond, flag="beyond-breakdown")
    return None


def s_maxbias(gf: GFunction, b: float, eps: float) -> BiasPoint:
    """Maximum bias of the S-estimate at contamination eps (exact point)."""
    gaussian = _is_gaussian(gf.model)
    defined = _defined_point(b, eps)
    if defined is not None:
        return defined
    sigma, gamma = scale_bounds(gf, b, eps)
    value = _ratio_to_bias(sigma / gamma, gaussian)
    return BiasPoint(eps, value, value, exact=True)


def scale_objective(gf: GFunction, c: float, eps: float, s: float) -> float:
    """The penalized objective c (1 - eps) g(s) + log s."""
    return c * (1.0 - eps) * gf.g_eval(s) + math.log(s)


def _check_c(c: float) -> None:
    if not c > 0:
        raise DomainError(f"tuning constant must be positive, got {c}")


def _phi_level(gf: GFunction, c: float, eps: float) -> tuple[float, float] | None:
    """(sigma_M, 1/[(1-eps) c]), or None when phi never reaches that level."""
    _check_c(c)
    sigma_m, cap = gf.peak()
    if c * (1.0 - eps) * cap <= 1.0 + _MONOTONE_SLACK:
        return None
    return sigma_m, 1.0 / ((1.0 - eps) * c)


def _stationary_scale(gf: GFunction, sigma_m: float, target: float, factor: float) -> float:
    """The scale where phi falls to target, searched from sigma_M by factor 0.5 or 2."""
    edge = sigma_m
    for _ in range(200):
        edge *= factor
        if gf.phi_eval(edge) < target:
            lo, hi = sorted((edge, sigma_m))
            return numerics.find_root(lambda s: gf.phi_eval(s) - target, lo, hi)
    side = "lower" if factor < 1.0 else "upper"
    raise NumericalError(f"could not bracket the {side} stationary scale")


def critical_pair(gf: GFunction, c: float, eps: float) -> CriticalPair | None:
    """Both stationary scales (phi(s) = 1/[(1-eps) c]), or None in the monotone case."""
    level = _phi_level(gf, c, eps)
    if level is None:
        return None
    return CriticalPair(
        sigma_l=_stationary_scale(gf, *level, 0.5), sigma_u=_stationary_scale(gf, *level, 2.0)
    )


def objective_tail_inf(
    gf: GFunction, c: float, eps: float, lower: float
) -> tuple[float, float]:
    """(inf, argmin) of the penalized objective over [lower, infinity).

    The objective rises, dips between its two stationary scales, then rises
    again, so the infimum sits either at ``lower`` or at the upper stationary
    scale; in the monotone regime it is always at ``lower``.  Only the upper
    scale is solved: between the two the objective decreases, so a start
    there already loses the comparison below.
    """
    if not lower > 0:
        raise DomainError(f"half-line start must be positive, got {lower}")
    return _tail_inf(gf, c, eps, lower, _upper_stationary_scale(gf, c, eps))


def _upper_stationary_scale(gf: GFunction, c: float, eps: float) -> float | None:
    """The upper stationary scale of the objective, or None in the monotone case."""
    level = _phi_level(gf, c, eps)
    return None if level is None else _stationary_scale(gf, *level, 2.0)


def _tail_inf(
    gf: GFunction, c: float, eps: float, lower: float, sigma_u: float | None
) -> tuple[float, float]:
    """objective_tail_inf with the upper stationary scale sigma_u already solved."""
    at_lower = scale_objective(gf, c, eps, lower)
    if sigma_u is None or lower >= sigma_u:
        return at_lower, lower
    at_upper = scale_objective(gf, c, eps, sigma_u)
    if at_lower <= at_upper:
        return at_lower, lower
    return at_upper, sigma_u


def cm_maxbias(gf: GFunction, b: float, c: float, eps: float) -> BiasPoint:
    """Maximum bias of the CM-estimate at contamination eps (exact point).

    Both half-line infima share the one upper stationary scale of (c, eps).
    """
    gaussian = _is_gaussian(gf.model)
    _check_c(c)
    defined = _defined_point(b, eps)
    if defined is not None:
        return defined
    sigma, gamma = scale_bounds(gf, b, eps)
    sigma_u = _upper_stationary_scale(gf, c, eps)
    inf_from_sigma, _ = _tail_inf(gf, c, eps, sigma, sigma_u)
    inf_from_gamma, _ = _tail_inf(gf, c, eps, gamma, sigma_u)
    gap = inf_from_sigma - inf_from_gamma
    if gaussian:
        value = math.sqrt(max(math.expm1(2.0 * (c * eps + gap)), 0.0))
    else:
        value = math.expm1(c * eps + gap)
    return BiasPoint(eps, value, value, exact=True)


def mm_bounds(gf1: GFunction, gf2: GFunction, b: float, eps: float) -> BiasPoint:
    """Bias bracket [l, max(l, u)] of the MM-estimate; exact when u <= l.

    Both ends invert the second-loss profile g2 at an offset of
    r = eps/(1-eps); the bracket is meaningful only under the applicability
    condition g2(gamma) - g2(sigma) < r, which also forces the lower end to
    sit above the bias of the preliminary S-estimate.  A violated condition
    is reported as a flagged point carrying both sides.  Both profiles must
    be of one model, and rho1 must dominate rho2 (DomainError otherwise).
    """
    if gf1.model != gf2.model:
        raise DomainError(
            f"MM profiles must share one model, got {gf1.model} and {gf2.model}"
        )
    _require_dominating_losses(gf1.rho, gf2.rho)
    gaussian = _is_gaussian(gf1.model)
    defined = _defined_point(b, eps, exact_beyond=False)
    if defined is not None:
        return defined
    sigma, gamma = scale_bounds(gf1, b, eps)
    r = eps / (1.0 - eps)
    g2_sigma = gf2.g_eval(sigma)
    g2_gamma = gf2.g_eval(gamma)
    if not g2_gamma - g2_sigma < r:
        return BiasPoint(
            eps,
            math.nan,
            math.nan,
            exact=False,
            flag=f"mm-condition-violated: g2(gamma)-g2(sigma)={g2_gamma - g2_sigma:.9g} "
            f">= eps/(1-eps)={r:.9g}",
        )
    if g2_sigma + r >= 1.0:
        return BiasPoint(eps, math.inf, math.inf, exact=False, flag="mm-lower-unbounded")
    lower = _ratio_to_bias(sigma / gf2.g_inverse(g2_sigma + r), gaussian)
    if g2_gamma + r >= 1.0:
        upper_raw = math.inf
    else:
        upper_raw = _ratio_to_bias(gamma / gf2.g_inverse(g2_gamma + r), gaussian)
    s_bias = _ratio_to_bias(sigma / gamma, gaussian)
    if lower < s_bias - 1e-9:
        raise NumericalError(
            f"MM lower bound {lower:.9g} fell below the S bias {s_bias:.9g} at eps={eps}"
        )
    return BiasPoint(
        eps,
        lower,
        max(lower, upper_raw),
        exact=bool(upper_raw <= lower),
    )


def _point_for(spec: EstimatorSpec, model: Model, eps: float, cache: dict) -> BiasPoint:
    if spec.kind == S_KIND:
        return s_maxbias(_gf(spec.rho, model, cache), spec.b, eps)
    if spec.kind == CM_KIND:
        return cm_maxbias(_gf(spec.rho, model, cache), spec.b, spec.c, eps)
    return mm_bounds(_gf(spec.rho1, model, cache), _gf(spec.rho2, model, cache), spec.b, eps)


def _gf(rho: RhoSpec, model: Model, cache: dict) -> GFunction:
    key = (rho, model)
    if key not in cache:
        cache[key] = GFunction(rho, model)
    return cache[key]


def bias_curve(spec: EstimatorSpec, model: Model, eps_grid: Sequence[float]) -> BiasCurve:
    """Sweep the bias over an increasing eps grid; per-point failures become flags.

    Points at eps = 0 or beyond the breakdown point are filled in from the
    definition (zero bias, infinite bias) without computation.  Monotonicity
    of the lower and upper envelopes is verified afterwards (tolerance 1e-9)
    and violations are recorded, never raised.
    """
    grid = [float(e) for e in eps_grid]
    if any(e < 0 for e in grid) or any(x >= y for x, y in zip(grid, grid[1:])):
        raise DomainError("eps grid must be nonnegative and strictly increasing")
    cache: dict = {}
    points: list[BiasPoint] = []
    for eps in grid:
        try:
            points.append(_point_for(spec, model, eps, cache))
        except (NumericalError, BracketError) as exc:
            points.append(
                BiasPoint(eps, math.nan, math.nan, exact=False, flag=f"numerical-failure: {exc}")
            )
    violations = []
    for i in range(1, len(points)):
        a, bb = points[i - 1], points[i]
        if a.flag or bb.flag:
            continue
        if bb.lower < a.lower - 1e-9 or bb.upper < a.upper - 1e-9:
            violations.append(i)
    return BiasCurve(
        estimator=spec, model=model, points=points, monotone_violations=violations
    )


def write_curve_csv(curve: BiasCurve, out) -> None:
    """Export rows ``eps,lower,upper,exact``; +inf is rendered as ``inf``."""
    write_rows(
        out,
        ("eps", "lower", "upper", "exact"),
        ((p.eps, p.lower, p.upper, p.exact) for p in curve.points),
    )
