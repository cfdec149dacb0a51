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

Computation.  A curve is one array pass over the interior of its eps grid
(0 < eps < min(b, 1-b)); eps = 0 and eps beyond breakdown are filled in
from the definition.  The extreme scales of every eps come from one array
inversion of g (2n targets).  MM then evaluates g2 at all of them in one
scan and inverts g2 at both bracket ends of every point in one more call;
CM evaluates the objective at all of them in one scan of g and solves,
per eps, the one upper stationary scale that both half-line infima share.
A target that fails to bracket or converge fails only its own point.
``s_maxbias``, ``cm_maxbias`` and ``mm_bounds`` are the one-eps case of the
same kernels, and raise the error that ``bias_curve`` turns into a
``numerical-failure`` flag.  ``scale_bounds`` is the float inversion of one
eps, for callers that need the two scales themselves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import numerics
from ._io import write_rows
from .errors import BracketError, DomainError, MaxbiasError, NumericalError
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


def _extreme_scales(gf: GFunction, b: float, eps: np.ndarray) -> np.ndarray:
    """sigma_{b,eps} for every interior eps, then gamma_{b,eps}, from one
    inversion; NaN where it failed."""
    return gf._invert(np.concatenate(((b - eps) / (1.0 - eps), b / (1.0 - eps))))


def _unsolved(eps: float) -> NumericalError:
    return NumericalError(f"g_inverse did not bracket or converge at eps = {eps}")


def _is_gaussian(model: Model) -> bool:
    """Whether the bias geometry is GAUSSIAN (else CAUCHY); raises without one."""
    if model.geometry is None:
        raise DomainError(f"no bias geometry is defined for the {model.law} law")
    return model.geometry == GAUSSIAN


def _ratio_to_bias(ratio: np.ndarray, gaussian: bool) -> np.ndarray:
    if gaussian:
        return np.sqrt(np.maximum(ratio * ratio - 1.0, 0.0))
    return ratio - 1.0


# A point of a sweep, or the error that stopped its computation.
_Result = BiasPoint | MaxbiasError


def _sweep(
    b: float, grid: Sequence[float], kernel: Callable[[np.ndarray], list[_Result]],
    exact_beyond: bool = True,
) -> list[_Result]:
    """Points over grid: zero bias at eps = 0, infinite bias from breakdown on,
    and the interior eps in one call of kernel.  b is checked first."""
    bp = _breakdown(b)
    eps = np.asarray(grid, dtype=float)
    if not np.all(eps >= 0.0):
        raise DomainError(f"eps must be nonnegative, got {eps[~(eps >= 0.0)][0]}")
    inner = (eps > 0.0) & (eps < bp)
    computed = iter(kernel(eps[inner]) if inner.any() else ())
    return [
        next(computed) if interior else _defined_point(e, exact_beyond)
        for e, interior in zip(eps.tolist(), inner)
    ]


def _defined_point(eps: float, exact_beyond: bool) -> BiasPoint:
    """The point at eps = 0 (zero bias) or from breakdown on (infinite bias)."""
    if eps == 0.0:
        return BiasPoint(eps, 0.0, 0.0, exact=True)
    return BiasPoint(eps, math.inf, math.inf, exact=exact_beyond, flag="beyond-breakdown")


def _one(results: list[_Result]) -> BiasPoint:
    """The point of a one-eps sweep; its error is raised."""
    (result,) = results
    if isinstance(result, MaxbiasError):
        raise result
    return result


def _s_sweep(gf: GFunction, b: float, grid: Sequence[float]) -> list[_Result]:
    gaussian = _is_gaussian(gf.model)

    def kernel(eps: np.ndarray) -> list[_Result]:
        sigma, gamma = np.split(_extreme_scales(gf, b, eps), 2)
        bias = _ratio_to_bias(sigma / gamma, gaussian)
        return [
            _unsolved(e) if math.isnan(x) else BiasPoint(e, x, x, exact=True)
            for e, x in zip(eps.tolist(), bias.tolist())
        ]

    return _sweep(b, grid, kernel)


def s_maxbias(gf: GFunction, b: float, eps: float) -> BiasPoint:
    """Maximum bias of the S-estimate at contamination eps (exact point)."""
    return _one(_s_sweep(gf, b, [eps]))


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
    sigma_u = _upper_stationary_scale(gf, c, eps)
    at_upper = _objective_beyond(gf, c, eps, lower, sigma_u)
    return _tail_inf(scale_objective(gf, c, eps, lower), lower, at_upper, sigma_u)


def _upper_stationary_scale(gf: GFunction, c: float, eps: float) -> float | None:
    """The upper stationary scale of the objective, or None in the monotone case."""
    level = _phi_level(gf, c, eps)
    return None if level is None else _stationary_scale(gf, *level, 2.0)


def _objective_beyond(
    gf: GFunction, c: float, eps: float, lower: float, sigma_u: float | None
) -> float | None:
    """The objective at sigma_u if sigma_u lies above lower, else None."""
    if sigma_u is None or lower >= sigma_u:
        return None
    return scale_objective(gf, c, eps, sigma_u)


def _tail_inf(
    at_lower: float, lower: float, at_upper: float | None, sigma_u: float | None
) -> tuple[float, float]:
    """objective_tail_inf from the objective at lower and (None: not above
    lower) at the upper stationary scale sigma_u."""
    if at_upper is None or lower >= sigma_u or at_lower <= at_upper:
        return at_lower, lower
    return at_upper, sigma_u


def _cm_sweep(gf: GFunction, b: float, c: float, grid: Sequence[float]) -> list[_Result]:
    gaussian = _is_gaussian(gf.model)
    _check_c(c)

    def kernel(eps: np.ndarray) -> list[_Result]:
        # The objective at both ends from one scan of g; then, per eps, the
        # one upper stationary scale that both half-line infima share.
        scales = _extreme_scales(gf, b, eps)
        solved = ~np.isnan(scales)
        weight = c * (1.0 - np.tile(eps, 2)[solved])
        at = np.full_like(scales, np.nan)
        at[solved] = weight * gf._scan(gf._g_at, scales[solved]) + np.log(scales[solved])
        out: list[_Result] = []
        for e, sigma, gamma, at_sigma, at_gamma in zip(
            eps.tolist(), *np.split(scales, 2), *np.split(at, 2)
        ):
            if math.isnan(sigma) or math.isnan(gamma):
                out.append(_unsolved(e))
                continue
            try:
                sigma_u = _upper_stationary_scale(gf, c, e)
            except (NumericalError, BracketError) as exc:
                out.append(exc)
                continue
            # gamma < sigma: the objective at sigma_u serves both ends.
            at_upper = _objective_beyond(gf, c, e, gamma, sigma_u)
            gap = (
                _tail_inf(at_sigma, sigma, at_upper, sigma_u)[0]
                - _tail_inf(at_gamma, gamma, at_upper, sigma_u)[0]
            )
            if gaussian:
                value = math.sqrt(max(math.expm1(2.0 * (c * e + gap)), 0.0))
            else:
                value = math.expm1(c * e + gap)
            out.append(BiasPoint(e, value, value, exact=True))
        return out

    return _sweep(b, grid, kernel)


def cm_maxbias(gf: GFunction, b: float, c: float, eps: float) -> BiasPoint:
    """Maximum bias of the CM-estimate at contamination eps (exact point).

    Both half-line infima share the one upper stationary scale of (c, eps).
    """
    return _one(_cm_sweep(gf, b, c, [eps]))


def _mm_sweep(gf1: GFunction, gf2: GFunction, b: float, grid: Sequence[float]) -> list[_Result]:
    if gf1.model != gf2.model:
        raise DomainError(
            f"MM profiles must share one model, got {gf1.model} and {gf2.model}"
        )
    _require_dominating_losses(gf1.rho, gf2.rho)
    gaussian = _is_gaussian(gf1.model)

    def kernel(eps: np.ndarray) -> list[_Result]:
        r = eps / (1.0 - eps)
        scales = _extreme_scales(gf1, b, eps)
        sigma, gamma = np.split(scales, 2)
        solved = ~(np.isnan(sigma) | np.isnan(gamma))
        g2 = np.full_like(scales, np.nan)
        both = np.tile(solved, 2)
        g2[both] = gf2._scan(gf2._g_at, scales[both])
        g2_sigma, g2_gamma = np.split(g2, 2)
        gap = g2_gamma - g2_sigma
        violated = solved & ~(gap < r)
        unbounded = solved & ~violated & (g2_sigma + r >= 1.0)
        bounded = solved & ~violated & ~unbounded
        has_upper = bounded & (g2_gamma + r < 1.0)
        # Both ends of the bracket invert g2 at an offset of r, in one call.
        need = np.concatenate((bounded, has_upper))
        ends = np.full_like(scales, np.nan)
        if need.any():
            ends[need] = gf2._invert(np.concatenate((g2_sigma + r, g2_gamma + r))[need])
        lower_end, upper_end = np.split(ends, 2)
        lower = _ratio_to_bias(sigma / lower_end, gaussian)
        upper_raw = np.where(has_upper, _ratio_to_bias(gamma / upper_end, gaussian), math.inf)
        s_bias = _ratio_to_bias(sigma / gamma, gaussian)
        out: list[_Result] = []
        for i, e in enumerate(eps.tolist()):
            lo, up = float(lower[i]), float(upper_raw[i])
            if not solved[i] or (bounded[i] and (math.isnan(lo) or math.isnan(up))):
                out.append(_unsolved(e))
            elif violated[i]:
                out.append(BiasPoint(
                    e,
                    math.nan,
                    math.nan,
                    exact=False,
                    flag=f"mm-condition-violated: g2(gamma)-g2(sigma)={gap[i]:.9g} "
                    f">= eps/(1-eps)={r[i]:.9g}",
                ))
            elif unbounded[i]:
                out.append(
                    BiasPoint(e, math.inf, math.inf, exact=False, flag="mm-lower-unbounded")
                )
            elif lo < s_bias[i] - 1e-9:
                out.append(NumericalError(
                    f"MM lower bound {lo:.9g} fell below the S bias {s_bias[i]:.9g} "
                    f"at eps={e}"
                ))
            else:
                out.append(BiasPoint(e, lo, max(lo, up), exact=up <= lo))
        return out

    return _sweep(b, grid, kernel, exact_beyond=False)


def mm_bounds(gf1: GFunction, gf2: GFunction, b: float, eps: float) -> BiasPoint:
    """Bias bracket [l, max(l, u)] of the MM-estimate; exact when u <= l.

    Both ends invert the second-loss profile g2 at an offset of
    r = eps/(1-eps); the bracket is meaningful only under the applicability
    condition g2(gamma) - g2(sigma) < r, which also forces the lower end to
    sit above the bias of the preliminary S-estimate.  A violated condition
    is reported as a flagged point carrying both sides.  Both profiles must
    be of one model, and rho1 must dominate rho2 (DomainError otherwise).
    """
    return _one(_mm_sweep(gf1, gf2, b, [eps]))


@functools.lru_cache(maxsize=32)
def _gf(rho: RhoSpec, model: Model) -> GFunction:
    """One GFunction per (rho, model) for the process, at most 32 pairs.

    ``tune("s")``, ``tune("cm")``, ``gaussian_efficiency``, ``avar_table`` and
    ``reference_estimators`` share them.  No result depends on what an instance
    served before: each table cell, ladder, phi scan and peak comes from its own
    fixed scan.  Curves, dominance and the CLI's phi, dominance and check build
    their own, since their cutoffs seldom recur and caching them costs memory.
    """
    return GFunction(rho, model)


def bias_curve(spec: EstimatorSpec, model: Model, eps_grid: Sequence[float]) -> BiasCurve:
    """Sweep the bias over an increasing eps grid; per-point failures become flags.

    Points at eps = 0 or beyond the breakdown point are filled in from the
    definition (zero bias, infinite bias) without computation; the interior
    points come from one array pass of the estimator's kernel.  Monotonicity
    of the lower and upper envelopes is verified afterwards (tolerance 1e-9)
    and violations are recorded, never raised.
    """
    grid = [float(e) for e in eps_grid]
    if any(e < 0 for e in grid) or any(x >= y for x, y in zip(grid, grid[1:])):
        raise DomainError("eps grid must be nonnegative and strictly increasing")
    if spec.kind == S_KIND:
        results = _s_sweep(GFunction(spec.rho, model), spec.b, grid)
    elif spec.kind == CM_KIND:
        results = _cm_sweep(GFunction(spec.rho, model), spec.b, spec.c, grid)
    else:
        gf1, gf2 = GFunction(spec.rho1, model), GFunction(spec.rho2, model)
        results = _mm_sweep(gf1, gf2, spec.b, grid)
    points = [
        r
        if isinstance(r, BiasPoint)
        else BiasPoint(eps, math.nan, math.nan, exact=False, flag=f"numerical-failure: {r}")
        for eps, r in zip(grid, results)
    ]
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
