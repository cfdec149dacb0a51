"""Gaussian-efficiency tuning and asymptotic slope variances under symmetric laws.

The slope covariance of each estimate here factors as avar * Sigma_x, where
the scalar avar depends only on the error law.  For a differentiable loss
evaluated at the functional's residual scale it is the classical fixed-scale
M-estimate expression

    avar = scale^2 * E[psi(u/scale)^2] / (E[psi'(u/scale)])^2 ,

which is invariant under rescaling of psi.  Gaussian efficiency is 1/avar at
the standard normal (the least-squares slope variance is 1 there).

Error laws.  NORM, SL (slash), CAU, T3 (Student t, 3 df), DE (double
exponential), CN (90/10 normal mixture with sd 1 and 3) and UNIF on (-1, 1),
each multiplied by a fixed constant so the interquartile range matches the
standard normal's 1.3490.  The residual scale of each estimate at a law is
found from the same expected-loss machinery as the bias curves: the
S-estimate scale solves g(s) = b; the MM-estimate inherits the preliminary
S scale of its first loss; the CM-estimate scale is the minimizer of
c g(s) + log s over s >= the S scale, which is either the constraint
boundary (the estimate is then asymptotically an S-estimate: ``binding``) or
the upper stationary scale of the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from ._io import write_rows
from .curves import (
    CM_KIND,
    MM_KIND,
    S_KIND,
    EstimatorSpec,
    _gf,
    cm_estimate,
    mm_estimate,
    s_estimate,
)
from .errors import (
    DegenerateEfficiencyError,
    DomainError,
    NumericalError,
    TargetRangeError,
    UnsupportedOperationError,
)
from .gfunction import GFunction, Model, gaussian_model, halfline_expectation
from .numerics import Tolerance, find_root
from .rho import RhoSpec, biweight, psi_deriv_eval, psi_eval

__all__ = [
    "LAW_NAMES",
    "SCALE_MULTIPLIERS",
    "IQR_TARGET",
    "ErrorLaw",
    "error_law",
    "slope_avar",
    "m_avar",
    "s_scale",
    "cm_model_scale",
    "gaussian_efficiency",
    "tune",
    "EfficiencyCell",
    "avar_table",
    "reference_estimators",
    "write_avar_csv",
]

LAW_NAMES = ("NORM", "SL", "CAU", "T3", "DE", "CN", "UNIF")

# Multipliers aligning each law's interquartile range with the normal's.
SCALE_MULTIPLIERS = {
    "NORM": 1.0,
    "SL": 0.4587,
    "CAU": 0.6745,
    "T3": 0.8818,
    "DE": 0.9731,
    "CN": 0.9248,
    "UNIF": 1.3490,
}

IQR_TARGET = 1.3490

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _norm_pdf(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT2PI


def _slash_pdf(z):
    # (phi(0) - phi(z)) / z^2 with its continuous limit phi(0)/2 at the origin.
    z = np.asarray(z, dtype=float)
    peak = 1.0 / _SQRT2PI
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    out = (peak - _norm_pdf(zs)) / zs**2
    return np.where(small, peak * (0.5 - z**2 / 8.0), out)


def _slash_cdf(z):
    z = np.asarray(z, dtype=float)
    peak = 1.0 / _SQRT2PI
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    out = special.ndtr(zs) - (peak - _norm_pdf(zs)) / zs
    return np.where(small, 0.5 + peak * z / 2.0, out)


def _t3_pdf(z):
    return 2.0 / (math.pi * math.sqrt(3.0) * (1.0 + np.square(z) / 3.0) ** 2)


def _t3_cdf(z):
    z = np.asarray(z, dtype=float)
    x = z / math.sqrt(3.0)
    return 0.5 + (x / (1.0 + x**2) + np.arctan(x)) / math.pi


def _de_pdf(z):
    return 0.5 * np.exp(-np.abs(z))


def _de_cdf(z):
    z = np.asarray(z, dtype=float)
    # Evaluate each exp on a clipped argument; np.where computes both branches.
    return np.where(
        z < 0,
        0.5 * np.exp(np.minimum(z, 0.0)),
        1.0 - 0.5 * np.exp(-np.maximum(z, 0.0)),
    )


def _cn_pdf(z):
    z = np.asarray(z, dtype=float)
    return 0.9 * _norm_pdf(z) + 0.1 * _norm_pdf(z / 3.0) / 3.0


def _cn_cdf(z):
    z = np.asarray(z, dtype=float)
    return 0.9 * special.ndtr(z) + 0.1 * special.ndtr(z / 3.0)


def _unif_pdf(z):
    z = np.asarray(z, dtype=float)
    return np.where(np.abs(z) <= 1.0, 0.5, 0.0)


def _unif_cdf(z):
    z = np.asarray(z, dtype=float)
    return np.clip(0.5 * (z + 1.0), 0.0, 1.0)


_STANDARD = {
    "NORM": (_norm_pdf, lambda z: special.ndtr(np.asarray(z, dtype=float)), math.inf),
    "SL": (_slash_pdf, _slash_cdf, math.inf),
    "CAU": (
        lambda z: 1.0 / (math.pi * (1.0 + np.square(z))),
        lambda z: 0.5 + np.arctan(np.asarray(z, dtype=float)) / math.pi,
        math.inf,
    ),
    "T3": (_t3_pdf, _t3_cdf, math.inf),
    "DE": (_de_pdf, _de_cdf, math.inf),
    "CN": (_cn_pdf, _cn_cdf, math.inf),
    "UNIF": (_unif_pdf, _unif_cdf, 1.0),
}


@dataclass(frozen=True)
class ErrorLaw:
    """An IQR-normalized symmetric error law, exposed as a Model for g(s) reuse."""

    name: str
    multiplier: float
    model: Model


def _ppf_from_cdf(cdf, lo: float, hi: float):
    def ppf(p: float) -> float:
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile level must lie in (0, 1), got {p}")
        return find_root(lambda x: float(cdf(x)) - p, lo, hi, Tolerance(abs_tol=1e-12))

    return ppf


def error_law(name: str) -> ErrorLaw:
    if name not in SCALE_MULTIPLIERS:
        raise DomainError(f"unknown error law {name!r}; expected one of {LAW_NAMES}")
    base_pdf, base_cdf, base_edge = _STANDARD[name]
    m = SCALE_MULTIPLIERS[name]

    def pdf(x):
        return base_pdf(np.asarray(x, dtype=float) / m) / m

    def cdf(x):
        return base_cdf(np.asarray(x, dtype=float) / m)

    def sf(x):
        # All laws here are symmetric: 1 - F(x) = F(-x).
        return base_cdf(-np.asarray(x, dtype=float) / m)

    edge = base_edge * m
    bound = edge if math.isfinite(edge) else 1e9
    model = Model(
        name=f"law-{name}",
        pdf=pdf,
        cdf=cdf,
        sf=sf,
        ppf=_ppf_from_cdf(cdf, -bound, bound),
        support=edge,
    )
    return ErrorLaw(name=name, multiplier=m, model=model)


def slope_avar(psi, psi_deriv, cutoff: float, scale: float, law: ErrorLaw) -> float:
    """Fixed-scale M slope variance from explicit score callables.

    ``cutoff`` bounds the score support (psi = 0 for |u| >= cutoff), which
    keeps every integral compactly supported even for heavy-tailed laws.
    """
    if not scale > 0:
        raise DomainError(f"residual scale must be positive, got {scale}")
    num = 2.0 * halfline_expectation(lambda u: np.square(psi(u / scale)), cutoff, law.model)
    den = 2.0 * halfline_expectation(lambda u: psi_deriv(u / scale), cutoff, law.model)
    if abs(den) < 1e-8:
        raise DegenerateEfficiencyError(
            f"score-derivative expectation {den:.3e} is degenerate for law {law.name}"
        )
    return scale**2 * num / den**2


def m_avar(rho: RhoSpec, scale: float, law: ErrorLaw) -> float:
    """Slope variance of a differentiable loss at the given residual scale."""
    if not rho.differentiable:
        raise UnsupportedOperationError(f"{rho.family!r} has no score; avar is undefined")
    return slope_avar(
        lambda u: psi_eval(rho, u),
        lambda u: psi_deriv_eval(rho, u),
        cutoff=rho.k * scale,
        scale=scale,
        law=law,
    )


def s_scale(gf: GFunction, b: float) -> float:
    """The residual scale of the S functional at the law: the root of g(s) = b."""
    if not 0.0 < b < 1.0:
        raise DomainError(f"scale quantile b must lie in (0, 1), got {b}")
    return gf.g_inverse(b)


def cm_model_scale(gf: GFunction, b: float, c: float) -> tuple[float, bool]:
    """(scale, binding) of the CM functional at the law.

    Minimizes c g(s) + log s over s >= the S scale.  With no interior
    stationary point (c <= 1/K), or when the boundary value does not exceed
    the value at the upper stationary scale, the constraint binds and the
    functional coincides with the S-estimate.
    """
    if not c > 0:
        raise DomainError(f"tuning constant must be positive, got {c}")
    boundary = s_scale(gf, b)
    sigma_m, cap = gf.peak()
    if c * cap <= 1.0 + 1e-12:
        return boundary, True
    target = 1.0 / c
    hi = sigma_m
    for _ in range(200):
        hi *= 2.0
        if gf.phi_eval(hi) <= target:
            break
    else:
        raise NumericalError("could not bracket the upper stationary scale")
    upper = find_root(lambda s: gf.phi_eval(s) - target, sigma_m, hi)
    if upper <= boundary:
        return boundary, True

    def objective(s: float) -> float:
        return c * gf.g_eval(s) + math.log(s)

    if objective(boundary) <= objective(upper):
        return boundary, True
    return upper, False


_NORM_LAW = None


def _norm_law() -> ErrorLaw:
    global _NORM_LAW
    if _NORM_LAW is None:
        _NORM_LAW = error_law("NORM")
    return _NORM_LAW


def _residual_scale(
    spec: EstimatorSpec, law: ErrorLaw, gfs: dict
) -> tuple[float, bool | None]:
    # gfs caches one GFunction per loss at this law (see curves._gf).
    if spec.kind == S_KIND:
        return s_scale(_gf(spec.rho, law.model, gfs), spec.b), None
    if spec.kind == MM_KIND:
        return s_scale(_gf(spec.rho1, law.model, gfs), spec.b), None
    return cm_model_scale(_gf(spec.rho, law.model, gfs), spec.b, spec.c)


def _psi_rho(spec: EstimatorSpec) -> RhoSpec:
    rho = spec.rho2 if spec.kind == MM_KIND else spec.rho
    if not rho.differentiable:
        raise UnsupportedOperationError(
            f"{rho.family!r} has no score; efficiency is undefined for this estimate"
        )
    return rho


def gaussian_efficiency(spec: EstimatorSpec) -> float:
    """1 / avar at the standard normal, using the functional's own residual scale."""
    law = _norm_law()
    scale, _ = _residual_scale(spec, law, {})
    return 1.0 / m_avar(_psi_rho(spec), scale, law)


def _unit_scale_eff(k: float) -> float:
    # Efficiency of a biweight score with cutoff k at residual scale 1 under
    # the normal; every Gaussian-efficiency question reduces to this through
    # the product k * scale.
    return 1.0 / m_avar(biweight(k), 1.0, _norm_law())


_TUNE_TOL = Tolerance(abs_tol=1e-10)


def _k_for_eff(target: float) -> float:
    if not 0.0 < target < 1.0:
        raise TargetRangeError(target, (0.0, 1.0))
    lo, hi = 0.2, 8.0
    while _unit_scale_eff(hi) < target:
        hi *= 2.0
        if hi > 1e4:
            raise TargetRangeError(target, (0.0, _unit_scale_eff(5e3)))
    while _unit_scale_eff(lo) > target:
        lo *= 0.5
        if lo < 1e-4:
            raise TargetRangeError(target, (_unit_scale_eff(2e-4), 1.0))
    return find_root(lambda k: _unit_scale_eff(k) - target, lo, hi, _TUNE_TOL)


def tune(
    kind: str,
    b: float | None = None,
    k: float | None = None,
    target_eff: float | None = None,
) -> float:
    """Solve for the remaining tuning constant of an estimate family.

    * ``tune("s", b=...)``: the biweight cutoff k whose scale constraint is
      consistent at the standard normal (residual scale 1).
    * ``tune("s", k=...)``: the quantile b induced by that consistency.
    * ``tune("mm", b=..., target_eff=...)``: the second-loss cutoff k2
      reaching the target Gaussian efficiency.
    * ``tune("cm", b=..., target_eff=...)``: the CM tuning constant c for a
      unit-cutoff biweight loss reaching the target Gaussian efficiency.
    """
    kind = kind.lower()
    gauss = GFunction(biweight(1.0), gaussian_model())
    if kind == S_KIND:
        if (b is None) == (k is None):
            raise DomainError("tune('s', ...) takes exactly one of b or k")
        if b is not None:
            if not 0.0 < b < 1.0:
                raise DomainError(f"b must lie in (0, 1), got {b}")
            return gauss.g_inverse(b)
        return gauss.g_eval(k)
    if target_eff is None or b is None:
        raise DomainError(f"tune({kind!r}, ...) needs both b and target_eff")
    if kind == MM_KIND:
        # The first loss is normalized so the preliminary scale is 1 at the
        # normal, so the target pins k2 directly.
        return _k_for_eff(target_eff)
    if kind == CM_KIND:
        gf = gauss
        floor_eff = gaussian_efficiency(s_estimate(biweight(1.0), b))
        if not floor_eff < target_eff < 1.0:
            raise TargetRangeError(target_eff, (floor_eff, 1.0))
        _, cap = gf.peak()

        def eff_of(c: float) -> float:
            scale, _ = cm_model_scale(gf, b, c)
            return _unit_scale_eff(scale)

        lo = 1.0 / cap * (1.0 + 1e-9)
        hi = 2.0 / cap
        while eff_of(hi) < target_eff:
            hi *= 2.0
            if hi > 1e6:
                raise TargetRangeError(target_eff, (floor_eff, 1.0))
        return find_root(lambda c: eff_of(c) - target_eff, lo, hi, _TUNE_TOL)
    raise DomainError(f"unknown estimator kind {kind!r}")


@dataclass(frozen=True)
class EfficiencyCell:
    estimator: str
    law: str
    scale: float  # the functional's residual scale at the law
    avar: float
    binding: bool | None  # CM only; None otherwise
    degenerate: bool = False


def avar_table(
    specs: Sequence[tuple[str, EstimatorSpec]], laws: Sequence[str] = LAW_NAMES
) -> list[EfficiencyCell]:
    """Slope variances of labeled estimates across laws; degenerate cells are flagged.

    Estimates sharing a loss at a law share its GFunction, so each (loss,
    law) pair builds its bracketing table and phi scan once.
    """
    cells = []
    for law_name in laws:
        law = error_law(law_name)
        gfs: dict = {}
        for label, spec in specs:
            scale, binding = _residual_scale(spec, law, gfs)
            try:
                value = m_avar(_psi_rho(spec), scale, law)
                degenerate = False
            except DegenerateEfficiencyError:
                value = math.nan
                degenerate = True
            cells.append(
                EfficiencyCell(
                    estimator=label,
                    law=law_name,
                    scale=scale,
                    avar=value,
                    binding=binding,
                    degenerate=degenerate,
                )
            )
    return cells


def reference_estimators() -> list[tuple[str, EstimatorSpec]]:
    """The five classical biweight benchmarks with exactly solved constants.

    S95/MM95/CM95 are 95% Gaussian-efficient; S28 is the 50% breakdown
    S-estimate (28.7% efficient); CM61 keeps b = 0.5 with c = 2.568 (61.1%
    efficient).
    """
    k_half = tune("s", b=0.5)
    k95 = _k_for_eff(0.95)
    c95 = tune("cm", b=0.5, target_eff=0.95)
    return [
        ("S95", s_estimate(biweight(k95), tune("s", k=k95))),
        ("MM95", mm_estimate(biweight(k_half), biweight(k95), 0.5)),
        ("CM95", cm_estimate(biweight(1.0), 0.5, c95)),
        ("CM61", cm_estimate(biweight(1.0), 0.5, 2.568)),
        ("S28", s_estimate(biweight(k_half), 0.5)),
    ]


def write_avar_csv(cells: Sequence[EfficiencyCell], out) -> None:
    """Export rows ``estimator,law,avar,binding``."""
    write_rows(
        out,
        ("estimator", "law", "avar", "binding"),
        ((c.estimator, c.law, c.avar, c.binding) for c in cells),
    )
