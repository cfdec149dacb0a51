"""Gaussian-efficiency tuning and asymptotic slope variances under symmetric laws.

The slope covariance of each estimate here factors as avar * Sigma_x, where
the scalar avar depends only on the error law.  For a differentiable loss
evaluated at the functional's residual scale it is the classical fixed-scale
M-estimate expression

    avar = scale^2 * E[psi(u/scale)^2] / (E[psi'(u/scale)])^2 ,

which is invariant under rescaling of psi.  Gaussian efficiency is 1/avar at
the standard normal (the least-squares slope variance is 1 there).

Error laws.  The seven laws of the registry in ``gfunction`` (NORM, SL, CAU,
T3, DE, CN, UNIF); ``error_law(name)`` is the registry ``Model`` of that law
stretched by the constant that matches its interquartile range to the
standard normal's 1.3490, so ``error_law("NORM") == gaussian_model()``.  The
residual scale of each estimate at a law is found from the same
expected-loss machinery as the bias curves: the S-estimate scale solves
g(s) = b; the MM-estimate inherits the preliminary S scale of its first
loss; the CM-estimate scale is the minimizer of c g(s) + log s over s >= the
S scale (``curves.objective_tail_inf`` at eps = 0), which is either the
constraint boundary (the estimate is then asymptotically an S-estimate:
``binding``) or the upper stationary scale of the objective.  Every entry
point here takes the GFunction of a (loss, law) pair from ``curves._gf``,
one instance per pair for the whole process, for the reasons given there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._io import write_rows
from .curves import (
    CM_KIND,
    MM_KIND,
    S_KIND,
    EstimatorSpec,
    _breakdown,
    _gf,
    cm_estimate,
    mm_estimate,
    objective_tail_inf,
    s_estimate,
)
from .errors import (
    DegenerateEfficiencyError,
    DomainError,
    TargetRangeError,
    UnsupportedOperationError,
)
from .gfunction import LAWS, GFunction, Model, gaussian_model, halfline_expectation
from .numerics import find_root
from .rho import RhoSpec, biweight, psi_deriv_eval, psi_eval

__all__ = [
    "LAW_NAMES",
    "IQR_TARGET",
    "error_law",
    "slope_avar",
    "m_avar",
    "s_scale",
    "gaussian_efficiency",
    "tune",
    "EfficiencyCell",
    "avar_table",
    "reference_estimators",
    "write_avar_csv",
]

LAW_NAMES = tuple(LAWS)

IQR_TARGET = 1.3490


def error_law(name: str) -> Model:
    """The registry law ``name`` at its IQR-normalizing scale."""
    if name not in LAWS:
        raise DomainError(f"unknown error law {name!r}; expected one of {LAW_NAMES}")
    return Model(name, LAWS[name].iqr_multiplier)


def slope_avar(psi, psi_deriv, cutoff: float, scale: float, law: Model) -> float:
    """Fixed-scale M slope variance from explicit score callables.

    ``cutoff`` bounds the score support (psi = 0 for |u| >= cutoff), which
    keeps every integral compactly supported even for heavy-tailed laws.
    """
    if not scale > 0:
        raise DomainError(f"residual scale must be positive, got {scale}")
    num = 2.0 * halfline_expectation(lambda u: np.square(psi(u / scale)), cutoff, law)
    den = 2.0 * halfline_expectation(lambda u: psi_deriv(u / scale), cutoff, law)
    if abs(den) < 1e-8:
        raise DegenerateEfficiencyError(
            f"score-derivative expectation {den:.3e} is degenerate for law {law.law}"
        )
    return scale**2 * num / den**2


def m_avar(rho: RhoSpec, scale: float, law: Model) -> float:
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
    _breakdown(b)
    return gf.g_inverse(b)


def _residual_scale(spec: EstimatorSpec, law: Model) -> tuple[float, bool | None]:
    gf = _gf(spec.rho1 if spec.kind == MM_KIND else spec.rho, law)
    boundary = s_scale(gf, spec.b)
    if spec.kind != CM_KIND:
        return boundary, None
    _, scale = objective_tail_inf(gf, spec.c, 0.0, boundary)
    return scale, scale == boundary


def _psi_rho(spec: EstimatorSpec) -> RhoSpec:
    rho = spec.rho2 if spec.kind == MM_KIND else spec.rho
    if not rho.differentiable:
        raise UnsupportedOperationError(
            f"{rho.family!r} has no score; efficiency is undefined for this estimate"
        )
    return rho


def gaussian_efficiency(spec: EstimatorSpec) -> float:
    """1 / avar at the standard normal, using the functional's own residual scale."""
    law = gaussian_model()
    scale, _ = _residual_scale(spec, law)
    return 1.0 / m_avar(_psi_rho(spec), scale, law)


def _unit_scale_eff(k: float) -> float:
    # Efficiency of a biweight score with cutoff k at residual scale 1 under
    # the normal; every Gaussian-efficiency question reduces to this through
    # the product k * scale.
    return 1.0 / m_avar(biweight(k), 1.0, gaussian_model())


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
    return find_root(lambda k: _unit_scale_eff(k) - target, lo, hi)


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
    if kind == S_KIND:
        if (b is None) == (k is None):
            raise DomainError("tune('s', ...) takes exactly one of b or k")
        gauss = _gf(biweight(1.0), gaussian_model())
        return gauss.g_eval(k) if b is None else s_scale(gauss, b)
    if target_eff is None or b is None:
        raise DomainError(f"tune({kind!r}, ...) needs both b and target_eff")
    _breakdown(b)
    if kind == MM_KIND:
        # The first loss is normalized so the preliminary scale is 1 at the
        # normal, so the target pins k2 directly.
        return _k_for_eff(target_eff)
    if kind == CM_KIND:
        gf = _gf(biweight(1.0), gaussian_model())
        boundary = s_scale(gf, b)
        # The binding CM estimate is the S-estimate: its efficiency is the floor.
        floor_eff = _unit_scale_eff(boundary)
        if not floor_eff < target_eff < 1.0:
            raise TargetRangeError(target_eff, (floor_eff, 1.0))
        _, cap = gf.peak()

        def eff_of(c: float) -> float:
            _, scale = objective_tail_inf(gf, c, 0.0, boundary)
            return _unit_scale_eff(scale)

        lo = 1.0 / cap * (1.0 + 1e-9)
        hi = 2.0 / cap
        while eff_of(hi) < target_eff:
            hi *= 2.0
            if hi > 1e6:
                raise TargetRangeError(target_eff, (floor_eff, 1.0))
        return find_root(lambda c: eff_of(c) - target_eff, lo, hi)
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
    """Slope variances of labeled estimates across laws; degenerate cells are flagged."""
    cells = []
    for law_name in laws:
        law = error_law(law_name)
        for label, spec in specs:
            scale, binding = _residual_scale(spec, law)
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
