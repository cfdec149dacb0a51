"""Bounded loss functions for robust regression scale functionals.

Two families are provided, both normalized so that sup rho = 1:

* ``biweight``: Tukey's smooth redescending loss with cutoff k,
  rho(u) = 3v^2 - 3v^4 + v^6 for v = |u|/k <= 1 and rho(u) = 1 beyond.
* ``alpha-quantile``: the hard step loss rho(u) = 1{|u| >= k}, the loss of
  least-quantile-of-absolute-residuals estimates (k = 1 by convention; the
  quantile level enters through the scale constraint, not through rho).

The biweight score is psi(u) = u (1 - (u/k)^2)^2 on |u| <= k, which is
rho'(u) up to the factor 6/k^2.  Every efficiency and variance expression in
this package is invariant under rescaling of psi, so the conventional form
is used; the tests check ``efficiency.m_avar`` against adaptive quadrature
of the true score rho' (TestMAvarReference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, UnsupportedOperationError

__all__ = [
    "BIWEIGHT",
    "ALPHA_QUANTILE",
    "RhoSpec",
    "biweight",
    "alpha_quantile",
    "rho_eval",
    "psi_eval",
    "psi_deriv_eval",
    "CheckResult",
    "validate_loss",
]

BIWEIGHT = "biweight"
ALPHA_QUANTILE = "alpha-quantile"
_FAMILIES = (BIWEIGHT, ALPHA_QUANTILE)


@dataclass(frozen=True)
class RhoSpec:
    """A loss family together with its cutoff scale k (saturation at |u| >= k)."""

    family: str
    k: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown loss family {self.family!r}; expected one of {_FAMILIES}")
        if not (np.isfinite(self.k) and self.k > 0):
            raise DomainError(f"cutoff k must be a positive finite number, got {self.k}")

    @property
    def differentiable(self) -> bool:
        return self.family == BIWEIGHT


def biweight(k: float) -> RhoSpec:
    return RhoSpec(BIWEIGHT, k)


def alpha_quantile(k: float = 1.0) -> RhoSpec:
    return RhoSpec(ALPHA_QUANTILE, k)


def rho_eval(spec: RhoSpec, u):
    """Evaluate the loss at u (scalar or array); values lie in [0, 1]."""
    v = np.abs(np.asarray(u, dtype=float)) / spec.k
    if spec.family == ALPHA_QUANTILE:
        out = np.where(v >= 1.0, 1.0, 0.0)
    else:
        v2 = np.minimum(v, 1.0) ** 2
        out = v2 * (3.0 + v2 * (-3.0 + v2))
    if np.ndim(u) == 0:
        return float(out)
    return out


def psi_eval(spec: RhoSpec, u):
    """Score psi(u) = u (1 - (u/k)^2)^2 on |u| <= k; zero beyond (redescending)."""
    if not spec.differentiable:
        raise UnsupportedOperationError(f"loss family {spec.family!r} has no score function")
    uu = np.asarray(u, dtype=float)
    w2 = (uu / spec.k) ** 2
    out = np.where(w2 >= 1.0, 0.0, uu * (1.0 - np.minimum(w2, 1.0)) ** 2)
    if np.ndim(u) == 0:
        return float(out)
    return out


def psi_deriv_eval(spec: RhoSpec, u):
    """Derivative of the score: (1 - w^2)(1 - 5 w^2) with w = u/k, zero beyond the cutoff."""
    if not spec.differentiable:
        raise UnsupportedOperationError(f"loss family {spec.family!r} has no score function")
    uu = np.asarray(u, dtype=float)
    w2 = (uu / spec.k) ** 2
    out = np.where(w2 >= 1.0, 0.0, (1.0 - w2) * (1.0 - 5.0 * w2))
    if np.ndim(u) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def validate_loss(spec: RhoSpec) -> list[CheckResult]:
    """Numerically check the bounded-loss contract for a spec; never raises.

    Clauses: zero at the origin, even symmetry, monotone on the positive
    axis, bounded by 1 with limit 1 at infinity, and at most finitely many
    jumps (their locations are reported).
    """
    return loss_checks(lambda u: rho_eval(spec, u), spec.k)


def loss_checks(fn: Callable[[np.ndarray], np.ndarray], k: float) -> list[CheckResult]:
    """Grid checks behind validate_loss, usable on any candidate loss callable."""
    results: list[CheckResult] = []
    grid = np.linspace(0.0, 4.0 * k, 20001)
    vals = np.asarray(fn(grid), dtype=float)

    at_zero = float(np.asarray(fn(np.array([0.0])))[0])
    results.append(CheckResult("zero-at-origin", abs(at_zero) <= 1e-12, f"rho(0)={at_zero:.3g}"))

    neg = np.asarray(fn(-grid), dtype=float)
    sym_err = float(np.max(np.abs(vals - neg)))
    results.append(CheckResult("even-symmetry", sym_err <= 1e-12, f"max asymmetry {sym_err:.3g}"))

    diffs = np.diff(vals)
    mono_ok = bool(np.min(diffs, initial=0.0) >= -1e-12)
    results.append(
        CheckResult("nondecreasing", mono_ok, f"min increment {np.min(diffs, initial=0.0):.3g}")
    )

    far = np.asarray(fn(np.array([1e6 * k, 1e7 * k])), dtype=float)
    bounded = bool(np.max(vals, initial=0.0) <= 1.0 + 1e-12)
    limit_one = bool(np.max(np.abs(far - 1.0)) <= 1e-9)
    results.append(
        CheckResult(
            "bounded-with-unit-limit",
            bounded and limit_one,
            f"sup={np.max(vals, initial=0.0):.6g}, tail={far[-1]:.6g}",
        )
    )

    # A jump shows up as an increment far exceeding the local resolution.
    step = grid[1] - grid[0]
    jump_idx = np.nonzero(diffs > max(0.25, 1e3 * step))[0]
    locations = ", ".join(f"{grid[i]:.4g}" for i in jump_idx[:8])
    results.append(
        CheckResult(
            "finitely-many-jumps",
            jump_idx.size <= 8,
            f"{jump_idx.size} jump(s)" + (f" at |u| in {{{locations}}}" if jump_idx.size else ""),
        )
    )
    return results
