"""Shared 1-D numerical kernels: quadrature, bracketed root finding, unimodal maximization.

Thin contract-enforcing wrappers around scipy's adaptive routines.  All
functions are pure; there is no shared mutable state, so concurrent use is
safe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

from scipy import integrate as _integrate
from scipy import optimize as _optimize

from .errors import BracketError, DomainError, NumericalError

__all__ = ["Tolerance", "DEFAULT_TOL", "integrate", "find_root", "maximize_unimodal"]


@dataclass(frozen=True)
class Tolerance:
    """Convergence targets for the kernels below.

    abs_tol / rel_tol bound the estimated error; max_iter caps refinement.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise DomainError(f"abs_tol must be > 0, got {self.abs_tol}")
        if not self.rel_tol > 0:
            raise DomainError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")


DEFAULT_TOL = Tolerance()


def integrate(
    f: Callable[[float], float], a: float, b: float, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Integrate f over [a, b] adaptively; b may be +inf.

    Raises NumericalError if the estimated error cannot be brought below the
    requested tolerance.
    """
    if not a < b:
        raise DomainError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
    with warnings.catch_warnings():
        warnings.simplefilter("error", category=_integrate.IntegrationWarning)
        try:
            value, abserr = _integrate.quad(
                f, a, b, epsabs=tol.abs_tol, epsrel=tol.rel_tol, limit=tol.max_iter
            )
        except _integrate.IntegrationWarning as exc:
            raise NumericalError(f"quadrature on [{a}, {b}] did not converge: {exc}") from exc
    if not math.isfinite(value):
        raise NumericalError(f"quadrature on [{a}, {b}] returned {value}")
    return value


def find_root(
    f: Callable[[float], float], lo: float, hi: float, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Locate a root of f inside the sign-changing bracket [lo, hi].

    Uses Brent's method, which never leaves the bracket (bisection fallback),
    so quadrature noise in f cannot make the iteration diverge.
    """
    if not lo < hi:
        raise DomainError(f"bracket must satisfy lo < hi, got [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )
    root, res = _optimize.brentq(
        _known_ends(f, {lo: flo, hi: fhi}),
        lo,
        hi,
        xtol=tol.abs_tol,
        rtol=max(tol.rel_tol, 4 * math.ulp(1.0)),
        maxiter=tol.max_iter,
        full_output=True,
    )
    if not res.converged:
        raise NumericalError(f"root find on [{lo}, {hi}] did not converge: {res.flag}")
    return float(root)


def _known_ends(f: Callable[[float], float], known: dict) -> Callable[[float], float]:
    """f, answering each point of ``known`` once from its stored value.

    brentq evaluates both bracket ends first; find_root has already paid for
    them in its sign check.
    """

    def wrapped(x: float) -> float:
        if x in known:
            return known.pop(x)
        return f(x)

    return wrapped


def maximize_unimodal(
    f: Callable[[float], float], lo: float, hi: float, tol: Tolerance = DEFAULT_TOL
) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi]; returns (argmax, max).

    A constant (plateau) objective is a legal degenerate input; some interior
    point is returned with the plateau value.
    """
    if not lo < hi:
        raise DomainError(f"interval must satisfy lo < hi, got [{lo}, {hi}]")
    res = _optimize.minimize_scalar(
        lambda x: -f(x),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": tol.abs_tol, "maxiter": tol.max_iter},
    )
    if not res.success:
        raise NumericalError(f"unimodal maximization on [{lo}, {hi}] failed: {res.message}")
    return float(res.x), float(-res.fun)
