"""Shared 1-D numerical kernels: bracketed root finding and unimodal maximization.

Thin contract-enforcing wrappers around scipy's adaptive routines.  All
functions are pure; there is no shared mutable state, so concurrent use is
safe.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy import optimize as _optimize

from .errors import BracketError, DomainError, NumericalError

__all__ = ["find_root", "maximize_unimodal"]

# Iteration cap of both kernels.
_MAX_ITER = 200


def find_root(
    f: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-10, rtol: float = 1e-10
) -> float:
    """Locate a root of f inside the sign-changing bracket [lo, hi] to xtol + rtol |root|.

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
        xtol=xtol,
        rtol=max(rtol, 4 * math.ulp(1.0)),
        maxiter=_MAX_ITER,
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
    f: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-10
) -> tuple[float, float]:
    """Maximize a unimodal f on [lo, hi] to xtol in the argument; returns (argmax, max).

    A constant (plateau) objective is a legal degenerate input; some interior
    point is returned with the plateau value.
    """
    if not lo < hi:
        raise DomainError(f"interval must satisfy lo < hi, got [{lo}, {hi}]")
    res = _optimize.minimize_scalar(
        lambda x: -f(x),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": xtol, "maxiter": _MAX_ITER},
    )
    if not res.success:
        raise NumericalError(f"unimodal maximization on [{lo}, {hi}] failed: {res.message}")
    return float(res.x), float(-res.fun)
