"""Expected-loss profile g(s) = E rho(Z/s) of a (loss, model) pair.

For a bounded loss and a symmetric unimodal error model, g is continuous and
strictly decreasing from 1 (s -> 0) to 0 (s -> infinity), so its inverse is
well defined on (0, 1).  The derived quantity

    phi(s) = -s g'(s) >= 0

is the engine of every scale analysis here: its unimodality (peak sigma_M,
height K = phi(sigma_M)) controls the critical points of the penalized
objective c (1 - eps) g(s) + log s used by the constrained-M machinery.

Quadrature convention.  Because rho saturates at 1 for |u| >= k, the
expectation splits exactly:

    g(s) = 2 * int_0^{k s} rho(z/s) f(z) dz + 2 * (1 - F(k s)),

and the tail term is evaluated through the survival function, never by
quadrature.  The finite part is integrated with a fixed composite
Gauss-Legendre rule on geometric panels of (0, 1] (in the variable
z / (k s)), which resolves the model scale and the saturation scale even
when they differ by several orders of magnitude.  The rho and weight
factors of the rule do not depend on s, so g and phi at one scale are a
288-node density evaluation contracted with precomputed weights.  Grid
scans (the bracketing table, the unimodality and convexity scans, phi
tables) evaluate the (scales x nodes) density matrix in blocks of
_SCAN_ROWS rows: a block stays cache-resident, and peak memory does not
grow with the grid.  Scalar calls and scans share one formula.  The
2048-point table that brackets g_inverse is filled coarse to fine: every
32nd point when it is built, then the 31 points of a coarse cell the first
time a query lands in it, so a GFunction inverted at one level evaluates
96 of the 2048 points.  For the step loss the finite part vanishes and
the closed forms

    g(s) = 2 (1 - F(k s)),    phi(s) = 2 k s f(k s)

are used directly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from . import numerics
from ._io import write_rows
from .errors import ConditionError, DomainError, NumericalError
from .rho import ALPHA_QUANTILE, RhoSpec, rho_eval

__all__ = [
    "Model",
    "gaussian_model",
    "cauchy_model",
    "GFunction",
    "UnimodalityCheck",
    "second_differences_nonnegative",
    "write_phi_csv",
    "GINV_FLOOR",
]

# Inversion queries are clamped to [GINV_FLOOR, 1 - GINV_FLOOR]; the scale
# diverges at both ends, so closer queries are numerically meaningless.
GINV_FLOOR = 1e-12

_TABLE_SIZE = 2048
_TABLE_RANGE = (1e-4, 1e4)
# Coarse points of the bracketing table: every _TABLE_STRIDE-th and the last.
# g decreases, so searching them and then one cell finds the bracket that a
# search of the whole table would.
_TABLE_STRIDE = 32
_COARSE = np.append(np.arange(0, _TABLE_SIZE - 1, _TABLE_STRIDE), _TABLE_SIZE - 1)


def _unit_rule(nodes_per_panel: int = 32) -> tuple[np.ndarray, np.ndarray]:
    # Geometric decade panels 0, 1e-8, 1e-7, ..., 1 keep the rule accurate
    # when the density is a narrow spike relative to the saturation scale.
    edges = np.concatenate(([0.0], np.logspace(-8.0, 0.0, 9)))
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    xs = []
    ws = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        xs.append(0.5 * (hi + lo) + half * x)
        ws.append(half * w)
    return np.concatenate(xs), np.concatenate(ws)


_UX, _UW = _unit_rule()

# Rows of the (rows x 288) node matrix evaluated per block in a grid scan.
# A 48-row block (110 KB per temporary) stays cache-resident and below
# glibc's 128 KB mmap threshold.  Measured on a 2-core Xeon (table plus phi
# scan): 32-56 rows ran fastest; from 64 rows each temporary is mapped and
# unmapped per block, which added 7-16 ms of system time per GFunction, and
# whole-grid blocks also raised the peak memory.
_SCAN_ROWS = 48


def _column(a):
    """a as a column for broadcasting against the unit nodes; floats pass through."""
    return a[:, None] if isinstance(a, np.ndarray) else a


@dataclass(frozen=True)
class Model:
    """A symmetric error/carrier law via its standard-member functions.

    pdf/cdf/sf/ppf must accept numpy arrays; ``support`` is the upper edge of
    the support of |Z| (inf for unbounded laws).
    """

    name: str
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    sf: Callable[[np.ndarray], np.ndarray]
    ppf: Callable[[float], float]
    support: float = math.inf


_SQRT2PI = math.sqrt(2.0 * math.pi)


def _norm_pdf(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT2PI


def gaussian_model() -> Model:
    return Model(
        name="gaussian",
        pdf=_norm_pdf,
        cdf=lambda z: special.ndtr(z),
        sf=lambda z: special.ndtr(-np.asarray(z, dtype=float)),
        ppf=lambda p: float(special.ndtri(p)),
    )


def cauchy_model() -> Model:
    return Model(
        name="cauchy",
        pdf=lambda z: 1.0 / (math.pi * (1.0 + np.square(z))),
        cdf=lambda z: 0.5 + np.arctan(z) / math.pi,
        sf=lambda z: 0.5 - np.arctan(z) / math.pi,
        ppf=lambda p: math.tan(math.pi * (p - 0.5)),
    )


@dataclass(frozen=True)
class UnimodalityCheck:
    """Outcome of the discrete unimodality scan of phi, with the scanned table."""

    ok: bool
    violation_s: float | None
    table: np.ndarray  # shape (n, 2): columns s, phi(s)


def second_differences_nonnegative(
    fn: Callable[[float], float], lo: float, hi: float, n: int = 400, tol: float = 1e-8
) -> bool:
    """Discrete convexity check of fn on a uniform grid over [lo, hi]."""
    grid = np.linspace(lo, hi, n)
    return _convex_values(np.array([fn(s) for s in grid]), tol)


def _convex_values(vals: np.ndarray, tol: float = 1e-8) -> bool:
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    return bool(np.min(second) >= -tol)


def halfline_expectation(
    h: Callable[[np.ndarray], np.ndarray], a: float, model: Model
) -> float:
    """int_0^{min(a, edge)} h(z) f(z) dz with the composite panel rule."""
    upper = min(a, model.support)
    if upper <= 0.0:
        return 0.0
    z = upper * _UX
    return float(upper * np.dot(_UW, h(z) * model.pdf(z)))


class GFunction:
    """g(s) = E rho(Z/s) with inverse, phi(s) = -s g'(s) and its peak.

    Immutable after construction apart from caches: the bracketing table
    (filled cell by cell as queries need it) and the peak are computed
    lazily on first use and then shared by all readers.
    """

    def __init__(self, rho: RhoSpec, model: Model):
        self.rho = rho
        self.model = model
        # rho(z/s) at the unit nodes v = z/(k s) equals rho(k v): independent
        # of s, so the finite integrand is precomputed once.
        self._wrho = _UW * rho_eval(rho, rho.k * _UX)
        self._wphi = _UW * 6.0 * _UX**2 * (1.0 - _UX**2) ** 2
        self._table: tuple[np.ndarray, np.ndarray] | None = None
        self._peak: tuple[float, float] | None = None
        self._unimodal: UnimodalityCheck | None = None

    # -- g ---------------------------------------------------------------

    def g_eval(self, s: float) -> float:
        """Expected loss at scale s; strictly decreasing, values in (0, 1)."""
        if not s > 0:
            raise DomainError(f"scale must be positive, got {s}")
        a = self.rho.k * s
        return float(self._g_at(a, a <= self.model.support))

    def _g_at(self, a, inside: bool):
        """g at a = k s: a float, or a 1-D array wholly on one side of the edge."""
        if inside:
            finite = a * np.dot(self.model.pdf(_column(a) * _UX), self._wrho)
        else:
            # Support ends inside the saturation zone: integrate up to the
            # edge only; the tail term is already zero there.
            edge = self.model.support
            z = edge * _UX
            vals = rho_eval(self.rho, self.rho.k * z / _column(a)) * self.model.pdf(z)
            finite = edge * np.dot(vals, _UW)
        return 2.0 * finite + 2.0 * self.model.sf(a)

    def g_inverse(self, v: float, tol: numerics.Tolerance | None = None) -> float:
        """The scale s with g(s) = v, for v in (0, 1); unique by monotonicity."""
        if not 0.0 < v < 1.0:
            raise DomainError(f"g takes values in (0, 1); cannot invert at {v}")
        if v < GINV_FLOOR or v > 1.0 - GINV_FLOOR:
            clamped = min(max(v, GINV_FLOOR), 1.0 - GINV_FLOOR)
            warnings.warn(
                f"g_inverse query {v:.3e} clamped to {clamped:.3e}; "
                "the scale diverges at the ends of (0, 1)",
                RuntimeWarning,
                stacklevel=2,
            )
            v = clamped
        lo, hi = self._bracket(v)
        tol = tol or numerics.Tolerance(abs_tol=1e-14, rel_tol=1e-13)
        return numerics.find_root(lambda s: self.g_eval(s) - v, lo, hi, tol)

    def _ensure_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(s grid, g on it); g is NaN at fine points not yet evaluated."""
        if self._table is None:
            s_grid = np.logspace(
                math.log10(_TABLE_RANGE[0]), math.log10(_TABLE_RANGE[1]), _TABLE_SIZE
            )
            g_vals = np.full(_TABLE_SIZE, np.nan)
            g_vals[_COARSE] = self._scan(self._g_at, s_grid[_COARSE])
            self._table = (s_grid, g_vals)
        return self._table

    def _bracket(self, v: float) -> tuple[float, float]:
        s_grid, g_vals = self._ensure_table()
        # g decreasing: reverse for searchsorted.
        idx = np.searchsorted(g_vals[_COARSE][::-1], v)
        n = len(_COARSE)
        if 0 < idx < n:
            # v lies in the coarse cell [lo, hi]: g >= v at lo, g < v at hi.
            lo, hi = _COARSE[n - idx - 1], _COARSE[n - idx]
            if np.isnan(g_vals[lo + 1]):  # cell not evaluated yet
                g_vals[lo + 1 : hi] = self._scan(self._g_at, s_grid[lo + 1 : hi])
            cell = g_vals[lo : hi + 1]
            # first grid point with g < v sits at j, g >= v at j-1
            j = lo + len(cell) - np.searchsorted(cell[::-1], v)
            return s_grid[j - 1], s_grid[j]
        if idx == 0:
            # v below the smallest tabulated g: expand upward.
            lo = s_grid[-1]
            hi = 2.0 * lo
            for _ in range(200):
                if self.g_eval(hi) < v:
                    return lo, hi
                lo, hi = hi, 2.0 * hi
            raise NumericalError(f"could not bracket g = {v} above s = {s_grid[-1]:g}")
        # v above the largest tabulated g: expand downward.
        hi = s_grid[0]
        lo = 0.5 * hi
        for _ in range(200):
            if self.g_eval(lo) > v:
                return lo, hi
            lo, hi = 0.5 * lo, lo
        raise NumericalError(f"could not bracket g = {v} below s = {s_grid[0]:g}")

    # -- phi ---------------------------------------------------------------

    def phi_eval(self, s: float) -> float:
        """phi(s) = -s g'(s); analytic for the step loss, quadrature otherwise."""
        if not s > 0:
            raise DomainError(f"scale must be positive, got {s}")
        a = self.rho.k * s
        return float(self._phi_at(a, a <= self.model.support))

    def _phi_at(self, a, inside: bool):
        """phi at a = k s: a float, or a 1-D array wholly on one side of the edge."""
        if self.rho.family == ALPHA_QUANTILE:
            return 2.0 * a * self.model.pdf(a)
        if inside:
            return 2.0 * a * np.dot(self.model.pdf(_column(a) * _UX), self._wphi)
        edge = self.model.support
        z = edge * _UX
        v = z / _column(a)
        vals = 6.0 * v**2 * (1.0 - v**2) ** 2 * self.model.pdf(z)
        return 2.0 * edge * np.dot(vals, _UW)

    def _scan(self, kernel, s_grid: np.ndarray) -> np.ndarray:
        """Apply _g_at or _phi_at over a grid of scales, _SCAN_ROWS rows at a time."""
        if np.any(s_grid <= 0):
            raise DomainError("scan grid must be strictly positive")
        a = self.rho.k * s_grid
        out = np.empty_like(a)
        inside = a <= self.model.support
        for side in (True, False):
            idx = np.flatnonzero(inside == side)
            for start in range(0, idx.size, _SCAN_ROWS):
                rows = idx[start : start + _SCAN_ROWS]
                out[rows] = kernel(a[rows], side)
        return out

    def peak(self) -> tuple[float, float]:
        """(sigma_M, K): the argmax of phi and its value; requires a unimodal phi."""
        if self._peak is None:
            check = self.check_phi_unimodal()
            if not check.ok:
                raise ConditionError(
                    f"phi is not unimodal on the scan grid (violation near "
                    f"s = {check.violation_s:g}); the peak is undefined"
                )
            table = check.table
            i = int(np.argmax(table[:, 1]))
            lo = table[max(i - 1, 0), 0]
            hi = table[min(i + 1, len(table) - 1), 0]
            x, fx = numerics.maximize_unimodal(
                self.phi_eval, lo, hi, numerics.Tolerance(abs_tol=1e-12)
            )
            self._peak = (x, fx)
        return self._peak

    @property
    def phi_unimodal_verified(self) -> bool:
        return self.check_phi_unimodal().ok

    def check_phi_unimodal(self, n: int = 2048) -> UnimodalityCheck:
        """Scan phi on a log grid and verify a single rise-then-fall profile."""
        if self._unimodal is not None and len(self._unimodal.table) == n:
            return self._unimodal
        k = self.rho.k
        s_grid = np.logspace(math.log10(1e-3 * k), math.log10(1e3 * k), n)
        vals = self._scan(self._phi_at, s_grid)
        diffs = np.diff(vals)
        i_max = int(np.argmax(vals))
        slack = 1e-12 * max(float(np.max(vals)), 1e-300)
        rising_ok = np.all(diffs[:i_max] >= -slack)
        falling_ok = np.all(diffs[i_max:] <= slack)
        ok = bool(rising_ok and falling_ok)
        violation = None
        if not ok:
            bad = np.nonzero(
                np.concatenate((diffs[:i_max] < -slack, diffs[i_max:] > slack))
            )[0]
            violation = float(s_grid[bad[0]])
        result = UnimodalityCheck(ok=ok, violation_s=violation, table=np.column_stack((s_grid, vals)))
        if n == 2048:
            self._unimodal = result
        return result

    def check_g_convex(self, lo: float | None = None, hi: float | None = None, n: int = 400) -> bool:
        """Discrete convexity of g over [lo, hi] (default: [sigma_M/50, 4 sigma_M])."""
        if lo is None or hi is None:
            sigma_m, _ = self.peak()
            lo = lo if lo is not None else sigma_m / 50.0
            hi = hi if hi is not None else 4.0 * sigma_m
        return _convex_values(self._scan(self._g_at, np.linspace(lo, hi, n)))

    def phi_table(self, s_grid) -> np.ndarray:
        """(s, phi(s)) rows over an explicit grid."""
        s_grid = np.asarray(s_grid, dtype=float)
        return np.column_stack((s_grid, self._scan(self._phi_at, s_grid)))


def write_phi_csv(gf: GFunction, s_grid, out) -> None:
    """Export a phi profile as CSV rows ``s,phi``."""
    write_rows(out, ("s", "phi"), gf.phi_table(s_grid))
