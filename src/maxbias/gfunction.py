"""Expected-loss profile g(s) = E rho(Z/s) of a (loss, model) pair.

For a bounded loss and a symmetric unimodal error model, g is continuous and
strictly decreasing from 1 (s -> 0) to 0 (s -> infinity), so its inverse is
well defined on (0, 1).  The derived quantity

    phi(s) = -s g'(s) >= 0

is the engine of every scale analysis here: its unimodality (peak sigma_M,
height K = phi(sigma_M)) controls the critical points of the penalized
objective c (1 - eps) g(s) + log s used by the constrained-M machinery.

Models.  Every law is defined once, in the registry ``LAWS``: NORM, SL, CAU,
T3, DE, CN and UNIF, each with its standard density and distribution, the
support edge of |Z|, the multiplier that matches its interquartile range to
the standard normal's, and its bias geometry as a carrier (GAUSSIAN:
sqrt(r^2 - 1), CAUCHY: r - 1, or None).  A ``Model`` is a registry law at a
scale, equal and hashed by ``(law, scale)``; ``gaussian_model()`` is
``Model("NORM")`` and ``cauchy_model()`` is ``Model("CAU")``.  At scale 1 the
registry callables are used as they are, and the survival function of every
(symmetric) law is sf(x) = cdf(-x).

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
grow with the grid.  Scalar calls and scans share one formula.  For the
step loss the finite part vanishes and the closed forms

    g(s) = 2 (1 - F(k s)),    phi(s) = 2 k s f(k s)

are used directly.

Inversion.  In t = log s the profile has the exact derivative
dg/dt = -phi(s), so g_inverse runs a safeguarded Newton iteration
t <- t + (g(s) - v) / phi(s) (the rtsafe pattern of Numerical Recipes,
section 9.4).  Each step is one density evaluation contracted with the rho
and phi weights together.  The iteration starts at the log-midpoint of a
bracket from a 2048-point table of g, keeps the bracket, bisects it
whenever a step would leave it, would not halve the step before last, or
phi vanishes, and stops once a step moves s by at most 1e-14 + 1e-13 s (or
the bracket is that narrow).  An array of targets runs one vector
iteration, in blocks of _SCAN_ROWS rows, over the targets not yet
converged.  The table is filled coarse to fine: every 32nd point when it
is built, then the 31 points of a coarse cell the first time a float
query lands in it (each cell by its own scan, so its values do not depend
on the query that filled it); a GFunction inverted at one level evaluates
96 of the 2048 points.  An array of targets starts from the coarse cells
and fills none: the extra Newton pass a wider bracket costs is one kernel
row per target, while a fine cell costs 31 rows however few targets land
in it.  Beyond each end of the table, g on the ladder s_end 2^m
(or s_0 2^-m), m = 1.._MAX_STEPS, comes from one scan the first time a
target falls there; the target is bracketed by the first rung past it and
the rung before, and fails past the last rung.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special

from . import numerics
from ._io import write_rows
from .errors import ConditionError, DomainError, NumericalError
from .rho import ALPHA_QUANTILE, RhoSpec, rho_eval

__all__ = [
    "GAUSSIAN",
    "CAUCHY",
    "Law",
    "LAWS",
    "Model",
    "gaussian_model",
    "cauchy_model",
    "GFunction",
    "UnimodalityCheck",
    "write_phi_csv",
    "GINV_FLOOR",
]

# Inversion queries are clamped to [GINV_FLOOR, 1 - GINV_FLOOR]; the scale
# diverges at both ends, so closer queries are numerically meaningless.
GINV_FLOOR = 1e-12

_TABLE_SIZE = 2048
# Coarse points of the bracketing table: every _TABLE_STRIDE-th and the last.
# g decreases, so searching them and then one cell finds the bracket that a
# search of the whole table would.
_TABLE_STRIDE = 32
_COARSE = np.append(np.arange(0, _TABLE_SIZE - 1, _TABLE_STRIDE), _TABLE_SIZE - 1)

# g_inverse stops once a step moves s by at most _XTOL + _RTOL s (or the
# bracket is that narrow) and takes at most _MAX_STEPS steps; the ladder
# beyond each end of the table has _MAX_STEPS doublings (or halvings).
_XTOL = 1e-14
_RTOL = 1e-13
_MAX_STEPS = 200

# Points of the phi unimodality scan (log grid over [1e-3 k, 1e3 k]) and of
# the g convexity scan (uniform grid).
_UNIMODAL_POINTS = 2048
_CONVEX_POINTS = 400


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
# The phi weights and the bracketing-table grid are the same for every
# GFunction; read-only, because every instance shares them.
_WPHI = _UW * 6.0 * _UX**2 * (1.0 - _UX**2) ** 2
_TABLE_GRID = np.logspace(-4.0, 4.0, _TABLE_SIZE)
_WPHI.flags.writeable = _TABLE_GRID.flags.writeable = False

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


# Bias geometries of a law as the carrier distribution: how the ratio r of
# the extreme scales becomes a maximum bias (Martin, Yohai & Zamar 1989).
GAUSSIAN = "gaussian"  # sqrt(r^2 - 1)
CAUCHY = "cauchy"  # r - 1

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _norm_pdf(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT2PI


def _cauchy_pdf(z):
    return 1.0 / (math.pi * (1.0 + np.square(z)))


def _cauchy_cdf(z):
    return 0.5 + np.arctan(z) / math.pi


def _slash_pdf(z):
    # (phi(0) - phi(z)) / z^2 with its continuous limit phi(0)/2 at the origin;
    # phi(0) - phi(z) = -phi(0) expm1(-z^2/2) keeps its digits at small z.
    z = np.asarray(z, dtype=float)
    peak = 1.0 / _SQRT2PI
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    out = -peak * np.expm1(-0.5 * zs**2) / zs**2
    return np.where(small, peak * (0.5 - z**2 / 8.0), out)


def _slash_cdf(z):
    z = np.asarray(z, dtype=float)
    peak = 1.0 / _SQRT2PI
    small = np.abs(z) < 1e-4
    zs = np.where(small, 1.0, z)
    out = special.ndtr(zs) + peak * np.expm1(-0.5 * zs**2) / zs
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


@dataclass(frozen=True)
class Law:
    """A standard symmetric law: density, distribution, support edge of |Z|,
    the multiplier aligning its interquartile range with the standard
    normal's, and its bias geometry as a carrier (None: not defined)."""

    pdf: Callable
    cdf: Callable
    support: float
    iqr_multiplier: float
    geometry: str | None


# NORM, SL (slash), CAU, T3 (Student t, 3 df), DE (double exponential),
# CN (90/10 normal mixture with sd 1 and 3) and UNIF on (-1, 1).
LAWS = {
    "NORM": Law(_norm_pdf, special.ndtr, math.inf, 1.0, GAUSSIAN),
    "SL": Law(_slash_pdf, _slash_cdf, math.inf, 0.4587, None),
    "CAU": Law(_cauchy_pdf, _cauchy_cdf, math.inf, 0.6745, CAUCHY),
    "T3": Law(_t3_pdf, _t3_cdf, math.inf, 0.8818, None),
    "DE": Law(_de_pdf, _de_cdf, math.inf, 0.9731, None),
    "CN": Law(_cn_pdf, _cn_cdf, math.inf, 0.9248, None),
    "UNIF": Law(_unif_pdf, _unif_cdf, 1.0, 1.3490, None),
}


@dataclass(frozen=True)
class Model:
    """The registry law ``law`` stretched by ``scale``; equal and hashed by both.

    pdf/cdf/sf take floats or numpy arrays; ``support`` is the upper edge of
    the support of |Z| (inf for unbounded laws) and ``geometry`` the law's.
    """

    law: str
    scale: float = 1.0
    pdf: Callable = field(init=False, repr=False, compare=False)
    cdf: Callable = field(init=False, repr=False, compare=False)
    sf: Callable = field(init=False, repr=False, compare=False)
    support: float = field(init=False, repr=False, compare=False)
    geometry: str | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        base = LAWS.get(self.law)
        if base is None:
            raise DomainError(f"unknown law {self.law!r}; expected one of {tuple(LAWS)}")
        m = self.scale
        if not (math.isfinite(m) and m > 0):
            raise DomainError(f"law scale must be a positive finite number, got {m}")
        if m == 1.0:
            # The hot path of g and phi: no wrapper at the standard member.
            pdf, cdf = base.pdf, base.cdf
        else:

            def pdf(x):
                return base.pdf(np.asarray(x, dtype=float) / m) / m

            def cdf(x):
                return base.cdf(np.asarray(x, dtype=float) / m)

        def sf(x):
            # Every registry law is symmetric: 1 - F(x) = F(-x).
            return cdf(-x)

        set_field = object.__setattr__  # the derived fields of a frozen instance
        set_field(self, "pdf", pdf)
        set_field(self, "cdf", cdf)
        set_field(self, "sf", sf)
        set_field(self, "support", base.support * m)
        set_field(self, "geometry", base.geometry)


def gaussian_model() -> Model:
    return Model("NORM")


def cauchy_model() -> Model:
    return Model("CAU")


@dataclass(frozen=True)
class UnimodalityCheck:
    """Outcome of the discrete unimodality scan of phi, with the scanned table."""

    ok: bool
    violation_s: float | None
    table: np.ndarray  # shape (n, 2): columns s, phi(s)


def _targets(v: np.ndarray) -> np.ndarray:
    """Inversion targets checked to lie in (0, 1) and clamped to the floor."""
    if v.ndim != 1:
        raise DomainError(f"g_inverse takes a float or a 1-D array, got shape {v.shape}")
    bad = ~((v > 0.0) & (v < 1.0))
    if bad.any():
        raise DomainError(f"g takes values in (0, 1); cannot invert at {v[bad][0]}")
    clamped = np.clip(v, GINV_FLOOR, 1.0 - GINV_FLOOR)
    moved = np.flatnonzero(clamped != v)
    if moved.size:
        warnings.warn(
            f"g_inverse query {v[moved[0]]:.3e} clamped to {clamped[moved[0]]:.3e} "
            f"({moved.size} of {v.size} queries); the scale diverges at the ends of (0, 1)",
            RuntimeWarning,
            stacklevel=3,
        )
    return clamped


def _convex_values(vals: np.ndarray) -> bool:
    """Whether the second differences of vals on a uniform grid are >= -1e-8."""
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    return bool(np.min(second) >= -1e-8)


class GFunction:
    """g(s) = E rho(Z/s) with inverse, phi(s) = -s g'(s) and its peak.

    Immutable after construction apart from caches: the bracketing table
    (filled cell by cell as queries need it), the ladders beyond it and the
    peak are computed lazily on first use and then shared by all readers.
    """

    def __init__(self, rho: RhoSpec, model: Model):
        self.rho = rho
        self.model = model
        # rho(z/s) at the unit nodes v = z/(k s) equals rho(k v): independent
        # of s, so the finite integrand is precomputed once.
        self._wrho = _UW * rho_eval(rho, rho.k * _UX)
        self._wgphi = np.column_stack((self._wrho, _WPHI))
        self._table: np.ndarray | None = None  # g on _TABLE_GRID
        self._ladders: dict[bool, tuple[np.ndarray, np.ndarray]] = {}
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
        if self.rho.family == ALPHA_QUANTILE:
            return 2.0 * self.model.sf(a)
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

    def g_inverse(self, v):
        """The scale s with g(s) = v, for v in (0, 1); unique by monotonicity.

        v is a float (the result is a float) or a 1-D array of targets (the
        result is an array of scales, from one vector iteration).
        """
        if isinstance(v, np.ndarray):
            s = self._invert(v)
            failed = np.isnan(s)
            if failed.any():
                raise NumericalError(
                    f"g_inverse did not bracket or converge for {np.count_nonzero(failed)} "
                    f"of {v.size} targets (first at g = {v[failed][0]})"
                )
            return s
        if not GINV_FLOOR <= v <= 1.0 - GINV_FLOOR:
            v = float(_targets(np.array([v], dtype=float))[0])
        return self._newton_float(v, *self._bracket(v))

    def _invert(self, v: np.ndarray) -> np.ndarray:
        """g_inverse of an array of targets, NaN where a target failed to
        bracket or converge: the per-point form for curves over eps grids."""
        v = _targets(v)
        lo, hi = self._brackets(v)
        s = np.full_like(v, np.nan)
        found = ~np.isnan(lo)
        s[found] = self._newton_array(v[found], lo[found], hi[found])
        return s

    def _g_phi_at(self, a, inside: bool):
        """(g, phi) at a = k s from one density evaluation; a is a float, or a
        1-D array wholly on one side of the edge."""
        if inside and self.rho.family != ALPHA_QUANTILE:
            finite = self.model.pdf(_column(a) * _UX) @ self._wgphi
            return (
                2.0 * a * finite[..., 0] + 2.0 * self.model.sf(a),
                2.0 * a * finite[..., 1],
            )
        return self._g_at(a, inside), self._phi_at(a, inside)

    def _newton_float(self, v: float, lo: float, hi: float) -> float:
        """Safeguarded Newton in log s for one target inside the bracket [lo, hi]."""
        k, edge = self.rho.k, self.model.support
        s = math.sqrt(lo * hi)
        step = prev = math.log(hi / lo)  # sizes of the last two steps in log s
        for _ in range(_MAX_STEPS):
            g, phi = self._g_phi_at(k * s, k * s <= edge)
            r = float(g - v)
            if r > 0.0:
                lo = s
            elif r < 0.0:
                hi = s
            t = math.log(s)
            # Newton when its step r/phi stays inside the bracket and is under
            # half the step before last (so rounding noise in g cannot stall
            # it); in product form, which cannot overflow.
            if (
                phi * (math.log(lo) - t) <= r <= phi * (math.log(hi) - t)
                and 2.0 * abs(r) <= prev * phi
            ):
                dt = r / phi if r else 0.0
                prev, step = step, abs(dt)
                new = min(max(s * math.exp(dt), lo), hi)
            else:
                prev, step = step, 0.5 * math.log(hi / lo)
                new = math.sqrt(lo * hi)
            if abs(new - s) <= _XTOL + _RTOL * new or hi - lo <= _XTOL + _RTOL * lo:
                return float(new)
            s = new
        raise NumericalError(f"g_inverse did not converge at g = {v} in {_MAX_STEPS} steps")

    def _newton_array(self, v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """_newton_float for every target at once; converged targets leave the
        pass, and a target not converged in _MAX_STEPS steps is left NaN."""
        out = np.full_like(v, np.nan)
        active = np.arange(v.size)
        s = np.sqrt(lo * hi)
        step = prev = np.log(hi / lo)
        for _ in range(_MAX_STEPS):
            g, phi = self._scan(self._g_phi_at, s, (2,))
            r = g - v
            lo = np.where(r > 0.0, s, lo)
            hi = np.where(r < 0.0, s, hi)
            t = np.log(s)
            newton = (
                (phi * (np.log(lo) - t) <= r)
                & (r <= phi * (np.log(hi) - t))
                & (2.0 * np.abs(r) <= prev * phi)
            )
            newton_step = np.divide(r, phi, out=np.zeros_like(r), where=newton & (r != 0.0))
            prev, step = step, np.where(newton, np.abs(newton_step), 0.5 * np.log(hi / lo))
            new = np.where(newton, np.clip(s * np.exp(newton_step), lo, hi), np.sqrt(lo * hi))
            done = (np.abs(new - s) <= _XTOL + _RTOL * new) | (hi - lo <= _XTOL + _RTOL * lo)
            out[active[done]] = new[done]
            if done.all():
                return out
            keep = ~done
            active, v, lo, hi, s = active[keep], v[keep], lo[keep], hi[keep], new[keep]
            step, prev = step[keep], prev[keep]
        return out

    def _ensure_table(self) -> np.ndarray:
        """g on _TABLE_GRID, NaN at fine points not yet evaluated; callers fill
        and search the array handed to them (two threads may each build one)."""
        if self._table is None:
            g_vals = np.full(_TABLE_SIZE, np.nan)
            g_vals[_COARSE] = self._scan(self._g_at, _TABLE_GRID[_COARSE])
            self._table = g_vals
        return self._table

    def _bracket(self, v: float) -> tuple[float, float]:
        """Adjacent table scales (or ladder rungs beyond the table) with g >= v > g."""
        g_vals = self._ensure_table()
        n = len(_COARSE)
        # g decreasing: reverse for searchsorted; v lies in coarse cell
        # [_COARSE[i], _COARSE[i + 1]] with g >= v at its start, g < v at its end.
        idx = np.searchsorted(g_vals[_COARSE][::-1], v)
        if not 0 < idx < n:
            lo, hi = self._climb(np.array([v]), below=idx == 0)
            if np.isnan(lo[0]):
                raise NumericalError(f"could not bracket g = {v} beyond the table")
            return lo[0], hi[0]
        i = n - idx - 1
        self._fill_cell(g_vals, i)
        lo = _COARSE[i]
        cell = g_vals[lo : _COARSE[i + 1] + 1]
        # first grid point with g < v sits at j, g >= v at j-1
        j = lo + len(cell) - np.searchsorted(cell[::-1], v)
        return _TABLE_GRID[j - 1], _TABLE_GRID[j]

    def _brackets(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Brackets of an array of targets: the coarse cell [_COARSE[i],
        _COARSE[i + 1]] holding each target inside the table (no fine point
        is filled), or ladder rungs beyond it; a target past the last rung
        gets NaN ends.  _bracket's fine cells stay the start of float
        inversions, where the extra Newton step would cost more than a fill
        shared by later queries."""
        g_coarse = self._ensure_table()[_COARSE]
        n = len(_COARSE)
        idx = np.searchsorted(g_coarse[::-1], v)
        inner = (0 < idx) & (idx < n)
        cell = n - idx[inner] - 1
        lo = np.empty_like(v)
        hi = np.empty_like(v)
        lo[inner], hi[inner] = _TABLE_GRID[_COARSE[cell]], _TABLE_GRID[_COARSE[cell + 1]]
        for below, beyond in ((True, idx == 0), (False, idx == n)):
            if beyond.any():
                lo[beyond], hi[beyond] = self._climb(v[beyond], below)
        return lo, hi

    def _fill_cell(self, g_vals: np.ndarray, i: int) -> None:
        """Evaluate the fine points of coarse cell i of g_vals, by a scan of their own."""
        lo, hi = _COARSE[i], _COARSE[i + 1]
        if np.isnan(g_vals[lo + 1]):
            g_vals[lo + 1 : hi] = self._scan(self._g_at, _TABLE_GRID[lo + 1 : hi])

    def _climb(self, v: np.ndarray, below: bool) -> tuple[np.ndarray, np.ndarray]:
        """Brackets of targets beyond one end of the table, from its ladder.

        The rungs are s_end 2^m (below: targets under the smallest tabulated
        g) or s_0 2^-m, m = 0.._MAX_STEPS; g on rungs 1 on comes from one scan
        the first time a target needs it.  A target gets the first rung past
        it and the rung before; past the last rung, NaN ends.
        """
        if below not in self._ladders:
            end = _TABLE_GRID[-1 if below else 0]
            rungs = np.ldexp(end, np.arange(_MAX_STEPS + 1) * (1 if below else -1))
            self._ladders[below] = (rungs, self._scan(self._g_at, rungs[1:]))
        rungs, g = self._ladders[below]
        past = g < v[:, None] if below else g > v[:, None]
        m = np.argmax(past, axis=1)
        near, far = rungs[m], rungs[m + 1]
        missed = ~past[np.arange(v.size), m]
        near[missed] = far[missed] = np.nan
        return (near, far) if below else (far, near)

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
            return 2.0 * a * np.dot(self.model.pdf(_column(a) * _UX), _WPHI)
        edge = self.model.support
        z = edge * _UX
        v = z / _column(a)
        vals = 6.0 * v**2 * (1.0 - v**2) ** 2 * self.model.pdf(z)
        return 2.0 * edge * np.dot(vals, _UW)

    def _scan(self, kernel, s_grid: np.ndarray, shape: tuple = ()) -> np.ndarray:
        """Apply a kernel over a grid of scales, _SCAN_ROWS rows at a time.

        ``shape`` is the leading shape of the result: () for _g_at and
        _phi_at, (2,) for _g_phi_at, whose two rows are g and phi.
        """
        if np.any(s_grid <= 0):
            raise DomainError("scan grid must be strictly positive")
        a = self.rho.k * s_grid
        out = np.empty(shape + a.shape)
        inside = a <= self.model.support
        for side in (True, False):
            idx = np.flatnonzero(inside == side)
            for start in range(0, idx.size, _SCAN_ROWS):
                rows = idx[start : start + _SCAN_ROWS]
                out[..., rows] = kernel(a[rows], side)
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
            self._peak = numerics.maximize_unimodal(self.phi_eval, lo, hi, xtol=1e-12)
        return self._peak

    def check_phi_unimodal(self) -> UnimodalityCheck:
        """Scan phi on a log grid and verify a single rise-then-fall profile."""
        if self._unimodal is not None:
            return self._unimodal
        k = self.rho.k
        s_grid = np.logspace(math.log10(1e-3 * k), math.log10(1e3 * k), _UNIMODAL_POINTS)
        vals = self._scan(self._phi_at, s_grid)
        diffs = np.diff(vals)
        i_max = int(np.argmax(vals))
        slack = 1e-12 * max(float(np.max(vals)), 1e-300)
        rise, fall = diffs[:i_max] >= -slack, diffs[i_max:] <= slack
        bad = np.flatnonzero(~np.concatenate((rise, fall)))  # a NaN breaks the profile too
        self._unimodal = UnimodalityCheck(
            ok=not bad.size,
            violation_s=float(s_grid[bad[0]]) if bad.size else None,
            table=np.column_stack((s_grid, vals)),
        )
        return self._unimodal

    def check_g_convex(self, lo: float | None = None, hi: float | None = None) -> bool:
        """Discrete convexity of g over [lo, hi] (default: [sigma_M/50, 4 sigma_M])."""
        if lo is None or hi is None:
            sigma_m, _ = self.peak()
            lo = lo if lo is not None else sigma_m / 50.0
            hi = hi if hi is not None else 4.0 * sigma_m
        return _convex_values(self._scan(self._g_at, np.linspace(lo, hi, _CONVEX_POINTS)))

    def phi_table(self, s_grid) -> np.ndarray:
        """(s, phi(s)) rows over an explicit grid."""
        s_grid = np.asarray(s_grid, dtype=float)
        return np.column_stack((s_grid, self._scan(self._phi_at, s_grid)))


def write_phi_csv(gf: GFunction, s_grid, out) -> None:
    """Export a phi profile as CSV rows ``s,phi``."""
    write_rows(out, ("s", "phi"), gf.phi_table(s_grid))
