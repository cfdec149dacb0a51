import dataclasses
import io
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate as spi
from scipy import special

from maxbias.efficiency import LAW_NAMES, error_law
from maxbias.errors import DomainError, NumericalError
from maxbias import numerics
from maxbias.gfunction import (
    _COARSE,
    _TABLE_GRID,
    _TABLE_SIZE,
    _TABLE_STRIDE,
    _WPHI,
    CAUCHY,
    GAUSSIAN,
    GINV_FLOOR,
    LAWS,
    GFunction,
    Model,
    _convex_values,
    write_phi_csv,
)
from maxbias.rho import alpha_quantile, biweight, rho_eval
from maxbias import cauchy_model, gaussian_model


def quad_g_oracle(gf, s):
    """Independent route: adaptive quadrature of the defining expectation."""
    k = gf.rho.k
    a = k * s
    upper = min(a, gf.model.support)
    body, _ = spi.quad(
        lambda z: rho_eval(gf.rho, z / s) * float(gf.model.pdf(np.array([z]))[0]),
        0.0,
        upper,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=300,
    )
    return 2.0 * body + 2.0 * float(gf.model.sf(np.asarray(a, dtype=float)))


# Every registry law at scale 1 and at its IQR-matching scale.
PROPERTY_MODELS = [Model(name) for name in LAWS] + [error_law(name) for name in LAW_NAMES]
PROPERTY_RHOS = [biweight(1.5476), biweight(4.685), alpha_quantile()]
_property_gfs: dict = {}


def _property_gf(model, rho):
    key = (model, rho)
    if key not in _property_gfs:
        _property_gfs[key] = GFunction(rho, model)
    return _property_gfs[key]


class TestGEval:
    def test_step_gaussian_closed_form(self, gf_step_gauss):
        assert gf_step_gauss.g_eval(1.0) == pytest.approx(
            2.0 * float(special.ndtr(-1.0)), abs=1e-14
        )
        assert gf_step_gauss.g_eval(1.0) == pytest.approx(0.31731, abs=1e-5)

    def test_step_cauchy_closed_form(self, cauchy):
        gf = GFunction(alpha_quantile(), cauchy)
        assert gf.g_eval(1.0) == pytest.approx(0.5, abs=1e-14)

    def test_biweight_gaussian_half_anchor(self, gf_biw156_gauss):
        assert gf_biw156_gauss.g_eval(1.0) == pytest.approx(0.50, abs=0.01)

    def test_matches_adaptive_quadrature_oracle(self, gf_biw156_gauss, gf_biw1_cauchy):
        for gf in (gf_biw156_gauss, gf_biw1_cauchy):
            for s in (0.05, 0.3, 1.0, 4.0, 30.0):
                assert gf.g_eval(s) == pytest.approx(quad_g_oracle(gf, s), abs=1e-9)

    def test_strictly_decreasing(self, gf_biw1_gauss):
        grid = np.logspace(-2, 2, 200)
        vals = [gf_biw1_gauss.g_eval(s) for s in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_limits(self, gauss, cauchy):
        for model in (gauss, cauchy):
            for rho in (biweight(1.0), alpha_quantile()):
                gf = GFunction(rho, model)
                assert gf.g_eval(1e-5) > 1.0 - 1e-3
                assert gf.g_eval(1e5) < 1e-3

    def test_scale_covariance(self, gauss):
        # rho(u) = rho_T(u/k) shifts the profile: g_k(s) = g_1(k s).
        g1 = GFunction(biweight(1.0), gauss)
        gk = GFunction(biweight(2.5), gauss)
        for s in (0.1, 0.7, 2.0, 11.0):
            assert gk.g_eval(s) == pytest.approx(g1.g_eval(2.5 * s), rel=1e-12)

    def test_rejects_nonpositive_scale(self, gf_biw1_gauss):
        with pytest.raises(DomainError):
            gf_biw1_gauss.g_eval(0.0)
        with pytest.raises(DomainError):
            gf_biw1_gauss.phi_eval(-1.0)


class TestGInverse:
    def test_round_trip_random_scales(self, gf_biw156_gauss):
        rng = np.random.default_rng(21)
        for s0 in rng.uniform(0.1, 10.0, size=12):
            v = gf_biw156_gauss.g_eval(s0)
            assert gf_biw156_gauss.g_inverse(v) == pytest.approx(s0, abs=1e-6)

    def test_round_trip_wide_range(self, gf_biw1_gauss, gf_step_gauss):
        # The step loss under a Gaussian tail leaves the inversion clamp range
        # (g < 1e-12) beyond s ~ 7, so its round trip stops there.
        for gf, scales in (
            (gf_biw1_gauss, (0.05, 0.5, 5.0, 50.0)),
            (gf_step_gauss, (0.05, 0.5, 5.0)),
        ):
            for s in scales:
                v = gf.g_eval(s)
                assert abs(gf.g_inverse(v) - s) <= 1e-6 * max(1.0, s)

    def test_step_gaussian_quantile(self, gf_step_gauss):
        assert gf_step_gauss.g_inverse(0.3173105078629141) == pytest.approx(1.0, abs=1e-9)

    def test_biweight_tuning_anchor(self, gf_biw156_gauss):
        assert gf_biw156_gauss.g_inverse(0.5) == pytest.approx(1.0, abs=0.01)

    def test_domain_and_clamping(self, gf_biw1_gauss):
        with pytest.raises(DomainError):
            gf_biw1_gauss.g_inverse(0.0)
        with pytest.raises(DomainError):
            gf_biw1_gauss.g_inverse(1.0)
        with pytest.warns(RuntimeWarning):
            s = gf_biw1_gauss.g_inverse(1e-13)
        assert s > 1e3

    def test_array_domain_and_clamping(self, gf_biw1_gauss):
        for bad in (0.0, 1.0, -0.5, math.nan):
            with pytest.raises(DomainError):
                gf_biw1_gauss.g_inverse(np.array([0.3, bad, 0.6]))
        for shape in ((), (2, 2)):
            with pytest.raises(DomainError):
                gf_biw1_gauss.g_inverse(np.full(shape, 0.5))
        with pytest.warns(RuntimeWarning) as caught:
            s = gf_biw1_gauss.g_inverse(np.array([1e-13, 0.5, 1e-14, 1.0 - 1e-14]))
        assert len(caught) == 1  # one warning per call
        assert s[0] == s[2] > 1e3 and s[-1] < 1e-3
        assert s[1] == pytest.approx(gf_biw1_gauss.g_inverse(0.5), rel=1e-14)
        assert type(gf_biw1_gauss.g_inverse(np.float64(0.5))) is float

    def test_float_and_array_agree(self):
        # Relative agreement where g has no rounding plateau (phi not tiny).
        v = np.linspace(0.05, 0.95, 91)
        for model in PROPERTY_MODELS:
            for rho in PROPERTY_RHOS:
                gf = _property_gf(model, rho)
                floats = np.array([gf.g_inverse(float(x)) for x in v])
                assert np.max(np.abs(gf.g_inverse(v) - floats) / floats) <= 1e-14

    def test_no_brent_solve(self, gf_biw156_gauss, monkeypatch):
        gf_biw156_gauss.g_inverse(0.4)

        def forbidden(*args, **kwargs):
            raise AssertionError("g_inverse called find_root")

        monkeypatch.setattr(numerics, "find_root", forbidden)
        gf_biw156_gauss.g_inverse(0.41)
        gf_biw156_gauss.g_inverse(np.array([0.2, 0.41, 0.7]))

    def test_at_least_as_accurate_as_brent(self):
        # Error estimate |g(s) - v| / phi(s) of a root in log s, against
        # Brent's method on g to the tolerance g_inverse used before.  Not
        # SL, whose g carries rounding noise near s -> 0 that bounds both, nor
        # UNIF, where the step loss makes g linear and Brent's secant exact.
        v = np.linspace(0.01, 0.99, 400)
        for model in (gaussian_model(), cauchy_model(), Model("T3"), Model("DE"), Model("CN")):
            for rho in PROPERTY_RHOS:
                gf = _property_gf(model, rho)

                def error(s, target):
                    return abs(gf.g_eval(s) - target) / gf.phi_eval(s)

                newton = max(error(s, x) for s, x in zip(gf.g_inverse(v), v))
                brent = max(
                    error(
                        numerics.find_root(
                            lambda s: gf.g_eval(s) - x, *gf._bracket(x), xtol=1e-14, rtol=1e-13
                        ),
                        x,
                    )
                    for x in v
                )
                assert newton <= brent

    def test_step_loss_beyond_uniform_support_bisects(self):
        # phi = 0 where k s > 1: a Newton step from there is undefined.
        gf = GFunction(alpha_quantile(), Model("UNIF"))
        lo, hi = 0.5, 4.0
        assert gf.phi_eval(math.sqrt(lo * hi)) == 0.0
        for v in (0.25, 0.5, 0.9, 1e-3):
            # g(s) = 1 - s on the support.
            assert gf._newton_float(v, lo / 100, hi) == pytest.approx(1.0 - v, rel=1e-13)
        v = np.array([0.25, 1e-3, 0.5])
        s = gf._newton_array(v, np.full(3, lo / 100), np.full(3, hi))
        np.testing.assert_allclose(s, 1.0 - v, rtol=1e-13)
        np.testing.assert_allclose(gf.g_inverse(v), 1.0 - v, rtol=1e-13)

    def test_nonconvergence_raises(self, gf_biw1_gauss, monkeypatch):
        monkeypatch.setattr("maxbias.gfunction._MAX_STEPS", 1)
        lo, hi = gf_biw1_gauss._bracket(0.5)
        with pytest.raises(NumericalError):
            gf_biw1_gauss._newton_float(0.5, lo, hi)
        # The array iteration leaves the target NaN; the public array call raises.
        s = gf_biw1_gauss._newton_array(np.array([0.5]), np.array([lo]), np.array([hi]))
        assert np.isnan(s).all()
        with pytest.raises(NumericalError):
            gf_biw1_gauss.g_inverse(np.array([0.5]))

    def test_array_failures_are_reported_per_target(self):
        # 1e-11 lies beyond the table, past a ladder cut short above it.
        gf = GFunction(biweight(1.0), gaussian_model())
        gf.g_inverse(1e-9)  # builds the ladder above the table
        rungs, g = gf._ladders[True]
        above = np.count_nonzero(g >= 1e-11)
        gf._ladders[True] = (rungs[: above + 1], g[:above])
        v = np.array([0.5, 1e-11, 0.25])
        s = gf._invert(v)
        assert np.isnan(s[1]) and not np.isnan(s[[0, 2]]).any()
        with pytest.raises(NumericalError, match="1 of 3 targets"):
            gf.g_inverse(v)
        with pytest.raises(NumericalError, match="could not bracket"):
            gf.g_inverse(1e-11)


class TestPhi:
    def test_step_gaussian_closed_form(self, gf_step_gauss):
        expected = 2.0 * math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert gf_step_gauss.phi_eval(1.0) == pytest.approx(expected, abs=1e-14)
        assert gf_step_gauss.phi_eval(1.0) == pytest.approx(0.48394, abs=1e-5)

    def test_vanishes_at_extremes(self, gf_biw468_gauss, gf_step_gauss, gf_biw1_cauchy):
        for gf in (gf_biw468_gauss, gf_step_gauss, gf_biw1_cauchy):
            assert gf.phi_eval(1e-4) < 1e-3
            assert gf.phi_eval(1e4) < 1e-3

    def test_matches_centered_difference_of_g(self, gf_biw468_gauss):
        for s in np.logspace(-0.5, 1.2, 15):
            h = 1e-5 * s
            num = -(s * (gf_biw468_gauss.g_eval(s + h) - gf_biw468_gauss.g_eval(s - h))
                    / (2 * h))
            assert gf_biw468_gauss.phi_eval(s) == pytest.approx(num, abs=1e-5)

    def test_phi_consistency_across_models(self, gf_biw1_cauchy, gf_step_gauss):
        for gf in (gf_biw1_cauchy, gf_step_gauss):
            for s in (0.3, 1.0, 3.0):
                h = 1e-5 * s
                num = -(s * (gf.g_eval(s + h) - gf.g_eval(s - h)) / (2 * h))
                assert gf.phi_eval(s) == pytest.approx(num, abs=1e-5)


class TestPeak:
    def test_step_gaussian_peak(self, gf_step_gauss):
        sigma_m, cap = gf_step_gauss.peak()
        assert sigma_m == pytest.approx(1.0, abs=1e-6)
        assert cap == pytest.approx(2.0 * math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-10)

    def test_agrees_with_grid_argmax(self, gf_biw156_gauss):
        grid = np.logspace(-2, 2, 10_000)
        vals = [gf_biw156_gauss.phi_eval(s) for s in grid]
        s_grid = grid[int(np.argmax(vals))]
        sigma_m, _ = gf_biw156_gauss.peak()
        spacing = s_grid * (grid[1] / grid[0] - 1.0)
        assert abs(sigma_m - s_grid) <= 2 * spacing

    def test_cutoff_rescaling_moves_peak_not_height(self, gauss):
        # g_k(s) = g_1(k s): the peak scale is sigma_M(1)/k, the height is k-free.
        base = GFunction(biweight(1.0), gauss).peak()
        scaled = GFunction(biweight(3.0), gauss).peak()
        # The argmax of a flat maximum is only sqrt(eps)-determined.
        assert scaled[0] == pytest.approx(base[0] / 3.0, rel=1e-6)
        assert scaled[1] == pytest.approx(base[1], rel=1e-10)


class TestUnimodalityAndConvexity:
    def test_phi_unimodal_biweight_gaussian(self, gf_biw468_gauss):
        assert gf_biw468_gauss.check_phi_unimodal().ok

    def test_phi_unimodal_step_gaussian(self, gf_step_gauss):
        assert gf_step_gauss.check_phi_unimodal().ok

    def test_phi_unimodal_biweight_cauchy(self, gf_biw156_cauchy):
        assert gf_biw156_cauchy.check_phi_unimodal().ok

    def test_unimodality_table_shape(self, gf_biw1_gauss):
        check = gf_biw1_gauss.check_phi_unimodal()
        assert check.table.shape[1] == 2
        assert check.violation_s is None

    def test_g_convex_biweight_on_dominance_range(self, gf_biw156_gauss):
        sigma_m, _ = gf_biw156_gauss.peak()
        assert gf_biw156_gauss.check_g_convex(lo=0.02, hi=4.0 * sigma_m)

    def test_g_convex_step(self, gf_step_gauss):
        assert gf_step_gauss.check_g_convex(lo=0.05, hi=4.0)

    def test_concave_negative_control(self):
        assert not _convex_values(np.sqrt(np.linspace(0.5, 4.0, 400)))

    @pytest.mark.parametrize("name", list(LAWS))
    def test_every_density_is_nonincreasing(self, name):
        # The premise of the convexity theorem the dominance hypotheses rest on.
        z = np.logspace(-12.0, 12.0, 4001)
        assert np.all(np.diff(LAWS[name].pdf(z)) <= 0.0)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        model=st.sampled_from(PROPERTY_MODELS),
        k=st.one_of(st.none(), st.floats(0.3, 6.0)),
        log_lo=st.floats(-4.0, 4.0),
        log_width=st.floats(0.01, 8.0),
    )
    def test_g_convex_everywhere(self, model, k, log_lo, log_width):
        # k None: the step loss.
        rho = alpha_quantile() if k is None else biweight(k)
        lo = 10.0**log_lo
        hi = 10.0 ** min(log_lo + log_width, 4.0)
        assume(hi > lo)
        assert GFunction(rho, model).check_g_convex(lo, hi)


class TestPhiExport:
    def test_csv_shape_and_header(self, gf_step_gauss):
        buf = io.StringIO()
        write_phi_csv(gf_step_gauss, np.logspace(-1, 1, 9), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "s,phi"
        assert len(lines) == 10
        s, phi = (float(x) for x in lines[5].split(","))
        assert phi == pytest.approx(gf_step_gauss.phi_eval(s), rel=1e-8)

    def test_rejects_nonpositive_grid(self, gf_step_gauss):
        with pytest.raises(DomainError):
            gf_step_gauss.phi_table([0.0, 1.0])


# The two carriers and the seven laws at their IQR-matching scales.
SCAN_MODELS = [gaussian_model(), cauchy_model()] + [error_law(name) for name in LAW_NAMES]
SCAN_RHOS = [biweight(1.0), biweight(4.685), alpha_quantile(1.0)]
ALL_MODELS = pytest.mark.parametrize(
    "model", SCAN_MODELS, ids=["gaussian", "cauchy"] + [f"law-{name}" for name in LAW_NAMES]
)
ALL_RHOS = pytest.mark.parametrize("rho", SCAN_RHOS, ids=lambda r: f"{r.family}-{r.k:g}")


class TestBlockedScan:
    """Grid scans evaluate the node matrix in row blocks; scalar calls one row."""

    GRID = np.logspace(-4.0, 4.0, 2048)

    @ALL_MODELS
    @ALL_RHOS
    def test_scan_matches_scalar_calls(self, model, rho):
        gf = GFunction(rho, model)
        for kernel, scalar in ((gf._g_at, gf.g_eval), (gf._phi_at, gf.phi_eval)):
            blocked = gf._scan(kernel, self.GRID)
            pointwise = np.array([scalar(s) for s in self.GRID])
            assert np.max(np.abs(blocked - pointwise)) <= 1e-15

    def test_scan_rejects_nonpositive_scales(self, gf_biw1_gauss):
        with pytest.raises(DomainError):
            gf_biw1_gauss.check_g_convex(lo=0.0, hi=1.0)


class TestBracketTable:
    """The bracketing table is filled coarse to fine, one cell per query region."""

    @ALL_MODELS
    @ALL_RHOS
    def test_bracket_matches_full_table(self, model, rho):
        gf = GFunction(rho, model)
        s_grid = np.logspace(-4.0, 4.0, 2048)
        g_vals = gf._scan(gf._g_at, s_grid)
        # The midpoint of every gap between adjacent table values that is wider
        # than rounding: cells are scanned in blocks of their own, so a table
        # value can differ from the full scan's in the last bit.
        wide = g_vals[:-1] - g_vals[1:] > 1e-13
        for v in 0.5 * (g_vals[:-1] + g_vals[1:])[wide]:
            idx = np.searchsorted(g_vals[::-1], v)
            j = len(s_grid) - idx
            assert gf._bracket(v) == (s_grid[j - 1], s_grid[j])

    @pytest.mark.parametrize("rho", PROPERTY_RHOS, ids=lambda r: f"{r.family}-{r.k:g}")
    def test_array_inversion_fills_no_cell(self, rho):
        # Array targets are bracketed by coarse cells: every fine point stays empty.
        gf = GFunction(rho, gaussian_model())
        gf.g_inverse(np.concatenate((np.linspace(0.02, 0.98, 97), [1e-9, 1.0 - 1e-9])))
        fine = np.ones(_TABLE_SIZE, dtype=bool)
        fine[_COARSE] = False
        assert np.isnan(gf._table[fine]).all()
        assert not np.isnan(gf._table[_COARSE]).any()

    def test_array_brackets_are_coarse_cells_of_float_brackets(self, gf_biw468_gauss):
        v = np.concatenate((np.linspace(0.01, 0.99, 50), [1e-10, 1.0 - 1e-10]))
        lo, hi = gf_biw468_gauss._brackets(v)
        grid_index = {s: j for j, s in enumerate(_TABLE_GRID)}
        for x, got in zip(v, zip(lo, hi)):
            want = gf_biw468_gauss._bracket(float(x))
            if want[0] in grid_index and want[1] in grid_index:
                # The coarse cell [_COARSE[i], _COARSE[i + 1]] holding the fine one.
                i = np.searchsorted(_COARSE, grid_index[want[1]]) - 1
                want = (_TABLE_GRID[_COARSE[i]], _TABLE_GRID[_COARSE[i + 1]])
            assert got == want  # ladder brackets are shared by both paths

    @ALL_MODELS
    @ALL_RHOS
    def test_ladder_brackets_equal_doubling_and_halving(self, model, rho):
        gf = GFunction(rho, model)
        s_grid = _TABLE_GRID
        g_first, g_last = gf.g_eval(s_grid[0]), gf.g_eval(s_grid[-1])

        def reference(v):
            """Bracket by doubling from the last table scale or halving from the
            first, 200 steps at most; None if that does not reach v."""
            lo, hi = s_grid[-1], s_grid[0]
            for _ in range(200):
                if v <= g_last:
                    if gf.g_eval(2.0 * lo) < v:
                        return lo, 2.0 * lo
                    lo *= 2.0
                else:
                    if gf.g_eval(0.5 * hi) > v:
                        return 0.5 * hi, hi
                    hi *= 0.5
            return None

        def bracket(v):
            try:
                return gf._bracket(v)
            except NumericalError:
                return None

        below = g_last * np.array([0.9, 0.5, 1e-3, 1e-9, 1e-30, 1e-300])
        above = 1.0 - (1.0 - g_first) * np.array([0.9, 0.5, 1e-3, 1e-6, 1e-9])
        v = np.concatenate((below[below > 0.0], above[(above > g_first) & (above < 1.0)]))
        expected = [reference(x) for x in v]
        assert [bracket(float(x)) for x in v] == expected
        lo, hi = gf._brackets(v)
        assert [None if np.isnan(a) else (a, b) for a, b in zip(lo, hi)] == expected

    def test_one_inversion_fills_one_cell(self, gf_biw1_gauss):
        gf = GFunction(gf_biw1_gauss.rho, gf_biw1_gauss.model)
        gf.g_inverse(0.5)
        filled = np.count_nonzero(~np.isnan(gf._table))
        assert filled == len(_COARSE) + _TABLE_STRIDE - 1


class TestSharedInstance:
    """Threads sharing one fresh GFunction get the values it gives alone."""

    V = np.concatenate((np.linspace(0.02, 0.98, 49), [1e-10, 1.0 - 1e-7]))

    @staticmethod
    def _fresh():
        return GFunction(biweight(1.5476), gaussian_model())

    def _inversions(self, gf, floats_first=False):
        """(g_inverse of V as an array, of every 5th target as floats)."""
        if floats_first:
            floats = [gf.g_inverse(float(x)) for x in self.V[::5]]
            return gf.g_inverse(self.V), floats
        array = gf.g_inverse(self.V)
        return array, [gf.g_inverse(float(x)) for x in self.V[::5]]

    def test_four_threads_invert_as_one(self):
        want_array, want_floats = self._inversions(self._fresh())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                gf = self._fresh()
                start = threading.Barrier(4)
                results = [None] * 4

                def work(i, gf=gf, start=start, results=results):
                    start.wait(timeout=30)
                    results[i] = self._inversions(gf, floats_first=i % 2 == 0)

                threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert None not in results
                for got_array, got_floats in results:
                    assert np.array_equal(got_array, want_array)
                    assert got_floats == want_floats
        finally:
            sys.setswitchinterval(interval)

    def test_table_published_between_build_and_fill(self, monkeypatch):
        # The interleaving two threads can produce: this caller is handed a new
        # table, then another caller publishes its own before this one fills
        # a cell.  The caller must fill the table it searches.
        want_array, want_floats = self._inversions(self._fresh())
        gf = self._fresh()
        fill = gf._fill_cell

        def rival_publishes_first(*args):
            gf._table = None
            gf._ensure_table()
            return fill(*args)

        monkeypatch.setattr(gf, "_fill_cell", rival_publishes_first)
        got_array, got_floats = self._inversions(gf)
        assert np.array_equal(got_array, want_array)
        assert got_floats == want_floats

    def test_constants_shared_by_every_instance_are_read_only(self):
        for shared in (_TABLE_GRID, _WPHI):
            with pytest.raises(ValueError):
                shared[0] = 1.0


class TestModelRegistry:
    """Every law is one registry entry; a Model is (law, scale) and nothing else."""

    def test_equality_and_hash_are_law_and_scale(self):
        assert gaussian_model() == gaussian_model()
        assert hash(gaussian_model()) == hash(gaussian_model())
        assert error_law("NORM") == gaussian_model()
        assert hash(error_law("NORM")) == hash(gaussian_model())
        assert error_law("CAU") == Model("CAU", 0.6745)
        # The IQR-normalized Cauchy law is a different scale of the same law.
        assert cauchy_model() != error_law("CAU")
        assert len({gaussian_model(), error_law("NORM"), cauchy_model(), error_law("CAU")}) == 3

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            gaussian_model().scale = 2.0

    def test_rejects_unknown_law_and_bad_scale(self):
        with pytest.raises(DomainError):
            Model("T5")
        for scale in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                Model("NORM", scale)

    def test_geometry_is_a_field_of_the_law(self):
        assert gaussian_model().geometry == GAUSSIAN
        assert cauchy_model().geometry == error_law("CAU").geometry == CAUCHY
        for name in ("SL", "T3", "DE", "CN", "UNIF"):
            assert error_law(name).geometry is None

    def test_standard_member_uses_registry_callables(self):
        # No x/m wrapper on the hot path of g and phi at scale 1.
        for name, law in LAWS.items():
            model = Model(name)
            assert model.pdf is law.pdf and model.cdf is law.cdf

    def test_survival_function_of_the_carriers(self):
        x = np.concatenate((-np.logspace(-6, 6, 501), np.logspace(-6, 6, 501)))
        assert np.array_equal(gaussian_model().sf(x), special.ndtr(-x))
        assert np.array_equal(cauchy_model().sf(x), 0.5 - np.arctan(x) / math.pi)
        for s in (0.3, 1.7, 40.0):
            assert gaussian_model().sf(s) == special.ndtr(-s)
            assert cauchy_model().sf(s) == 0.5 - np.arctan(s) / math.pi


class TestGProperties:
    """Over every registry law and both scales: g inverts and decreases."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        model=st.sampled_from(PROPERTY_MODELS),
        rho=st.sampled_from(PROPERTY_RHOS),
        log_s=st.floats(-3.0, 3.0),
    )
    def test_round_trip(self, model, rho, log_s):
        gf = _property_gf(model, rho)
        v = gf.g_eval(10.0**log_s)
        assume(GINV_FLOOR < v < 1.0 - GINV_FLOOR)
        assert abs(gf.g_eval(gf.g_inverse(v)) - v) <= 1e-12

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        model=st.sampled_from(PROPERTY_MODELS),
        rho=st.sampled_from(PROPERTY_RHOS),
        log_s=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40),
    )
    def test_round_trip_of_target_arrays(self, model, rho, log_s):
        gf = _property_gf(model, rho)
        v = gf._scan(gf._g_at, 10.0 ** np.array(log_s))
        v = v[(GINV_FLOOR < v) & (v < 1.0 - GINV_FLOOR)]
        assume(v.size)
        s = gf.g_inverse(v)
        assert s.shape == v.shape
        assert max(abs(gf.g_eval(x) - y) for x, y in zip(s, v)) <= 1e-12

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        model=st.sampled_from(PROPERTY_MODELS),
        rho=st.sampled_from(PROPERTY_RHOS),
        log_s=st.floats(-3.0, 3.0),
        log_step=st.floats(-4.0, 0.0),
    )
    def test_strictly_decreasing(self, model, rho, log_s, log_step):
        gf = _property_gf(model, rho)
        s = 10.0**log_s
        t = s * (1.0 + 10.0**log_step)
        assume(t <= 1e3)
        g_s, g_t = gf.g_eval(s), gf.g_eval(t)
        assume(GINV_FLOOR < g_t and g_s < 1.0 - GINV_FLOOR)
        assert g_s > g_t

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(
        model=st.sampled_from(SCAN_MODELS),
        rho=st.sampled_from(SCAN_RHOS),
        inner=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=20),
        below=st.lists(st.floats(0.05, 3.0), max_size=3),
        above=st.lists(st.floats(0.05, 2.0), max_size=3),
    )
    def test_array_and_float_inversions_agree(self, model, rho, inner, below, above):
        # Array targets start from coarse cells, floats from fine ones: 1e-14
        # relative.  Targets beyond the table (decades below its last g, above
        # its first) start from the same ladder rungs, but there the rounding
        # of g is large against phi (g near 1, or an sf that cancels: CAU, T3)
        # and the array and float kernels round differently, so the bound adds
        # the rounding limit eps / phi(s) of the inversion.
        gf = _property_gf(model, rho)
        g_first, g_last = gf.g_eval(_TABLE_GRID[0]), gf.g_eval(_TABLE_GRID[-1])
        ladder = np.concatenate(
            (g_last * 10.0 ** -np.array(below), 1.0 - (1.0 - g_first) * 10.0 ** -np.array(above))
        )
        ladder = ladder[(GINV_FLOOR < ladder) & (ladder < 1.0 - GINV_FLOOR)]
        v = np.concatenate((inner, ladder))
        floats = np.array([gf.g_inverse(float(x)) for x in v])
        bound = np.full(v.size, 1e-14)
        bound[len(inner) :] += np.finfo(float).eps / gf.phi_table(floats[len(inner) :])[:, 1]
        assert np.all(np.abs(gf.g_inverse(v) - floats) / floats <= bound)
