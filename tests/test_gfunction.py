import io
import math

import numpy as np
import pytest
from scipy import integrate as spi
from scipy import special

from maxbias.efficiency import LAW_NAMES, error_law
from maxbias.errors import DomainError
from maxbias.gfunction import (
    _COARSE,
    _TABLE_STRIDE,
    GFunction,
    second_differences_nonnegative,
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
        assert gf_step_gauss.phi_unimodal_verified

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
        assert not second_differences_nonnegative(math.sqrt, 0.5, 4.0)


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


ALL_MODELS = pytest.mark.parametrize(
    "model",
    [gaussian_model(), cauchy_model()] + [error_law(name).model for name in LAW_NAMES],
    ids=lambda m: m.name,
)
ALL_RHOS = pytest.mark.parametrize(
    "rho",
    [biweight(1.0), biweight(4.685), alpha_quantile(1.0)],
    ids=lambda r: f"{r.family}-{r.k:g}",
)


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

    def test_one_inversion_fills_one_cell(self, gf_biw1_gauss):
        gf = GFunction(gf_biw1_gauss.rho, gf_biw1_gauss.model)
        gf.g_inverse(0.5)
        filled = np.count_nonzero(~np.isnan(gf._table[1]))
        assert filled == len(_COARSE) + _TABLE_STRIDE - 1
