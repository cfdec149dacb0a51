import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate as spi
from scipy import special

from maxbias import numerics
from maxbias.curves import (
    BiasPoint,
    bias_curve,
    breakdown_point,
    cm_estimate,
    cm_maxbias,
    critical_pair,
    mm_bounds,
    mm_estimate,
    objective_tail_inf,
    s_estimate,
    s_maxbias,
    scale_bounds,
    scale_objective,
    write_curve_csv,
)
from maxbias.efficiency import error_law
from maxbias.errors import DomainError
from maxbias.gfunction import GFunction, cauchy_model, gaussian_model
from maxbias.rho import alpha_quantile, biweight, rho_eval


def bisect_scale_oracle(rho, b, eps, which, n_iter=80):
    """Independent route for the extreme scales: hand bisection on g computed
    with adaptive quadrature under the standard normal, no package machinery."""
    target = (b - eps) / (1 - eps) if which == "sigma" else b / (1 - eps)

    def g(s):
        a = rho.k * s
        body, _ = spi.quad(
            lambda z: rho_eval(rho, z / s) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi),
            0.0,
            a,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=300,
        )
        return 2.0 * body + 2.0 * float(special.ndtr(-a))

    lo, hi = 1e-6, 1e6
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        if g(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestEstimatorSpec:
    def test_breakdown_examples(self):
        assert breakdown_point(s_estimate(biweight(1.0), 0.5)) == 0.5
        assert breakdown_point(s_estimate(biweight(4.68), 0.12)) == pytest.approx(0.12)
        assert breakdown_point(s_estimate(biweight(1.0), 0.7)) == pytest.approx(0.3)

    def test_mm_breakdown_uses_first_loss_quantile(self):
        spec = mm_estimate(biweight(1.56), biweight(4.68), 0.5)
        assert breakdown_point(spec) == 0.5

    def test_rejects_bad_quantile(self):
        with pytest.raises(DomainError):
            s_estimate(biweight(1.0), 1.0)

    def test_rejects_nondominating_mm_losses(self):
        with pytest.raises(DomainError):
            mm_estimate(biweight(4.68), biweight(1.56), 0.5)

    def test_rejects_nonpositive_cm_tuning(self):
        with pytest.raises(DomainError):
            cm_estimate(biweight(1.0), 0.5, 0.0)


class TestScaleBounds:
    def test_equal_at_zero_contamination(self, gf_biw156_gauss):
        sigma, gamma = scale_bounds(gf_biw156_gauss, 0.5, 0.0)
        assert sigma == pytest.approx(gamma, rel=1e-12)
        assert sigma == pytest.approx(gf_biw156_gauss.g_inverse(0.5), rel=1e-12)

    def test_ordering(self, gf_biw156_gauss):
        sigma, gamma = scale_bounds(gf_biw156_gauss, 0.5, 0.2)
        assert gamma < sigma

    def test_divergence_near_breakdown(self, gf_biw156_gauss):
        sigma, _ = scale_bounds(gf_biw156_gauss, 0.5, 0.5 - 1e-9)
        assert sigma > 1e3

    def test_matches_independent_bisection_oracle(self, gf_biw156_gauss):
        sigma, gamma = scale_bounds(gf_biw156_gauss, 0.5, 0.2)
        assert sigma == pytest.approx(
            bisect_scale_oracle(biweight(1.56), 0.5, 0.2, "sigma"), abs=1e-6
        )
        assert gamma == pytest.approx(
            bisect_scale_oracle(biweight(1.56), 0.5, 0.2, "gamma"), abs=1e-6
        )

    def test_domain_error_names_bound(self, gf_biw156_gauss):
        with pytest.raises(DomainError, match="min"):
            scale_bounds(gf_biw156_gauss, 0.5, 0.6)


class TestSMaxbias:
    def test_continuity_at_zero(self, gf_biw156_gauss):
        assert s_maxbias(gf_biw156_gauss, 0.5, 1e-8).lower < 1e-3

    def test_gaussian_formula_from_oracle_scales(self, gf_biw156_gauss):
        sigma = bisect_scale_oracle(biweight(1.56), 0.5, 0.2, "sigma")
        gamma = bisect_scale_oracle(biweight(1.56), 0.5, 0.2, "gamma")
        expected = math.sqrt((sigma / gamma) ** 2 - 1.0)
        point = s_maxbias(gf_biw156_gauss, 0.5, 0.2)
        assert point.exact and point.lower == point.upper
        assert point.lower == pytest.approx(expected, rel=1e-6)

    def test_cauchy_formula_uses_plain_ratio(self, gf_biw156_cauchy):
        sigma, gamma = scale_bounds(gf_biw156_cauchy, 0.5, 0.2)
        point = s_maxbias(gf_biw156_cauchy, 0.5, 0.2)
        assert point.lower == pytest.approx(sigma / gamma - 1.0, rel=1e-12)

    def test_strictly_increasing_and_divergent(self, gf_biw156_gauss, gf_biw156_cauchy):
        for gf in (gf_biw156_gauss, gf_biw156_cauchy):
            grid = np.arange(0.02, 0.5, 0.02)
            vals = [s_maxbias(gf, 0.5, e).lower for e in grid]
            assert all(x < y for x, y in zip(vals, vals[1:]))
            assert s_maxbias(gf, 0.5, 0.5 - 1e-6).lower > 1e2

    def test_beyond_breakdown_flags_infinite(self, gf_biw156_gauss):
        point = s_maxbias(gf_biw156_gauss, 0.5, 0.6)
        assert math.isinf(point.lower) and point.flag == "beyond-breakdown"


class TestObjectiveTailInf:
    def test_small_tuning_is_monotone(self, gf_biw1_gauss):
        _, cap = gf_biw1_gauss.peak()
        c = 0.5 / cap
        for lower in (0.3, 1.0, 4.0):
            value, argmin = objective_tail_inf(gf_biw1_gauss, c, 0.1, lower)
            assert argmin == lower
            assert value == pytest.approx(scale_objective(gf_biw1_gauss, c, 0.1, lower))

    def test_matches_dense_grid_oracle(self, gf_biw1_gauss):
        eps = 0.1
        _, gamma = scale_bounds(gf_biw1_gauss, 0.5, eps)
        value, _ = objective_tail_inf(gf_biw1_gauss, 2.568, eps, gamma)
        grid = np.logspace(math.log10(gamma), math.log10(1e3 * gamma), 100_000)
        oracle = min(scale_objective(gf_biw1_gauss, 2.568, eps, s) for s in grid)
        assert value == pytest.approx(oracle, rel=1e-6)

    def test_far_start_sits_on_boundary(self, gf_biw1_gauss):
        pair = critical_pair(gf_biw1_gauss, 3.5, 0.1)
        lower = 1e3 * pair.sigma_u
        value, argmin = objective_tail_inf(gf_biw1_gauss, 3.5, 0.1, lower)
        assert argmin == lower

    def test_grid_oracle_over_random_configurations(self, gf_biw1_gauss):
        rng = np.random.default_rng(42)
        _, cap = gf_biw1_gauss.peak()
        for _ in range(20):
            b = rng.uniform(0.3, 0.6)
            eps = rng.uniform(0.02, 0.9) * min(b, 1 - b)
            c = rng.uniform(1.01 / cap, 2.2 / cap)
            sigma, gamma = scale_bounds(gf_biw1_gauss, b, eps)
            for lower in (sigma, gamma):
                value, _ = objective_tail_inf(gf_biw1_gauss, c, eps, lower)
                grid = np.logspace(math.log10(lower), math.log10(1e3 * lower), 20_000)
                oracle = min(scale_objective(gf_biw1_gauss, c, eps, s) for s in grid)
                assert value <= oracle + 1e-12
                assert value == pytest.approx(oracle, rel=1e-6, abs=1e-8)

    def test_critical_pair_brackets_peak(self, gf_biw1_gauss):
        sigma_m, cap = gf_biw1_gauss.peak()
        pair = critical_pair(gf_biw1_gauss, 3.5, 0.1)
        assert pair.sigma_l <= sigma_m <= pair.sigma_u
        target = 1.0 / (0.9 * 3.5)
        assert gf_biw1_gauss.phi_eval(pair.sigma_l) == pytest.approx(target, rel=1e-8)
        assert gf_biw1_gauss.phi_eval(pair.sigma_u) == pytest.approx(target, rel=1e-8)
        # With this tuning the objective turns monotone beyond eps ~ 0.036.
        assert critical_pair(gf_biw1_gauss, 2.568, 0.1) is None
        assert critical_pair(gf_biw1_gauss, 0.5 / cap, 0.1) is None


class TestCmMaxbias:
    def test_reduces_to_s_for_small_tuning(self, gf_biw1_gauss):
        _, cap = gf_biw1_gauss.peak()
        c = 0.9 / cap
        for eps in np.arange(0.05, 0.5, 0.05):
            s_val = s_maxbias(gf_biw1_gauss, 0.5, eps).lower
            cm_val = cm_maxbias(gf_biw1_gauss, 0.5, c, eps).lower
            assert abs(cm_val - s_val) <= 1e-8

    def test_continuity_at_zero(self, gf_biw1_gauss):
        assert cm_maxbias(gf_biw1_gauss, 0.5, 2.568, 1e-8).lower < 1e-3

    def test_never_exceeds_s_with_admissible_tuning(self, gf_biw1_gauss):
        strict = False
        for eps in np.arange(0.05, 0.5, 0.05):
            s_val = s_maxbias(gf_biw1_gauss, 0.5, eps).lower
            cm_val = cm_maxbias(gf_biw1_gauss, 0.5, 2.568, eps).lower
            assert cm_val <= s_val + 1e-9
            strict |= cm_val < s_val - 1e-10
        # strictness shows up at small contamination for this tuning
        assert cm_maxbias(gf_biw1_gauss, 0.5, 2.568, 0.02).lower < (
            s_maxbias(gf_biw1_gauss, 0.5, 0.02).lower - 1e-6
        )

    def test_one_upper_stationary_solve_per_point(self, gf_biw1_gauss, monkeypatch):
        args = (gf_biw1_gauss, 0.5, 3.5, 0.1)
        expected = cm_maxbias(*args)  # warms the peak and the table cells
        brackets = []
        find_root = numerics.find_root

        def counting(f, lo, hi, **tol):
            brackets.append((lo, hi))
            return find_root(f, lo, hi, **tol)

        monkeypatch.setattr(numerics, "find_root", counting)
        assert cm_maxbias(*args) == expected
        # The upper stationary scale, once; g^{-1} at sigma and at gamma runs
        # its own Newton iteration, not find_root.
        assert len(brackets) == 1

    def test_cauchy_form(self, gf_biw1_cauchy):
        eps, c = 0.15, 2.568
        sigma, gamma = scale_bounds(gf_biw1_cauchy, 0.5, eps)
        inf_s, _ = objective_tail_inf(gf_biw1_cauchy, c, eps, sigma)
        inf_g, _ = objective_tail_inf(gf_biw1_cauchy, c, eps, gamma)
        expected = math.expm1(c * eps + inf_s - inf_g)
        assert cm_maxbias(gf_biw1_cauchy, 0.5, c, eps).lower == pytest.approx(
            expected, rel=1e-12
        )


class TestPointInputChecks:
    """b and c are checked before the eps = 0 and beyond-breakdown points are filled in."""

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.6], ids=["zero", "interior", "beyond"])
    @pytest.mark.parametrize("b", [-0.2, 1.0, 1.5])
    @pytest.mark.parametrize("point", ["s", "cm", "mm"])
    def test_quantile_outside_unit_interval_raises(
        self, point, b, eps, gf_biw156_gauss, gf_biw468_gauss
    ):
        calls = {
            "s": lambda: s_maxbias(gf_biw156_gauss, b, eps),
            "cm": lambda: cm_maxbias(gf_biw156_gauss, b, 2.568, eps),
            "mm": lambda: mm_bounds(gf_biw156_gauss, gf_biw468_gauss, b, eps),
        }
        with pytest.raises(DomainError, match="scale quantile b"):
            calls[point]()

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.6], ids=["zero", "interior", "beyond"])
    @pytest.mark.parametrize("c", [-1.0, 0.0])
    def test_cm_nonpositive_tuning_raises(self, c, eps, gf_biw156_gauss):
        with pytest.raises(DomainError, match="tuning constant"):
            cm_maxbias(gf_biw156_gauss, 0.5, c, eps)


class TestMmBounds:
    def test_exact_region_anchor(self, gf_biw156_gauss, gf_biw468_gauss):
        point = mm_bounds(gf_biw156_gauss, gf_biw468_gauss, 0.5, 0.2)
        assert point.exact
        assert point.lower == point.upper

    def test_bounds_separate_late(self, gf_biw156_gauss, gf_biw468_gauss):
        point = mm_bounds(gf_biw156_gauss, gf_biw468_gauss, 0.5, 0.40)
        assert not point.exact
        assert point.upper > point.lower

    def test_continuity_at_zero(self, gf_biw156_gauss, gf_biw468_gauss):
        point = mm_bounds(gf_biw156_gauss, gf_biw468_gauss, 0.5, 1e-8)
        assert point.lower < 1e-3 and point.upper < 1e-3

    def test_sandwich_and_floor(self, gf_biw156_gauss, gf_biw468_gauss):
        for eps in np.arange(0.05, 0.5, 0.05):
            point = mm_bounds(gf_biw156_gauss, gf_biw468_gauss, 0.5, eps)
            if point.flag:
                continue
            s_val = s_maxbias(gf_biw156_gauss, 0.5, eps).lower
            assert point.lower <= point.upper
            assert point.lower >= s_val - 1e-9

    def test_applicability_condition_carries_both_sides(self, gf_biw156_gauss, gauss):
        # A second loss barely below the first violates the gap condition at
        # small eps: g2(gamma) - g2(sigma) exceeds the eps/(1-eps) budget.
        gf2 = GFunction(biweight(1.561), gauss)
        point = mm_bounds(gf_biw156_gauss, gf2, 0.5, 0.01)
        assert point.flag is not None
        assert "mm-condition-violated" in point.flag
        assert ">=" in point.flag
        assert math.isnan(point.lower)

    def test_rejects_profiles_of_two_models(self, gauss):
        # Unchecked, this pair gave an unflagged 1.2062 (1.2465 with the
        # Gaussian second loss).
        gf1 = GFunction(biweight(1.5476), gauss)
        gf2 = GFunction(biweight(4.685), cauchy_model())
        with pytest.raises(DomainError, match="one model"):
            mm_bounds(gf1, gf2, 0.5, 0.1)

    def test_rejects_nondominating_losses(self, gauss):
        # Unchecked, the swapped Gaussian losses gave an unflagged [1.903, 3.183].
        gf1 = GFunction(biweight(1.5476), gauss)
        gf2 = GFunction(biweight(4.685), gauss)
        with pytest.raises(DomainError, match="rho1 >= rho2"):
            mm_bounds(gf2, gf1, 0.5, 0.1)


class TestBiasCurve:
    def test_s_sweep_is_finite_and_increasing(self, gauss):
        spec = s_estimate(biweight(1.56), 0.5)
        grid = [round(0.01 * i, 4) for i in range(1, 50)]
        curve = bias_curve(spec, gauss, grid)
        vals = [p.lower for p in curve.points]
        assert len(vals) == 49
        assert all(math.isfinite(v) for v in vals)
        assert all(x < y for x, y in zip(vals, vals[1:]))
        assert curve.monotone_violations == []

    def test_zero_and_breakdown_points_filled_in(self, gauss):
        spec = s_estimate(biweight(1.56), 0.5)
        curve = bias_curve(spec, gauss, [0.0, 0.25, 0.55])
        assert curve.points[0].lower == 0.0
        assert math.isinf(curve.points[2].lower)
        assert curve.points[2].flag == "beyond-breakdown"

    def test_rejects_decreasing_grid(self, gauss):
        with pytest.raises(DomainError):
            bias_curve(s_estimate(biweight(1.0), 0.5), gauss, [0.2, 0.1])

    def test_mm_vs_cm_shape_comparisons(self, gauss):
        # 95%-efficient pair: CM tracks the MM lower bound early, beats it late.
        grid = [0.05, 0.10, 0.15, 0.25, 0.30, 0.35, 0.40, 0.45]
        cm = bias_curve(cm_estimate(biweight(1.0), 0.5, 4.835), gauss, grid)
        mm = bias_curve(mm_estimate(biweight(1.56), biweight(4.68), 0.5), gauss, grid)
        for cm_pt, mm_pt in zip(cm.points, mm.points):
            if cm_pt.eps <= 0.15:
                assert abs(cm_pt.lower - mm_pt.lower) / mm_pt.lower < 0.1
            if cm_pt.eps >= 0.25:
                assert cm_pt.upper <= mm_pt.lower

    def test_order_of_growth_contrast(self, gf_biw1_gauss, gf_biw1_cauchy):
        eps_points = (1e-2, 1e-3, 1e-4)
        gauss_ratios = [
            s_maxbias(gf_biw1_gauss, 0.5, e).lower / math.sqrt(e) for e in eps_points
        ]
        cauchy_ratios = [
            s_maxbias(gf_biw1_cauchy, 0.5, e).lower / math.sqrt(e) for e in eps_points
        ]
        assert max(gauss_ratios) / min(gauss_ratios) < 1.5
        assert min(gauss_ratios) > 0.1
        assert cauchy_ratios[0] > cauchy_ratios[1] > cauchy_ratios[2]


class TestCurveExport:
    def test_csv_header_and_inf_literal(self, gauss):
        spec = s_estimate(biweight(1.56), 0.5)
        curve = bias_curve(spec, gauss, [0.1, 0.55])
        buf = io.StringIO()
        write_curve_csv(curve, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "eps,lower,upper,exact"
        assert lines[2].split(",")[1] == "inf"
        assert lines[1].split(",")[3] == "true"

    def test_bias_point_interval_validation(self):
        with pytest.raises(DomainError):
            BiasPoint(0.1, 2.0, 1.0, exact=False)


GEOMETRY_SPECS = pytest.mark.parametrize(
    "spec",
    [
        s_estimate(biweight(1.5476), 0.5),
        mm_estimate(biweight(1.5476), biweight(4.685), 0.5),
        cm_estimate(biweight(1.0), 0.5, 2.568),
    ],
    ids=["s", "mm", "cm"],
)


class TestBiasGeometry:
    """The bias transform follows the model's geometry field, not its spelling."""

    @GEOMETRY_SPECS
    def test_norm_law_curve_equals_gaussian_model_curve(self, spec):
        grid = [0.0, 0.05, 0.1, 0.2]
        assert bias_curve(spec, error_law("NORM"), grid) == bias_curve(
            spec, gaussian_model(), grid
        )

    @GEOMETRY_SPECS
    def test_law_without_geometry_raises(self, spec):
        with pytest.raises(DomainError):
            bias_curve(spec, error_law("T3"), [0.1, 0.2])


PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, database=None, derandomize=True)


class TestCurveProperties:
    """Monotone curves and the MM floor, over losses, quantiles and both models."""

    @PROPERTY_SETTINGS
    @given(
        kind=st.sampled_from(["s", "cm", "mm"]),
        model=st.sampled_from([gaussian_model(), cauchy_model()]),
        step=st.booleans(),
        k=st.floats(0.8, 5.0),
        ratio=st.floats(1.2, 4.0),
        b=st.floats(0.1, 0.5),
        c=st.floats(0.5, 6.0),
        fracs=st.lists(st.floats(0.001, 0.999), min_size=2, max_size=8, unique=True),
    )
    def test_curves_are_monotone(self, kind, model, step, k, ratio, b, c, fracs):
        rho = alpha_quantile(k) if step else biweight(k)
        spec = {
            "s": lambda: s_estimate(rho, b),
            "cm": lambda: cm_estimate(rho, b, c),
            "mm": lambda: mm_estimate(biweight(k), biweight(k * ratio), b),
        }[kind]()
        grid = sorted(f * breakdown_point(spec) for f in fracs)
        assume(all(x < y for x, y in zip(grid, grid[1:])))
        curve = bias_curve(spec, model, grid)
        assert curve.monotone_violations == []
        assert not any(p.flag and p.flag.startswith("numerical") for p in curve.points)

    @PROPERTY_SETTINGS
    @given(
        model=st.sampled_from([gaussian_model(), cauchy_model()]),
        k1=st.floats(0.8, 3.0),
        ratio=st.floats(1.2, 4.0),
        b=st.floats(0.1, 0.5),
        frac=st.floats(0.001, 0.999),
    )
    def test_mm_lower_bound_at_least_s_bias(self, model, k1, ratio, b, frac):
        gf1 = GFunction(biweight(k1), model)
        gf2 = GFunction(biweight(k1 * ratio), model)
        eps = frac * min(b, 1.0 - b)
        point = mm_bounds(gf1, gf2, b, eps)
        assume(point.flag is None)
        assert point.lower >= s_maxbias(gf1, b, eps).lower - 1e-9
