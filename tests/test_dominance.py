import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxbias import numerics
from maxbias.curves import cm_maxbias, critical_pair, s_maxbias, scale_bounds, scale_objective
from maxbias.dominance import (
    DOMINATED,
    INAPPLICABLE,
    _c_values,
    _profile_grid,
    c_naught,
    c_of_eps,
    c_one,
    c_zero_limit,
    cm_vs_s_ratio_curve,
    d_gap,
    dominance_report,
    h_gap,
    inadmissibility_threshold,
    slope_condition,
    write_c_profile_csv,
    write_report,
)
from maxbias.efficiency import error_law
from maxbias.errors import ConditionError, DomainError
from maxbias.gfunction import GFunction, gaussian_model
from maxbias.rho import alpha_quantile, biweight


class TestCOfEps:
    def test_limit_at_zero(self, gf_biw1_gauss):
        limit = c_zero_limit(gf_biw1_gauss, 0.5)
        assert c_of_eps(gf_biw1_gauss, 0.5, 1e-6) == pytest.approx(limit, rel=1e-3)

    def test_positive_everywhere(self, gf_biw1_gauss):
        for eps in (1e-4, 0.1, 0.3, 0.49):
            assert c_of_eps(gf_biw1_gauss, 0.5, eps) > 0.0

    def test_breakeven_sign(self, gf_biw1_gauss):
        # c above/below c(eps) flips the ordering of the objective at the two
        # extreme scales (direct evaluation of both sides).
        eps = 0.2
        c_star = c_of_eps(gf_biw1_gauss, 0.5, eps)
        sigma, gamma = scale_bounds(gf_biw1_gauss, 0.5, eps)
        for factor, expect_sigma_below in ((1.001, True), (0.999, False)):
            c = factor * c_star
            at_sigma = scale_objective(gf_biw1_gauss, c, eps, sigma)
            at_gamma = scale_objective(gf_biw1_gauss, c, eps, gamma)
            assert (at_sigma < at_gamma) == expect_sigma_below

    def test_domain(self, gf_biw1_gauss):
        with pytest.raises(DomainError):
            c_of_eps(gf_biw1_gauss, 0.5, 0.0)
        with pytest.raises(DomainError):
            c_of_eps(gf_biw1_gauss, 0.5, 0.5)


class TestCNaught:
    @pytest.mark.parametrize("b", [0.35, 0.45, 0.5])
    def test_lower_bound_chain_biweight(self, gf_biw1_gauss, b):
        _, cap = gf_biw1_gauss.peak()
        mid = (1.0 - b) / cap + b / gf_biw1_gauss.phi_eval(gf_biw1_gauss.g_inverse(b))
        c0 = c_naught(gf_biw1_gauss, b)
        assert 1.0 / cap < mid <= c0 + 1e-6

    @pytest.mark.parametrize("b", [0.35, 0.45, 0.5])
    def test_lower_bound_chain_step(self, gf_step_gauss, b):
        _, cap = gf_step_gauss.peak()
        mid = (1.0 - b) / cap + b / gf_step_gauss.phi_eval(gf_step_gauss.g_inverse(b))
        c0 = c_naught(gf_step_gauss, b)
        assert 1.0 / cap < mid <= c0 + 1e-6

    def test_equals_zero_limit_when_slope_condition_holds(self, gf_biw1_gauss):
        assert slope_condition(gf_biw1_gauss, 0.5)
        assert c_naught(gf_biw1_gauss, 0.5) == pytest.approx(
            c_zero_limit(gf_biw1_gauss, 0.5), rel=1e-4
        )

    def test_grid_refinement_converged(self, gf_biw1_gauss):
        coarse = c_naught(gf_biw1_gauss, 0.5, n=512)
        fine = c_naught(gf_biw1_gauss, 0.5, n=1024)
        assert abs(fine - coarse) < 1e-6

    @pytest.mark.parametrize("rho, b", [(biweight(1.0), 0.5), (alpha_quantile(), 0.4)])
    def test_batched_values_match_pointwise(self, rho, b):
        # Away from eps -> 0, where c(eps) divides the rounding of g by eps.
        gf = GFunction(rho, gaussian_model())
        eps = _profile_grid(min(b, 1.0 - b), 64)
        eps = eps[eps > 1e-6]
        pointwise = []
        for e in eps:
            sigma, gamma = scale_bounds(gf, b, e)
            pointwise.append(math.log(sigma / gamma) / e)
        np.testing.assert_allclose(_c_values(gf, b, eps), pointwise, rtol=1e-8)
        with pytest.raises(DomainError):
            _c_values(gf, b, np.array([0.1, min(b, 1.0 - b)]))

    def test_warm_infimum_is_a_few_vector_passes(self, monkeypatch):
        gf = GFunction(biweight(1.0), gaussian_model())
        expected = c_naught(gf, 0.5)  # fills the table cells the targets need
        roots, passes = [], []
        find_root, scan = numerics.find_root, gf._scan

        def counting_root(*args, **kwargs):
            roots.append(args)
            return find_root(*args, **kwargs)

        def counting_scan(*args):
            passes.append(args)
            return scan(*args)

        def counting_g_eval(s):
            scalar.append(s)
            return g_eval(s)

        scalar, g_eval = [], gf.g_eval
        monkeypatch.setattr(numerics, "find_root", counting_root)
        monkeypatch.setattr(gf, "_scan", counting_scan)
        monkeypatch.setattr(gf, "g_eval", counting_g_eval)
        assert c_naught(gf, 0.5) == expected
        # 1024 targets in one Newton iteration: one kernel pass per step, and
        # targets beyond the table are bracketed from the cached ladders.
        assert not roots
        assert 0 < len(passes) <= 12
        assert not scalar


class TestCOne:
    def test_reference_tuning_sits_inside_interval(self, gf_biw1_gauss):
        c1 = c_one(gf_biw1_gauss, 0.5)
        c0 = c_naught(gf_biw1_gauss, 0.5)
        assert c1 < 2.568 <= c0

    def test_breakeven_characterization(self, gf_biw1_gauss):
        # c above c1 makes the clean-model objective prefer the peak scale to
        # the uncontaminated scale, and conversely.
        c1 = c_one(gf_biw1_gauss, 0.5)
        sigma_m, _ = gf_biw1_gauss.peak()
        sigma_b0 = gf_biw1_gauss.g_inverse(0.5)
        for factor, expect_peak_preferred in ((1.001, True), (0.999, False)):
            c = factor * c1
            at_b0 = scale_objective(gf_biw1_gauss, c, 0.0, sigma_b0)
            at_peak = scale_objective(gf_biw1_gauss, c, 0.0, sigma_m)
            assert (at_b0 > at_peak) == expect_peak_preferred

    def test_at_least_inverse_peak_height(self, gf_biw1_gauss, gf_step_gauss):
        for gf in (gf_biw1_gauss, gf_step_gauss):
            _, cap = gf.peak()
            assert c_one(gf, 0.5) >= 1.0 / cap

    def test_inapplicable_when_quantile_too_small(self, gf_biw1_gauss):
        g_at_peak = gf_biw1_gauss.g_eval(gf_biw1_gauss.peak()[0])
        with pytest.raises(ConditionError):
            c_one(gf_biw1_gauss, g_at_peak)  # division-by-zero guard
        with pytest.raises(ConditionError):
            c_one(gf_biw1_gauss, 0.35)


class TestSlopeCondition:
    def test_biweight_half(self, gf_biw1_gauss):
        assert slope_condition(gf_biw1_gauss, 0.5)

    def test_biweight_holds_below_threshold_too(self, gf_biw1_gauss):
        # The composite 0.410 threshold is driven by g(sigma_M) <= b, not by
        # the slope condition, which still holds at b = 0.35.
        assert slope_condition(gf_biw1_gauss, 0.35)
        assert gf_biw1_gauss.g_eval(gf_biw1_gauss.peak()[0]) > 0.35

    def test_step_at_04(self, gf_step_gauss):
        assert slope_condition(gf_step_gauss, 0.4)


class TestGapLedger:
    def test_h_gap_nonnegative(self, gf_biw1_gauss):
        rng = np.random.default_rng(17)
        for _ in range(20):
            c = rng.uniform(2.0, 3.5)
            eps = rng.uniform(0.01, 0.45)
            sigma = rng.uniform(0.2, 8.0)
            assert h_gap(gf_biw1_gauss, c, eps, sigma) >= -1e-12

    def test_d_gap_zero_in_binding_regime(self, gf_biw1_gauss):
        # Once sigma_{b,eps} clears the upper stationary scale and the
        # objective at gamma does not exceed it there, both gaps vanish.
        # That regime needs heavy contamination and a large tuning constant.
        found = 0
        for c in (4.5, 5.0, 5.5):
            for eps in (0.43, 0.45, 0.47, 0.49):
                pair = critical_pair(gf_biw1_gauss, c, eps)
                if pair is None:
                    continue
                sigma, gamma = scale_bounds(gf_biw1_gauss, 0.5, eps)
                if sigma >= pair.sigma_u and (
                    scale_objective(gf_biw1_gauss, c, eps, gamma)
                    <= scale_objective(gf_biw1_gauss, c, eps, pair.sigma_u)
                ):
                    assert abs(d_gap(gf_biw1_gauss, 0.5, c, eps)) <= 1e-10
                    found += 1
        assert found >= 5
        # Negative control just outside the regime: the gap turns positive.
        assert d_gap(gf_biw1_gauss, 0.5, 6.0, 0.43) > 1e-4

    def test_d_gap_zero_when_tuning_small(self, gf_biw1_gauss):
        _, cap = gf_biw1_gauss.peak()
        for eps in (0.05, 0.2, 0.4):
            assert d_gap(gf_biw1_gauss, 0.5, 0.9 / cap, eps) == pytest.approx(0.0, abs=1e-12)

    def test_bias_identity_route_agreement(self, gf_biw1_gauss):
        # Gaussian model: log(1 + B_CM^2) = log(1 + B_S^2) + 2 d_c(eps).
        for c in (2.3, 2.568, 3.2):
            for eps in (0.02, 0.1, 0.3):
                b_s = s_maxbias(gf_biw1_gauss, 0.5, eps).lower
                b_cm = cm_maxbias(gf_biw1_gauss, 0.5, c, eps).lower
                via_gap = math.sqrt(
                    math.expm1(
                        math.log1p(b_s**2) + 2.0 * d_gap(gf_biw1_gauss, 0.5, c, eps)
                    )
                )
                assert b_cm == pytest.approx(via_gap, abs=1e-8)

    def test_strictly_worse_above_breakeven(self, gf_biw1_gauss):
        eps = 0.2
        c = 1.05 * c_of_eps(gf_biw1_gauss, 0.5, eps)
        b_s = s_maxbias(gf_biw1_gauss, 0.5, eps).lower
        b_cm = cm_maxbias(gf_biw1_gauss, 0.5, c, eps).lower
        assert b_cm > b_s + 1e-10

    def test_never_worse_inside_safe_range(self, gf_biw1_gauss):
        rng = np.random.default_rng(23)
        _, cap = gf_biw1_gauss.peak()
        c0 = c_naught(gf_biw1_gauss, 0.5)
        eps_grid = np.arange(0.02, 0.5, 0.02)
        for c in rng.uniform(1.0 / cap, c0, size=10):
            for eps in eps_grid:
                b_s = s_maxbias(gf_biw1_gauss, 0.5, eps).lower
                b_cm = cm_maxbias(gf_biw1_gauss, 0.5, c, eps).lower
                assert b_cm <= b_s + 1e-9

    def test_derivative_identity_of_scaled_breakeven(self, gf_biw1_gauss):
        # d/deps [eps c(eps)] = (1-eps)^-2 [(1-b)/phi(sigma) + b/phi(gamma)].
        b = 0.5
        h = 1e-5
        for eps in (0.05, 0.12, 0.2, 0.3, 0.4):
            num = (
                (eps + h) * c_of_eps(gf_biw1_gauss, b, eps + h)
                - (eps - h) * c_of_eps(gf_biw1_gauss, b, eps - h)
            ) / (2 * h)
            sigma, gamma = scale_bounds(gf_biw1_gauss, b, eps)
            rhs = (
                (1.0 - b) / gf_biw1_gauss.phi_eval(sigma)
                + b / gf_biw1_gauss.phi_eval(gamma)
            ) / (1.0 - eps) ** 2
            assert num == pytest.approx(rhs, rel=1e-4)


class TestDominanceReport:
    def test_biweight_half_dominated(self, gf_biw1_gauss):
        rep = dominance_report(gf_biw1_gauss, 0.5)
        assert rep.verdict == DOMINATED
        lo, hi = rep.dominance_interval
        assert lo < 2.568 <= hi
        assert rep.failed_hypotheses == ()
        assert 1.0 / rep.cap_k < rep.lower_bound_c0 <= rep.c0 + 1e-9

    def test_step_half_dominated(self, gf_step_gauss):
        rep = dominance_report(gf_step_gauss, 0.5)
        assert rep.verdict == DOMINATED
        assert rep.g_sigma_m == pytest.approx(0.31731, abs=1e-4)

    def test_biweight_small_quantile_inapplicable(self, gf_biw1_gauss):
        rep = dominance_report(gf_biw1_gauss, 0.3)
        assert rep.verdict == INAPPLICABLE
        assert "g(sigma_M)<=b" in rep.failed_hypotheses
        assert rep.dominance_interval is None

    def test_profile_is_exportable(self, gf_biw1_gauss):
        rep = dominance_report(gf_biw1_gauss, 0.5)
        buf = io.StringIO()
        write_c_profile_csv(rep, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "eps,c_eps"
        assert len(lines) == len(rep.c_profile) + 1

    def test_flat_report_format(self, gf_biw1_gauss):
        rep = dominance_report(gf_biw1_gauss, 0.5)
        buf = io.StringIO()
        write_report(rep, buf)
        text = buf.getvalue()
        assert "verdict=Dominated" in text
        assert "g_convex=true" in text
        keys = [line.split("=")[0] for line in text.strip().splitlines()]
        assert "c0" in keys and "c1" in keys and "lower_bound_c0" in keys

    @pytest.mark.parametrize("b", [0.5, 0.3])
    def test_each_scalar_computed_once(self, monkeypatch, b):
        gf = GFunction(biweight(1.0), gaussian_model())
        gf.peak()
        calls = {"g_inverse": 0, "g_eval": 0, "phi_eval": 0}
        for name in calls:

            def counted(x, method=getattr(gf, name), name=name):
                calls[name] += not isinstance(x, np.ndarray)
                return method(x)

            monkeypatch.setattr(gf, name, counted)
        rep = dominance_report(gf, b)
        # g_inverse(b), g(sigma_M) and phi(sigma_{b,0}); the profile and the
        # infimum grid invert arrays.
        assert calls == {"g_inverse": 1, "g_eval": 1, "phi_eval": 1}
        monkeypatch.undo()
        assert rep.c0 == c_naught(gf, b)
        assert rep.c0_limit == c_zero_limit(gf, b)
        assert rep.slope_condition == slope_condition(gf, b)
        if b == 0.5:
            assert rep.c1 == c_one(gf, b)
        else:
            assert rep.c1 is None
            with pytest.raises(ConditionError):
                c_one(gf, b)


class TestInadmissibilityThreshold:
    def test_biweight_threshold(self):
        thr = inadmissibility_threshold(biweight(1.0))
        assert thr == pytest.approx(0.410, abs=0.005)

    def test_step_threshold_and_binding_clause(self, gf_step_gauss):
        thr = inadmissibility_threshold(alpha_quantile())
        assert thr == pytest.approx(0.3173, abs=0.002)
        # The binding clause for the step family is g(sigma_M) <= b, with
        # g(sigma_M) = 2 (1 - Phi(1)).
        assert gf_step_gauss.g_eval(gf_step_gauss.peak()[0]) == pytest.approx(
            0.3173105, abs=1e-5
        )
        assert slope_condition(gf_step_gauss, thr + 1e-3)

    def test_requires_gaussian_model(self, cauchy):
        with pytest.raises(DomainError):
            inadmissibility_threshold(biweight(1.0), cauchy)

    def test_norm_law_is_the_default_model(self):
        rho = biweight(1.0)
        assert inadmissibility_threshold(rho, error_law("NORM")) == inadmissibility_threshold(rho)

    def test_law_without_geometry_rejected(self):
        with pytest.raises(DomainError):
            inadmissibility_threshold(biweight(1.0), error_law("T3"))


class TestRatioCurve:
    def test_lms_best_improvement(self, gf_step_gauss):
        c0 = c_naught(gf_step_gauss, 0.5)
        grid = np.arange(0.01, 0.50, 0.01)
        rc = cm_vs_s_ratio_curve(gf_step_gauss, 0.5, c0, grid)
        assert all(r <= 1.0 + 1e-9 for _, r in rc.rows)
        assert rc.min_ratio == pytest.approx(0.957, abs=0.01)

    def test_reference_tuning_near_identity(self, gf_biw1_gauss):
        grid = np.arange(0.02, 0.5, 0.02)
        rc = cm_vs_s_ratio_curve(gf_biw1_gauss, 0.5, 2.568, grid)
        assert all(abs(r - 1.0) <= 0.02 for _, r in rc.rows)

    def test_small_tuning_gives_identity(self, gf_biw1_gauss):
        _, cap = gf_biw1_gauss.peak()
        rc = cm_vs_s_ratio_curve(gf_biw1_gauss, 0.5, 0.9 / cap, np.arange(0.05, 0.5, 0.05))
        assert all(r == pytest.approx(1.0, abs=1e-9) for _, r in rc.rows)


class TestDominanceProperties:
    """Inside a Dominated report's interval (c_1, c_0], CM never has more bias than S."""

    @settings(max_examples=15, deadline=None, database=None, derandomize=True)
    @given(
        step=st.booleans(),
        k=st.floats(0.8, 5.0),
        b=st.floats(0.41, 0.5),
        points=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.001, 0.999)), min_size=1, max_size=6
        ),
    )
    def test_cm_at_most_s_inside_dominance_interval(self, step, k, b, points):
        gf = GFunction(alpha_quantile(k) if step else biweight(k), gaussian_model())
        report = dominance_report(gf, b)
        assume(report.verdict == DOMINATED)
        c1, c0 = report.dominance_interval
        for t, frac in points:
            c, eps = c1 + t * (c0 - c1), frac * b
            s_bias = s_maxbias(gf, b, eps).lower
            assert cm_maxbias(gf, b, c, eps).lower <= s_bias * (1.0 + 1e-9) + 1e-12
