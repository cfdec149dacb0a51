import dataclasses
import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from maxbias.curves import cm_estimate, mm_estimate, objective_tail_inf, s_estimate
from maxbias import curves, efficiency, numerics
from maxbias.efficiency import (
    IQR_TARGET,
    LAW_NAMES,
    avar_table,
    error_law,
    gaussian_efficiency,
    m_avar,
    reference_estimators,
    s_scale,
    tune,
    write_avar_csv,
)
from maxbias.errors import (
    DegenerateEfficiencyError,
    DomainError,
    NumericalError,
    TargetRangeError,
    UnsupportedOperationError,
)
from maxbias.gfunction import LAWS, GFunction
from maxbias.rho import alpha_quantile, biweight, psi_deriv_eval, psi_eval


@pytest.fixture(scope="module")
def k_half():
    return tune("s", b=0.5)


@pytest.fixture(scope="module")
def norm_law():
    return error_law("NORM")


class TestErrorLaws:
    @pytest.mark.parametrize("name", LAW_NAMES)
    def test_iqr_normalization(self, name):
        law = error_law(name)

        def quartile(p):
            return optimize.brentq(lambda x: float(law.cdf(x)) - p, -10.0, 10.0, xtol=1e-12)

        iqr = quartile(0.75) - quartile(0.25)
        assert iqr == pytest.approx(IQR_TARGET, abs=1e-3)

    @pytest.mark.parametrize("name", LAW_NAMES)
    def test_density_consistent_with_cdf(self, name):
        # Trapezoid mass over a finite window must match the cdf increment,
        # and the far tail must close to 1 (heavy tails close slowly).
        law = error_law(name)
        grid_hi = law.support if math.isfinite(law.support) else 50.0
        grid = np.linspace(-grid_hi, grid_hi, 200_001)
        mass = np.trapezoid(law.pdf(grid), grid)
        increment = float(law.cdf(grid_hi) - law.cdf(-grid_hi))
        assert mass == pytest.approx(increment, abs=5e-6)
        far = grid_hi if math.isfinite(law.support) else 1e8
        assert float(law.cdf(far)) == pytest.approx(1.0, abs=1e-6)

    def test_slash_density_center_is_continuous_limit(self):
        law = error_law("SL")
        m = law.scale
        peak = 1.0 / math.sqrt(2 * math.pi)
        assert float(law.pdf(0.0)) == pytest.approx(peak / (2 * m), rel=1e-10)

    @pytest.mark.parametrize("z", [2e-4, 1e-3, 1e-2])
    def test_slash_density_keeps_its_digits_near_the_center(self, z):
        # (phi(0) - phi(z)) / z^2 against its series; the plain difference
        # lost 1.4e-9 relative at z = 2e-4.
        peak = 1.0 / math.sqrt(2 * math.pi)
        series = peak * (0.5 - z**2 / 8.0 + z**4 / 48.0)
        assert float(LAWS["SL"].pdf(z)) == pytest.approx(series, rel=1e-13)

    def test_unknown_law(self):
        with pytest.raises(DomainError):
            error_law("T5")


class TestMAvar:
    def test_wide_biweight_near_normal_mle(self, norm_law):
        assert m_avar(biweight(4.68), 1.0, norm_law) == pytest.approx(1.053, abs=0.005)

    def test_half_breakdown_biweight(self, norm_law, k_half):
        # The 50% breakdown biweight at its consistent scale.
        assert m_avar(biweight(k_half), 1.0, norm_law) == pytest.approx(3.484, abs=0.02)

    def test_wide_biweight_at_scaled_cauchy(self, k_half):
        law = error_law("CAU")
        scale = s_scale(GFunction(biweight(k_half), law), 0.5)
        k95 = tune("mm", b=0.5, target_eff=0.95)
        assert m_avar(biweight(k95), scale, law) == pytest.approx(1.312, abs=0.05)

    def test_step_loss_unsupported(self, norm_law):
        with pytest.raises(UnsupportedOperationError):
            m_avar(alpha_quantile(), 1.0, norm_law)

    def test_degenerate_denominator_flagged(self):
        # A cutoff exactly at the uniform support edge makes the
        # score-derivative expectation vanish identically.
        with pytest.raises(DegenerateEfficiencyError):
            m_avar(biweight(IQR_TARGET), 1.0, error_law("UNIF"))

    @pytest.mark.parametrize("name, scale", [("CAU", 1.3), ("UNIF", 3.0)])
    def test_one_density_evaluation_per_call(self, monkeypatch, name, scale):
        # UNIF at scale 3 takes the support-edge branch.
        calls = []
        base = LAWS[name]

        def pdf(z):
            calls.append(np.shape(z))
            return base.pdf(z)

        monkeypatch.setitem(LAWS, name, dataclasses.replace(base, pdf=pdf))
        m_avar(biweight(4.685), scale, error_law(name))
        assert len(calls) == 1


def _quad_moments(rho, scale, law):
    """E rho'(Z/scale)^2 and E rho''(Z/scale) by adaptive quadrature split at
    the panel edges, with the true score rho' = (6/k^2) psi (psi rescaled)."""
    factor = 6.0 / rho.k**2
    upper = min(rho.k * scale, law.support)
    edges = upper * np.concatenate(([0.0], np.logspace(-8.0, 0.0, 9)))

    def expect(h):
        return 2.0 * sum(
            integrate.quad(
                lambda z: h(z / scale) * float(law.pdf(z)), lo, hi, epsabs=0.0, epsrel=1e-12
            )[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )

    num = expect(lambda u: (factor * psi_eval(rho, u)) ** 2)
    return num, expect(lambda u: factor * psi_deriv_eval(rho, u))


class TestMAvarReference:
    """m_avar (conventional psi, fixed panel rule) against quadrature of the true score.

    UNIF's support edge is 1.349, so six of its nine cases (k * scale above
    it) take the support-edge branch and three are degenerate.
    """

    @pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("k", [1.0, 1.5476, 4.685])
    @pytest.mark.parametrize("name", LAW_NAMES)
    def test_matches_adaptive_quadrature(self, name, k, scale):
        law = error_law(name)
        rho = biweight(k)
        num, den = _quad_moments(rho, scale, law)
        if name == "UNIF" and k * scale <= law.support:
            # A flat density under the whole score: E psi' vanishes exactly.
            assert abs(den) < 1e-12
            with pytest.raises(DegenerateEfficiencyError):
                m_avar(rho, scale, law)
        else:
            assert m_avar(rho, scale, law) == pytest.approx(scale**2 * num / den**2, rel=1e-10)


class TestScales:
    def test_s_scale_consistent_at_normal(self, norm_law):
        gf = GFunction(biweight(1.56), norm_law)
        assert s_scale(gf, 0.5) == pytest.approx(1.0, abs=0.01)

    def test_s_scale_round_trip(self, norm_law):
        gf = GFunction(biweight(1.56), norm_law)
        scale = s_scale(gf, 0.5)
        assert gf.g_eval(scale) == pytest.approx(0.5, abs=1e-8)

    def test_wide_biweight_low_quantile(self, norm_law):
        gf = GFunction(biweight(4.68), norm_law)
        assert s_scale(gf, 0.12) == pytest.approx(1.0, abs=0.02)

    # The CM scale at a law is the argmin of c g(s) + log s over s >= the S
    # scale; it binds when that argmin is the boundary.

    def test_cm_scale_binding_at_heavy_tails(self):
        gf = GFunction(biweight(1.0), error_law("CAU"))
        boundary = s_scale(gf, 0.5)
        _, scale = objective_tail_inf(gf, 2.568, 0.0, boundary)
        assert scale == boundary
        assert scale == pytest.approx(s_scale(gf, 0.5), rel=1e-10)

    def test_cm_scale_interior_at_normal(self, norm_law):
        gf = GFunction(biweight(1.0), norm_law)
        boundary = s_scale(gf, 0.5)
        _, scale = objective_tail_inf(gf, 2.568, 0.0, boundary)
        assert scale != boundary
        assert gf.phi_eval(scale) == pytest.approx(1.0 / 2.568, rel=1e-8)

    def test_cm_scale_binding_for_small_tuning(self, norm_law):
        gf = GFunction(biweight(1.0), norm_law)
        _, cap = gf.peak()
        boundary = s_scale(gf, 0.5)
        _, scale = objective_tail_inf(gf, 0.9 / cap, 0.0, boundary)
        assert scale == boundary

    def test_cm_scale_unbracketable_upper_scale_raises(self):
        class FlatPhi:
            """phi stays at its peak height: no upper stationary scale exists."""

            calls = 0

            def g_inverse(self, b):
                return 1.0

            def peak(self):
                return 1.0, 10.0

            def phi_eval(self, s):
                FlatPhi.calls += 1
                if FlatPhi.calls > 10_000:
                    raise AssertionError("upper-scale search is unbounded")
                return 10.0

        with pytest.raises(NumericalError):
            objective_tail_inf(FlatPhi(), 1.0, 0.0, s_scale(FlatPhi(), 0.5))
        assert FlatPhi.calls <= 200


class TestGaussianEfficiency:
    def test_mm_95(self, k_half):
        k95 = tune("mm", b=0.5, target_eff=0.95)
        spec = mm_estimate(biweight(k_half), biweight(k95), 0.5)
        assert gaussian_efficiency(spec) == pytest.approx(0.95, abs=1e-6)

    def test_mm_95_with_rounded_constants(self):
        spec = mm_estimate(biweight(1.56), biweight(4.68), 0.5)
        assert gaussian_efficiency(spec) == pytest.approx(0.95, abs=0.005)

    def test_s_half_breakdown(self):
        assert gaussian_efficiency(s_estimate(biweight(1.0), 0.5)) == pytest.approx(
            0.287, abs=0.005
        )

    def test_cm_tunings(self):
        assert gaussian_efficiency(cm_estimate(biweight(1.0), 0.5, 4.835)) == pytest.approx(
            0.95, abs=0.005
        )
        assert gaussian_efficiency(cm_estimate(biweight(1.0), 0.5, 2.568)) == pytest.approx(
            0.611, abs=0.005
        )

    def test_step_loss_unsupported(self):
        with pytest.raises(UnsupportedOperationError):
            gaussian_efficiency(s_estimate(alpha_quantile(), 0.5))

    def test_wide_cutoff_limit(self, norm_law):
        assert 1.0 / m_avar(biweight(100.0), 1.0, norm_law) > 0.999

    def test_monotone_in_second_cutoff(self, norm_law):
        effs = [1.0 / m_avar(biweight(k), 1.0, norm_law) for k in (2.0, 3.0, 4.5, 6.0, 9.0)]
        assert all(a < b for a, b in zip(effs, effs[1:]))

    def test_monotone_in_cm_tuning(self):
        effs = [
            gaussian_efficiency(cm_estimate(biweight(1.0), 0.5, c))
            for c in (2.6, 3.0, 4.0, 5.0, 7.0)
        ]
        assert all(a < b for a, b in zip(effs, effs[1:]))


class TestTune:
    def test_s_cutoff_for_half_quantile(self, k_half):
        assert 1.54 <= k_half <= 1.57

    def test_s_quantile_for_wide_cutoff(self):
        assert tune("s", k=4.68) == pytest.approx(0.12, abs=0.005)

    def test_mm_second_cutoff(self):
        assert tune("mm", b=0.5, target_eff=0.95) == pytest.approx(4.68, abs=0.02)

    def test_cm_tuning_constants(self):
        assert tune("cm", b=0.5, target_eff=0.95) == pytest.approx(4.835, abs=0.02)
        assert tune("cm", b=0.5, target_eff=0.611) == pytest.approx(2.568, abs=0.02)

    def test_unreachable_targets_report_range(self):
        with pytest.raises(TargetRangeError) as info:
            tune("cm", b=0.5, target_eff=1.2)
        lo, hi = info.value.attainable
        # b = 0.5 > g(sigma_M): the range starts at the switch scale's
        # efficiency, not at the S efficiency 0.287.
        assert lo == pytest.approx(0.529204, abs=1e-6)
        assert hi == 1.0
        with pytest.raises(TargetRangeError):
            tune("cm", b=0.5, target_eff=0.2)

    @pytest.mark.parametrize("b, target", [(0.5, 0.4), (0.5, 0.52), (0.45, 0.45)])
    def test_cm_gap_targets_raise(self, b, target):
        # Above the S efficiency but below the efficiency at which the upper
        # stationary scale first beats the boundary: no c reaches them.
        with pytest.raises(TargetRangeError, match="unattainable") as info:
            tune("cm", b=b, target_eff=target)
        assert info.value.attainable[0] > target

    @pytest.mark.parametrize("b, lowest", [(0.42, 0.454135), (0.5, 0.529204), (0.55, 0.575581)])
    def test_cm_range_starts_at_switch_efficiency(self, b, lowest):
        with pytest.raises(TargetRangeError) as info:
            tune("cm", b=b, target_eff=0.2)
        lo = info.value.attainable[0]
        assert lo == pytest.approx(lowest, abs=1e-6)
        with pytest.raises(TargetRangeError):
            tune("cm", b=b, target_eff=lo - 1e-6)
        c = tune("cm", b=b, target_eff=lo + 1e-6)
        reached = gaussian_efficiency(cm_estimate(biweight(1.0), b, c))
        assert reached == pytest.approx(lo + 1e-6, abs=1e-9)

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(b=st.floats(0.1, 0.6), u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_cm_round_trip(self, b, u):
        floor = gaussian_efficiency(s_estimate(biweight(1.0), b))
        target = floor + 1e-3 + u * (0.99 - floor - 1e-3)
        try:
            c = tune("cm", b=b, target_eff=target)
        except DomainError:
            # The gap exists only where the S scale lies below sigma_M.
            gf = curves._gf(biweight(1.0), error_law("NORM"))
            assert b > gf.g_eval(gf.peak()[0])
            return
        reached = gaussian_efficiency(cm_estimate(biweight(1.0), b, c))
        assert reached == pytest.approx(target, abs=1e-9)

    def test_warm_cm_tune_solves_one_root(self, monkeypatch):
        tune("cm", b=0.5, target_eff=0.95)
        counts = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        find_root = counting("find_root", numerics.find_root)
        tail_inf = counting("tail_inf", curves.objective_tail_inf)
        for module in (numerics, efficiency):
            monkeypatch.setattr(module, "find_root", find_root)
        for module in (curves, efficiency):
            monkeypatch.setattr(module, "objective_tail_inf", tail_inf)
        tune("cm", b=0.5, target_eff=0.95)
        assert counts == {"find_root": 1}

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            tune("s")
        with pytest.raises(DomainError):
            tune("mm", b=0.5)

    @pytest.mark.parametrize("b", [-0.2, 1.5])
    @pytest.mark.parametrize("kind", ["s", "mm", "cm"])
    def test_quantile_outside_unit_interval_raises(self, kind, b):
        target = None if kind == "s" else 0.95
        with pytest.raises(DomainError, match="scale quantile b"):
            tune(kind, b=b, target_eff=target)


class TestGFunctionBuilds:
    """tune shares one GFunction for s and cm and builds none for mm."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []

        class CountingGFunction(GFunction):
            def __init__(self, rho, model):
                built.append((rho, model))
                super().__init__(rho, model)

        for module in (curves, efficiency):
            monkeypatch.setattr(module, "GFunction", CountingGFunction)
        curves._gf.cache_clear()
        yield built
        curves._gf.cache_clear()

    def test_reference_estimators_build_one(self, built):
        reference_estimators()
        # tune("s", b=...), tune("cm", ...) and tune("s", k=...) share one.
        assert built == [(biweight(1.0), error_law("NORM"))]

    def test_mm_tuning_builds_none(self, built):
        tune("mm", b=0.5, target_eff=0.95)
        assert built == []


class TestSharedCache:
    """Warm shared GFunctions give the bits fresh ones give, whatever they served."""

    @staticmethod
    def _cold(compute):
        curves._gf.cache_clear()
        return compute()

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(
        b=st.floats(0.3, 0.5),
        eff=st.floats(0.85, 0.97),
        c=st.floats(2.0, 6.0),
        k=st.floats(1.5, 6.0),
        prior=st.lists(
            st.tuples(
                st.sampled_from(LAW_NAMES),
                st.sampled_from(["float", "array", "peak", "ladder"]),
                st.floats(0.01, 0.99),
            ),
            max_size=8,
        ),
    )
    def test_warm_values_equal_fresh_ones(self, b, eff, c, k, prior):
        specs = [("CM", cm_estimate(biweight(1.0), b, c)), ("S", s_estimate(biweight(1.0), b))]
        calls = [
            lambda: tune("s", b=b),
            lambda: tune("s", k=k),
            lambda: tune("cm", b=b, target_eff=eff),
            lambda: avar_table(specs, LAW_NAMES),
        ]
        fresh = [self._cold(call) for call in calls]
        curves._gf.cache_clear()
        # Prior queries fill cells, ladders and the peak in a drawn order.
        for law, query, v in prior:
            gf = curves._gf(biweight(1.0), error_law(law))
            if query == "float":
                gf.g_inverse(v)
            elif query == "array":
                gf.g_inverse(np.array([v, 1.0 - v, 0.5 * v]))
            elif query == "peak":
                gf.peak()
            else:
                gf.g_inverse(np.array([1e-9 * v, 1.0 - 1e-7 * v]))
        warm = [call() for call in calls]
        # repr round-trips a float exactly, so equal reprs are equal bits.
        assert repr(warm) == repr(fresh)


class TestAvarTable:
    def test_reported_cells(self, table):
        anchors = {
            ("S95", "NORM"): (1.053, 0.005),
            ("MM95", "NORM"): (1.053, 0.005),
            ("CM95", "NORM"): (1.053, 0.005),
            ("MM95", "SL"): (1.230, 0.05),
            ("MM95", "CAU"): (1.312, 0.05),
            ("MM95", "DE"): (1.368, 0.05),
            ("CM95", "CAU"): (1.202, 0.05),
            ("S28", "NORM"): (3.484, 0.02),
            ("CM61", "NORM"): (1.637, 0.05),
            ("CM61", "SL"): (1.330, 0.05),
            ("S28", "SL"): (1.330, 0.05),
            ("S95", "CAU"): (2.209, 0.05),
            ("S28", "UNIF"): (120.336, 0.5),
        }
        for key, (value, tol) in anchors.items():
            assert table[key].avar == pytest.approx(value, abs=tol), key

    def test_cm61_binding_pattern(self, table):
        for law in ("SL", "CAU", "T3", "DE", "CN"):
            assert table[("CM61", law)].binding is True
        for law in ("NORM", "UNIF"):
            assert table[("CM61", law)].binding is False

    def test_binding_equivalence_with_same_quantile_s(self, table):
        for law in ("SL", "CAU", "T3", "DE", "CN"):
            assert table[("CM61", law)].avar == pytest.approx(
                table[("S28", law)].avar, abs=1e-6
            )

    def test_no_degenerate_cells_among_references(self, table):
        assert not any(cell.degenerate for cell in table.values())

    def test_csv_export(self, table):
        buf = io.StringIO()
        write_avar_csv(list(table.values()), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "estimator,law,avar,binding"
        assert len(lines) == 36

    def test_table_pairs_outlive_fresh_cutoff_rows(self, monkeypatch):
        # 21 table pairs plus 14 of one S and one MM row with fresh cutoffs.
        built = []

        class CountingGFunction(GFunction):
            def __init__(self, rho, model):
                built.append((rho, model))
                super().__init__(rho, model)

        curves._gf.cache_clear()
        monkeypatch.setattr(curves, "GFunction", CountingGFunction)
        try:
            avar_table(reference_estimators())
            avar_table(
                [
                    ("S", s_estimate(biweight(2.3), 0.3)),
                    ("MM", mm_estimate(biweight(1.7), biweight(4.2), 0.45)),
                ]
            )
            assert len(built) == len(set(built)) == 35
            avar_table(reference_estimators())
            assert len(built) == 35
        finally:
            monkeypatch.undo()
            curves._gf.cache_clear()

    def test_shared_gfunctions_match_fresh_ones_per_cell(self, monkeypatch):
        built = []

        class CountingGFunction(GFunction):
            def __init__(self, rho, model):
                built.append((rho, model))
                super().__init__(rho, model)

        specs = reference_estimators()
        curves._gf.cache_clear()
        monkeypatch.setattr(curves, "GFunction", CountingGFunction)
        try:
            shared = avar_table(specs, LAW_NAMES)
            # 5 estimates x 7 laws, but only 3 distinct losses per law.
            assert len(built) == len(set(built)) == 21
            assert avar_table(specs, LAW_NAMES) == shared
            assert len(built) == 21
        finally:
            monkeypatch.undo()
            curves._gf.cache_clear()

        fresh = []
        for law_name in LAW_NAMES:
            law = error_law(law_name)
            for label, spec in specs:
                if spec.kind == "cm":
                    gf = GFunction(spec.rho, law)
                    boundary = s_scale(gf, spec.b)
                    _, scale = objective_tail_inf(gf, spec.c, 0.0, boundary)
                    binding = scale == boundary
                else:
                    rho = spec.rho1 if spec.kind == "mm" else spec.rho
                    scale, binding = s_scale(GFunction(rho, law), spec.b), None
                psi_rho = spec.rho2 if spec.kind == "mm" else spec.rho
                fresh.append((label, law_name, scale, m_avar(psi_rho, scale, law), binding))
        assert [(c.estimator, c.law, c.scale, c.avar, c.binding) for c in shared] == fresh
