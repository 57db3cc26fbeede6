"""Tail-risk pipeline: density, likelihood, fit, quantile and CVaR oracles.

The independent oracle throughout is scipy.stats.t (incomplete-beta based),
plus Monte-Carlo tail averages and direct enumeration; the implementation
itself never touches scipy's t distribution.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ramals import (
    GeneratorConfig,
    RiskError,
    StudentTFit,
    cvar_closed_form,
    cvar_empirical,
    estimate_risk,
    fit_student_t,
    generate_synthetic,
    laxity_samples,
    normalize_risk,
    standardized_pdf,
    student_t_pdf,
    upper_tail_cvar,
)
import ramals.risk as risk_module
from ramals.risk import _sum_log_pdf, standardized_cdf, standardized_ppf
from ramals.sessions import SessionBatch

from helpers import make_session
from oracles import log_likelihood, ppf


def make_fit(dof=5.0, location=0.0, scale=1.0):
    return StudentTFit(dof=dof, location=location, scale=scale,
                       log_likelihood_at_optimum=0.0)


class TestLaxitySamples:
    def test_perfect_match_all_zero(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=40, cv_fraction=0.0),
                                   seed=1)
        samples = laxity_samples(batch)
        assert samples.shape == (40,)
        assert np.allclose(samples, 0.0)

    def test_hand_evaluated_sample(self):
        # one session: requested 10 kWh at an aggregate 10 kW, delivered 5 kWh
        # at 10 kW -> |1.0 - 0.5| = 0.5 h
        s = make_session(requested=10.0, delivered=5.0, charge_min=30, window_min=60)
        batch = SessionBatch([s])
        (value,) = laxity_samples(batch)
        assert value == pytest.approx(0.5)

    def test_swap_symmetry(self):
        a = make_session(requested=10.0, delivered=5.0, charge_min=30, window_min=60)
        b = make_session(requested=5.0, delivered=10.0, charge_min=60, window_min=30)
        va = laxity_samples(SessionBatch([a]))[0]
        vb = laxity_samples(SessionBatch([b]))[0]
        assert va == pytest.approx(vb)


class TestStudentTPdf:
    def test_cauchy_special_case(self):
        assert student_t_pdf(0.0, 1.0, 0.0, 1.0) == pytest.approx(1.0 / math.pi)
        assert standardized_pdf(0.0, 1.0) == pytest.approx(1.0 / math.pi)

    def test_normal_limit(self):
        normal_peak = 1.0 / math.sqrt(2.0 * math.pi)
        assert student_t_pdf(0.0, 1e6, 0.0, 1.0) == pytest.approx(normal_peak, abs=1e-3)

    def test_mode_at_location(self):
        xs = np.linspace(-3, 3, 61)
        values = student_t_pdf(xs + 2.0, 4.0, 2.0, 1.5)
        assert np.argmax(values) == np.argmin(np.abs(xs))

    def test_integrates_to_one(self):
        from scipy import integrate
        total, _ = integrate.quad(lambda x: student_t_pdf(x, 3.0, 1.0, 2.0),
                                  -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dof = rng.uniform(1.2, 50)
            loc = rng.uniform(-5, 5)
            scale = rng.uniform(0.1, 4)
            x = rng.uniform(-10, 10)
            assert student_t_pdf(x, dof, loc, scale) == pytest.approx(
                stats.t.pdf(x, dof, loc, scale), rel=1e-10)

    def test_standardized_symmetry_and_equivalence(self):
        assert standardized_pdf(1.7, 6.0) == pytest.approx(standardized_pdf(-1.7, 6.0))
        assert standardized_pdf(1.7, 6.0) == student_t_pdf(1.7, 6.0, 0.0, 1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(RiskError):
            student_t_pdf(0.0, -1.0, 0.0, 1.0)
        with pytest.raises(RiskError):
            student_t_pdf(0.0, 2.0, 0.0, 0.0)


class TestLogLikelihood:
    """The likelihood the fit maximises, ``risk._sum_log_pdf``, against scipy
    and against the expanded-form oracle."""

    def test_matches_sum_log_pdf_up_to_constant(self):
        """The expanded form must equal the log-pdf sum plus (J/2) log pi."""
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = rng.integers(2, 40)
            samples = rng.normal(rng.uniform(-3, 3), rng.uniform(0.2, 3), n)
            dof = rng.uniform(1.1, 80)
            loc = rng.uniform(-4, 4)
            scale = rng.uniform(0.1, 5)
            expected = float(np.sum(stats.t.logpdf(samples, dof, loc, scale)))
            got = _sum_log_pdf(samples, dof, loc, scale)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert log_likelihood(samples, dof, loc, scale) - got == pytest.approx(
                n / 2.0 * math.log(math.pi), rel=1e-9, abs=1e-9)

    def test_single_sample_at_mode(self):
        got = _sum_log_pdf(np.array([2.0]), 5.0, 2.0, 0.5)
        assert got == pytest.approx(float(stats.t.logpdf(2.0, 5.0, 2.0, 0.5)))

    def test_doubling_scale_hurts_tight_cluster(self):
        samples = np.full(20, 1.0) + np.linspace(-1e-3, 1e-3, 20)
        tight = _sum_log_pdf(samples, 5.0, 1.0, 0.05)
        loose = _sum_log_pdf(samples, 5.0, 1.0, 0.10)
        assert tight > loose

    def test_permutation_invariance(self):
        samples = np.array([0.3, 1.2, -0.7, 2.2, 0.0])
        a = _sum_log_pdf(samples, 3.0, 0.1, 1.1)
        b = _sum_log_pdf(samples[::-1], 3.0, 0.1, 1.1)
        assert a == pytest.approx(b, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(RiskError):
            log_likelihood([], 3.0, 0.0, 1.0)
        with pytest.raises(RiskError, match="at least"):
            fit_student_t([])


class TestFitStudentT:
    def test_recovery_smoke(self):
        rng = np.random.default_rng(7)
        samples = 2.0 + 0.5 * rng.standard_t(5.0, size=20000)
        fit = fit_student_t(samples)
        assert fit.dof == pytest.approx(5.0, rel=0.15)
        assert fit.location == pytest.approx(2.0, rel=0.05)
        assert fit.scale == pytest.approx(0.5, rel=0.05)

    def test_order_invariance(self):
        rng = np.random.default_rng(8)
        samples = 1.0 + rng.standard_t(4.0, size=500)
        a = fit_student_t(samples)
        b = fit_student_t(samples[::-1])
        assert a.dof == pytest.approx(b.dof, rel=1e-6)
        assert a.location == pytest.approx(b.location, rel=1e-6)

    def test_constant_samples_rejected(self):
        with pytest.raises(RiskError, match="degenerate"):
            fit_student_t(np.full(100, 3.0))

    def test_too_few_samples(self):
        with pytest.raises(RiskError, match="at least"):
            fit_student_t([1.0, 2.0, 3.0])


class TestPpf:
    def test_median_is_location(self):
        fit = make_fit(dof=7.0, location=3.5, scale=2.0)
        assert ppf(fit, 0.5) == pytest.approx(3.5)

    def test_t5_95th_percentile(self):
        assert ppf(make_fit(dof=5.0), 0.95) == pytest.approx(2.0150, abs=1e-3)

    def test_normal_limit_95th(self):
        assert ppf(make_fit(dof=1e6), 0.95) == pytest.approx(1.6449, abs=1e-3)

    def test_location_scale_rescaling(self):
        fit = make_fit(dof=5.0, location=2.0, scale=0.5)
        assert ppf(fit, 0.95) == pytest.approx(2.0 + 0.5 * 2.0150, abs=1e-3)

    def test_alpha_bounds(self):
        with pytest.raises(RiskError):
            ppf(make_fit(), 0.0)
        with pytest.raises(RiskError):
            ppf(make_fit(), 1.0)

    def test_cdf_ppf_consistency_spot(self):
        fit = make_fit(dof=3.0)
        for alpha in (0.05, 0.25, 0.75, 0.99):
            assert standardized_cdf(ppf(fit, alpha), 3.0) == pytest.approx(alpha,
                                                                           abs=1e-6)

    def test_matches_scipy_oracle(self):
        for dof in (1.5, 3.0, 12.0):
            for alpha in (0.1, 0.9, 0.975):
                assert ppf(make_fit(dof=dof), alpha) == pytest.approx(
                    float(stats.t.ppf(alpha, dof)), abs=1e-6)


class TestCvarClosedForm:
    def test_standard_matches_monte_carlo(self):
        """Lower-tail cutoff at alpha=0.05 equals the upper 5% tail mean."""
        rng = np.random.default_rng(42)
        samples = rng.standard_t(5.0, size=10**6)
        fit = make_fit(dof=5.0)
        closed = cvar_closed_form(fit, 0.05, -2.0150, variant="standard")
        empirical = cvar_empirical(samples, 0.95)
        assert closed == pytest.approx(empirical, rel=0.02)

    def test_paper_variant_singular_at_zero_location(self):
        with pytest.raises(RiskError, match="location 0"):
            cvar_closed_form(make_fit(location=0.0), 0.05, -2.0, variant="paper")

    def test_paper_variant_verbatim_value(self):
        fit = make_fit(dof=5.0, location=2.0, scale=0.5)
        xi = 2.0150
        expected = -1.0 / (0.95 * (1.0 - 5.0) * (5.0 + xi * xi)
                           * standardized_pdf(xi, 5.0) * 0.5 * 2.0)
        assert cvar_closed_form(fit, 0.95, xi, variant="paper") \
            == pytest.approx(expected, rel=1e-12)

    def test_scale_scales_tail_term(self):
        alpha, xi = 0.05, -2.0150
        base = cvar_closed_form(make_fit(scale=1.0, location=0.3), alpha, xi,
                                variant="standard")
        scaled = cvar_closed_form(make_fit(scale=3.0, location=0.3), alpha, xi,
                                  variant="standard")
        assert scaled + 0.3 == pytest.approx(3.0 * (base + 0.3), rel=1e-12)

    def test_dof_at_most_one_rejected(self):
        with pytest.raises(RiskError):
            StudentTFit(dof=1.0, location=0.0, scale=1.0, log_likelihood_at_optimum=0.0)

    def test_unknown_variant(self):
        with pytest.raises(RiskError):
            cvar_closed_form(make_fit(), 0.05, -2.0, variant="other")

    def test_upper_tail_cvar_location_scale_oracle(self):
        """Against the analytic location-scale tail mean built on scipy."""
        for dof, loc, scale, alpha in ((5.0, 2.0, 0.5, 0.95), (3.0, -1.0, 2.0, 0.9)):
            q = float(stats.t.ppf(alpha, dof))
            pdf_q = float(stats.t.pdf(q, dof))
            std_tail = (dof + q * q) / (dof - 1.0) * pdf_q / (1.0 - alpha)
            oracle = loc + scale * std_tail
            fit = make_fit(dof=dof, location=loc, scale=scale)
            got = upper_tail_cvar(fit, alpha, standardized_ppf(alpha, dof))
            assert got == pytest.approx(oracle, rel=1e-6)


class TestCvarEmpirical:
    def test_enumeration(self):
        samples = np.arange(1.0, 101.0)
        assert cvar_empirical(samples, 0.90) == pytest.approx(95.5)

    def test_constant_samples(self):
        assert cvar_empirical(np.full(200, 3.25), 0.9) == 3.25

    @given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=100, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_tail_mean_dominates_mean(self, values):
        samples = np.asarray(values)
        assert cvar_empirical(samples, 0.8) >= np.mean(samples) - 1e-9

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(3)
        samples = np.abs(rng.standard_t(4.0, size=5000))
        values = [cvar_empirical(samples, a) for a in (0.80, 0.90, 0.95, 0.99)]
        assert all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))

    def test_tail_floor(self):
        with pytest.raises(RiskError, match="tail"):
            cvar_empirical(np.arange(50.0), 0.99)


class TestNormalizeRisk:
    def test_zero(self):
        assert normalize_risk(0.0, 5.0) == 0.0

    def test_clamp(self):
        assert normalize_risk(10.0, 5.0) == pytest.approx(1.0 - 1e-9)

    def test_paper_percentage_convention(self):
        assert normalize_risk(0.067 * 8.0, 8.0) == pytest.approx(0.067)

    def test_rejects_bad_reference(self):
        with pytest.raises(RiskError):
            normalize_risk(1.0, 0.0)


class TestEstimateRisk:
    def test_zero_laxity_batch(self):
        batch = generate_synthetic(
            GeneratorConfig(n_sessions=200, cv_fraction=0.0), seed=4)
        estimate = estimate_risk(batch, 0.9)
        assert estimate.cvar_normalized == 0.0
        assert estimate.cvar_empirical == 0.0

    def test_cv_riskier_than_av(self):
        cv = generate_synthetic(GeneratorConfig(n_sessions=400, cv_fraction=1.0), seed=6)
        av = generate_synthetic(GeneratorConfig(n_sessions=400, cv_fraction=0.0), seed=6)
        assert estimate_risk(cv, 0.9).cvar_normalized \
            > estimate_risk(av, 0.9).cvar_normalized

    def test_empirical_monotone_in_alpha(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=600, cv_fraction=0.7),
                                   seed=7)
        values = [estimate_risk(batch, a).cvar_empirical for a in (0.90, 0.95)]
        assert values[0] <= values[1] + 1e-12

    def test_deterministic(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=300, cv_fraction=0.6),
                                   seed=8)
        a = estimate_risk(batch, 0.9)
        b = estimate_risk(batch, 0.9)
        assert a == b

    def test_quantile_bisected_once(self, monkeypatch):
        batch = generate_synthetic(GeneratorConfig(n_sessions=300, cv_fraction=0.6),
                                   seed=8)
        cutoffs = []

        def recording_ppf(alpha, dof):
            cutoffs.append(standardized_ppf(alpha, dof))
            return cutoffs[-1]

        monkeypatch.setattr(risk_module, "standardized_ppf", recording_ppf)
        estimate = estimate_risk(batch, 0.9)
        assert cutoffs == [estimate.cutoff]
        assert estimate.cvar_standard == upper_tail_cvar(estimate.fit, 0.9, estimate.cutoff)

    def test_var_below_empirical_tail_mean(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=600, cv_fraction=0.8),
                                   seed=9)
        estimate = estimate_risk(batch, 0.9)
        assert estimate.cvar_empirical >= estimate.var - 1e-6
