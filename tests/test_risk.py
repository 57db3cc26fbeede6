"""Tail-risk pipeline: density, likelihood, fit, quantile and CVaR oracles.

The fit's simplex is checked bit for bit against scipy's Nelder-Mead, and the
fit against the scipy-driven one it replaced, ``oracles.scipy_fit_student_t``.

The package's CDF is the incomplete beta ratio I_x(dof/2, ½) by its
continued fraction (modified Lentz).  It is checked against
``scipy.special.stdtr``, the routine behind ``scipy.stats.t.cdf`` and the
CDF it replaced (``oracles.scipy_standardized_cdf``), to 1e-13 for dof up to
1e3 and 1e-11 up to the fit's bound of 1e6, and against the independent
adaptive quadrature of the density in ``oracles``.  The quantile bisection
on it returns the cutoffs of the bisection on either oracle bit for bit.
The density and the tail expectations are checked against scipy.stats.t,
Monte-Carlo tail averages and direct enumeration.
"""

import itertools
import math
import re
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from ramals import (
    GeneratorConfig,
    RiskError,
    SessionError,
    StudentTFit,
    cvar_empirical,
    estimate_risk,
    fit_student_t,
    generate_synthetic,
    laxity_samples,
    normalize_risk,
    paper_cvar,
    standardized_pdf,
    upper_tail_cvar,
)
import ramals.risk as risk_module
from ramals.cli import generator_from_config, load_config, stage_seed
from ramals.risk import (DOF_BOUNDS, SCALE_BOUNDS, _argsort, _simplex_minimum, _sum_log_pdf,
                         batch_reference_hours, standardized_cdf, standardized_ppf)

import oracles
from helpers import T0, batch_of, make_session, rate_batches
from oracles import (bisection_ppf, log_likelihood, mirrored_upper_tail_cvar, ppf,
                     port_delivery_rate_kw, port_demand_rate_kw, quadrature_cdf, student_t_pdf)


def make_fit(dof=5.0, location=0.0, scale=1.0):
    return StudentTFit(dof=dof, location=location, scale=scale)


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
        batch = batch_of([s])
        (value,) = laxity_samples(batch)
        assert value == pytest.approx(0.5)

    def test_swap_symmetry(self):
        a = make_session(requested=10.0, delivered=5.0, charge_min=30, window_min=60)
        b = make_session(requested=5.0, delivered=10.0, charge_min=60, window_min=30)
        va = laxity_samples(batch_of([a]))[0]
        vb = laxity_samples(batch_of([b]))[0]
        assert va == pytest.approx(vb)


def first_port_without_rates(batch):
    """The first port whose oracle rates raise or are not both > 0, or None."""
    for evse_id, rows in zip(batch.evse_ids, batch.slices):
        try:
            if port_demand_rate_kw(batch, rows) > 0 and port_delivery_rate_kw(batch, rows) > 0:
                continue
        except SessionError:
            pass
        return evse_id
    return None


@given(batch=rate_batches())
@settings(max_examples=200, deadline=None)
def test_laxity_samples_match_per_port_oracle(batch):
    """The whole-batch samples equal the per-port loop's bit for bit; where
    that loop raises, the first port whose rates are not both > 0 is named."""
    bad = first_port_without_rates(batch)
    if bad is None:
        assert list(map(repr, laxity_samples(batch).tolist())) == \
            list(map(repr, oracles.laxity_samples(batch).tolist()))
        return
    with pytest.raises((SessionError, RiskError)):
        oracles.laxity_samples(batch)
    with pytest.raises(RiskError, match=f"^EVSE {bad!r}: rates must be positive for laxity"):
        laxity_samples(batch)


class TestStudentTPdf:
    """The standardized density; location and scale enter as (x - loc) / scale."""

    def test_cauchy_special_case(self):
        assert standardized_pdf(0.0, 1.0) == pytest.approx(1.0 / math.pi)

    def test_normal_limit(self):
        normal_peak = 1.0 / math.sqrt(2.0 * math.pi)
        assert standardized_pdf(0.0, 1e6) == pytest.approx(normal_peak, abs=1e-3)

    def test_mode_at_location(self):
        xs = np.linspace(-3, 3, 61)
        assert np.argmax(standardized_pdf(xs, 4.0)) == np.argmin(np.abs(xs))

    def test_integrates_to_one(self):
        from scipy import integrate
        total, _ = integrate.quad(lambda x: standardized_pdf(x, 3.0), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dof = rng.uniform(1.2, 50)
            loc = rng.uniform(-5, 5)
            scale = rng.uniform(0.1, 4)
            x = rng.uniform(-10, 10)
            assert standardized_pdf((x - loc) / scale, dof) / scale == pytest.approx(
                stats.t.pdf(x, dof, loc, scale), rel=1e-10)

    def test_standardized_symmetry_and_equivalence(self):
        """Symmetric, and equal bit for bit to the former location-scale
        density at location 0 and scale 1, which the CVaR oracles read."""
        assert standardized_pdf(1.7, 6.0) == standardized_pdf(-1.7, 6.0)
        xs = np.linspace(-30.0, 30.0, 121)
        for dof in (1.001, 2.5, 6.0, 1e6):
            assert np.array_equal(standardized_pdf(xs, dof), student_t_pdf(xs, dof, 0.0, 1.0))

    def test_rejects_bad_parameters(self):
        with pytest.raises(RiskError):
            standardized_pdf(0.0, -1.0)
        with pytest.raises(RiskError):
            standardized_cdf(0.0, 0.0)


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


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_named(self, bad):
        """The first non-finite sample is named by index and value before any
        search; none runs its 3000 iterations or escapes as a numpy warning."""
        samples = np.linspace(0.0, 1.0, 12)
        samples[5], samples[9] = bad, math.nan
        with pytest.raises(RiskError, match=re.escape(
                f"student-t fit needs finite samples; sample 5 is {bad!r}")):
            fit_student_t(samples)

    @pytest.mark.parametrize("samples", [[1e300, -1e300] * 4, [1e200, 0.0] * 4,
                                         [1.7e308] * 7 + [1e308]])
    def test_spread_overflowing_float64_refused(self, samples):
        with pytest.raises(RiskError, match="sample spread overflows float64"):
            fit_student_t(samples)

    @pytest.mark.parametrize("scale, std", [(1e8, "3.03e+07"), (5e-8, "1.52e-08")])
    def test_spread_outside_scale_range_refused(self, scale, std):
        """A standard deviation beyond either end of the scale range the
        likelihood admits starts every search where it reads only inf; it is
        refused by name before any search, with no numpy warning."""
        with pytest.raises(RiskError, match=re.escape(
                f"sample standard deviation {std} h lies outside the fit's scale range "
                "[1e-07, 1e+07] h")):
            fit_student_t(np.linspace(0.0, 1.0, 20) * scale)

    @pytest.mark.parametrize("scale, fitted", [(3e7, "9.11e+06"), (5e-7, "1.52e-07")])
    def test_fitted_scale_outside_bounds_refused(self, scale, fitted):
        """A spread inside the searched range whose fitted scale lands
        outside ``SCALE_BOUNDS`` is refused by name, not clipped to the bound
        it passed."""
        with pytest.raises(RiskError, match=re.escape(
                f"fitted scale {fitted} h lies outside the scale bounds [1e-06, 1e+06] h")):
            fit_student_t(np.linspace(0.0, 1.0, 20) * scale)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_batch_fit_matches_scipy_oracle(self, seed):
        d = laxity_samples(generate_synthetic(GeneratorConfig(n_sessions=200), seed=seed))
        assert repr(fit_student_t(d)) == repr(oracles.scipy_fit_student_t(d))


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def walled(x):
    """A bowl centred past an infinite wall at x[0] = 1.3."""
    return math.inf if x[0] > 1.3 else float((x[0] - 2.0) ** 2 + 3.0 * x[1] ** 2)


def holed(x):
    """The same bowl, undefined (NaN) past x[0] = 1.3."""
    return math.nan if x[0] > 1.3 else walled(x)


def plateau(x):
    """Flat steps, so contractions often fail to improve and the simplex shrinks."""
    return float(np.floor(4.0 * np.sum(x * x)))


@pytest.mark.parametrize("func, x0", [
    (rosenbrock, [-1.2, 1.0]),
    (rosenbrock, [0.0, 0.0, 0.0]),
    (rosenbrock, [1.3, 0.7, 0.8, 1.9, 1.2]),
    (walled, [0.0, 1.0]),
    (walled, [1.0, 0.0]),
    (holed, [1.25, 0.0]),
    (plateau, [0.0, 2.0, 0.0]),
], ids=["rosenbrock", "rosenbrock-at-0", "rosenbrock-5d", "walled", "walled-at-0", "holed",
        "plateau"])
@pytest.mark.parametrize("maxiter", [1, 2, 3, 5, 10, 40, 3000])
def test_simplex_matches_scipy_nelder_mead_bit_for_bit(func, x0, maxiter):
    """Reflect, expand, outside and inside contraction, shrink, an infinite
    wall, a NaN value, zero start coordinates and the iteration cap, against
    scipy."""
    x0 = np.array(x0)
    expected = optimize.minimize(func, x0, method="Nelder-Mead",
                                 options={"maxiter": maxiter, "xatol": 1e-8, "fatol": 1e-10})
    x, fun = _simplex_minimum(func, x0, maxiter)
    assert x.tobytes() == expected.x.tobytes()
    assert np.float64(fun).tobytes() == np.float64(expected.fun).tobytes()


def test_simplex_sort_is_numpys_argsort():
    """The simplex orders its values as np.argsort does, ties among finite,
    infinite and NaN values included, whose order numpy's sort kernel sets."""
    values = (0.0, 1.0, -math.inf, math.inf, math.nan)
    for n in (1, 2, 4, 5):
        for combo in itertools.product(values, repeat=n):
            assert _argsort(list(combo)) == np.argsort(combo).tolist(), combo


@st.composite
def laxity_like_samples(draw):
    """Heavy- or light-tailed sets of 8 to 3000 samples at scales 1e-3 to 1e3,
    some rounded into many ties and some mostly zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.one_of(st.integers(8, 40), st.integers(41, 3000)))
    tail = draw(st.sampled_from(["t", "cauchy", "normal", "uniform"]))
    dof = draw(st.floats(1.1, 30.0))
    d = {"t": lambda: rng.standard_t(dof, n), "cauchy": lambda: rng.standard_cauchy(n),
         "normal": lambda: rng.normal(size=n), "uniform": lambda: rng.random(n)}[tail]()
    if draw(st.booleans()):
        d = np.abs(d)
    decimals = draw(st.sampled_from([None, 0, 1, 2]))
    if decimals is not None:
        d = np.round(d, decimals)
    d[rng.random(n) < draw(st.sampled_from([0.0, 0.5, 0.9, 0.99]))] = 0.0
    return d * 10.0 ** draw(st.floats(-3.0, 3.0))


def fit_or_error(fit, samples) -> str:
    try:
        return repr(fit(samples))
    except RiskError as exc:
        return f"RiskError: {exc}"


@given(samples=laxity_like_samples())
@settings(max_examples=40, deadline=None)
def test_fit_matches_scipy_oracle(samples):
    """The package fit equals the scipy-driven one by repr, or raises the same
    refusal.  A spread outside the scale range, refused before any search,
    is one the oracle's search fails on; a fitted scale outside
    ``SCALE_BOUNDS``, refused after it, is one the oracle clips to a bound."""
    got, expected = (fit_or_error(fit, samples)
                     for fit in (fit_student_t, oracles.scipy_fit_student_t))
    if "outside the fit's scale range" in got:
        assert expected == "RiskError: student-t fit failed to converge"
    elif "outside the scale bounds" in got:
        assert oracles.scipy_fit_student_t(samples).scale in SCALE_BOUNDS
    else:
        assert got == expected


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

    def test_cdf_matches_quadrature_oracle(self):
        xs = np.concatenate([np.linspace(-40.0, 40.0, 161), [-1e-9, 0.0, 1e-9, 1e3]])
        for dof in (1.001, 1.5, 2.0, 3.7, 5.0, 12.0, 50.0, 100.0, 1e3):
            for x in xs:
                assert abs(standardized_cdf(x, dof) - quadrature_cdf(x, dof)) <= 1e-12
        # Above dof 1e3 the oracle's normaliser, a difference of two lgamma
        # values near dof/2 * log(dof/2), loses digits (2.7e-10 of absolute
        # CDF error at dof 1e6); it scales the area from the median, so
        # compare that area relatively there.
        for dof in (1e4, 1e5, 1e6):
            for x in xs[xs != 0.0]:
                assert standardized_cdf(x, dof) - 0.5 == pytest.approx(
                    quadrature_cdf(x, dof) - 0.5, rel=1e-9)

    def test_ppf_matches_oracle_bisection_bit_for_bit(self):
        """The bisection and its 1e-9 stopping rule are unchanged, so the
        cutoff is the quadrature bisection's to the last bit wherever the
        two CDFs agree to well inside that rule."""
        for dof in (1.001, 1.5, 2.0, 3.7, 5.0, 12.0, 50.0, 100.0, 1e3, 1e4, 1e5):
            for alpha in (0.05, 0.5, 0.8, 0.9, 0.95, 0.99):
                assert standardized_ppf(alpha, dof) == bisection_ppf(alpha, dof), (alpha, dof)
        # At the fit's dof bound the oracle's CDF is off by up to 2.7e-10
        # (above), which moves its cutoff by up to 3.2e-8 relative.
        for alpha in (0.05, 0.5, 0.8, 0.9, 0.95, 0.99):
            assert standardized_ppf(alpha, 1e6) == pytest.approx(
                bisection_ppf(alpha, 1e6), rel=5e-8, abs=0.0)


@given(dof=st.floats(math.log(1.001), math.log(1e6)).map(lambda v: min(math.exp(v), 1e6)),
       x=st.one_of(st.sampled_from([0.0, 1e-9, -1e-9, 1e3, -1e3]), st.floats(-1e3, 1e3)))
@settings(max_examples=500, deadline=None)
def test_cdf_matches_scipy_stdtr(dof, x):
    """Within 1e-13 of scipy's ``stdtr`` for dof up to 1e3 and 1e-11 above,
    where the fraction's terms lose digits near its switch point."""
    bound = 1e-13 if dof <= 1e3 else 1e-11
    assert abs(standardized_cdf(x, dof) - oracles.scipy_standardized_cdf(x, dof)) <= bound


def test_cdf_limits_and_refusals():
    """The limits at ±inf and the median, nan in and out, dof outside the fit's
    range refused, and the fraction refused far past its switch point."""
    assert standardized_cdf(-math.inf, 3.0) == 0.0
    assert standardized_cdf(1e200, 3.0) == 1.0
    assert standardized_cdf(-5e-324, 1e6) == standardized_cdf(0.0, 3.0) == 0.5
    assert math.isnan(standardized_cdf(math.nan, 3.0))
    for dof in (0.0, -1.0, 1.0000001e6, math.inf, math.nan):
        with pytest.raises(RiskError, match=r"dof must lie in \(0, 1e\+06\]"):
            standardized_cdf(0.5, dof)
    with pytest.raises(RiskError, match="incomplete beta fraction did not converge"):
        risk_module._beta_fraction(5e5, 0.5, 1.0 - 1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_ppf_matches_stdtr_bisection_bit_for_bit_at_fitted_dof(seed):
    """At the dof fitted to the default configuration's session file for
    each seed, the cutoff is the one the bisection on scipy's ``stdtr``
    returned, to the last bit."""
    batch = generate_synthetic(generator_from_config(load_config(None)),
                               stage_seed(seed, "gen"))
    dof = fit_student_t(laxity_samples(batch)).dof
    for alpha in (0.8, 0.95, 0.99):
        assert standardized_ppf(alpha, dof) == bisection_ppf(
            alpha, dof, oracles.scipy_standardized_cdf), (alpha, dof)


class TestCvarClosedForm:
    def test_standard_matches_monte_carlo(self):
        """The upper 5% tail mean of a standard t5."""
        rng = np.random.default_rng(42)
        samples = rng.standard_t(5.0, size=10**6)
        closed = upper_tail_cvar(make_fit(dof=5.0), 0.95, 2.0150)
        empirical = cvar_empirical(samples, 0.95)
        assert closed == pytest.approx(empirical, rel=0.02)

    def test_paper_variant_singular_at_zero_location(self):
        with pytest.raises(RiskError, match="location 0"):
            paper_cvar(make_fit(location=0.0), 0.95, 2.0)

    def test_paper_variant_verbatim_value(self):
        fit = make_fit(dof=5.0, location=2.0, scale=0.5)
        xi = 2.0150
        expected = -1.0 / (0.95 * (1.0 - 5.0) * (5.0 + xi * xi)
                           * standardized_pdf(xi, 5.0) * 0.5 * 2.0)
        assert paper_cvar(fit, 0.95, xi) == pytest.approx(expected, rel=1e-12)

    def test_scale_scales_tail_term(self):
        alpha, xi = 0.95, 2.0150
        base = upper_tail_cvar(make_fit(scale=1.0, location=0.3), alpha, xi)
        scaled = upper_tail_cvar(make_fit(scale=3.0, location=0.3), alpha, xi)
        assert scaled - 0.3 == pytest.approx(3.0 * (base - 0.3), rel=1e-12)

    def test_dof_at_most_one_rejected(self):
        with pytest.raises(RiskError):
            StudentTFit(dof=1.0, location=0.0, scale=1.0)

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

    def test_upper_tail_cvar_is_the_mirrored_lower_tail_bit_for_bit(self):
        """The upper-tail form equals the lower-tail closed form at 1 - alpha
        and -xi, plus twice the location, to the last bit."""
        rng = np.random.default_rng(5)
        fits = [make_fit(dof=DOF_BOUNDS[1], location=3.25, scale=SCALE_BOUNDS[0])]
        fits += [make_fit(dof=float(np.exp(rng.uniform(0.001, 12.0))) + 1.0,
                          location=float(rng.uniform(-5.0, 5.0)),
                          scale=float(np.exp(rng.uniform(-5.0, 3.0)))) for _ in range(60)]
        for fit in fits:
            for alpha in (0.05, 0.5, 0.8, 0.9, 0.95, 0.99):
                for xi in (standardized_ppf(alpha, fit.dof), float(rng.uniform(-8.0, 8.0))):
                    got = upper_tail_cvar(fit, alpha, xi)
                    assert repr(got) == repr(mirrored_upper_tail_cvar(fit, alpha, xi))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -3.0, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        for form in (upper_tail_cvar, paper_cvar):
            with pytest.raises(RiskError, match=rf"alpha must lie strictly inside \(0, 1\), "
                                                rf"got {alpha!r}"):
                form(make_fit(location=1.0), alpha, 1.0)


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


def test_reference_hours_add_left_to_right():
    """The requested minutes are added one session at a time from 0, on every
    Python version; 3.12's compensated builtin sum would make these 1e16 + 2."""
    batch = batch_of([make_session(sid=f"s{i}", window_min=minutes, charge_min=1,
                                   start=T0 + timedelta(hours=i))
                      for i, minutes in enumerate((1e16, 1.0, 1.0))])
    assert batch_reference_hours(batch) == 1e16 / 60.0 != math.fsum([1e16, 1.0, 1.0]) / 60.0


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

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -3.0, math.nan])
    @pytest.mark.parametrize("cv_fraction", [0.0, 0.7])  # constant laxity, then a fit
    def test_alpha_outside_unit_interval_rejected(self, monkeypatch, alpha, cv_fraction):
        """Checked on entry, so constant laxity, which needs no quantile, is
        refused too, and nothing is fitted first."""
        batch = generate_synthetic(GeneratorConfig(n_sessions=200, cv_fraction=cv_fraction),
                                   seed=4)
        monkeypatch.setattr(risk_module, "fit_student_t", None)
        with pytest.raises(RiskError, match=rf"alpha must lie strictly inside \(0, 1\), "
                                            rf"got {alpha!r}"):
            estimate_risk(batch, alpha)

    def test_var_below_empirical_tail_mean(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=600, cv_fraction=0.8),
                                   seed=9)
        estimate = estimate_risk(batch, 0.9)
        assert estimate.cvar_empirical >= estimate.var - 1e-6
