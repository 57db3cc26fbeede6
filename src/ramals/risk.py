"""Tail-risk estimation for charging laxity.

Laxity of one session is the absolute gap, in hours, between the time its
requested energy would take at the port's aggregate requested rate and the
time its delivered energy took at the aggregate delivery rate.  A student-t
model is fitted over those samples by maximum likelihood; the significance
cutoff comes from inverting the fitted CDF; the tail expectation (CVaR) is
evaluated both in a closed form validated against an empirical tail mean and
in the verbatim printed form kept for reference (singular at location 0).

The density, CDF, quantile and tail-expectation code below is self-contained:
the CDF is adaptive numeric integration of the standardized density and the
quantile is a bisection on that CDF.  No t-distribution special functions are
used outside the test suite, where an independent implementation serves as
the oracle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from .sessions import SessionBatch, delivery_rate_kw, demand_rate_kw

log = logging.getLogger(__name__)

DOF_BOUNDS = (1.001, 1e6)
SCALE_BOUNDS = (1e-6, 1e6)
CDF_ABS_TOL = 1e-10
#: Sample standard deviation below which a sample set is treated as constant.
DEGENERATE_STD = 1e-9


class RiskError(ValueError):
    """Raised for ill-posed risk computations."""


@dataclass(frozen=True)
class StudentTFit:
    """Fitted location-scale student-t parameters over laxity hours."""

    dof: float
    location: float
    scale: float
    log_likelihood_at_optimum: float

    def __post_init__(self):
        if self.dof <= 1.0:
            raise RiskError("dof must exceed 1 (tail expectation divides by dof - 1)")
        if self.scale <= 0.0:
            raise RiskError("scale must be positive")


@dataclass(frozen=True)
class RiskEstimate:
    """Complete risk summary at one significance level."""

    alpha: float
    fit: StudentTFit
    cutoff: float          # standardized upper-tail cutoff
    var: float             # quantile of laxity at alpha, in hours
    cvar_paper: float      # verbatim printed closed form (nan when singular)
    cvar_standard: float   # validated tail-expectation form, hours
    cvar_empirical: float  # tail average of the raw samples, hours
    cvar_normalized: float # cvar_standard scaled into [0, 1)

    def __post_init__(self):
        if not 0.0 <= self.cvar_normalized < 1.0:
            raise RiskError("normalized risk must lie in [0, 1)")


def laxity_samples(batch: SessionBatch) -> np.ndarray:
    """One laxity observation per session, in hours and non-negative, with
    grouped rates computed per EVSE."""
    samples = []
    for evse_id in batch.evse_ids:
        group = batch.group(evse_id)
        lam_req = demand_rate_kw(group)
        lam_act = delivery_rate_kw(group)
        if lam_req <= 0 or lam_act <= 0:
            raise RiskError(f"EVSE {evse_id!r}: rates must be positive for laxity")
        for s in group:
            samples.append(abs(s.energy_requested_kwh / lam_req
                               - s.energy_delivered_kwh / lam_act))
    return np.array(samples, dtype=float)


def student_t_pdf(d, dof: float, location: float, scale: float):
    """Location-scale student-t density."""
    if dof <= 0:
        raise RiskError("dof must be positive")
    if scale <= 0:
        raise RiskError("scale must be positive")
    d = np.asarray(d, dtype=float)
    z = (d - location) / scale
    log_norm = (math.lgamma((dof + 1.0) / 2.0) - math.lgamma(dof / 2.0)
                - 0.5 * math.log(math.pi * dof) - math.log(scale))
    value = np.exp(log_norm - (dof + 1.0) / 2.0 * np.log1p(z * z / dof))
    return float(value) if value.ndim == 0 else value


def standardized_pdf(xi, dof: float):
    """Student-t density with location 0 and scale 1."""
    return student_t_pdf(xi, dof, 0.0, 1.0)


def _sum_log_pdf(d: np.ndarray, dof: float, location: float, scale: float) -> float:
    z = (d - location) / scale
    log_norm = (math.lgamma((dof + 1.0) / 2.0) - math.lgamma(dof / 2.0)
                - 0.5 * math.log(math.pi * dof) - math.log(scale))
    return float(d.size * log_norm - (dof + 1.0) / 2.0 * np.sum(np.log1p(z * z / dof)))


def fit_student_t(samples, min_samples: int = 8) -> StudentTFit:
    """Maximum-likelihood student-t fit via a derivative-free simplex.

    Starts from moment estimates (sample mean, sample stddev, dof = count-1),
    plus a small grid of low-dof starts because the likelihood ridge is nearly
    flat in dof once the fit is effectively normal.  Near-equal optima are
    resolved in favour of the lowest dof.
    """
    d = np.asarray(samples, dtype=float)
    if d.size < min_samples:
        raise RiskError(f"student-t fit needs at least {min_samples} samples, got {d.size}")
    std = float(np.std(d))
    if std < DEGENERATE_STD:
        raise RiskError("student-t fit is degenerate: samples are constant")
    mean = float(np.mean(d))

    def negative_ll(params: np.ndarray) -> float:
        log_dof_off, location, log_scale = params
        dof = DOF_BOUNDS[0] + math.exp(log_dof_off)
        scale = math.exp(log_scale)
        if not (DOF_BOUNDS[0] < dof <= DOF_BOUNDS[1] * 10
                and SCALE_BOUNDS[0] / 10 <= scale <= SCALE_BOUNDS[1] * 10):
            return float("inf")
        return -_sum_log_pdf(d, dof, location, scale)

    dof_starts = [min(max(2.0, d.size - 1.0), 1e5), 2.0, 5.0, 20.0]
    best = None
    for dof0 in dof_starts:
        x0 = np.array([math.log(dof0 - DOF_BOUNDS[0]), mean, math.log(std)])
        result = optimize.minimize(negative_ll, x0, method="Nelder-Mead",
                                   options={"maxiter": 3000, "xatol": 1e-8, "fatol": 1e-10})
        dof = DOF_BOUNDS[0] + math.exp(result.x[0])
        candidate = (float(result.fun), min(dof, DOF_BOUNDS[1]), float(result.x[1]),
                     float(np.clip(math.exp(result.x[2]), *SCALE_BOUNDS)))
        tie_tol = 1e-6 * max(1.0, abs(candidate[0]))
        if best is None or candidate[0] < best[0] - tie_tol:
            best = candidate
        elif abs(candidate[0] - best[0]) <= tie_tol and candidate[1] < best[1]:
            best = candidate
    neg_ll, dof, location, scale = best
    if not math.isfinite(neg_ll):
        raise RiskError("student-t fit failed to converge")
    return StudentTFit(dof=dof, location=location, scale=scale,
                       log_likelihood_at_optimum=-neg_ll)


def standardized_cdf(x: float, dof: float) -> float:
    """CDF of the standardized density by adaptive quadrature from the median."""
    if dof <= 0:
        raise RiskError("dof must be positive")
    if x == 0.0:
        return 0.5
    lo, hi = (x, 0.0) if x < 0 else (0.0, x)
    area, _ = integrate.quad(lambda t: standardized_pdf(t, dof), lo, hi,
                             epsabs=CDF_ABS_TOL, epsrel=1e-10, limit=200)
    return 0.5 - area if x < 0 else 0.5 + area


def standardized_ppf(alpha: float, dof: float) -> float:
    """Quantile of the standardized density by bisection on the numeric CDF."""
    if not 0.0 < alpha < 1.0:
        raise RiskError("alpha must lie strictly inside (0, 1)")
    if alpha == 0.5:
        return 0.0
    lo, hi = -1.0, 1.0
    while standardized_cdf(lo, dof) > alpha:
        lo *= 2.0
        if lo < -1e12:
            raise RiskError("quantile bracket exploded downward")
    while standardized_cdf(hi, dof) < alpha:
        hi *= 2.0
        if hi > 1e12:
            raise RiskError("quantile bracket exploded upward")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        c = standardized_cdf(mid, dof)
        if abs(c - alpha) <= 1e-9:
            return mid
        if c < alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def cvar_closed_form(fit: StudentTFit, alpha: float, xi: float,
                     variant: str = "standard") -> float:
    """Closed-form tail risk at a standardized cutoff ``xi``.

    variant "standard" treats ``alpha`` as the mass of the lower tail below
    ``xi`` and returns the negated conditional mean of that tail,

        scale * ((dof + xi^2) / (dof - 1)) * pdf(xi) / alpha - location,

    which for a symmetric fit equals the mean of the upper ``alpha`` tail and
    is validated against the empirical tail average.  variant "paper" is the
    verbatim printed expression with scale and location inside the reciprocal;
    it is singular at location 0 and kept for reference only.
    """
    if fit.dof <= 1.0:
        raise RiskError("closed-form tail risk requires dof > 1")
    if not 0.0 < alpha < 1.0:
        raise RiskError("alpha must lie strictly inside (0, 1)")
    density = standardized_pdf(xi, fit.dof)
    if variant == "standard":
        tail = (fit.dof + xi * xi) / (fit.dof - 1.0) * density / alpha
        return fit.scale * tail - fit.location
    if variant == "paper":
        if fit.location == 0.0:
            raise RiskError("printed closed form divides by location 0")
        return -1.0 / (alpha * (1.0 - fit.dof) * (fit.dof + xi * xi)
                       * density * fit.scale * fit.location)
    raise RiskError(f"unknown variant {variant!r}")


def upper_tail_cvar(fit: StudentTFit, alpha: float, xi_upper: float) -> float:
    """Expected laxity beyond the alpha-quantile (mean of the worst 1-alpha mass).

    ``xi_upper`` is the standardized alpha-quantile,
    ``standardized_ppf(alpha, fit.dof)``.  Maps the upper tail onto the
    lower-tail closed form through the symmetry of the standardized density:
    the upper cutoff at alpha mirrors the lower cutoff at 1-alpha.
    """
    negated_lower = cvar_closed_form(fit, 1.0 - alpha, -xi_upper, variant="standard")
    return negated_lower + 2.0 * fit.location


def cvar_empirical(samples, alpha: float, min_tail: int = 10) -> float:
    """Mean of the worst (1 - alpha) fraction of the samples."""
    if not 0.0 < alpha < 1.0:
        raise RiskError("alpha must lie strictly inside (0, 1)")
    d = np.sort(np.asarray(samples, dtype=float))
    k = int(round(d.size * (1.0 - alpha)))
    if k < min_tail:
        raise RiskError(f"tail holds {k} samples, need at least {min_tail}; "
                        "lower alpha or add sessions")
    return float(np.mean(d[-k:]))


def normalize_risk(raw_cvar: float, reference_scale: float) -> float:
    """Scale a raw tail expectation into [0, 1) against a reference duration."""
    if reference_scale <= 0:
        raise RiskError("reference scale must be positive")
    return float(np.clip(raw_cvar / reference_scale, 0.0, 1.0 - 1e-9))


def _degenerate_fit(value: float) -> StudentTFit:
    # Constant samples: pin dof and scale at their bounds so the closed forms
    # collapse to the constant itself.
    return StudentTFit(dof=DOF_BOUNDS[1], location=value, scale=SCALE_BOUNDS[0],
                       log_likelihood_at_optimum=float("nan"))


def batch_reference_hours(batch: SessionBatch) -> float:
    """Normalization reference: requested charging hours per port.

    A session's laxity contribution is its share of the port's total requested
    (or delivered) hours, so the per-port total is the scale on which laxity
    lives; dividing by it turns the tail expectation into the percent-style
    figure the normalized risk is meant to be.  Normalizing by the mean
    session duration instead saturates the clamp on heavily inflated batches
    and zeroes every reward downstream.
    """
    total_hours = sum(s.minutes_available for s in batch) / 60.0
    return total_hours / max(len(batch.evse_ids), 1)


def estimate_risk(batch: SessionBatch, alpha: float,
                  min_tail: int = 10) -> RiskEstimate:
    """Full pipeline: laxity samples, fit, quantile, tail expectations."""
    d = laxity_samples(batch)
    reference = batch_reference_hours(batch)
    if float(np.std(d)) < DEGENERATE_STD:
        # Constant laxity: every tail statistic is the constant itself, at any
        # level, so the tail-size precondition does not apply.
        value = float(np.mean(d))
        log.warning("laxity samples are constant (%.3g h); pinning fit at bounds", value)
        return RiskEstimate(
            alpha=alpha,
            fit=_degenerate_fit(value),
            cutoff=0.0,
            var=value,
            cvar_paper=float("nan"),
            cvar_standard=value,
            cvar_empirical=value,
            cvar_normalized=normalize_risk(value, reference),
        )
    fit = fit_student_t(d)
    xi_upper = standardized_ppf(alpha, fit.dof)
    var = fit.location + fit.scale * xi_upper
    cvar_std = upper_tail_cvar(fit, alpha, xi_upper)
    try:
        cvar_paper = cvar_closed_form(fit, alpha, xi_upper, variant="paper")
    except RiskError:
        log.warning("printed closed form singular at location %.3g; reporting nan",
                    fit.location)
        cvar_paper = float("nan")
    return RiskEstimate(
        alpha=alpha,
        fit=fit,
        cutoff=xi_upper,
        var=var,
        cvar_paper=cvar_paper,
        cvar_standard=cvar_std,
        cvar_empirical=cvar_empirical(d, alpha, min_tail=min_tail),
        cvar_normalized=normalize_risk(cvar_std, reference),
    )
