"""Tail-risk estimation for charging laxity.

Laxity of one session is the absolute gap, in hours, between the time its
requested energy would take at the port's aggregate requested rate and the
time its delivered energy took at the aggregate delivery rate, both read
from :func:`ramals.sessions.port_rates`.  A student-t model is fitted over
those samples by maximum likelihood, by a Nelder-Mead simplex that is
scipy's step for step.  The significance cutoff is a bisection on the
student-t CDF: the incomplete beta ratio I_x(dof/2, ½) by its continued
fraction (modified Lentz) in x or in 1 - x, whichever converges, as in
DiDonato & Morris (1992, ACM TOMS Algorithm 708).  It is within 1e-13 of
``scipy.special.stdtr`` for dof up to 1e3 and 1e-11 up to the fit's bound
of 1e6, so the package needs numpy alone.
The tail expectation (CVaR) has two closed forms, one function each:
:func:`upper_tail_cvar`, validated against an empirical tail mean, drives
decisions through ``cvar_normalized``; :func:`paper_cvar`, the verbatim
printed form, is singular at location 0 and kept for reference.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .sessions import SessionBatch, ordered_sum, port_rates

log = logging.getLogger(__name__)

DOF_BOUNDS = (1.001, 1e6)
SCALE_BOUNDS = (1e-6, 1e6)
#: Sample standard deviation below which a sample set is treated as constant.
DEGENERATE_STD = 1e-9
#: Fewest samples a student-t fit takes, and fewest in an empirical tail.
MIN_FIT_SAMPLES = 8
MIN_TAIL_SAMPLES = 10


class RiskError(ValueError):
    """Raised for ill-posed risk computations."""


@dataclass(frozen=True)
class StudentTFit:
    """Fitted location-scale student-t parameters over laxity hours."""

    dof: float
    location: float
    scale: float

    def __post_init__(self):
        if self.dof <= 1.0:
            raise RiskError("dof must exceed 1 (tail expectation divides by dof - 1)")
        if self.scale <= 0.0:
            raise RiskError("scale must be positive")


@dataclass(frozen=True)
class RiskEstimate:
    """Complete risk summary at one significance level.  Its fields, with
    ``fit``'s at the top level, are the ``fit-risk`` file."""

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


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise RiskError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")


def laxity_samples(batch: SessionBatch) -> np.ndarray:
    """One laxity observation per session, in hours and non-negative, from
    its port's demand and delivery rates (:func:`ramals.sessions.port_rates`).
    A port whose two rates are not both > 0 is refused by name."""
    demand, delivery = port_rates(batch)
    bad = np.flatnonzero(~((demand > 0) & (delivery > 0)))
    if bad.size:
        p = bad[0]
        raise RiskError(f"EVSE {batch.evse_ids[p]!r}: rates must be positive for laxity, got "
                        f"demand {float(demand[p])!r} kW and delivery {float(delivery[p])!r} "
                        "kW; a rate is nan when its minutes total 0")
    return np.abs(batch.requested_kwh / demand[batch.port]
                  - batch.delivered_kwh / delivery[batch.port])


def _log_norm(dof: float, scale: float) -> float:
    """Log of the location-scale student-t density's normalising constant."""
    return (math.lgamma((dof + 1.0) / 2.0) - math.lgamma(dof / 2.0)
            - 0.5 * math.log(math.pi * dof) - math.log(scale))


def standardized_pdf(xi, dof: float):
    """Student-t density with location 0 and scale 1."""
    if dof <= 0:
        raise RiskError("dof must be positive")
    xi = np.asarray(xi, dtype=float)
    value = np.exp(_log_norm(dof, 1.0) - (dof + 1.0) / 2.0 * np.log1p(xi * xi / dof))
    return float(value) if value.ndim == 0 else value


def _sum_log_pdf(d: np.ndarray, dof: float, location: float, scale: float) -> float:
    z = (d - location) / scale
    return float(d.size * _log_norm(dof, scale)
                 - (dof + 1.0) / 2.0 * np.sum(np.log1p(z * z / dof)))


def _argsort(values: list[float]) -> list[int]:
    """``np.argsort(values)`` as a list.  Distinct values none of which is
    NaN have one sorted order, the builtin sort's; ties and NaN, which numpy
    sorts last, go to numpy, whose order among ties depends on its sort
    kernel."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranked = [values[k] for k in order]
    if all(low < high for low, high in zip(ranked, ranked[1:])):
        return order
    return np.argsort(values).tolist()


def _simplex_minimum(func, x0: np.ndarray, maxiter: int = 3000) -> tuple[np.ndarray, float]:
    """Nelder-Mead minimum of ``func`` from ``x0``: scipy's search with its
    default coefficients, step for step, each folded constant exact in
    float64.  Points and values are Python floats, each coordinate's
    arithmetic the float64 operation numpy's would be; ``func`` is handed
    each point as a new array."""
    n = x0.size
    start = x0.tolist()
    sim = [start] + [start[:k] + [1.05 * v if v != 0 else 0.00025] + start[k + 1:]
                     for k, v in enumerate(start)]
    fsim = [float(func(np.array(x))) for x in sim]
    for _ in range(2):  # scipy orders the start simplex twice
        order = _argsort(fsim)
        sim, fsim = [sim[k] for k in order], [fsim[k] for k in order]
    for _ in range(1, maxiter):
        best, f_best = sim[0], fsim[0]
        # all(... <= tol) is np.max(...) <= tol, NaN failing both
        if (all(abs(v - b) <= 1e-8 for x in sim[1:] for v, b in zip(x, best))
                and all(abs(f_best - f) <= 1e-10 for f in fsim[1:])):
            break
        # np.add.reduce over the points' axis adds the points in order
        xbar = [total / n for total in (reduce(add, column) for column in zip(*sim[:-1]))]
        worst = sim[-1]
        xr = [2.0 * m - w for m, w in zip(xbar, worst)]  # reflect
        fxr = float(func(np.array(xr)))
        if fxr < fsim[0]:
            xe = [3.0 * m - 2.0 * w for m, w in zip(xbar, worst)]  # expand
            fxe = float(func(np.array(xe)))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:  # contract: outside when xr beats the worst point, else inside
            outside = fxr < fsim[-1]
            xc = [1.5 * m - 0.5 * w if outside else 0.5 * m + 0.5 * w
                  for m, w in zip(xbar, worst)]
            fxc = float(func(np.array(xc)))
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best point
                sim[1:] = [[b + 0.5 * (v - b) for v, b in zip(x, best)] for x in sim[1:]]
                fsim[1:] = [float(func(np.array(x))) for x in sim[1:]]
        order = _argsort(fsim)
        sim, fsim = [sim[k] for k in order], [fsim[k] for k in order]
    # np.min of the sorted values: NaN if any is
    return np.array(sim[0]), math.nan if any(map(math.isnan, fsim)) else fsim[0]


def fit_student_t(samples) -> StudentTFit:
    """Maximum-likelihood student-t fit over (log(dof - 1.001), location,
    log scale) by the Nelder-Mead simplex :func:`_simplex_minimum`: start
    points x0 and x0 with one coordinate times 1.05 (0.00025 where it is 0);
    reflect 1, expand 2, contract and shrink 0.5; at most 3000 iterations,
    stopping once the points lie within 1e-8 and their values within 1e-10.
    Searches start at the sample mean and stddev, at dof = count-1 and a few
    low dofs (the likelihood is nearly flat in dof once the fit is effectively
    normal); near-equal optima go to the lowest dof.  Non-finite samples, a
    spread that overflows float64 and a standard deviation outside the scale
    range the likelihood admits, where every start would read only inf, are
    refused before any search; a fitted scale outside ``SCALE_BOUNDS``, after
    it.  A dof past its bound is the normal limit and is capped there.
    """
    d = np.asarray(samples, dtype=float)
    if d.size < MIN_FIT_SAMPLES:
        raise RiskError(f"student-t fit needs at least {MIN_FIT_SAMPLES} samples, got {d.size}")
    if not np.isfinite(d).all():
        i = int(np.flatnonzero(~np.isfinite(d))[0])
        raise RiskError(f"student-t fit needs finite samples; sample {i} is {float(d[i])!r}")
    with np.errstate(over="raise"):
        try:
            std, mean = float(np.std(d)), float(np.mean(d))
        except FloatingPointError:
            raise RiskError("student-t fit: the sample spread overflows float64") from None
    if std < DEGENERATE_STD:
        raise RiskError("student-t fit is degenerate: samples are constant")
    low, high = SCALE_BOUNDS[0] / 10, SCALE_BOUNDS[1] * 10
    if not low <= std <= high:
        raise RiskError(f"student-t fit: sample standard deviation {std:.3g} h lies outside "
                        f"the fit's scale range [{low:g}, {high:g}] h")

    def negative_ll(params: np.ndarray) -> float:
        log_dof_off, location, log_scale = params
        dof = DOF_BOUNDS[0] + math.exp(log_dof_off)
        scale = math.exp(log_scale)
        if not (DOF_BOUNDS[0] < dof <= DOF_BOUNDS[1] * 10 and low <= scale <= high):
            return float("inf")
        return -_sum_log_pdf(d, dof, location, scale)

    dof_starts = [min(max(2.0, d.size - 1.0), 1e5), 2.0, 5.0, 20.0]
    best = None
    for dof0 in dof_starts:
        x0 = np.array([math.log(dof0 - DOF_BOUNDS[0]), mean, math.log(std)])
        x, fun = _simplex_minimum(negative_ll, x0)
        dof = DOF_BOUNDS[0] + math.exp(x[0])
        candidate = (float(fun), min(dof, DOF_BOUNDS[1]), float(x[1]), math.exp(x[2]))
        tie_tol = 1e-6 * max(1.0, abs(candidate[0]))
        if best is None or candidate[0] < best[0] - tie_tol:
            best = candidate
        elif abs(candidate[0] - best[0]) <= tie_tol and candidate[1] < best[1]:
            best = candidate
    neg_ll, dof, location, scale = best
    if not math.isfinite(neg_ll):
        raise RiskError("student-t fit failed to converge")
    if not SCALE_BOUNDS[0] <= scale <= SCALE_BOUNDS[1]:
        raise RiskError(f"student-t fit: fitted scale {scale:.3g} h lies outside the scale "
                        f"bounds [{SCALE_BOUNDS[0]:g}, {SCALE_BOUNDS[1]:g}] h")
    return StudentTFit(dof=dof, location=location, scale=scale)


def _log_gamma_half_step(a: float) -> float:
    """log Γ(a + ½) − log Γ(a); above a = 50 by its asymptotic series, whose
    first omitted term is below 2e-15, since there the two lgamma values are
    large and their difference loses digits (5.5e-10 at a = 5e5)."""
    if a < 50.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    return 0.5 * math.log(a) - (0.125 - (1.0 / 192.0 - r / 640.0) * r) / a


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) times
    it, by the modified Lentz method; quick for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    d = 1.0 - (a + b) * x / (a + 1.0)
    c, d = 1.0, 1.0 / (d if abs(d) > tiny else tiny)
    fraction = d
    for m in range(1, 1000):
        for term in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + term / c
            c = c if abs(c) > tiny else tiny
            fraction *= c * d
        if abs(c * d - 1.0) <= 2.2e-16:
            return fraction
    raise RiskError(f"incomplete beta fraction did not converge at a={a!r}, b={b!r}, x={x!r}")


def standardized_cdf(x: float, dof: float) -> float:
    """CDF of the standardized density: below 0 it is ½ I_u(dof/2, ½) at
    u = dof / (dof + x²), read from :func:`_beta_fraction` in u or, once u
    passes the fraction's switch point, as ½ − ½ I_{1-u}(½, dof/2)."""
    x, dof = float(x), float(dof)
    if not 0.0 < dof <= DOF_BOUNDS[1]:
        raise RiskError(f"dof must lie in (0, {DOF_BOUNDS[1]:g}], got {dof!r}")
    t2 = x * x
    if not t2 < math.inf:  # |x| beyond 1.3e154, or nan
        return math.nan if math.isnan(x) else float(x > 0)
    a = 0.5 * dof
    u, v = dof / (dof + t2), t2 / (dof + t2)  # v is 1 - u without the subtraction
    if v == 0.0:  # x is 0 or so near it that the CDF rounds to ½
        return 0.5
    log_front = (-a * math.log1p(t2 / dof) + 0.5 * math.log(v)  # log u^a v^½ / B(a, ½)
                 + _log_gamma_half_step(a) - 0.5 * math.log(math.pi))
    if v > 1.5 / (a + 2.5):
        tail = 0.5 * math.exp(log_front) * _beta_fraction(a, 0.5, u) / a
    else:
        tail = 0.5 - math.exp(log_front) * _beta_fraction(0.5, a, v)
    return tail if x < 0 else 1.0 - tail


def standardized_ppf(alpha: float, dof: float) -> float:
    """Quantile of the standardized density by bisection on the CDF."""
    _check_alpha(alpha)
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


def upper_tail_cvar(fit: StudentTFit, alpha: float, xi_upper: float) -> float:
    """Expected laxity beyond the standardized alpha-quantile ``xi_upper``
    (the mean of the worst 1-alpha mass): the form that drives decisions.

    By symmetry it is the negated mean of the lower 1-alpha tail below
    ``-xi_upper``, ``scale * (dof + xi^2) / (dof - 1) * pdf(xi) / (1 - alpha)
    - location``, plus ``2 * location``, summed in that order.
    """
    _check_alpha(alpha)
    tail = ((fit.dof + xi_upper * xi_upper) / (fit.dof - 1.0)
            * standardized_pdf(xi_upper, fit.dof) / (1.0 - alpha))
    return fit.scale * tail - fit.location + 2.0 * fit.location


def paper_cvar(fit: StudentTFit, alpha: float, xi: float) -> float:
    """The paper's printed closed form, verbatim, with scale and location
    inside the reciprocal.  It is singular at location 0 and drives nothing:
    it is reported beside :func:`upper_tail_cvar` for reference."""
    _check_alpha(alpha)
    if fit.location == 0.0:
        raise RiskError("printed closed form divides by location 0")
    return -1.0 / (alpha * (1.0 - fit.dof) * (fit.dof + xi * xi)
                   * standardized_pdf(xi, fit.dof) * fit.scale * fit.location)


def cvar_empirical(samples, alpha: float) -> float:
    """Mean of the worst (1 - alpha) fraction of the samples."""
    _check_alpha(alpha)
    d = np.sort(np.asarray(samples, dtype=float))
    k = int(round(d.size * (1.0 - alpha)))
    if k < MIN_TAIL_SAMPLES:
        raise RiskError(f"tail holds {k} samples, need at least {MIN_TAIL_SAMPLES}; "
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
    return StudentTFit(dof=DOF_BOUNDS[1], location=value, scale=SCALE_BOUNDS[0])


def batch_reference_hours(batch: SessionBatch) -> float:
    """Normalization reference: requested charging hours per port.

    A session's laxity contribution is its share of the port's total requested
    (or delivered) hours, so the per-port total is the scale on which laxity
    lives; dividing by it turns the tail expectation into the percent-style
    figure the normalized risk is meant to be.  Normalizing by the mean
    session duration instead saturates the clamp on heavily inflated batches
    and zeroes every reward downstream.
    """
    total_hours = ordered_sum(batch.minutes_available.tolist()) / 60.0
    return total_hours / max(len(batch.evse_ids), 1)


def estimate_risk(batch: SessionBatch, alpha: float) -> RiskEstimate:
    """Full pipeline: laxity samples, fit, quantile, tail expectations."""
    _check_alpha(alpha)
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
        cvar_paper = paper_cvar(fit, alpha, xi_upper)
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
        cvar_empirical=cvar_empirical(d, alpha),
        cvar_normalized=normalize_risk(cvar_std, reference),
    )
