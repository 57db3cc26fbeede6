"""Reference implementations the package is checked against.

Each is the straightforward code the package used before it was vectorised
or made cheaper: one port and one step at a time for the learner, every pair
of intervals for the feed-capacity audit, one session at a time for the
state, ``strptime`` over four formats for timestamps, and the risk API that
only tests used.
"""

import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from ramals.learner import LOG_PROB_FLOOR, _entropy_rows, hidden_size
from ramals.mdp import DURATION_NORM_MIN, ENERGY_NORM_KWH, _minutes_since_midnight
from ramals.risk import RiskError, standardized_ppf
from ramals.scheduler import SchedulerError
from ramals.sessions import SessionError

_TIME_FORMATS = ("%Y-%m-%dT%H:%M", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M",
                 "%Y-%m-%d %H:%M:%S")


def _parse_timestamp(raw, field_name: str, session_id: str) -> datetime:
    if not isinstance(raw, str):
        raise SessionError(f"session {session_id!r}: field {field_name!r} must be a string")
    text = raw.strip().replace("Z", "").split("+")[0].split(".")[0]
    for fmt in _TIME_FORMATS:
        try:
            ts = datetime.strptime(text, fmt)
            return ts.replace(second=0, microsecond=0)
        except ValueError:
            continue
    raise SessionError(f"session {session_id!r}: unparseable timestamp {raw!r} in {field_name!r}")


def state_vector(session) -> np.ndarray:
    """Six-component observation of one queued session."""
    raw = np.array([
        session.energy_requested_kwh / ENERGY_NORM_KWH,
        session.minutes_available / DURATION_NORM_MIN,
        _minutes_since_midnight(session.plug_in_time) / DURATION_NORM_MIN,
        _minutes_since_midnight(session.charge_end_time) / DURATION_NORM_MIN,
        _minutes_since_midnight(session.unplug_time) / DURATION_NORM_MIN,
        session.energy_delivered_kwh / ENERGY_NORM_KWH,
    ])
    return np.clip(raw, 0.0, 1.0)


def log_likelihood(samples, dof: float, location: float, scale: float) -> float:
    """Log-likelihood of a sample set under the fitted density.

    Written in the expanded form
        J*lgamma((w+1)/2) + (J*w/2)*log w - J*lgamma(w/2)
        - (J/2)*log(scale^2) - (w+1)/2 * sum log(w + ((d-loc)/scale)^2)
    which differs from the plain sum of log densities only by the constant
    (J/2)*log(pi); the test suite checks that equivalence on random inputs.
    """
    if dof <= 0 or scale <= 0:
        raise RiskError("dof and scale must be positive")
    d = np.asarray(samples, dtype=float)
    if d.size == 0:
        raise RiskError("log-likelihood needs a non-empty sample set")
    n = d.size
    z = (d - location) / scale
    return (n * math.lgamma((dof + 1.0) / 2.0)
            + n * dof / 2.0 * math.log(dof)
            - n * math.lgamma(dof / 2.0)
            - n / 2.0 * math.log(scale * scale)
            - (dof + 1.0) / 2.0 * float(np.sum(np.log(dof + z * z))))


def ppf(fit, alpha: float) -> float:
    """Quantile of the fitted distribution by bisection on the numeric CDF."""
    xi = standardized_ppf(alpha, fit.dof)
    return fit.location + fit.scale * xi


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax2(logits):
    e = np.exp(logits - np.max(logits))
    return e / np.sum(e)


def cell_step(params, x, h_prev, c_prev):
    """One step of the gated cell for one state vector."""
    hidden = h_prev.shape[0]
    z = params["wx"] @ x + params["wh"] @ h_prev + params["b"]
    gi = _sigmoid(z[:hidden])
    gf = _sigmoid(z[hidden:2 * hidden])
    gc = np.tanh(z[2 * hidden:3 * hidden])
    go = _sigmoid(z[3 * hidden:])
    c = gf * c_prev + gi * gc
    tanh_c = np.tanh(c)
    h = go * tanh_c
    return h, c, (x, h_prev, c_prev, gi, gf, gc, go, tanh_c)


@dataclass
class ScalarForward:
    """Forward pass over one port's (T, 6) sequence."""

    probs: np.ndarray      # (T, 2)
    values: np.ndarray     # (T,)
    caches: list
    final_carry: tuple


def scalar_forward(params, states):
    """Run one port's sequence from a zero carry, one step at a time."""
    hidden = hidden_size(params)
    h, c = np.zeros(hidden), np.zeros(hidden)
    n = states.shape[0]
    probs = np.empty((n, 2))
    values = np.empty(n)
    caches = []
    for t in range(n):
        h, c, cache = cell_step(params, states[t], h, c)
        caches.append(cache)
        probs[t] = _softmax2(params["wp"] @ h + params["bp"])
        values[t] = float((params["wv"] @ h)[0]) + params["bv"][0]
    return ScalarForward(probs, values, caches, (h, c))


def scalar_backward(params, forward, actions, q_targets, advantages, beta):
    """Exact reverse-mode gradient of one port's total loss, with an
    ``np.outer`` per step."""
    hidden = hidden_size(params)
    n = len(actions)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dh_next = np.zeros(hidden)
    dc_next = np.zeros(hidden)
    probs = forward.probs
    entropies = _entropy_rows(probs)
    inv_n = 1.0 / n

    for t in range(n - 1, -1, -1):
        pi = probs[t]
        one_hot = np.zeros(2)
        one_hot[actions[t]] = 1.0
        if pi[actions[t]] >= LOG_PROB_FLOOR:
            d_logits = -advantages[t] * inv_n * (one_hot - pi)
        else:
            d_logits = np.zeros(2)
        safe_log = np.log(np.maximum(pi, LOG_PROB_FLOOR))
        d_logits += beta * inv_n * pi * (safe_log + entropies[t])
        d_value = (forward.values[t] - q_targets[t]) * inv_n

        x, h_prev, c_prev, gi, gf, gc, go, tanh_c = forward.caches[t]
        h = go * tanh_c
        grads["wp"] += np.outer(d_logits, h)
        grads["bp"] += d_logits
        grads["wv"] += d_value * h[None, :]
        grads["bv"] += d_value

        dh = params["wp"].T @ d_logits + params["wv"][0] * d_value + dh_next
        dc = dh * go * (1.0 - tanh_c * tanh_c) + dc_next
        dz = np.concatenate([
            dc * gc * gi * (1.0 - gi),
            dc * c_prev * gf * (1.0 - gf),
            dc * gi * (1.0 - gc * gc),
            dh * tanh_c * go * (1.0 - go),
        ])
        grads["wx"] += np.outer(dz, x)
        grads["wh"] += np.outer(dz, h_prev)
        grads["b"] += dz
        dh_next = params["wh"].T @ dz
        dc_next = dc * gf
    return grads


def direct_loads(outcomes):
    """(start, load) at each charging start, in outcome order: the summed
    rate of every interval covering that instant, by direct sums."""
    served = [o for o in outcomes if o.scheduled and o.realized_minutes > 0]
    spans = [(o.start_minutes, o.start_minutes + o.realized_minutes, o.realized_rate_kw)
             for o in served]
    return [(start, sum(r for s, e, r in spans if s <= start + 1e-9 < e))
            for start, _end, _rate in spans]


def quadratic_feed_check(outcomes, dso_capacity_kw):
    """The feed-capacity audit, comparing every pair of intervals."""
    for start, load in direct_loads(outcomes):
        if load > dso_capacity_kw + 1e-6:
            raise SchedulerError(f"site load {load:.3f} kW exceeds feed capacity "
                                 f"{dso_capacity_kw} kW at t={start:.1f} min")
