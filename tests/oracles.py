"""Reference implementations the package is checked against.

Each is the straightforward code the package used before it was vectorised
or made cheaper: one port and one step at a time for the learner, one
single-row cell step per decision for the policy rule, the padded (P, T)
batched pass and whole-vector Adam that allocate their arrays on every call,
the package's own pass into new buffers on every call (:func:`forward_pass`),
the total loss that the finite-difference gradient checks differentiate, one
parameter tensor at a time for Adam and the gradient norm, one port at a
time for each training episode's draws, rewards, targets and losses, every
pair of intervals for the feed-capacity audit, one session at a time for the
state, the rate and ratio formulas, the session parser and the synthetic
generator, one port at a time for the rates, the rate ratio and the laxity
samples, one session and one start at a time for the ordering check, the
reward, the allocators and the replay they drive (:func:`scalar_replay`),
``strptime`` over four formats for timestamps, ``json.dumps`` over record
dicts for the session file and the outcome lines, the risk API that only
tests used, the location-scale density, the quadrature CDF, its quantile
bisection and the mirrored lower-tail CVaR the risk fit once used, the
student-t fit through scipy's Nelder-Mead (:func:`scipy_fit_student_t`) and
the student-t CDF as ``scipy.special.stdtr`` (:func:`scipy_standardized_cdf`).

:class:`ChargingSession` is the oracle parser's row, with the per-record
checks the package once made in its constructor.  The package keeps no row
type: :func:`rows` views a batch as these rows for the one-session-at-a-time
formulas, and ``helpers.batch_of`` builds a batch from them.

One departure is kept on purpose: ``strptime`` reads any Unicode decimal
digit and whitespace, while the package's stamp parser reads ASCII ones
only, so stamps with other digits or spaces are not checked against it.
"""

import enum
import heapq
import json
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from sys import float_info
from typing import NamedTuple

import numpy as np

import ramals.learner as learner
import ramals.mdp as mdp
from ramals.learner import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, LOG_PROB_FLOOR,
                            PARAM_KEYS, STATE_DIM, Coordinator, EpisodeBuffers, EpisodeLog,
                            LearnerError, SharedModel, hidden_size, init_params)
from ramals.mdp import DEFAULT_STEP_MINUTES, DURATION_NORM_MIN, ENERGY_NORM_KWH
from ramals.risk import (DEGENERATE_STD, DOF_BOUNDS, MIN_FIT_SAMPLES, SCALE_BOUNDS, RiskError,
                         StudentTFit, _sum_log_pdf, standardized_ppf)
from ramals.scheduler import ScheduleOutcome, SchedulerError
from ramals.sessions import (_LAST_STAMP, DEFAULT_RECEIVING_CAPACITY_KW, SessionBatch,
                             SessionError, _canonical_stamps, energy_ratios, time_ratios)

log = logging.getLogger(__name__)


class VehicleClass(enum.Enum):
    CV = "CV"
    AV = "AV"


@dataclass(frozen=True)
class ChargingSession:
    """One EV plug-in event.

    ``minutes_available`` is the charging window the vehicle asked for; the
    vehicle physically occupies the port from ``plug_in_time`` until
    ``unplug_time`` while energy flows only until ``charge_end_time``.
    """

    session_id: str
    evse_id: str
    vehicle_class: VehicleClass
    energy_requested_kwh: float
    minutes_available: float
    plug_in_time: datetime
    charge_end_time: datetime
    unplug_time: datetime
    energy_delivered_kwh: float
    receiving_capacity_kw: float = DEFAULT_RECEIVING_CAPACITY_KW

    def __post_init__(self):
        if not (self.plug_in_time <= self.charge_end_time <= self.unplug_time):
            raise SessionError(
                f"session {self.session_id!r}: timestamps must satisfy "
                "plug_in <= charge_end <= unplug, got "
                f"{self.plug_in_time} / {self.charge_end_time} / {self.unplug_time}")
        if self.energy_requested_kwh < 0:
            raise SessionError(f"session {self.session_id!r}: negative requested energy")
        if self.energy_delivered_kwh < 0:
            raise SessionError(f"session {self.session_id!r}: negative delivered energy")
        if self.minutes_available <= 0:
            raise SessionError(f"session {self.session_id!r}: minutes_available must be > 0")
        if self.receiving_capacity_kw <= 0:
            raise SessionError(f"session {self.session_id!r}: receiving capacity must be > 0")


def _datetime(stamp: int) -> datetime:
    day, minute = divmod(stamp, 1440)
    return datetime.fromordinal(day) + timedelta(minutes=minute)


def rows(batch) -> list[ChargingSession]:
    """The batch's sessions as rows, in batch order: port, then FCFS."""
    columns = (batch.port, batch.is_cv, batch.requested_kwh, batch.minutes_available,
               batch.plug_in, batch.charge_end, batch.unplug, batch.delivered_kwh,
               batch.receiving_kw)
    sessions = []
    for session_id, p, is_cv, *values in zip(batch.session_ids,
                                             *(column.tolist() for column in columns)):
        values[2:5] = map(_datetime, values[2:5])
        sessions.append(ChargingSession(session_id, batch.evse_ids[p],
                                        VehicleClass.CV if is_cv else VehicleClass.AV, *values))
    return sessions


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


def _lookup(record: dict, key: str):
    """Resolve a schema field, applying the ACN alias map."""
    if key in record:
        return record[key]
    aliases = {"evseID": ("stationID", "spaceID"), "sessionID": ("_id",)}
    for alias in aliases.get(key, ()):
        if alias in record:
            return record[alias]
    if key in ("kWhRequested", "minutesAvailable"):
        inputs = record.get("userInputs")
        if isinstance(inputs, list) and inputs and isinstance(inputs[0], dict):
            if key in inputs[0]:
                return inputs[0][key]
    return None


def _finite(value, key: str, session_id) -> float:
    if type(value) is float:
        if math.isfinite(value):
            return value
    elif type(value) is not int:
        raise SessionError(f"session {session_id!r}: field {key!r} must be a number, "
                           f"got {value!r}")
    elif -float_info.max <= value <= float_info.max:
        return float(value)
    raise SessionError(f"session {session_id!r}: field {key!r} must be finite, got {value!r}")


def parse_sessions(json_bytes) -> list[ChargingSession]:
    """Every record through the alias map and the row checks, in file
    order, one :class:`ChargingSession` each."""
    try:
        payload = json.loads(json_bytes)
    except json.JSONDecodeError as exc:
        raise SessionError(f"malformed session JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise SessionError("session JSON must be a top-level array")

    sessions = []
    first_index: dict[str, int] = {}
    for idx, record in enumerate(payload):
        if not isinstance(record, dict):
            raise SessionError(f"record #{idx}: expected an object")
        session_id = _lookup(record, "sessionID") or f"record-{idx}"
        first = first_index.setdefault(str(session_id), idx)
        if first != idx:
            raise SessionError(f"session {session_id!r}: duplicate id in records "
                               f"#{first} and #{idx}")
        mandatory = ("evseID", "kWhRequested", "minutesAvailable", "connectionTime",
                     "doneChargingTime", "disconnectTime", "kWhDelivered")
        values = {}
        for key in mandatory:
            value = _lookup(record, key)
            if value is None:
                raise SessionError(f"session {session_id!r}: missing mandatory field {key!r}")
            values[key] = value

        raw_class = _lookup(record, "vehicleClass")
        if raw_class is None:
            log.warning("session %r: no vehicleClass, assuming CV", session_id)
            vehicle_class = VehicleClass.CV
        else:
            try:
                vehicle_class = VehicleClass(str(raw_class).upper())
            except ValueError as exc:
                raise SessionError(
                    f"session {session_id!r}: vehicleClass must be CV or AV") from exc

        receiving = _lookup(record, "receivingCapacityKW")
        requested = _finite(values["kWhRequested"], "kWhRequested", session_id)
        available = _finite(values["minutesAvailable"], "minutesAvailable", session_id)
        delivered = _finite(values["kWhDelivered"], "kWhDelivered", session_id)
        capacity = DEFAULT_RECEIVING_CAPACITY_KW if receiving is None \
            else _finite(receiving, "receivingCapacityKW", session_id)
        session = ChargingSession(
            session_id=str(session_id),
            evse_id=str(values["evseID"]),
            vehicle_class=vehicle_class,
            energy_requested_kwh=requested,
            minutes_available=available,
            plug_in_time=_parse_timestamp(values["connectionTime"], "connectionTime", session_id),
            charge_end_time=_parse_timestamp(values["doneChargingTime"], "doneChargingTime",
                                             session_id),
            unplug_time=_parse_timestamp(values["disconnectTime"], "disconnectTime", session_id),
            energy_delivered_kwh=delivered,
            receiving_capacity_kw=capacity,
        )
        sessions.append(session)
    return sessions


def _minutes(start: datetime, end: datetime) -> float:
    return (end - start).total_seconds() / 60.0


def left_sum(values):
    """0 + v0 + v1 + ..., one addition at a time: the builtin sum of floats
    up to Python 3.11, which later versions compensate."""
    total = 0
    for value in values:
        total += value
    return total


def demand_rate_kw(sessions) -> float:
    """Total kWh asked over total minutes asked, in kW."""
    sessions = list(sessions)
    if not sessions:
        raise SessionError("demand rate needs at least one session")
    total_minutes = left_sum(s.minutes_available for s in sessions)
    if total_minutes <= 0:
        raise SessionError("demand rate undefined: zero total requested minutes")
    return left_sum(s.energy_requested_kwh for s in sessions) / total_minutes * 60.0


def delivery_rate_kw(sessions) -> float:
    """Total kWh delivered over total recorded charging minutes, in kW."""
    sessions = list(sessions)
    if not sessions:
        raise SessionError("delivery rate needs at least one session")
    total_minutes = left_sum(_minutes(s.plug_in_time, s.charge_end_time) for s in sessions)
    if total_minutes <= 0:
        raise SessionError("delivery rate undefined: zero total charging minutes")
    return left_sum(s.energy_delivered_kwh for s in sessions) / total_minutes * 60.0


def rate_ratio(sessions) -> float:
    demand = demand_rate_kw(sessions)
    if demand <= 0:
        raise SessionError("rate ratio undefined: zero demand rate")
    return delivery_rate_kw(sessions) / demand


def _mean_rate(energy: np.ndarray, minutes: np.ndarray, name: str, kind: str) -> float:
    # left to right, as the outputs were pinned with
    if not len(minutes):
        raise SessionError(f"{name} rate needs at least one session")
    total_minutes = left_sum(minutes.tolist())
    if total_minutes <= 0:
        raise SessionError(f"{name} rate undefined: zero total {kind} minutes")
    return left_sum(energy.tolist()) / total_minutes * 60.0


def port_demand_rate_kw(batch: SessionBatch, rows: slice = slice(None)) -> float:
    """Average requested energy rate of the sessions in ``rows``: total kWh
    asked over total minutes asked, in kW."""
    return _mean_rate(batch.requested_kwh[rows], batch.minutes_available[rows],
                      "demand", "requested")


def port_delivery_rate_kw(batch: SessionBatch, rows: slice = slice(None)) -> float:
    """Average delivered energy rate of the sessions in ``rows`` over their
    recorded charging windows, in kW."""
    return _mean_rate(batch.delivered_kwh[rows],
                      (batch.charge_end[rows] - batch.plug_in[rows]).astype(float),
                      "delivery", "charging")


def port_rate_ratio(batch: SessionBatch, rows: slice = slice(None)) -> float:
    """Delivered over requested rate. Equals 1 exactly when the rates match."""
    demand = port_demand_rate_kw(batch, rows)
    if demand <= 0:
        raise SessionError("rate ratio undefined: zero demand rate")
    return port_delivery_rate_kw(batch, rows) / demand


def laxity_samples(batch: SessionBatch) -> np.ndarray:
    """One laxity observation per session, in hours and non-negative, with
    grouped rates computed per EVSE."""
    samples = np.empty(len(batch))
    for evse_id, rows in zip(batch.evse_ids, batch.slices):
        lam_req = port_demand_rate_kw(batch, rows)
        lam_act = port_delivery_rate_kw(batch, rows)
        if lam_req <= 0 or lam_act <= 0:
            raise RiskError(f"EVSE {evse_id!r}: rates must be positive for laxity")
        samples[rows] = np.abs(batch.requested_kwh[rows] / lam_req
                               - batch.delivered_kwh[rows] / lam_act)
    return samples


def time_ratio(session) -> float:
    plugged = _minutes(session.plug_in_time, session.unplug_time)
    if plugged <= 0:
        raise SessionError(f"session {session.session_id!r}: zero plugged-in duration")
    return _minutes(session.plug_in_time, session.charge_end_time) / plugged


def energy_ratio(session) -> float:
    if session.energy_requested_kwh <= 0:
        raise SessionError(f"session {session.session_id!r}: zero requested energy")
    return session.energy_delivered_kwh / session.energy_requested_kwh


def session_record(session) -> dict:
    """Canonical JSON-ready record of one session; ``strftime`` writes a year
    before 1000 unpadded on glibc."""
    return {
        "sessionID": session.session_id,
        "evseID": session.evse_id,
        "vehicleClass": session.vehicle_class.value,
        "kWhRequested": session.energy_requested_kwh,
        "minutesAvailable": session.minutes_available,
        "connectionTime": session.plug_in_time.strftime("%Y-%m-%dT%H:%M"),
        "doneChargingTime": session.charge_end_time.strftime("%Y-%m-%dT%H:%M"),
        "disconnectTime": session.unplug_time.strftime("%Y-%m-%dT%H:%M"),
        "kWhDelivered": session.energy_delivered_kwh,
        "receivingCapacityKW": session.receiving_capacity_kw,
    }


def session_json_bytes(batch) -> bytes:
    records = [session_record(s) for s in rows(batch)]
    return (json.dumps(records, indent=1, sort_keys=True) + "\n").encode()


def generate_synthetic(config, seed: int):
    """The synthetic batch drawn one session at a time, each draw through
    ``Generator.exponential`` or ``Generator.uniform``, with Python ints for
    the clocks."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    clocks = _canonical_stamps([config.start]).tolist() * config.n_evses
    rows = []
    try:
        for i in range(config.n_sessions):
            evse_idx = i % config.n_evses
            gap = max(1, int(round(rng.exponential(config.mean_gap_minutes))))
            arrival = clocks[evse_idx] = clocks[evse_idx] + gap

            energy = rng.uniform(*config.energy_kwh_range)
            rate = rng.uniform(*config.rate_kw_range)
            actual_minutes = max(1, int(round(energy / rate * 60.0)))
            is_cv = rng.random() < config.cv_fraction

            if is_cv:
                requested = energy * rng.uniform(*config.energy_inflation)
                window = max(actual_minutes,
                             int(round(actual_minutes * rng.uniform(*config.time_inflation))))
            else:
                requested = energy
                window = actual_minutes
            rows.append((f"S{i:06d}", f"{config.evse_prefix}-{evse_idx + 1}", is_cv,
                         float(requested), float(window), arrival, arrival + actual_minutes,
                         arrival + window, float(energy), config.receiving_capacity_kw))
        batch = SessionBatch(columns=list(zip(*rows)))
    except OverflowError:
        raise SessionError("session clocks overflow: mean_gap_minutes, energy_kwh_range, "
                           "rate_kw_range and time_inflation set them") from None
    if batch.unplug.max() > _LAST_STAMP:
        raise SessionError(f"sessions from start {config.start!r} run past 9999-12-31T23:59, "
                           "the last stamp a session file holds; start earlier or shrink "
                           "mean_gap_minutes")
    return batch


def outcome_json_line(outcome) -> str:
    return json.dumps({
        "session_id": outcome.session_id,
        "evse_id": outcome.evse_id,
        "scheduled": outcome.scheduled,
        "voided": outcome.voided,
        "allocated_kwh": outcome.allocated_energy_kwh,
        "allocated_kw": outcome.realized_rate_kw,
        "allocated_min": outcome.allocated_minutes,
        "realized_kwh": outcome.realized_energy_kwh,
        "realized_kw": outcome.realized_rate_kw,
        "realized_min": outcome.realized_minutes,
        "wait_min": outcome.wait_minutes,
        "reward": outcome.reward,
    }, sort_keys=True)


def outcomes_json_dumps(outcomes) -> str:
    """One json.dumps line per outcome, each ending in a newline; no outcomes
    give an empty file."""
    return "".join(outcome_json_line(o) + "\n" for o in outcomes)


def _minutes_since_midnight(ts) -> float:
    return ts.hour * 60.0 + ts.minute


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


def scipy_fit_student_t(samples) -> StudentTFit:
    """Maximum-likelihood student-t fit via a derivative-free simplex.

    Starts from moment estimates (sample mean, sample stddev, dof = count-1),
    plus a small grid of low-dof starts because the likelihood ridge is nearly
    flat in dof once the fit is effectively normal.  Near-equal optima are
    resolved in favour of the lowest dof.
    """
    from scipy import optimize

    d = np.asarray(samples, dtype=float)
    if d.size < MIN_FIT_SAMPLES:
        raise RiskError(f"student-t fit needs at least {MIN_FIT_SAMPLES} samples, got {d.size}")
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
    return StudentTFit(dof=dof, location=location, scale=scale)


def ppf(fit, alpha: float) -> float:
    """Quantile of the fitted distribution, from the package's standardized one."""
    xi = standardized_ppf(alpha, fit.dof)
    return fit.location + fit.scale * xi


def student_t_pdf(d, dof: float, location: float, scale: float):
    """Location-scale student-t density, the package's former one."""
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


def quadrature_cdf(x: float, dof: float) -> float:
    """CDF of the standardized density by adaptive quadrature from the median,
    independent of scipy's special functions."""
    if x == 0.0:
        return 0.5
    from scipy import integrate

    lo, hi = (x, 0.0) if x < 0 else (0.0, x)
    area, _ = integrate.quad(lambda t: student_t_pdf(t, dof, 0.0, 1.0), lo, hi,
                             epsabs=1e-10, epsrel=1e-10, limit=200)
    return 0.5 - area if x < 0 else 0.5 + area


def scipy_standardized_cdf(x: float, dof: float) -> float:
    """CDF of the standardized density."""
    if dof <= 0:
        raise RiskError("dof must be positive")
    from scipy import special

    return float(special.stdtr(dof, x))


def bisection_ppf(alpha: float, dof: float, cdf=quadrature_cdf) -> float:
    """The package's quantile bisection, stopping rule included, run on
    ``cdf``: :func:`quadrature_cdf`, or :func:`scipy_standardized_cdf` for
    the bisection the package ran on scipy's CDF."""
    if alpha == 0.5:
        return 0.0
    lo, hi = -1.0, 1.0
    while cdf(lo, dof) > alpha:
        lo *= 2.0
    while cdf(hi, dof) < alpha:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        c = cdf(mid, dof)
        if abs(c - alpha) <= 1e-9:
            return mid
        if c < alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def lower_tail_cvar(fit, alpha: float, xi: float) -> float:
    """Negated mean of the lower ``alpha`` tail below the standardized cutoff
    ``xi``: the package's former ``cvar_closed_form(..., variant="standard")``."""
    density = student_t_pdf(xi, fit.dof, 0.0, 1.0)
    tail = (fit.dof + xi * xi) / (fit.dof - 1.0) * density / alpha
    return fit.scale * tail - fit.location


def mirrored_upper_tail_cvar(fit, alpha: float, xi_upper: float) -> float:
    """The upper tail beyond ``xi_upper`` through the lower tail it mirrors,
    as the package once computed it."""
    return lower_tail_cvar(fit, 1.0 - alpha, -xi_upper) + 2.0 * fit.location


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


def policy_value_step(params: dict, z_row: np.ndarray, carry: tuple):
    """Single decision step: (P(schedule), value, new carry).

    ``z_row`` is the session's row of its port's input projection
    ``states @ wx.T + b``, computed once per port; it is left unchanged.
    """
    h, c = carry
    c, h = _allocating_cell_rows(params["wh"], z_row.copy(), h, c)
    p_schedule = float(_softmax2(params["wp"] @ h + params["bp"])[0])
    value = float(params["wv"][0] @ h) + float(params["bv"][0])
    # both probabilities are finite or neither is
    if not (math.isfinite(p_schedule) and math.isfinite(value)):
        raise LearnerError("non-finite policy or value output")
    return p_schedule, value, (h, c)


class PerDecisionRule:
    """Argmax policy pick, then the demand-supply ordering check.

    Every port's input projection ``states @ wx.T + b`` is set up when the
    rule is built, from the batch's state rows ``states``, and every port's
    carry starts at zero; each decision then steps the cell on one row.
    """

    def __init__(self, model: learner.SharedModel, ports, states):
        ports = list(ports)
        self.params = params = model.coordinator.params
        z = np.empty((len(states), params["wx"].shape[0]))
        self._rows, self._carries, start = {}, {}, 0
        hidden = model.hidden
        for port in ports:
            stop = start + len(port.session_ids)
            np.matmul(states[start:stop], params["wx"].T, out=z[start:stop])
            z[start:stop] += params["b"]
            self._rows[port.evse_id] = z[start:stop]
            self._carries[port.evse_id] = (np.zeros(hidden), np.zeros(hidden))
            start = stop

    def decide(self, port: "PortSessions", i: int) -> int:
        evse_id = port.evse_id
        p_schedule, _value, self._carries[evse_id] = policy_value_step(
            self.params, self._rows[evse_id][i], self._carries[evse_id])
        schedule_now = 1 if p_schedule >= 0.5 else 0  # a tie schedules
        return 1 if port.ordering_holds(i, schedule_now) else 0


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
    entropies = entropy_rows(probs)
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


def _batched_sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.reciprocal(1.0 + np.exp(-x), out=out)


def _batched_softmax2(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _allocating_cell_rows(wh, z, h_prev, c_prev):
    """One cell step for one row or a stack of rows: ``z`` holds each row's
    input projection ``x @ wx.T + b`` on entry and its activated gates
    ``[i, f, g, o]`` on return.  Returns the new (cell, hidden) state."""
    hidden = h_prev.shape[-1]
    z += h_prev @ wh.T
    gi, gf = z[..., :hidden], z[..., hidden:2 * hidden]
    gc, go = z[..., 2 * hidden:3 * hidden], z[..., 3 * hidden:]
    _batched_sigmoid(z[..., :2 * hidden], out=z[..., :2 * hidden])
    np.tanh(gc, out=gc)
    _batched_sigmoid(go, out=go)
    c = gf * c_prev + gi * gc
    return c, go * np.tanh(c)


def entropy_rows(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy, in nats, of each row of two-way action probabilities,
    each log taken of the probability floored at ``LOG_PROB_FLOOR``."""
    safe = np.maximum(probs, LOG_PROB_FLOOR)
    return -np.sum(probs * np.log(safe), axis=-1)


def forward_pass(params, states, lengths=None) -> EpisodeBuffers:
    """The package's forward pass over ``states``, in new buffers of their
    shape and the ports' ``lengths`` (by default, every step of every port):
    the pass that allocates its arrays on every call."""
    states = np.asarray(states, dtype=float)
    if lengths is None and states.ndim == 3:
        lengths = np.full(states.shape[0], states.shape[1])
    buffers = EpisodeBuffers(states, lengths, hidden_size(params))
    learner.forward_episode(params, buffers)
    return buffers


@dataclass
class EpisodeBatch:
    """The oracles' record of one episode of P ports, padded to T steps:
    everything the backward pass reads besides the forward pass; entries past
    a port's length are ignored."""

    states: np.ndarray       # (P, T, 6)
    lengths: np.ndarray      # (P,) steps of each port
    actions: np.ndarray      # (P, T) indices into the 2-way distribution
    q_targets: np.ndarray    # (P, T) constants
    advantages: np.ndarray   # (P, T) constants
    beta: float

    @classmethod
    def of(cls, buffers: EpisodeBuffers, beta: float) -> "EpisodeBatch":
        """A copy of the episode the package's ``buffers`` hold."""
        return cls(*(getattr(buffers, name).copy() for name in (
            "states", "lengths", "actions", "q_targets", "advantages")), beta)

    def write(self, buffers: EpisodeBuffers) -> EpisodeBuffers:
        """Copy this episode's actions, targets and advantages into
        ``buffers``, as the training loop writes them; returns ``buffers``."""
        for name in ("actions", "q_targets", "advantages"):
            getattr(buffers, name)[...] = getattr(self, name)
        return buffers

    def buffers(self, params) -> EpisodeBuffers:
        """The package's pass over this episode, in new buffers."""
        return self.write(forward_pass(params, self.states, self.lengths))


@dataclass
class PaddedForward:
    """A forward pass over P ports of T steps as port-major arrays; steps
    past a port's length are computed but never read."""

    probs: np.ndarray        # (P, T, 2)
    values: np.ndarray       # (P, T)
    hiddens: np.ndarray      # (P, T + 1, H); step 0 is the zero start carry
    cells: np.ndarray        # (P, T + 1, H)
    gates: np.ndarray        # (P, T, 4H) activated [i, f, g, o]

    @classmethod
    def of(cls, buffers: EpisodeBuffers) -> "PaddedForward":
        """The pass in ``buffers``, its time-major arrays as (P, ·) views, and
        its gates as a copy whose g slot, scratch in the buffers, is
        ``tanh g``, the negation of the ``-tanh g`` their pairs hold."""
        hidden = buffers.hiddens.shape[2]
        gates = buffers.gates.transpose(1, 0, 2).copy()
        gates[..., 2 * hidden:3 * hidden] = -buffers.pairs[:-1, 0].transpose(1, 0, 2)
        return cls(buffers.probs, buffers.values, *(array.transpose(1, 0, 2) for array in (
            buffers.hiddens, buffers.cells)), gates)

    def write(self, buffers: EpisodeBuffers) -> None:
        """Copy this pass into ``buffers``, as ``forward_episode`` writes one:
        the g slot's ``tanh g`` goes to the first block of the pairs too, as
        ``-tanh g``."""
        buffers.probs[...], buffers.values[...] = self.probs, self.values
        for name in ("hiddens", "cells", "gates"):
            getattr(buffers, name).transpose(1, 0, 2)[...] = getattr(self, name)
        hidden = self.hiddens.shape[2]
        buffers.pairs[:-1, 0] = -self.gates[..., 2 * hidden:3 * hidden].transpose(1, 0, 2)


def padded_forward_episode(params, states) -> PaddedForward:
    """The batched forward pass over fresh port-major (P, T, ·) arrays, each
    step's product and state in new temporaries."""
    states = np.asarray(states, dtype=float)
    if states.ndim != 3 or states.shape[2] != STATE_DIM:
        raise LearnerError(f"states must be a (ports, steps, {STATE_DIM}) array")
    n_ports, n_steps, _ = states.shape
    hiddens = np.zeros((n_ports, n_steps + 1, hidden_size(params)))
    cells = np.zeros_like(hiddens)
    gates = states @ params["wx"].T  # the input projection, hoisted
    gates += params["b"]
    for t in range(n_steps):
        cells[:, t + 1], hiddens[:, t + 1] = _allocating_cell_rows(
            params["wh"], gates[:, t], hiddens[:, t], cells[:, t])
    probs = _batched_softmax2(hiddens[:, 1:] @ params["wp"].T + params["bp"])
    values = hiddens[:, 1:] @ params["wv"][0] + params["bv"][0]
    if not (np.all(np.isfinite(probs)) and np.all(np.isfinite(values))):
        raise LearnerError("non-finite output in episode forward pass")
    return PaddedForward(probs, values, hiddens, cells, gates)


def padded_backward(params, forward, batch):
    """The batched backward pass over port-major (P, T, ·) arrays: one flat
    gradient row per port, its temporaries allocated on every call."""
    n_ports, n_steps = batch.actions.shape
    hidden = hidden_size(params)
    mask = np.arange(n_steps) < batch.lengths[:, None]
    inv_n = 1.0 / batch.lengths[:, None]
    probs = forward.probs
    one_hot = np.eye(2)[batch.actions]
    taken = np.sum(probs * one_hot, axis=-1)
    policy_weight = np.where(taken >= LOG_PROB_FLOOR, -batch.advantages * inv_n, 0.0)
    d_logits = policy_weight[..., None] * (one_hot - probs)
    safe_log = np.log(np.maximum(probs, LOG_PROB_FLOOR))
    d_logits += (batch.beta * inv_n)[..., None] * probs \
        * (safe_log + entropy_rows(probs)[..., None])
    d_logits *= mask[..., None]
    d_value = (forward.values - batch.q_targets) * inv_n * mask

    gates = forward.gates.reshape(n_ports, n_steps, 4, hidden)
    gi, gf, gc, go = (gates[:, :, k] for k in range(4))
    tanh_c = np.tanh(forward.cells[:, 1:])
    local = 1.0 - gates
    local *= gates
    local[:, :, 2] = 1.0 - gc * gc
    for k, partner in enumerate((gc, forward.cells[:, :-1], gi, tanh_c)):
        local[:, :, k] *= partner
    dh_to_dc = go * (1.0 - tanh_c * tanh_c)
    dh_heads = d_logits @ params["wp"] + d_value[..., None] * params["wv"][0]
    dh_next = dc_next = np.zeros((n_ports, hidden))
    for t in range(n_steps - 1, -1, -1):
        dh = dh_heads[:, t] + dh_next
        dc = dh * dh_to_dc[:, t] + dc_next
        local[:, t, :3] *= dc[:, None]
        local[:, t, 3] *= dh
        dh_next = local[:, t].reshape(n_ports, 4 * hidden) @ params["wh"]
        dc_next = dc * gf[:, t]

    dz = local.reshape(n_ports, n_steps, 4 * hidden)
    outputs = forward.hiddens[:, 1:]
    grads = np.concatenate([grad.reshape(n_ports, -1) for grad in (  # PARAM_KEYS order
        dz.transpose(0, 2, 1) @ batch.states,
        dz.transpose(0, 2, 1) @ forward.hiddens[:, :-1],
        dz.sum(axis=1),
        d_logits.transpose(0, 2, 1) @ outputs,
        d_logits.sum(axis=1),
        d_value[:, None, :] @ outputs,
        d_value.sum(axis=1),
    )], axis=1)
    if not np.all(np.isfinite(grads)):
        raise LearnerError("non-finite gradient")
    return grads


class FlatAdam:
    """Adam over one flat parameter vector, each step's terms in new
    temporaries."""

    def __init__(self, flat):
        self.flat = np.array(flat, dtype=float)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.step = 0

    def apply_update(self, delta, learning_rate):
        self.step += 1
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * delta
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * delta * delta
        m_hat = self.m / (1.0 - ADAM_BETA1 ** self.step)
        v_hat = self.v / (1.0 - ADAM_BETA2 ** self.step)
        self.flat -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def flatten(tensors):
    """One vector of a dict of tensors, in ``PARAM_KEYS`` order."""
    return np.concatenate([np.ravel(tensors[key]) for key in PARAM_KEYS])


def keyed_grad_norm(grads):
    """Euclidean norm over every gradient component, summed tensor by tensor."""
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def keyed_clipped_delta(grads, clip_threshold):
    """Global norm clipping of a dict of gradient tensors."""
    norm = keyed_grad_norm(grads)
    scale = min(1.0, clip_threshold / norm) if norm > 0 else 1.0
    return {k: g * scale for k, g in grads.items()}


def episode_rewards(port: "PortSessions", actions: np.ndarray, risk: float) -> np.ndarray:
    """Each step's reward; action 0 schedules."""
    return np.array([port.reward(t, 1 if action == 0 else 0, risk)
                     for t, action in enumerate(actions)])


def bootstrap_targets(rewards: np.ndarray, values: np.ndarray, gamma: float):
    """One port's one-step targets q_t = r_t + gamma * V(s_{t+1}) with
    terminal value 0, and the advantages q - V."""
    next_values = np.append(values[1:], 0.0)
    q = rewards + gamma * next_values
    return q, q - values


def value_loss(q_targets, values) -> float:
    """Half mean squared bootstrap residual."""
    q = np.asarray(q_targets, dtype=float)
    v = np.asarray(values, dtype=float)
    if q.size == 0:
        raise LearnerError("value loss needs a non-empty batch")
    return float(0.5 * np.mean((q - v) ** 2))


def policy_loss(advantages, taken_probs) -> float:
    """Negative advantage-weighted log probability of the taken actions; the
    clamp warning goes to the package's logger, as the package's does."""
    adv = np.asarray(advantages, dtype=float)
    p = np.asarray(taken_probs, dtype=float)
    if p.size == 0:
        raise LearnerError("policy loss needs a non-empty batch")
    if np.any(p < LOG_PROB_FLOOR):
        learner.log.warning("policy probability below %.0e clamped in log", LOG_PROB_FLOOR)
    return float(-np.mean(adv * np.log(np.maximum(p, LOG_PROB_FLOOR))))


def total_loss(value: float, policy: float, entropy_mean: float, beta: float) -> float:
    """Overall self-learning loss: value + policy - beta * entropy, the loss
    whose gradient ``backward`` returns."""
    return value + policy - beta * entropy_mean


def episode_losses(batch: EpisodeBatch, forward) -> list[tuple]:
    """(value, policy, entropy) loss of each port, in port order, one port's
    slices at a time, from the port-major ``probs`` and ``values`` of
    ``forward``: an :class:`EpisodeBuffers` or a :class:`PaddedForward`."""
    losses = []
    for p, n in enumerate(batch.lengths):
        probs = forward.probs[p, :n]
        taken = probs[np.arange(n), batch.actions[p, :n]]
        v_loss = value_loss(batch.q_targets[p, :n], forward.values[p, :n])
        p_loss = policy_loss(batch.advantages[p, :n], taken)
        entropy_mean = float(np.mean(entropy_rows(probs)))
        losses.append((v_loss, p_loss, entropy_mean))
    return losses


def train(batch, site_config, config, risk_value, initial_model=None):
    """The training loop with the per-port draws, rewards and targets of each
    episode, and a fresh parameter copy and fresh buffers per episode; the
    passes, their losses, clipping and Adam are the package's, looked up on
    its module and class."""
    if len(batch) == 0:
        raise LearnerError("training needs a non-empty batch")
    known = set(site_config.evse_ids)
    missing = [e for e in batch.evse_ids if e not in known]
    if missing:
        raise LearnerError(f"batch references EVSEs absent from site config: {missing}")

    if not 0.0 <= risk_value < 1.0:
        raise LearnerError("risk value must lie in [0, 1)")

    ports = port_sessions(batch)

    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    if initial_model is not None:
        if initial_model.hidden != config.hidden:
            raise LearnerError("resume model hidden width does not match config")
        coordinator = initial_model.coordinator
    else:
        coordinator = Coordinator(init_params(config.hidden, rng))
    lengths = np.array([len(port.session_ids) for port in ports])
    rows = mdp.state_matrix(batch)
    states = np.zeros((len(ports), lengths.max(), STATE_DIM))
    for p, port_rows in enumerate(batch.slices):
        states[p, :lengths[p]] = rows[port_rows]

    logs = []
    start_episode = initial_model.train_episodes if initial_model is not None else 0
    for episode in range(start_episode, start_episode + config.episodes):
        params = learner._views(coordinator.flat.copy(), config.hidden)
        buffers = forward_pass(params, states, lengths)
        # the new buffers' zeros, written one port's steps at a time
        actions, q_targets, advantages = buffers.actions, buffers.q_targets, buffers.advantages
        ep_reward = 0.0
        for p, port in enumerate(ports):
            n = lengths[p]
            draws = rng.random(n)
            actions[p, :n] = draws >= buffers.probs[p, :n, 0]  # 0 = schedule
            rewards = episode_rewards(port, actions[p, :n], risk_value)
            q_targets[p, :n], advantages[p, :n] = bootstrap_targets(
                rewards, buffers.values[p, :n], config.gamma)
            ep_reward += float(np.sum(rewards))
        for grads in learner.backward(params, buffers, config.beta):
            coordinator.apply_update(learner.clipped_delta(grads, config.clip_threshold),
                                     config.learning_rate)
        v_losses, p_losses, entropies = zip(*buffers.losses)
        logs.append(EpisodeLog(episode + 1, ep_reward, float(np.mean(v_losses)),
                               float(np.mean(p_losses)), float(np.mean(entropies))))

    model = SharedModel(risk_value=float(risk_value), coordinator=coordinator,
                        train_episodes=start_episode + config.episodes)
    return model, logs


class KeyedAdam:
    """Adam over a dict of parameter tensors, one tensor at a time."""

    def __init__(self, params, learning_rate):
        self.params = {k: v.copy() for k, v in params.items()}
        self.learning_rate = learning_rate
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.step = 0

    def apply_update(self, delta):
        self.step += 1
        b1c = 1.0 - ADAM_BETA1 ** self.step
        b2c = 1.0 - ADAM_BETA2 ** self.step
        for key in PARAM_KEYS:
            g = delta[key]
            self.m[key] = ADAM_BETA1 * self.m[key] + (1.0 - ADAM_BETA1) * g
            self.v[key] = ADAM_BETA2 * self.v[key] + (1.0 - ADAM_BETA2) * g * g
            m_hat = self.m[key] / b1c
            v_hat = self.v[key] / b2c
            self.params[key] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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


# --- the scalar decision layer: one session and one start at a time --------

def _index(upsilon: float, schedule_now: int) -> float:
    return upsilon if schedule_now == 1 else 1.0 - upsilon


def ordering_holds(upsilon_head: float, upsilon_next: float | None,
                   schedule_now: int) -> bool:
    """Demand-supply ordering between the head session and the next queued
    one: their energy ratios when scheduling, their complements when
    queueing; vacuous with no next session."""
    if upsilon_next is None:
        return True
    return _index(upsilon_head, schedule_now) >= _index(upsilon_next, schedule_now)


def session_reward(rate_ratio_value: float, time_ratio_value: float, risk: float,
                   ordered: bool) -> float:
    """Zero unless ordered; a unit rate ratio earns the bonus branch, any
    other non-zero ratio the plain product, everything else zero."""
    if not ordered:
        return 0.0
    if rate_ratio_value == 1.0:
        return 1.0 + rate_ratio_value * time_ratio_value * (1.0 - risk)
    if rate_ratio_value != 0.0:
        return rate_ratio_value * time_ratio_value * (1.0 - risk)
    return 0.0


@dataclass(frozen=True)
class PortSessions:
    """One port's decision inputs as plain Python values in FCFS order;
    ``upsilons`` ends with ``None`` for the last session's missing
    successor."""

    evse_id: str
    session_ids: list
    requested_kwh: list
    minutes_available: list
    delivered_kwh: list
    receiving_kw: list
    charge_minutes: list
    upsilons: tuple
    rhos: list
    zeta: float

    def ordering_holds(self, i: int, schedule_now: int) -> bool:
        return ordering_holds(self.upsilons[i], self.upsilons[i + 1], schedule_now)

    def reward(self, i: int, schedule_now: int, risk: float) -> float:
        return session_reward(self.zeta, self.rhos[i], risk,
                              self.ordering_holds(i, schedule_now))


def port_sessions(batch) -> list[PortSessions]:
    """Each port's decision inputs, in the batch's port order: the time and
    energy ratios from the package's batch formulas, and the rate ratio from
    :func:`port_rate_ratio`, one port's sums at a time.  A zero request
    counts with energy ratio 0, and a port whose rate ratio is undefined with
    rate ratio 0.  Both warn on the package's logger, as the package does."""
    for i in np.flatnonzero(batch.requested_kwh <= 0).tolist():
        mdp.log.warning("session %r: zero requested energy, demand-supply index forced to 0",
                        batch.session_ids[i])
    columns = (batch.requested_kwh, batch.minutes_available, batch.delivered_kwh,
               batch.receiving_kw, (batch.charge_end - batch.plug_in).astype(float),
               time_ratios(batch), energy_ratios(batch))
    ports = []
    for evse_id, port_rows in zip(batch.evse_ids, batch.slices):
        try:
            zeta = port_rate_ratio(batch, port_rows)
        except SessionError:
            mdp.log.warning("EVSE %r: rate ratio undefined, reward ratio forced to 0", evse_id)
            zeta = 0.0
        *fields, rhos, upsilons = (column[port_rows].tolist() for column in columns)
        ports.append(PortSessions(evse_id, batch.session_ids[port_rows], *fields,
                                  (*upsilons, None), rhos, zeta))
    return ports


def _rate(port: PortSessions, i: int, evse) -> float:
    cap = min(evse.supply_capacity_kw, port.receiving_kw[i])
    minutes = port.charge_minutes[i]
    implied = port.delivered_kwh[i] / minutes * 60.0 if minutes > 0 else 0.0
    return min(implied, cap) if implied > 0 else cap


class SessionAllocation(NamedTuple):
    """One session's charging plan: its row of :class:`ramals.mdp.Allocation`."""

    energy_kwh: float
    rate_kw: float
    charge_minutes: float
    occupy_minutes: float
    allocated_energy_kwh: float
    allocated_minutes: float


def rational_allocation(port: PortSessions, i: int, evse) -> SessionAllocation:
    """Session ``i``'s actual need at its capped recorded rate, inside its
    requested window; a zero request is served instantly."""
    rate = _rate(port, i, evse)
    requested, available = port.requested_kwh[i], port.minutes_available[i]
    if requested <= 0:
        return SessionAllocation(0.0, rate, 0.0, evse.switching_minutes, 0.0,
                                 evse.switching_minutes)
    window = min(available, requested / rate * 60.0)
    energy = min(port.delivered_kwh[i], rate * window / 60.0)
    charge_minutes = energy / rate * 60.0
    return SessionAllocation(energy, rate, charge_minutes,
                             charge_minutes + evse.switching_minutes,
                             min(requested, rate * window / 60.0),
                             window + evse.switching_minutes)


def as_requested_allocation(port: PortSessions, i: int, evse) -> SessionAllocation:
    """Session ``i``'s request granted verbatim: the port stays blocked for
    the whole requested window."""
    rate = _rate(port, i, evse)
    available = port.minutes_available[i]
    energy = min(port.delivered_kwh[i], rate * available / 60.0)
    charge_minutes = energy / rate * 60.0 if rate > 0 else 0.0
    return SessionAllocation(energy, rate, charge_minutes, max(available, charge_minutes),
                             port.requested_kwh[i], available)


class ForcedRule:
    """Always schedules."""

    def decide(self, port: PortSessions, i: int) -> int:
        return 1


class PortQueue:
    """One port's FCFS queue over its own lists, indexed within the port:
    ``present`` voids expired heads into ``voided`` as (index, clock, wait),
    and ``transition`` acts on the head and returns its (clock, wait)."""

    def __init__(self, port: PortSessions, evse, arrivals: list, step_minutes: float):
        self.port, self.evse, self.arrivals = port, evse, arrivals
        self.step_minutes = step_minutes
        self.position = 0
        self.clock = arrivals[0]
        self.voided = []

    def head(self):
        return self.position if self.position < len(self.arrivals) else None

    def present(self):
        available = self.port.minutes_available
        i, clock = self.position, self.clock
        while i < len(self.arrivals):
            arrival = self.arrivals[i]
            if arrival > clock:
                clock = arrival
            if clock <= arrival + available[i] + 1e-9:
                break
            self.voided.append((i, clock, clock - arrival))
            i += 1
        self.position, self.clock = i, clock

    def transition(self, schedule_now: int, allocation=None):
        event = (self.clock, self.clock - self.arrivals[self.position])
        if schedule_now == 1:
            self.position += 1
            self.clock += allocation.occupy_minutes
        else:
            self.clock += self.step_minutes
        return event


def scalar_replay(batch, site, rule, allocator=rational_allocation,
                  step_minutes: float = DEFAULT_STEP_MINUTES, risk_value: float = 0.0):
    """The replay on per-port decision inputs: the rule's ``decide(port, i)``
    is asked about a port's presented head, and every start, a feed deferral
    included, calls the allocator; a start then reads the port's reward."""
    ports = {port.evse_id: port for port in port_sessions(batch)}
    arrivals = (batch.plug_in - batch.plug_in.min()).astype(float) if len(batch) else None
    evses = {evse.evse_id: evse for evse in site.evses}
    queues = {evse_id: PortQueue(port, evses[evse_id], arrivals[port_rows].tolist(),
                                 step_minutes)
              for (evse_id, port), port_rows in zip(ports.items(), batch.slices)}
    heap, outcomes, active = [], [], []
    for evse_id, queue in queues.items():
        heapq.heappush(heap, (queue.clock, evse_id))
        queue.present()
    while heap:
        when, evse_id = heapq.heappop(heap)
        queue = queues[evse_id]
        port = queue.port
        for index, clock, wait in queue.voided:
            outcomes.append(ScheduleOutcome(port.session_ids[index], evse_id, False, True,
                                            clock, wait, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        queue.voided.clear()
        i = queue.head()
        if i is None:
            continue
        if queue.clock <= when:
            if rule.decide(port, i) == 1:
                allocation = allocator(port, i, queue.evse)
                active = [(end, kw) for end, kw in active if end > queue.clock + 1e-9]
                if (left_sum(kw for _end, kw in active) + allocation.rate_kw
                        > site.dso_capacity_kw + 1e-9):
                    queue.clock += step_minutes
                else:
                    clock, wait = queue.transition(1, allocation)
                    outcomes.append(ScheduleOutcome(
                        port.session_ids[i], evse_id, True, False, clock, wait,
                        allocation.energy_kwh, allocation.rate_kw, allocation.charge_minutes,
                        allocation.allocated_energy_kwh, allocation.allocated_minutes,
                        port.reward(i, 1, risk_value)))
                    active.append((clock + allocation.charge_minutes, allocation.rate_kw))
            else:
                queue.transition(0)
            if queue.head() is None:
                continue
        heapq.heappush(heap, (queue.clock, evse_id))
        queue.present()
    return outcomes
