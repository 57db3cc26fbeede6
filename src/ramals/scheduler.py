"""Policy execution over session streams, baselines and evaluation metrics.

The engine replays a batch against a site on a global clock in minutes.
Each port owns an FCFS queue and waits on a heap keyed by its next decision
time.  A port is presented when it is queued: presenting voids the sessions
whose charging can no longer start inside their availability window and
exposes the head, so every waiting port's next head is known.  When a port
is popped, the engine's rule either starts its head charging (blocking the
port for the realized charging time plus switching overhead) or requeues the
head for one time step.  The engine builds that rule itself: a model's
argmax policy, a function of the heads it is handed, or, with no model, a
start for every presented head.  The engine owns the policy's look-ahead: it
asks about every waiting port's head at once and keeps each answer until
that port decides.  Starting a session must not
push the site's simultaneous delivery above the utility feed; a port that
would breach it defers one step.  Decisions run in time order across ports:
a port whose head arrives later than its turn waits for that arrival.  The
rule's ordering check and each start's reward come from the batch's
:func:`ramals.mdp.decision_table`, the table training reads, and each
start's allocation from one whole-batch allocator call, whose
:class:`ramals.mdp.Allocation` columns the engine reads by batch row; each
queue reads its port's rows of the batch.  Each session's fate is one
:class:`ScheduleOutcome`, a named tuple row built by
:data:`ramals.mdp.new_row`, and :func:`outcomes_jsonl` writes them a column
at a time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from . import learner, mdp
from .sessions import SessionBatch, SiteConfig, number_column, ordered_sum

log = logging.getLogger(__name__)


class SchedulerError(ValueError):
    """Raised for invalid execution inputs."""


class ScheduleOutcome(NamedTuple):
    """Final fate of one session.  A session is allocated the rate it
    realizes, so the outcome file's ``allocated_kw`` is ``realized_rate_kw``."""

    session_id: str
    evse_id: str
    scheduled: bool
    voided: bool
    start_minutes: float
    wait_minutes: float
    realized_energy_kwh: float
    realized_rate_kw: float
    realized_minutes: float
    allocated_energy_kwh: float
    allocated_minutes: float
    reward: float


#: The site metrics a report tabulates and ``compare`` reads, in row order.
SITE_METRICS = ("charging_rate_kw", "assignment_efficiency_pct", "sessions_served",
                "active_charging_hours", "energy_delivered_kwh")


@dataclass(frozen=True)
class MetricsReport:
    """Site-level evaluation summary."""

    charging_rate_kw: float
    assignment_efficiency_pct: float
    sessions_served: int
    sessions_total: int
    total_active_hours: float  # the per-EVSE figures summed in site order
    total_energy_kwh: float
    active_hours_by_evse: dict[str, float]
    energy_kwh_by_evse: dict[str, float]

    def scalar_metrics(self) -> dict[str, float]:
        return dict(zip(SITE_METRICS, (
            self.charging_rate_kw, self.assignment_efficiency_pct,
            float(self.sessions_served), self.total_active_hours, self.total_energy_kwh)))

    def to_csv(self) -> str:
        lines = ["metric,scope,value"]
        for name, value in self.scalar_metrics().items():
            lines.append(f"{name},site,{value!r}")
        lines.append(f"sessions_total,site,{float(self.sessions_total)!r}")
        for evse_id in sorted(self.active_hours_by_evse):
            lines.append(f"active_charging_hours,{evse_id},"
                         f"{self.active_hours_by_evse[evse_id]!r}")
            lines.append(f"energy_delivered_kwh,{evse_id},"
                         f"{self.energy_kwh_by_evse[evse_id]!r}")
        return "\n".join(lines) + "\n"


def read_report(text: str) -> dict[str, float]:
    """The :data:`SITE_METRICS` of a :meth:`MetricsReport.to_csv` text, in
    order.  Every row must be three fields with a numeric value, and each
    compared site row present, with finite served and total counts."""
    site: dict[str, float] = {}
    rows = [(lineno, row.strip()) for lineno, row in enumerate(text.splitlines(), 1)
            if row.strip()]
    if not rows or rows[0][1] != "metric,scope,value":
        raise SchedulerError("unrecognized metrics CSV header")
    for lineno, row in rows[1:]:
        fields = row.split(",")
        if len(fields) != 3:
            raise SchedulerError(f"line {lineno}: expected metric,scope,value, got {row!r}")
        name, scope, value = fields
        try:
            number = float(value)
        except ValueError:
            raise SchedulerError(f"line {lineno}: value {value!r} is not a number") from None
        if scope == "site":
            site[name] = number
    missing = [name for name in SITE_METRICS if name not in site]
    if missing:
        raise SchedulerError(f"no site row for {', '.join(missing)}")
    if not (math.isfinite(site["sessions_served"])
            and math.isfinite(site.get("sessions_total", 0.0))):
        raise SchedulerError("sessions_served and sessions_total must be finite")
    return {name: site[name] for name in SITE_METRICS}


def _policy_rule(model: learner.SharedModel, batch: SessionBatch, ordered: np.ndarray):
    """The argmax policy pick, then the decision table's ``ordered`` check,
    as ``rule(ports, heads) -> starts``: 1 starts each port's head, a batch
    row, and 0 queues it.  One call steps the learner cell on the heads' rows
    of :func:`ramals.mdp.state_matrix` from each port's own carry, which
    starts at zero, as each training episode does; so a model runs on any
    site, whatever ports it was trained on.
    """
    params, states, ordered = model.coordinator.params, mdp.state_matrix(batch), ordered.tolist()
    h = np.zeros((len(batch.slices), model.hidden))
    c = np.zeros_like(h)

    def rule(ports: list[int], heads: list[int]) -> list[int]:
        p_schedule, _value, (h[ports], c[ports]) = learner.policy_value_forward(
            params, states[heads], (h[ports], c[ports]))
        # action 0 schedules; a tie schedules
        return [1 if ordered[0 if prob >= 0.5 else 1][i] else 0
                for i, prob in zip(heads, p_schedule.tolist())]

    return rule


class ScheduleEngine:
    """Replays one batch against one site under the argmax policy of
    ``model``, or with no model starting every presented head.

    ``rule`` is the model's :func:`_policy_rule` over the decision table,
    whose rewards carry its risk value (0 with no model), or None.  The table
    and every session's allocation columns under ``allocator`` are built
    once, here: a start reads its row of them, its rate for the feed check,
    and its reward.  :meth:`run` owns the rule's look-ahead.  Each deferral or
    queued head moves its port's clock on by ``step_minutes``, so the step
    must be finite and large enough to move every clock the replay acts on.
    """

    def __init__(self, batch: SessionBatch, site: SiteConfig,
                 model: learner.SharedModel | None = None,
                 allocator=mdp.rational_allocation,
                 step_minutes: float = mdp.DEFAULT_STEP_MINUTES):
        if not (math.isfinite(step_minutes) and step_minutes > 0):
            raise SchedulerError(f"step_minutes must be finite and > 0, got {step_minutes!r}")
        evses = site.port_configs(batch)
        self.site = site
        self.step_minutes = step_minutes
        self.session_ids = batch.session_ids
        self.table = mdp.decision_table(batch, 0.0 if model is None else model.risk_value)
        self.allocations = allocator(batch, evses)
        # the clock's minute 0 is the batch's first plug-in
        arrivals = (batch.plug_in - (batch.plug_in.min() if len(batch) else 0)).astype(float)
        arrivals, deadlines = arrivals.tolist(), (arrivals + batch.minutes_available).tolist()
        # A head is acted on up to the clock tolerance past its deadline: a
        # step of half a unit in the last place there or less leaves some
        # clock unmoved, and one no larger than the tolerance is within it.
        tolerance = mdp.CLOCK_TOLERANCE_MINUTES
        latest = max(deadlines, default=0.0) + tolerance
        finest = max(tolerance, math.ulp(latest) / 2)
        if step_minutes <= finest:
            raise SchedulerError(f"step_minutes must exceed {finest!r} to move a clock of up to "
                                 f"{latest:.1f} minutes, got {step_minutes!r}")
        self.queues = [mdp.EvseQueue(evse, rows, batch.session_ids, arrivals, deadlines,
                                     step_minutes=step_minutes)
                       for evse, rows in zip(evses, batch.slices)]
        self.rule = None if model is None else _policy_rule(model, batch, self.table.ordered)

    def run(self) -> list[ScheduleOutcome]:
        # Min-heap of (next decision time, port); port order breaks ties,
        # which keeps runs deterministic.  A port is presented when it is
        # pushed, so every waiting port's next head is known before it is
        # popped; heads that presenting voids are recorded when it is popped.
        # The queues' present and transition are looked up at each call.
        # ``answers`` maps a port to its rule answer, (head row, start), until
        # that port's decision takes it.
        queues, rule = self.queues, self.rule
        answers: dict[int, tuple[int, int]] = {}
        heap = []
        for p, queue in enumerate(queues):
            if queue.position < queue.stop:
                heappush(heap, (queue.clock, p))
                queue.present()
        outcomes: list[ScheduleOutcome] = []
        session_ids = self.session_ids
        evse_ids = [queue.evse.evse_id for queue in queues]
        (energy_kwh, rate_kw, charge_minutes, occupy_minutes, allocated_kwh,
         allocated_minutes) = self.allocations
        rewards = self.table.reward[0].tolist()
        step = self.step_minutes
        feed_kw = self.site.dso_capacity_kw + 1e-9
        tolerance = mdp.CLOCK_TOLERANCE_MINUTES
        log_deferrals = log.isEnabledFor(logging.DEBUG)
        new_row = mdp.new_row
        active: list[tuple[float, float]] = []  # (end minute, kW) of each start
        while heap:
            when, p = heappop(heap)
            queue = queues[p]
            if queue.voided:  # heads voided as expired
                evse_id = evse_ids[p]
                for i, clock, wait in queue.voided:
                    outcomes.append(new_row(ScheduleOutcome, (
                        session_ids[i], evse_id, False, True, clock, wait,
                        0.0, 0.0, 0.0, 0.0, 0.0, 0.0)))
                queue.voided.clear()
            i = queue.position
            if i >= queue.stop:
                continue
            # When presenting moved the clock up to the head's arrival, the
            # port decides there, after every port whose decision comes earlier.
            clock = queue.clock
            if clock <= when:
                schedule_now = 1
                if rule is not None:
                    if p not in answers:
                        # Each port decides from its own carry and presented
                        # head, so one call asks about every port that has a
                        # head and no answer, in port order.
                        due = [q for q, other in enumerate(queues)
                               if q not in answers and other.position < other.stop]
                        heads = [queues[q].position for q in due]
                        answers.update(zip(due, zip(heads, rule(due, heads))))
                    head, schedule_now = answers.pop(p)
                    if head != i:
                        raise SchedulerError(
                            f"EVSE {evse_ids[p]!r}: decision on session {session_ids[i]!r}, "
                            f"but its policy step was taken for {session_ids[head]!r}")
                if schedule_now == 1:
                    rate = rate_kw[i]
                    # Decisions run in time order, so an interval that has
                    # ended by now has ended for every later decision too.
                    active = [(end, kw) for end, kw in active if end > clock + tolerance]
                    load = 0.0  # ordered_sum's order, without its call
                    for _end, kw in active:
                        load += kw
                    if load + rate > feed_kw:
                        if log_deferrals:
                            log.debug("EVSE %r deferred session %r: site load %.1f kW full",
                                      evse_ids[p], session_ids[i], load)
                        queue.clock = clock + step
                    else:
                        _i, start, wait = queue.transition(1, occupy_minutes[i])
                        outcomes.append(new_row(ScheduleOutcome, (
                            session_ids[i], evse_ids[p], True, False, start, wait,
                            energy_kwh[i], rate, charge_minutes[i], allocated_kwh[i],
                            allocated_minutes[i], rewards[i])))
                        active.append((start + charge_minutes[i], rate))
                else:
                    queue.transition(0)
                if queue.position >= queue.stop:
                    continue
            heappush(heap, (queue.clock, p))
            queue.present()
        return outcomes


def _columns(outcomes: list) -> ScheduleOutcome:
    """The outcomes transposed: each field a tuple of every outcome's value."""
    return ScheduleOutcome(*(list(zip(*outcomes)) or [()] * len(ScheduleOutcome._fields)))


def compute_metrics(outcomes, site: SiteConfig) -> MetricsReport:
    """Summarize realized outcomes into the evaluation report."""
    outcomes = list(outcomes)
    columns = _columns(outcomes)
    minutes = list(compress(columns.realized_minutes, columns.scheduled))
    kwh = list(compress(columns.realized_energy_kwh, columns.scheduled))
    hours = {evse_id: 0.0 for evse_id in site.evse_ids}
    energy = {evse_id: 0.0 for evse_id in site.evse_ids}
    for evse_id, realized_minutes, realized_kwh in zip(
            compress(columns.evse_id, columns.scheduled), minutes, kwh):
        hours[evse_id] = hours.get(evse_id, 0.0) + realized_minutes / 60.0
        energy[evse_id] = energy.get(evse_id, 0.0) + realized_kwh
    total_minutes = ordered_sum(minutes)
    total_energy = ordered_sum(kwh)
    rate = total_energy / total_minutes * 60.0 if total_minutes > 0 else 0.0
    efficiency = 100.0 * len(minutes) / len(outcomes) if outcomes else 0.0
    return MetricsReport(
        charging_rate_kw=rate,
        assignment_efficiency_pct=efficiency,
        sessions_served=len(minutes),
        sessions_total=len(outcomes),
        total_active_hours=ordered_sum(hours.values()),
        total_energy_kwh=ordered_sum(energy.values()),
        active_hours_by_evse=hours,
        energy_kwh_by_evse=energy,
    )


def execute(model: learner.SharedModel | None, batch: SessionBatch, site: SiteConfig,
            step_minutes: float = mdp.DEFAULT_STEP_MINUTES):
    """Run the trained policy over a batch; returns (outcomes, MetricsReport).

    With no model every presented session is started under the rational
    allocator (the always-schedule rule).
    """
    return _replay(batch, site, model, mdp.rational_allocation, step_minutes)


def fcfs_as_requested_baseline(batch: SessionBatch, site: SiteConfig,
                               step_minutes: float = mdp.DEFAULT_STEP_MINUTES):
    """Replay the requested allocations verbatim (the deployed-system baseline)."""
    return _replay(batch, site, None, mdp.as_requested_allocation, step_minutes)


def _replay(batch: SessionBatch, site: SiteConfig, model, allocator, step_minutes: float):
    outcomes = ScheduleEngine(batch, site, model, allocator, step_minutes).run()
    audit_outcomes(outcomes, batch, site)
    return outcomes, compute_metrics(outcomes, site)


def audit_outcomes(outcomes, batch: SessionBatch, site: SiteConfig) -> None:
    """Hard checks after a run: session conservation and capacity limits."""
    outcomes = list(outcomes)
    if len(outcomes) != len(batch):
        raise SchedulerError(f"session conservation violated: {len(outcomes)} outcomes "
                             f"for {len(batch)} sessions")
    columns = _columns(outcomes)
    if sorted(columns.session_id) != sorted(batch.session_ids):
        raise SchedulerError("session conservation violated: outcome ids differ from batch")
    receiving = dict(zip(batch.session_ids, batch.receiving_kw.tolist()))
    supply = {evse.evse_id: evse.supply_capacity_kw for evse in site.evses}
    for session_id, evse_id, is_scheduled, is_voided, energy, rate in zip(
            columns.session_id, columns.evse_id, columns.scheduled, columns.voided,
            columns.realized_energy_kwh, columns.realized_rate_kw):
        if evse_id not in supply:
            raise SchedulerError(f"session {session_id!r}: outcome names EVSE {evse_id!r}, "
                                 "which the site lacks")
        if is_voided and energy != 0.0:
            raise SchedulerError(f"voided session {session_id!r} delivered energy")
        if is_scheduled:
            cap = min(supply[evse_id], receiving[session_id])
            if rate > cap + 1e-9:
                raise SchedulerError(f"session {session_id!r} rate {rate} exceeds cap {cap}")
    # Site load: charging intervals are constant-rate, so the maximum load
    # occurs at some charging start t.  The rate of the intervals with
    # s <= t + tolerance < e, the engine's clock tolerance, is a prefix sum
    # over sorted starts minus one over ends.
    lengths = np.array(columns.realized_minutes, dtype=float)
    served = np.array(columns.scheduled, dtype=bool) & (lengths > 0)
    starts = np.array(columns.start_minutes, dtype=float)[served]
    ends = starts + lengths[served]
    rates = np.array(columns.realized_rate_kw, dtype=float)[served]
    loads = np.zeros(len(starts))
    reach = starts + mdp.CLOCK_TOLERANCE_MINUTES
    for bounds, sign in ((starts, 1.0), (ends, -1.0)):
        order = np.argsort(bounds)
        prefix = np.concatenate(([0.0], np.cumsum(rates[order])))
        loads += sign * prefix[np.searchsorted(bounds[order], reach, side="right")]
    over = np.flatnonzero(loads > site.dso_capacity_kw + 1e-6)
    if over.size:
        raise SchedulerError(f"site load {loads[over[0]]:.3f} kW exceeds feed capacity "
                             f"{site.dso_capacity_kw} kW at t={starts[over[0]]:.1f} min")


def compare_report(reports: dict[str, dict[str, float]]) -> list[dict]:
    """Side-by-side metric table with percentage deltas against the first
    entry; each maps metric names to values, as :func:`read_report` returns."""
    if not reports:
        raise SchedulerError("compare needs at least one report")
    labels = list(reports)
    rows = []
    for metric, base in reports[labels[0]].items():
        row = {"metric": metric}
        for label in labels:
            row[label] = reports[label][metric]
        for label in labels[1:]:
            if base != 0:
                delta = (row[label] - base) / base * 100.0
            else:
                delta = 0.0 if row[label] == 0 else float("inf")
            row[f"delta_pct_{label}"] = delta
        rows.append(row)
    return rows


def comparison_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row[key]) if isinstance(row[key], str)
                              else repr(row[key]) for key in header))
    return "\n".join(lines) + "\n"


# One line of outcomes_jsonl: json.dumps(..., sort_keys=True)'s layout.
_OUTCOME = ('{"allocated_kw": %s, "allocated_kwh": %s, "allocated_min": %s, "evse_id": %s, '
            '"realized_kw": %s, "realized_kwh": %s, "realized_min": %s, "reward": %s, '
            '"scheduled": %s, "session_id": %s, "voided": %s, "wait_min": %s}')
_JSON_BOOLS = ("false", "true")


def outcomes_jsonl(outcomes) -> str:
    """One JSON object per outcome and line, keys in sorted order, as
    ``json.dumps(..., sort_keys=True)`` writes it; no outcomes give an empty
    string.

    The outcomes are transposed once and written a column at a time by
    :func:`ramals.sessions.number_column`, so NaN, ±Infinity and ints keep
    json's spelling.  The realized rate fills both ``allocated_kw`` and
    ``realized_kw``.
    """
    outcomes = list(outcomes)
    if not outcomes:
        return ""
    (session_id, evse_id, scheduled, voided, _start, wait, realized_kwh, realized_kw,
     realized_min, allocated_kwh, allocated_min, reward) = zip(*outcomes)
    realized_kw_text = list(number_column(realized_kw))
    columns = (
        realized_kw_text, number_column(allocated_kwh), number_column(allocated_min),
        map(encode_basestring_ascii, evse_id), realized_kw_text,
        number_column(realized_kwh), number_column(realized_min), number_column(reward),
        map(_JSON_BOOLS.__getitem__, map(bool, scheduled)),
        map(encode_basestring_ascii, session_id),
        map(_JSON_BOOLS.__getitem__, map(bool, voided)), number_column(wait))
    return "\n".join(map(_OUTCOME.__mod__, zip(*columns))) + "\n"
