"""Policy execution over session streams, baselines and evaluation metrics.

The engine replays a batch against a site on a global clock in minutes.
Each port owns an FCFS queue; when a port is free it presents its head
session to the decision rule, which either starts charging (blocking the
port for the realized charging time plus switching overhead) or requeues the
head for one time step.  Starting a session must not push the site's
simultaneous delivery above the utility feed; a port that would breach it
defers one step.  Presenting voids the sessions whose charging can no longer
start inside their availability window.  Decisions run in time order across
ports: a port whose head arrives later than its turn waits for that arrival.
"""

from __future__ import annotations

import heapq
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from . import learner, mdp
from .sessions import (ChargingSession, SessionBatch, SessionError, SiteConfig,
                       rate_ratio, time_ratio)

log = logging.getLogger(__name__)


class SchedulerError(ValueError):
    """Raised for invalid execution inputs."""


@dataclass(frozen=True)
class ScheduleOutcome:
    """Final fate of one session."""

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
    allocated_rate_kw: float
    allocated_minutes: float
    reward: float

    def to_json_line(self) -> str:
        return json.dumps({
            "session_id": self.session_id,
            "evse_id": self.evse_id,
            "scheduled": self.scheduled,
            "voided": self.voided,
            "allocated_kwh": self.allocated_energy_kwh,
            "allocated_kw": self.allocated_rate_kw,
            "allocated_min": self.allocated_minutes,
            "realized_kwh": self.realized_energy_kwh,
            "realized_kw": self.realized_rate_kw,
            "realized_min": self.realized_minutes,
            "wait_min": self.wait_minutes,
            "reward": self.reward,
        }, sort_keys=True)


@dataclass(frozen=True)
class MetricsReport:
    """Site-level evaluation summary."""

    site_id: str
    charging_rate_kw: float
    assignment_efficiency_pct: float
    sessions_served: int
    sessions_total: int
    active_hours_by_evse: dict[str, float]
    energy_kwh_by_evse: dict[str, float]

    @property
    def total_active_hours(self) -> float:
        return sum(self.active_hours_by_evse.values())

    @property
    def total_energy_kwh(self) -> float:
        return sum(self.energy_kwh_by_evse.values())

    def scalar_metrics(self) -> dict[str, float]:
        return {
            "charging_rate_kw": self.charging_rate_kw,
            "assignment_efficiency_pct": self.assignment_efficiency_pct,
            "sessions_served": float(self.sessions_served),
            "active_charging_hours": self.total_active_hours,
            "energy_delivered_kwh": self.total_energy_kwh,
        }

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

    @classmethod
    def from_csv(cls, text: str, site_id: str = "") -> "MetricsReport":
        site: dict[str, float] = {}
        hours: dict[str, float] = {}
        energy: dict[str, float] = {}
        rows = text.strip().splitlines()
        if not rows or rows[0] != "metric,scope,value":
            raise SchedulerError("unrecognized metrics CSV header")
        for row in rows[1:]:
            name, scope, value = row.split(",")
            if scope == "site":
                site[name] = float(value)
            elif name == "active_charging_hours":
                hours[scope] = float(value)
            elif name == "energy_delivered_kwh":
                energy[scope] = float(value)
        served = int(site["sessions_served"])
        total = int(site.get("sessions_total", 0.0))
        return cls(site_id=site_id,
                   charging_rate_kw=site["charging_rate_kw"],
                   assignment_efficiency_pct=site["assignment_efficiency_pct"],
                   sessions_served=served,
                   sessions_total=total,
                   active_hours_by_evse=hours,
                   energy_kwh_by_evse=energy)


class _PolicyRule:
    """Argmax policy pick, then the demand-supply ordering check."""

    def __init__(self, model: learner.SharedModel):
        self.model = model
        self._carries: dict[str, tuple] = {}

    def decide(self, evse_id: str, head: ChargingSession, ordering_holds) -> int:
        carry = self._carries.get(evse_id)
        if carry is None:
            carry = self.model.carry_for(evse_id)
        dist, _value, carry = learner.policy_value_forward(
            self.model.coordinator.params, mdp.state_vector(head), carry)
        self._carries[evse_id] = carry
        return 1 if ordering_holds(evse_id, mdp.scheduling_indicator(dist)) else 0


class _ForcedRule:
    """Always schedules: the as-requested baseline's rule, and the rule when
    no model is given."""

    def decide(self, evse_id: str, head: ChargingSession, ordering_holds) -> int:
        return 1


@dataclass
class _ActiveInterval:
    end_minutes: float
    rate_kw: float


class ScheduleEngine:
    """Replays one batch against one site under a decision rule.

    The rule's ``decide(evse_id, head, ordering_holds)`` returns 1 to start
    the presented head and 0 to queue it; ``ordering_holds(evse_id,
    schedule_now)`` is the engine's ordering check for that port's head.
    Each session's energy ratio is computed once, when the engine is built.
    """

    def __init__(self, batch: SessionBatch, site: SiteConfig, rule,
                 allocator=mdp.rational_allocation,
                 step_minutes: float = mdp.DEFAULT_STEP_MINUTES,
                 risk_value: float = 0.0):
        known = set(site.evse_ids)
        missing = [e for e in batch.evse_ids if e not in known]
        if missing:
            raise SchedulerError(f"batch references EVSEs absent from site config: {missing}")
        self.batch = batch
        self.site = site
        self.rule = rule
        self.allocator = allocator
        self.step_minutes = step_minutes
        self.risk_value = risk_value

        if len(batch):
            self.origin = min(s.plug_in_time for s in batch)
        else:
            self.origin = None
        self._zeta: dict[str, float] = {}
        # Each port's energy ratios in queue order, padded with None: the
        # last session has no next one to be ordered against.
        self._upsilons: dict[str, list[float | None]] = {}
        self.queues: dict[str, mdp.EvseQueue] = {}
        for evse_id in batch.evse_ids:
            group = batch.group(evse_id)
            self._upsilons[evse_id] = [mdp.ordering_ratio(s) for s in group] + [None]
            try:
                self._zeta[evse_id] = rate_ratio(group)
            except SessionError:
                log.warning("EVSE %r: rate ratio undefined, reward ratio forced to 0",
                            evse_id)
                self._zeta[evse_id] = 0.0
            self.queues[evse_id] = mdp.EvseQueue(
                group, site.evse(evse_id), self._arrival_minutes,
                step_minutes=step_minutes)
        self.outcomes: list[ScheduleOutcome] = []
        self._active: list[_ActiveInterval] = []

    def _arrival_minutes(self, session: ChargingSession) -> float:
        return (session.plug_in_time - self.origin).total_seconds() / 60.0

    def _site_load(self, at_minutes: float) -> float:
        # Decisions run in time order, so an interval that has ended by now
        # has ended for every later decision too, and can be dropped.
        self._active = [iv for iv in self._active if iv.end_minutes > at_minutes + 1e-9]
        return sum(iv.rate_kw for iv in self._active)

    def _ordering_holds(self, evse_id: str, schedule_now: int) -> bool:
        """The demand-supply ordering between the port's head and next session."""
        upsilons, i = self._upsilons[evse_id], self.queues[evse_id].position
        return mdp.ordering_holds(upsilons[i], upsilons[i + 1], schedule_now)

    def _scheduled_reward(self, evse_id: str, head: ChargingSession) -> float:
        return mdp.session_reward(self._zeta[evse_id], time_ratio(head),
                                  self.risk_value, self._ordering_holds(evse_id, 1))

    def _record(self, evse_id: str, event: mdp.QueueEvent, reward: float) -> None:
        alloc = event.allocation
        self.outcomes.append(ScheduleOutcome(
            session_id=event.session.session_id,
            evse_id=evse_id,
            scheduled=event.kind == "scheduled",
            voided=event.kind == "voided",
            start_minutes=event.clock_minutes,
            wait_minutes=event.wait_minutes,
            realized_energy_kwh=alloc.energy_kwh if alloc else 0.0,
            realized_rate_kw=alloc.rate_kw if alloc else 0.0,
            realized_minutes=alloc.charge_minutes if alloc else 0.0,
            allocated_energy_kwh=alloc.allocated_energy_kwh if alloc else 0.0,
            allocated_rate_kw=alloc.rate_kw if alloc else 0.0,
            allocated_minutes=alloc.allocated_minutes if alloc else 0.0,
            reward=reward,
        ))

    def run(self) -> list[ScheduleOutcome]:
        # Min-heap of (next decision time, evse_id); port order breaks ties,
        # which keeps runs deterministic.
        heap = []
        for evse_id, queue in self.queues.items():
            if queue.head() is not None:
                heapq.heappush(heap, (queue.clock, evse_id))
        while heap:
            when, evse_id = heapq.heappop(heap)
            queue = self.queues[evse_id]
            seen = len(queue.events)
            head = queue.present()
            for event in queue.events[seen:]:
                self._record(evse_id, event, 0.0)  # heads voided as expired
            if head is None:
                continue
            if queue.clock > when:
                # present() moved the clock up to the head's arrival: decide
                # there, after every port whose decision comes earlier.
                heapq.heappush(heap, (queue.clock, evse_id))
                continue
            decision = self.rule.decide(evse_id, head, self._ordering_holds)
            if decision == 1:
                allocation = self.allocator(head, self.site.evse(evse_id))
                load = self._site_load(queue.clock)
                if load + allocation.rate_kw > self.site.dso_capacity_kw + 1e-9:
                    log.debug("EVSE %r deferred session %r: site load %.1f kW full",
                              evse_id, head.session_id, load)
                    queue.clock += self.step_minutes
                    heapq.heappush(heap, (queue.clock, evse_id))
                    continue
                reward = self._scheduled_reward(evse_id, head)
                event = queue.transition(1, allocator=self.allocator)
                self._record(evse_id, event, reward)
                self._active.append(_ActiveInterval(
                    event.clock_minutes + event.allocation.charge_minutes,
                    event.allocation.rate_kw))
            else:
                queue.transition(0, allocator=self.allocator)
            if queue.head() is not None:
                heapq.heappush(heap, (queue.clock, evse_id))
        return self.outcomes


def compute_metrics(outcomes, site: SiteConfig) -> MetricsReport:
    """Summarize realized outcomes into the evaluation report."""
    outcomes = list(outcomes)
    served = [o for o in outcomes if o.scheduled]
    hours = {evse_id: 0.0 for evse_id in site.evse_ids}
    energy = {evse_id: 0.0 for evse_id in site.evse_ids}
    for o in served:
        hours[o.evse_id] = hours.get(o.evse_id, 0.0) + o.realized_minutes / 60.0
        energy[o.evse_id] = energy.get(o.evse_id, 0.0) + o.realized_energy_kwh
    total_minutes = sum(o.realized_minutes for o in served)
    total_energy = sum(o.realized_energy_kwh for o in served)
    rate = total_energy / total_minutes * 60.0 if total_minutes > 0 else 0.0
    efficiency = 100.0 * len(served) / len(outcomes) if outcomes else 0.0
    return MetricsReport(
        site_id=site.site_id,
        charging_rate_kw=rate,
        assignment_efficiency_pct=efficiency,
        sessions_served=len(served),
        sessions_total=len(outcomes),
        active_hours_by_evse=hours,
        energy_kwh_by_evse=energy,
    )


def execute(model: learner.SharedModel | None, batch: SessionBatch, site: SiteConfig,
            step_minutes: float = mdp.DEFAULT_STEP_MINUTES):
    """Run the trained policy over a batch; returns (outcomes, MetricsReport).

    With no model every presented session is started under the rational
    allocator (the always-schedule rule).
    """
    if model is None:
        rule, risk = _ForcedRule(), 0.0
    else:
        rule, risk = _PolicyRule(model), model.risk_value
    engine = ScheduleEngine(batch, site, rule, allocator=mdp.rational_allocation,
                            step_minutes=step_minutes, risk_value=risk)
    outcomes = engine.run()
    audit_outcomes(outcomes, batch, site)
    return outcomes, compute_metrics(outcomes, site)


def fcfs_as_requested_baseline(batch: SessionBatch, site: SiteConfig,
                               step_minutes: float = mdp.DEFAULT_STEP_MINUTES):
    """Replay the requested allocations verbatim (the deployed-system baseline)."""
    engine = ScheduleEngine(batch, site, _ForcedRule(),
                            allocator=mdp.as_requested_allocation,
                            step_minutes=step_minutes, risk_value=0.0)
    outcomes = engine.run()
    audit_outcomes(outcomes, batch, site)
    return outcomes, compute_metrics(outcomes, site)


def audit_outcomes(outcomes, batch: SessionBatch, site: SiteConfig) -> None:
    """Hard checks after a run: session conservation and capacity limits."""
    outcomes = list(outcomes)
    if len(outcomes) != len(batch):
        raise SchedulerError(f"session conservation violated: {len(outcomes)} outcomes "
                             f"for {len(batch)} sessions")
    ids = sorted(o.session_id for o in outcomes)
    expected = sorted(s.session_id for s in batch)
    if ids != expected:
        raise SchedulerError("session conservation violated: outcome ids differ from batch")
    by_id = {s.session_id: s for s in batch}
    for o in outcomes:
        if o.voided and o.realized_energy_kwh != 0.0:
            raise SchedulerError(f"voided session {o.session_id!r} delivered energy")
        if o.scheduled:
            evse = site.evse(o.evse_id)
            cap = min(evse.supply_capacity_kw, by_id[o.session_id].receiving_capacity_kw)
            if o.realized_rate_kw > cap + 1e-9:
                raise SchedulerError(f"session {o.session_id!r} rate {o.realized_rate_kw} "
                                     f"exceeds cap {cap}")
    # Site load: charging intervals are constant-rate, so the maximum load
    # occurs at some charging start t.  The rate of the intervals with
    # s <= t + 1e-9 < e is a prefix sum over sorted starts minus one over ends.
    served = [o for o in outcomes if o.scheduled and o.realized_minutes > 0]
    starts = np.array([o.start_minutes for o in served])
    ends = starts + np.array([o.realized_minutes for o in served])
    rates = np.array([o.realized_rate_kw for o in served])
    loads = np.zeros(len(served))
    for bounds, sign in ((starts, 1.0), (ends, -1.0)):
        order = np.argsort(bounds)
        prefix = np.concatenate(([0.0], np.cumsum(rates[order])))
        loads += sign * prefix[np.searchsorted(bounds[order], starts + 1e-9, side="right")]
    over = np.flatnonzero(loads > site.dso_capacity_kw + 1e-6)
    if over.size:
        raise SchedulerError(f"site load {loads[over[0]]:.3f} kW exceeds feed capacity "
                             f"{site.dso_capacity_kw} kW at t={starts[over[0]]:.1f} min")


def compare_report(reports: dict[str, MetricsReport]) -> list[dict]:
    """Side-by-side metric table with percentage deltas against the first entry."""
    if not reports:
        raise SchedulerError("compare needs at least one report")
    labels = list(reports)
    site_ids = {r.site_id for r in reports.values() if r.site_id}
    if len(site_ids) > 1:
        raise SchedulerError(f"mismatched site configs in comparison: {sorted(site_ids)}")
    base_label = labels[0]
    base = reports[base_label].scalar_metrics()
    rows = []
    for metric in base:
        row = {"metric": metric}
        for label in labels:
            row[label] = reports[label].scalar_metrics()[metric]
        for label in labels[1:]:
            if base[metric] != 0:
                delta = (row[label] - base[metric]) / base[metric] * 100.0
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


def outcomes_jsonl(outcomes) -> str:
    return "\n".join(o.to_json_line() for o in outcomes) + "\n"
