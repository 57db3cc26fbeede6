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
The rule and the reward read each port's :class:`ramals.mdp.PortSessions`,
the same decision inputs training reads.
"""

from __future__ import annotations

import heapq
import json
import logging
from dataclasses import dataclass

import numpy as np

from . import learner, mdp
from .sessions import ChargingSession, SessionBatch, SiteConfig

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
    """Argmax policy pick, then the demand-supply ordering check.

    Every port's input projection ``states @ wx.T + b`` and carry are set up
    when the rule is built; each decision then steps the cell on one row.
    The projections share one array: at fleet size they take tens of MB, and
    as one allocation they are returned whole when the replay ends, where
    per-port blocks could stay resident, pinned in the heap, after it.
    """

    def __init__(self, model: learner.SharedModel, ports):
        ports = list(ports)
        self.params = params = model.coordinator.params
        z = np.empty((sum(len(port.sessions) for port in ports), params["wx"].shape[0]))
        self._rows, self._carries, start = {}, {}, 0
        for port in ports:
            rows = z[start:start + len(port.sessions)]
            np.matmul(mdp.state_matrix(port.sessions), params["wx"].T, out=rows)
            rows += params["b"]
            self._rows[port.evse_id] = rows
            self._carries[port.evse_id] = model.carry_for(port.evse_id)
            start += len(port.sessions)

    def decide(self, port: mdp.PortSessions, i: int) -> int:
        evse_id = port.evse_id
        p_schedule, _value, self._carries[evse_id] = learner.policy_value_forward(
            self.params, self._rows[evse_id][i], self._carries[evse_id])
        schedule_now = 1 if p_schedule >= 0.5 else 0  # a tie schedules
        return 1 if port.ordering_holds(i, schedule_now) else 0


class _ForcedRule:
    """Always schedules: the as-requested baseline's rule, and the rule when
    no model is given."""

    def decide(self, port: mdp.PortSessions, i: int) -> int:
        return 1


class ScheduleEngine:
    """Replays one batch against one site under a decision rule.

    The rule's ``decide(port, i)`` returns 1 to start session ``i`` of
    ``port``, the presented head, and 0 to queue it.  Each port's decision
    inputs are built once, when the engine is built, and a started session's
    allocation is computed once, for the feed check.
    """

    def __init__(self, batch: SessionBatch, site: SiteConfig, rule,
                 allocator=mdp.rational_allocation,
                 step_minutes: float = mdp.DEFAULT_STEP_MINUTES,
                 risk_value: float = 0.0):
        known = set(site.evse_ids)
        missing = [e for e in batch.evse_ids if e not in known]
        if missing:
            raise SchedulerError(f"batch references EVSEs absent from site config: {missing}")
        self.site = site
        self.rule = rule
        self.allocator = allocator
        self.step_minutes = step_minutes
        self.risk_value = risk_value

        self.origin = min((s.plug_in_time for s in batch), default=None)
        self.ports = {port.evse_id: port for port in mdp.port_sessions(batch)}
        self.queues = {evse_id: mdp.EvseQueue(port.sessions, site.evse(evse_id),
                                              self._arrival_minutes,
                                              step_minutes=step_minutes)
                       for evse_id, port in self.ports.items()}
        self.outcomes: list[ScheduleOutcome] = []
        self._active: list[tuple[float, float]] = []  # (end minute, kW) of each start

    def _arrival_minutes(self, session: ChargingSession) -> float:
        return (session.plug_in_time - self.origin).total_seconds() / 60.0

    def _site_load(self, at_minutes: float) -> float:
        # Decisions run in time order, so an interval that has ended by now
        # has ended for every later decision too, and can be dropped.
        self._active = [(end, kw) for end, kw in self._active if end > at_minutes + 1e-9]
        return sum(kw for _end, kw in self._active)

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
            queue, port = self.queues[evse_id], self.ports[evse_id]
            head = queue.present()
            for event in queue.voided:
                self._record(evse_id, event, 0.0)  # heads voided as expired
            queue.voided.clear()
            if head is None:
                continue
            if queue.clock > when:
                # present() moved the clock up to the head's arrival: decide
                # there, after every port whose decision comes earlier.
                heapq.heappush(heap, (queue.clock, evse_id))
                continue
            i = queue.position
            if self.rule.decide(port, i) == 1:
                allocation = self.allocator(head, self.site.evse(evse_id))
                load = self._site_load(queue.clock)
                if load + allocation.rate_kw > self.site.dso_capacity_kw + 1e-9:
                    log.debug("EVSE %r deferred session %r: site load %.1f kW full",
                              evse_id, head.session_id, load)
                    queue.clock += self.step_minutes
                    heapq.heappush(heap, (queue.clock, evse_id))
                    continue
                event = queue.transition(1, allocation)
                self._record(evse_id, event, port.reward(i, 1, self.risk_value))
                self._active.append((event.clock_minutes + allocation.charge_minutes,
                                     allocation.rate_kw))
            else:
                queue.transition(0)
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
    engine = ScheduleEngine(batch, site, _ForcedRule(), allocator=mdp.rational_allocation,
                            step_minutes=step_minutes,
                            risk_value=0.0 if model is None else model.risk_value)
    if model is not None:  # the policy rule projects the ports the engine built
        engine.rule = _PolicyRule(model, engine.ports.values())
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
