"""State encoding, ordering check, reward and queue dynamics.

Each arriving session is one decision point: schedule it now or keep it
queued.  The agent sees the session's six raw properties (requested energy
and window, the three timestamps, delivered energy) scaled into [0, 1]: one
row of :func:`state_matrix` per session.  The reward pays out only when the
demand-supply ordering between the current and the next queued session holds
under the chosen action (:func:`ordering_holds`), and shrinks with the site's
normalized tail risk.
Training, the execution engine's reward and the policy's ordering override
all read one :class:`PortSessions` per port, which counts a zero-energy
session with energy ratio 0 (:func:`ordering_ratio`).

:class:`EvseQueue` is one port's FCFS queue: :meth:`EvseQueue.present` voids
expired heads into ``voided`` and exposes the head, and
:meth:`EvseQueue.transition` applies one decision to that head.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .sessions import (ChargingSession, EvseConfig, SessionBatch, SessionError,
                       energy_ratio, rate_ratio, time_ratio)

log = logging.getLogger(__name__)

ENERGY_NORM_KWH = 100.0
DURATION_NORM_MIN = 1440.0
STATE_DIM = 6
DEFAULT_STEP_MINUTES = 15.0


class MdpError(ValueError):
    """Raised for invalid decision inputs."""


def _minutes_since_midnight(ts) -> float:
    return ts.hour * 60.0 + ts.minute


def state_matrix(sessions) -> np.ndarray:
    """(n, 6) observations of ``sessions``, one row per queued session.

    Component order: requested kWh, requested minutes, plug-in, charge-end and
    unplug clock times, delivered kWh.  Energies are scaled by 100 kWh,
    durations by 1440 minutes and timestamps by minutes-since-midnight over
    1440, clipped into [0, 1].
    """
    raw = np.array([(s.energy_requested_kwh / ENERGY_NORM_KWH,
                     s.minutes_available / DURATION_NORM_MIN,
                     _minutes_since_midnight(s.plug_in_time) / DURATION_NORM_MIN,
                     _minutes_since_midnight(s.charge_end_time) / DURATION_NORM_MIN,
                     _minutes_since_midnight(s.unplug_time) / DURATION_NORM_MIN,
                     s.energy_delivered_kwh / ENERGY_NORM_KWH)
                    for s in sessions], dtype=float).reshape(-1, STATE_DIM)
    return np.clip(raw, 0.0, 1.0)


def ordering_ratio(session: ChargingSession) -> float:
    """The session's energy ratio as the ordering check counts it: a session
    that requests no energy counts with ratio 0."""
    try:
        return energy_ratio(session)
    except SessionError:
        log.warning("session %r: zero requested energy, demand-supply index forced to 0",
                    session.session_id)
        return 0.0


def _index(upsilon: float, schedule_now: int) -> float:
    return upsilon if schedule_now == 1 else 1.0 - upsilon


def ordering_holds(upsilon_head: float, upsilon_next: float | None,
                   schedule_now: int) -> bool:
    """Demand-supply ordering between the head session and the next queued one.

    Takes the two sessions' energy ratios and compares their demand-supply
    indices under the same action: the ratios themselves when scheduling, their
    complements when queueing.  With no next session the ordering holds
    vacuously.
    """
    if upsilon_next is None:
        return True
    return _index(upsilon_head, schedule_now) >= _index(upsilon_next, schedule_now)


def session_reward(rate_ratio_value: float, time_ratio_value: float, risk: float,
                   ordered: bool) -> float:
    """Per-session reward.

    Pays zero unless the demand-supply ordering holds (``ordered``, from
    :func:`ordering_holds`).  A unit rate ratio earns the bonus branch; any
    other non-zero ratio earns the plain product; everything else pays zero.
    """
    if not ordered:
        return 0.0
    if rate_ratio_value == 1.0:
        return 1.0 + rate_ratio_value * time_ratio_value * (1.0 - risk)
    if rate_ratio_value != 0.0:
        return rate_ratio_value * time_ratio_value * (1.0 - risk)
    return 0.0


@dataclass(frozen=True)
class PortSessions:
    """One port's decision inputs; decision ``i`` is about ``sessions[i]``.

    ``upsilons`` holds each session's :func:`ordering_ratio`, then ``None``
    for the last one's missing successor; ``rhos`` holds each time ratio and
    ``zeta`` is the port's rate ratio.
    """

    evse_id: str
    sessions: tuple[ChargingSession, ...]
    upsilons: tuple[float | None, ...]
    rhos: tuple[float, ...]
    zeta: float

    def ordering_holds(self, i: int, schedule_now: int) -> bool:
        """The demand-supply ordering between session ``i`` and the next one."""
        return ordering_holds(self.upsilons[i], self.upsilons[i + 1], schedule_now)

    def reward(self, i: int, schedule_now: int, risk: float) -> float:
        """The reward of deciding ``schedule_now`` on session ``i``."""
        return session_reward(self.zeta, self.rhos[i], risk,
                              self.ordering_holds(i, schedule_now))


def port_sessions(batch: SessionBatch) -> list[PortSessions]:
    """Each port's decision inputs, in the batch's port order.  A port whose
    rate ratio is undefined gets ``zeta`` 0, so its sessions earn no reward."""
    ports = []
    for evse_id in batch.evse_ids:
        group = batch.group(evse_id)
        try:
            zeta = rate_ratio(group)
        except SessionError:
            log.warning("EVSE %r: rate ratio undefined, reward ratio forced to 0",
                        evse_id)
            zeta = 0.0
        ports.append(PortSessions(evse_id, group,
                                  tuple(ordering_ratio(s) for s in group) + (None,),
                                  tuple(time_ratio(s) for s in group), zeta))
    return ports


@dataclass(frozen=True)
class Allocation:
    """Realized charging plan for one scheduled session."""

    energy_kwh: float
    rate_kw: float
    charge_minutes: float
    occupy_minutes: float
    allocated_energy_kwh: float
    allocated_minutes: float


def rational_allocation(session: ChargingSession, evse: EvseConfig) -> Allocation:
    """Deliver the session's actual need, then free the port.

    The rate is the session's own recorded delivery rate capped by the port
    supply and the vehicle's receiving capacity; the granted window is the
    requested window capped by the time the requested energy takes at that
    rate.  Occupancy is the realized charging time plus the switching
    overhead, which is where the idle-time saving over an as-requested
    allocation comes from.
    """
    cap = min(evse.supply_capacity_kw, session.receiving_capacity_kw)
    implied = session.implied_rate_kw
    rate = min(implied, cap) if implied > 0 else cap
    if session.energy_requested_kwh <= 0:
        log.warning("session %r requests zero energy; served instantly",
                    session.session_id)
        return Allocation(0.0, rate, 0.0, evse.switching_minutes, 0.0,
                          evse.switching_minutes)
    window = min(session.minutes_available, session.energy_requested_kwh / rate * 60.0)
    energy = min(session.energy_delivered_kwh, rate * window / 60.0)
    charge_minutes = energy / rate * 60.0
    return Allocation(
        energy_kwh=energy,
        rate_kw=rate,
        charge_minutes=charge_minutes,
        occupy_minutes=charge_minutes + evse.switching_minutes,
        allocated_energy_kwh=min(session.energy_requested_kwh, rate * window / 60.0),
        allocated_minutes=window + evse.switching_minutes,
    )


def as_requested_allocation(session: ChargingSession, evse: EvseConfig) -> Allocation:
    """Grant the inflated request verbatim: the port stays blocked for the
    whole requested window while the vehicle absorbs only its actual need."""
    cap = min(evse.supply_capacity_kw, session.receiving_capacity_kw)
    implied = session.implied_rate_kw
    rate = min(implied, cap) if implied > 0 else cap
    energy = min(session.energy_delivered_kwh, rate * session.minutes_available / 60.0)
    charge_minutes = energy / rate * 60.0 if rate > 0 else 0.0
    return Allocation(
        energy_kwh=energy,
        rate_kw=rate,
        charge_minutes=charge_minutes,
        occupy_minutes=max(session.minutes_available, charge_minutes),
        allocated_energy_kwh=session.energy_requested_kwh,
        allocated_minutes=session.minutes_available,
    )


@dataclass
class QueueEvent:
    """What happened to the head session at one transition."""

    session: ChargingSession
    kind: str                      # "scheduled" | "queued" | "voided"
    clock_minutes: float
    wait_minutes: float = 0.0
    allocation: Allocation | None = None


class EvseQueue:
    """FCFS queue for one port with a private clock in minutes.

    :meth:`present` is the one place that voids heads whose charging can no
    longer start inside their availability window, into ``voided``, and that
    moves the clock up to the head's arrival.  :meth:`transition` then acts on
    the presented head: scheduling pops it and realizes the caller's
    allocation, queueing keeps it and advances the clock one step.  Sessions
    are conserved: scheduled + queued + voided always equals the initial count.
    """

    def __init__(self, sessions, evse: EvseConfig, origin_minutes_fn,
                 step_minutes: float = DEFAULT_STEP_MINUTES):
        self.sessions = list(sessions)
        self.arrivals = [origin_minutes_fn(s) for s in self.sessions]
        self.evse = evse
        self.step_minutes = step_minutes
        self.position = 0           # index of the head session
        self.clock = self.arrivals[0] if self.sessions else 0.0
        self.voided: list[QueueEvent] = []

    def head(self) -> ChargingSession | None:
        return self.sessions[self.position] if self.position < len(self.sessions) else None

    def present(self) -> ChargingSession | None:
        """Void heads whose availability window has expired, then return the
        head, with the clock at or past its arrival; None once empty."""
        # Once started, a session always runs to completion.
        while self.position < len(self.sessions):
            head, arrival = self.sessions[self.position], self.arrivals[self.position]
            self.clock = max(self.clock, arrival)
            if self.clock <= arrival + head.minutes_available + 1e-9:
                return head
            log.debug("session %r voided: availability window expired unserved",
                      head.session_id)
            self.voided.append(QueueEvent(head, "voided", self.clock,
                                          wait_minutes=self.clock - arrival))
            self.position += 1
        return None

    def transition(self, schedule_now: int, allocation=None) -> QueueEvent:
        """Apply one decision to the presented head; returns its event."""
        head = self.head()
        if head is None:
            raise MdpError(f"EVSE {self.evse.evse_id!r}: transition on an empty queue")
        arrival = self.arrivals[self.position]
        if not arrival <= self.clock <= arrival + head.minutes_available + 1e-9:
            raise MdpError(f"session {head.session_id!r} is not presentable at "
                           f"t={self.clock:.1f} min")
        if schedule_now == 1:
            if allocation is None:
                raise MdpError(f"session {head.session_id!r}: scheduled without "
                               "an allocation")
            event = QueueEvent(head, "scheduled", self.clock,
                               wait_minutes=self.clock - arrival,
                               allocation=allocation)
            self.position += 1
            self.clock += allocation.occupy_minutes
        else:
            event = QueueEvent(head, "queued", self.clock,
                               wait_minutes=self.clock - arrival)
            self.clock += self.step_minutes
        return event
