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
session with energy ratio 0 and holds each session's fields as plain Python
values, taken from the batch's columns once per port.

:class:`EvseQueue` is one port's FCFS queue: :meth:`EvseQueue.present` voids
expired heads into ``voided`` and exposes the head, and
:meth:`EvseQueue.transition` applies one decision to that head.  The records
a replay makes per session, :class:`Allocation` and :class:`QueueEvent`, are
named tuples: cheap to build, read by field name like any record.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .sessions import (EvseConfig, SessionBatch, SessionError, energy_ratios, rate_ratio,
                       time_ratios)

log = logging.getLogger(__name__)

ENERGY_NORM_KWH = 100.0
DURATION_NORM_MIN = 1440.0
STATE_DIM = 6
DEFAULT_STEP_MINUTES = 15.0


class MdpError(ValueError):
    """Raised for invalid decision inputs."""


def state_matrix(batch: SessionBatch) -> np.ndarray:
    """(n, 6) observations of the batch's sessions, one row per session in
    batch order.

    Component order: requested kWh, requested minutes, plug-in, charge-end and
    unplug clock times, delivered kWh.  Energies are scaled by 100 kWh,
    durations by 1440 minutes and timestamps by minutes-since-midnight over
    1440, clipped into [0, 1].
    """
    raw = np.column_stack((batch.requested_kwh / ENERGY_NORM_KWH,
                           batch.minutes_available / DURATION_NORM_MIN,
                           *(stamps % 1440 / DURATION_NORM_MIN
                             for stamps in (batch.plug_in, batch.charge_end, batch.unplug)),
                           batch.delivered_kwh / ENERGY_NORM_KWH))
    return np.clip(raw, 0.0, 1.0)


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
    """One port's decision inputs; decision ``i`` is about its session ``i``.

    Each per-session field is a list of plain Python values in FCFS order:
    the ids, the four request and delivery figures and ``charge_minutes``,
    the recorded charging time.  ``upsilons`` holds each session's energy
    ratio, then ``None`` for the last one's missing successor; ``rhos`` holds
    each time ratio and ``zeta`` is the port's rate ratio.
    """

    evse_id: str
    session_ids: list[str]
    requested_kwh: list[float]
    minutes_available: list[float]
    delivered_kwh: list[float]
    receiving_kw: list[float]
    charge_minutes: list[float]
    upsilons: tuple[float | None, ...]
    rhos: list[float]
    zeta: float

    def ordering_holds(self, i: int, schedule_now: int) -> bool:
        """The demand-supply ordering between session ``i`` and the next one."""
        return ordering_holds(self.upsilons[i], self.upsilons[i + 1], schedule_now)

    def reward(self, i: int, schedule_now: int, risk: float) -> float:
        """The reward of deciding ``schedule_now`` on session ``i``."""
        return session_reward(self.zeta, self.rhos[i], risk,
                              self.ordering_holds(i, schedule_now))


def port_sessions(batch: SessionBatch) -> list[PortSessions]:
    """Each port's decision inputs, in the batch's port order.  A session
    that requests no energy counts with energy ratio 0, and a port whose rate
    ratio is undefined gets ``zeta`` 0, so its sessions earn no reward."""
    for i in np.flatnonzero(batch.requested_kwh <= 0).tolist():
        log.warning("session %r: zero requested energy, demand-supply index forced to 0",
                    batch.session_ids[i])
    columns = (batch.requested_kwh, batch.minutes_available, batch.delivered_kwh,
               batch.receiving_kw, (batch.charge_end - batch.plug_in).astype(float),
               time_ratios(batch), energy_ratios(batch))
    ports = []
    for evse_id, rows in zip(batch.evse_ids, batch.slices):
        try:
            zeta = rate_ratio(batch, rows)
        except SessionError:
            log.warning("EVSE %r: rate ratio undefined, reward ratio forced to 0", evse_id)
            zeta = 0.0
        *fields, rhos, upsilons = (column[rows].tolist() for column in columns)
        ports.append(PortSessions(evse_id, batch.session_ids[rows], *fields,
                                  (*upsilons, None), rhos, zeta))
    return ports


class Allocation(NamedTuple):
    """Realized charging plan for one scheduled session."""

    energy_kwh: float
    rate_kw: float
    charge_minutes: float
    occupy_minutes: float
    allocated_energy_kwh: float
    allocated_minutes: float


def _rate(port: PortSessions, i: int, evse: EvseConfig) -> float:
    """Session ``i``'s recorded delivery rate capped by the port supply and
    the vehicle's receiving capacity; the cap when it recorded none."""
    cap = min(evse.supply_capacity_kw, port.receiving_kw[i])
    minutes = port.charge_minutes[i]
    implied = port.delivered_kwh[i] / minutes * 60.0 if minutes > 0 else 0.0
    return min(implied, cap) if implied > 0 else cap


def rational_allocation(port: PortSessions, i: int, evse: EvseConfig) -> Allocation:
    """Deliver session ``i``'s actual need, then free the port.

    The rate is the session's own recorded delivery rate capped by the port
    supply and the vehicle's receiving capacity; the granted window is the
    requested window capped by the time the requested energy takes at that
    rate.  Occupancy is the realized charging time plus the switching
    overhead, which is where the idle-time saving over an as-requested
    allocation comes from.
    """
    rate = _rate(port, i, evse)
    requested, available = port.requested_kwh[i], port.minutes_available[i]
    if requested <= 0:
        log.warning("session %r requests zero energy; served instantly", port.session_ids[i])
        return Allocation(0.0, rate, 0.0, evse.switching_minutes, 0.0,
                          evse.switching_minutes)
    window = min(available, requested / rate * 60.0)
    energy = min(port.delivered_kwh[i], rate * window / 60.0)
    charge_minutes = energy / rate * 60.0
    return Allocation(energy, rate, charge_minutes, charge_minutes + evse.switching_minutes,
                      min(requested, rate * window / 60.0), window + evse.switching_minutes)


def as_requested_allocation(port: PortSessions, i: int, evse: EvseConfig) -> Allocation:
    """Grant session ``i``'s inflated request verbatim: the port stays blocked
    for the whole requested window while the vehicle absorbs only its actual
    need."""
    rate = _rate(port, i, evse)
    available = port.minutes_available[i]
    energy = min(port.delivered_kwh[i], rate * available / 60.0)
    charge_minutes = energy / rate * 60.0 if rate > 0 else 0.0
    return Allocation(energy, rate, charge_minutes, max(available, charge_minutes),
                      port.requested_kwh[i], available)


class QueueEvent(NamedTuple):
    """What happened to the head session, the port's session ``index``, at
    one transition."""

    index: int
    kind: str                      # "scheduled" | "queued" | "voided"
    clock_minutes: float
    wait_minutes: float = 0.0
    allocation: Allocation | None = None


class EvseQueue:
    """FCFS queue for one port with a private clock in minutes.

    ``arrivals`` holds each session's plug-in as minutes on the engine's
    clock.  :meth:`present` is the one place that voids heads whose charging
    can no longer start inside their availability window, into ``voided``,
    and that moves the clock up to the head's arrival.  :meth:`transition`
    then acts on the presented head: scheduling pops it and realizes the
    caller's allocation, queueing keeps it and advances the clock one step.
    Sessions are conserved: scheduled + queued + voided always equals the
    initial count.
    """

    def __init__(self, port: PortSessions, evse: EvseConfig, arrivals: list[float],
                 step_minutes: float = DEFAULT_STEP_MINUTES):
        self.port = port
        self.arrivals = arrivals
        self.evse = evse
        self.step_minutes = step_minutes
        self.size = len(arrivals)
        self.position = 0           # index of the head session
        self.clock = arrivals[0] if arrivals else 0.0
        self.voided: list[QueueEvent] = []

    def head(self) -> int | None:
        """The head session's index in the port, or None once empty."""
        return self.position if self.position < self.size else None

    def present(self) -> int | None:
        """Void heads whose availability window has expired, then return the
        head's index, with the clock at or past its arrival; None once empty."""
        # Once started, a session always runs to completion.
        available = self.port.minutes_available
        i, clock = self.position, self.clock
        while i < self.size:
            arrival = self.arrivals[i]
            if arrival > clock:
                clock = arrival
            if clock <= arrival + available[i] + 1e-9:
                break
            log.debug("session %r voided: availability window expired unserved",
                      self.port.session_ids[i])
            self.voided.append(QueueEvent(i, "voided", clock, clock - arrival))
            i += 1
        self.position, self.clock = i, clock
        return i if i < self.size else None

    def transition(self, schedule_now: int, allocation=None) -> QueueEvent:
        """Apply one decision to the presented head; returns its event."""
        i = self.head()
        if i is None:
            raise MdpError(f"EVSE {self.evse.evse_id!r}: transition on an empty queue")
        arrival, session_id = self.arrivals[i], self.port.session_ids[i]
        if not arrival <= self.clock <= arrival + self.port.minutes_available[i] + 1e-9:
            raise MdpError(f"session {session_id!r} is not presentable at "
                           f"t={self.clock:.1f} min")
        if schedule_now == 1:
            if allocation is None:
                raise MdpError(f"session {session_id!r}: scheduled without an allocation")
            event = QueueEvent(i, "scheduled", self.clock, self.clock - arrival, allocation)
            self.position += 1
            self.clock += allocation.occupy_minutes
        else:
            event = QueueEvent(i, "queued", self.clock, self.clock - arrival)
            self.clock += self.step_minutes
        return event
