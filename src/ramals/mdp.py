"""State encoding, decision table, allocations and queue dynamics.

Each arriving session is one decision point: schedule it now or keep it
queued.  The agent sees the session's six raw properties (requested energy
and window, the three timestamps, delivered energy) scaled into [0, 1]: one
row of :func:`state_matrix` per session.  The reward pays out only when the
demand-supply ordering between the current and the next queued session holds
under the chosen action, and shrinks with the site's normalized tail risk.
Training, the engine's reward and the policy's ordering override all read
one :func:`decision_table` per batch, whose columns hold every session's
ordering check and reward under each action.  An allocator maps a batch to
every session's charging plan at once, from the session and its port's
config alone, as one :class:`Allocation` of columns: each field is a list in
batch order, so session ``i``'s rate is ``allocation.rate_kw[i]``.

Training is a contextual bandit whose optimum is each session's larger table
reward, a tie scheduling.  Both actions share one reward before the ordering
check zeroes it, and one of the two checks always holds, so wherever every
session's larger reward is > 0 the optimum replays as always-schedule.  The
``(1 - risk)`` factor moves that shared reward alike for both actions, so no
risk in [0, 1) changes the optimum.

:class:`EvseQueue` is one port's FCFS queue over its rows of the batch:
:meth:`EvseQueue.present` voids expired heads into ``voided`` and exposes
the head, and :meth:`EvseQueue.transition` applies one decision to that
head, whose occupancy the caller reads from the allocation's
``occupy_minutes`` column.  Each void and each decision is one plain
``(row, clock, wait)`` tuple: the head's batch row, the clock in minutes
when it was voided, started or queued, and how long it had waited.
"""

from __future__ import annotations

import logging
from typing import NamedTuple, Sequence

import numpy as np

from .sessions import EvseConfig, SessionBatch, energy_ratios, port_rates, time_ratios

log = logging.getLogger(__name__)

ENERGY_NORM_KWH = 100.0
DURATION_NORM_MIN = 1440.0
STATE_DIM = 6
DEFAULT_STEP_MINUTES = 15.0
#: How far, in minutes, the engine's clocks may pass a bound they are
#: compared with: a head is acted on up to this long past its deadline.
CLOCK_TOLERANCE_MINUTES = 1e-9


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


class DecisionTable(NamedTuple):
    """Each session's ordering check and reward, (2, n) in batch order: row 0
    under scheduling, row 1 under queueing, training's action convention."""

    ordered: np.ndarray
    reward: np.ndarray


def decision_table(batch: SessionBatch, risk: float) -> DecisionTable:
    """The ordering check and the reward of every session under each action.

    The ordering compares a session's demand-supply index with the next one's
    on its port: the energy ratios when scheduling, their complements when
    queueing, a zero request counting with ratio 0.  It holds vacuously for a
    port's last session.  Where it fails the reward is zero; otherwise a unit
    port rate ratio ``zeta``, delivery over demand rate from
    :func:`ramals.sessions.port_rates`, earns ``1 + rho * (1 - risk)`` and any
    other ``zeta * rho * (1 - risk)``; ``zeta`` counts as 0 where the demand
    rate is not > 0 or the delivery rate is NaN.
    """
    for i in np.flatnonzero(batch.requested_kwh <= 0).tolist():
        log.warning("session %r: zero requested energy, demand-supply index forced to 0",
                    batch.session_ids[i])
    upsilon = energy_ratios(batch)
    index = np.stack((upsilon, 1.0 - upsilon))
    ordered = np.ones(index.shape, dtype=bool)
    ordered[:, :-1] = index[:, :-1] >= index[:, 1:]
    ordered[:, [rows.stop - 1 for rows in batch.slices]] = True
    demand, delivery = port_rates(batch)
    defined = (demand > 0) & ~np.isnan(delivery)
    for p in np.flatnonzero(~defined).tolist():
        log.warning("EVSE %r: rate ratio undefined, reward ratio forced to 0", batch.evse_ids[p])
    zeta = np.divide(delivery, demand, out=np.zeros(len(demand)), where=defined)[batch.port]
    gain = zeta * time_ratios(batch) * (1.0 - risk)
    reward = np.where(zeta == 1.0, 1.0 + gain, np.where(zeta != 0.0, gain, 0.0))
    return DecisionTable(ordered, np.where(ordered, reward, 0.0))


class Allocation(NamedTuple):
    """Every session's realized charging plan, one list per field in batch
    order: session ``i``'s rate is ``rate_kw[i]``."""

    energy_kwh: list[float]
    rate_kw: list[float]
    charge_minutes: list[float]
    occupy_minutes: list[float]
    allocated_energy_kwh: list[float]
    allocated_minutes: list[float]


def _capped_rates(batch: SessionBatch, evses: Sequence[EvseConfig]) -> np.ndarray:
    """Each session's recorded delivery rate capped by its port's supply and
    the vehicle's receiving capacity; the cap where it recorded none."""
    supply = np.array([evse.supply_capacity_kw for evse in evses])[batch.port]
    cap = np.minimum(supply, batch.receiving_kw)
    minutes = (batch.charge_end - batch.plug_in).astype(float)
    implied = np.divide(batch.delivered_kwh, minutes, out=np.zeros(len(batch)),
                        where=minutes > 0) * 60.0
    return np.where(implied > 0, np.minimum(implied, cap), cap)


def rational_allocation(batch: SessionBatch, evses: Sequence[EvseConfig]) -> Allocation:
    """Deliver each session's actual need, then free the port; ``evses`` are
    the configs of the batch's ports, in port order.

    The rate is the session's own recorded delivery rate capped by the port
    supply and the vehicle's receiving capacity; the granted window is the
    requested window capped by the time the requested energy takes at that
    rate.  Occupancy is the realized charging time plus the switching
    overhead, which is where the idle-time saving over an as-requested
    allocation comes from.  A session that requests no energy is served
    instantly: it holds the port for the switching overhead alone.
    """
    rate = _capped_rates(batch, evses)
    switching = np.array([evse.switching_minutes for evse in evses])[batch.port]
    requested, available = batch.requested_kwh, batch.minutes_available
    window = np.minimum(available, requested / rate * 60.0)
    energy = np.minimum(batch.delivered_kwh, rate * window / 60.0)
    charge_minutes = energy / rate * 60.0
    allocated = np.minimum(requested, rate * window / 60.0)
    occupy, granted = charge_minutes + switching, window + switching
    idle = requested <= 0
    energy[idle] = charge_minutes[idle] = allocated[idle] = 0.0
    occupy[idle] = granted[idle] = switching[idle]
    columns = (energy, rate, charge_minutes, occupy, allocated, granted)
    return Allocation(*(column.tolist() for column in columns))


def as_requested_allocation(batch: SessionBatch, evses: Sequence[EvseConfig]) -> Allocation:
    """Grant each session's inflated request verbatim: the port stays blocked
    for the whole requested window while the vehicle absorbs only its actual
    need."""
    rate = _capped_rates(batch, evses)
    available = batch.minutes_available
    energy = np.minimum(batch.delivered_kwh, rate * available / 60.0)
    charge_minutes = energy / rate * 60.0
    occupy = np.maximum(available, charge_minutes)
    columns = (energy, rate, charge_minutes, occupy, batch.requested_kwh, available)
    return Allocation(*(column.tolist() for column in columns))


#: Builds a named-tuple row from a tuple of its values in C: ``new_row(Cls,
#: values)`` is ``Cls(*values)`` without the class's generated ``__new__``, a
#: Python function that takes three to five times as long per row.
new_row = tuple.__new__


class EvseQueue:
    """FCFS queue for one port, the batch rows ``rows``, with a private clock
    in minutes.  The head is batch row ``position``, and the queue is empty
    once ``position`` reaches ``stop``.

    ``arrivals`` and ``deadlines`` hold each batch session's plug-in and the
    end of its availability window on the engine's clock.  :meth:`present`
    is the one place that voids heads whose charging can no longer start in
    their window, into ``voided``, and that moves the clock up to the head's
    arrival.  :meth:`transition` then acts on the presented head: scheduling
    pops it and holds the port for the caller's ``occupy_minutes``, its
    allocation's occupancy, and queueing keeps it and advances the clock one
    step.  Every session ends scheduled or voided.  Whether voids are logged
    is read once, when the queue is built for a replay.
    """

    def __init__(self, evse: EvseConfig, rows: slice, session_ids: list[str],
                 arrivals: list[float], deadlines: list[float],
                 step_minutes: float = DEFAULT_STEP_MINUTES):
        self.evse, self.session_ids, self.step_minutes = evse, session_ids, step_minutes
        self.arrivals, self.deadlines = arrivals, deadlines
        self.position, self.stop = rows.start, rows.stop  # the head's row, and the end
        self.clock = arrivals[rows.start] if rows.start < rows.stop else 0.0
        self.voided: list[tuple] = []
        self._log_voids = log.isEnabledFor(logging.DEBUG)

    def present(self) -> int | None:
        """Void heads whose availability window has expired, then return the
        head's row, with the clock at or past its arrival; None once empty."""
        # Once started, a session always runs to completion.
        i, clock, stop = self.position, self.clock, self.stop
        arrivals, deadlines = self.arrivals, self.deadlines
        while i < stop:
            arrival = arrivals[i]
            if arrival > clock:
                clock = arrival
            if clock <= deadlines[i] + CLOCK_TOLERANCE_MINUTES:
                break
            if self._log_voids:
                log.debug("session %r voided: availability window expired unserved",
                          self.session_ids[i])
            self.voided.append((i, clock, clock - arrival))
            i += 1
        self.position, self.clock = i, clock
        return i if i < stop else None

    def transition(self, schedule_now: int, occupy_minutes: float | None = None) -> tuple:
        """Apply one decision to the presented head; returns its ``(row,
        clock, wait)``.  A start holds the port for ``occupy_minutes``, its
        allocation's ``occupy_minutes[i]``, and is refused without one."""
        i, clock = self.position, self.clock
        if i >= self.stop:
            raise MdpError(f"EVSE {self.evse.evse_id!r}: transition on an empty queue")
        arrival = self.arrivals[i]
        if not arrival <= clock <= self.deadlines[i] + CLOCK_TOLERANCE_MINUTES:
            raise MdpError(f"session {self.session_ids[i]!r} is not presentable at "
                           f"t={clock:.1f} min")
        event = (i, clock, clock - arrival)
        if schedule_now == 1:
            if occupy_minutes is None:
                raise MdpError(f"session {self.session_ids[i]!r}: scheduled without an "
                               "allocation")
            self.position = i + 1
            self.clock = clock + occupy_minutes
        else:
            self.clock = clock + self.step_minutes
        return event
