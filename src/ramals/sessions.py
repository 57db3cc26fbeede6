"""Charging-session data model, ingestion, synthetic generation and rate formulas.

A charging session pairs the request tuple (energy requested in kWh, minutes
the vehicle is available) with the operational tuple (plug-in, charge-end and
unplug timestamps plus energy actually delivered).  Human-driven vehicles (CV)
tend to over-request both energy and time; autonomous vehicles (AV) request
exactly what they need.  Everything downstream (risk fitting, agent training,
scheduling) consumes the batch type defined here.

Units: energy in kWh, rates in kW, durations in minutes unless a name says
otherwise.  Timestamps are stored at minute resolution: a record's timestamp
is ``YYYY-MM-DD``, then ``T`` or whitespace, then ``HH:MM`` with optional
``:SS``; a trailing ``Z``, offset or fraction is dropped and so are the
seconds.
"""

from __future__ import annotations

import enum
import json
import logging
import re
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

log = logging.getLogger(__name__)

#: Receiving capacity assumed when the input data does not carry one (kW).
DEFAULT_RECEIVING_CAPACITY_KW = 50.0

# strptime's own field patterns for "%Y-%m-%dT%H:%M[:%S]" and
# "%Y-%m-%d %H:%M[:%S]", whose "T" matches either case and whose space matches
# any whitespace run.  The datetime constructor checks the ranges.
_TIMESTAMP = re.compile(
    r"(\d\d\d\d)-(1[0-2]|0[1-9]|[1-9])-(3[01]|[12]\d|0[1-9]|[1-9]| [1-9])"
    r"(?:[Tt]|\s+)(2[0-3]|[01]\d|\d):([0-5]\d|\d)(?::(6[01]|[0-5]\d|\d))?")


class SessionError(ValueError):
    """Raised for malformed or inconsistent session data."""


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

    @property
    def actual_minutes(self) -> float:
        """Charging duration: charge_end - plug_in."""
        return (self.charge_end_time - self.plug_in_time).total_seconds() / 60.0

    @property
    def plugged_minutes(self) -> float:
        """Port occupancy: unplug - plug_in."""
        return (self.unplug_time - self.plug_in_time).total_seconds() / 60.0

    @property
    def implied_rate_kw(self) -> float:
        """Average delivery rate over the recorded charging window (kW)."""
        minutes = self.actual_minutes
        if minutes <= 0:
            return 0.0
        return self.energy_delivered_kwh / minutes * 60.0

    def to_record(self) -> dict:
        """Canonical JSON-ready record (inverse of parsing)."""
        return {
            "sessionID": self.session_id,
            "evseID": self.evse_id,
            "vehicleClass": self.vehicle_class.value,
            "kWhRequested": self.energy_requested_kwh,
            "minutesAvailable": self.minutes_available,
            "connectionTime": self.plug_in_time.strftime("%Y-%m-%dT%H:%M"),
            "doneChargingTime": self.charge_end_time.strftime("%Y-%m-%dT%H:%M"),
            "disconnectTime": self.unplug_time.strftime("%Y-%m-%dT%H:%M"),
            "kWhDelivered": self.energy_delivered_kwh,
            "receivingCapacityKW": self.receiving_capacity_kw,
        }


@dataclass(frozen=True)
class EvseConfig:
    """One charging port."""

    evse_id: str
    supply_capacity_kw: float = 50.0
    switching_minutes: float = 5.0

    def __post_init__(self):
        if self.supply_capacity_kw <= 0:
            raise SessionError(f"EVSE {self.evse_id!r}: supply capacity must be > 0")
        if self.switching_minutes < 0:
            raise SessionError(f"EVSE {self.evse_id!r}: switching minutes must be >= 0")


@dataclass(frozen=True)
class SiteConfig:
    """A site: one utility feed shared by several ports."""

    site_id: str
    dso_capacity_kw: float
    evses: tuple[EvseConfig, ...]

    def __post_init__(self):
        if self.dso_capacity_kw <= 0:
            raise SessionError("site capacity must be > 0")
        ids = [e.evse_id for e in self.evses]
        if len(set(ids)) != len(ids):
            raise SessionError("duplicate EVSE ids in site config")

    def evse(self, evse_id: str) -> EvseConfig:
        for e in self.evses:
            if e.evse_id == evse_id:
                return e
        raise SessionError(f"unknown EVSE {evse_id!r}")

    @property
    def evse_ids(self) -> tuple[str, ...]:
        return tuple(e.evse_id for e in self.evses)


class SessionBatch:
    """Sessions grouped by EVSE, FCFS-ordered by plug-in time within each group."""

    def __init__(self, sessions):
        groups: dict[str, list[ChargingSession]] = {}
        for s in sessions:
            groups.setdefault(s.evse_id, []).append(s)
        for evse_id in groups:
            groups[evse_id].sort(key=lambda s: s.plug_in_time)
        self._groups: dict[str, tuple[ChargingSession, ...]] = {
            evse_id: tuple(groups[evse_id]) for evse_id in sorted(groups)
        }

    @property
    def evse_ids(self) -> tuple[str, ...]:
        return tuple(self._groups)

    def group(self, evse_id: str) -> tuple[ChargingSession, ...]:
        return self._groups[evse_id]

    def __iter__(self):
        for evse_id in self._groups:
            yield from self._groups[evse_id]

    def __len__(self) -> int:
        return sum(len(g) for g in self._groups.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, SessionBatch) and self._groups == other._groups

    def to_json_bytes(self) -> bytes:
        records = [s.to_record() for s in self]
        return (json.dumps(records, indent=1, sort_keys=True) + "\n").encode()


def _parse_timestamp(raw, field_name: str, session_id: str) -> datetime:
    if not isinstance(raw, str):
        raise SessionError(f"session {session_id!r}: field {field_name!r} must be a string")
    text = raw.strip().replace("Z", "").split("+")[0].split(".")[0]
    found = _TIMESTAMP.fullmatch(text)
    if found is not None:
        year, month, day, hour, minute, second = map(int, found.groups("0"))
        if second < 60:  # the seconds are checked, then dropped
            try:
                return datetime(year, month, day, hour, minute)
            except ValueError:  # a day, or a year 0, out of range
                pass
    raise SessionError(f"session {session_id!r}: unparseable timestamp {raw!r} in {field_name!r}")


def _lookup(record: dict, key: str):
    """Resolve a schema field, applying the ACN alias map.

    Aliases: stationID/spaceID -> evseID, _id -> sessionID, and the nested
    userInputs[0] block for kWhRequested / minutesAvailable.
    """
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


def parse_sessions(json_bytes: bytes | str) -> SessionBatch:
    """Parse a JSON array of session records into a batch.

    Records that violate the timestamp ordering, miss a mandatory field,
    carry negative energies or repeat an earlier record's ``sessionID`` are
    rejected by raising :class:`SessionError` naming the offending record;
    nothing is dropped silently.
    """
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
        session = ChargingSession(
            session_id=str(session_id),
            evse_id=str(values["evseID"]),
            vehicle_class=vehicle_class,
            energy_requested_kwh=float(values["kWhRequested"]),
            minutes_available=float(values["minutesAvailable"]),
            plug_in_time=_parse_timestamp(values["connectionTime"], "connectionTime", session_id),
            charge_end_time=_parse_timestamp(values["doneChargingTime"], "doneChargingTime",
                                             session_id),
            unplug_time=_parse_timestamp(values["disconnectTime"], "disconnectTime", session_id),
            energy_delivered_kwh=float(values["kWhDelivered"]),
            receiving_capacity_kw=(DEFAULT_RECEIVING_CAPACITY_KW if receiving is None
                                   else float(receiving)),
        )
        sessions.append(session)
    return SessionBatch(sessions)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for synthetic batches.

    CV requests inflate the actual need: requested energy is actual times a
    uniform draw from ``energy_inflation`` and the requested window is the
    actual charging time times a draw from ``time_inflation``.  AV requests
    match actuals exactly.
    """

    n_sessions: int
    cv_fraction: float = 0.7
    n_evses: int = 4
    evse_prefix: str = "EVSE"
    start: str = "2026-01-05T06:00"
    mean_gap_minutes: float = 60.0
    energy_kwh_range: tuple[float, float] = (4.0, 40.0)
    rate_kw_range: tuple[float, float] = (3.0, 45.0)
    energy_inflation: tuple[float, float] = (1.0, 2.0)
    time_inflation: tuple[float, float] = (1.0, 3.0)
    receiving_capacity_kw: float = DEFAULT_RECEIVING_CAPACITY_KW

    def __post_init__(self):
        if self.n_sessions <= 0:
            raise SessionError("generator needs at least one session")
        if not 0.0 <= self.cv_fraction <= 1.0:
            raise SessionError("cv_fraction must lie in [0, 1]")
        if self.n_evses <= 0:
            raise SessionError("generator needs at least one EVSE")
        if self.mean_gap_minutes <= 0:
            raise SessionError("mean_gap_minutes must be > 0")
        for name in ("energy_kwh_range", "rate_kw_range", "energy_inflation", "time_inflation"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise SessionError(f"{name} must be an increasing positive pair")


def generate_synthetic(config: GeneratorConfig, seed: int) -> SessionBatch:
    """Draw a synthetic batch; a pure function of (config, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    start = datetime.strptime(config.start, "%Y-%m-%dT%H:%M")
    clocks = {i: start for i in range(config.n_evses)}
    sessions = []
    for i in range(config.n_sessions):
        evse_idx = i % config.n_evses
        evse_id = f"{config.evse_prefix}-{evse_idx + 1}"
        gap = max(1, int(round(rng.exponential(config.mean_gap_minutes))))
        arrival = clocks[evse_idx] + timedelta(minutes=gap)

        energy = rng.uniform(*config.energy_kwh_range)
        rate = rng.uniform(*config.rate_kw_range)
        actual_minutes = max(1, int(round(energy / rate * 60.0)))
        is_cv = rng.random() < config.cv_fraction

        if is_cv:
            requested = energy * rng.uniform(*config.energy_inflation)
            window = max(actual_minutes,
                         int(round(actual_minutes * rng.uniform(*config.time_inflation))))
            unplug = arrival + timedelta(minutes=window)
        else:
            requested = energy
            window = actual_minutes
            unplug = arrival + timedelta(minutes=actual_minutes)

        sessions.append(ChargingSession(
            session_id=f"S{i:06d}",
            evse_id=evse_id,
            vehicle_class=VehicleClass.CV if is_cv else VehicleClass.AV,
            energy_requested_kwh=float(requested),
            minutes_available=float(window),
            plug_in_time=arrival,
            charge_end_time=arrival + timedelta(minutes=actual_minutes),
            unplug_time=unplug,
            energy_delivered_kwh=float(energy),
            receiving_capacity_kw=config.receiving_capacity_kw,
        ))
        clocks[evse_idx] = arrival
    return SessionBatch(sessions)


def demand_rate_kw(sessions) -> float:
    """Average requested energy rate: total kWh asked over total minutes asked, in kW."""
    sessions = list(sessions)
    if not sessions:
        raise SessionError("demand rate needs at least one session")
    total_minutes = sum(s.minutes_available for s in sessions)
    if total_minutes <= 0:
        raise SessionError("demand rate undefined: zero total requested minutes")
    return sum(s.energy_requested_kwh for s in sessions) / total_minutes * 60.0


def delivery_rate_kw(sessions) -> float:
    """Average delivered energy rate over the recorded charging windows, in kW."""
    sessions = list(sessions)
    if not sessions:
        raise SessionError("delivery rate needs at least one session")
    total_minutes = sum(s.actual_minutes for s in sessions)
    if total_minutes <= 0:
        raise SessionError("delivery rate undefined: zero total charging minutes")
    return sum(s.energy_delivered_kwh for s in sessions) / total_minutes * 60.0


def rate_ratio(sessions) -> float:
    """Delivered over requested rate. Equals 1 exactly when the rates match."""
    demand = demand_rate_kw(sessions)
    if demand <= 0:
        raise SessionError("rate ratio undefined: zero demand rate")
    return delivery_rate_kw(sessions) / demand


def time_ratio(session: ChargingSession) -> float:
    """Fraction of the plugged-in window spent actually charging; in [0, 1]."""
    plugged = session.plugged_minutes
    if plugged <= 0:
        raise SessionError(f"session {session.session_id!r}: zero plugged-in duration")
    return session.actual_minutes / plugged


def energy_ratio(session: ChargingSession) -> float:
    """Delivered over requested energy."""
    if session.energy_requested_kwh <= 0:
        raise SessionError(f"session {session.session_id!r}: zero requested energy")
    return session.energy_delivered_kwh / session.energy_requested_kwh
