"""Charging-session data model, ingestion, synthetic generation and rate formulas.

A charging session pairs the request tuple (energy requested in kWh, minutes
the vehicle is available) with the operational tuple (plug-in, charge-end and
unplug timestamps plus energy actually delivered).  Human-driven vehicles (CV)
tend to over-request both energy and time; autonomous vehicles (AV) request
exactly what they need.

Everything downstream (risk fitting, agent training, scheduling) reads a
:class:`SessionBatch`: one column per field, ports sorted by id, FCFS by
plug-in within a port (ties in input order), each port's rows one slice.
A timestamp is an int64 minute stamp, ``date.toordinal() * 1440 + hour * 60
+ minute``, so ``stamp % 1440`` is the minute of the day.  The row type
:class:`ChargingSession` is built only by tests, ``iter(batch)``,
``batch.group()`` and the per-record validator that :func:`parse_sessions`
falls back to for records not in canonical form or failing a column check.

Units: energy in kWh, rates in kW, durations in minutes unless a name says
otherwise.  A record's timestamp is ``YYYY-MM-DD``, then ``T`` or
whitespace, then ``HH:MM`` with optional ``:SS``; a trailing ``Z``, offset
or fraction is dropped and so are the seconds.  A canonical stamp, the form
the writer uses, is exactly ``YYYY-MM-DDTHH:MM``.
"""

from __future__ import annotations

import enum
import json
import logging
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from json.encoder import encode_basestring_ascii
from math import inf, isfinite
from sys import float_info

import numpy as np

log = logging.getLogger(__name__)

#: Receiving capacity assumed when the input data does not carry one (kW).
DEFAULT_RECEIVING_CAPACITY_KW = 50.0
_DAY = 1440  # minutes
_UNIX_EPOCH = date(1970, 1, 1).toordinal() * _DAY  # numpy's datetime64 minute 0

# strptime's own field patterns for "%Y-%m-%dT%H:%M[:%S]" and
# "%Y-%m-%d %H:%M[:%S]", whose "T" matches either case and whose space matches
# any whitespace run, with ASCII digits and whitespace only, as the column
# path takes them: strptime would also take other Unicode digits and spaces.
# The date constructor checks the ranges.
_TIMESTAMP = re.compile(
    r"(\d\d\d\d)-(1[0-2]|0[1-9]|[1-9])-(3[01]|[12]\d|0[1-9]|[1-9]| [1-9])"
    r"(?:[Tt]|\s+)(2[0-3]|[01]\d|\d):([0-5]\d|\d)(?::(6[01]|[0-5]\d|\d))?", re.ASCII)


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


@dataclass(frozen=True)
class EvseConfig:
    """One charging port."""

    evse_id: str
    supply_capacity_kw: float = 50.0
    switching_minutes: float = 5.0

    def __post_init__(self):
        if not 0 < self.supply_capacity_kw < inf:
            raise SessionError(f"EVSE {self.evse_id!r}: supply capacity must be finite and > 0")
        if not 0 <= self.switching_minutes < inf:
            raise SessionError(f"EVSE {self.evse_id!r}: switching minutes must be finite "
                               "and >= 0")


@dataclass(frozen=True)
class SiteConfig:
    """A site: one utility feed shared by several ports."""

    site_id: str
    dso_capacity_kw: float
    evses: tuple[EvseConfig, ...]

    def __post_init__(self):
        if not 0 < self.dso_capacity_kw < inf:
            raise SessionError("site capacity must be finite and > 0")
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


# The numpy columns of a batch, in ChargingSession's field order after the
# two ids; ``port`` indexes ``evse_ids`` and ``is_cv`` is the vehicle class.
_COLUMNS = ("port", "is_cv", "requested_kwh", "minutes_available", "plug_in", "charge_end",
            "unplug", "delivered_kwh", "receiving_kw")
_DTYPES = (np.intp, bool, float, float, np.int64, np.int64, np.int64, float, float)


class SessionBatch:
    """Sessions as columns: ports sorted by id, FCFS by plug-in within each
    port, ties in input order.

    ``evse_ids`` and ``slices`` give each port's id and its rows;
    ``session_ids`` is a list, and ``port``, ``is_cv``, ``requested_kwh``,
    ``minutes_available``, ``delivered_kwh``, ``receiving_kw`` and the minute
    stamps ``plug_in``, ``charge_end`` and ``unplug`` are arrays.  A batch is
    built from :class:`ChargingSession` rows, whose seconds and time zone are
    dropped, or from ``columns`` in input order: the session and EVSE ids,
    then ``_COLUMNS`` without ``port``.
    """

    def __init__(self, sessions=(), columns=None):
        if columns is None:
            rows = [(s.session_id, s.evse_id, s.vehicle_class is VehicleClass.CV,
                     s.energy_requested_kwh, s.minutes_available, _minutes(s.plug_in_time),
                     _minutes(s.charge_end_time), _minutes(s.unplug_time),
                     s.energy_delivered_kwh, s.receiving_capacity_kw) for s in sessions]
            columns = list(zip(*rows)) if rows else [()] * 10
        session_ids, evse_ids, *columns = columns
        self.evse_ids = tuple(sorted(set(evse_ids)))
        index = {evse_id: p for p, evse_id in enumerate(self.evse_ids)}
        port = np.fromiter(map(index.__getitem__, evse_ids), np.intp, len(evse_ids))
        columns = [np.asarray(c, dtype=t) for c, t in zip((port, *columns), _DTYPES)]
        order = np.lexsort((columns[_COLUMNS.index("plug_in")], port))
        for name, column in zip(_COLUMNS, columns):
            setattr(self, name, column[order])
        self.session_ids = [session_ids[i] for i in order.tolist()]
        bounds = np.searchsorted(self.port, np.arange(len(self.evse_ids) + 1)).tolist()
        self.slices = tuple(map(slice, bounds[:-1], bounds[1:]))

    def group(self, evse_id: str) -> tuple[ChargingSession, ...]:
        return tuple(self._rows(self.slices[self.evse_ids.index(evse_id)]))

    def _rows(self, rows: slice):
        for session_id, p, is_cv, *values in zip(
                self.session_ids[rows], *(getattr(self, name)[rows].tolist() for name in _COLUMNS)):
            values[2:5] = map(_datetime, values[2:5])
            yield ChargingSession(session_id, self.evse_ids[p],
                                  VehicleClass.CV if is_cv else VehicleClass.AV, *values)

    def __iter__(self):
        return self._rows(slice(None))

    def __len__(self) -> int:
        return len(self.session_ids)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SessionBatch) and self.evse_ids == other.evse_ids
                and self.session_ids == other.session_ids
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in _COLUMNS))

    def to_json_bytes(self) -> bytes:
        """The batch as a JSON array of canonical records, the inverse of
        :func:`parse_sessions`.

        The bytes are those of ``json.dumps(records, indent=1,
        sort_keys=True)`` plus a newline, written directly: each timestamp is
        ``YYYY-MM-DDTHH:MM``, its year padded to four digits.
        """
        evse_ids = [encode_basestring_ascii(evse_id) for evse_id in self.evse_ids]
        fields = [np.datetime_as_string((stamps - _UNIX_EPOCH).astype("datetime64[m]"),
                                        unit="m").tolist()
                  for stamps in (self.plug_in, self.unplug, self.charge_end)]
        fields.append([evse_ids[p] for p in self.port.tolist()])
        fields += [number_column(column.tolist()) for column in (
            self.delivered_kwh, self.requested_kwh, self.minutes_available, self.receiving_kw)]
        fields.append(list(map(encode_basestring_ascii, self.session_ids)))
        fields.append(["CV" if is_cv else "AV" for is_cv in self.is_cv.tolist()])
        records = ",\n".join(_RECORD % record for record in zip(*fields))
        return f"[\n{records}\n]\n".encode() if records else b"[]\n"


# One record of SessionBatch.to_json_bytes, keys in sorted order.
_RECORD = (' {\n  "connectionTime": "%s",\n  "disconnectTime": "%s",\n'
           '  "doneChargingTime": "%s",\n  "evseID": %s,\n  "kWhDelivered": %s,\n'
           '  "kWhRequested": %s,\n  "minutesAvailable": %s,\n'
           '  "receivingCapacityKW": %s,\n  "sessionID": %s,\n  "vehicleClass": "%s"\n }')
_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _minutes(t: datetime) -> int:
    """A datetime as a minute stamp; its seconds and time zone are dropped."""
    return t.toordinal() * _DAY + t.hour * 60 + t.minute


def _datetime(stamp: int) -> datetime:
    day, minute = divmod(stamp, _DAY)
    return datetime.fromordinal(day) + timedelta(minutes=minute)


def json_number(value) -> str:
    """``value`` as :func:`json.dumps` writes it: a float by ``float.__repr__``
    or as ``NaN``/``Infinity``/``-Infinity``, and anything else by json."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_CONSTANTS.get(text, text)
    return json.dumps(value)


def number_column(values) -> map:
    """A column of numbers, each as :func:`json_number` writes it."""
    # A float sum is finite only when every term is.
    if {*map(type, values)} == {float} and isfinite(sum(values)):
        return map(float.__repr__, values)
    return map(json_number, values)


def _stamp_minutes(raw: str) -> int | None:
    """The minute stamp of a timestamp string, or None if it does not parse."""
    text = raw.strip().replace("Z", "").split("+")[0].split(".")[0]
    found = _TIMESTAMP.fullmatch(text)
    if found is None:
        return None
    year, month, day, hour, minute, second = map(int, found.groups("0"))
    if second >= 60:  # the seconds are checked, then dropped
        return None
    try:
        return date(year, month, day).toordinal() * _DAY + hour * 60 + minute
    except ValueError:  # a day, or a year 0, out of range
        return None


def _parse_timestamp(raw, field_name: str, session_id: str) -> datetime:
    if not isinstance(raw, str):
        raise SessionError(f"session {session_id!r}: field {field_name!r} must be a string")
    stamp = _stamp_minutes(raw)
    if stamp is None:
        raise SessionError(f"session {session_id!r}: unparseable timestamp {raw!r} "
                           f"in {field_name!r}")
    return _datetime(stamp)


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


def _finite(value, key: str, session_id) -> float:
    """A record's numeric field as a float: it must be a finite JSON number
    (a bool or a numeric string is not); a :class:`SessionError` names the
    session and the field otherwise."""
    if type(value) is float:
        if isfinite(value):
            return value
    elif type(value) is not int:
        raise SessionError(f"session {session_id!r}: field {key!r} must be a number, "
                           f"got {value!r}")
    elif -float_info.max <= value <= float_info.max:  # float() overflows beyond
        return float(value)
    raise SessionError(f"session {session_id!r}: field {key!r} must be finite, got {value!r}")


def parse_sessions(json_bytes: bytes | str) -> SessionBatch:
    """Parse a JSON array of session records into a batch.

    Records that violate the timestamp ordering, miss a mandatory field,
    carry negative energies, hold anything but a finite JSON number in
    ``kWhRequested``, ``minutesAvailable``, ``kWhDelivered`` or
    ``receivingCapacityKW``, or repeat an earlier record's ``sessionID`` are
    rejected by raising :class:`SessionError` naming the offending record;
    nothing is dropped silently.

    Canonical records, as :meth:`SessionBatch.to_json_bytes` writes them, are
    read and checked column by column; a canonical timestamp is exactly
    ``YYYY-MM-DDTHH:MM``, and each timestamp column is converted by numpy at
    once.  Any other input, valid or not, goes through the per-record
    validator, which reads the ACN aliases and names the first bad record.
    """
    try:
        payload = json.loads(json_bytes)
    except json.JSONDecodeError as exc:
        raise SessionError(f"malformed session JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise SessionError("session JSON must be a top-level array")
    # This may be the text's last reference: freed before the columns are
    # made, it leaves no hole in the heap below them.
    del json_bytes
    batch = _canonical_batch(payload)
    return batch if batch is not None else _parse_records(payload)


_CLASSES = {"CV": True, "AV": False}
_NUMBER_KEYS = ("kWhRequested", "minutesAvailable")
_STAMP_KEYS = ("connectionTime", "doneChargingTime", "disconnectTime")


def _only(values, *types) -> bool:
    return set(map(type, values)) <= set(types)


def _canonical_batch(payload: list) -> SessionBatch | None:
    """The batch of canonical, valid records by whole-column checks; None
    for anything else."""
    try:
        session_ids, evse_ids, classes, *numbers = (
            [r[key] for r in payload]
            for key in ("sessionID", "evseID", "vehicleClass", *_NUMBER_KEYS, "kWhDelivered"))
        numbers.append([r.get("receivingCapacityKW", DEFAULT_RECEIVING_CAPACITY_KW)
                        for r in payload])
        texts = [[r[key] for r in payload] for key in _STAMP_KEYS]
        is_cv = [_CLASSES[c] for c in classes]
        if not (_only(session_ids, str) and all(session_ids) and _only(evse_ids, str)
                and len(set(session_ids)) == len(session_ids)
                and all(_only(column, float, int) for column in numbers)
                and all(_only(column, str) for column in texts)):
            return None
        requested, available, delivered, receiving = (np.array(c, dtype=float) for c in numbers)
    except (KeyError, TypeError, OverflowError):  # not canonical, or an int beyond float
        return None
    stamps = [_canonical_stamps(column) for column in texts]
    if any(column is None for column in stamps):
        return None
    plug_in, charge_end, unplug = stamps
    if not (all(np.isfinite(c).all() for c in (requested, available, delivered, receiving))
            and (requested >= 0).all() and (delivered >= 0).all()
            and (available > 0).all() and (receiving > 0).all()
            and (plug_in <= charge_end).all() and (charge_end <= unplug).all()):
        return None
    return SessionBatch(columns=(session_ids, evse_ids, is_cv, requested, available, plug_in,
                                 charge_end, unplug, delivered, receiving))


# The offsets of the digits and of the separators in "YYYY-MM-DDTHH:MM".
_STAMP_DIGITS = (0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15)
_STAMP_SEPARATORS = ((4, "-"), (7, "-"), (10, "T"), (13, ":"))


def _canonical_stamps(texts: list) -> np.ndarray | None:
    """The minute stamps of a column of ``YYYY-MM-DDTHH:MM`` strings, year
    not 0000, by one numpy conversion; None if any has another form or is no
    date."""
    if {*map(len, texts)} != {16}:
        return None
    # The strings as a grid of 16 characters a row, checked a grid column at a
    # time.  numpy's own parser would also take a sign or a space separator.
    grid = "".join(texts)
    digits = "".join([grid[k::16] for k in _STAMP_DIGITS])
    if not (digits.isascii() and digits.isdigit()
            and all(grid[k::16] == char * len(texts) for k, char in _STAMP_SEPARATORS)):
        return None
    try:
        stamps = np.array(texts).astype("datetime64[m]").view(np.int64) + _UNIX_EPOCH
    except ValueError:  # a month, day, hour or minute out of range
        return None
    # numpy reads a year 0000 too, as days before day 1 of year 1
    return stamps if (stamps >= _DAY).all() else None


def _parse_records(payload: list) -> SessionBatch:
    """The per-record validator: each record through the alias map and the
    :class:`ChargingSession` checks, in file order."""
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
        values = {}
        for key in ("evseID", *_NUMBER_KEYS, *_STAMP_KEYS, "kWhDelivered"):
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
        requested, available, delivered = (_finite(values[key], key, session_id)
                                           for key in (*_NUMBER_KEYS, "kWhDelivered"))
        capacity = DEFAULT_RECEIVING_CAPACITY_KW if receiving is None \
            else _finite(receiving, "receivingCapacityKW", session_id)
        plug_in, charge_end, unplug = (_parse_timestamp(values[key], key, session_id)
                                       for key in _STAMP_KEYS)
        sessions.append(ChargingSession(str(session_id), str(values["evseID"]), vehicle_class,
                                        requested, available, plug_in, charge_end, unplug,
                                        delivered, capacity))
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
    clocks = [_minutes(datetime.strptime(config.start, "%Y-%m-%dT%H:%M"))] * config.n_evses
    rows = []
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
    return SessionBatch(columns=list(zip(*rows)))


def _mean_rate(energy: np.ndarray, minutes: np.ndarray, name: str, kind: str) -> float:
    # the builtin sum, left to right as the outputs were pinned with
    if not len(minutes):
        raise SessionError(f"{name} rate needs at least one session")
    total_minutes = sum(minutes.tolist())
    if total_minutes <= 0:
        raise SessionError(f"{name} rate undefined: zero total {kind} minutes")
    return sum(energy.tolist()) / total_minutes * 60.0


def demand_rate_kw(batch: SessionBatch, rows: slice = slice(None)) -> float:
    """Average requested energy rate of the sessions in ``rows``: total kWh
    asked over total minutes asked, in kW."""
    return _mean_rate(batch.requested_kwh[rows], batch.minutes_available[rows],
                      "demand", "requested")


def delivery_rate_kw(batch: SessionBatch, rows: slice = slice(None)) -> float:
    """Average delivered energy rate of the sessions in ``rows`` over their
    recorded charging windows, in kW."""
    return _mean_rate(batch.delivered_kwh[rows],
                      (batch.charge_end[rows] - batch.plug_in[rows]).astype(float),
                      "delivery", "charging")


def rate_ratio(batch: SessionBatch, rows: slice = slice(None)) -> float:
    """Delivered over requested rate. Equals 1 exactly when the rates match."""
    demand = demand_rate_kw(batch, rows)
    if demand <= 0:
        raise SessionError("rate ratio undefined: zero demand rate")
    return delivery_rate_kw(batch, rows) / demand


def time_ratios(batch: SessionBatch) -> np.ndarray:
    """Fraction of each plugged-in window spent actually charging; in [0, 1]."""
    plugged = batch.unplug - batch.plug_in
    empty = np.flatnonzero(plugged <= 0)
    if empty.size:
        raise SessionError(f"session {batch.session_ids[empty[0]]!r}: zero plugged-in duration")
    return (batch.charge_end - batch.plug_in) / plugged


def energy_ratios(batch: SessionBatch) -> np.ndarray:
    """Delivered over requested energy of each session; 0 for a session that
    requests no energy."""
    return np.divide(batch.delivered_kwh, batch.requested_kwh, out=np.zeros(len(batch)),
                     where=batch.requested_kwh > 0)
