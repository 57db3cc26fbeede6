"""Charging-session data model, ingestion, synthetic generation and rate formulas.

A charging session pairs the request tuple (energy requested in kWh, minutes
the vehicle is available) with the operational tuple (plug-in, charge-end and
unplug timestamps plus energy actually delivered).  Human-driven vehicles (CV)
tend to over-request both energy and time; autonomous vehicles (AV) request
exactly what they need.

Everything downstream (risk fitting, agent training, scheduling) reads a
:class:`SessionBatch`: one column per field, ports sorted by id, FCFS by
plug-in within a port (ties in input order), each port's rows one slice;
the reward and the laxity risk read each port's rates from :func:`port_rates`.
A timestamp is an int64 minute stamp, ``date.toordinal() * 1440 + hour * 60
+ minute``, so ``stamp % 1440`` is the minute of the day.  Session files are
read by one parser, :func:`parse_sessions`, a field at a time: it reads each
field of every record into a column, resolves ACN-Data's field names only
for the records that lack the canonical key, and checks each column whole.

Synthetic batches come from :func:`generate_synthetic`, whose per-session
draw order is a stream contract: one ``standard_exponential()``, then
``random()`` for the energy, the rate and the vehicle class, then two more
``random()`` for a CV's inflations.  A seed's session file stays the same
bytes for as long as that order and the transforms its docstring states hold.

Units: energy in kWh, rates in kW, durations in minutes unless a name says
otherwise.  A record's timestamp is ``YYYY-MM-DD``, then ``T`` or
whitespace, then ``HH:MM`` with optional ``:SS``; a trailing ``Z``, offset
or fraction is dropped and so are the seconds.  A canonical stamp, the form
the writer uses, is exactly ``YYYY-MM-DDTHH:MM``.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from functools import reduce
from itertools import repeat
from json.encoder import encode_basestring_ascii
from math import inf, isfinite, nan
from operator import add, itemgetter
from sys import float_info
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

#: Receiving capacity assumed when the input data does not carry one (kW).
DEFAULT_RECEIVING_CAPACITY_KW = 50.0
_DAY = 1440  # minutes
_UNIX_EPOCH = date(1970, 1, 1).toordinal() * _DAY  # numpy's datetime64 minute 0
_LAST_STAMP = date(9999, 12, 31).toordinal() * _DAY + _DAY - 1  # 9999-12-31T23:59

# strptime's own field patterns for "%Y-%m-%dT%H:%M[:%S]" and
# "%Y-%m-%d %H:%M[:%S]", whose "T" matches either case and whose space matches
# any whitespace run, with ASCII digits and whitespace only, as the canonical
# stamps have them: strptime would also take other Unicode digits and spaces.
# The date constructor checks the ranges.
_TIMESTAMP = re.compile(
    r"(\d\d\d\d)-(1[0-2]|0[1-9]|[1-9])-(3[01]|[12]\d|0[1-9]|[1-9]| [1-9])"
    r"(?:[Tt]|\s+)(2[0-3]|[01]\d|\d):([0-5]\d|\d)(?::(6[01]|[0-5]\d|\d))?", re.ASCII)


class SessionError(ValueError):
    """Raised for malformed or inconsistent session data."""


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

    def port_configs(self, batch: SessionBatch) -> list[EvseConfig]:
        """The config of each of the batch's ports, in the batch's port order."""
        configs = {e.evse_id: e for e in self.evses}
        missing = [e for e in batch.evse_ids if e not in configs]
        if missing:
            raise SessionError(f"batch references EVSEs absent from site config: {missing}")
        return [configs[e] for e in batch.evse_ids]

    @property
    def evse_ids(self) -> tuple[str, ...]:
        return tuple(e.evse_id for e in self.evses)


# The numpy columns of a batch after the two ids; ``port`` indexes
# ``evse_ids`` and ``is_cv`` is the vehicle class.
_COLUMNS = ("port", "is_cv", "requested_kwh", "minutes_available", "plug_in", "charge_end",
            "unplug", "delivered_kwh", "receiving_kw")
_DTYPES = (np.intp, bool, float, float, np.int64, np.int64, np.int64, float, float)


SessionRow = NamedTuple("SessionRow", [("session_id", str), ("evse_id", str),
                                       ("receiving_capacity_kw", float)])


class SessionBatch:
    """Sessions as columns: ports sorted by id, FCFS by plug-in within each
    port, ties in input order.

    ``evse_ids`` and ``slices`` give each port's id and its rows;
    ``session_ids`` is a list, and ``port``, ``is_cv``, ``requested_kwh``,
    ``minutes_available``, ``delivered_kwh``, ``receiving_kw`` and the minute
    stamps ``plug_in``, ``charge_end`` and ``unplug`` are arrays.  A batch is
    built from ``columns`` in input order: the session and EVSE ids, then
    ``_COLUMNS`` without ``port``.
    """

    def __init__(self, columns):
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

    def __iter__(self):
        """Each session's id, EVSE id and receiving capacity, in batch order.

        The benchmark's tight-feed workload is the only reader; ROADMAP item 4,
        the benchmark refresh, removes this view."""
        return map(SessionRow, self.session_ids,
                   map(self.evse_ids.__getitem__, self.port.tolist()), self.receiving_kw.tolist())

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


_NONE = type(None)
_CLASSES = {"CV": True, "AV": False}
_STAMP_KEYS = ("connectionTime", "doneChargingTime", "disconnectTime")
_MANDATORY = ("evseID", "kWhRequested", "minutesAvailable", *_STAMP_KEYS, "kWhDelivered")
_USER_INPUTS = ("kWhRequested", "minutesAvailable")  # also read from userInputs[0]
# ACN-Data's names for a field, tried in order (userInputs holds it in entry 0)
_ALIASES = {"sessionID": ("_id",), "evseID": ("stationID", "spaceID"),
            **dict.fromkeys(_USER_INPUTS, ("userInputs",))}


def parse_sessions(json_bytes: bytes | str) -> SessionBatch:
    """Parse a JSON array of session records into a batch, a field at a time.

    A key that is absent or ``null`` misses its field; only a record that
    lacks the key itself has its ACN-Data alias (``_ALIASES``) read.  A
    missing ``vehicleClass`` is CV, with a warning, and a missing
    ``receivingCapacityKW`` the default.  Each check runs on whole columns,
    and nothing is dropped silently: a :class:`SessionError` names the first
    bad record in file order, at its first failing check of (1) an object,
    (2) an id (``record-<i>`` when empty) no earlier record has, (3) the
    mandatory fields present, (4) a class of CV or AV in any case, (5) the
    numbers finite JSON numbers, (6) the stamps strings that parse, and (7)
    plug-in <= charge end <= unplug, energies >= 0 and the window and
    receiving capacity > 0.
    """
    try:
        payload = json.loads(json_bytes)
    except (ValueError, RecursionError) as exc:  # also bytes that are not UTF-8, deep nesting
        raise SessionError(f"malformed session JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise SessionError("session JSON must be a top-level array")
    # This may be the text's last reference: freed before the columns are
    # made, it leaves no hole in the heap below them.
    del json_bytes
    # Each check's first bad record, in check order; the first of the earliest
    # record is the error.  A check may also mark a record that fails an
    # earlier one, as its input there is a stand-in.
    faults: list[tuple[int, str]] = []
    if not {*map(type, payload)} <= {dict}:
        i = next(i for i, record in enumerate(payload) if type(record) is not dict)
        faults.append((i, f"record #{i}: expected an object"))
        payload = payload[:i]

    ids, types = _field(payload, "sessionID")
    if not all(ids):
        ids = [session_id or f"record-{i}" for i, session_id in enumerate(ids)]
    keys = ids if types <= {str} else list(map(str, ids))
    if len(set(keys)) < len(keys):
        first: dict[str, int] = {}
        i = next(i for i, key in enumerate(keys) if first.setdefault(key, i) != i)
        faults.append((i, f"session {ids[i]!r}: duplicate id in records "
                          f"#{first[keys[i]]} and #{i}"))

    columns = {}
    for key in _MANDATORY:
        columns[key] = column, types = _field(payload, key)
        if _NONE in types:
            i = column.index(None)
            faults.append((i, f"session {ids[i]!r}: missing mandatory field {key!r}"))
    checked = len(faults)  # a record failing these is not warned of a missing class

    classes, types = _field(payload, "vehicleClass")
    unclassed = []
    if types <= {str} and {*classes} <= _CLASSES.keys():
        is_cv = list(map(_CLASSES.__getitem__, classes))
    else:
        unclassed = [i for i, raw in enumerate(classes) if raw is None]
        is_cv = [True if raw is None else _CLASSES.get(str(raw).upper()) for raw in classes]
        if None in is_cv:
            i = is_cv.index(None)
            faults.append((i, f"session {ids[i]!r}: vehicleClass must be CV or AV"))

    requested, available, delivered = (_finite(*columns[key], key, ids, faults)
                                       for key in ("kWhRequested", "minutesAvailable",
                                                   "kWhDelivered"))
    receiving = _finite(*_field(payload, "receivingCapacityKW"), "receivingCapacityKW", ids,
                        faults, missing=DEFAULT_RECEIVING_CAPACITY_KW)
    stamps = [_stamps(*columns[key], key, ids, faults) for key in _STAMP_KEYS]

    plug_in, charge_end, unplug = stamps
    inverted = (plug_in > charge_end) | (charge_end > unplug)
    for mask, problem in ((inverted, "timestamps must satisfy plug_in <= charge_end <= unplug"),
                          (requested < 0, "negative requested energy"),
                          (delivered < 0, "negative delivered energy"),
                          (available <= 0, "minutes_available must be > 0"),
                          (receiving <= 0, "receiving capacity must be > 0")):
        if mask.any():
            i = int(mask.argmax())
            if mask is inverted:
                problem += ", got " + " / ".join(  # datetime.min is minute stamp _DAY
                    str(datetime.min + timedelta(minutes=int(s[i]) - _DAY)) for s in stamps)
            faults.append((i, f"session {keys[i]!r}: {problem}"))

    error = min(faults, key=itemgetter(0), default=None)
    # A missing class is warned of for each record before the bad one, and
    # for the bad one too when it fails a check after the class check.
    reached = len(payload) if error is None else error[0] + (faults.index(error) >= checked)
    for i in unclassed:
        if i < reached:
            log.warning("session %r: no vehicleClass, assuming CV", ids[i])
    if error is not None:
        raise SessionError(error[1])
    evse_ids, types = columns["evseID"]
    return SessionBatch(columns=(keys, evse_ids if types <= {str} else list(map(str, evse_ids)),
                                 is_cv, requested, available, *stamps, delivered, receiving))


def _field(payload: list, key: str) -> tuple[list, set]:
    """``key`` of every record, None where it is missing, and the set of the
    values' types.  A record that lacks ``key`` has its alias read."""
    column = list(map(dict.get, payload, repeat(key)))
    types = {*map(type, column)}
    if _NONE in types and key in _ALIASES:
        for i, record in enumerate(payload):
            if column[i] is not None or key in record:
                continue
            if key in _USER_INPUTS:
                inputs = record.get("userInputs")
                if isinstance(inputs, list) and inputs and isinstance(inputs[0], dict):
                    column[i] = inputs[0].get(key)
            else:
                column[i] = next((record[a] for a in _ALIASES[key] if a in record), None)
        types = {*map(type, column)}
    return column, types


def _finite(column: list, types: set, key: str, ids: list, faults: list,
            missing: float = nan) -> np.ndarray:
    """A numeric column as floats, ``missing`` for None.  Its first value
    that is not a finite JSON number goes into ``faults``; each such is NaN."""
    if types == {float} and np.isfinite(values := np.array(column, dtype=float)).all():
        return values
    # an int is checked exactly: numpy rounds one just above the float range
    values = np.array([missing if value is None else value if type(value) in (float, int)
                       and -float_info.max <= value <= float_info.max else nan
                       for value in column], dtype=float)
    bad = np.isnan(values)
    if bad.any():
        i = int(bad.argmax())
        problem = "finite" if type(column[i]) in (float, int) else "a number"
        faults.append((i, f"session {ids[i]!r}: field {key!r} must be {problem}, "
                          f"got {column[i]!r}"))
    return values


def _stamps(texts: list, types: set, key: str, ids: list, faults: list) -> np.ndarray:
    """A timestamp column as minute stamps.  The first value that is not a
    string that parses goes into ``faults``."""
    if types == {str}:
        stamps = _canonical_stamps(texts)
        if stamps is not None:
            return stamps
    minutes = {text: _stamp_minutes(text) for text in {t for t in texts if type(t) is str}}
    stamps = [minutes[text] if type(text) is str else None for text in texts]
    if None in stamps:
        i = stamps.index(None)
        faults.append((i, f"session {ids[i]!r}: field {key!r} must be a string"
                       if type(texts[i]) is not str else
                       f"session {ids[i]!r}: unparseable timestamp {texts[i]!r} in {key!r}"))
        stamps = [stamp or _DAY for stamp in stamps]  # year 1 stands in for each bad one
    return np.array(stamps, dtype=np.int64)


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
        stamps = np.array(texts, dtype="datetime64[m]").view(np.int64) + _UNIX_EPOCH
    except ValueError:  # a month, day, hour or minute out of range
        return None
    # numpy reads a year 0000 too, as days before day 1 of year 1
    return stamps if (stamps >= _DAY).all() else None


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
        for name in ("mean_gap_minutes", "receiving_capacity_kw"):
            if not 0 < getattr(self, name) < inf:
                raise SessionError(f"{name} must be finite and > 0")
        for name in ("energy_kwh_range", "rate_kw_range", "energy_inflation", "time_inflation"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi < inf):
                raise SessionError(f"{name} must be an increasing positive finite pair")
        if _canonical_stamps([self.start]) is None:
            raise SessionError(f"start must be a YYYY-MM-DDTHH:MM timestamp, got {self.start!r}")


def _scaled(bounds: tuple[float, float], u: np.ndarray) -> np.ndarray:
    """Draws ``u`` in [0, 1) as values in ``bounds``, as ``Generator.uniform``
    makes them."""
    lo, hi = map(float, bounds)
    return lo + (hi - lo) * u


def generate_synthetic(config: GeneratorConfig, seed: int) -> SessionBatch:
    """Draw a synthetic batch; a pure function of (config, seed).  Knobs whose
    clocks overflow, or pass the year 9999, are refused by name.

    The stream contract: session ``i`` goes to port ``i % n_evses`` and
    draws, from ``default_rng(SeedSequence(seed))`` and in this order, one
    ``standard_exponential()`` for its gap after the port's previous arrival,
    then ``random()`` for its energy, its rate and its CV flag (CV when the
    draw is below ``cv_fraction``), and, for a CV only, two more ``random()``
    for its energy and time inflation.  A draw ``u`` for a range ``(lo, hi)``
    is the value ``lo + (hi - lo) * u``, as ``Generator.uniform`` makes it,
    and a gap is ``mean_gap_minutes`` times its draw, as
    ``Generator.exponential`` makes it; minute counts round half to even.
    The loop below only draws; every transform is a column.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    exponential, uniform = rng.standard_exponential, rng.random
    n, cv_fraction = config.n_sessions, config.cv_fraction
    draws, inflations = [], []
    record, inflate = draws.extend, inflations.extend
    for _ in range(n):
        draw = (exponential(), uniform(), uniform(), uniform())
        record(draw)
        if draw[3] < cv_fraction:
            inflate((uniform(), uniform()))
    e, u_energy, u_rate, u_class = np.array(draws).reshape(n, 4).T
    u_energy_inflation, u_time_inflation = np.array(inflations).reshape(-1, 2).T
    is_cv = u_class < cv_fraction
    try:
        with np.errstate(over="ignore"):  # a value past the float range is refused below
            gap = np.maximum(1.0, np.rint(float(config.mean_gap_minutes) * e))
            energy = _scaled(config.energy_kwh_range, u_energy)
            actual = np.maximum(1.0, np.rint(energy / _scaled(config.rate_kw_range, u_rate)
                                             * 60.0))
            requested, window = energy.copy(), actual.copy()
            requested[is_cv] *= _scaled(config.energy_inflation, u_energy_inflation)
            window[is_cv] = np.maximum(actual[is_cv], np.rint(
                actual[is_cv] * _scaled(config.time_inflation, u_time_inflation)))
        # Each count is a whole float, so one below 2**63 is an exact int64.
        if not (np.maximum(gap, window) < 2.0 ** 63).all():
            raise OverflowError
        # Each port's arrivals are its start plus the running sum of its gaps,
        # one port a column.  Every term is >= 0 and < 2**63, so the first sum
        # that passes 2**63 - 1 wraps to a negative one.
        ports, depth = config.n_evses, -(-n // config.n_evses)
        steps = np.zeros(depth * ports, np.int64)
        steps[:n] = gap
        steps[:ports] += _canonical_stamps([config.start])[0]
        arrival = steps.reshape(depth, ports).cumsum(axis=0).ravel()[:n]
        unplug = arrival + window.astype(np.int64)
        if min(arrival.min(), unplug.min()) < 0:
            raise OverflowError
        names = [f"{config.evse_prefix}-{p + 1}" for p in range(ports)]
        batch = SessionBatch(columns=(
            ["S%06d" % i for i in range(n)], (names * depth)[:n], is_cv, requested,
            window, arrival, arrival + actual.astype(np.int64), unplug, energy,
            np.full(n, config.receiving_capacity_kw, dtype=float)))
    except OverflowError:
        raise SessionError("session clocks overflow: mean_gap_minutes, energy_kwh_range, "
                           "rate_kw_range and time_inflation set them") from None
    if batch.unplug.max() > _LAST_STAMP:
        raise SessionError(f"sessions from start {config.start!r} run past 9999-12-31T23:59, "
                           "the last stamp a session file holds; start earlier or shrink "
                           "mean_gap_minutes")
    return batch


def ordered_sum(values) -> float:
    """``0 + v0 + v1 + ...``, added left to right: the builtin ``sum`` of
    floats up to Python 3.11.  Python 3.12 made that sum compensated, which
    moves the last digit of some totals; every pinned output was made with
    this one."""
    return reduce(add, values, 0)


def port_rates(batch: SessionBatch) -> tuple[np.ndarray, np.ndarray]:
    """Each port's demand and delivery rates in kW, two (P,) columns in port
    order: total requested kWh over total requested minutes, and total
    delivered kWh over total charging minutes, times 60; NaN where the
    minutes total 0 or less.  Each total is :func:`ordered_sum`'s."""
    def total(column: np.ndarray, rows: slice) -> float:
        # np.add.accumulate adds in order from v0, not 0 + v0: the two differ
        # only on rows that are all -0.0, whose -0.0 total + 0.0 turns to 0.0
        return float(np.add.accumulate(column[rows])[-1]) + 0.0

    charging = (batch.charge_end - batch.plug_in).astype(float)
    demand, delivery = (np.array([total(kwh, rows) / minutes_total * 60.0
                                  if (minutes_total := total(minutes, rows)) > 0 else nan
                                  for rows in batch.slices], dtype=float)
                        for kwh, minutes in ((batch.requested_kwh, batch.minutes_available),
                                             (batch.delivered_kwh, charging)))
    return demand, delivery


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
