"""Session model, parsing, synthetic generation and the rate/ratio formulas."""

import json
import math
import re
from datetime import datetime, timedelta, timezone
from sys import float_info
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramals.sessions as sessions_module
from ramals import (
    GeneratorConfig,
    SessionBatch,
    SessionError,
    energy_ratios,
    generate_synthetic,
    parse_sessions,
    port_rates,
    time_ratios,
)

from ramals.sessions import ordered_sum

from helpers import JSON_NUMBERS, JSON_TEXT, T0, batch_of, make_session, rate_batches
from oracles import (ChargingSession, VehicleClass, _datetime, port_delivery_rate_kw,
                     port_demand_rate_kw, rows, session_json_bytes)
from oracles import generate_synthetic as oracle_generate
from oracles import _parse_timestamp as strptime_parse
from oracles import parse_sessions as per_record_parse


def record(**overrides):
    """One valid canonical record, with ``overrides``."""
    base = {
        "sessionID": "r1", "evseID": "EVSE-1", "vehicleClass": "CV",
        "kWhRequested": 15.0, "minutesAvailable": 120.0,
        "connectionTime": "2026-01-05T08:00",
        "doneChargingTime": "2026-01-05T09:00",
        "disconnectTime": "2026-01-05T10:00",
        "kWhDelivered": 8.794,
    }
    base.update(overrides)
    return base


class TestChargingSession:
    """The checks on one session's values, in the words of the oracle's row."""

    def test_rejects_timestamp_inversion(self):
        bad = record(doneChargingTime="2026-01-05T07:59")
        with pytest.raises(SessionError, match=re.escape(
                "session 'r1': timestamps must satisfy plug_in <= charge_end <= unplug, got "
                "2026-01-05 08:00:00 / 2026-01-05 07:59:00 / 2026-01-05 10:00:00")):
            parse_sessions(json.dumps([bad]))

    @staticmethod
    def assert_rejected(key, value, message):
        """A record with ``value`` in ``key`` is refused by both parsers with
        ``message``, its id as a string."""
        text = json.dumps([record(sessionID=7, **{key: value})])
        for parse in (parse_sessions, per_record_parse):
            with pytest.raises(SessionError, match=re.escape(f"session '7': {message}")):
                parse(text)

    def test_rejects_negative_energy(self):
        self.assert_rejected("kWhRequested", -1.0, "negative requested energy")
        self.assert_rejected("kWhDelivered", -1e-300, "negative delivered energy")

    def test_rejects_window_or_capacity_not_positive(self):
        self.assert_rejected("minutesAvailable", 0, "minutes_available must be > 0")
        self.assert_rejected("receivingCapacityKW", -0.0, "receiving capacity must be > 0")

    def test_durations(self):
        batch = batch_of([make_session(charge_min=90, plugged_min=120)])
        assert (batch.charge_end - batch.plug_in).tolist() == [90]
        assert (batch.unplug - batch.plug_in).tolist() == [120]


class TestParseSessions:
    record = staticmethod(record)

    def test_single_record_energy_fields(self):
        batch = parse_sessions(json.dumps([self.record()]))
        assert batch.requested_kwh.tolist() == [15.0]
        assert batch.delivered_kwh.tolist() == [8.794]

    def test_empty_array(self):
        assert len(parse_sessions(b"[]")) == 0

    def test_timestamp_inversion_rejected_with_name(self):
        bad = self.record(disconnectTime="2026-01-05T07:00")
        with pytest.raises(SessionError, match="r1"):
            parse_sessions(json.dumps([bad]))

    def test_malformed_json(self):
        with pytest.raises(SessionError, match="malformed"):
            parse_sessions(b"{not json")

    @pytest.mark.parametrize("text", [b'[{"sessionID": "\xff"}]', b"[" * 200_000],
                             ids=["not-utf-8", "deep"])
    def test_undecodable_json_malformed(self, text):
        """Bytes that are not UTF-8, or nesting deeper than the decoder
        recurses, are malformed JSON like any other."""
        with pytest.raises(SessionError, match="^malformed session JSON: "):
            parse_sessions(text)

    def test_missing_mandatory_field(self):
        bad = self.record()
        del bad["kWhDelivered"]
        with pytest.raises(SessionError, match="kWhDelivered"):
            parse_sessions(json.dumps([bad]))

    def test_acn_alias_map(self):
        record = self.record(stationID="ACN-7")
        del record["evseID"]
        del record["kWhRequested"]
        del record["minutesAvailable"]
        record["userInputs"] = [{"kWhRequested": 20.0, "minutesAvailable": 240.0}]
        batch = parse_sessions(json.dumps([record]))
        assert batch.evse_ids == ("ACN-7",)
        assert batch.requested_kwh.tolist() == [20.0]
        assert batch.minutes_available.tolist() == [240.0]

    def test_missing_vehicle_class_defaults_to_cv(self, caplog):
        record = self.record()
        del record["vehicleClass"]
        with caplog.at_level("WARNING"):
            batch = parse_sessions(json.dumps([record]))
        assert batch.is_cv.tolist() == [True]
        assert "assuming CV" in caplog.text

    def test_receiving_capacity_default(self):
        batch = parse_sessions(json.dumps([self.record()]))
        assert batch.receiving_kw.tolist() == [50.0]

    def test_roundtrip(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=30), seed=3)
        again = parse_sessions(batch.to_json_bytes())
        assert again == batch

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity",
                                       pytest.param("1" + "0" * 400, id="int-1e400"),
                                       # numpy rounds this int to the largest float
                                       pytest.param(str(int(float_info.max) + 1),
                                                    id="int-above-float-max")])
    @pytest.mark.parametrize("key", ["kWhRequested", "kWhDelivered", "minutesAvailable",
                                     "receivingCapacityKW"])
    def test_non_finite_number_rejected_with_name(self, key, value):
        text = json.dumps([self.record(sessionID="r0"), self.record(**{key: 1.0})])
        text = text.replace(f'"{key}": 1.0', f'"{key}": {value}')
        with pytest.raises(SessionError, match=f"session 'r1': field '{key}' must be finite, "
                                               f"got {json.loads(value)!r}"):
            parse_sessions(text)

    @pytest.mark.parametrize("value", ["abc", [1], "15", True])
    @pytest.mark.parametrize("key", ["kWhRequested", "kWhDelivered", "minutesAvailable",
                                     "receivingCapacityKW"])
    def test_non_number_rejected_with_name(self, key, value):
        text = json.dumps([self.record(sessionID="r0"), self.record(**{key: value})])
        with pytest.raises(SessionError, match=re.escape(
                f"session 'r1': field '{key}' must be a number, got {value!r}")):
            parse_sessions(text)

    def test_duplicate_session_id_names_both_records(self):
        records = [self.record(sessionID=f"r{i}", evseID=f"EVSE-{i % 2}")
                   for i in range(6)]
        records[4]["sessionID"] = "r1"
        with pytest.raises(SessionError, match=r"'r1': duplicate id in records #1 and #4"):
            parse_sessions(json.dumps(records))


# the fullwidth and Arabic-Indic digits the tests draw, and their ASCII values
ASCII_DIGITS = str.maketrans({chr(zero + k): str(k) for zero in (0xFF10, 0x0660)
                              for k in range(10)})


def parse(text):
    """The datetime of a stamp by the package's parser, or None."""
    stamp = sessions_module._stamp_minutes(text)
    return None if stamp is None else _datetime(stamp)


class TestParseTimestamp:
    @pytest.mark.parametrize("text", [
        "2026-01-05T06:07Z", "2026-01-05T06:07+01:00", "2026-01-05T06:07:08.123",
        "2026-01-05T06:07:08", "2026-01-05 06:07", "2026-01-05\t06:07",
        "2026-01-05 \t 06:07:59", "2026-01-05t06:07", "2026-1-5T6:7", "2026-01- 5T06:07",
        "  2026-01-05T06:07:08.5Z  ",
    ])
    def test_accepted_forms(self, text):
        assert parse(text) == strptime_parse(text, "connectionTime", "s") \
            == datetime(2026, 1, 5, 6, 7)

    @pytest.mark.parametrize("text", [
        "2026-01-05", "2026-01-05T06", "20260105T0600", "2026-01-05x06:00",
        "2026-01-05T06:00:60", "2026-02-30T06:00", "2026-01-05T24:00", "0000-01-05T06:00",
        "2026-01-05T06:00:", "2026-01-05T06:00 7", "2026-01-05T6:000", "",
    ])
    def test_rejected_forms(self, text):
        assert parse(text) is None
        with pytest.raises(SessionError, match="unparseable timestamp"):
            strptime_parse(text, "connectionTime", "s")

    @pytest.mark.parametrize("text", [
        "2026-01-05T0٠:41", "２026-01-05T06:07", "2026-01-1٥T06:07",
        "2026-01-05　06:07",
    ])
    def test_non_ascii_digit_or_space_rejected(self, text):
        """An Arabic-Indic or fullwidth digit, or an ideographic space, is no
        part of a stamp, in the hour, the year, the day or the separator.
        strptime takes each of them, as its ASCII form: the one departure
        from the oracle."""
        assert parse(text) is None
        assert strptime_parse(text, "connectionTime", "s") == strptime_parse(
            text.translate(ASCII_DIGITS).replace("\u3000", " "), "connectionTime", "s")
        with pytest.raises(SessionError, match=re.escape(
                f"session 'r1': unparseable timestamp {text!r} in 'connectionTime'")):
            parse_sessions(json.dumps([record(connectionTime=text)]))

    def test_non_string_rejected(self):
        with pytest.raises(SessionError, match=re.escape(
                "session 'r1': field 'connectionTime' must be a string")):
            parse_sessions(json.dumps([record(connectionTime=202601050600)]))


def stamp_parts():
    """The pieces of a valid stamp, each in one of the widths and paddings
    the formats allow."""
    def number(lo, hi, pad=("{:02d}", "{:d}")):
        return st.tuples(st.integers(lo, hi), st.sampled_from(pad)).map(
            lambda pair: pair[1].format(pair[0]))
    return st.tuples(number(1, 9999, ("{:04d}",)), number(1, 12),
                     number(1, 31, ("{:02d}", "{:d}", "{:>2d}")),
                     st.sampled_from(["T", "t", " ", "\t", "  ", " \t"]), number(0, 23),
                     number(0, 59), st.one_of(st.just(""), number(0, 61).map(":".__add__)),
                     st.sampled_from(["", "Z", "+01:00", ".123", ".5Z"]))


STAMP_ALPHABET = "0123456789-:TtZ+. \t"


@st.composite
def mutated_stamps(draw):
    year, month, day, sep, hour, minute, second, suffix = draw(stamp_parts())
    text = f"{year}-{month}-{day}{sep}{hour}:{minute}{second}{suffix}"
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = draw(st.sampled_from(STAMP_ALPHABET))
        if edit == "insert":
            text = text[:at] + char + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + char + text[at + 1:]
    return text


@given(text=st.one_of(mutated_stamps(), st.text(alphabet=STAMP_ALPHABET, max_size=24)))
@settings(max_examples=500, deadline=None)
def test_parser_agrees_with_strptime(text):
    """The one-pattern parser gives the datetime ``strptime`` gave over its
    four formats, or both reject the text."""
    try:
        want = strptime_parse(text, "connectionTime", "s")
    except SessionError:
        want = None
    assert parse(text) == want


STAMP_KEYS = ("connectionTime", "doneChargingTime", "disconnectTime")
NUMBERS = [None, True, "15", "abc", [1], 0, 0.0, -0.0, -1.0, 7, 10**20, 10**400,
           math.nan, math.inf, -math.inf]
STAMPS = [None, 202601050600, "2026-02-30T06:00", "0000-01-05T06:00", "2026-01-05T24:00",
          "2026-01-05 06:07:08Z", "2026-01-05T06:07", "2030-01-05T06:07"]
IDS = [None, "", 0, 7, True, "S000000", "EVSE-1"]
FIELD_VALUES = {"sessionID": IDS, "evseID": IDS, "vehicleClass": [None, "cv", "av", "XV", 1],
                **dict.fromkeys(["kWhRequested", "minutesAvailable", "kWhDelivered",
                                 "receivingCapacityKW"], NUMBERS),
                **dict.fromkeys(["connectionTime", "doneChargingTime", "disconnectTime"], STAMPS)}


@st.composite
def mutated_records(draw):
    """A valid generated record list with a few edits: ACN aliases, missing
    fields, odd values, duplicate ids, inverted timestamps and non-object
    records."""
    batch = generate_synthetic(GeneratorConfig(n_sessions=draw(st.integers(1, 6)), n_evses=2,
                                               mean_gap_minutes=draw(st.sampled_from([1, 60]))),
                               seed=draw(st.integers(0, 20)))
    records = json.loads(batch.to_json_bytes())
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(records) - 1))
        record = records[i]
        edit = draw(st.sampled_from(["alias", "drop", "value", "value", "value", "duplicate",
                                     "invert", "record"]))
        if not isinstance(record, dict):
            continue
        if edit == "alias":
            alias = draw(st.sampled_from(["stationID", "spaceID", "_id", "userInputs"]))
            if alias == "userInputs":
                record["userInputs"] = [{key: record.pop(key) for key in
                                         ("kWhRequested", "minutesAvailable") if key in record}]
            elif (source := "sessionID" if alias == "_id" else "evseID") in record:
                record[alias] = record.pop(source)
        elif edit == "drop":
            record.pop(draw(st.sampled_from(sorted(FIELD_VALUES))), None)
        elif edit == "value":
            key = draw(st.sampled_from(sorted(FIELD_VALUES)))
            record[key] = draw(st.sampled_from(FIELD_VALUES[key]))
        elif edit == "duplicate":
            other = records[draw(st.integers(0, len(records) - 1))]
            record["sessionID"] = other.get("sessionID") if isinstance(other, dict) else None
        elif edit == "invert":
            record["connectionTime"], record["disconnectTime"] = \
                record.get("disconnectTime"), record.get("connectionTime")
        else:
            records[i] = draw(st.sampled_from([[], "x", 1, None, [record]]))
    return records


def parsed(parse, records):
    """The batch ``parse`` reads from ``records``, or its error's text."""
    try:
        return parse(json.dumps(records))
    except SessionError as exc:
        return f"SessionError: {exc}"


def oracle_parse(text):
    return batch_of(per_record_parse(text))


def assert_parsers_agree(records):
    """The column parser returns the batch of the per-record parser's rows,
    or raises its exact message."""
    want, got = parsed(oracle_parse, records), parsed(parse_sessions, records)
    assert type(got) is type(want) and got == want


@given(records=mutated_records())
@settings(max_examples=400, deadline=None)
def test_parser_agrees_with_per_record_oracle(records):
    assert_parsers_agree(records)


@pytest.mark.parametrize("key, value", [(key, value) for key, values in FIELD_VALUES.items()
                                        for value in [*values, "<dropped>"]])
def test_one_edit_agrees_with_per_record_oracle(key, value):
    """Every odd value in every field of the middle one of three records."""
    assert_parsers_agree(with_edits((1, key, value)))


def with_edits(*edits):
    """Three valid records, each ``(i, key, value)`` edit applied in turn; a
    value of ``"<dropped>"`` deletes the key."""
    records = json.loads(generate_synthetic(GeneratorConfig(n_sessions=3), seed=1)
                         .to_json_bytes())
    for i, key, value in edits:
        if value == "<dropped>":
            del records[i][key]
        else:
            records[i][key] = value
    return records


@pytest.mark.parametrize("edits", [
    # a canonical key that holds null misses its field: its alias is not read
    pytest.param([(1, "evseID", None), (1, "stationID", "ACN-7")], id="null-evseID-stationID"),
    pytest.param([(1, "kWhRequested", None), (1, "userInputs", [{"kWhRequested": 9.0}])],
                 id="null-kWhRequested-userInputs"),
    # an empty sessionID is record-<i>, whatever _id holds
    pytest.param([(1, "sessionID", ""), (1, "_id", "S000000")], id="empty-sessionID-dup-_id"),
    pytest.param([(1, "sessionID", ""), (1, "_id", "x")], id="empty-sessionID-_id"),
    # the alias of an absent key is read; a null alias misses the field
    pytest.param([(1, "evseID", "<dropped>"), (1, "stationID", None), (1, "spaceID", "E9")],
                 id="null-stationID-spaceID"),
    pytest.param([(1, "evseID", "<dropped>"), (1, "spaceID", "E9")], id="spaceID"),
    pytest.param([(1, "sessionID", "<dropped>"), (1, "_id", "S000000")], id="dup-_id"),
    pytest.param([(1, "kWhRequested", "<dropped>"), (1, "userInputs", [])],
                 id="empty-userInputs"),
    pytest.param([(1, "minutesAvailable", "<dropped>"), (1, "userInputs", [[60.0]])],
                 id="userInputs-no-object"),
    pytest.param([(1, "minutesAvailable", "<dropped>"),
                  (1, "userInputs", [{"minutesAvailable": None}])], id="userInputs-null"),
    # two faults in one record: the earlier check names it
    pytest.param([(1, "kWhDelivered", -1.0), (1, "connectionTime", "2026-01-05")],
                 id="stamp-before-energy"),
    pytest.param([(1, "vehicleClass", "XV"), (1, "kWhRequested", "15")],
                 id="class-before-number"),
    pytest.param([(1, "disconnectTime", 7), (1, "doneChargingTime", "never")],
                 id="stamp-fields-in-order"),
    pytest.param([(1, "evseID", None), (1, "sessionID", "S000000")],
                 id="duplicate-before-missing"),
    # faults in records 0 and 2, record 2's check the earlier: record 0 is named
    pytest.param([(0, "receivingCapacityKW", 0), (2, "evseID", None)],
                 id="record-0-capacity-record-2-missing"),
    pytest.param([(0, "connectionTime", "2030-01-05T06:07"), (2, "sessionID", "S000000")],
                 id="record-0-order-record-2-duplicate"),
    pytest.param([(0, "minutesAvailable", math.inf), (2, "vehicleClass", None),
                  (2, "kWhDelivered", None)], id="record-0-number-record-2-missing"),
])
def test_alias_and_error_precedence_agree_with_oracle(edits):
    assert_parsers_agree(with_edits(*edits))


STAMP_EDITS = ["0000", "+026", "02-29", "02-30", "24:00", ":60", "digit", "t", " "]


@st.composite
def canonical_shaped_stamps(draw):
    """Nine valid ``YYYY-MM-DDTHH:MM`` stamps with up to two edits that keep
    the shape: a year 0000 or with a sign, Feb 29 (in a leap year or not),
    Feb 30, hour 24, minute 60, a non-ASCII digit, a lowercase ``t`` or a
    space."""
    parts = st.tuples(st.sampled_from(["0001", "1900", "2000", "2023", "2024", "9999"]),
                      st.sampled_from(["01-05", "02-28", "12-31"]),
                      st.sampled_from(["00:00", "06:07", "23:59"]))
    stamps = ["{}-{}T{}".format(*part)
              for part in draw(st.lists(parts, min_size=9, max_size=9))]
    for _ in range(draw(st.integers(0, 2))):
        i, edit = draw(st.integers(0, 8)), draw(st.sampled_from(STAMP_EDITS))
        text = stamps[i]
        if edit in ("0000", "+026"):
            text = edit + text[4:]
        elif edit.startswith("02-"):
            text = text[:5] + edit + text[10:]
        elif edit == "24:00":
            text = text[:11] + edit
        elif edit == ":60":
            text = text[:13] + edit
        elif edit == "digit":  # a fullwidth or an Arabic-Indic digit of the same value
            # a place an earlier edit left as an ASCII digit (a "+026" year has
            # a sign at 0, a fullwidth digit may already stand anywhere)
            at = draw(st.sampled_from([at for at in (0, 3, 6, 9, 12, 15)
                                       if text[at] in "0123456789"]))
            zero = draw(st.sampled_from([0xFF10, 0x0660]))
            text = text[:at] + chr(zero + int(text[at])) + text[at + 1:]
        else:
            text = text[:10] + edit + text[11:]
        stamps[i] = text
    return stamps


@given(seed=st.integers(0, 20), stamps=canonical_shaped_stamps())
@settings(max_examples=300, deadline=None)
def test_stamp_columns_agree_with_per_record_validator(seed, stamps):
    """Three records with drawn stamps: the package gives the oracle's batch
    or its SessionError; stamps that are all exactly canonical and valid are
    converted by numpy, none parsed alone.

    The one departure is asserted as such: the package refuses a stamp with a
    non-ASCII digit, which ``strptime`` reads as its value wherever its
    pattern has ``\\d``."""
    records = json.loads(generate_synthetic(GeneratorConfig(n_sessions=3, n_evses=2),
                                            seed=seed).to_json_bytes())
    for i, record in enumerate(records):
        # sorted, so that the stamps of a record are mostly in order
        record.update(zip(STAMP_KEYS, sorted(stamps[3 * i:3 * i + 3])))
    ascii_records = json.loads(json.dumps(records, ensure_ascii=False).translate(ASCII_DIGITS))

    with mock.patch.object(sessions_module, "_stamp_minutes",
                           wraps=sessions_module._stamp_minutes) as stamp_minutes:
        got = parsed(parse_sessions, records)
    want = parsed(oracle_parse, records)
    if records == ascii_records:
        assert got == want
    else:
        ascii_want = parsed(oracle_parse, ascii_records)
        assert parsed(parse_sessions, ascii_records) == ascii_want
        if isinstance(ascii_want, SessionBatch):  # the non-ASCII digits are the only faults
            session_id, text, key = next(
                (record["sessionID"], record[key], key) for record in records
                for key in STAMP_KEYS if not record[key].isascii())
            assert got == (f"SessionError: session {session_id!r}: unparseable timestamp "
                           f"{text!r} in {key!r}")
            assert want == ascii_want or "unparseable timestamp" in want
    canonical = all(re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}", text)
                    and not text.startswith("0000") for text in stamps)
    if canonical and isinstance(want, SessionBatch):
        assert not stamp_minutes.called


class TestSessionBatch:
    def test_groups_sorted_fcfs(self):
        late = make_session(sid="late", evse="A")
        early = ChargingSession("early", "A", VehicleClass.CV, 1.0, 60.0,
                                T0 - timedelta(hours=2),
                                T0 - timedelta(hours=1), T0 - timedelta(hours=1), 1.0)
        batch = batch_of([late, early])
        (port,) = batch.slices
        assert [s.session_id for s in rows(batch)[port]] == ["early", "late"]

    def test_year_999_roundtrip(self):
        """A year before 1000 is written padded to four digits, the only form
        the parser reads."""
        batch = batch_of([make_session(start=datetime(999, 1, 5, 6, 0))])
        text = batch.to_json_bytes()
        assert b'"connectionTime": "0999-01-05T06:00"' in text
        assert parse_sessions(text) == batch

    def test_iter_yields_id_port_and_capacity(self):
        batch = batch_of([make_session(sid="b", evse="E2", receiving_kw=7.0),
                          make_session(sid="a", evse="E1")])
        assert [tuple(row) for row in batch] == [("a", "E1", 50.0), ("b", "E2", 7.0)]
        assert next(iter(batch)).receiving_capacity_kw == 50.0


@st.composite
def json_stress_batches(draw):
    """Sessions whose ids, energies and timestamps stress the writer: years
    1000-9999, one time zone or none for the whole batch, seconds and
    microseconds that the writer drops."""
    tz = draw(st.sampled_from([None, timezone.utc, timezone(-timedelta(hours=3, minutes=30))]))
    non_negative = JSON_NUMBERS.filter(lambda v: not v < 0)
    positive = JSON_NUMBERS.filter(lambda v: not v <= 0)
    sessions = []
    for _ in range(draw(st.integers(0, 4))):
        plug_in = draw(st.datetimes(datetime(1000, 1, 1), datetime(9999, 12, 1))).replace(tzinfo=tz)
        charge_end = plug_in + timedelta(seconds=draw(st.integers(0, 10**6)))
        unplug = charge_end + timedelta(seconds=draw(st.integers(0, 10**6)))
        sessions.append(ChargingSession(
            draw(JSON_TEXT), draw(st.sampled_from(["EVSE-1", 'E"\\2'])),
            draw(st.sampled_from(VehicleClass)), draw(non_negative), draw(positive),
            plug_in, charge_end, unplug, draw(non_negative), draw(positive)))
    return batch_of(sessions)


@given(batch=json_stress_batches())
@settings(max_examples=150, deadline=None)
def test_writer_matches_json_dumps(batch):
    assert batch.to_json_bytes() == session_json_bytes(batch)


class TestGenerateSynthetic:
    def test_all_av_exactness(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=10, cv_fraction=0.0), seed=1)
        assert not batch.is_cv.any()
        assert np.array_equal(batch.requested_kwh, batch.delivered_kwh)
        assert np.array_equal(batch.charge_end - batch.plug_in, batch.minutes_available)

    def test_cv_inflation_mean(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=10000, cv_fraction=1.0),
                                   seed=11)
        ratios = batch.requested_kwh / batch.delivered_kwh
        assert 1.45 <= np.mean(ratios) <= 1.55

    def test_determinism_byte_identical(self):
        config = GeneratorConfig(n_sessions=64, cv_fraction=0.5)
        a = generate_synthetic(config, seed=9)
        b = generate_synthetic(config, seed=9)
        assert a.to_json_bytes() == b.to_json_bytes()

    def test_different_seeds_differ(self):
        config = GeneratorConfig(n_sessions=64)
        assert (generate_synthetic(config, seed=1).to_json_bytes()
                != generate_synthetic(config, seed=2).to_json_bytes())

    def test_zero_sessions_rejected(self):
        with pytest.raises(SessionError):
            GeneratorConfig(n_sessions=0)

    def test_invalid_mix_rejected(self):
        with pytest.raises(SessionError):
            GeneratorConfig(n_sessions=5, cv_fraction=1.5)

    @pytest.mark.parametrize("knob, value", [
        ("receiving_capacity_kw", 0.0), ("receiving_capacity_kw", math.nan),
        ("mean_gap_minutes", math.inf), ("mean_gap_minutes", math.nan),
        ("energy_kwh_range", (4.0, math.inf)), ("rate_kw_range", (3.0, math.inf)),
        ("energy_inflation", (1.0, math.inf)), ("time_inflation", (1.0, math.inf)),
        ("start", "2026-01-05 06:00"), ("start", "2026-02-30T06:00"), ("start", "tomorrow"),
    ])
    def test_bad_knob_rejected_by_name(self, knob, value):
        """A knob that would write a file the parser refuses, overflow or
        fail in strptime is refused first, by name."""
        with pytest.raises(SessionError, match=f"^{knob} must be"):
            GeneratorConfig(n_sessions=5, **{knob: value})

    @pytest.mark.parametrize("knobs", [
        dict(mean_gap_minutes=1e300),  # an arrival past int64
        dict(energy_kwh_range=(4.0, 1e308)),  # an infinite charging time
        dict(rate_kw_range=(1e-300, 1e-300)),
    ])
    def test_overflowing_clocks_refused_by_name(self, knobs):
        with pytest.raises(SessionError, match="^session clocks overflow: mean_gap_minutes, "
                                               "energy_kwh_range, rate_kw_range and "
                                               "time_inflation"):
            generate_synthetic(GeneratorConfig(n_sessions=5, **knobs), seed=1)

    def test_clocks_past_year_9999_refused_by_name(self):
        with pytest.raises(SessionError, match="^sessions from start '9999-12-31T23:00' run "
                                               "past 9999-12-31T23:59"):
            generate_synthetic(GeneratorConfig(n_sessions=3, start="9999-12-31T23:00"), seed=1)

    def test_clocks_up_to_year_9999_written_and_read(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=3, start="9999-12-31T06:00"),
                                   seed=1)
        assert batch.unplug.max() <= datetime(9999, 12, 31).toordinal() * 1440 + 1439
        assert parse_sessions(batch.to_json_bytes()) == batch

    def test_rates_respect_supply_cap(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=400), seed=2)
        assert (port_rates(batch)[1] <= 50.0).all()
        assert np.all(batch.delivered_kwh / (batch.charge_end - batch.plug_in) * 60.0 <= 50.0)

    @pytest.mark.parametrize("n_sessions, n_evses", [(1, 1), (3, 1), (2, 2)])
    @pytest.mark.parametrize("past_int64", [False, True])
    def test_clocks_at_the_int64_edge(self, n_sessions, n_evses, past_int64):
        """A last unplug of exactly 2**63 - 1 is a clock that runs past 9999;
        one minute later it overflows."""
        seed = 4
        draws = np.random.default_rng(np.random.SeedSequence(seed))
        stream = [(draws.standard_exponential(), *draws.random(3)) for _ in range(n_sessions)]
        ports = [stream[p::n_evses] for p in range(n_evses)]
        # gaps that leave about 3e9 minutes, a start in year 5704, below 2**63
        mean_gap = (2 ** 63 - 3e9) / max(sum(e for e, *_ in port) for port in ports)

        def last_unplug(port):  # less the start, as the stream contract makes it
            span = 0
            for e, u_energy, u_rate, _ in port:
                span += max(1, round(mean_gap * e))
                window = max(1, round((4.0 + 36.0 * u_energy) / (3.0 + 42.0 * u_rate) * 60.0))
            return span + window

        stamp = 2 ** 63 - 1 - max(map(last_unplug, ports)) + past_int64
        config = GeneratorConfig(n_sessions=n_sessions, n_evses=n_evses, cv_fraction=0.0,
                                 mean_gap_minutes=mean_gap,
                                 start=canonical(datetime.min + timedelta(minutes=stamp - 1440)))
        message = ("^session clocks overflow" if past_int64
                   else f"^sessions from start {config.start!r} run past 9999")
        for generate in (generate_synthetic, oracle_generate):
            with pytest.raises(SessionError, match=message):
                generate(config, seed)


def twin_streams(seed: int = 7):
    """Two generators on one stream, one for each side of a draw identity."""
    return (np.random.default_rng(np.random.SeedSequence(seed)) for _ in range(2))


@pytest.mark.parametrize("lo, hi", [(4.0, 40.0), (1.0, 1.0), (1e-300, 1e-300),
                                    (5e-324, float_info.max), (1e308, float_info.max),
                                    (1.0, math.nextafter(1.0, 2.0))])
def test_uniform_is_lo_plus_range_times_random(lo, hi):
    """``Generator.uniform(lo, hi)`` is ``lo + (hi - lo) * random()``, bit for
    bit, the identity session files rest on; a numpy whose C code fuses the
    multiply and add fails here.  20000 draws a range, 120000 in all."""
    scalar, column = twin_streams()
    drawn = np.array([scalar.uniform(lo, hi) for _ in range(20000)])
    made = lo + (hi - lo) * np.array([column.random() for _ in range(20000)])
    assert drawn.tobytes() == made.tobytes()


@pytest.mark.parametrize("scale", [60.0, 1.0, 5e-324, 1e-300, 1e300, float_info.max])
def test_exponential_is_scale_times_standard_exponential(scale):
    """``Generator.exponential(s)`` is ``s * standard_exponential()``, bit for
    bit, overflowing to infinity alike.  20000 draws a scale, 120000 in all."""
    scalar, column = twin_streams()
    drawn = np.array([scalar.exponential(scale) for _ in range(20000)])
    with np.errstate(over="ignore"):
        made = scale * np.array([column.standard_exponential() for _ in range(20000)])
    assert drawn.tobytes() == made.tobytes()


FINITE_POSITIVE = st.floats(min_value=0.0, max_value=float_info.max, exclude_min=True)


def knob_ranges(values):
    """``(lo, hi)`` pairs of ``values``, ``lo == hi`` among them."""
    return st.one_of(values.map(lambda v: (v, v)),
                     st.lists(values, min_size=2, max_size=2).map(sorted).map(tuple))


def canonical(moment: datetime) -> str:
    return f"{moment.year:04d}-{moment:%m-%dT%H:%M}"


@st.composite
def generator_configs(draw):
    """Knobs from the defaults to extreme finite ones, up to two extreme at
    once: gaps whose clocks land near 2**63, starts in year 9999, one-value
    ranges, more ports than sessions."""
    extreme = draw(st.sets(st.sampled_from(["gap", "energy", "rate", "inflation", "receiving"]),
                           max_size=2))

    def knob(name, modest, extremes=FINITE_POSITIVE):
        return extremes if name in extreme else modest

    start = st.one_of(st.just("2026-01-05T06:00"),
                      st.datetimes(datetime(9999, 1, 1)).map(canonical),
                      st.datetimes().map(canonical))
    return GeneratorConfig(
        n_sessions=draw(st.integers(1, 400)), n_evses=draw(st.integers(1, 50)),
        cv_fraction=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        evse_prefix=draw(st.sampled_from(["EVSE", "port"])), start=draw(start),
        mean_gap_minutes=draw(knob("gap", st.floats(0.01, 1e4),
                                   st.one_of(st.floats(1e16, 1e19), FINITE_POSITIVE))),
        energy_kwh_range=draw(knob_ranges(knob("energy", st.floats(0.5, 100.0)))),
        rate_kw_range=draw(knob_ranges(knob("rate", st.floats(0.5, 100.0)))),
        energy_inflation=draw(knob_ranges(knob("inflation", st.floats(1.0, 4.0)))),
        time_inflation=draw(knob_ranges(knob("inflation", st.floats(1.0, 4.0)))),
        receiving_capacity_kw=draw(knob("receiving", st.floats(0.5, 100.0))))


def generated(generate, config: GeneratorConfig, seed: int) -> bytes | str:
    """The session file ``generate`` writes, or the message it refuses with."""
    try:
        return generate(config, seed).to_json_bytes()
    except SessionError as exc:
        return str(exc)


@given(config=generator_configs(), seed=st.integers(0, 2 ** 32))
@settings(max_examples=200, deadline=None)
def test_generator_matches_per_session_oracle(config, seed):
    assert generated(generate_synthetic, config, seed) == generated(oracle_generate, config,
                                                                    seed)


def made_batch(*sessions):
    """The batch of one :func:`make_session` row for each keyword dict."""
    return batch_of([make_session(sid=f"s{i}", **kwargs) for i, kwargs in enumerate(sessions)])


def rate_ratio(batch):
    """Each port's delivery rate over its demand rate."""
    demand, delivery = port_rates(batch)
    return delivery / demand


class TestRates:
    def test_demand_rate_unit_identity(self):
        assert port_rates(made_batch(dict(requested=10.0, window_min=60)))[0].tolist() == [10.0]

    def test_demand_rate_two_sessions(self):
        batch = made_batch(dict(requested=10.0, window_min=30), dict(requested=5.0, window_min=30))
        assert port_rates(batch)[0] == pytest.approx([15.0])

    def test_demand_rate_zero_numerator(self):
        assert port_rates(made_batch(dict(requested=0.0, window_min=30)))[0].tolist() == [0.0]

    def test_demand_rate_empty(self):
        """An empty batch has no ports."""
        assert [rates.shape for rates in port_rates(batch_of([]))] == [(0,), (0,)]

    def test_totals_add_left_to_right(self):
        """A port's totals are added one session at a time from 0, on every
        Python version; 3.12's compensated builtin sum would make these
        requests 1e16 + 2 kWh.  Requests of -0.0 total 0.0, as 0 + -0.0 is."""
        batch = made_batch(*(dict(requested=kwh, window_min=60, start=T0 + timedelta(hours=i))
                             for i, kwh in enumerate((1e16, 1.0, 1.0))))
        assert port_rates(batch)[0].tolist() == [1e16 / 180.0 * 60.0]
        assert 1e16 / 180.0 * 60.0 != math.fsum([1e16, 1.0, 1.0]) / 180.0 * 60.0
        assert ordered_sum([1e16, 1.0, 1.0]) == 1e16 and ordered_sum([]) == 0
        unsigned = port_rates(made_batch(dict(requested=-0.0, window_min=30)))[0][0]
        assert unsigned == 0.0 and math.copysign(1.0, unsigned) == 1.0

    def test_delivery_rate_appendix_energy(self):
        assert port_rates(made_batch(dict(delivered=8.794, charge_min=60)))[1] \
            == pytest.approx([8.794])

    def test_delivery_rate_two_sessions(self):
        """Two sessions on one port, and the second alone on another."""
        batch = made_batch(dict(delivered=6.0, charge_min=20, plugged_min=40),
                           dict(delivered=6.0, charge_min=40),
                           dict(delivered=6.0, charge_min=40, evse="EVSE-2"))
        assert port_rates(batch)[1] == pytest.approx([12.0, 9.0])

    def test_matched_sessions_rates_equal(self):
        demand, delivery = port_rates(
            made_batch(dict(requested=12.0, delivered=12.0, charge_min=45, window_min=45)))
        assert delivery == pytest.approx(demand)

    def test_rate_ratio(self):
        matched = made_batch(dict(requested=12.0, delivered=12.0, charge_min=45, window_min=45))
        assert rate_ratio(matched).tolist() == [1.0]
        half = made_batch(dict(requested=15.0, delivered=7.5, charge_min=60, window_min=60))
        assert rate_ratio(half) == pytest.approx([0.5])
        zero = made_batch(dict(requested=15.0, delivered=0.0, charge_min=60, window_min=60))
        assert rate_ratio(zero).tolist() == [0.0]

    def test_time_ratio(self):
        zero = ChargingSession("s", "e", VehicleClass.CV, 1.0, 60.0, T0, T0,
                               T0 + timedelta(minutes=30), 1.0)
        ratios = time_ratios(batch_of([make_session(charge_min=60, plugged_min=60),
                                       make_session(charge_min=120, plugged_min=480,
                                                    start=T0 + timedelta(hours=1)),
                                       zero]))
        assert ratios.tolist() == [1.0, 0.25, 0.0]  # port "EVSE-1" sorts before "e"
        bare = ChargingSession("bare", "e", VehicleClass.CV, 1.0, 60.0, T0, T0, T0, 1.0)
        with pytest.raises(SessionError, match="'bare': zero plugged-in duration"):
            time_ratios(batch_of([bare]))

    def test_energy_ratio(self):
        ratios = energy_ratios(made_batch(dict(requested=15.0, delivered=8.794),
                                        dict(requested=7.0, delivered=7.0),
                                        dict(requested=7.0, delivered=0.0),
                                        dict(requested=0.0)))
        assert ratios[0] == pytest.approx(0.5863, abs=1e-4)
        assert ratios[1:].tolist() == [1.0, 0.0, 0.0]  # no energy requested counts as 0


@given(batch=rate_batches())
@settings(max_examples=200, deadline=None)
def test_port_rates_match_per_port_oracle(batch):
    """Each port's rates equal the per-port oracle's bit for bit, and are NaN
    exactly where it raises."""
    def oracle(rate, rows):
        try:
            return rate(batch, rows)
        except SessionError:
            return math.nan

    want = [[repr(oracle(rate, rows)) for rows in batch.slices]
            for rate in (port_demand_rate_kw, port_delivery_rate_kw)]
    assert [list(map(repr, rates.tolist())) for rates in port_rates(batch)] == want


class TestRatioInvariants:
    # a batch holds whole minutes, so the durations scale by whole numbers
    @given(scale=st.integers(min_value=1, max_value=10),
           requested=st.floats(min_value=1.0, max_value=50.0),
           delivered=st.floats(min_value=0.5, max_value=50.0),
           charge_min=st.integers(min_value=10, max_value=300),
           extra_min=st.integers(min_value=0, max_value=300))
    @settings(max_examples=60, deadline=None)
    def test_dimensional_homogeneity(self, scale, requested, delivered, charge_min,
                                     extra_min):
        """Scaling all energies and durations together leaves the ratios fixed."""
        def build(factor):
            return ChargingSession(
                "s", "e", VehicleClass.CV,
                energy_requested_kwh=requested * factor,
                minutes_available=float(charge_min + extra_min) * factor,
                plug_in_time=T0,
                charge_end_time=T0 + timedelta(minutes=charge_min * factor),
                unplug_time=T0 + timedelta(minutes=(charge_min + extra_min) * factor),
                energy_delivered_kwh=delivered * factor)

        base, scaled = (batch_of([build(factor)]) for factor in (1, scale))
        assert rate_ratio(scaled) == pytest.approx(rate_ratio(base), rel=1e-6)
        for ratios in (time_ratios, energy_ratios):
            assert ratios(scaled) == pytest.approx(ratios(base), rel=1e-6)

    def test_time_ratio_bounded(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=300), seed=5)
        assert np.all((time_ratios(batch) >= 0.0) & (time_ratios(batch) <= 1.0))
