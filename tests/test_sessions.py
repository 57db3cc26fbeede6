"""Session model, parsing, synthetic generation and the rate/ratio formulas."""

import json
import math
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramals.sessions as sessions_module
from ramals import (
    ChargingSession,
    GeneratorConfig,
    SessionBatch,
    SessionError,
    VehicleClass,
    delivery_rate_kw,
    demand_rate_kw,
    energy_ratios,
    generate_synthetic,
    parse_sessions,
    rate_ratio,
    time_ratios,
)

from helpers import JSON_NUMBERS, JSON_TEXT, T0, make_session
from oracles import _parse_timestamp as strptime_parse
from oracles import parse_sessions as per_record_parse
from oracles import session_json_bytes


class TestChargingSession:
    def test_rejects_timestamp_inversion(self):
        with pytest.raises(SessionError, match="plug_in <= charge_end <= unplug"):
            ChargingSession("s", "e", VehicleClass.CV, 1.0, 60.0,
                            T0, T0 - timedelta(minutes=1), T0, 1.0)

    def test_rejects_negative_energy(self):
        with pytest.raises(SessionError):
            make_session(requested=-1.0)
        with pytest.raises(SessionError):
            make_session(delivered=-1.0)

    def test_durations(self):
        batch = SessionBatch([make_session(charge_min=90, plugged_min=120)])
        assert (batch.charge_end - batch.plug_in).tolist() == [90]
        assert (batch.unplug - batch.plug_in).tolist() == [120]


class TestParseSessions:
    def record(self, **overrides):
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

    def test_single_record_energy_fields(self):
        batch = parse_sessions(json.dumps([self.record()]))
        (session,) = list(batch)
        assert session.energy_requested_kwh == 15.0
        assert session.energy_delivered_kwh == 8.794

    def test_empty_array(self):
        assert len(parse_sessions(b"[]")) == 0

    def test_timestamp_inversion_rejected_with_name(self):
        bad = self.record(disconnectTime="2026-01-05T07:00")
        with pytest.raises(SessionError, match="r1"):
            parse_sessions(json.dumps([bad]))

    def test_malformed_json(self):
        with pytest.raises(SessionError, match="malformed"):
            parse_sessions(b"{not json")

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
        (session,) = list(parse_sessions(json.dumps([record])))
        assert session.evse_id == "ACN-7"
        assert session.energy_requested_kwh == 20.0
        assert session.minutes_available == 240.0

    def test_missing_vehicle_class_defaults_to_cv(self, caplog):
        record = self.record()
        del record["vehicleClass"]
        with caplog.at_level("WARNING"):
            (session,) = list(parse_sessions(json.dumps([record])))
        assert session.vehicle_class is VehicleClass.CV
        assert "assuming CV" in caplog.text

    def test_receiving_capacity_default(self):
        (session,) = list(parse_sessions(json.dumps([self.record()])))
        assert session.receiving_capacity_kw == 50.0

    def test_roundtrip(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=30), seed=3)
        again = parse_sessions(batch.to_json_bytes())
        assert again == batch

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity",
                                       pytest.param("1" + "0" * 400, id="int-1e400")])
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


def parse(text):
    return sessions_module._parse_timestamp(text, "connectionTime", "s")


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
        with pytest.raises(SessionError, match="unparseable timestamp"):
            parse(text)
        with pytest.raises(SessionError, match="unparseable timestamp"):
            strptime_parse(text, "connectionTime", "s")

    @pytest.mark.parametrize("text", [
        "2026-01-05T0٠:41", "２026-01-05T06:07", "2026-01-1٥T06:07",
        "2026-01-05　06:07",
    ])
    def test_non_ascii_digit_or_space_rejected(self, text):
        """An Arabic-Indic or fullwidth digit, or an ideographic space, is no
        part of a stamp, in the hour, the year, the day or the separator.
        strptime takes each of them, so the oracle is not asked."""
        with pytest.raises(SessionError, match="unparseable timestamp"):
            parse(text)
        record = {"sessionID": "r1", "evseID": "EVSE-1", "vehicleClass": "CV",
                  "kWhRequested": 15.0, "minutesAvailable": 120.0, "connectionTime": text,
                  "doneChargingTime": "2026-01-05T09:00",
                  "disconnectTime": "2026-01-05T10:00", "kWhDelivered": 8.794}
        with pytest.raises(SessionError, match=re.escape(
                f"session 'r1': unparseable timestamp {text!r} in 'connectionTime'")):
            parse_sessions(json.dumps([record]))

    def test_non_string_rejected(self):
        with pytest.raises(SessionError, match="must be a string"):
            parse(202601050600)


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
    four formats, or both raise."""
    try:
        want = strptime_parse(text, "connectionTime", "s")
    except SessionError:
        with pytest.raises(SessionError):
            parse(text)
    else:
        assert parse(text) == want


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
    for _ in range(draw(st.integers(0, 3))):
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


def assert_parsers_agree(records):
    """The column parser returns the batch the per-record parser builds, or
    raises its exact message."""
    def parsed(parse):
        try:
            return parse(json.dumps(records))
        except SessionError as exc:
            return f"SessionError: {exc}"

    want, got = parsed(per_record_parse), parsed(parse_sessions)
    assert type(got) is type(want) and got == want


@given(records=mutated_records())
@settings(max_examples=400, deadline=None)
def test_parser_agrees_with_per_record_oracle(records):
    assert_parsers_agree(records)


@pytest.mark.parametrize("key, value", [(key, value) for key, values in FIELD_VALUES.items()
                                        for value in [*values, "<dropped>"]])
def test_one_edit_agrees_with_per_record_oracle(key, value):
    """Every odd value in every field of the middle one of three records."""
    records = json.loads(generate_synthetic(GeneratorConfig(n_sessions=3), seed=1)
                         .to_json_bytes())
    if value == "<dropped>":
        del records[1][key]
    else:
        records[1][key] = value
    assert_parsers_agree(records)


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
    """Three records with drawn stamps: the column path gives the per-record
    validator's batch or returns None, parse_sessions gives the validator's
    batch or its SessionError, and stamps that are all exactly canonical and
    valid take the column path."""
    records = json.loads(generate_synthetic(GeneratorConfig(n_sessions=3, n_evses=2),
                                            seed=seed).to_json_bytes())
    for i, record in enumerate(records):
        # sorted, so that the stamps of a record are mostly in order
        record.update(zip(("connectionTime", "doneChargingTime", "disconnectTime"),
                          sorted(stamps[3 * i:3 * i + 3])))

    def parsed(parse):
        try:
            return parse(records)
        except SessionError as exc:
            return f"SessionError: {exc}"

    want = parsed(sessions_module._parse_records)
    assert parsed(lambda payload: parse_sessions(json.dumps(payload))) == want
    column = sessions_module._canonical_batch(records)
    assert column is None or column == want
    canonical = all(re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}", text)
                    and not text.startswith("0000") for text in stamps)
    if canonical and isinstance(want, SessionBatch):
        assert column == want


class TestSessionBatch:
    def test_groups_sorted_fcfs(self):
        late = make_session(sid="late", evse="A")
        early = ChargingSession("early", "A", VehicleClass.CV, 1.0, 60.0,
                                T0 - timedelta(hours=2),
                                T0 - timedelta(hours=1), T0 - timedelta(hours=1), 1.0)
        batch = SessionBatch([late, early])
        assert [s.session_id for s in batch.group("A")] == ["early", "late"]

    def test_year_999_roundtrip(self):
        """A year before 1000 is written padded to four digits, the only form
        the parser reads."""
        batch = SessionBatch([make_session(start=datetime(999, 1, 5, 6, 0))])
        text = batch.to_json_bytes()
        assert b'"connectionTime": "0999-01-05T06:00"' in text
        assert parse_sessions(text) == batch


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
    return SessionBatch(sessions)


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
        ratios = [s.energy_requested_kwh / s.energy_delivered_kwh for s in batch]
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

    def test_rates_respect_supply_cap(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=400), seed=2)
        for rows in batch.slices:
            assert delivery_rate_kw(batch, rows) <= 50.0
        assert np.all(batch.delivered_kwh / (batch.charge_end - batch.plug_in) * 60.0 <= 50.0)


def batch_of(*sessions):
    return SessionBatch([make_session(sid=f"s{i}", **kwargs)
                         for i, kwargs in enumerate(sessions)])


class TestRates:
    def test_demand_rate_unit_identity(self):
        assert demand_rate_kw(batch_of(dict(requested=10.0, window_min=60))) == 10.0

    def test_demand_rate_two_sessions(self):
        batch = batch_of(dict(requested=10.0, window_min=30), dict(requested=5.0, window_min=30))
        assert demand_rate_kw(batch) == pytest.approx(15.0)

    def test_demand_rate_zero_numerator(self):
        assert demand_rate_kw(batch_of(dict(requested=0.0, window_min=30))) == 0.0

    def test_demand_rate_empty(self):
        with pytest.raises(SessionError):
            demand_rate_kw(SessionBatch())

    def test_delivery_rate_appendix_energy(self):
        assert delivery_rate_kw(batch_of(dict(delivered=8.794, charge_min=60))) \
            == pytest.approx(8.794)

    def test_delivery_rate_two_sessions(self):
        batch = batch_of(dict(delivered=6.0, charge_min=20, plugged_min=40),
                         dict(delivered=6.0, charge_min=40))
        assert delivery_rate_kw(batch) == pytest.approx(12.0)
        assert delivery_rate_kw(batch, slice(1, 2)) == pytest.approx(9.0)

    def test_matched_sessions_rates_equal(self):
        batch = batch_of(dict(requested=12.0, delivered=12.0, charge_min=45, window_min=45))
        assert delivery_rate_kw(batch) == pytest.approx(demand_rate_kw(batch))

    def test_rate_ratio(self):
        matched = batch_of(dict(requested=12.0, delivered=12.0, charge_min=45, window_min=45))
        assert rate_ratio(matched) == 1.0
        half = batch_of(dict(requested=15.0, delivered=7.5, charge_min=60, window_min=60))
        assert rate_ratio(half) == pytest.approx(0.5)
        zero = batch_of(dict(requested=15.0, delivered=0.0, charge_min=60, window_min=60))
        assert rate_ratio(zero) == 0.0

    def test_time_ratio(self):
        zero = ChargingSession("s", "e", VehicleClass.CV, 1.0, 60.0, T0, T0,
                               T0 + timedelta(minutes=30), 1.0)
        ratios = time_ratios(SessionBatch([make_session(charge_min=60, plugged_min=60),
                                           make_session(charge_min=120, plugged_min=480,
                                                        start=T0 + timedelta(hours=1)),
                                           zero]))
        assert ratios.tolist() == [1.0, 0.25, 0.0]  # port "EVSE-1" sorts before "e"
        bare = ChargingSession("bare", "e", VehicleClass.CV, 1.0, 60.0, T0, T0, T0, 1.0)
        with pytest.raises(SessionError, match="'bare': zero plugged-in duration"):
            time_ratios(SessionBatch([bare]))

    def test_energy_ratio(self):
        ratios = energy_ratios(batch_of(dict(requested=15.0, delivered=8.794),
                                        dict(requested=7.0, delivered=7.0),
                                        dict(requested=7.0, delivered=0.0),
                                        dict(requested=0.0)))
        assert ratios[0] == pytest.approx(0.5863, abs=1e-4)
        assert ratios[1:].tolist() == [1.0, 0.0, 0.0]  # no energy requested counts as 0


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

        base, scaled = (SessionBatch([build(factor)]) for factor in (1, scale))
        assert rate_ratio(scaled) == pytest.approx(rate_ratio(base), rel=1e-6)
        for ratios in (time_ratios, energy_ratios):
            assert ratios(scaled) == pytest.approx(ratios(base), rel=1e-6)

    def test_time_ratio_bounded(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=300), seed=5)
        assert np.all((time_ratios(batch) >= 0.0) & (time_ratios(batch) <= 1.0))
