"""Session model, parsing, synthetic generation and the rate/ratio formulas."""

import json
from datetime import datetime, timedelta

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
    energy_ratio,
    generate_synthetic,
    parse_sessions,
    rate_ratio,
    time_ratio,
)

from helpers import T0, make_session
from oracles import _parse_timestamp as strptime_parse


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
        s = make_session(charge_min=90, plugged_min=120)
        assert s.actual_minutes == 90
        assert s.plugged_minutes == 120


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


class TestSessionBatch:
    def test_groups_sorted_fcfs(self):
        late = make_session(sid="late", evse="A")
        early = ChargingSession("early", "A", VehicleClass.CV, 1.0, 60.0,
                                T0 - timedelta(hours=2),
                                T0 - timedelta(hours=1), T0 - timedelta(hours=1), 1.0)
        batch = SessionBatch([late, early])
        assert [s.session_id for s in batch.group("A")] == ["early", "late"]


class TestGenerateSynthetic:
    def test_all_av_exactness(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=10, cv_fraction=0.0), seed=1)
        for s in batch:
            assert s.vehicle_class is VehicleClass.AV
            assert s.energy_requested_kwh == s.energy_delivered_kwh
            assert abs(s.actual_minutes - s.minutes_available) <= 1e-6

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
        for evse_id in batch.evse_ids:
            assert delivery_rate_kw(batch.group(evse_id)) <= 50.0
        for s in batch:
            assert s.implied_rate_kw <= 50.0


class TestRates:
    def test_demand_rate_unit_identity(self):
        assert demand_rate_kw([make_session(requested=10.0, window_min=60)]) == 10.0

    def test_demand_rate_two_sessions(self):
        sessions = [make_session(requested=10.0, window_min=30),
                    make_session(requested=5.0, window_min=30)]
        assert demand_rate_kw(sessions) == pytest.approx(15.0)

    def test_demand_rate_zero_numerator(self):
        assert demand_rate_kw([make_session(requested=0.0, window_min=30)]) == 0.0

    def test_demand_rate_empty(self):
        with pytest.raises(SessionError):
            demand_rate_kw([])

    def test_delivery_rate_appendix_energy(self):
        assert delivery_rate_kw([make_session(delivered=8.794, charge_min=60)]) \
            == pytest.approx(8.794)

    def test_delivery_rate_two_sessions(self):
        sessions = [make_session(delivered=6.0, charge_min=20, plugged_min=40),
                    make_session(delivered=6.0, charge_min=40)]
        assert delivery_rate_kw(sessions) == pytest.approx(12.0)

    def test_matched_sessions_rates_equal(self):
        s = make_session(requested=12.0, delivered=12.0, charge_min=45, window_min=45)
        assert delivery_rate_kw([s]) == pytest.approx(demand_rate_kw([s]))

    def test_rate_ratio(self):
        matched = make_session(requested=12.0, delivered=12.0, charge_min=45,
                               window_min=45)
        assert rate_ratio([matched]) == 1.0
        half = make_session(requested=15.0, delivered=7.5, charge_min=60, window_min=60)
        assert rate_ratio([half]) == pytest.approx(0.5)
        zero = make_session(requested=15.0, delivered=0.0, charge_min=60, window_min=60)
        assert rate_ratio([zero]) == 0.0

    def test_time_ratio(self):
        assert time_ratio(make_session(charge_min=60, plugged_min=60)) == 1.0
        assert time_ratio(make_session(charge_min=120, plugged_min=480)) == 0.25
        zero = ChargingSession("s", "e", VehicleClass.CV, 1.0, 60.0, T0, T0,
                               T0 + timedelta(minutes=30), 1.0)
        assert time_ratio(zero) == 0.0

    def test_energy_ratio(self):
        appendix = make_session(requested=15.0, delivered=8.794)
        assert energy_ratio(appendix) == pytest.approx(0.5863, abs=1e-4)
        assert energy_ratio(make_session(requested=7.0, delivered=7.0)) == 1.0
        assert energy_ratio(make_session(requested=7.0, delivered=0.0)) == 0.0
        with pytest.raises(SessionError):
            energy_ratio(make_session(requested=0.0))


class TestRatioInvariants:
    @given(scale=st.floats(min_value=0.1, max_value=10.0),
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

        base, scaled = build(1.0), build(scale)
        assert rate_ratio([scaled]) == pytest.approx(rate_ratio([base]), rel=1e-6)
        assert time_ratio(scaled) == pytest.approx(time_ratio(base), rel=1e-6)
        assert energy_ratio(scaled) == pytest.approx(energy_ratio(base), rel=1e-6)

    def test_time_ratio_bounded(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=300), seed=5)
        for s in batch:
            assert 0.0 <= time_ratio(s) <= 1.0
