"""Shared builders for tests."""

import math
from datetime import datetime, timedelta

from hypothesis import strategies as st

from ramals import EvseConfig, SessionBatch, SiteConfig

from oracles import ChargingSession, VehicleClass

T0 = datetime(2026, 1, 5, 8, 0)


def _minutes(t: datetime) -> int:
    """A datetime as a minute stamp; its seconds and time zone are dropped."""
    return t.toordinal() * 1440 + t.hour * 60 + t.minute


def batch_of(sessions) -> SessionBatch:
    """The batch of :class:`ChargingSession` rows, built from their columns."""
    columns = [(s.session_id, s.evse_id, s.vehicle_class is VehicleClass.CV,
                s.energy_requested_kwh, s.minutes_available, _minutes(s.plug_in_time),
                _minutes(s.charge_end_time), _minutes(s.unplug_time), s.energy_delivered_kwh,
                s.receiving_capacity_kw) for s in sessions]
    return SessionBatch(columns=list(zip(*columns)) if columns else [()] * 10)


def make_session(requested=10.0, delivered=10.0, charge_min=60, plugged_min=None,
                 window_min=None, evse="EVSE-1", sid="s", klass=VehicleClass.CV,
                 start=T0, receiving_kw=50.0):
    plugged = charge_min if plugged_min is None else plugged_min
    window = charge_min if window_min is None else window_min
    return ChargingSession(
        session_id=sid, evse_id=evse, vehicle_class=klass,
        energy_requested_kwh=requested, minutes_available=float(window),
        plug_in_time=start, charge_end_time=start + timedelta(minutes=charge_min),
        unplug_time=start + timedelta(minutes=plugged),
        energy_delivered_kwh=delivered, receiving_capacity_kw=receiving_kw)


def make_av_session(energy=10.0, charge_min=60, evse="EVSE-1", sid="s", start=T0):
    """AV request: delivered equals requested and the window is exact."""
    return make_session(requested=energy, delivered=energy, charge_min=charge_min,
                        evse=evse, sid=sid, klass=VehicleClass.AV, start=start)


def spaced_av_batch(n=12, energy=20.0, charge_min=30, gap_min=10, evses=("EVSE-1",)):
    """AV sessions spaced so each starts after the previous one finished."""
    sessions = []
    for e_idx, evse in enumerate(evses):
        t = T0
        for i in range(n):
            sessions.append(make_av_session(energy=energy, charge_min=charge_min,
                                            evse=evse, sid=f"{evse}-s{i}", start=t))
            t = t + timedelta(minutes=charge_min + gap_min)
    return batch_of(sessions)


def site_for(batch, dso_kw=1000.0, switching_minutes=0.0, supply_kw=50.0):
    return SiteConfig(dso_kw,
                      tuple(EvseConfig(e, supply_capacity_kw=supply_kw,
                                       switching_minutes=switching_minutes)
                            for e in batch.evse_ids))


# A quarter of these are zeros, signed zeros included.
_KWH = st.one_of(st.sampled_from([0.0, -0.0]), *[st.floats(0.0, 80.0)] * 3)


@st.composite
def rate_batches(draw):
    """Batches of 0-4 ports of 1-5 sessions whose requests, deliveries and
    charging minutes are often zero.  A whole port may request no energy or
    record no charging minutes."""
    sessions = []
    for p in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["mixed"] * 4 + ["no request", "no charging"]))
        for i in range(draw(st.integers(1, 5))):
            sessions.append(make_session(
                requested=-0.0 if kind == "no request" else draw(_KWH), delivered=draw(_KWH),
                charge_min=0 if kind == "no charging" else draw(st.integers(0, 240)),
                window_min=draw(st.floats(1e-3, 600.0)), evse=f"EVSE-{p}", sid=f"p{p}s{i}",
                start=T0 + timedelta(minutes=7 * i)))
    return batch_of(sessions)


# Values that stress a JSON writer: quotes, backslashes, control and non-ASCII
# characters in text; non-finite, signed-zero, tiny, huge and int numbers
# (json writes an int 5 as "5", a float 5.0 as "5.0").
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\xe9\u20ac\U0001f600'),
                              st.characters()), max_size=8)
JSON_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-7, 1e16, 5, 0, 5.0]),
    st.floats(), st.integers(-10**20, 10**20))
