"""Decision model: the policy's schedule pick, ordering ratio, ordering,
reward, state and queue."""

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramals.learner as learner
from ramals import (
    EvseConfig,
    GeneratorConfig,
    MdpError,
    SessionBatch,
    generate_synthetic,
    ordering_holds,
    ordering_ratio,
    port_sessions,
    session_reward,
    state_matrix,
)
from ramals.learner import (
    Coordinator,
    SharedModel,
    forward_episode,
    init_params,
    policy_value_forward,
)
from ramals.mdp import (
    EvseQueue,
    as_requested_allocation,
    rational_allocation,
)
from ramals.scheduler import _PolicyRule

from helpers import T0, make_av_session, make_session
from oracles import state_vector


def reward_transcription(zeta, rho, risk, eta_cur, eta_next):
    """Straight-line re-expression of the branch definition over the two
    demand-supply indices, kept independent of the implementation."""
    if eta_next is not None and not (eta_cur >= eta_next):
        return 0.0
    if zeta == 1.0:
        return 1.0 + zeta * rho * (1.0 - risk)
    if zeta != 0.0 and zeta != 1.0:
        return zeta * rho * (1.0 - risk)
    return 0.0


def head_projection(params, state):
    """The input projection row of one state: what a port's first decision
    computes for each of its sessions."""
    return params["wx"] @ state + params["b"]


def head_probability(bp, hidden=4):
    """P(schedule) of one step whose policy logits are exactly ``bp``."""
    params = init_params(hidden, np.random.default_rng(0))
    params["wp"][:] = 0.0
    params["bp"][:] = bp
    carry = (np.zeros(hidden), np.zeros(hidden))
    p_schedule, _value, _carry = policy_value_forward(
        params, head_projection(params, np.full(6, 0.5)), carry)
    return p_schedule


def tiny_model(hidden=4):
    params = init_params(hidden, np.random.default_rng(1))
    return SharedModel(hidden=hidden, gamma=0.9, beta=0.05, alpha=0.99, risk_value=0.0,
                       coordinator=Coordinator(params), carries={})


class TestActionDistribution:
    """The step's P(schedule) is the first of two softmax probabilities."""

    def test_must_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            params = init_params(4, rng)
            for key in params:
                params[key] = rng.uniform(-2.0, 2.0, params[key].shape)
            state = rng.uniform(0.0, 1.0, 6)
            forward = forward_episode(params, state[None, None], np.array([1]))
            assert forward.probs[0, 0].sum() == pytest.approx(1.0, abs=1e-12)
            carry = (np.zeros(4), np.zeros(4))
            p_schedule, _, _ = policy_value_forward(params, head_projection(params, state),
                                                    carry)
            assert p_schedule == pytest.approx(forward.probs[0, 0, 0], rel=1e-12)

    def test_non_negative(self):
        for bp in ([800.0, 0.0], [0.0, 800.0], [-800.0, 800.0], [1e-300, 0.0]):
            assert 0.0 <= head_probability(bp) <= 1.0
        assert head_probability([0.0, 800.0]) == 0.0
        assert head_probability([800.0, 0.0]) == 1.0


class TestSchedulingIndicator:
    """The policy rule's argmax: schedule when P(schedule) >= 0.5."""

    def test_argmax_cases(self, monkeypatch):
        # energy ratios 0.8 then 0.5: the ordering holds for session 0 only
        # under the action picked, so the rule returns its pick
        batch = SessionBatch([make_session(requested=10.0, delivered=8.0, sid="a"),
                              make_session(requested=10.0, delivered=5.0, sid="b",
                                           start=T0 + timedelta(hours=2))])
        (port,) = port_sessions(batch)
        for p_schedule, pick in ((0.7, 1), (0.3, 0), (0.5, 1), (0.5 - 1e-16, 0)):
            monkeypatch.setattr(learner, "policy_value_forward",
                                lambda params, z_row, carry, p=p_schedule: (p, 0.0, carry))
            assert _PolicyRule(tiny_model(), [port]).decide(port, 0) == pick

    @given(gap=st.floats(min_value=1e-6, max_value=30.0),
           scale=st.floats(min_value=0.1, max_value=10.0),
           base=st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_logit_rescaling(self, gap, scale, base):
        """Scaling logits before the softmax never flips the argmax."""
        plain = head_probability([base + gap, base])
        scaled = head_probability([scale * (base + gap), scale * base])
        assert plain >= 0.5 and scaled >= 0.5


class TestOrderingRatio:
    def test_selects_energy_ratio(self):
        assert ordering_ratio(make_session(requested=10.0, delivered=8.0)) == pytest.approx(0.8)

    def test_exact_request(self):
        assert ordering_ratio(make_session(requested=10.0, delivered=10.0)) == 1.0

    def test_zero_energy_counts_as_zero(self, caplog):
        assert ordering_ratio(make_session(requested=0.0, delivered=0.0, sid="z")) == 0.0
        assert "'z': zero requested energy" in caplog.text


class TestOrderingHolds:
    def test_schedule_compares_ratios(self):
        assert ordering_holds(0.8, 0.5, 1)
        assert not ordering_holds(0.5, 0.8, 1)
        assert ordering_holds(0.5, 0.5, 1)

    def test_queue_compares_complements(self):
        assert ordering_holds(0.5, 0.8, 0)
        assert not ordering_holds(0.8, 0.5, 0)
        assert ordering_holds(0.5, 0.5, 0)

    def test_no_next_session_holds_for_either_action(self):
        assert ordering_holds(0.1, None, 1)
        assert ordering_holds(0.9, None, 0)


def reward(zeta, rho, risk, eta_cur, eta_next):
    """session_reward with the ordering taken between two indices; on the
    schedule action a session's index is its energy ratio."""
    return session_reward(zeta, rho, risk, ordering_holds(eta_cur, eta_next, 1))


class TestSessionReward:
    def test_branch_one_boundary(self):
        assert reward(1.0, 1.0, 0.0, 0.8, 0.5) == 2.0

    def test_branch_two_hand_value(self):
        assert reward(0.5, 0.8, 0.1, 0.8, 0.5) == pytest.approx(0.36)

    def test_ordering_violated(self):
        assert reward(1.0, 1.0, 0.0, 0.2, 0.8) == 0.0
        assert session_reward(1.0, 1.0, 0.0, ordering_holds(0.8, 0.2, 0)) == 0.0

    def test_zero_rate_ratio(self):
        assert reward(0.0, 1.0, 0.0, 0.9, None) == 0.0

    def test_vacuous_next(self):
        assert reward(0.5, 0.5, 0.0, 0.1, None) == pytest.approx(0.25)

    def test_exhaustive_grid_matches_transcription(self):
        ratios = [(0.8, 0.2), (0.2, 0.8), (0.5, 0.5), (0.9, None)]
        for zeta in (0.0, 0.25, 0.5, 1.0):
            for rho in (0.0, 0.5, 1.0):
                for risk in (0.0, 0.1, 0.9):
                    for ups_cur, ups_next in ratios:
                        for action in (0, 1):
                            got = session_reward(zeta, rho, risk,
                                                 ordering_holds(ups_cur, ups_next, action))
                            eta_cur = ups_cur if action else 1.0 - ups_cur
                            eta_next = None if ups_next is None else (
                                ups_next if action else 1.0 - ups_next)
                            want = reward_transcription(zeta, rho, risk, eta_cur, eta_next)
                            assert got == want

    @given(zeta=st.floats(min_value=0.0, max_value=1.0),
           rho=st.floats(min_value=0.0, max_value=1.0),
           risk=st.floats(min_value=0.0, max_value=1.0 - 1e-9),
           eta_cur=st.floats(min_value=0.0, max_value=1.0),
           eta_next=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=120, deadline=None)
    def test_bounded_and_risk_monotone(self, zeta, rho, risk, eta_cur, eta_next):
        value = reward(zeta, rho, risk, eta_cur, eta_next)
        assert 0.0 <= value <= 2.0
        less_risky = reward(zeta, rho, risk / 2.0, eta_cur, eta_next)
        assert less_risky >= value - 1e-12


class TestEvseState:
    def test_vector_in_unit_box(self):
        s = make_session(requested=35.0, delivered=20.0, charge_min=90,
                         plugged_min=300, window_min=240)
        vec = state_matrix([s])[0]
        assert vec.shape == (6,)
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)

    def test_component_order(self):
        s = make_session(requested=50.0, delivered=25.0, charge_min=144,
                         plugged_min=288, window_min=288)
        vec = state_matrix([s])[0]
        assert vec[0] == pytest.approx(0.5)    # requested kWh / 100
        assert vec[1] == pytest.approx(0.2)    # window / 1440
        assert vec[5] == pytest.approx(0.25)   # delivered kWh / 100

    def test_matrix_equals_per_session_rows(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=300, n_evses=3,
                                                   energy_kwh_range=(4.0, 140.0)), seed=4)
        sessions = list(batch)
        matrix = state_matrix(sessions)
        assert np.array_equal(matrix, np.stack([state_vector(s) for s in sessions]))
        assert matrix[:, 5].max() == 1.0  # clipped
        assert state_matrix([]).shape == (0, 6)


def build_queue(sessions, switching=0.0, step=15.0):
    evse = EvseConfig("EVSE-1", switching_minutes=switching)
    origin = min(s.plug_in_time for s in sessions)

    def arrival(session):
        return (session.plug_in_time - origin).total_seconds() / 60.0

    return EvseQueue(list(sessions), evse, arrival, step_minutes=step)


def schedule(queue):
    """Start the presented head under the rational allocation."""
    return queue.transition(1, rational_allocation(queue.head(), queue.evse))


class TestEvseQueue:
    def test_schedule_empties_single_session_queue(self):
        queue = build_queue([make_av_session()])
        event = schedule(queue)
        assert queue.present() is None
        assert event.kind == "scheduled"
        assert queue.head() is None and queue.voided == []

    def test_schedule_without_allocation_names_session(self):
        queue = build_queue([make_av_session(sid="bare")])
        with pytest.raises(MdpError, match="'bare': scheduled without an allocation"):
            queue.transition(1)
        assert queue.present().session_id == "bare"
        assert queue.clock == 0.0

    def test_queue_represents_same_head(self):
        queue = build_queue([make_session(window_min=600)])
        head_before = queue.present()
        event = queue.transition(0)
        assert event.kind == "queued"
        assert queue.present() is head_before
        assert queue.clock == 15.0

    def test_av_realizes_requested_energy(self):
        session = make_av_session(energy=12.0, charge_min=30)
        queue = build_queue([session])
        event = schedule(queue)
        assert event.allocation.energy_kwh == pytest.approx(12.0)

    def test_session_conservation_random_decisions(self):
        rng = np.random.default_rng(5)
        sessions = [make_av_session(energy=5.0, charge_min=20, sid=f"s{i}",
                                    start=T0) for i in range(10)]
        queue = build_queue(sessions)
        scheduled = 0
        while queue.present() is not None:
            if rng.integers(0, 2):
                assert schedule(queue).kind == "scheduled"
                scheduled += 1
            else:
                assert queue.transition(0).kind == "queued"
        assert all(e.kind == "voided" for e in queue.voided)
        assert scheduled + len(queue.voided) == len(sessions)

    def test_expired_window_voids(self):
        short = make_session(window_min=20, charge_min=20, plugged_min=20)
        queue = build_queue([short])
        queue.transition(0)  # +15
        queue.transition(0)  # +15 -> wait 30 > 20
        assert queue.present() is None
        assert [(e.session, e.kind, e.wait_minutes) for e in queue.voided] == \
            [(short, "voided", 30.0)]

    def test_empty_queue_transition_rejected(self):
        queue = build_queue([make_av_session()])
        event = schedule(queue)
        with pytest.raises(MdpError, match="transition on an empty queue"):
            queue.transition(1, event.allocation)

    def test_present_moves_clock_to_arrival(self):
        late = make_session(window_min=60, sid="late", start=T0 + timedelta(minutes=90))
        queue = build_queue([make_av_session(charge_min=30, sid="early"), late])
        schedule(queue)
        assert queue.clock == 30.0
        assert queue.present() is late
        assert queue.clock == 90.0

    def test_transition_rejects_head_not_presentable(self):
        late = make_session(window_min=60, sid="late", start=T0 + timedelta(minutes=90))
        queue = build_queue([make_av_session(charge_min=30, sid="early"), late])
        schedule(queue)
        with pytest.raises(MdpError, match="'late' is not presentable at t=30.0"):
            schedule(queue)
        queue.present()
        queue.clock = 200.0
        with pytest.raises(MdpError, match="'late' is not presentable at t=200.0"):
            queue.transition(0)
        # a rejected transition changes nothing
        assert queue.head() is late and queue.clock == 200.0


class TestAllocations:
    def test_rational_frees_port_early(self):
        # 10 kWh actually needed, requested window 240 min: port busy only for
        # the realized charging time plus switching
        s = make_session(requested=20.0, delivered=10.0, charge_min=60,
                         plugged_min=240, window_min=240)
        alloc = rational_allocation(s, EvseConfig("e", switching_minutes=5.0))
        assert alloc.rate_kw == pytest.approx(10.0)
        assert alloc.energy_kwh == pytest.approx(10.0)
        assert alloc.occupy_minutes == pytest.approx(65.0)

    def test_rational_respects_caps(self):
        s = make_session(requested=50.0, delivered=45.0, charge_min=45,
                         window_min=90, receiving_kw=30.0)
        alloc = rational_allocation(s, EvseConfig("e", supply_capacity_kw=50.0))
        assert alloc.rate_kw <= 30.0

    def test_as_requested_blocks_whole_window(self):
        s = make_session(requested=20.0, delivered=10.0, charge_min=60,
                         plugged_min=240, window_min=240)
        alloc = as_requested_allocation(s, EvseConfig("e"))
        assert alloc.occupy_minutes == pytest.approx(240.0)
        assert alloc.allocated_minutes == pytest.approx(240.0)
        assert alloc.energy_kwh == pytest.approx(10.0)
