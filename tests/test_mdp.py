"""Decision model: the policy's schedule pick, ordering ratio, ordering,
reward, state, allocations and queue."""

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
    decision_table,
    energy_ratios,
    generate_synthetic,
    port_rates,
    state_matrix,
)
from ramals.learner import (
    Coordinator,
    SharedModel,
    init_params,
    policy_value_forward,
)
from ramals.mdp import (
    EvseQueue,
    as_requested_allocation,
    rational_allocation,
)
from ramals.scheduler import ScheduleEngine

from helpers import T0, batch_of, make_av_session, make_session, site_for
from oracles import forward_pass, ordering_holds, rows, session_reward, state_vector


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


def head_probability(bp, hidden=4):
    """P(schedule) of one step whose policy logits are exactly ``bp``."""
    params = init_params(hidden, np.random.default_rng(0))
    params["wp"][:] = 0.0
    params["bp"][:] = bp
    carry = (np.zeros((1, hidden)), np.zeros((1, hidden)))
    p_schedule, _value, _carry = policy_value_forward(params, np.full((1, 6), 0.5), carry)
    return p_schedule[0]


def tiny_model(hidden=4):
    params = init_params(hidden, np.random.default_rng(1))
    return SharedModel(risk_value=0.0, coordinator=Coordinator(params))


class TestActionDistribution:
    """The step's P(schedule) is the first of two softmax probabilities."""

    def test_must_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            params = init_params(4, rng)
            for key in params:
                params[key] = rng.uniform(-2.0, 2.0, params[key].shape)
            state = rng.uniform(0.0, 1.0, 6)
            buffers = forward_pass(params, state[None, None])
            assert buffers.probs[0, 0].sum() == pytest.approx(1.0, abs=1e-12)
            carry = (np.zeros((1, 4)), np.zeros((1, 4)))
            p_schedule, _, _ = policy_value_forward(params, state[None], carry)
            assert p_schedule[0] == pytest.approx(buffers.probs[0, 0, 0], rel=1e-12)

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
        batch = batch_of([make_session(requested=10.0, delivered=8.0, sid="a"),
                          make_session(requested=10.0, delivered=5.0, sid="b",
                                       start=T0 + timedelta(hours=2))])
        for p_schedule, pick in ((0.7, 1), (0.3, 0), (0.5, 1), (0.5 - 1e-16, 0)):
            monkeypatch.setattr(learner, "policy_value_forward",
                                lambda params, states, carry, p=p_schedule:
                                (np.full(len(states), p), np.zeros(len(states)), carry))
            engine = ScheduleEngine(batch, site_for(batch), tiny_model())
            assert engine.rule([0], [0]) == [pick]

    @given(gap=st.floats(min_value=1e-6, max_value=30.0),
           scale=st.floats(min_value=0.1, max_value=10.0),
           base=st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_logit_rescaling(self, gap, scale, base):
        """Scaling logits before the softmax never flips the argmax."""
        plain = head_probability([base + gap, base])
        scaled = head_probability([scale * (base + gap), scale * base])
        assert plain >= 0.5 and scaled >= 0.5


def ratio_of(session):
    """The ordering ratio of a one-session batch's session."""
    return energy_ratios(batch_of([session]))[0]


class TestOrderingRatio:
    def test_selects_energy_ratio(self):
        assert ratio_of(make_session(requested=10.0, delivered=8.0)) == pytest.approx(0.8)

    def test_exact_request(self):
        assert ratio_of(make_session(requested=10.0, delivered=10.0)) == 1.0

    def test_zero_energy_counts_as_zero(self, caplog):
        zero = make_session(requested=0.0, delivered=0.0, sid="z")
        assert ratio_of(zero) == 0.0
        decision_table(batch_of([zero]), 0.0)
        assert [r.getMessage() for r in caplog.records if "'z'" in r.getMessage()] == \
            ["session 'z': zero requested energy, demand-supply index forced to 0"]


def head_ordering(*ratios):
    """The decision table's ordering check of the first of one port's
    sessions with these energy ratios, as (schedule, queue)."""
    batch = batch_of([make_session(requested=10.0, delivered=10.0 * ratio, sid=f"s{i}",
                                   start=T0 + timedelta(hours=i))
                      for i, ratio in enumerate(ratios)])
    return tuple(decision_table(batch, 0.0).ordered[:, 0].tolist())


class TestOrderingHolds:
    def test_schedule_compares_ratios(self):
        assert head_ordering(0.8, 0.5)[0]
        assert not head_ordering(0.5, 0.8)[0]
        assert head_ordering(0.5, 0.5)[0]

    def test_queue_compares_complements(self):
        assert head_ordering(0.5, 0.8)[1]
        assert not head_ordering(0.8, 0.5)[1]
        assert head_ordering(0.5, 0.5)[1]

    def test_no_next_session_holds_for_either_action(self):
        assert head_ordering(0.1) == (True, True)
        assert head_ordering(0.9) == (True, True)


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
        """A port that delivered nothing has rate ratio 0, which earns 0
        under either action."""
        batch = batch_of([make_session(requested=10.0, delivered=0.0, charge_min=60)])
        assert [rates.tolist() for rates in port_rates(batch)] == [[10.0], [0.0]]
        assert decision_table(batch, 0.0).reward.tolist() == [[0.0], [0.0]]
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
        vec = state_matrix(batch_of([s]))[0]
        assert vec.shape == (6,)
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)

    def test_component_order(self):
        s = make_session(requested=50.0, delivered=25.0, charge_min=144,
                         plugged_min=288, window_min=288)
        vec = state_matrix(batch_of([s]))[0]
        assert vec[0] == pytest.approx(0.5)    # requested kWh / 100
        assert vec[1] == pytest.approx(0.2)    # window / 1440
        assert vec[5] == pytest.approx(0.25)   # delivered kWh / 100

    def test_matrix_equals_per_session_rows(self):
        batch = generate_synthetic(GeneratorConfig(n_sessions=300, n_evses=3,
                                                   energy_kwh_range=(4.0, 140.0)), seed=4)
        matrix = state_matrix(batch)
        assert np.array_equal(matrix, np.stack([state_vector(s) for s in rows(batch)]))
        assert matrix[:, 5].max() == 1.0  # clipped
        assert state_matrix(batch_of([])).shape == (0, 6)


class PortQueue:
    """The queue of port EVSE-1 over a one-port batch, its clock's minute 0
    at the first plug-in, and each session's rational allocation."""

    def __init__(self, sessions):
        batch = batch_of(sessions)
        evse = EvseConfig("EVSE-1", switching_minutes=0.0)
        arrivals = (batch.plug_in - batch.plug_in[0]).astype(float)
        self.queue = EvseQueue(evse, batch.slices[0], batch.session_ids, arrivals.tolist(),
                               (arrivals + batch.minutes_available).tolist(),
                               step_minutes=15.0)
        self.allocations = rational_allocation(batch, [evse])

    def schedule(self):
        """Start the presented head under its rational allocation."""
        return self.queue.transition(1, self.allocations.occupy_minutes[self.queue.position])


class TestEvseQueue:
    def test_schedule_empties_single_session_queue(self):
        port = PortQueue([make_av_session()])
        queue = port.queue
        row, clock, wait = port.schedule()
        assert queue.present() is None
        assert (row, clock, wait, queue.clock) == (0, 0.0, 0.0, 60.0)
        assert queue.position == queue.stop and queue.voided == []

    def test_schedule_without_allocation_names_session(self):
        queue = PortQueue([make_av_session(sid="bare")]).queue
        with pytest.raises(MdpError, match="'bare': scheduled without an allocation"):
            queue.transition(1)
        assert queue.session_ids[queue.present()] == "bare"
        assert queue.clock == 0.0

    def test_queue_represents_same_head(self):
        queue = PortQueue([make_session(window_min=600)]).queue
        head_before = queue.present()
        row, clock, _wait = queue.transition(0)
        assert (row, clock) == (head_before, 0.0)
        assert queue.present() == head_before == 0
        assert queue.clock == 15.0

    def test_av_realizes_requested_energy(self):
        session = make_av_session(energy=12.0, charge_min=30)
        port = PortQueue([session])
        row, _clock, _wait = port.schedule()
        assert port.allocations.energy_kwh[row] == pytest.approx(12.0)
        assert port.queue.clock == 30.0

    def test_session_conservation_random_decisions(self):
        rng = np.random.default_rng(5)
        sessions = [make_av_session(energy=5.0, charge_min=20, sid=f"s{i}",
                                    start=T0) for i in range(10)]
        port = PortQueue(sessions)
        queue = port.queue
        scheduled = []
        while queue.present() is not None:
            if rng.integers(0, 2):
                scheduled.append(port.schedule()[0])
            else:
                assert queue.transition(0)[0] == queue.position  # still the head
        voided = [row for row, _clock, _wait in queue.voided]
        assert sorted(scheduled + voided) == list(range(len(sessions)))

    def test_expired_window_voids(self):
        short = make_session(window_min=20, charge_min=20, plugged_min=20)
        queue = PortQueue([short]).queue
        queue.transition(0)  # +15
        queue.transition(0)  # +15 -> wait 30 > 20
        assert queue.present() is None
        assert queue.voided == [(0, 30.0, 30.0)]

    def test_empty_queue_transition_rejected(self):
        port = PortQueue([make_av_session()])
        port.schedule()
        with pytest.raises(MdpError, match="transition on an empty queue"):
            port.queue.transition(1, port.allocations.occupy_minutes[0])

    def test_present_moves_clock_to_arrival(self):
        late = make_session(window_min=60, sid="late", start=T0 + timedelta(minutes=90))
        port = PortQueue([make_av_session(charge_min=30, sid="early"), late])
        queue = port.queue
        port.schedule()
        assert queue.clock == 30.0
        assert queue.session_ids[queue.present()] == "late"
        assert queue.clock == 90.0

    def test_transition_rejects_head_not_presentable(self):
        late = make_session(window_min=60, sid="late", start=T0 + timedelta(minutes=90))
        port = PortQueue([make_av_session(charge_min=30, sid="early"), late])
        queue = port.queue
        port.schedule()
        with pytest.raises(MdpError, match="'late' is not presentable at t=30.0"):
            port.schedule()
        queue.present()
        queue.clock = 200.0
        with pytest.raises(MdpError, match="'late' is not presentable at t=200.0"):
            queue.transition(0)
        # a rejected transition changes nothing
        assert queue.position == 1 and queue.clock == 200.0


def allocate(allocator, session, evse):
    """The allocation columns of a one-session batch on port ``evse``."""
    allocation = allocator(batch_of([session]), [evse])
    assert [len(column) for column in allocation] == [1] * len(allocation)
    return allocation


class TestAllocations:
    def test_rational_frees_port_early(self):
        # 10 kWh actually needed, requested window 240 min: port busy only for
        # the realized charging time plus switching
        s = make_session(requested=20.0, delivered=10.0, charge_min=60,
                         plugged_min=240, window_min=240)
        alloc = allocate(rational_allocation, s, EvseConfig("e", switching_minutes=5.0))
        assert alloc.rate_kw == pytest.approx([10.0])
        assert alloc.energy_kwh == pytest.approx([10.0])
        assert alloc.occupy_minutes == pytest.approx([65.0])

    def test_rational_respects_caps(self):
        s = make_session(requested=50.0, delivered=45.0, charge_min=45,
                         window_min=90, receiving_kw=30.0)
        alloc = allocate(rational_allocation, s, EvseConfig("e", supply_capacity_kw=50.0))
        assert alloc.rate_kw[0] <= 30.0

    def test_as_requested_blocks_whole_window(self):
        s = make_session(requested=20.0, delivered=10.0, charge_min=60,
                         plugged_min=240, window_min=240)
        alloc = allocate(as_requested_allocation, s, EvseConfig("e"))
        assert alloc.occupy_minutes == pytest.approx([240.0])
        assert alloc.allocated_minutes == pytest.approx([240.0])
        assert alloc.energy_kwh == pytest.approx([10.0])
