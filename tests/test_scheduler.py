"""Execution engine, baseline, metrics and comparison tables."""

import logging
import math
import re
from collections import defaultdict
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ramals import (
    EvseConfig,
    GeneratorConfig,
    SchedulerError,
    SessionError,
    SiteConfig,
    TrainConfig,
    compare_report,
    compute_metrics,
    decision_table,
    estimate_risk,
    execute,
    fcfs_as_requested_baseline,
    generate_synthetic,
    read_report,
    train,
)
import ramals.learner as learner
from ramals.cli import main as cli_main
from ramals.learner import Coordinator, SharedModel, init_params
from ramals.mdp import EvseQueue, as_requested_allocation, rational_allocation, state_matrix
from ramals.scheduler import (SITE_METRICS, ScheduleEngine, ScheduleOutcome, audit_outcomes,
                              comparison_csv, outcomes_jsonl)

import oracles
from helpers import (JSON_NUMBERS, JSON_TEXT, T0, batch_of, make_session, site_for,
                     spaced_av_batch)
from oracles import (PerDecisionRule, direct_loads, energy_ratio, ordering_holds,
                     outcomes_json_dumps, port_sessions, quadratic_feed_check, rate_ratio, rows,
                     scalar_replay, session_reward, time_ratio)


def outcome(sid="s1", evse="EVSE-1", scheduled=True, voided=False, energy=8.794,
            rate=8.794, minutes=60.0, start=0.0, reward=1.0):
    return ScheduleOutcome(
        session_id=sid, evse_id=evse, scheduled=scheduled, voided=voided,
        start_minutes=start, wait_minutes=0.0,
        realized_energy_kwh=energy if scheduled else 0.0,
        realized_rate_kw=rate if scheduled else 0.0,
        realized_minutes=minutes if scheduled else 0.0,
        allocated_energy_kwh=energy, allocated_minutes=minutes, reward=reward)


class TestComputeMetrics:
    def test_single_served_session(self):
        batch = spaced_av_batch(n=1, energy=8.794, charge_min=60)
        site = site_for(batch)
        report = compute_metrics([outcome()], site)
        assert report.charging_rate_kw == pytest.approx(8.794)
        assert report.total_active_hours == pytest.approx(1.0)
        assert report.assignment_efficiency_pct == 100.0
        assert report.total_energy_kwh == pytest.approx(8.794)

    def test_all_voided(self):
        batch = spaced_av_batch(n=2)
        site = site_for(batch)
        rows = [outcome(sid=f"s{i}", scheduled=False, voided=True) for i in range(2)]
        report = compute_metrics(rows, site)
        assert report.assignment_efficiency_pct == 0.0
        assert report.total_energy_kwh == 0.0

    def test_additive_across_evse_partitions(self):
        batch = spaced_av_batch(n=2, evses=("EVSE-1", "EVSE-2"))
        site = site_for(batch)
        rows_a = [outcome(sid="a1", evse="EVSE-1"), outcome(sid="a2", evse="EVSE-1")]
        rows_b = [outcome(sid="b1", evse="EVSE-2", energy=4.0, rate=4.0)]
        whole = compute_metrics(rows_a + rows_b, site)
        part_a = compute_metrics(rows_a, site)
        part_b = compute_metrics(rows_b, site)
        assert whole.total_energy_kwh == pytest.approx(
            part_a.total_energy_kwh + part_b.total_energy_kwh)
        assert whole.total_active_hours == pytest.approx(
            part_a.total_active_hours + part_b.total_active_hours)
        assert whole.sessions_served == part_a.sessions_served + part_b.sessions_served

    def test_csv_roundtrip(self):
        """The reader returns the compared site metrics alone, in
        ``SITE_METRICS`` order; the per-EVSE rows are pinned by the digest
        test."""
        batch = spaced_av_batch(n=2)
        site = site_for(batch)
        report = compute_metrics([outcome(sid="s0"), outcome(sid="s1")], site)
        header, *rows = report.to_csv().splitlines()
        for text in (report.to_csv(), "\n".join([header, *reversed(rows)])):
            again = read_report(text)
            assert again == report.scalar_metrics()
            assert list(again) == list(SITE_METRICS)

    def test_csv_without_a_site_metric_names_it(self):
        text = compute_metrics([outcome()], site_for(spaced_av_batch(n=1))).to_csv()
        dropped = "".join(row for row in text.splitlines(keepends=True)
                          if not row.startswith("sessions_served,"))
        with pytest.raises(SchedulerError, match="no site row for sessions_served"):
            read_report(dropped)

    @pytest.mark.parametrize("row, message", [
        ("charging_rate_kw,site", r"line 3: expected metric,scope,value, got "
                                  r"'charging_rate_kw,site'"),
        ("charging_rate_kw,site,fast", r"line 3: value 'fast' is not a number"),
        ("sessions_served,site,nan", r"sessions_served and sessions_total must be finite"),
        ("sessions_total,site,inf", r"sessions_served and sessions_total must be finite"),
        ("active_charging_hours,EVSE-1", r"line 3: expected metric,scope,value, got "
                                         r"'active_charging_hours,EVSE-1'"),
        ("energy_delivered_kwh,EVSE-1,lots", r"line 3: value 'lots' is not a number")])
    def test_csv_bad_row_names_its_line(self, row, message):
        """A bad row replaces the one of its metric and scope; a per-EVSE row
        is checked as a site row is, though the reader keeps none of them."""
        text = compute_metrics([outcome()], site_for(spaced_av_batch(n=1))).to_csv()
        prefix = ",".join(row.split(",")[:2]) + ","
        rows = [r for r in text.splitlines() if not r.startswith(prefix)]
        rows.insert(2, row)
        with pytest.raises(SchedulerError, match=message):
            read_report("\n".join(rows))

    def test_totals_add_left_to_right(self):
        """Each total adds its terms one at a time from 0, in session and then
        site order, on every Python version; 3.12's compensated builtin sum
        would make these 1e16 + 1 + 1 terms 1e16 + 2."""
        site = SiteConfig(1000.0, tuple(EvseConfig(f"EVSE-{i}", 50.0) for i in (1, 2, 3)))
        rows = [outcome(sid=f"s{i}", evse=f"EVSE-{i + 1}", energy=kwh, minutes=60.0 * kwh)
                for i, kwh in enumerate((1e16, 1.0, 1.0))]
        report = compute_metrics(rows, site)
        assert report.total_energy_kwh == report.total_active_hours == 1e16
        assert report.charging_rate_kw == 1e16 / 6e17 * 60.0
        assert math.fsum([1e16, 1.0, 1.0]) != 1e16

    def test_csv_roundtrip_exact_on_twelve_ports(self):
        """The CSV lists ports sorted as text (EVSE-10 before EVSE-2); the site
        totals read back must still equal the ones written, bit for bit."""
        site = SiteConfig(1000.0, tuple(EvseConfig(f"EVSE-{i}", 50.0) for i in range(1, 13)))
        rng = np.random.default_rng(4)
        rows = [outcome(sid=f"s{i}", evse=f"EVSE-{i % 12 + 1}",
                        energy=float(rng.uniform(1.0, 40.0)),
                        minutes=float(rng.uniform(5.0, 300.0))) for i in range(60)]
        report = compute_metrics(rows, site)
        assert read_report(report.to_csv()) == report.scalar_metrics()


class TestExecute:
    def test_empty_batch(self, tmp_path):
        batch = batch_of([])
        site = site_for(spaced_av_batch(n=1))
        outcomes, report = execute(None, batch, site)
        assert outcomes == []
        assert report.sessions_served == 0
        assert report.assignment_efficiency_pct == 0.0
        # through the CLI: an empty outcome file, not one blank line
        (tmp_path / "empty.json").write_text("[]")
        out, report_path = tmp_path / "o.jsonl", tmp_path / "r.csv"
        assert cli_main(["run", "--baseline", "--sessions", str(tmp_path / "empty.json"),
                         "--out", str(out), "--report", str(report_path)]) == 0
        assert out.read_bytes() == b""
        text = report_path.read_text()
        assert read_report(text)["sessions_served"] == 0.0
        assert "\nsessions_total,site,0.0\n" in text

    def test_all_av_oracle_schedule_is_fully_efficient(self):
        batch = spaced_av_batch(n=8, evses=("EVSE-1", "EVSE-2"))
        site = site_for(batch)
        outcomes, report = execute(None, batch, site)
        assert report.assignment_efficiency_pct == 100.0
        for o in outcomes:
            assert o.scheduled and not o.voided

    def test_av_baseline_matches_oracle_run(self):
        batch = spaced_av_batch(n=6, evses=("EVSE-1", "EVSE-2"))
        site = site_for(batch, switching_minutes=0.0)
        _, forced = execute(None, batch, site)
        _, baseline = fcfs_as_requested_baseline(batch, site)
        assert baseline.scalar_metrics() == pytest.approx(forced.scalar_metrics())

    def test_policy_run_with_trained_model(self):
        batch = generate_synthetic(
            GeneratorConfig(n_sessions=40, cv_fraction=0.5, n_evses=2,
                            mean_gap_minutes=250), seed=3)
        site = site_for(batch)
        model, _ = train(batch, site, TrainConfig(episodes=3, seed=1, hidden=8),
                         risk_value=0.05)
        outcomes, report = execute(model, batch, site)
        assert len(outcomes) == len(batch)
        assert 0.0 <= report.assignment_efficiency_pct <= 100.0

    def test_allocates_once_per_replay(self):
        """One allocator call covers the batch, however often a tight feed
        defers a start; each start realizes its session's allocation."""
        batch = generate_synthetic(GeneratorConfig(n_sessions=40, n_evses=3,
                                                   mean_gap_minutes=30), seed=7)
        site = site_for(batch, dso_kw=20.0)
        calls = []

        def counting_allocation(batch, evses):
            calls.append((len(batch), evses))
            return rational_allocation(batch, evses)

        engine = ScheduleEngine(batch, site, allocator=counting_allocation)
        outcomes = engine.run()
        assert calls == [(len(batch), list(site.evses))]
        allocation = rational_allocation(batch, site.evses)
        row_of = {session_id: i for i, session_id in enumerate(batch.session_ids)}
        started = [o for o in outcomes if o.scheduled]
        assert 0 < len(started) < len(batch)
        for o in started:
            i = row_of[o.session_id]
            assert (o.realized_energy_kwh, o.realized_rate_kw, o.realized_minutes,
                    o.allocated_energy_kwh, o.allocated_minutes) == (
                allocation.energy_kwh[i], allocation.rate_kw[i], allocation.charge_minutes[i],
                allocation.allocated_energy_kwh[i], allocation.allocated_minutes[i])

    def test_debug_logs_every_deferral_and_void(self, caplog, monkeypatch):
        """At DEBUG a tight-feed replay logs one ``deferred session`` record
        per feed deferral and one ``voided`` record per voided outcome, under
        either rule.  A presented head is decided, deferred by the feed, or,
        where presenting moved the port's clock up to the head's arrival,
        pushed back undecided; so the deferrals are the presentations that
        returned a head, less the transitions and those push-backs."""
        batch = generate_synthetic(GeneratorConfig(n_sessions=60, n_evses=4,
                                                   mean_gap_minutes=90), seed=11)
        site = site_for(batch, dso_kw=50.0, supply_kw=37.5)
        present, transition = EvseQueue.present, EvseQueue.transition
        counts = defaultdict(int)

        def counting_present(queue):
            clock = queue.clock
            head = present(queue)
            if head is not None:
                counts["presented"] += 1
                counts["pushed back"] += queue.clock > clock
            return head

        def counting_transition(queue, *args):
            counts["transitions"] += 1
            return transition(queue, *args)

        monkeypatch.setattr(EvseQueue, "present", counting_present)
        monkeypatch.setattr(EvseQueue, "transition", counting_transition)
        for replay in (fcfs_as_requested_baseline, lambda b, s: execute(None, b, s)):
            counts.clear()
            caplog.clear()
            with caplog.at_level(logging.DEBUG):
                outcomes, _ = replay(batch, site)
            messages = [record.getMessage() for record in caplog.records]
            deferred = sum("deferred session" in message for message in messages)
            voided = sum("voided" in message for message in messages)
            assert deferred == (counts["presented"] - counts["transitions"]
                                - counts["pushed back"]) > 0
            assert voided == sum(o.voided for o in outcomes) > 0

    def test_one_policy_step_per_decision(self, monkeypatch):
        """A decision is a transition or a feed deferral, which the engine
        logs at DEBUG; each uses one stepped row, its own head's."""
        batch = generate_synthetic(
            GeneratorConfig(n_sessions=60, cv_fraction=0.5, n_evses=3,
                            mean_gap_minutes=90), seed=3)
        # a 20 kW feed defers most starts, and voids some heads it deferred
        site = site_for(batch, dso_kw=20.0)
        model, _ = train(batch, site, TrainConfig(episodes=2, seed=1, hidden=8),
                         risk_value=0.05)
        session_of = {}  # each session's state row -> (port, batch row)
        states = state_matrix(batch)
        for p, rows in enumerate(batch.slices):
            session_of.update({row.tobytes(): (p, i)
                               for i, row in zip(range(rows.start, rows.stop), states[rows])})
        assert len(session_of) == len(batch)
        step, transition = learner.policy_value_forward, EvseQueue.transition
        stack_sizes, stepped, decided = [], defaultdict(list), defaultdict(list)
        port_of = {evse_id: p for p, evse_id in enumerate(batch.evse_ids)}
        row_of = {session_id: i for i, session_id in enumerate(batch.session_ids)}

        def counting_step(params, head_states, carry):
            stack_sizes.append(len(head_states))
            for row in head_states:
                p, i = session_of[row.tobytes()]
                stepped[p].append(i)
            return step(params, head_states, carry)

        def counting_transition(queue, *args):
            event = transition(queue, *args)
            decided[port_of[queue.evse.evse_id]].append(event[0])
            return event

        class Deferrals(logging.Handler):
            def emit(self, record):
                if "deferred session" in record.msg:
                    evse_id, session_id = record.args[:2]
                    decided[port_of[evse_id]].append(row_of[session_id])

        monkeypatch.setattr(learner, "policy_value_forward", counting_step)
        monkeypatch.setattr(EvseQueue, "transition", counting_transition)
        engine_log, handler = logging.getLogger("ramals.scheduler"), Deferrals()
        engine_log.addHandler(handler)
        level = engine_log.level
        engine_log.setLevel(logging.DEBUG)
        try:
            outcomes, _ = execute(model, batch, site)
        finally:
            engine_log.removeHandler(handler)
            engine_log.setLevel(level)
        # each decision consumes one stepped row, its own session's, in the
        # port's decision order, and no row is stepped that is not consumed
        assert stepped == decided
        assert sum(stack_sizes) > sum(o.scheduled for o in outcomes) > 0
        assert len(stack_sizes) < sum(stack_sizes)  # some steps stack several ports

    def test_every_port_starts_from_a_zero_carry(self, monkeypatch):
        """A replay steps each port's first head from zeros, as a training
        episode does, whatever carry the ports ended training with."""
        batch = generate_synthetic(
            GeneratorConfig(n_sessions=40, cv_fraction=0.5, n_evses=3,
                            mean_gap_minutes=90), seed=4)
        site = site_for(batch)
        model, _ = train(batch, site, TrainConfig(episodes=3, seed=2, hidden=8),
                         risk_value=0.05)
        states = state_matrix(batch)
        port_of = {}  # each session's state row -> its port
        for evse_id, rows in zip(batch.evse_ids, batch.slices):
            port_of.update({row.tobytes(): evse_id for row in states[rows]})
        assert len(port_of) == len(batch)
        step, first_carries = learner.policy_value_forward, {}

        def recording_step(params, head_states, carry):
            for row, h, c in zip(head_states, *carry):
                first_carries.setdefault(port_of[row.tobytes()], (h.copy(), c.copy()))
            return step(params, head_states, carry)

        monkeypatch.setattr(learner, "policy_value_forward", recording_step)
        execute(model, batch, site)
        assert sorted(first_carries) == sorted(batch.evse_ids)
        for h, c in first_carries.values():
            assert not h.any() and not c.any()

    def test_model_runs_on_a_site_with_other_ports(self):
        """A model trained on two ports replays five, each from a zero
        carry, as the per-decision oracle does."""
        small = generate_synthetic(GeneratorConfig(n_sessions=30, n_evses=2), seed=5)
        model, _ = train(small, site_for(small), TrainConfig(episodes=3, seed=5, hidden=6),
                         risk_value=0.05)
        batch = generate_synthetic(GeneratorConfig(n_sessions=60, n_evses=5,
                                                   mean_gap_minutes=30), seed=6)
        site = site_for(batch, dso_kw=60.0)
        assert len(site.evse_ids) == 5
        outcomes, _ = execute(model, batch, site)
        rule = PerDecisionRule(model, port_sessions(batch), state_matrix(batch))
        assert outcomes == scalar_replay(batch, site, rule, risk_value=model.risk_value)
        assert any(o.scheduled for o in outcomes) and any(not o.scheduled for o in outcomes)

    def test_decide_rejects_head_moved_after_its_step(self, monkeypatch):
        batch = generate_synthetic(GeneratorConfig(n_sessions=12, n_evses=2), seed=3)
        site = site_for(batch)
        model, _ = train(batch, site, TrainConfig(episodes=1, seed=1, hidden=4),
                         risk_value=0.0)
        engine = ScheduleEngine(batch, site, model)
        second = batch.slices[1]
        moved = second.start + 1
        step, stack_sizes = learner.policy_value_forward, []

        def moving_step(params, head_states, carry):
            if not stack_sizes:  # the first step, taken for both ports' first heads
                engine.queues[1].position = moved
            stack_sizes.append(len(head_states))
            return step(params, head_states, carry)

        monkeypatch.setattr(learner, "policy_value_forward", moving_step)
        head, moved_id = batch.session_ids[second.start], batch.session_ids[moved]
        with pytest.raises(SchedulerError, match=re.escape(
                f"'EVSE-2': decision on session {moved_id!r}, but its policy step was "
                f"taken for {head!r}")):
            engine.run()
        assert stack_sizes[0] == 2

    @pytest.mark.parametrize("years, step", [(0, 1e-12), (0, 1e-9), (35, 1.5e-9)])
    def test_step_too_fine_to_move_a_clock_refused(self, years, step):
        """A deferral or a queued head moves its port's clock on by the step.
        One that leaves a clock the replay can act on unmoved (1.5e-9 minutes
        at 35 years in), or moves it only within the engine's 1e-9-minute
        tolerance, is refused before any replay; 1.5e-9 early on is not."""
        batch = batch_of([make_session(sid="a"), make_session(
            sid="b", start=T0 + timedelta(days=365 * years, hours=2))])
        with pytest.raises(SchedulerError, match="^step_minutes must exceed "):
            ScheduleEngine(batch, site_for(batch, dso_kw=40.0), step_minutes=step)
        if years:
            ScheduleEngine(batch_of([make_session()]), site_for(batch), step_minutes=step)

    def test_site_capacity_respected(self):
        # two ports, each able to push 40 kW, but the feed only carries 50 kW
        batch = spaced_av_batch(n=4, energy=20.0, charge_min=30, gap_min=1,
                                evses=("EVSE-1", "EVSE-2"))
        site = site_for(batch, dso_kw=50.0)
        outcomes, _ = execute(None, batch, site)
        audit_outcomes(outcomes, batch, site)  # capacity sweep inside

    def test_conservation_and_caps_random_runs(self):
        batch = generate_synthetic(
            GeneratorConfig(n_sessions=300, cv_fraction=0.7, n_evses=6,
                            mean_gap_minutes=60), seed=9)
        site = site_for(batch, dso_kw=120.0, switching_minutes=5.0)
        outcomes, report = execute(None, batch, site)
        served = sum(o.scheduled for o in outcomes)
        voided = sum(o.voided for o in outcomes)
        assert served + voided == len(batch)
        assert report.sessions_served == served


class TestBaseline:
    def test_cv_keeps_inflated_window(self):
        s = make_session(requested=20.0, delivered=10.0, charge_min=60,
                         plugged_min=240, window_min=240, sid="cv")
        batch = batch_of([s])
        site = site_for(batch)
        outcomes, _ = fcfs_as_requested_baseline(batch, site)
        (o,) = outcomes
        assert o.allocated_minutes == pytest.approx(240.0)

    def test_energy_ratio_preserved(self):
        batch = generate_synthetic(
            GeneratorConfig(n_sessions=30, cv_fraction=1.0, n_evses=2,
                            mean_gap_minutes=600), seed=4)
        site = site_for(batch)
        outcomes, _ = fcfs_as_requested_baseline(batch, site)
        by_id = {s.session_id: s for s in rows(batch)}
        for o in outcomes:
            if o.scheduled:
                session = by_id[o.session_id]
                assert o.realized_energy_kwh / session.energy_requested_kwh \
                    == pytest.approx(energy_ratio(session))

    def test_deterministic(self):
        batch = generate_synthetic(
            GeneratorConfig(n_sessions=60, cv_fraction=0.6, n_evses=3), seed=5)
        site = site_for(batch)
        a, _ = fcfs_as_requested_baseline(batch, site)
        b, _ = fcfs_as_requested_baseline(batch, site)
        assert a == b


def risk_off_report(batch, site, config):
    """Train with the tail-risk factor pinned to zero, then execute."""
    model, _ = train(batch, site, config, risk_value=0.0)
    return execute(model, batch, site)[1]


class TestRiskOffAblation:
    def test_zero_laxity_batch_matches_full(self):
        batch = spaced_av_batch(n=10, evses=("EVSE-1", "EVSE-2"))
        site = site_for(batch)
        config = TrainConfig(episodes=2, seed=2, hidden=8)
        ablated = risk_off_report(batch, site, config)
        # zero-laxity: risk estimates to 0
        model, _ = train(batch, site, config,
                         risk_value=estimate_risk(batch, 0.9).cvar_normalized)
        _, full = execute(model, batch, site)
        assert ablated.scalar_metrics() == pytest.approx(full.scalar_metrics())

    def test_report_emitted_on_cv_batch(self):
        batch = generate_synthetic(
            GeneratorConfig(n_sessions=30, cv_fraction=1.0, n_evses=2,
                            mean_gap_minutes=400), seed=6)
        site = site_for(batch)
        report = risk_off_report(batch, site, TrainConfig(episodes=2, seed=3, hidden=8))
        assert report.sessions_total == len(batch)


class TestOutcomeReward:
    """Each outcome's reward, recomputed from the batch with the decision
    model: the port's rate ratio, the session's time ratio, the run's risk and
    the ordering between the session and the one queued behind it."""

    def expected_rewards(self, batch, risk):
        want = {}
        sessions = rows(batch)
        for port in batch.slices:
            group = sessions[port]
            zeta = rate_ratio(group)
            for i, session in enumerate(group):
                upsilon_next = energy_ratio(group[i + 1]) if i + 1 < len(group) else None
                ordered = ordering_holds(energy_ratio(session), upsilon_next, 1)
                want[session.session_id] = session_reward(
                    zeta, time_ratio(session), risk, ordered)
        return want

    def check(self, outcomes, batch, risk):
        want = self.expected_rewards(batch, risk)
        scheduled = [o for o in outcomes if o.scheduled]
        assert any(o.reward > 0.0 for o in scheduled)
        assert any(o.reward == 0.0 for o in scheduled)  # the ordering bites
        for o in outcomes:
            assert o.reward == (want[o.session_id] if o.scheduled else 0.0)

    def scenario(self):
        batch = generate_synthetic(
            GeneratorConfig(n_sessions=60, cv_fraction=0.6, n_evses=3,
                            mean_gap_minutes=90), seed=11)
        return batch, site_for(batch, dso_kw=100.0, switching_minutes=5.0)

    def test_trained_model_run(self):
        batch, site = self.scenario()
        model, _ = train(batch, site, TrainConfig(episodes=3, seed=2, hidden=8),
                         risk_value=0.15)
        outcomes, _ = execute(model, batch, site)
        self.check(outcomes, batch, model.risk_value)

    def test_always_schedule_run(self):
        batch, site = self.scenario()
        outcomes, _ = execute(None, batch, site)
        self.check(outcomes, batch, 0.0)


class TestOutcomesJsonl:
    def test_matches_json_dumps_on_policy_run(self):
        batch, site = TestOutcomeReward().scenario()
        model, _ = train(batch, site, TrainConfig(episodes=2, seed=2, hidden=8),
                         risk_value=0.15)
        outcomes, _ = execute(model, batch, site)
        assert outcomes_jsonl(outcomes) == outcomes_json_dumps(outcomes)

    @given(outcomes=st.lists(st.builds(
        ScheduleOutcome, JSON_TEXT, JSON_TEXT, st.booleans(), st.booleans(),
        *[JSON_NUMBERS] * 8), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_matches_json_dumps(self, outcomes):
        assert outcomes_jsonl(outcomes) == outcomes_json_dumps(outcomes)

    @pytest.mark.parametrize("odd", [math.nan, math.inf, -math.inf, 7, True])
    def test_one_odd_value_in_a_float_column(self, odd):
        """A column of finite floats but one entry is written as json.dumps
        writes it, entry by entry."""
        outcomes = [outcome(sid=f"s{i}", energy=1.5 * i, reward=0.25 * i) for i in range(5)]
        outcomes[3] = outcomes[3]._replace(reward=odd)
        assert outcomes_jsonl(outcomes) == outcomes_json_dumps(outcomes)

    def test_empty_is_an_empty_file(self):
        assert outcomes_jsonl([]) == outcomes_json_dumps([]) == ""

    def test_fields_pinned(self):
        """Readers of outcomes take their fields by name, in this order."""
        assert ScheduleOutcome._fields == (
            "session_id", "evse_id", "scheduled", "voided", "start_minutes", "wait_minutes",
            "realized_energy_kwh", "realized_rate_kw", "realized_minutes",
            "allocated_energy_kwh", "allocated_minutes", "reward")


class TestAudit:
    def test_detects_missing_outcome(self):
        batch = spaced_av_batch(n=2)
        site = site_for(batch)
        with pytest.raises(SchedulerError, match="conservation"):
            audit_outcomes([outcome(sid="EVSE-1-s0")], batch, site)

    def test_detects_overcap_rate(self):
        batch = spaced_av_batch(n=1)
        site = site_for(batch)
        bad = outcome(sid="EVSE-1-s0", rate=80.0)
        with pytest.raises(SchedulerError, match="exceeds cap"):
            audit_outcomes([bad], batch, site)

    def test_first_of_two_over_cap_sessions_named(self):
        """Outcomes are checked in outcome order, not batch order."""
        batch = spaced_av_batch(n=2)
        site = site_for(batch)
        late, early = (outcome(sid=f"EVSE-1-s{i}", rate=rate, start=60.0 * i)
                       for i, rate in ((1, 70.0), (0, 80.0)))
        with pytest.raises(SchedulerError, match="session 'EVSE-1-s1' rate 70.0 exceeds cap 50.0"):
            audit_outcomes([late, early], batch, site)
        with pytest.raises(SchedulerError, match="session 'EVSE-1-s0' rate 80.0 exceeds cap 50.0"):
            audit_outcomes([early, late], batch, site)

    def test_outcome_on_a_port_the_site_lacks_named(self):
        batch = spaced_av_batch(n=1, evses=("EVSE-1", "EVSE-2"))
        site = site_for(batch_of([make_session(evse="EVSE-1")]))
        outcomes = [outcome(sid="EVSE-1-s0"), outcome(sid="EVSE-2-s0", evse="EVSE-2")]
        with pytest.raises(SchedulerError, match="^session 'EVSE-2-s0': outcome names EVSE "
                                                 "'EVSE-2', which the site lacks$"):
            audit_outcomes(outcomes, batch, site)

    def test_overlap_over_feed_raises_touching_passes(self):
        batch = spaced_av_batch(n=1, evses=("EVSE-1", "EVSE-2"))
        site = site_for(batch, dso_kw=60.0)
        first = outcome(sid="EVSE-1-s0", evse="EVSE-1", rate=40.0, minutes=60.0, start=0.0)
        with pytest.raises(SchedulerError, match=r"site load 80\.000 kW .* at t=30\.0 min"):
            audit_outcomes([first, outcome(sid="EVSE-2-s0", evse="EVSE-2", rate=40.0,
                                           minutes=60.0, start=30.0)], batch, site)
        audit_outcomes([first, outcome(sid="EVSE-2-s0", evse="EVSE-2", rate=40.0,
                                       minutes=60.0, start=60.0)], batch, site)


# Starts on a 7.5 min grid, nudged by less than, exactly or more than the audit's 1e-9 min
# tolerance, make touching and barely overlapping intervals common.  The feed
# is either free or one of the loads, moved by up to twice the audit's 1e-6 kW
# tolerance.  Rates on a 1/8 kW grid keep every partial sum exact, so the
# sweep and the direct sums see the same load even when it sits on the
# tolerance; off the grid the two can differ in the last bit, as they add in
# another order.
_interval = st.tuples(
    st.booleans(),
    st.integers(0, 16).map(lambda k: 7.5 * k),
    st.sampled_from([0.0, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9]),
    st.integers(0, 8).map(lambda k: 7.5 * k),
    st.integers(1, 400).map(lambda k: k / 8.0),
)


@settings(max_examples=300, deadline=None)
@given(intervals=st.lists(_interval, min_size=1, max_size=12),
       feed=st.integers(1, 800).map(lambda k: k / 8.0),
       feed_at_load=st.none() | st.integers(0, 11),
       feed_offset=st.sampled_from([0.0, 1e-6, -1e-6, 5e-7, -5e-7, 2e-6, -2e-6]))
def test_feed_sweep_agrees_with_direct_sums(intervals, feed, feed_at_load, feed_offset):
    outcomes = [outcome(sid=f"s{i}", evse=f"EVSE-{i % 3}", scheduled=scheduled,
                        start=start + nudge, minutes=minutes, rate=rate, energy=rate)
                for i, (scheduled, start, nudge, minutes, rate) in enumerate(intervals)]
    loads = [load for _start, load in direct_loads(outcomes)]
    if feed_at_load is not None and loads:
        feed = loads[feed_at_load % len(loads)]
    batch = batch_of([make_session(sid=o.session_id, evse=o.evse_id, receiving_kw=100.0)
                      for o in outcomes])
    site = site_for(batch, dso_kw=feed + feed_offset, supply_kw=100.0)

    def message(check):
        try:
            check()
        except SchedulerError as exc:
            return str(exc)
        return None

    expected = message(lambda: quadratic_feed_check(outcomes, site.dso_capacity_kw))
    assert message(lambda: audit_outcomes(outcomes, batch, site)) == expected


# The tight-feed range: 60 sessions on 3-6 ports, a 50-80 kW feed and a
# 90-400 min mean gap, where a port's clock often jumps to its next arrival.
@settings(max_examples=60, deadline=None)
@given(n_evses=st.integers(3, 6), feed=st.floats(50.0, 80.0),
       gap=st.floats(90.0, 400.0), seed=st.integers(0, 2 ** 32 - 1))
def test_replays_keep_feed_conservation_and_determinism(n_evses, feed, gap, seed):
    batch = generate_synthetic(GeneratorConfig(n_sessions=60, n_evses=n_evses,
                                               mean_gap_minutes=gap), seed=seed)
    site = site_for(batch, dso_kw=feed, switching_minutes=5.0)
    for replay in (fcfs_as_requested_baseline, lambda b, s: execute(None, b, s)):
        outcomes, report = replay(batch, site)  # audits conservation, caps and feed
        assert all(o.scheduled != o.voided for o in outcomes)
        assert replay(batch, site) == (outcomes, report)


# 1-8 ports under 20-400 kW feeds: a 20 kW feed defers most starts, and a
# deferred head is often voided when its port is queued again.
@settings(max_examples=40, deadline=None)
@given(n_sessions=st.integers(1, 80), n_evses=st.integers(1, 8),
       feed=st.floats(20.0, 400.0), gap=st.floats(10.0, 400.0),
       hidden=st.integers(4, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_policy_run_matches_per_decision_oracle(n_sessions, n_evses, feed, gap, hidden,
                                                seed):
    batch = generate_synthetic(GeneratorConfig(n_sessions=n_sessions, n_evses=n_evses,
                                               mean_gap_minutes=gap), seed=seed)
    site = site_for(batch, dso_kw=feed, switching_minutes=5.0)
    model, _ = train(batch, site, TrainConfig(episodes=2, seed=seed, hidden=hidden),
                     risk_value=0.05)
    outcomes, _ = execute(model, batch, site)
    rule = PerDecisionRule(model, port_sessions(batch), state_matrix(batch))
    assert outcomes == scalar_replay(batch, site, rule, risk_value=model.risk_value)


# Hand-built ports of 1-6 sessions whose energy ratios come from a few
# values, so ordering ties are common, and whose requests are often zero,
# signed zeros included.  With ``idle_port`` the first port requests nothing,
# so its rate ratio is undefined; with ``exact_port`` the last port's
# sessions get exactly what they asked for, so its rate ratio is exactly 1.
_SESSION = st.tuples(st.sampled_from([0.0, -0.0, 5.0, 10.0, 20.0]),  # requested kWh
                     st.sampled_from([0.0, 0.5, 0.8, 1.0, 1.25]),   # delivered share
                     st.integers(0, 120), st.integers(1, 120),      # charge, idle minutes
                     st.integers(1, 240), st.integers(0, 600),      # window, plug-in offset
                     st.sampled_from([7.0, 50.0]))                  # receiving kW


def _table_batch(ports, idle_port, exact_port):
    sessions = []
    for p, port in enumerate(ports):
        for i, (requested, share, charge, idle, window, offset, receiving) in enumerate(port):
            if idle_port and p == 0:
                requested = 0.0
            elif exact_port and p == len(ports) - 1:
                requested, share, charge = requested or 10.0, 1.0, max(charge, 1)
                window = charge
            sessions.append(make_session(
                requested=requested, delivered=share * (requested or 10.0),
                charge_min=charge, plugged_min=charge + idle, window_min=window,
                evse=f"EVSE-{p}", sid=f"p{p}s{i}", start=T0 + timedelta(minutes=offset),
                receiving_kw=receiving))
    return batch_of(sessions)


def _rate_ratio_undefined(batch, rows):
    try:
        oracles.port_rate_ratio(batch, rows)
    except SessionError:
        return True
    return False


def _bits(records):
    """Named tuples as text that tells every float apart, signed zeros
    included."""
    return [repr(tuple(record)) for record in records]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ports=st.lists(st.lists(_SESSION, min_size=1, max_size=6), min_size=1, max_size=4),
       idle_port=st.booleans(), exact_port=st.booleans(),
       supplies=st.lists(st.sampled_from([7.0, 22.0, 50.0]), min_size=4, max_size=4),
       switching=st.sampled_from([0.0, -0.0, 5.0]), feed=st.sampled_from([15.0, 40.0, 1000.0]),
       risk=st.sampled_from([0.0, 0.0213, 0.5]), scale=st.sampled_from([1.0, 30.0]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(  # a one-session port with an undefined rate ratio, then a tie and a zero request
    ports=[[(5.0, 0.5, 30, 10, 60, 0, 50.0)],
           [(10.0, 0.5, 30, 10, 60, 0, 50.0), (20.0, 0.5, 20, 10, 60, 5, 7.0),
            (0.0, 0.0, 0, 5, 30, 10, 7.0)]],
    idle_port=True, exact_port=False, supplies=[22.0] * 4, switching=5.0, feed=15.0,
    risk=0.0213, scale=30.0, seed=0)
def test_table_driven_replay_matches_scalar_oracle(caplog, ports, idle_port, exact_port,
                                                   supplies, switching, feed, risk, scale,
                                                   seed):
    """The decision table and the whole-batch allocations equal the scalar
    reward and allocators at every session, and the engine that reads them
    replays as the scalar oracle does, bit for bit, under both allocators,
    with no model, where every head starts at risk 0, and under a model's
    policy rule."""
    batch = _table_batch(ports, idle_port, exact_port)
    site = SiteConfig(feed, tuple(
        EvseConfig(evse_id, supply_capacity_kw=supply, switching_minutes=switching)
        for evse_id, supply in zip(batch.evse_ids, supplies)))
    scalar_ports = port_sessions(batch)
    evses = {evse.evse_id: evse for evse in site.evses}
    sessions = [(port, i, evses[port.evse_id])
                for port in scalar_ports for i in range(len(port.session_ids))]
    caplog.clear()
    table = decision_table(batch, risk)
    for action, schedule_now in enumerate((1, 0)):  # action 0 schedules
        want = [port.reward(i, schedule_now, risk) for port, i, _evse in sessions]
        assert list(map(repr, table.reward[action].tolist())) == list(map(repr, want))
    zero = [sid for sid, kwh in zip(batch.session_ids, batch.requested_kwh) if kwh <= 0]
    assert sorted(r.args[0] for r in caplog.records
                  if "zero requested energy" in r.getMessage()) == sorted(zero)
    assert [r.args[0] for r in caplog.records if "rate ratio undefined" in r.getMessage()] \
        == [evse_id for evse_id, rows in zip(batch.evse_ids, batch.slices)
            if _rate_ratio_undefined(batch, rows)]

    for allocator, scalar_allocator in ((rational_allocation, oracles.rational_allocation),
                                        (as_requested_allocation,
                                         oracles.as_requested_allocation)):
        assert _bits(zip(*allocator(batch, site.evses))) == \
            _bits(scalar_allocator(port, i, evse) for port, i, evse in sessions)
        got = ScheduleEngine(batch, site, None, allocator).run()  # no model: risk 0
        want = scalar_replay(batch, site, oracles.ForcedRule(), allocator=scalar_allocator,
                             risk_value=0.0)
        assert _bits(got) == _bits(want)

    params = init_params(4, np.random.default_rng(seed))
    for key in params:
        params[key] *= scale
    model = SharedModel(risk_value=risk, coordinator=Coordinator(params))
    got, _ = execute(model, batch, site)
    rule = PerDecisionRule(model, scalar_ports, state_matrix(batch))
    assert _bits(got) == _bits(scalar_replay(batch, site, rule, risk_value=risk))


class TableArgmaxRule:
    """Training's optimum: each session's larger table reward, a tie
    scheduling, then the engine's ordering override."""

    def __init__(self, batch, table):
        self.starts = {evse_id: rows.start for evse_id, rows in zip(batch.evse_ids,
                                                                     batch.slices)}
        self.table = table

    def decide(self, port, i):
        row = self.starts[port.evse_id] + i
        reward = self.table.reward[:, row]
        action = 0 if reward[0] >= reward[1] else 1  # action 0 schedules
        return 1 if self.table.ordered[action, row] else 0


@settings(max_examples=100, deadline=None)
@given(n_sessions=st.integers(1, 80), n_evses=st.integers(1, 4),
       cv_fraction=st.sampled_from([0.0, 0.7, 1.0]) | st.floats(0.0, 1.0),
       risk=st.floats(0.0, 1.0, exclude_max=True), feed=st.sampled_from([60.0, 150.0, 1000.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_training_optimum_is_always_schedule(n_sessions, n_evses, cv_fraction, risk, feed,
                                             seed):
    """Replayed with the table's argmax, the training optimum, the engine
    starts every presented head wherever every session's larger reward is
    > 0, at any risk in [0, 1).

    Under scheduling the ordering check compares a session's energy ratio
    with the next one's, and under queueing their complements, so one of
    the two checks always holds.  A failed check pays 0, so a larger reward
    > 0 belongs to an action whose check holds, a tie included, and the
    override starts the head.  The risk moves both actions' rewards alike
    and cannot change which is larger."""
    batch = generate_synthetic(GeneratorConfig(n_sessions=n_sessions, n_evses=n_evses,
                                               cv_fraction=cv_fraction), seed=seed)
    site = site_for(batch, dso_kw=feed, switching_minutes=5.0)
    table = decision_table(batch, risk)
    assume((table.reward.max(axis=0) > 0).all())
    assert scalar_replay(batch, site, TableArgmaxRule(batch, table), risk_value=risk) == \
        scalar_replay(batch, site, oracles.ForcedRule(), risk_value=risk)


class TestCompare:
    def make_report(self, rate=10.0):
        batch = spaced_av_batch(n=2)
        site = site_for(batch)
        return read_report(compute_metrics(
            [outcome(sid="s0", rate=rate, energy=rate, minutes=60.0),
             outcome(sid="s1", rate=rate, energy=rate, minutes=60.0)], site).to_csv())

    def test_identical_reports_zero_delta(self):
        rows = compare_report({"a": self.make_report(), "b": self.make_report()})
        for row in rows:
            assert row["delta_pct_b"] == pytest.approx(0.0)

    def test_fifty_percent_delta(self):
        rows = compare_report({"base": self.make_report(10.0),
                               "new": self.make_report(15.0)})
        by_metric = {row["metric"]: row for row in rows}
        assert by_metric["charging_rate_kw"]["delta_pct_new"] == pytest.approx(50.0)

    def test_row_count_matches_metric_count(self):
        report = self.make_report()
        rows = compare_report({"a": report, "b": report})
        assert [row["metric"] for row in rows] == list(SITE_METRICS)

    def test_csv_emission(self):
        rows = compare_report({"a": self.make_report(), "b": self.make_report(12.0)})
        text = comparison_csv(rows)
        header = text.splitlines()[0].split(",")
        assert header[0] == "metric"
        assert "delta_pct_b" in header
