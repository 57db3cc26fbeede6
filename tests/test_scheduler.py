"""Execution engine, baseline, metrics and comparison tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramals import (
    GeneratorConfig,
    MetricsReport,
    SchedulerError,
    SessionBatch,
    TrainConfig,
    compare_report,
    compute_metrics,
    energy_ratio,
    execute,
    fcfs_as_requested_baseline,
    generate_synthetic,
    ordering_holds,
    rate_ratio,
    session_reward,
    time_ratio,
    train,
)
import ramals.learner as learner
from ramals.mdp import rational_allocation, state_matrix
from ramals.scheduler import (ScheduleEngine, ScheduleOutcome, _ForcedRule, _PolicyRule,
                              audit_outcomes, comparison_csv)

from helpers import make_session, site_for, spaced_av_batch
from oracles import direct_loads, quadratic_feed_check


def outcome(sid="s1", evse="EVSE-1", scheduled=True, voided=False, energy=8.794,
            rate=8.794, minutes=60.0, start=0.0, reward=1.0):
    return ScheduleOutcome(
        session_id=sid, evse_id=evse, scheduled=scheduled, voided=voided,
        start_minutes=start, wait_minutes=0.0,
        realized_energy_kwh=energy if scheduled else 0.0,
        realized_rate_kw=rate if scheduled else 0.0,
        realized_minutes=minutes if scheduled else 0.0,
        allocated_energy_kwh=energy, allocated_rate_kw=rate,
        allocated_minutes=minutes, reward=reward)


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
        batch = spaced_av_batch(n=2)
        site = site_for(batch)
        report = compute_metrics([outcome(sid="s0"), outcome(sid="s1")], site)
        again = MetricsReport.from_csv(report.to_csv(), site_id=report.site_id)
        assert again.charging_rate_kw == pytest.approx(report.charging_rate_kw)
        assert again.sessions_total == report.sessions_total
        assert again.active_hours_by_evse == report.active_hours_by_evse


class TestExecute:
    def test_empty_batch(self):
        batch = SessionBatch([])
        site = site_for(spaced_av_batch(n=1))
        outcomes, report = execute(None, batch, site)
        assert outcomes == []
        assert report.sessions_served == 0
        assert report.assignment_efficiency_pct == 0.0

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

    def test_allocates_once_per_started_session(self):
        batch = spaced_av_batch(n=6, evses=("EVSE-1", "EVSE-2"))
        site = site_for(batch)  # the feed never defers a start
        calls = []

        def counting_allocation(session, evse):
            calls.append(session.session_id)
            return rational_allocation(session, evse)

        engine = ScheduleEngine(batch, site, _ForcedRule(), allocator=counting_allocation)
        started = [o.session_id for o in engine.run() if o.scheduled]
        assert len(started) == len(batch)
        assert sorted(calls) == sorted(started)

    def test_one_policy_step_per_decision(self, monkeypatch):
        batch = generate_synthetic(
            GeneratorConfig(n_sessions=40, cv_fraction=0.5, n_evses=2,
                            mean_gap_minutes=90), seed=3)
        site = site_for(batch, dso_kw=60.0)  # some starts wait for the feed
        model, _ = train(batch, site, TrainConfig(episodes=2, seed=1, hidden=8),
                         risk_value=0.05)
        params = model.coordinator.params
        step, decide = learner.policy_value_forward, _PolicyRule.decide
        steps, decisions = [], []

        def counting_step(params, z_row, carry):
            steps.append(z_row.copy())
            return step(params, z_row, carry)

        def counting_decide(rule, port, i):
            decisions.append((port, i))
            return decide(rule, port, i)

        monkeypatch.setattr(learner, "policy_value_forward", counting_step)
        monkeypatch.setattr(_PolicyRule, "decide", counting_decide)
        outcomes, _ = execute(model, batch, site)
        assert len(steps) == len(decisions) > sum(o.scheduled for o in outcomes) > 0
        for z_row, (port, i) in zip(steps, decisions):
            rows = state_matrix(port.sessions) @ params["wx"].T + params["b"]
            assert np.array_equal(z_row, rows[i])

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
        batch = SessionBatch([s])
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
        by_id = {s.session_id: s for s in batch}
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
        config = TrainConfig(episodes=2, seed=2, hidden=8, alpha=0.9)
        ablated = risk_off_report(batch, site, config)
        model, _ = train(batch, site, config)  # zero-laxity: risk estimates to 0
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
        for evse_id in batch.evse_ids:
            group = batch.group(evse_id)
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
    batch = SessionBatch([make_session(sid=o.session_id, evse=o.evse_id, receiving_kw=100.0)
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


class TestCompare:
    def make_report(self, rate=10.0):
        batch = spaced_av_batch(n=2)
        site = site_for(batch)
        return compute_metrics(
            [outcome(sid="s0", rate=rate, energy=rate, minutes=60.0),
             outcome(sid="s1", rate=rate, energy=rate, minutes=60.0)], site)

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
        assert len(rows) == len(report.scalar_metrics())

    def test_mismatched_sites_rejected(self):
        a = self.make_report()
        b = MetricsReport(site_id="other", charging_rate_kw=1.0,
                          assignment_efficiency_pct=50.0, sessions_served=1,
                          sessions_total=2, active_hours_by_evse={},
                          energy_kwh_by_evse={})
        with pytest.raises(SchedulerError, match="mismatched"):
            compare_report({"a": a, "b": b})

    def test_csv_emission(self):
        rows = compare_report({"a": self.make_report(), "b": self.make_report(12.0)})
        text = comparison_csv(rows)
        header = text.splitlines()[0].split(",")
        assert header[0] == "metric"
        assert "delta_pct_b" in header
