"""How each of the benchmark's metrics is computed.

Names, units and directions live in BENCHMARK.json only.  End-to-end metrics
come from an untraced run and exist, non-zero, on every workload.  Per-layer
metrics come from a traced run; a layer a workload does not use reads 0 there.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# (span name, statistic): the metric is named ``<span>.<statistic>``.  A
# statistic is s/self_s (seconds per pass), calls (per pass) or ms/us (per call).
_SPAN_METRICS = [
    ("sessions.parse_sessions", "s"),
    ("sessions.parse_sessions", "calls"),
    ("risk.estimate_risk", "s"),
    ("risk.fit_student_t", "s"),
    ("risk.standardized_ppf", "s"),
    ("risk.standardized_cdf", "calls"),
    ("learner.train", "s"),
    ("learner.train", "self_s"),
    ("learner.forward_episode", "ms"),
    ("learner.forward_episode", "calls"),
    ("learner.backward", "ms"),
    ("learner.backward", "calls"),
    ("learner.clipped_delta", "ms"),
    ("learner.clipped_delta", "calls"),
    ("learner.Coordinator.apply_update", "ms"),
    ("learner.Coordinator.apply_update", "calls"),
    ("learner.policy_value_forward", "us"),
    ("learner.policy_value_forward", "calls"),
    ("learner.SharedModel.save", "s"),
    ("learner.SharedModel.load", "s"),
    ("mdp.EvseQueue.present", "calls"),
    ("mdp.EvseQueue.transition", "us"),
    ("mdp.rational_allocation", "calls"),
    ("mdp.as_requested_allocation", "calls"),
    ("scheduler.ScheduleEngine.run", "s"),
    ("scheduler.ScheduleEngine.run", "self_s"),
    ("scheduler.audit_outcomes", "s"),
    ("cli.fit-risk", "s"),
    ("cli.train", "s"),
    ("cli.run-baseline", "s"),
    ("cli.run", "s"),
    ("cli.compare", "s"),
]

# (metric, counter) for the counters kept by the wrappers' observers, per pass.
_COUNTER_METRICS = [
    ("mdp.EvseQueue.present.state_calls", "mdp.EvseQueue.present.state"),
    ("mdp.EvseQueue.transition.calls.schedule", "mdp.EvseQueue.transition.schedule"),
    ("mdp.EvseQueue.transition.calls.queue", "mdp.EvseQueue.transition.queue"),
    ("scheduler.audit_outcomes.raised", "scheduler.audit_outcomes.raised"),
    ("scheduler.voided", "scheduler.voided"),
]

# Share of the traced pass time spent inside these spans (children included).
_SHARES = [
    ("share.learner.train", ("learner.train",)),
    ("share.learner.policy_value_forward", ("learner.policy_value_forward",)),
    ("share.learner.model_io", ("learner.SharedModel.save", "learner.SharedModel.load")),
    ("share.scheduler.engine", ("scheduler.ScheduleEngine.run",)),
    ("share.scheduler.audit", ("scheduler.audit_outcomes",)),
    ("share.sessions.parse", ("sessions.parse_sessions",)),
    ("share.risk.estimate", ("risk.estimate_risk",)),
]

# Per-layer metrics taken from the untraced passes.  They are not end-to-end
# metrics because they are not defined, or are 0, on some workload, or differ
# too much from seed to seed for a bound (README.md, "Metrics").  A timed run
# prints them on its details line.
RESULT_FIGURES = [
    "replay_sessions_per_s", "replay_ms_p50", "replay_ms_p95", "train_episodes_per_s",
    "model_file_mb", "failed_pct", "scheduler.failed_pct.baseline",
    "scheduler.failed_pct.always_schedule", "policy_served_pct", "policy_charging_rate_kw",
    "policy_energy_kwh", "baseline_served_pct",
]


def beyond(values, q: float) -> int:
    """How many values lie strictly above the ``q``-th percentile."""
    return int(np.count_nonzero(np.asarray(values) > np.percentile(values, q)))


def tagged(values: dict[str, float]) -> dict[str, dict]:
    return {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}


def end_to_end(setup_s: list[float], pipeline_s: list[float],
               peak_rss_mb: float) -> dict[str, float]:
    """Medians of the set-ups' and the passes' times, both scaled by the
    host-speed gauge (hostspeed.py)."""
    return {
        "setup_s": statistics.median(setup_s),
        "pipeline_s": statistics.median(pipeline_s),
        "peak_rss_mb": peak_rss_mb,
    }


def result_figures(iterations) -> dict[str, float]:
    """Replay figures over every untraced pass; the rest as per-pass medians."""
    attempted = sum(it.attempted for it in iterations)
    failed = sum(len(it.failures) for it in iterations)
    replay_ms = [ms for it in iterations for ms in it.replay_ms]
    out = {"replay_sessions_per_s":
           sum(it.replay_sessions for it in iterations) / (sum(replay_ms) / 1000.0),
           "replay_ms_p50": float(np.percentile(replay_ms, 50)),
           "replay_ms_p95": float(np.percentile(replay_ms, 95)),
           "failed_pct": 100.0 * failed / attempted}
    for name in RESULT_FIGURES:
        if name not in out:
            out[name] = statistics.median(it.info.get(name, 0.0) for it in iterations)
    return out


def per_layer(summary: dict, counters, traced, untraced, setup_trials,
              traced_scaled: list[float], untraced_scaled: list[float]) -> dict[str, float]:
    """Every per-layer metric from the traced and untraced iterations.  Span
    times and shares are wall times less the gauge's samples; the overhead
    compares the passes' scaled times, as ``pipeline_s`` does."""
    n = len(traced)
    traced_s = sum(it.seconds for it in traced) / n

    def stat(span: str, kind: str) -> float:
        entry = summary.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if kind in ("ms", "us"):
            scale = 1e3 if kind == "ms" else 1e6
            return entry["s"] / entry["calls"] * scale if entry["calls"] else 0.0
        return entry[kind] / n

    out = {"sessions.generate_synthetic.s":
           statistics.median(t["generate_s"] for t in setup_trials),
           "sessions.generate_synthetic.calls": float(setup_trials[0]["generate_calls"])}
    for span, kind in _SPAN_METRICS:
        out[f"{span}.{kind}"] = stat(span, kind)
    for name, key in _COUNTER_METRICS:
        out[name] = counters[key] / n
    presented = counters["mdp.EvseQueue.present.state"]
    transitions = (counters["mdp.EvseQueue.transition.schedule"]
                   + counters["mdp.EvseQueue.transition.queue"])
    out["scheduler.feed_deferrals"] = (presented - transitions) / n
    out["scheduler.useful_ratio"] = (counters["scheduler.scheduled"] / presented
                                     if presented else 0.0)
    for name, spans in _SHARES:
        out[name] = 100.0 * sum(stat(s, "s") for s in spans) / traced_s
    out.update(result_figures(untraced))
    untraced_s = statistics.median(untraced_scaled)
    out["trace.pipeline_s"] = statistics.median(traced_scaled)
    out["trace.overhead_s"] = out["trace.pipeline_s"] - untraced_s
    out["trace.overhead_pct"] = 100.0 * out["trace.overhead_s"] / untraced_s
    out["trace.spans"] = float(sum(e["calls"] for e in summary.values()) / n)
    return out
