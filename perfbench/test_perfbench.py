"""Tests of the benchmark itself: self time, the p95 tail count, wrappers, the
host-speed gauge, and a smoke run of every workload.

    python3 -m pytest perfbench -q
"""

import itertools
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import hostspeed
import spans
from metrics import beyond
from spans import NO_PARENT, Tracer

HERE = Path(__file__).resolve().parent


def test_self_time_is_the_duration_minus_the_direct_childrens(monkeypatch):
    clock = itertools.count()  # each reading of the clock is one second later
    monkeypatch.setattr(spans, "clock", lambda: float(next(clock)))
    tracer = Tracer("test-run")

    def child():
        tracer.call("grandchild", lambda: None)

    def root():
        tracer.call("child", child)
        tracer.call("child", lambda: None)

    tracer.call("root", root)
    summary = tracer.summary()
    # root [0, 7]; child [1, 4] holding grandchild [2, 3]; child [5, 6]
    assert summary["root"] == {"calls": 1, "s": 7.0, "self_s": 3.0}
    assert summary["child"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert summary["grandchild"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_beyond_counts_the_values_above_a_percentile():
    assert beyond(range(1, 101), 95) == 5
    assert beyond([7.0], 95) == 0


def test_wrappers_record_nested_spans_counts_and_errors_then_restore():
    class Engine:
        def run(self, n):
            return [helper.step(i) for i in range(n)]

        @classmethod
        def make(cls):
            return cls()

    helper = types.SimpleNamespace()

    def step(i):
        if i < 0:
            raise ValueError("negative")
        return i

    helper.step = step
    original_run = Engine.__dict__["run"]
    tracer = Tracer("test-run")
    tracer.wrap(Engine, "run", "engine.run",
                lambda counters, args, kwargs, result: counters.update(steps=len(result)))
    tracer.wrap(Engine, "make", "engine.make")
    tracer.wrap(helper, "step", "helper.step")
    assert Engine.make().run(3) == [0, 1, 2]
    with pytest.raises(ValueError):
        helper.step(-1)
    tracer.restore()

    assert Engine.__dict__["run"] is original_run
    assert isinstance(Engine.__dict__["make"], classmethod)
    assert helper.step is step
    summary = tracer.summary()
    assert summary["engine.run"]["calls"] == 1
    assert summary["helper.step"]["calls"] == 4
    assert summary["engine.make"]["calls"] == 1
    assert tracer.counters["steps"] == 3
    assert tracer.counters["helper.step.raised"] == 1
    run_idx = tracer.names.index("engine.run")
    children = [i for i, p in enumerate(tracer.parents)
                if p != NO_PARENT and tracer.name_ids[p] == run_idx]
    assert len(children) == 3
    run = summary["engine.run"]
    assert 0.0 <= run["self_s"] <= run["s"]


def test_gauge_takes_samples_out_of_the_clock_and_scales_by_their_mean(monkeypatch):
    kernel_s = 0.01
    monkeypatch.setattr(hostspeed, "_kernel", lambda: time.sleep(kernel_s))
    gauge = hostspeed.Gauge()
    gauge.start()
    t0 = gauge.clock()
    while gauge.clock() - t0 < 10 * hostspeed.INTERVAL_S:
        pass
    speed = gauge.stop()
    assert gauge.samples >= 5
    assert gauge.spent >= gauge.samples * kernel_s
    assert speed == pytest.approx(hostspeed.REFERENCE_S / kernel_s, rel=0.3)
    # work shorter than one interval still gets one sample
    gauge.start()
    assert gauge.stop() == pytest.approx(hostspeed.REFERENCE_S / kernel_s, rel=0.3)


def test_smoke_run_of_every_workload_prints_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "all",
                           "--smoke"], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
