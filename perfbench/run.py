"""Run the repository's benchmark on one workload, or on all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --smoke

NAME is paper-200x4, fleet-20000x40 or tight-feed.  The run repeats the
workload's operations for S seconds of pass time (at least twice), and sets
the workload up from the seed several times, each time in a fresh process,
spread over those S seconds.  It checks every output and prints, as its last
line, one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the first
half of the time runs untraced and the second half with every layer wrapped,
and the metrics are the per-layer ones.  The line before the last holds the
details: run conditions, output digests, failures by type, sample counts.

--workload all runs each workload in a process of its own.  With --smoke it
runs them at reduced sizes, traced and untraced.  It checks that every
metric BENCHMARK.json lists appears with its unit.  README.md describes the
workloads and metrics.
"""

import os

# Pin the BLAS thread pools before numpy loads; every workload is
# single-threaded, and child processes inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import uuid  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("paper-200x4", "fleet-20000x40", "tight-feed")
SETUP_TRIALS = 5
MIN_ITERATIONS = 2          # two passes at one seed must give identical outputs
RUN_BUDGET_S = 150.0        # start no optional pass that would end after this
CHILD_TIMEOUT_S = 170.0


def setup_trial(name: str, seed: int, workdir: Path, smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "setup_trial.py"), name, str(seed), str(workdir)]
    proc = subprocess.run(cmd + (["--smoke"] if smoke else []), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def inputs_digest(workload, workdir: Path) -> str:
    digest = hashlib.sha256()
    for path in workload.input_files(workdir):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class SetupTrials:
    """Fresh-process set-ups spread evenly over the run's pass time.

    The host's speed drifts over seconds, so set-ups made back to back all
    see one speed.  Trial k is due once the passes have taken k/count of the
    run's seconds.  Trial 0 writes the inputs the passes read; later ones
    write to a directory of their own, which must get identical bytes and is
    then removed.
    """

    def __init__(self, name: str, seed: int, workdir: Path, smoke: bool, count: int,
                 seconds: float, workload):
        self.name, self.seed, self.smoke = name, seed, smoke
        self.workdir = workdir
        self.count = count
        self.seconds = seconds
        self.workload = workload
        self.pass_s = 0.0
        self.results: list[dict] = []
        self.digests: set[str] = set()

    def _run(self) -> None:
        target = self.workdir if not self.results else self.workdir / "setup-trial"
        target.mkdir(exist_ok=True)
        self.results.append(setup_trial(self.name, self.seed, target, self.smoke))
        self.digests.add(inputs_digest(self.workload, target))
        if target != self.workdir:
            shutil.rmtree(target)

    def advance(self, seconds: float) -> None:
        """Count one pass's time and run the trials now due."""
        self.pass_s += seconds
        due = min(self.count, 1 + int(self.pass_s * self.count / self.seconds))
        while len(self.results) < due:
            self._run()

    def finish(self) -> None:
        while len(self.results) < self.count:
            self._run()


def iterate_for(workload, seconds: float, min_iterations: int, trials: SetupTrials,
                tracer=None):
    """Passes for ``seconds`` of pass time, at least ``min_iterations``, with
    the set-up trials due in between.  Also returns each pass's time scaled
    by the host-speed gauge and the peak RSS in MB after the first
    ``min_iterations``, so that it does not depend on how many passes fit in
    the time."""
    results, scaled = [], []
    while len(results) < min_iterations or sum(r.seconds for r in results) < seconds:
        if len(results) >= min_iterations:
            last = results[-1].seconds
            if time.perf_counter() - T_START + last > RUN_BUDGET_S:
                break
        hostspeed.GAUGE.start()
        try:
            results.append(workload.iterate(tracer))
        finally:
            speed = hostspeed.GAUGE.stop()
        scaled.append(results[-1].seconds * speed)
        if len(results) == min_iterations:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        trials.advance(results[-1].seconds)
    return results, scaled, peak_rss_mb


def run_conditions() -> dict:
    import numpy
    import scipy

    commit = "unknown"  # a checkout without git history has no commit to report
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def failure_summary(failures: list[str]) -> dict:
    """Failures counted by operation and exception type, with a few first lines."""
    by_type = Counter(": ".join(f.split(": ")[:2]) for f in failures)
    return {"by_type": dict(by_type), "first_lines": sorted(set(failures))[:5]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    import metrics
    import spans
    import workloads

    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    workdir = ROOT / ".bench_work" / (name + ("-smoke" if smoke else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    workload = workloads.make_workload(name, smoke)
    trials = SetupTrials(name, seed, workdir, smoke, 1 if smoke else SETUP_TRIALS,
                         seconds, workload)
    trials.advance(0.0)  # trial 0 writes the inputs
    workload.load(workdir, seed)

    problems = []
    if trace:
        plain, plain_scaled, _rss = iterate_for(workload, seconds / 2, 1, trials)
        tracer = spans.Tracer(uuid.uuid4().hex)
        workloads.wrap_layers(tracer)
        try:
            traced, traced_scaled, _rss = iterate_for(workload, seconds / 2, 1, trials, tracer)
        finally:
            tracer.restore()
        trials.finish()
        iterations = plain + traced
        scaled = plain_scaled + traced_scaled
        summary = tracer.summary()
        for span in sorted(workloads.EXPECTED_SPANS[name]):
            if summary.get(span, {}).get("calls", 0) == 0:
                problems.append(f"trace: no call reached {span}")
        for span in sorted(summary):
            if span.startswith(workloads.ABSENT_PREFIXES[name]):
                problems.append(f"trace: {span} was called")
        tracer.save(workdir / "spans.npz")
        values = metrics.per_layer(summary, tracer.counters, traced, plain, trials.results,
                                   traced_scaled, plain_scaled)
    else:
        plain, scaled, peak_rss_mb = iterate_for(workload, seconds, MIN_ITERATIONS, trials)
        trials.finish()
        iterations = plain
        values = metrics.end_to_end([t["setup_s"] for t in trials.results], scaled,
                                    peak_rss_mb)
    print(f"{name}: set up {len(trials.results)} times", file=sys.stderr)
    if len(trials.digests) != 1:
        problems.append("set-up wrote different inputs from one seed")

    for i, it in enumerate(iterations):
        problems += [f"iteration {i}: {p}" for p in it.problems]
        if it.digests != iterations[0].digests:
            problems.append(f"iteration {i}: outputs differ from iteration 0 at one seed")
        if it.failures != iterations[0].failures:
            problems.append(f"iteration {i}: failures differ from iteration 0 at one seed")
    # One pass's operations: every later pass repeats them and must end the
    # same way, so the counts depend on the seed and not on the host's speed.
    failures = iterations[0].failures
    attempted = iterations[0].attempted
    replay_ms = [ms for it in iterations for ms in it.replay_ms]
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "conditions": run_conditions(), "inputs_sha256": sorted(trials.digests)[0],
        "outputs_sha256": iterations[0].digests, "iterations": len(iterations),
        "pipeline_s_each": scaled, "pipeline_wall_s_each": [it.seconds for it in iterations],
        "setup_s_each": [t["setup_s"] for t in trials.results],
        "setup_wall_s_each": [t["wall_s"] for t in trials.results],
        "setup_speed_each": [t["speed"] for t in trials.results],
        "replay_samples": len(replay_ms),
        "replay_samples_beyond_p95": metrics.beyond(replay_ms, 95),
        "figures": metrics.tagged(metrics.result_figures(plain)),
        "failures": failure_summary(failures), "problems": problems[:20],
    }
    (workdir / "failures.txt").write_text("".join(f + "\n" for f in failures))
    result = {"correct": not problems, "attempted": attempted, "failed": len(failures),
              "metrics": metrics.tagged(values)}
    (workdir / "result.json").write_text(json.dumps({"detail": detail, "result": result},
                                                    indent=1) + "\n")
    for path in workload.input_files(workdir):
        path.unlink()
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, traces: list[int], smoke: bool) -> int:
    """Each workload in its own process; check that every metric BENCHMARK.json
    lists for the run is printed, with its unit."""
    import metrics

    expected = {0: metrics.END_TO_END, 1: metrics.PER_LAYER}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in traces:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd + (["--smoke"] if smoke else []), capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S + 10, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            good = proc.returncode == 0 and len(lines) >= 2
            missing = []
            if good:
                result = json.loads(lines[-1])
                missing = [m for m in expected[trace]
                           if result["metrics"].get(m, {}).get("unit") != metrics.UNITS[m]]
                good = result["correct"] and not missing
            ok &= good
            print(f"{name} trace={trace} {'ok' if good else 'FAILED'}"
                  + (f" missing={missing}" if missing else ""))
            print(lines[-1] if lines else proc.stderr.strip()[-2000:])
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, a few seconds per workload")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (1.0 if args.smoke else 20.0)
    if args.workload == "all":
        traces = [args.trace] if args.trace is not None else [0, 1]
        return run_all(args.seed, seconds, traces, args.smoke)
    return run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
