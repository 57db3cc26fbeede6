"""The benchmark's workloads: their inputs, their operations and the checks on
what the operations write.

Why each workload exists (README.md has the full reasoning and numbers):

* ``paper-200x4`` is the paper's own experiment at the default config.
  Training (backpropagation through time in ``learner``) is most of its time.
* ``fleet-20000x40`` is 100 times the sessions on 10 times the ports at the
  same 37.5 kW per port.  Replay (engine, audit, per-decision inference,
  session parsing, the model file) is most of its time and training is small.
  Its feed is 1500 kW because at the default 150 kW every rule fails the
  feed-cap audit (open item 1) and nothing else could be measured.
* ``tight-feed`` replays many short batches on tight feeds, the range where
  the engine's out-of-order decisions break the feed cap (open item 1), so
  per-replay overhead and feed deferrals dominate and the learner does no
  work.  Its failures are the defect showing, and are reported, not hidden.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import ramals  # noqa: E402
from ramals import cli, learner, mdp, risk, scheduler, sessions  # noqa: E402

from hostspeed import clock  # noqa: E402  (wall time less the gauge's samples)

if not Path(ramals.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"ramals was imported from {ramals.__file__}, "
                      f"not from {ROOT / 'src'}")

# Rows of the compare table; the benchmark's own list, not the program's.
COMPARE_METRICS = ("charging_rate_kw", "assignment_efficiency_pct", "sessions_served",
                   "active_charging_hours", "energy_delivered_kwh")
FEED_TOLERANCE_KW = 1e-6
RATE_TOLERANCE_KW = 1e-9
RULES = ("baseline", "always_schedule")


def derive_seed(seed: int, stream: int) -> int:
    """An independent seed for one input stream of a workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def describe(exc: BaseException) -> str:
    """Exception type and the first line of its message."""
    lines = str(exc).strip().splitlines()
    return f"{type(exc).__name__}: {lines[0] if lines else ''}"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class IterationResult:
    """What one pass over a workload's operations did and produced."""

    seconds: float
    attempted: int
    failures: list[str] = field(default_factory=list)
    replay_ms: list[float] = field(default_factory=list)
    replay_sessions: int = 0
    op_seconds: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    info: dict[str, float] = field(default_factory=dict)


def check_outcomes(outcomes, expected: dict, dso_capacity_kw: float, label: str) -> list[str]:
    """Conservation, fate, rate-cap and feed-cap checks on one replay's outcomes.

    ``outcomes`` holds dicts with session_id, evse_id, scheduled, voided,
    start, minutes and rate_kw; ``expected`` maps each input session id to
    (evse_id, rate cap in kW).  The feed check is an independent sweep over
    charging intervals, half-open like the program's own audit.
    """
    problems = []
    ids = [o["session_id"] for o in outcomes]
    if len(ids) != len(expected) or set(ids) != set(expected):
        problems.append(f"{label}: {len(ids)} outcome records for {len(expected)} sessions "
                        "or the ids differ")
        return problems
    events = []
    for o in outcomes:
        evse_id, cap = expected[o["session_id"]]
        if o["evse_id"] != evse_id:
            problems.append(f"{label}: {o['session_id']} replayed on {o['evse_id']}")
        if o["scheduled"] == o["voided"]:
            problems.append(f"{label}: {o['session_id']} is not exactly one of served/voided")
        if o["scheduled"] and o["rate_kw"] > cap + RATE_TOLERANCE_KW:
            problems.append(f"{label}: {o['session_id']} charges above its cap")
        if o["scheduled"] and o["minutes"] > 0:
            # An end sorts before a start at the same instant (kind 0 < 1).
            events.append((o["start"] + o["minutes"] - FEED_TOLERANCE_KW, 0, -o["rate_kw"]))
            events.append((o["start"], 1, o["rate_kw"]))
    load = peak = 0.0
    for _when, _kind, delta in sorted(events):
        load += delta
        peak = max(peak, load)
    if peak > dso_capacity_kw + FEED_TOLERANCE_KW:
        problems.append(f"{label}: site load {peak:.3f} kW exceeds the {dso_capacity_kw} kW feed")
    return problems


def read_report(path: Path) -> dict[str, float]:
    """Site-scope rows of a metrics report CSV."""
    rows = path.read_text().strip().splitlines()
    site = {}
    for row in rows[1:]:
        name, scope, value = row.split(",")
        if scope == "site":
            site[name] = float(value)
    return site


class CliRunner:
    """Runs ``ramals.cli.main`` in-process with its output captured.

    ``main`` turns the errors it expects into exit status 1; a wrapper on each
    command function sees the exception first, so every failure is reported
    with its type and first line.
    """

    COMMANDS = ("cmd_gen_data", "cmd_fit_risk", "cmd_train", "cmd_run", "cmd_compare")

    def __init__(self):
        self._raised: BaseException | None = None
        self._originals = {}

    def __enter__(self):
        for name in self.COMMANDS:
            original = getattr(cli, name)
            self._originals[name] = original
            setattr(cli, name, self._recording(original))
        return self

    def __exit__(self, *exc_info):
        for name, original in self._originals.items():
            setattr(cli, name, original)
        self._originals.clear()

    def _recording(self, command):
        def recorded(args):
            try:
                return command(args)
            except BaseException as exc:
                self._raised = exc
                raise
        return recorded

    def __call__(self, argv: list[str]) -> str | None:
        """Run one command; returns None, or the failure it ended in."""
        self._raised = None
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = cli.main(argv)
        except SystemExit as exc:
            return f"SystemExit: status {exc.code}: {err.getvalue().strip()[:200]}"
        except Exception as exc:  # an operation's failure is counted, never fatal
            return describe(exc)
        if status == 0:
            return None
        if self._raised is not None:
            return describe(self._raised)
        return f"ExitStatus: {status}: {err.getvalue().strip()[:200]}"


class CliPipeline:
    """``fit-risk → train → run --baseline → run → compare`` through the CLI."""

    def __init__(self, evse_count: int, dso_capacity_kw: float, n_sessions: int,
                 hidden: int, episodes: int, train_sessions: int | None):
        self.evse_count = evse_count
        self.dso_capacity_kw = dso_capacity_kw
        self.n_sessions = n_sessions
        self.hidden = hidden
        self.episodes = episodes
        self.train_sessions = train_sessions
        self.workdir: Path | None = None
        self.seed = 0
        self.expected: dict[str, tuple[str, float]] = {}
        self.arrival: dict[str, float] = {}

    def _config_text(self, n_sessions: int) -> str:
        return (f"evse_count = {self.evse_count}\n"
                f"dso_capacity_kw = {self.dso_capacity_kw}\n"
                f"n_sessions = {n_sessions}\n"
                f"hidden = {self.hidden}\n")

    def setup(self, workdir: Path, seed: int) -> None:
        """Write the config and generate the session files (``gen-data``)."""
        site_cfg = workdir / "site.cfg"
        site_cfg.write_text(self._config_text(self.n_sessions))
        jobs = [(site_cfg, seed, workdir / "sessions.json")]
        if self.train_sessions is not None:
            train_cfg = workdir / "train.cfg"
            train_cfg.write_text(self._config_text(self.train_sessions))
            jobs.append((train_cfg, derive_seed(seed, 1), workdir / "train.json"))
        with CliRunner() as run:
            for cfg, gen_seed, out in jobs:
                failure = run(["gen-data", "--config", str(cfg), "--seed", str(gen_seed),
                               "--out", str(out)])
                if failure:
                    raise RuntimeError(f"gen-data failed: {failure}")

    def input_files(self, workdir: Path) -> list[Path]:
        files = [workdir / "site.cfg", workdir / "sessions.json"]
        if self.train_sessions is not None:
            files += [workdir / "train.cfg", workdir / "train.json"]
        return files

    def load(self, workdir: Path, seed: int) -> None:
        """Read the input sessions the output checks compare against."""
        self.workdir = workdir
        self.seed = seed
        records = json.loads((workdir / "sessions.json").read_bytes())
        plug_in = {r["sessionID"]: datetime.strptime(r["connectionTime"], "%Y-%m-%dT%H:%M")
                   for r in records}
        origin = min(plug_in.values())
        supply = float(cli.DEFAULTS["supply_capacity_kw"])
        self.expected = {r["sessionID"]: (r["evseID"], min(supply, r["receivingCapacityKW"]))
                         for r in records}
        self.arrival = {sid: (t - origin).total_seconds() / 60.0 for sid, t in plug_in.items()}

    def _paths(self) -> dict[str, Path]:
        w = self.workdir
        return {"risk": w / "risk.json", "model": w / "model.json",
                "train_log": w / "train.log.csv",
                "baseline_outcomes": w / "baseline.jsonl",
                "baseline_report": w / "baseline.report.csv",
                "policy_outcomes": w / "policy.jsonl",
                "policy_report": w / "policy.report.csv",
                "compare": w / "compare.csv"}

    def operations(self) -> list[tuple[str, list[str]]]:
        p = {k: str(v) for k, v in self._paths().items()}
        cfg = str(self.workdir / "site.cfg")
        sessions_file = str(self.workdir / "sessions.json")
        train_file = str(self.workdir / ("train.json" if self.train_sessions else
                                         "sessions.json"))
        return [
            ("fit-risk", ["fit-risk", "--config", cfg, "--sessions", sessions_file,
                          "--out", p["risk"]]),
            ("train", ["train", "--config", cfg, "--sessions", train_file,
                       "--risk", p["risk"], "--episodes", str(self.episodes),
                       "--seed", str(self.seed), "--out", p["model"],
                       "--log", p["train_log"]]),
            ("run-baseline", ["run", "--config", cfg, "--sessions", sessions_file,
                              "--baseline", "--out", p["baseline_outcomes"],
                              "--report", p["baseline_report"]]),
            ("run", ["run", "--config", cfg, "--sessions", sessions_file,
                     "--model", p["model"], "--out", p["policy_outcomes"],
                     "--report", p["policy_report"]]),
            ("compare", ["compare", f"baseline={p['baseline_report']}",
                         f"policy={p['policy_report']}", "--out", p["compare"]]),
        ]

    def iterate(self, tracer=None) -> IterationResult:
        for path in self._paths().values():
            path.unlink(missing_ok=True)
        ops = self.operations()
        result = IterationResult(seconds=0.0, attempted=len(ops))
        with CliRunner() as run:
            t_start = clock()
            for op, argv in ops:
                t0 = clock()
                failure = run(argv) if tracer is None else tracer.call(f"cli.{op}", run, argv)
                elapsed = clock() - t0
                result.op_seconds[op] = elapsed
                if op.startswith("run"):
                    result.replay_ms.append(elapsed * 1000.0)
                    result.replay_sessions += len(self.expected)
                if failure:
                    result.failures.append(f"{op}: {failure}")
            result.seconds = clock() - t_start
        failed_baseline = any(f.startswith("run-baseline:") for f in result.failures)
        result.info["scheduler.failed_pct.baseline"] = 100.0 if failed_baseline else 0.0
        self._check(result)
        return result

    def _check(self, result: IterationResult) -> None:
        paths = self._paths()
        missing = [name for name, path in paths.items() if not path.exists()]
        if missing:
            result.problems.append(f"missing outputs: {', '.join(missing)}")
            return
        result.digests = {name: sha256_file(path) for name, path in paths.items()}
        risk_value = json.loads(paths["risk"].read_text()).get("cvar_normalized")
        if not (isinstance(risk_value, float) and 0.0 <= risk_value < 1.0):
            result.problems.append(f"risk file: cvar_normalized {risk_value!r} not in [0, 1)")
        for label in ("baseline", "policy"):
            records = [json.loads(line) for line in
                       paths[f"{label}_outcomes"].read_text().splitlines()]
            outcomes = [{"session_id": r["session_id"], "evse_id": r["evse_id"],
                         "scheduled": r["scheduled"], "voided": r["voided"],
                         "start": self.arrival.get(r["session_id"], 0.0) + r["wait_min"],
                         "minutes": r["realized_min"], "rate_kw": r["realized_kw"]}
                        for r in records]
            result.problems += check_outcomes(outcomes, self.expected,
                                              self.dso_capacity_kw, label)
            report = read_report(paths[f"{label}_report"])
            served = sum(1 for o in outcomes if o["scheduled"])
            if (report.get("sessions_served") != served
                    or report.get("sessions_total") != len(self.expected)):
                result.problems.append(f"{label} report disagrees with its outcomes")
            result.info[f"{label}_served_pct"] = 100.0 * served / len(self.expected)
            if label == "policy":
                result.info["policy_charging_rate_kw"] = report["charging_rate_kw"]
                result.info["policy_energy_kwh"] = report["energy_delivered_kwh"]
        rows = paths["compare"].read_text().strip().splitlines()
        if rows[0].split(",") != ["metric", "baseline", "policy", "delta_pct_policy"]:
            result.problems.append(f"compare header is {rows[0]!r}")
        if tuple(row.split(",")[0] for row in rows[1:]) != COMPARE_METRICS:
            result.problems.append("compare table does not list every metric once")
        result.info["model_file_mb"] = paths["model"].stat().st_size / 1e6
        train_s = result.op_seconds["train"]
        result.info["train_episodes_per_s"] = self.episodes / train_s


@dataclass
class _Batch:
    batch: sessions.SessionBatch
    site: sessions.SiteConfig
    expected: dict[str, tuple[str, float]]


class TightFeed:
    """Many short batches on tight feeds, each replayed by both rules."""

    # Open item 1's range: 3–6 ports, a 50–80 kW feed, a 90–400 min mean gap.
    PORTS = (3, 6)
    FEED_KW = (50.0, 80.0)
    GAP_MIN = (90.0, 400.0)
    SESSIONS_PER_BATCH = 60

    def __init__(self, n_batches: int):
        self.n_batches = n_batches
        self.batches: list[_Batch] = []

    @staticmethod
    def _config(spec: dict) -> dict:
        cfg = cli.load_config(None)
        cfg.update(spec)
        return cfg

    def setup(self, workdir: Path, seed: int) -> None:
        """Draw each batch's knobs from the seed; generate and write its sessions."""
        rng = np.random.default_rng(derive_seed(seed, 0))
        index = []
        for i in range(self.n_batches):
            spec = {"n_sessions": self.SESSIONS_PER_BATCH,
                    "evse_count": int(rng.integers(self.PORTS[0], self.PORTS[1] + 1)),
                    "dso_capacity_kw": float(rng.uniform(*self.FEED_KW)),
                    "mean_gap_minutes": float(rng.uniform(*self.GAP_MIN))}
            gen_seed = int(rng.integers(2 ** 63))
            batch = sessions.generate_synthetic(
                cli.generator_from_config(self._config(spec)), gen_seed)
            name = f"batch-{i:04d}.json"
            (workdir / name).write_bytes(batch.to_json_bytes())
            index.append(dict(spec, file=name))
        (workdir / "index.json").write_text(json.dumps(index, indent=1) + "\n")

    def input_files(self, workdir: Path) -> list[Path]:
        index = json.loads((workdir / "index.json").read_text())
        return [workdir / "index.json"] + [workdir / spec["file"] for spec in index]

    def load(self, workdir: Path, seed: int) -> None:
        self.batches = []
        for spec in json.loads((workdir / "index.json").read_text()):
            batch = sessions.parse_sessions((workdir / spec["file"]).read_bytes())
            site = cli.site_from_config(self._config(
                {k: v for k, v in spec.items() if k != "file"}))
            expected = {s.session_id: (s.evse_id, min(site.evse(s.evse_id).supply_capacity_kw,
                                                      s.receiving_capacity_kw))
                        for s in batch}
            self.batches.append(_Batch(batch, site, expected))

    def iterate(self, tracer=None) -> IterationResult:
        result = IterationResult(seconds=0.0, attempted=2 * len(self.batches))
        digest = hashlib.sha256()
        failed = dict.fromkeys(RULES, 0)
        served = dict.fromkeys(RULES, 0)
        total = dict.fromkeys(RULES, 0)
        energy_kwh = hours = 0.0
        t_start = clock()
        for b in self.batches:
            for rule in RULES:
                t0 = clock()
                try:
                    # Looked up at call time, so a traced run sees its wrappers.
                    if rule == "baseline":
                        outcomes, report = scheduler.fcfs_as_requested_baseline(b.batch, b.site)
                    else:
                        outcomes, report = scheduler.execute(None, b.batch, b.site)
                    text = scheduler.outcomes_jsonl(outcomes) + report.to_csv()
                except Exception as exc:  # a failed replay is counted, never fatal
                    result.replay_ms.append((clock() - t0) * 1000.0)
                    result.replay_sessions += len(b.expected)
                    failure = describe(exc)
                    result.failures.append(f"{rule}: {failure}")
                    failed[rule] += 1
                    digest.update(f"FAILED {failure}\n".encode())
                    continue
                result.replay_ms.append((clock() - t0) * 1000.0)
                result.replay_sessions += len(b.expected)
                digest.update(text.encode())
                result.problems += check_outcomes(
                    [{"session_id": o.session_id, "evse_id": o.evse_id,
                      "scheduled": o.scheduled, "voided": o.voided,
                      "start": o.start_minutes, "minutes": o.realized_minutes,
                      "rate_kw": o.realized_rate_kw} for o in outcomes],
                    b.expected, b.site.dso_capacity_kw, rule)
                served[rule] += report.sessions_served
                total[rule] += report.sessions_total
                if rule == "always_schedule":
                    energy_kwh += report.total_energy_kwh
                    hours += report.total_active_hours
        result.seconds = clock() - t_start
        result.digests = {"replays": digest.hexdigest()}
        per_rule = len(self.batches)
        for rule in RULES:
            result.info[f"scheduler.failed_pct.{rule}"] = 100.0 * failed[rule] / per_rule
        result.info["baseline_served_pct"] = 100.0 * served["baseline"] / max(
            total["baseline"], 1)
        result.info["policy_served_pct"] = 100.0 * served["always_schedule"] / max(
            total["always_schedule"], 1)
        result.info["policy_charging_rate_kw"] = energy_kwh / hours if hours else 0.0
        result.info["policy_energy_kwh"] = energy_kwh
        return result


def make_workload(name: str, smoke: bool):
    """The named workload at full size, or at the few-second smoke size."""
    if name == "paper-200x4":
        # fit-risk needs 200 sessions for a 10-sample tail at alpha 0.95.
        return CliPipeline(evse_count=4, dso_capacity_kw=150.0,
                           n_sessions=200, hidden=16 if smoke else 64,
                           episodes=3 if smoke else 100, train_sessions=None)
    if name == "fleet-20000x40":
        if smoke:
            return CliPipeline(evse_count=8, dso_capacity_kw=300.0, n_sessions=400,
                               hidden=16, episodes=2, train_sessions=80)
        return CliPipeline(evse_count=40, dso_capacity_kw=1500.0, n_sessions=20000,
                           hidden=64, episodes=5, train_sessions=400)
    if name == "tight-feed":
        return TightFeed(n_batches=10 if smoke else 200)
    raise ValueError(f"unknown workload {name!r}")


# --- traced runs -----------------------------------------------------------

def _count_present(counters, args, kwargs, result):
    if result is not None:
        counters["mdp.EvseQueue.present.state"] += 1


def _count_transition(counters, args, kwargs, result):
    action = args[1] if len(args) > 1 else kwargs["schedule_now"]
    counters["mdp.EvseQueue.transition." + ("schedule" if action == 1 else "queue")] += 1


def _count_outcomes(counters, args, kwargs, result):
    counters["scheduler.scheduled"] += sum(1 for o in result if o.scheduled)
    counters["scheduler.voided"] += sum(1 for o in result if o.voided)


def wrap_layers(tracer) -> None:
    """Wrap each layer's public functions and methods where callers look them up."""
    table = [
        (sessions, "parse_sessions", "sessions.parse_sessions", None),
        (risk, "estimate_risk", "risk.estimate_risk", None),
        (risk, "fit_student_t", "risk.fit_student_t", None),
        (risk, "standardized_ppf", "risk.standardized_ppf", None),
        (risk, "standardized_cdf", "risk.standardized_cdf", None),
        (learner, "train", "learner.train", None),
        (learner, "forward_episode", "learner.forward_episode", None),
        (learner, "backward", "learner.backward", None),
        (learner, "clipped_delta", "learner.clipped_delta", None),
        (learner.Coordinator, "apply_update", "learner.Coordinator.apply_update", None),
        (learner, "policy_value_forward", "learner.policy_value_forward", None),
        (learner.SharedModel, "save", "learner.SharedModel.save", None),
        (learner.SharedModel, "load", "learner.SharedModel.load", None),
        (mdp.EvseQueue, "present", "mdp.EvseQueue.present", _count_present),
        (mdp.EvseQueue, "transition", "mdp.EvseQueue.transition", _count_transition),
        (mdp, "rational_allocation", "mdp.rational_allocation", None),
        (mdp, "as_requested_allocation", "mdp.as_requested_allocation", None),
        (scheduler.ScheduleEngine, "run", "scheduler.ScheduleEngine.run", _count_outcomes),
        (scheduler, "audit_outcomes", "scheduler.audit_outcomes", None),
        (scheduler, "execute", "scheduler.execute", None),
        (scheduler, "fcfs_as_requested_baseline", "scheduler.fcfs_as_requested_baseline",
         None),
    ]
    for owner, attr, name, observe in table:
        tracer.wrap(owner, attr, name, observe)


# Spans each workload must record, and spans it must not.  ``execute`` hands
# ``mdp.rational_allocation`` to the engine at call time, while defaults such
# as ``ScheduleEngine.__init__``'s are bound when the module loads; a wrapper
# that sees no call on a workload that uses it means the binding changed.
_REPLAY = {"mdp.EvseQueue.present", "mdp.EvseQueue.transition", "mdp.rational_allocation",
           "mdp.as_requested_allocation", "scheduler.ScheduleEngine.run",
           "scheduler.audit_outcomes", "scheduler.execute",
           "scheduler.fcfs_as_requested_baseline"}
_CLI_PIPELINE = _REPLAY | {
    "sessions.parse_sessions", "risk.estimate_risk", "risk.fit_student_t",
    "risk.standardized_ppf", "risk.standardized_cdf", "learner.train",
    "learner.forward_episode", "learner.backward", "learner.clipped_delta",
    "learner.Coordinator.apply_update", "learner.policy_value_forward",
    "learner.SharedModel.save", "learner.SharedModel.load",
    "cli.fit-risk", "cli.train", "cli.run-baseline", "cli.run", "cli.compare"}
EXPECTED_SPANS = {"paper-200x4": _CLI_PIPELINE, "fleet-20000x40": _CLI_PIPELINE,
                  "tight-feed": _REPLAY}
ABSENT_PREFIXES = {"paper-200x4": (), "fleet-20000x40": (),
                   "tight-feed": ("learner.", "risk.", "sessions.", "cli.")}
