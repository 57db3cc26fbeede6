"""Command-line pipeline: gen-data, fit-risk, train, run, compare.

Configuration is a flat key = value text file; every training and generator
default is a key so whole experiments stay declarative.  All randomness flows
from one root seed that is split deterministically per stage, so a rerun with
the same inputs reproduces every output byte for byte.

Recognized keys (defaults in parentheses):

  dso_capacity_kw (150)         evse_count (4)
  supply_capacity_kw (50)       switching_minutes (5)
  evse_prefix (EVSE)            n_sessions (200)
  cv_fraction (0.7)             mean_gap_minutes (60)
  start (2026-01-05T06:00)      energy_kwh_min (4)
  energy_kwh_max (40)           rate_kw_min (3)
  rate_kw_max (45)              energy_inflation_min (1)
  energy_inflation_max (2)      time_inflation_min (1)
  time_inflation_max (3)        receiving_capacity_kw (50)
  alpha (0.95)                  episodes (2000)
  learning_rate (0.001)         gamma (0.9)
  beta (0.05)                   hidden (64)
  clip_threshold (40)           step_minutes (15)
  seed (0)

Per-EVSE overrides: ``evse.<id>.supply_capacity_kw`` and
``evse.<id>.switching_minutes``, each a number, for a port the site has
(``<evse_prefix>-1`` to ``<evse_prefix>-<evse_count>``).  Any other
``evse.`` key, a value that is not a number, or a port the site does not
have is an error that names the key.

Files each command reads and writes (all but compare also read ``--config``):

  gen-data  writes the session file ``--out``
  fit-risk  reads ``--sessions``; writes the risk file ``--out``: the fields
            of :class:`ramals.risk.RiskEstimate`, its ``fit``'s at the top
            level, and a nan ``cvar_paper`` (the paper's form) as null
  train     reads ``--sessions``, ``--risk`` (else it fits the risk, or pins
            it to 0 with ``--risk-off``) and ``--resume``; writes the model
            file ``--out`` and the log ``--log`` (``<out>.log.csv``)
  run       reads ``--sessions`` and ``--model``, or replays the baseline
            with ``--baseline``; writes the outcomes ``--out``, one a line,
            and the metrics CSV ``--report`` (``<out>.report.csv``)
  compare   reads the site rows of each ``label=report.csv``; writes the
            table to stdout and to ``--out``

The risk factor that drives training's rewards is the standard, normalized
CVaR: ``train --risk FILE`` reads ``cvar_normalized`` alone, and it must be
a number in [0, 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import learner, risk, scheduler, sessions

log = logging.getLogger(__name__)

_STAGE_KEYS = {"gen": 0, "train": 1}

DEFAULTS = {
    "dso_capacity_kw": 150.0,
    "evse_count": 4,
    "supply_capacity_kw": 50.0,
    "switching_minutes": 5.0,
    "evse_prefix": "EVSE",
    "n_sessions": 200,
    "cv_fraction": 0.7,
    "mean_gap_minutes": 60.0,
    "start": "2026-01-05T06:00",
    "energy_kwh_min": 4.0,
    "energy_kwh_max": 40.0,
    "rate_kw_min": 3.0,
    "rate_kw_max": 45.0,
    "energy_inflation_min": 1.0,
    "energy_inflation_max": 2.0,
    "time_inflation_min": 1.0,
    "time_inflation_max": 3.0,
    "receiving_capacity_kw": 50.0,
    "alpha": 0.95,
    "episodes": 2000,
    "learning_rate": 0.001,
    "gamma": 0.9,
    "beta": 0.05,
    "hidden": 64,
    "clip_threshold": 40.0,
    "step_minutes": 15.0,
    "seed": 0,
}


class CliError(ValueError):
    pass


def load_config(path: str | None) -> dict:
    values = dict(DEFAULTS)
    overrides: dict[str, float] = {}
    if path:
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as exc:
            raise CliError(f"{path}: {exc}") from None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key.startswith("evse."):
                evse_id, _, field = key[len("evse."):].rpartition(".")
                if not evse_id or field not in ("supply_capacity_kw", "switching_minutes"):
                    raise CliError(f"{path}:{lineno}: unknown per-EVSE key {key!r}; expected "
                                   "evse.<id>.supply_capacity_kw or evse.<id>.switching_minutes")
                kind, target = float, overrides
            elif key in DEFAULTS:
                kind, target = type(DEFAULTS[key]), values
            else:
                raise CliError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                target[key] = kind(value)
            except ValueError:
                raise CliError(f"{path}:{lineno}: key {key!r} needs "
                               f"{'an integer' if kind is int else 'a number'}, "
                               f"got {value!r}") from None
            if key == "seed" and values[key] < 0:
                raise CliError(f"{path}:{lineno}: key 'seed' needs a non-negative integer, "
                               f"got {value!r}")
    values["evse_overrides"] = overrides
    return values


def _root_seed(args, cfg: dict) -> int:
    """The run's root seed: ``--seed``, else the config's ``seed`` key, which
    :func:`load_config` checked."""
    if args.seed is None:
        return cfg["seed"]
    if args.seed < 0:
        raise CliError(f"--seed needs a non-negative integer, got {args.seed}")
    return args.seed


def stage_seed(root_seed: int, stage: str) -> int:
    """Deterministic per-stage seed derived from the root seed."""
    seq = np.random.SeedSequence(entropy=root_seed, spawn_key=(_STAGE_KEYS[stage],))
    return int(seq.generate_state(1)[0])


def site_from_config(cfg: dict) -> sessions.SiteConfig:
    overrides = dict(cfg["evse_overrides"])
    evses = []
    for i in range(int(cfg["evse_count"])):
        evse_id = f"{cfg['evse_prefix']}-{i + 1}"
        evses.append(sessions.EvseConfig(
            evse_id=evse_id,
            supply_capacity_kw=overrides.pop(f"evse.{evse_id}.supply_capacity_kw",
                                              cfg["supply_capacity_kw"]),
            switching_minutes=overrides.pop(f"evse.{evse_id}.switching_minutes",
                                            cfg["switching_minutes"]),
        ))
    if overrides:
        raise CliError(f"key {next(iter(overrides))!r} overrides a port the site does not "
                       f"have; its ports are {cfg['evse_prefix']}-1 to "
                       f"{cfg['evse_prefix']}-{int(cfg['evse_count'])}")
    return sessions.SiteConfig(dso_capacity_kw=cfg["dso_capacity_kw"], evses=tuple(evses))


def generator_from_config(cfg: dict) -> sessions.GeneratorConfig:
    return sessions.GeneratorConfig(
        n_sessions=int(cfg["n_sessions"]),
        cv_fraction=cfg["cv_fraction"],
        n_evses=int(cfg["evse_count"]),
        evse_prefix=cfg["evse_prefix"],
        start=cfg["start"],
        mean_gap_minutes=cfg["mean_gap_minutes"],
        energy_kwh_range=(cfg["energy_kwh_min"], cfg["energy_kwh_max"]),
        rate_kw_range=(cfg["rate_kw_min"], cfg["rate_kw_max"]),
        energy_inflation=(cfg["energy_inflation_min"], cfg["energy_inflation_max"]),
        time_inflation=(cfg["time_inflation_min"], cfg["time_inflation_max"]),
        receiving_capacity_kw=cfg["receiving_capacity_kw"],
    )


def train_config_from(cfg: dict, seed: int, episodes: int | None = None) -> learner.TrainConfig:
    return learner.TrainConfig(
        episodes=int(episodes if episodes is not None else cfg["episodes"]),
        learning_rate=cfg["learning_rate"],
        gamma=cfg["gamma"],
        beta=cfg["beta"],
        hidden=int(cfg["hidden"]),
        seed=seed,
        clip_threshold=cfg["clip_threshold"],
    )


def _read_batch(path: str) -> sessions.SessionBatch:
    return sessions.parse_sessions(Path(path).read_bytes())


def _json_safe(value: float):
    return value if math.isfinite(value) else None


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    seed = _root_seed(args, cfg)
    batch = sessions.generate_synthetic(generator_from_config(cfg),
                                        stage_seed(seed, "gen"))
    Path(args.out).write_bytes(batch.to_json_bytes())
    print(f"wrote {len(batch)} sessions to {args.out}")
    return 0


def cmd_fit_risk(args) -> int:
    cfg = load_config(args.config)
    alpha = args.alpha if args.alpha is not None else cfg["alpha"]
    batch = _read_batch(args.sessions)
    estimate = risk.estimate_risk(batch, alpha)
    fields = dataclasses.asdict(estimate)
    payload = {**fields.pop("fit"), **fields, "cvar_paper": _json_safe(estimate.cvar_paper)}
    Path(args.out).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    print(f"normalized tail risk at alpha={alpha}: {estimate.cvar_normalized:.6f}")
    return 0


def _risk_value_for_train(args, cfg, batch) -> float:
    if args.risk_off:
        return 0.0
    if args.risk:
        try:
            payload = json.loads(Path(args.risk).read_text())
        except (ValueError, RecursionError) as exc:  # also bytes that are not UTF-8, deep nesting
            raise CliError(f"risk file {args.risk} is not valid JSON: {exc}") from None
        if not isinstance(payload, dict) or "cvar_normalized" not in payload:
            raise CliError(f"risk file {args.risk} has no 'cvar_normalized' key")
        value = payload["cvar_normalized"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not 0.0 <= value < 1.0:
            raise CliError(f"risk file {args.risk}: key 'cvar_normalized' must be a number "
                           f"in [0, 1), got {value!r}")
        return float(value)
    return risk.estimate_risk(batch, cfg["alpha"]).cvar_normalized


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    seed = _root_seed(args, cfg)
    batch = _read_batch(args.sessions)
    site = site_from_config(cfg)
    config = train_config_from(cfg, stage_seed(seed, "train"), args.episodes)
    risk_value = _risk_value_for_train(args, cfg, batch)
    initial = learner.SharedModel.load(args.resume) if args.resume else None
    model, logs = learner.train(batch, site, config, risk_value=risk_value,
                                initial_model=initial)
    model.save(args.out)
    log_path = args.log or (str(args.out) + ".log.csv")
    Path(log_path).write_text(learner.training_log_csv(logs))
    print(f"trained {config.episodes} episodes (risk={risk_value:.6f}); "
          f"model: {args.out}, log: {log_path}")
    return 0


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    batch = _read_batch(args.sessions)
    site = site_from_config(cfg)
    if args.baseline:
        outcomes, report = scheduler.fcfs_as_requested_baseline(
            batch, site, step_minutes=cfg["step_minutes"])
    else:
        model = learner.SharedModel.load(args.model)
        outcomes, report = scheduler.execute(model, batch, site,
                                             step_minutes=cfg["step_minutes"])
    Path(args.out).write_text(scheduler.outcomes_jsonl(outcomes))
    report_path = args.report or (str(args.out) + ".report.csv")
    Path(report_path).write_text(report.to_csv())
    label = "baseline" if args.baseline else "policy"
    print(f"{label} run: {report.sessions_served}/{report.sessions_total} served, "
          f"{report.assignment_efficiency_pct:.1f}% efficiency; report: {report_path}")
    return 0


def cmd_compare(args) -> int:
    reports = {}
    for item in args.reports:
        if "=" not in item:
            raise CliError("compare arguments must look like label=report.csv")
        label, path = item.split("=", 1)
        # each label is a dict key and a CSV header field of the comparison
        if (not label or "," in label or label in reports or label == "metric"
                or label.startswith("delta_pct_")):
            raise CliError(f"compare label {label!r} must be non-empty, hold no comma, "
                           "repeat no other label and name no other column")
        try:
            reports[label] = scheduler.read_report(Path(path).read_text())
        except (scheduler.SchedulerError, UnicodeDecodeError) as exc:
            raise CliError(f"report {path}: {exc}") from None
    rows = scheduler.compare_report(reports)
    text = scheduler.comparison_csv(rows)
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process and shared by every
    :func:`main` call; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ramals",
        description="Risk-adversarial multi-agent scheduling for EV charging sessions")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic session file")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit-risk", help="fit the laxity tail model over sessions")
    p.add_argument("--config")
    p.add_argument("--sessions", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the multi-agent scheduler")
    p.add_argument("--config")
    p.add_argument("--sessions", required=True)
    risk_source = p.add_mutually_exclusive_group()
    risk_source.add_argument("--risk", help="risk JSON from fit-risk (computed if omitted)")
    risk_source.add_argument("--risk-off", action="store_true",
                             help="pin the risk factor to 0")
    p.add_argument("--seed", type=int)
    p.add_argument("--episodes", type=int)
    p.add_argument("--resume", help="existing model to continue from")
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="training log CSV path")

    p = sub.add_parser("run", help="execute a model (or the baseline) over sessions")
    p.add_argument("--config")
    p.add_argument("--sessions", required=True)
    rule = p.add_mutually_exclusive_group(required=True)
    rule.add_argument("--model")
    rule.add_argument("--baseline", action="store_true",
                      help="run the as-requested FCFS baseline instead of a model")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="metrics CSV path")

    p = sub.add_parser("compare", help="tabulate metric deltas between reports")
    p.add_argument("reports", nargs="+", metavar="label=report.csv")
    p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    # looked up at call time, so a cmd_* replaced on this module is the one run
    command = {"gen-data": cmd_gen_data, "fit-risk": cmd_fit_risk, "train": cmd_train,
               "run": cmd_run, "compare": cmd_compare}[args.command]
    try:
        return command(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
