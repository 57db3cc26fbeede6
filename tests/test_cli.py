"""Command-line pipeline wiring and idempotence."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ramals import cli, learner, mdp, risk, scheduler
from ramals.cli import CliError, load_config, main, site_from_config, stage_seed
from ramals.learner import SharedModel
from ramals.sessions import EvseConfig, GeneratorConfig, SessionBatch, parse_sessions

CONFIG = """
# desk-scale smoke scenario
n_sessions = 120
cv_fraction = 0.7
evse_count = 4
mean_gap_minutes = 150
alpha = 0.9
episodes = 3
hidden = 8
seed = 11
"""


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "run.cfg").write_text(CONFIG)
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_one_parser_calls_the_command_on_the_module(tmp_path, monkeypatch):
    """One parser serves every call in a process, and each call runs the
    command function the module holds then, as a wrapper set on it."""
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "sessions.json"
    assert run_cli("gen-data", "--out", out) == 0 and out.exists()
    seen = []
    monkeypatch.setattr(cli, "cmd_gen_data", lambda args: seen.append(args.out) or 0)
    assert run_cli("gen-data", "--out", out) == 0
    assert seen == [str(out)]


class TestConfig:
    def test_defaults_and_overrides(self, workdir):
        cfg = load_config(workdir / "run.cfg")
        assert cfg["episodes"] == 3
        assert cfg["gamma"] == 0.9  # untouched default
        site = site_from_config(cfg)
        assert len(site.evses) == 4

    def test_defaults_are_the_config_classes_defaults(self):
        """``DEFAULTS`` repeats every default of the config classes, and the
        module docstring lists each key again: the three agree."""
        defaults = load_config(None)
        expected = {"step_minutes": mdp.DEFAULT_STEP_MINUTES}
        for cls in (learner.TrainConfig, GeneratorConfig, EvseConfig):
            for field in dataclasses.fields(cls):
                if field.default is dataclasses.MISSING or field.name == "seed":
                    continue  # TrainConfig's seed is a stage seed of the root seed
                if isinstance(field.default, tuple):
                    stem = field.name.removesuffix("_range")
                    expected[f"{stem}_min"], expected[f"{stem}_max"] = field.default
                else:
                    expected["evse_count" if field.name == "n_evses" else field.name] = \
                        field.default
        assert len(expected) == 23
        assert {key: (type(defaults[key]), defaults[key]) for key in expected} == {
            key: (type(value), value) for key, value in expected.items()}
        block = cli.__doc__.split("Recognized keys (defaults in parentheses):")[1]
        listed = re.findall(r"(\w+) \(([^)]*)\)", block.split("\n\n")[1])
        assert [key for key, _ in listed] == list(cli.DEFAULTS)
        for key, text in listed:
            assert type(cli.DEFAULTS[key])(text) == cli.DEFAULTS[key], key

    def test_per_evse_override(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("evse_count = 2\nevse.EVSE-2.supply_capacity_kw = 22\n")
        site = site_from_config(load_config(path))
        assert site.evse("EVSE-1").supply_capacity_kw == 50.0
        assert site.evse("EVSE-2").supply_capacity_kw == 22.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("not_a_key = 1\n")
        with pytest.raises(Exception):
            load_config(path)

    def test_undecodable_config_names_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"seed = 1\xff\n")
        with pytest.raises(CliError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't "):
            load_config(path)

    def test_site_id_key_refused(self, workdir, capsys):
        """A site has no name: reports carry none, so ``site_id`` is an
        unknown key like any other."""
        path = workdir / "c.cfg"
        path.write_text("site_id = depot\n")
        assert run_cli("gen-data", "--config", path, "--out", workdir / "s.json") == 1
        err = capsys.readouterr().err
        assert f"{path}:1: unknown key 'site_id'" in err
        assert "Traceback" not in err
        assert not (workdir / "s.json").exists()

    @pytest.mark.parametrize("line, needs", [("hidden = 8.5", "an integer"),
                                             ("dso_capacity_kw = lots", "a number")])
    def test_bad_value_names_key_and_line(self, tmp_path, capsys, line, needs):
        path = tmp_path / "c.cfg"
        path.write_text(f"# site\n{line}\n")
        key, value = line.split(" = ")
        with pytest.raises(CliError, match=f"c.cfg:2: key '{key}' needs {needs}, "
                                           f"got '{value}'"):
            load_config(path)
        assert run_cli("train", "--config", path, "--sessions", tmp_path / "s.json",
                       "--out", tmp_path / "m.json") == 1
        assert f"c.cfg:2: key '{key}'" in capsys.readouterr().err

    def test_bad_override_value_names_key_and_line(self, workdir, capsys):
        path = workdir / "c.cfg"
        path.write_text("# site\nevse.EVSE-1.supply_capacity_kw = lots\n")
        with pytest.raises(CliError, match="c.cfg:2: key 'evse.EVSE-1.supply_capacity_kw' "
                                           "needs a number, got 'lots'"):
            load_config(path)
        assert self.run_baseline(workdir, path) == 1
        assert "c.cfg:2: key 'evse.EVSE-1.supply_capacity_kw'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["evse.EVSE-1.supply_kw", "evse.supply_capacity_kw",
                                     "evse.EVSE-1"])
    def test_unknown_override_field_rejected(self, workdir, capsys, key):
        path = workdir / "c.cfg"
        path.write_text(f"{key} = 5\n")
        with pytest.raises(CliError, match=f"c.cfg:1: unknown per-EVSE key '{key}'"):
            load_config(path)
        assert self.run_baseline(workdir, path) == 1
        assert f"unknown per-EVSE key '{key}'" in capsys.readouterr().err
        assert not (workdir / "o.jsonl").exists()

    def test_override_for_missing_port_rejected(self, workdir, capsys):
        path = workdir / "c.cfg"
        path.write_text("evse_count = 4\nevse.EVSE-9.supply_capacity_kw = 5\n")
        with pytest.raises(CliError, match="key 'evse.EVSE-9.supply_capacity_kw' overrides "
                                           "a port the site does not have; its ports are "
                                           "EVSE-1 to EVSE-4"):
            site_from_config(load_config(path))
        assert self.run_baseline(workdir, path) == 1
        assert "'evse.EVSE-9.supply_capacity_kw'" in capsys.readouterr().err
        assert not (workdir / "o.jsonl").exists()

    def test_sessions_on_a_port_the_site_lacks_rejected(self, workdir, capsys):
        """A session file naming EVSE-9 on a 4-port site stops ``train`` and
        ``run --baseline`` with the port named, and no traceback."""
        sessions = workdir / "sessions.json"
        assert run_cli("gen-data", "--config", workdir / "run.cfg", "--out", sessions) == 0
        records = json.loads(sessions.read_text())
        records[5]["evseID"] = "EVSE-9"
        sessions.write_text(json.dumps(records))
        capsys.readouterr()
        for argv in (["train", "--out", workdir / "m.json"],
                     ["run", "--baseline", "--out", workdir / "o.jsonl"]):
            assert run_cli(*argv, "--config", workdir / "run.cfg", "--sessions", sessions) == 1
            err = capsys.readouterr().err
            assert "absent from site config: ['EVSE-9']" in err
            assert "Traceback" not in err
        assert not (workdir / "m.json").exists() and not (workdir / "o.jsonl").exists()

    @staticmethod
    def run_baseline(workdir, config):
        sessions = workdir / "sessions.json"
        if not sessions.exists():
            assert run_cli("gen-data", "--out", sessions) == 0
        return run_cli("run", "--baseline", "--config", config, "--sessions", sessions,
                       "--out", workdir / "o.jsonl")

    @pytest.mark.parametrize("line", ["dso_capacity_kw = nan", "dso_capacity_kw = inf",
                                      "supply_capacity_kw = nan",
                                      "evse.EVSE-1.switching_minutes = inf"])
    def test_non_finite_capacity_rejected(self, workdir, capsys, line):
        path = workdir / "c.cfg"
        path.write_text(f"{line}\n")
        sessions = workdir / "sessions.json"
        assert run_cli("gen-data", "--out", sessions) == 0
        assert run_cli("run", "--baseline", "--config", path, "--sessions", sessions,
                       "--out", workdir / "o.jsonl") == 1
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-15", "nan", "inf"])
    def test_step_that_is_not_finite_and_positive_rejected(self, workdir, capsys, monkeypatch,
                                                           value):
        """Each deferral and queued head moves a clock on by the step, so a
        step of 0 or less never ends a replay: ``run`` and ``run --baseline``
        refuse it by name before replaying, and write nothing."""
        cfg, sessions, model = workdir / "run.cfg", workdir / "sessions.json", workdir / "m.json"
        assert run_cli("gen-data", "--config", cfg, "--out", sessions) == 0
        assert run_cli("train", "--config", cfg, "--sessions", sessions, "--risk-off",
                       "--out", model) == 0
        bad = workdir / "bad.cfg"
        bad.write_text(f"{CONFIG}step_minutes = {value}\n")
        monkeypatch.setattr(scheduler.ScheduleEngine, "run",
                            lambda engine: pytest.fail("replayed with a bad step"))
        capsys.readouterr()
        for rule in (["--model", model], ["--baseline"]):
            assert run_cli("run", *rule, "--config", bad, "--sessions", sessions,
                           "--out", workdir / "o.jsonl", "--report", workdir / "o.csv") == 1
            err = capsys.readouterr().err
            assert err.startswith("error: step_minutes must be finite and > 0, got ")
            assert "Traceback" not in err
        assert not (workdir / "o.jsonl").exists() and not (workdir / "o.csv").exists()

    def test_stage_seeds_distinct_and_stable(self):
        assert stage_seed(7, "gen") == stage_seed(7, "gen")
        assert stage_seed(7, "gen") != stage_seed(7, "train")
        assert stage_seed(7, "gen") != stage_seed(8, "gen")

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    @pytest.mark.parametrize("flag, line, named", [
        (["--seed", "-1"], "", "--seed needs"),
        ([], "seed = -2", "bad.cfg:2: key 'seed' needs"),
    ])
    def test_negative_seed_refused_by_name(self, workdir, capsys, command, flag, line, named):
        """A negative root seed exits 1 naming the flag or the config line,
        and writes no file."""
        sessions, out = workdir / "sessions.json", workdir / "out.json"
        run_cli("gen-data", "--config", workdir / "run.cfg", "--out", sessions)
        bad = workdir / "bad.cfg"
        bad.write_text(f"n_sessions = 12\n{line}\n")
        inputs = ["--sessions", sessions, "--risk-off"] if command == "train" else []
        capsys.readouterr()
        assert run_cli(command, "--config", bad, *flag, *inputs, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{named} a non-negative integer" in err
        assert not list(workdir.glob("out.json*"))


class TestGenData:
    def test_writes_requested_count(self, workdir):
        out = workdir / "sessions.json"
        assert run_cli("gen-data", "--config", workdir / "run.cfg", "--out", out) == 0
        assert len(json.loads(out.read_text())) == 120

    def test_same_seed_identical_files(self, workdir):
        a, b = workdir / "a.json", workdir / "b.json"
        run_cli("gen-data", "--config", workdir / "run.cfg", "--out", a)
        run_cli("gen-data", "--config", workdir / "run.cfg", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_mix_exits_nonzero(self, workdir, capsys):
        bad = workdir / "bad.cfg"
        bad.write_text("cv_fraction = 1.7\n")
        code = run_cli("gen-data", "--config", bad, "--out", workdir / "x.json")
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("line, knob", [
        ("receiving_capacity_kw = 0", "receiving_capacity_kw"),
        ("mean_gap_minutes = inf", "mean_gap_minutes"),
        ("mean_gap_minutes = nan", "mean_gap_minutes"),
        ("rate_kw_max = inf", "rate_kw_range"),
        ("start = 2026-01-05 06:00", "start"),
    ])
    def test_bad_generator_knob_names_it(self, workdir, capsys, line, knob):
        """A knob that would write a file fit-risk refuses, or end in an
        overflow, exits 1 naming the knob and writes no file."""
        bad, out = workdir / "bad.cfg", workdir / "x.json"
        bad.write_text(line + "\n")
        assert run_cli("gen-data", "--config", bad, "--out", out) == 1
        assert f"error: {knob} must be" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("lines, knob", [
        ("mean_gap_minutes = 1e300", "mean_gap_minutes"),
        ("energy_kwh_max = 1e308", "energy_kwh_range"),
        ("rate_kw_min = 1e-300\nrate_kw_max = 1e-300", "rate_kw_range"),
        ("start = 9999-12-31T23:00\nn_sessions = 3", "start"),
    ])
    def test_clocks_out_of_range_name_the_knob(self, workdir, capsys, lines, knob):
        """Finite knobs whose clocks overflow, or pass the year 9999 that
        fit-risk reads, exit 1 naming the knob and write no file."""
        bad, out = workdir / "bad.cfg", workdir / "x.json"
        bad.write_text(lines + "\n")
        assert run_cli("gen-data", "--config", bad, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and knob in err
        assert not out.exists()


class TestPipeline:
    def generate(self, workdir):
        out = workdir / "sessions.json"
        run_cli("gen-data", "--config", workdir / "run.cfg", "--out", out)
        return out

    def test_fit_risk_fields(self, workdir):
        sessions = self.generate(workdir)
        out = workdir / "risk.json"
        assert run_cli("fit-risk", "--config", workdir / "run.cfg",
                       "--sessions", sessions, "--out", out) == 0
        payload = json.loads(out.read_text())
        for key in ("alpha", "dof", "location", "scale", "cutoff", "var",
                    "cvar_paper", "cvar_standard", "cvar_empirical",
                    "cvar_normalized"):
            assert key in payload
        assert 0.0 <= payload["cvar_normalized"] < 1.0

    def test_risk_file_is_the_estimate_fields(self, workdir):
        """The risk file's keys are exactly ``RiskEstimate``'s fields with
        ``fit``'s at the top level, and each holds the estimate's value."""
        sessions = self.generate(workdir)
        out = workdir / "risk.json"
        assert run_cli("fit-risk", "--config", workdir / "run.cfg",
                       "--sessions", sessions, "--out", out) == 0
        payload = json.loads(out.read_text())
        estimate = risk.estimate_risk(parse_sessions(sessions.read_bytes()), 0.9)
        fields = {f.name: getattr(estimate, f.name) for f in dataclasses.fields(estimate)}
        fit = fields.pop("fit")
        fields.update((f.name, getattr(fit, f.name)) for f in dataclasses.fields(fit))
        assert sorted(payload) == sorted(fields)
        for key, value in fields.items():
            assert payload[key] == (value if math.isfinite(value) else None), key

    @pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
    def test_fit_risk_rejects_alpha_on_constant_laxity(self, workdir, capsys, alpha):
        """A batch of AVs has constant laxity, which needs no quantile; the
        level is still checked, by value, and no risk file is written."""
        cfg, sessions, out = workdir / "av.cfg", workdir / "av.json", workdir / "risk.json"
        cfg.write_text("cv_fraction = 0\n")
        assert run_cli("gen-data", "--config", cfg, "--out", sessions) == 0
        capsys.readouterr()
        assert run_cli("fit-risk", "--config", cfg, "--sessions", sessions,
                       "--alpha", alpha, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: alpha must lie strictly inside (0, 1), "
                              f"got {float(alpha)!r}")
        assert "Traceback" not in err
        assert not out.exists()

    def test_fit_risk_names_a_port_without_charging_minutes(self, workdir, capsys):
        """A port whose sessions record no charging minutes has no delivery
        rate: fit-risk exits 1 naming the port and writes no file."""
        sessions, out = workdir / "still.json", workdir / "risk.json"
        sessions.write_text(json.dumps([
            {"sessionID": f"s{i}", "evseID": evse, "vehicleClass": "CV",
             "kWhRequested": 10.0, "minutesAvailable": 60.0, "kWhDelivered": kwh,
             "connectionTime": f"2026-01-05T0{i}:00",
             "doneChargingTime": f"2026-01-05T0{i}:{minutes:02d}",
             "disconnectTime": f"2026-01-05T0{i}:30"}
            for i, (evse, kwh, minutes) in enumerate([("EVSE-2", 5.0, 20), ("EVSE-1", 0.0, 0),
                                                      ("EVSE-2", 5.0, 20)])]))
        assert run_cli("fit-risk", "--config", workdir / "run.cfg", "--sessions", sessions,
                       "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: EVSE 'EVSE-1': rates must be positive for laxity")
        assert "Traceback" not in err
        assert not out.exists()

    def test_fit_risk_missing_file(self, workdir, capsys):
        code = run_cli("fit-risk", "--config", workdir / "run.cfg",
                       "--sessions", workdir / "nope.json",
                       "--out", workdir / "risk.json")
        assert code == 1

    @pytest.mark.parametrize("value, problem", [
        pytest.param(None, "has no 'cvar_normalized' key", id="missing"),
        pytest.param("0.5", "must be a number in [0, 1), got '0.5'", id="string"),
        pytest.param(True, "must be a number in [0, 1), got True", id="bool"),
        pytest.param(1.0, "must be a number in [0, 1), got 1.0", id="one"),
        pytest.param(-0.25, "must be a number in [0, 1), got -0.25", id="negative"),
    ])
    def test_train_rejects_unusable_risk_file(self, workdir, capsys, value, problem):
        """``--risk`` reads the standard form alone; the paper's printed form
        beside it is never a fallback."""
        sessions = self.generate(workdir)
        risk = workdir / "risk.json"
        run_cli("fit-risk", "--config", workdir / "run.cfg", "--sessions", sessions,
                "--out", risk)
        payload = json.loads(risk.read_text())
        del payload["cvar_normalized"]
        if value is not None:
            payload["cvar_normalized"] = value
        risk.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("train", "--config", workdir / "run.cfg", "--sessions", sessions,
                       "--risk", risk, "--out", workdir / "model.json") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: risk file {risk}") and problem in err
        assert not (workdir / "model.json").exists()

    def test_train_rejects_risk_file_that_is_not_json(self, workdir, capsys):
        sessions = self.generate(workdir)
        risk = workdir / "risk.json"
        run_cli("fit-risk", "--config", workdir / "run.cfg", "--sessions", sessions,
                "--out", risk)
        risk.write_text(risk.read_text()[:30])  # truncated
        capsys.readouterr()
        assert run_cli("train", "--config", workdir / "run.cfg", "--sessions", sessions,
                       "--risk", risk, "--out", workdir / "model.json") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: risk file {risk} is not valid JSON: ")
        assert "Traceback" not in err
        assert not (workdir / "model.json").exists()

    def test_train_rejects_deeply_nested_risk_file(self, workdir, capsys):
        sessions, risk = self.generate(workdir), workdir / "risk.json"
        risk.write_text("[" * 200_000)
        capsys.readouterr()
        assert run_cli("train", "--config", workdir / "run.cfg", "--sessions", sessions,
                       "--risk", risk, "--out", workdir / "model.json") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: risk file {risk} is not valid JSON: maximum recursion")
        assert not (workdir / "model.json").exists()

    @pytest.mark.parametrize("line, field_name", [("learning_rate = nan", "learning_rate"),
                                                  ("beta = inf", "beta"),
                                                  ("clip_threshold = 0", "clip_threshold")])
    def test_train_rejects_unusable_config_before_training(self, workdir, capsys, monkeypatch,
                                                           line, field_name):
        sessions = self.generate(workdir)
        config = workdir / "bad.cfg"
        config.write_text(f"{line}\n")
        monkeypatch.setattr(learner, "forward_episode", None)  # never reached
        capsys.readouterr()
        assert run_cli("train", "--config", config, "--sessions", sessions, "--risk-off",
                       "--out", workdir / "model.json") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field_name} must be a finite ")
        assert not (workdir / "model.json").exists()

    def test_train_refuses_risk_file_with_risk_off(self, workdir, capsys):
        """``--risk`` and ``--risk-off`` conflict: argparse exits 2 naming
        both, before the file is opened or a model written."""
        sessions, model = self.generate(workdir), workdir / "model.json"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("train", "--config", workdir / "run.cfg", "--sessions", sessions,
                    "--risk", workdir / "missing.json", "--risk-off", "--out", model)
        assert exit_info.value.code == 2
        assert "argument --risk-off: not allowed with argument --risk" in \
            capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("rule, message", [
        (["--model", "missing.json", "--baseline"],
         "argument --baseline: not allowed with argument --model"),
        ([], "one of the arguments --model --baseline is required")])
    def test_run_needs_exactly_one_of_model_and_baseline(self, workdir, capsys, rule,
                                                         message):
        sessions, out = self.generate(workdir), workdir / "o.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", "--config", workdir / "run.cfg", "--sessions", sessions,
                    *rule, "--out", out)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not (workdir / "o.jsonl.report.csv").exists()

    def test_train_run_compare(self, workdir):
        sessions = self.generate(workdir)
        risk = workdir / "risk.json"
        run_cli("fit-risk", "--config", workdir / "run.cfg",
                "--sessions", sessions, "--out", risk)
        model = workdir / "model.json"
        log = workdir / "train.csv"
        assert run_cli("train", "--config", workdir / "run.cfg",
                       "--sessions", sessions, "--risk", risk,
                       "--out", model, "--log", log) == 0
        log_rows = log.read_text().strip().splitlines()
        assert log_rows[0] == "episode,cumulative_reward,value_loss,policy_loss,entropy_loss"
        assert len(log_rows) == 1 + 3  # header + one row per episode

        outcomes = workdir / "outcomes.jsonl"
        report = workdir / "report.csv"
        assert run_cli("run", "--config", workdir / "run.cfg",
                       "--sessions", sessions, "--model", model,
                       "--out", outcomes, "--report", report) == 0
        assert len(outcomes.read_text().strip().splitlines()) == 120

        base_out = workdir / "baseline.jsonl"
        base_report = workdir / "baseline.csv"
        assert run_cli("run", "--config", workdir / "run.cfg",
                       "--sessions", sessions, "--baseline",
                       "--out", base_out, "--report", base_report) == 0

        table = workdir / "table.csv"
        assert run_cli("compare", f"baseline={base_report}", f"ramals={report}",
                       "--out", table) == 0
        header = table.read_text().splitlines()[0]
        assert "delta_pct_ramals" in header

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [r for r in rows if not r.startswith("sessions_served,site,")],
         "no site row for sessions_served"),
        (lambda rows: rows[:2] + ["charging_rate_kw,site"] + rows[2:],
         "line 3: expected metric,scope,value")])
    def test_compare_malformed_report_names_file(self, workdir, capsys, edit, message):
        sessions = self.generate(workdir)
        report = workdir / "base.csv"
        assert run_cli("run", "--config", workdir / "run.cfg", "--sessions", sessions,
                       "--baseline", "--out", workdir / "base.jsonl", "--report", report) == 0
        bad = workdir / "bad.csv"
        bad.write_text("\n".join(edit(report.read_text().splitlines())) + "\n")
        assert run_cli("compare", f"base={report}", f"bad={bad}") == 1
        assert f"error: report {bad}: {message}" in capsys.readouterr().err

    def test_compare_undecodable_report_names_file(self, workdir, capsys):
        sessions = self.generate(workdir)
        report, bad = workdir / "base.csv", workdir / "bad.csv"
        assert run_cli("run", "--config", workdir / "run.cfg", "--sessions", sessions,
                       "--baseline", "--out", workdir / "base.jsonl", "--report", report) == 0
        bad.write_bytes(b"\xff" + report.read_bytes())
        assert run_cli("compare", f"base={report}", f"bad={bad}") == 1
        assert f"error: report {bad}: 'utf-8' codec can't " in capsys.readouterr().err

    @pytest.mark.parametrize("labels, bad", [
        (["a", "a"], "a"), (["a,b", "c"], "a,b"), (["", "b"], ""), (["a", ""], ""),
        (["metric", "b"], "metric"), (["b", "delta_pct_b"], "delta_pct_b")])
    def test_compare_rejects_labels_that_are_not_distinct_columns(self, workdir, capsys,
                                                                   labels, bad):
        """Each label is a dict key and a CSV header field: one that repeats,
        holds a comma, is empty or names another column is refused by name."""
        sessions, report = self.generate(workdir), workdir / "base.csv"
        assert run_cli("run", "--config", workdir / "run.cfg", "--sessions", sessions,
                       "--baseline", "--out", workdir / "base.jsonl", "--report", report) == 0
        capsys.readouterr()
        table = workdir / "table.csv"
        assert run_cli("compare", *(f"{label}={report}" for label in labels),
                       "--out", table) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: compare label {bad!r} must be ")
        assert "Traceback" not in err
        assert not table.exists()

    def test_resume_continues_counter(self, workdir):
        sessions = self.generate(workdir)
        model = workdir / "model.json"
        run_cli("train", "--config", workdir / "run.cfg", "--sessions", sessions,
                "--risk-off", "--out", model)
        first = json.loads(model.read_text())["step"]
        run_cli("train", "--config", workdir / "run.cfg", "--sessions", sessions,
                "--risk-off", "--resume", model, "--out", model)
        assert json.loads(model.read_text())["step"] > first

    def test_corrupt_model_exits_with_field_name(self, workdir, capsys):
        sessions = self.generate(workdir)
        bad = workdir / "bad-model.json"
        bad.write_text('{"format": "ramals-model-v5"}')
        code = run_cli("run", "--config", workdir / "run.cfg",
                       "--sessions", sessions, "--model", bad,
                       "--out", workdir / "o.jsonl")
        assert code == 1
        assert "missing field" in capsys.readouterr().err

    @pytest.mark.parametrize("step", [-3, 10**400], ids=["negative", "beyond-float"])
    def test_resume_refuses_unusable_adam_step(self, workdir, capsys, step):
        """A resumed step of -3 used to train and write a model file that its
        own loader refused; one of 10**400 ended in an OverflowError."""
        sessions = self.generate(workdir)
        model, resumed = workdir / "model.json", workdir / "resumed.json"
        run_cli("train", "--config", workdir / "run.cfg", "--sessions", sessions,
                "--risk-off", "--out", model)
        payload = json.loads(model.read_text())
        payload["step"] = step
        model.write_text(json.dumps(payload))
        code = run_cli("train", "--config", workdir / "run.cfg", "--sessions", sessions,
                       "--risk-off", "--resume", model, "--out", resumed)
        assert code == 1
        assert "field 'step' must be a non-negative integer" in capsys.readouterr().err
        assert not resumed.exists()

    def test_resume_takes_config_learning_rate(self, workdir):
        """Adam moves each parameter by about the learning rate a step, so a
        resume at 0.5 must move the parameters far more than one at the
        0.001 the model was trained with."""
        sessions = self.generate(workdir)
        model = workdir / "model.json"
        run_cli("train", "--config", workdir / "run.cfg", "--sessions", sessions,
                "--risk-off", "--out", model)
        (workdir / "fast.cfg").write_text(CONFIG + "learning_rate = 0.5\n")
        moved = {}
        for cfg in ("run.cfg", "fast.cfg"):
            resumed = workdir / f"resumed-{cfg}.json"
            assert run_cli("train", "--config", workdir / cfg, "--sessions", sessions,
                           "--risk-off", "--resume", model, "--out", resumed) == 0
            moved[cfg] = np.max(np.abs(SharedModel.load(resumed).coordinator.flat
                                       - SharedModel.load(model).coordinator.flat))
        assert moved["fast.cfg"] > 100 * moved["run.cfg"]

    @pytest.mark.parametrize("value", [None, "x"])
    def test_bad_scalar_field_exits_with_its_name(self, workdir, capsys, value):
        sessions = self.generate(workdir)
        model = workdir / "model.json"
        run_cli("train", "--config", workdir / "run.cfg", "--sessions", sessions,
                "--risk-off", "--out", model)
        payload = json.loads(model.read_text())
        payload["risk_value"] = value
        model.write_text(json.dumps(payload))
        code = run_cli("run", "--config", workdir / "run.cfg", "--sessions", sessions,
                       "--model", model, "--out", workdir / "o.jsonl")
        assert code == 1
        assert "corrupt model file: field 'risk_value' must be a number" \
            in capsys.readouterr().err

    def test_model_with_boolean_hidden_exits_with_field_name(self, workdir, capsys):
        sessions = self.generate(workdir)
        model = workdir / "model.json"
        run_cli("train", "--config", workdir / "run.cfg", "--sessions", sessions,
                "--risk-off", "--out", model)
        payload = json.loads(model.read_text())
        payload["hidden"] = True
        model.write_text(json.dumps(payload))
        capsys.readouterr()
        code = run_cli("run", "--config", workdir / "run.cfg", "--sessions", sessions,
                       "--model", model, "--out", workdir / "o.jsonl")
        err = capsys.readouterr().err
        assert code == 1
        assert "corrupt model file: field 'hidden' must be an integer, got True" in err
        assert "Traceback" not in err
        assert not (workdir / "o.jsonl").exists()

    def test_resume_rejects_width_its_tensors_contradict(self, workdir, capsys):
        sessions = self.generate(workdir)
        model = workdir / "model.json"
        run_cli("train", "--config", workdir / "run.cfg", "--sessions", sessions,
                "--risk-off", "--out", model)
        payload = json.loads(model.read_text())
        payload["hidden"] = 16  # over the 8-wide tensors training wrote
        model.write_text(json.dumps(payload))
        (workdir / "wide.cfg").write_text(CONFIG.replace("hidden = 8", "hidden = 16"))
        resumed = workdir / "resumed.json"
        code = run_cli("train", "--config", workdir / "wide.cfg", "--sessions", sessions,
                       "--risk-off", "--resume", model, "--out", resumed)
        assert code == 1
        assert "coordinator must be base64 of 1523 float64 at hidden width 16, got 4056 bytes" \
            in capsys.readouterr().err
        assert not resumed.exists()

    def test_no_session_rows_built(self, workdir, monkeypatch):
        """Every command reads and writes the batch as columns: none iterates
        a batch's rows."""
        def no_rows(batch):
            raise AssertionError(f"rows read from a batch of {len(batch)} sessions")

        monkeypatch.setattr(SessionBatch, "__iter__", no_rows)
        cfg, sessions = workdir / "run.cfg", workdir / "sessions.json"
        common = ["--config", cfg, "--sessions", sessions]
        for argv in (["gen-data", "--config", cfg, "--out", sessions],
                     ["fit-risk", *common, "--out", workdir / "risk.json"],
                     ["train", *common, "--risk", workdir / "risk.json",
                      "--out", workdir / "model.json"],
                     ["run", "--baseline", *common, "--out", workdir / "base.jsonl",
                      "--report", workdir / "base.csv"],
                     ["run", "--model", workdir / "model.json", *common,
                      "--out", workdir / "policy.jsonl", "--report", workdir / "policy.csv"]):
            assert run_cli(*argv) == 0, argv

    def test_idempotent_rerun(self, workdir):
        sessions = self.generate(workdir)
        model_a, model_b = workdir / "m1.json", workdir / "m2.json"
        for model in (model_a, model_b):
            run_cli("train", "--config", workdir / "run.cfg", "--sessions", sessions,
                    "--risk-off", "--out", model,
                    "--log", workdir / (model.stem + ".csv"))
        assert model_a.read_bytes() == model_b.read_bytes()
        assert (workdir / "m1.csv").read_bytes() == (workdir / "m2.csv").read_bytes()
