"""No command loads scipy: the package runs on numpy alone.

The laxity fit's simplex and the student-t CDF its quantile bisects are the
package's own, so importing the package and running every command, the ones
that fit a tail model (``fit-risk``, and ``train`` without ``--risk``)
included, leave every ``scipy`` module out of ``sys.modules``.  Each check
runs in a fresh interpreter, since this test process has loaded scipy's
oracles already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
import ramals
from ramals.cli import main
def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
loaded = {"import ramals": scipy_modules()}
for label, argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, label
    loaded[label] = scipy_modules()
print(json.dumps(loaded))
"""

CONFIG = "n_sessions = 60\nevse_count = 2\nepisodes = 1\nhidden = 4\nalpha = 0.8\n"


def scipy_loaded_after(commands, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_no_command_loads_scipy(tmp_path):
    (tmp_path / "run.cfg").write_text(CONFIG)
    (tmp_path / "risk.json").write_text('{"cvar_normalized": 0.1}\n')
    common = ["--config", "run.cfg", "--sessions", "sessions.json"]
    commands = [
        ("gen-data", ["gen-data", "--config", "run.cfg", "--out", "sessions.json"]),
        ("run --baseline", ["run", "--baseline", *common, "--out", "base.jsonl",
                            "--report", "base.csv"]),
        ("train --risk", ["train", "--risk", "risk.json", *common, "--out", "model.json"]),
        ("run --model", ["run", "--model", "model.json", *common, "--out", "policy.jsonl",
                         "--report", "policy.csv"]),
        ("compare", ["compare", "base=base.csv", "policy=policy.csv"]),
        ("fit-risk", ["fit-risk", *common, "--out", "fitted.json"]),
    ]
    loaded = scipy_loaded_after(commands, tmp_path)
    assert loaded == {label: [] for label in ["import ramals", *dict(commands)]}
    fitted = json.loads((tmp_path / "fitted.json").read_text())
    assert 0.0 <= fitted["cvar_normalized"] < 1.0
    # the fit ran and its quantile was bisected: constant laxity pins the cutoff at 0
    assert fitted["cutoff"] > 0.0


def test_train_estimating_its_risk_loads_no_scipy(tmp_path):
    (tmp_path / "run.cfg").write_text(CONFIG)
    commands = [
        ("gen-data", ["gen-data", "--config", "run.cfg", "--out", "sessions.json"]),
        ("train", ["train", "--config", "run.cfg", "--sessions", "sessions.json",
                   "--out", "model.json"]),
    ]
    loaded = scipy_loaded_after(commands, tmp_path)
    assert loaded == {label: [] for label in ["import ramals", *dict(commands)]}
