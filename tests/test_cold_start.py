"""Only the commands that take a tail quantile import scipy, and never its
optimizer.

Each check runs in a fresh interpreter, since this test process has loaded
scipy already: importing the package and every command that fits no tail
model leave ``scipy`` out of ``sys.modules``; ``fit-risk``, and ``train``
without ``--risk``, which estimates the risk, load ``scipy.special``; and no
command loads ``scipy.optimize``, since the fit's simplex is the package's
own.
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
    return [name for name in ("scipy", "scipy.special", "scipy.optimize") if name in sys.modules]
loaded = {"import ramals": scipy_modules()}
for label, argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, label
    loaded[label] = scipy_modules()
print(json.dumps(loaded))
"""

CONFIG = "n_sessions = 60\nevse_count = 2\nepisodes = 1\nhidden = 4\nalpha = 0.8\n"

SPECIAL = ["scipy", "scipy.special"]


def scipy_loaded_after(commands, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_only_fit_risk_loads_scipy(tmp_path):
    (tmp_path / "run.cfg").write_text(CONFIG)
    (tmp_path / "risk.json").write_text('{"cvar_normalized": 0.1}\n')
    common = ["--config", "run.cfg", "--sessions", "sessions.json"]
    loaded = scipy_loaded_after([
        ("gen-data", ["gen-data", "--config", "run.cfg", "--out", "sessions.json"]),
        ("run --baseline", ["run", "--baseline", *common, "--out", "base.jsonl",
                            "--report", "base.csv"]),
        ("train --risk", ["train", "--risk", "risk.json", *common, "--out", "model.json"]),
        ("run --model", ["run", "--model", "model.json", *common, "--out", "policy.jsonl",
                         "--report", "policy.csv"]),
        ("compare", ["compare", "base=base.csv", "policy=policy.csv"]),
        ("fit-risk", ["fit-risk", *common, "--out", "fitted.json"]),
    ], tmp_path)
    assert loaded == {"import ramals": [], "gen-data": [], "run --baseline": [],
                      "train --risk": [], "run --model": [], "compare": [],
                      "fit-risk": SPECIAL}
    assert 0.0 <= json.loads((tmp_path / "fitted.json").read_text())["cvar_normalized"] < 1.0


def test_train_estimating_its_risk_loads_scipy_special_only(tmp_path):
    (tmp_path / "run.cfg").write_text(CONFIG)
    loaded = scipy_loaded_after([
        ("gen-data", ["gen-data", "--config", "run.cfg", "--out", "sessions.json"]),
        ("train", ["train", "--config", "run.cfg", "--sessions", "sessions.json",
                   "--out", "model.json"]),
    ], tmp_path)
    assert loaded == {"import ramals": [], "gen-data": [], "train": SPECIAL}
