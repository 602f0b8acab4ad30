"""Only the split suite and zetaglue.oracles load scipy, and no job loads
the oracles.

Each check runs in a fresh interpreter, since this test process has
imported scipy through the oracle tests already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import zetaglue

SRC = Path(zetaglue.__file__).resolve().parents[1]

JOB = """
import json, sys
import zetaglue, zetaglue.cli
code = zetaglue.cli.main(["run", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "scipy" or m.startswith("scipy.")
                               or m == "zetaglue.oracles")]))
"""


def run_job(tmp_path, experiment):
    config = tmp_path / f"{experiment}.json"
    config.write_text(json.dumps({
        "experiment": experiment,
        "fiber": {"type": "finite", "modes": [[0.0, 1], [1.0, 1]]},
        "geometry": {"a1": 1.0, "a2": 2.0, "holonomy": [1.5707963267948966]},
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", JOB, str(config), str(tmp_path / experiment)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, loaded


def test_import_and_bfk_job_load_no_scipy(tmp_path):
    code, loaded = run_job(tmp_path, "bfk")
    assert code == 0
    assert loaded == []


def test_split_job_imports_scipy_itself(tmp_path):
    code, loaded = run_job(tmp_path, "split")
    assert code == 0
    assert "scipy.integrate" in loaded
    assert "zetaglue.oracles" not in loaded
