"""No `zetaglue run` job loads scipy or zetaglue.oracles; only the oracles
and the tests need scipy.

Each job runs in a fresh interpreter, since this test process has imported
scipy through the oracle tests already.  The interpreter blocks scipy
(`sys.modules["scipy"] = None` makes every scipy import raise), so a job
that still reached for it would fail its exit code, not just the module
check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetaglue
from zetaglue.cli import EXPERIMENTS

SRC = Path(zetaglue.__file__).resolve().parents[1]

JOB = """
import json, sys
sys.modules["scipy"] = None
import zetaglue, zetaglue.cli
code = zetaglue.cli.main(["run", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, sorted(m for m, mod in sys.modules.items()
                               if mod is not None
                               and (m == "scipy" or m.startswith("scipy.")
                                    or m == "zetaglue.oracles"))]))
"""

# every experiment passes on this config, as it did when the split suite
# still ran on scipy
EXIT_CODES = {experiment: 0 for experiment in EXPERIMENTS}


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


@pytest.mark.parametrize("experiment", sorted(EXIT_CODES))
def test_job_runs_without_scipy(tmp_path, experiment):
    code, loaded = run_job(tmp_path, experiment)
    assert code == EXIT_CODES[experiment]
    assert loaded == []
