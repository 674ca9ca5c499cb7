"""No command path loads SciPy, and only a multi-worker simulate loads the
process pool.

SciPy is a test-time dependency only: the runtime needs numpy and PyYAML.
Each command runs in a fresh interpreter whose import system refuses any
``scipy`` module, so a module-level import fails the command and a lazy
import is recorded even where the caller would catch the ``ImportError``.
``multiprocessing`` (with socket and subprocess) costs every command's
start-up if imported at module level; the demo commands and a one-worker
simulate must not load it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from test_golden import DEMO_FILES, GOLDEN, SIMULATE_FILES, assert_matches_golden

ROOT = Path(__file__).resolve().parents[1]

GUARDED_RUN = r"""
import json
import sys

refused = []


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            refused.append(name)
            raise ImportError(f"scipy import refused: {name}")
        return None


sys.meta_path.insert(0, RefuseScipy())

import numpy as np

from postcal.cli import main
from postcal.errors import DataError
from postcal.hb import GaussianFHInput, McmcConfig, fit_gaussian_fh

demo, smoke, out = sys.argv[1:]
config = ["--config", demo, "--out", f"{out}/demo"]
draws = ["--draws", f"{out}/demo/draws.csv"]
codes = {"fit": main(["fit", *config])}
for command in ("infer", "calibrate", "diagnose"):
    codes[command] = main([command, *config, *draws])
codes["simulate"] = main(
    ["simulate", "--config", smoke, "--out", f"{out}/simulate_smoke", "--keep-replications"]
)
# only a simulate run with more than one worker starts a process pool
pool_loaded = "multiprocessing" in sys.modules

Z = np.column_stack([np.ones(5), np.arange(5.0), 2.0 * np.arange(5.0)])
try:
    fit_gaussian_fh(
        [GaussianFHInput(estimates=np.arange(5.0), sampling_variances=np.ones(5), covariates=Z)],
        McmcConfig(burnin=10, iterations=10, chains=1, seed=0),
    )
    collinear = None
except DataError as exc:
    collinear = str(exc)

loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(
    json.dumps(
        {
            "codes": codes,
            "collinear": collinear,
            "refused": refused,
            "loaded": loaded,
            "pool_loaded": pool_loaded,
        }
    )
)
"""


def test_no_command_path_loads_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            GUARDED_RUN,
            str(ROOT / "configs" / "demo" / "config.yaml"),
            str(ROOT / "configs" / "simulate_smoke.yaml"),
            str(tmp_path),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["refused"] == []
    assert result["loaded"] == []
    assert result["pool_loaded"] is False
    assert result["codes"] == dict.fromkeys(
        ("fit", "infer", "calibrate", "diagnose", "simulate"), 0
    ), proc.stderr
    assert re.search(r"collinear columns \[[12]\]", result["collinear"] or "")
    for name, files in (("demo", DEMO_FILES), ("simulate_smoke", SIMULATE_FILES)):
        for f in files:
            assert_matches_golden(tmp_path / name / f, GOLDEN / name / f)
