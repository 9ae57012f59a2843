import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import rarefuse

MODULES = ["rarefuse"] + [
    f"rarefuse.{info.name}" for info in pkgutil.iter_modules(rarefuse.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from rarefuse import *", namespace)
    assert set(rarefuse.__all__) <= set(namespace)


def test_run_does_not_load_scipy_linalg(tmp_path):
    # NumPy does every factorization.  A small "all" run on a Gaussian
    # nominal goes through the densities' Cholesky factors, fusion and
    # subset simulation's from_unit_cube
    config = {
        "benchmark": "linear-gaussian",
        "mode": "all",
        "m": 2000,
        "n_grid": [60],
        "subset": {"N": 200, "max_levels": 2},
        "output_dir": str(tmp_path),
    }
    code = (
        "import json, sys\n"
        "import rarefuse\n"
        "from rarefuse.cli import ExperimentConfig, run_experiment\n"
        "run_experiment(ExperimentConfig.from_dict(json.loads(sys.argv[1])))\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(config)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert {"densities.json", "estimates.csv", "subset.csv"} <= {
        p.name for p in tmp_path.iterdir()
    }
