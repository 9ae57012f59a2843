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


SRC = Path(__file__).resolve().parents[1] / "src"

RUN_AND_LIST_SCIPY = (
    "import json, sys\n"
    "import rarefuse, rarefuse.cli\n"
    "from rarefuse.cli import ExperimentConfig, run_experiment\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    "for doc in sys.argv[1:]:\n"
    "    run_experiment(ExperimentConfig.from_dict(json.loads(doc)))\n"
    "    print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
)


def _fresh_python(*args):
    proc = subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_and_workload_runs_do_not_load_scipy(tmp_path):
    # Only the normal quantile of a Gaussian nominal's subset run and the
    # linear-gaussian oracle need scipy.special; a uniform-nominal subset
    # run and IS/fuse runs on either benchmark never load SciPy
    configs = [
        {
            "benchmark": "arrhenius-2d",
            "mode": "all",
            "m": 2000,
            "n_grid": [60],
            "subset": {"N": 200, "max_levels": 2},
            "output_dir": str(tmp_path / "arrhenius"),
        },
        {
            "benchmark": "linear-gaussian-2.5",
            "mode": "fuse",
            "m": 2000,
            "n_grid": [60],
            "output_dir": str(tmp_path / "gaussian"),
        },
    ]
    lines = _fresh_python("-c", RUN_AND_LIST_SCIPY, *map(json.dumps, configs))
    assert [json.loads(line) for line in lines] == [[], [], []]
    assert (tmp_path / "arrhenius" / "subset.csv").exists()
    assert (tmp_path / "gaussian" / "weights.csv").exists()


def test_gaussian_subset_run_loads_scipy_special_with_same_bits(tmp_path):
    from rarefuse.cli import ExperimentConfig, run_experiment

    config = {
        "benchmark": "linear-gaussian",
        "mode": "subset",
        "subset": {"N": 300, "max_levels": 3},
        "seed": 5,
    }
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    lines = _fresh_python(
        "-c", RUN_AND_LIST_SCIPY, json.dumps(dict(config, output_dir=str(fresh)))
    )
    assert json.loads(lines[0]) == []
    assert "scipy.special" in json.loads(lines[1])
    import scipy.special  # noqa: F401  (the in-process run finds it loaded)

    run_experiment(ExperimentConfig.from_dict(dict(config, output_dir=str(here))))
    assert (fresh / "subset.csv").read_bytes() == (here / "subset.csv").read_bytes()


def test_oracle_command_loads_scipy_special_with_same_bits():
    from scipy.special import ndtr

    lines = _fresh_python("-m", "rarefuse.cli", "oracle", "--benchmark", "linear-gaussian")
    assert lines == [format(float(ndtr(-3.5)), ".17g")]
