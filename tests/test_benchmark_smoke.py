"""The benchmark runs end to end on this source tree.

``perfbench/run.py --trace 1`` re-invokes every recorded tape node by its
op name and wraps the modules' public functions, so a change to ``src/``
can crash it while every other test passes. This runs all three workloads,
traced, for one second each in a copy of the checkout under ``tmp_path``:
the benchmark writes its work directory next to ``perfbench/``, and
nothing lands in the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"train-joint", "train-backbone", "eval-wild"}


@pytest.mark.slow
def test_traced_run_of_every_workload_succeeds(tmp_path):
    caches = shutil.ignore_patterns("__pycache__")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=caches)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600, check=False)
    assert run.returncode == 0, run.stderr[-2000:]
    results = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(results) == WORKLOADS
    for workload, result in results.items():
        assert result["attempted"] > 0 and result["failed"] == 0, (workload, result)
    joint = results["train-joint"]["metrics"]
    assert joint["tensor.tape_nodes_per_step"]["value"] == 18
