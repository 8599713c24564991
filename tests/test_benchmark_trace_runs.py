"""The benchmark's traced run completes on every workload.

`perfbench/run.py --trace 1` divides by the number of `gen_instance`
spans, so a trial loop that stops calling `harness.gen_instance` breaks
it, while the untraced run and the rest of the tests still pass.  Each
workload runs one traced round on a copy of `src/` and `perfbench/`, so
that its span file is written into the copy.

The tracer counts `peirce.system_entries` from the blocks that
`matrix_equation_basis` takes as keywords, so a weight sampler that
passed them positionally would read zero there while the run completes;
the workloads that solve a weight system must count its calls and entries.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

WEIGHT_SOLVES = ("t23_weight_qi_n6", "t38_weight_f7_n6")


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(REPO / name, root / name, ignore=ignore)
    return root


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_completes(checkout, workload):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1",
         "--seconds", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    last = json.loads(result.stdout.rstrip("\n").split("\n")[-1])
    assert last["correct"] is True, result.stdout
    if workload in WEIGHT_SOLVES:
        metrics = last["metrics"]
        assert metrics["peirce.matrix_equation_basis.calls"]["value"] > 0, result.stdout
        assert metrics["peirce.system_entries"]["value"] > 0, result.stdout
