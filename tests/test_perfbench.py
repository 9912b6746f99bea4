"""The benchmark's traced runs against the current sources.

The tracer in ``perfbench/layers.py`` binds library functions by name and
their parameters by keyword; a signature change that breaks it shows here
rather than at the next benchmark run.  Both workloads run, because some of
what the tracer binds (``materialize(box=, resolution=)``,
``decomposition_residual``, ``check_wrh``, ``GridField.__call__``, the
``scale=`` of each ``verify_*``) is reached only by the suite.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["norm-sweep-2d", "suite-accept-2d"])
def test_traced_workload_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
