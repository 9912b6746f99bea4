"""The benchmark's traced run against the current sources.

The tracer in ``perfbench/layers.py`` binds library functions by name and
their parameters by keyword; a signature change that breaks it shows here
rather than at the next benchmark run.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_norm_sweep_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "norm-sweep-2d",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
