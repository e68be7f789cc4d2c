"""The benchmark's traced run still finds every wrap point and reports a
number for every metric.

``perfbench/run.py --trace 1`` exits 0 even when a function that
``perfbench/tracer.py`` wraps has gone from the package; the metric it feeds
then prints as null, which is not a result.  This runs each workload at toy
size (N = 8, a few steps) and holds the output to the contract: the first
line's ``details.absent`` is empty, and the last line is a JSON result whose
metric values are all numbers and whose ``correct`` is true.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("run-power-n32", "run-log1-n64", "twin-log1-n16")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_toy_run_reports_every_metric(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--toy", "--trace", "1",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[0])["details"]["absent"] == []
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values.values()
    ), values
    assert result["correct"] is True, proc.stderr
