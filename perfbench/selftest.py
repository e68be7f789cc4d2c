"""Self-test of the benchmark at toy size (N = 8, a few steps per workload).

Runs every workload untraced and traced, checks that each metric named in
BENCHMARK.json (and ``failed_frac``) is printed with its unit, and that a
corrupted reference output makes repetitions fail.  The file name keeps it
out of the default pytest collection; run it with

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, *extra: str) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--toy", "--seconds", "1", *extra],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    if result is not None:
        assert any(line.startswith("failed_frac ") for line in lines), "failed_frac not printed"
        for name, m in result["metrics"].items():
            assert any(line.split()[:1] == [name] and line.split()[-1] == m["unit"] for line in lines), name
    return proc.returncode, result, proc.stderr


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert isinstance(printed["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_gates_on_reference(workload, tmp_path):
    rc, _, err = bench(workload, "--reference-dir", str(tmp_path), "--write-reference")
    assert rc == 0, err
    ref = next(tmp_path.glob(f"{workload}/seed-0"))

    rc, result, err = bench(workload, "--reference-dir", str(tmp_path), "--trace", "0")
    assert rc == 0, err
    assert_metrics(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    rc, result, err = bench(workload, "--reference-dir", str(tmp_path), "--trace", "1")
    assert rc == 0, err
    assert_metrics(result, SPEC["per_layer"])
    assert result["correct"] and result["failed"] == 0

    # Flip the sign of one value of the second data column.
    csv_path = sorted(ref.glob("*.csv"))[0]
    rows = [line.split(",") for line in csv_path.read_text().splitlines()]
    rows[-1][1] = repr(-float(rows[-1][1]) or 1.0)
    csv_path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    rc, result, err = bench(workload, "--reference-dir", str(tmp_path), "--trace", "0")
    assert rc == 0, err
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert "reference:" in err


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
