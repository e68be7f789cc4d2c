#!/usr/bin/env python3
"""Time the Tier-1 test suite of a checkout of mhddamp.

    python tools/tier1_time.py [ROOT]

Runs the Tier-1 command of ROADMAP.md,

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

in ROOT (this checkout by default) with ``--durations=0`` added, and prints
one JSON line: the wall time of the whole command, pytest's own time, the
passed/failed/error/skipped counts, the failed tests, and the five slowest
set-ups and calls as ``[seconds, test id]`` pairs.  The exit status is
pytest's.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ("-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0")
DURATION = re.compile(r"^([0-9.]+)s (setup|call|teardown)\s+(\S.*)$")
SUMMARY = re.compile(r"^=*\s*(\d+ \w+.*) in ([0-9.]+)s")
COUNT = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)")
TOP = 5


def parse(output: str) -> dict:
    """Counts, pytest's time, failed tests and the TOP slowest set-ups and
    calls from the output of a ``-q --durations=0`` pytest run."""
    result = {"pytest_s": None, "passed": 0, "failed": 0, "errors": 0, "skipped": 0}
    phases = {"setup": [], "call": []}
    failed = []
    for line in output.splitlines():
        if m := DURATION.match(line):
            if m[2] in phases:
                phases[m[2]].append([float(m[1]), m[3]])
        elif line.startswith(("FAILED ", "ERROR ")):
            failed.append(line.split(" ", 1)[1].split(" - ", 1)[0])
        elif m := SUMMARY.match(line):
            result["pytest_s"] = float(m[2])
            for count, kind in COUNT.findall(m[1]):
                key = "errors" if kind.startswith("error") else kind
                if key in result:
                    result[key] = int(count)
    result["failed_tests"] = failed
    for phase, rows in phases.items():
        result[f"slowest_{phase}s"] = sorted(rows, key=lambda r: -r[0])[:TOP]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("root", nargs="?", type=Path, default=ROOT,
                        help="checkout to test (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "mhddamp").is_dir():
        parser.error(f"{root} holds no src/mhddamp")
    path = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *COMMAND], cwd=root, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    print(json.dumps({"root": str(root), "wall_s": round(wall, 2),
                      **parse(proc.stdout), "exit": proc.returncode}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
