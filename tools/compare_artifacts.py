#!/usr/bin/env python3
"""Check that two source trees of mhddamp write byte-identical artifacts.

    python tools/compare_artifacts.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``mhddamp`` package, such
as the ``src`` of two checkouts.  Every ``configs/*.json`` of this
repository, cut to 10 steps with a ledger row every 3, and an N = 64 log1
config (3 steps, a ledger row every step, eight slabs) go through three
legs: ``mhddamp run``, ``mhddamp twin``, and ``mhddamp run`` restarted from
the run's checkpoint for 3 more steps.  Each side runs in a directory of its
own, with its source tree on PYTHONPATH and relative paths only, so that the
configs echoed in its summaries match.  Every output file, and each leg's
exit code, stdout and stderr, is compared byte for byte.  Each difference is
printed, and the exit status is 1 if there is any, 0 if there is none.
"""

from __future__ import annotations

import copy
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAIN = "import sys; from mhddamp.cli import main; sys.exit(main())"
STEPS, STRIDE, RESTART_STEPS = 10, 3, 3


def _cut(cfg: dict, steps: int, stride: int) -> dict:
    """``cfg`` ending after ``steps`` steps from t = 0, a ledger row every
    ``stride``."""
    cfg = copy.deepcopy(cfg)
    cfg["output_dir"] = None
    cfg["solver"]["t_end"] = steps * cfg["solver"]["dt"]
    cfg["solver"]["ledger_stride"] = stride
    return cfg


def leg_configs() -> dict[str, tuple[dict, int]]:
    """name -> (config, steps) of each config the legs run."""
    configs = {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        configs[path.stem] = (_cut(json.loads(path.read_text()), STEPS, STRIDE), STEPS)
    big = _cut(json.loads((ROOT / "configs" / "log-damped-n32.json").read_text()), 3, 1)
    big["name"] = "log-damped-n64"
    big["solver"]["grid"].update(n_modes=64, truncation_radius=None)
    configs["log-damped-n64"] = (big, 3)
    return configs


def run_side(src: Path, workdir: Path) -> dict[str, tuple[int, bytes, bytes]]:
    """Run every leg with the package in ``src``, in ``workdir``; returns
    leg -> (exit code, stdout, stderr)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MHDDAMP_")}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    results = {}
    for name, (cfg, steps) in leg_configs().items():
        restart = copy.deepcopy(cfg)
        restart["solver"]["t_end"] = (steps + RESTART_STEPS) * cfg["solver"]["dt"]
        restart["solver"]["initial_condition"].update(
            kind="from_checkpoint", path=f"{name}-run/checkpoint.mhdf"
        )
        for leg, command, leg_cfg in (("run", "run", cfg), ("twin", "twin", cfg),
                                      ("restart", "run", restart)):
            config_file = f"{name}-{leg}.json"
            (workdir / config_file).write_text(json.dumps(leg_cfg, indent=2, sort_keys=True))
            proc = subprocess.run(
                [sys.executable, "-c", MAIN, command, "--config", config_file,
                 "--out", f"{name}-{leg}"],
                cwd=workdir, env=env, capture_output=True,
            )
            results[f"{name} {leg}"] = (proc.returncode, proc.stdout, proc.stderr)
            print(f"{src}: {name} {leg}: exit {proc.returncode}", file=sys.stderr)
    return results


def _text_diff(old: bytes, new: bytes) -> str:
    lines = difflib.unified_diff(
        old.decode(errors="replace").splitlines(), new.decode(errors="replace").splitlines(),
        "old", "new", lineterm="",
    )
    return "\n".join(lines)


def differences(old_dir: Path, new_dir: Path, old_results: dict, new_results: dict) -> list[str]:
    """One line (or diff) per difference between the two sides."""
    found = []
    for leg, old in old_results.items():
        new = new_results[leg]
        if old[0] != new[0]:
            found.append(f"{leg}: exit code {old[0]} != {new[0]}")
        for stream, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
            if a != b:
                found.append(f"{leg}: {stream} differs\n{_text_diff(a, b)}")
    old_files = {p.relative_to(old_dir) for p in old_dir.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new_dir) for p in new_dir.rglob("*") if p.is_file()}
    for rel in sorted(old_files | new_files):
        if rel not in new_files:
            found.append(f"{rel}: only in OLD")
        elif rel not in old_files:
            found.append(f"{rel}: only in NEW")
        else:
            a, b = (old_dir / rel).read_bytes(), (new_dir / rel).read_bytes()
            if a != b:
                at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
                found.append(f"{rel}: differs from byte {at} ({len(a)} and {len(b)} bytes)")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_artifacts.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    srcs = [Path(a).resolve() for a in argv]
    for src in srcs:
        if not (src / "mhddamp" / "__init__.py").is_file():
            print(f"{src}: no mhddamp package", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="compare_artifacts_") as tmp:
        dirs = [Path(tmp) / "old", Path(tmp) / "new"]
        results = []
        for src, workdir in zip(srcs, dirs):
            workdir.mkdir()
            results.append(run_side(src, workdir))
        found = differences(dirs[0], dirs[1], *results)
        files = sum(1 for p in dirs[0].rglob("*") if p.is_file())
    for line in found:
        print(line)
    print(f"{len(results[0])} legs, {files} files: "
          + (f"{len(found)} differences" if found else "identical"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
