#!/usr/bin/env python3
"""Check that two source trees of mhddamp write the same artifacts.

    python tools/compare_artifacts.py [--rtol R] [--threads N] OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``mhddamp`` package, such
as the ``src`` of two checkouts.  Every ``configs/*.json`` of this
repository, cut to 10 steps with a ledger row every 3, and an N = 64 log1
config (3 steps, a ledger row every step, 32 slabs) go through three
legs: ``mhddamp run``, ``mhddamp twin``, and ``mhddamp run`` restarted from
the run's checkpoint for 3 more steps.  One more leg runs ``mhddamp lemmas``
on LEMMA_MATRIX, which reaches PASS and NOT-APPLICABLE cells and every
modifier.  Each side runs in a directory of its own, with its source tree on
PYTHONPATH and relative paths only, so that the configs echoed in its
summaries match.  Every output file, and each leg's exit code, stdout and
stderr, is compared byte for byte.

With ``--rtol R`` numbers may differ by R times their scale: a CSV cell by
R times the largest |x| of its column, a JSON number, or a number in
stdout, stderr or another text file, by R times the largest |x| of its file
or stream, and each field of a ``.mhdf`` checkpoint by R times its largest
|c|.  Exit codes, the set of files, the N, R and time of checkpoints,
non-finite numbers and all text but the numbers must still match exactly,
but for a restart leg's ``config_hash``, which hashes the checkpoint it
restarts from, when that checkpoint differs.  A checkpoint of version 3 is
decoded to the packed ball modes of its six fields; one of any other
version is compared as bytes, like any malformed file.

With ``--threads N`` the NEW side's run and twin legs run with ``--threads N``, so
``--threads 2 src src`` checks that one tree writes the same artifacts on 1
and on 2 FFT threads.

Each difference is printed, and the exit status is 1 if there is any, 0 if
there is none.  Where only numbers differ, the line also gives the largest
difference relative to the scale and, for a CSV or a checkpoint, each
column or field that moved with its own, so that a stated re-baseline can
be reviewed from one byte-mode run.  A restart leg's file that differs
only in a ``config_hash`` whose checkpoint differs is one line that says so.
"""

from __future__ import annotations

import argparse
import copy
import csv
import difflib
import io
import json
import os
import re
import subprocess
import sys
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MAIN = "import sys; from mhddamp.cli import main; sys.exit(main())"
STEPS, STRIDE, RESTART_STEPS = 10, 3, 3
LEMMA_MATRIX = {"alphas": [1e-300, 1.0], "betas": [3.0, 4.0, 1e300],
                "x_points": 1000, "pairs": 10000}


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


def run_side(src: Path, workdir: Path, options: tuple[str, ...]
             ) -> dict[str, tuple[int, bytes, bytes]]:
    """Run every leg with the package in ``src``, in ``workdir``, with the
    command-line ``options`` added to each run and twin leg; returns leg ->
    (exit code, stdout, stderr)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MHDDAMP_")}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    results = {}

    def run_leg(leg: str, *args: str) -> None:
        proc = subprocess.run([sys.executable, "-c", MAIN, *args],
                              cwd=workdir, env=env, capture_output=True)
        results[leg] = (proc.returncode, proc.stdout, proc.stderr)
        print(f"{src}: {leg}: exit {proc.returncode}", file=sys.stderr)

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
            run_leg(f"{name} {leg}", command, "--config", config_file,
                    "--out", f"{name}-{leg}", *options)
    # one file for both sides, outside the compared directories: a message
    # naming its path reads the same on both
    matrix = workdir.parent / "lemmas-matrix.json"
    matrix.write_text(json.dumps(LEMMA_MATRIX))
    run_leg("lemmas", "lemmas", "--matrix", str(matrix), "--out", "lemmas")
    return results


def _text_diff(old: bytes, new: bytes) -> str:
    lines = difflib.unified_diff(
        old.decode(errors="replace").splitlines(), new.decode(errors="replace").splitlines(),
        "old", "new", lineterm="",
    )
    return "\n".join(lines)


# A number in text: not part of a word, such as h1 in h1_additive, or of a
# longer token, such as the digits of a hash.
NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?!\w|\.\d)"
)
MHDF_HEADER = "<4sIqdd"  # magic, version, N, radius, time
MHDF_SIZE = struct.calcsize(MHDF_HEADER)


# The numbers of a file come in (name, numbers) groups, each with its own
# scale: the columns of a CSV, the fields of a checkpoint, else one group
# named "".
FIELDS = ("u1", "u2", "u3", "b1", "b2", "b3")


def _text_numbers(data: bytes):
    """(text with each number replaced by '#', [("", its numbers)])."""
    text = data.decode(errors="replace")
    return NUMBER.sub("#", text), [("", np.array([float(x) for x in NUMBER.findall(text)]))]


def _json_numbers(data: bytes, masked: tuple[str, ...] = ()):
    """(the document with each number, and the value of each key in
    ``masked``, replaced by '#', [("", its numbers)])."""
    found = []

    def walk(node):
        if isinstance(node, dict):
            return {key: "#" if key in masked else walk(value) for key, value in node.items()}
        if isinstance(node, list):
            return [walk(value) for value in node]
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            found.append(float(node))
            return "#"
        return node

    skeleton = json.dumps(walk(json.loads(data)), sort_keys=True)
    return skeleton, [("", np.array(found))]


def _csv_numbers(data: bytes):
    """(the table with each number replaced by '#', [(name, numbers)] of
    each column)."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    columns: dict[int, list[float]] = {}
    skeleton = []
    for row in rows[1:]:
        cells = []
        for j, cell in enumerate(row):
            try:
                columns.setdefault(j, []).append(float(cell))
                cells.append("#")
            except ValueError:
                cells.append(cell)
        skeleton.append(cells)
    header = rows[0] if rows else []
    return (rows[:1], skeleton), [
        (header[j] if j < len(header) else f"column {j}", np.array(columns[j]))
        for j in sorted(columns)
    ]


def _mhdf_numbers(data: bytes):
    """(the magic, N, R, t and whether the CRC matches, [(name, packed ball
    modes)] of each of the six fields), from a version 3 checkpoint."""
    magic, version, n, radius, t = struct.unpack(MHDF_HEADER, data[:MHDF_SIZE])
    if version != 3:
        raise ValueError(f"checkpoint version {version}")
    fields = np.frombuffer(data[MHDF_SIZE:-4], dtype="<c16").reshape(6, -1)
    intact = zlib.crc32(data[:-4]) == int.from_bytes(data[-4:], "little")
    return (magic, n, radius, t, intact), list(zip(FIELDS, fields))


def _numbers(name: str, data: bytes, masked: tuple[str, ...]):
    suffix = Path(name).suffix
    try:
        if suffix == ".json":
            return _json_numbers(data, masked)
        return {".csv": _csv_numbers, ".mhdf": _mhdf_numbers}.get(suffix, _text_numbers)(data)
    except (ValueError, struct.error):  # malformed: compared as text
        return _text_numbers(data)


def deviations(name: str, old: bytes, new: bytes,
               masked: tuple[str, ...] = ()) -> list[tuple[str, float]] | None:
    """[(group, the largest difference of its numbers in ``old`` and ``new``
    relative to its scale)] for each group of numbers that moved, or None
    when anything but finite numbers, or the values of JSON keys in
    ``masked``, differs."""
    (skel_a, groups_a), (skel_b, groups_b) = (_numbers(name, x, masked) for x in (old, new))
    if skel_a != skel_b or [(k, len(g)) for k, g in groups_a] != [(k, len(g)) for k, g in groups_b]:
        return None
    moved = []
    for (key, a), (_, b) in zip(groups_a, groups_b):
        finite = np.isfinite(a)
        if not (np.array_equal(finite, np.isfinite(b))
                and np.array_equal(a[~finite], b[~finite], equal_nan=True)):
            return None
        a, b = a[finite], b[finite]
        scale = float(max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0)))
        if scale and not np.array_equal(a, b):
            moved.append((key, float(np.max(np.abs(a - b))) / scale))
    return moved


def _hashed_inputs_differ(rel: Path, old_dir: Path, new_dir: Path) -> tuple[str, ...]:
    """("config_hash",) when ``rel`` is a restart leg's file and the
    checkpoint it restarts from, which its config hash hashes, differs
    between the sides; else ()."""
    leg = rel.parts[0]
    if not leg.endswith("-restart"):
        return ()
    checkpoint = Path(leg.removesuffix("-restart") + "-run") / "checkpoint.mhdf"
    old, new = old_dir / checkpoint, new_dir / checkpoint
    if old.is_file() and new.is_file() and old.read_bytes() != new.read_bytes():
        return ("config_hash",)
    return ()


def differences(old_dir: Path, new_dir: Path, old_results: dict, new_results: dict,
                rtol: float | None = None) -> tuple[list[str], float]:
    """One line (or diff) per difference between the two sides, and the
    largest relative deviation of numbers found within ``rtol``."""
    found, worst = [], 0.0

    def compare(what: str, name: str, a: bytes, b: bytes, message, masked=()) -> None:
        """Record a difference of ``a`` and ``b``: ``message()``, unless only
        numbers differ; then the largest deviation of the numbers relative
        to their scale and the named groups that moved, followed by
        ``message()`` without ``rtol``, or, within ``rtol``, only the
        deviation kept for the verdict."""
        nonlocal worst
        if a == b:
            return
        moved = deviations(name, a, b, masked)
        if moved is None:
            found.append(message())
            return
        if moved == [] and masked and rtol is None:
            found.append(f"{what}: only {', '.join(masked)} differs, with the checkpoint it hashes")
            return
        dev = max((value for _, value in moved), default=0.0)
        if rtol is not None and dev <= rtol:
            worst = max(worst, dev)
            return
        named = ", ".join(f"{key} ({value:.3g})" for key, value in moved if key)
        line = f"{what}: numbers differ by {dev:.3g} of their scale" + (f", in {named}" if named else "")
        found.append(line if rtol is not None else f"{line}\n{message()}")

    for leg, old in old_results.items():
        new = new_results[leg]
        if old[0] != new[0]:
            found.append(f"{leg}: exit code {old[0]} != {new[0]}")
        for stream, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
            compare(f"{leg}: {stream}", stream, a, b,
                    lambda: f"{leg}: {stream} differs\n{_text_diff(a, b)}")
    old_files = {p.relative_to(old_dir) for p in old_dir.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new_dir) for p in new_dir.rglob("*") if p.is_file()}
    for rel in sorted(old_files | new_files):
        if rel not in new_files:
            found.append(f"{rel}: only in OLD")
        elif rel not in old_files:
            found.append(f"{rel}: only in NEW")
        else:
            a, b = (old_dir / rel).read_bytes(), (new_dir / rel).read_bytes()

            def message():
                at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
                return f"{rel}: differs from byte {at} ({len(a)} and {len(b)} bytes)"

            compare(str(rel), rel.name, a, b, message, _hashed_inputs_differ(rel, old_dir, new_dir))
    return found, worst


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/compare_artifacts.py",
        description="Compare the artifacts two source trees of mhddamp write.",
    )
    parser.add_argument("--rtol", type=float, default=None,
                        help="let numbers differ by RTOL times their scale")
    parser.add_argument("--threads", type=int, default=None,
                        help="run the NEW side's legs with --threads THREADS")
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    if args.rtol is not None and not args.rtol >= 0.0:
        parser.error("--rtol must be a number >= 0")
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be an integer >= 1")
    options = [(), () if args.threads is None else ("--threads", str(args.threads))]
    srcs = [args.old_src.resolve(), args.new_src.resolve()]
    for src in srcs:
        if not (src / "mhddamp" / "__init__.py").is_file():
            print(f"{src}: no mhddamp package", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="compare_artifacts_") as tmp:
        dirs = [Path(tmp) / "old", Path(tmp) / "new"]
        results = []
        for src, workdir, side_options in zip(srcs, dirs, options):
            workdir.mkdir()
            results.append(run_side(src, workdir, side_options))
        found, worst = differences(dirs[0], dirs[1], *results, rtol=args.rtol)
        files = sum(1 for p in dirs[0].rglob("*") if p.is_file())
    for line in found:
        print(line)
    if found:
        verdict = f"{len(found)} differences"
    elif worst:
        verdict = f"within rtol {args.rtol:g} (largest deviation {worst:.3g} of scale)"
    else:
        verdict = "identical"
    print(f"{len(results[0])} legs, {files} files: {verdict}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
