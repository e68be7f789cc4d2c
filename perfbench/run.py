"""mhddamp benchmark: whole CLI trajectories, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (every input is generated from ``--seed``; mhddamp only sees the
generated config, and the generated checkpoint where the workload restarts):

  run-power-n32   ``mhddamp run``, power damping beta = 5 at N = 32, checks
                  l2, h1_additive, h1_exponential, ledger every 25 steps,
                  30 steps.  The production shape: transforms and pointwise
                  products take almost all the time.
  run-log1-n64    ``mhddamp run``, generalized log1 damping at N = 64,
                  restarted from a generated 25 MB checkpoint, ledger every
                  step, 2 steps.  Each 12-field transform batch is 50 MB,
                  beyond L2, so transforms are bound by bytes moved;
                  ledger_row runs every step and set-up includes the
                  checkpoint read.
  twin-log1-n16   ``mhddamp twin``, the twin-small physics: the eps = 0
                  determinism twin plus the eps = 1e-6 twin, 4 x 100 steps
                  at N = 16.  Arrays fit in L2, so per-call overhead
                  dominates; no ledger rows, no checkpoint.

Each repetition runs in a fresh interpreter (``child.py``) with one FFT
worker, BLAS/OpenMP threads at 1, ``MHDDAMP_THREADS`` and ``MHDDAMP_OUT``
cleared and a scratch ``--out`` that is removed afterwards.  Repetitions run
one after another until ``--seconds`` is used up; trajectories are short so
that one run holds several repetitions.

With ``--trace 0`` the result holds the end-to-end metrics:
  steps_per_s  IF-RK4 steps over all trajectories / wall time of cli.main
  setup_s      load_config (grid included) + initial state + cfl_bound
  peak_rss_mb  ru_maxrss of the repetition's process
each the median over the run's untraced repetitions.
Failed repetitions are counted in the result's ``failed`` out of
``attempted``; ``failed_frac`` is printed on the detail lines.

With ``--trace 1`` untraced and traced repetitions alternate and the result
holds the per-layer metrics of the traced ones (see ``PER_LAYER``), plus
``trace.overhead_frac``.  Count metrics must repeat exactly between traced
repetitions; otherwise the benchmark exits 1.

Correctness gate: a repetition fails if its exit code is not 0, if a
requested check is not PASS or NOT-APPLICABLE, if it completed fewer steps
than asked, or if its outputs differ from the stored reference for this seed
(``reference/<workload>/seed-<n>/``) or from the first repetition of the run
by more than the tolerances below.  A seed without a stored reference is
judged by the other conditions alone.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE_DIR = HERE / "reference"
WORK_ROOT = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150.0

# Ledger columns may move by FFT-layout round-off only: 1e-10 of the
# column's largest magnitude (the project's ledger tolerance).  A wrong sign
# or a dropped term moves a column far more, unless the term is itself that
# small in the dynamics (beta = 5 damping in run-power-n32, see README).
LEDGER_RTOL = 1e-10
# The twin separation d is a difference of two nearly equal states (eps =
# 1e-6), so round-off in either state reaches d amplified by ~1e6; 1e-6 of
# the column scale still catches any change to the dynamics.
TWIN_RTOL = 1e-6
# c_bound = max log(d/d0)/t with t >= 0.05: a 1e-6 relative change of d
# moves it by at most ~2e-5.
C_BOUND_ATOL = 1e-4

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

DT = 0.002  # the time step of every shipped config
LOG1 = {"kind": "generalized", "alpha": 1.0, "beta": None, "f_id": "log1"}
POWER5 = {"kind": "power", "alpha": 1.0, "beta": 5.0, "f_id": None}


@dataclass(frozen=True)
class Workload:
    command: str          # mhddamp subcommand: run or twin
    n_modes: int
    damping: dict
    checks: tuple
    steps: int            # IF-RK4 steps per trajectory
    ledger_stride: int
    target_h1: float
    restart: bool = False  # start from a generated checkpoint
    trajectories: int = 1  # trajectories stepped per cli.main call
    why: str = ""


WORKLOADS = {
    "run-power-n32": Workload(
        "run", 32, POWER5, ("l2", "h1_additive", "h1_exponential"), 30, 25, 0.01,
        why="production shape (small-damped-n32 physics); transforms and pointwise products dominate",
    ),
    "run-log1-n64": Workload(
        "run", 64, LOG1, ("l2", "h1_exponential"), 2, 1, 0.1, restart=True,
        why="50 MB transform batches beyond L2; log damping; ledger_row every step; checkpoint read in set-up",
    ),
    "twin-log1-n16": Workload(
        "twin", 16, LOG1, ("l2", "twin"), 100, 25, 0.5, trajectories=4,
        why="twin-small physics: lockstep pairs at N = 16, per-call overhead dominates",
    ),
}
TOY_SIZE = {"n_modes": 8, "run-power-n32": 4, "run-log1-n64": 2, "twin-log1-n16": 10}

# name, unit; each reported as the median over a run's untraced repetitions.
END_TO_END = (("steps_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# name, unit, source kind, key, wrap point that must exist
PER_LAYER = (
    ("fields.ifft_calls", "count", "calls", "fields.ifft", "fields.ifft"),
    ("fields.fft_calls", "count", "calls", "fields.fft", "fields.fft"),
    ("fields.grids_transformed", "count", "grids", None, "fields.ifft"),
    ("fields.ifft_s", "s", "total", "fields.ifft", "fields.ifft"),
    ("fields.fft_s", "s", "total", "fields.fft", "fields.fft"),
    ("fields.bytes_computed", "B", "counter", "fields.bytes", "fields.ifft"),
    ("fields.flops_computed", "flop", "counter", "fields.flops", "fields.ifft"),
    ("fields.flops_per_byte", "flop/B", "ratio", ("fields.flops", "fields.bytes"), "fields.ifft"),
    ("fields.redundant_frac", "frac", "ratio", ("fields.redundant_values", "fields.spectral_values"), "fields.ifft"),
    ("nonlinear.rhs_calls", "count", "calls", "nonlinear.rhs", "nonlinear.rhs"),
    ("nonlinear.rhs_self_s", "s", "self", "nonlinear.rhs", "nonlinear.rhs"),
    ("damping.term_calls", "count", "calls", "damping.term", "damping.term"),
    ("damping.term_s", "s", "total", "damping.term", "damping.term"),
    ("operators.leray_calls", "count", "calls", "operators.leray", "operators.leray"),
    ("operators.leray_s", "s", "total", "operators.leray", "operators.leray"),
    ("operators.truncate_s", "s", "total", "operators.truncate", "operators.truncate"),
    ("integrator.steps", "count", "calls", "integrator.advance", "integrator.advance"),
    ("integrator.advance_self_s", "s", "self", "integrator.advance", "integrator.advance"),
    ("integrator.initial_s", "s", "total", "integrator.initial", "integrator.initial"),
    ("integrator.checkpoint_read_s", "s", "total", "integrator.checkpoint_read", "integrator.checkpoint_read"),
    ("integrator.cfl_s", "s", "total", "integrator.cfl", "integrator.cfl"),
    ("integrator.checkpoint_write_s", "s", "total", "integrator.checkpoint_write", "integrator.checkpoint_write"),
    ("integrator.checkpoint_bytes", "B", "counter", "integrator.checkpoint_bytes", "integrator.checkpoint_write"),
    ("integrator.blowups", "count", "counter", "integrator.blowups", "integrator.run"),
    ("energy.ledger_rows", "count", "calls", "energy.ledger_row", "energy.ledger_row"),
    ("energy.ledger_row_s", "s", "self", "energy.ledger_row", "energy.ledger_row"),
    ("energy.checks_s", "s", "total", "energy.checks", "energy.checks"),
    ("energy.csv_s", "s", "total", "energy.csv", "energy.csv"),
    ("uniqueness.twin_runs", "count", "calls", "uniqueness.twin_run", "uniqueness.twin_run"),
    ("uniqueness.separation_calls", "count", "calls", "uniqueness.separation", "uniqueness.separation"),
    ("uniqueness.separation_s", "s", "total", "uniqueness.separation", "uniqueness.separation"),
    ("grid.build_s", "s", "total", "grid.build", "grid.build"),
)
EXACT_UNITS = ("count", "B", "flop")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, failed input generation)."""


# Inputs ----------------------------------------------------------------------


def experiment_config(name: str, wl: Workload, seed: int, n_modes: int, steps: int, stride: int,
                      checkpoint: str | None = None) -> dict:
    """Config in mhddamp's JSON layout; from_checkpoint when ``checkpoint`` is set."""
    ic = {"kind": "random_divfree", "target_h1": wl.target_h1, "amplitude": 1.0,
          "b_amplitude": 0.5, "mode": [0, 0, 1], "path": None}
    if checkpoint is not None:
        ic.update(kind="from_checkpoint", target_h1=None, path=checkpoint)
    return {
        "name": name,
        "checks": list(wl.checks),
        "output_dir": None,
        "perturbation_scale": 1e-6,
        "report_formats": ["csv", "text", "json"],
        "solver": {
            "cfl_target": 0.5,
            "damping": dict(wl.damping),
            "dt": DT,
            "grid": {"box_length": 2.0 * math.pi, "dealias_fraction": 2.0 / 3.0,
                     "n_modes": n_modes, "truncation_radius": None},
            "initial_condition": ic,
            "ledger_stride": stride,
            "nu_h": 1.0,
            "nu_v": 1.0,
            "seed": seed,
            "t_end": steps * DT,
        },
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MHDDAMP_THREADS", "MHDDAMP_OUT", "PYTHONPATH")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CHILD), *args], env=env, cwd=str(ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
    )


def prepare_inputs(name: str, wl: Workload, seed: int, toy: bool, work: Path, env: dict) -> tuple[Path, int]:
    """Write the workload's config (and checkpoint); return (config, steps per call)."""
    n_modes = TOY_SIZE["n_modes"] if toy else wl.n_modes
    steps = TOY_SIZE[name] if toy else wl.steps
    stride = wl.ledger_stride if not toy else max(1, min(wl.ledger_stride, steps // 2))
    checkpoint = None
    if wl.restart:
        gen = work / "checkpoint-source.json"
        gen.write_text(json.dumps(experiment_config(name + "-source", wl, seed, n_modes, 0, stride)))
        checkpoint = str(work / "restart.mhdf")
        proc = run_child(["checkpoint", str(gen), checkpoint], env, CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"checkpoint generation failed:\n{proc.stderr.strip()}")
    config = work / "config.json"
    config.write_text(json.dumps(experiment_config(name, wl, seed, n_modes, steps, stride, checkpoint), indent=2))
    return config, steps * wl.trajectories


# Outputs and the correctness gate --------------------------------------------


def read_csv_columns(path: Path) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body] for i, name in enumerate(header)}


def collect_outputs(command: str, out: Path) -> dict:
    if command == "run":
        return {"ledger.csv": read_csv_columns(out / "ledger.csv")}
    summary = json.loads((out / "summary.json").read_text())
    return {
        "twin.csv": read_csv_columns(out / "twin.csv"),
        "twin.json": {"identical": summary["identical"], "c_bound": summary["c_bound"]},
    }


def compare_columns(got: dict, ref: dict, rtol: float, label: str) -> list[str]:
    problems = []
    if list(got) != list(ref):
        return [f"{label}: columns {list(got)} != reference {list(ref)}"]
    for name, ref_col in ref.items():
        col = got[name]
        if len(col) != len(ref_col):
            problems.append(f"{label}:{name}: {len(col)} rows != reference {len(ref_col)}")
            continue
        scale = max((abs(v) for v in ref_col), default=0.0)
        for i, (a, b) in enumerate(zip(col, ref_col)):
            if not abs(a - b) <= rtol * scale:
                problems.append(f"{label}:{name}[{i}] = {a!r}, reference {b!r} (tolerance {rtol:g} x {scale:g})")
                break
    return problems


def compare_outputs(got: dict, ref: dict) -> list[str]:
    if set(got) != set(ref):
        return [f"output files {sorted(got)} != reference {sorted(ref)}"]
    problems = []
    if "ledger.csv" in ref:
        problems += compare_columns(got["ledger.csv"], ref["ledger.csv"], LEDGER_RTOL, "ledger.csv")
    if "twin.csv" in ref:
        problems += compare_columns(got["twin.csv"], ref["twin.csv"], TWIN_RTOL, "twin.csv")
        g, r = got["twin.json"], ref["twin.json"]
        if g["identical"] != r["identical"]:
            problems.append(f"twin identical = {g['identical']}, reference {r['identical']}")
        if not abs(g["c_bound"] - r["c_bound"]) <= C_BOUND_ATOL:
            problems.append(f"twin c_bound = {g['c_bound']!r}, reference {r['c_bound']!r}")
    return problems


def check_repetition(wl: Workload, rc: int, out: Path, steps: int) -> tuple[dict | None, list[str]]:
    """Exit code, check status and completed steps; returns (outputs, problems)."""
    if rc != 0:
        return None, [f"exit code {rc}"]
    try:
        outputs = collect_outputs(wl.command, out)
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return None, [f"unreadable outputs: {exc}"]
    problems = []
    if wl.command == "run":
        for check, status in summary.get("checks", {}).items():
            if status not in ("PASS", "NOT-APPLICABLE"):
                problems.append(f"check {check}: {status}")
        if len(summary.get("checks", {})) != len(wl.checks):
            problems.append(f"checks reported {sorted(summary.get('checks', {}))}, asked for {list(wl.checks)}")
        t = outputs["ledger.csv"].get("t", [])
        if not t or abs(t[-1] - t[0] - steps * DT) > 1e-9:
            problems.append(f"ledger ends at t = {t[-1] if t else None}, expected {steps} steps")
    else:
        t = outputs["twin.csv"].get("t", [])
        if not t or abs(t[-1] - t[0] - steps // wl.trajectories * DT) > 1e-9:
            problems.append(f"twin series ends at t = {t[-1] if t else None}")
    return outputs, problems


def write_reference(outputs: dict, dest: Path) -> None:
    dest.mkdir(parents=True, exist_ok=True)
    for fname, data in outputs.items():
        if fname.endswith(".csv"):
            with open(dest / fname, "w", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(list(data))
                for row in zip(*data.values()):
                    w.writerow([format(v, ".17g") for v in row])
        else:
            (dest / fname).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_reference(src: Path) -> dict | None:
    if not src.is_dir():
        return None
    ref = {}
    for path in sorted(src.iterdir()):
        if path.suffix == ".csv":
            ref[path.name] = read_csv_columns(path)
        elif path.suffix == ".json":
            ref[path.name] = json.loads(path.read_text())
    return ref or None


# Machine facts -----------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _size_bytes(text: str) -> int:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    text = text.strip()
    if text and text[-1] in units:
        return int(float(text[:-1]) * units[text[-1]])
    return int(text) if text.isdigit() else 0


def machine_facts(env: dict) -> dict:
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    if base.is_dir():
        for idx in sorted(base.glob("index*")):
            level, kind = _read(str(idx / "level")), _read(str(idx / "type"))
            if kind != "Instruction":
                caches[f"L{level}"] = _size_bytes(_read(str(idx / "size")))
    head = _read(str(ROOT / ".git" / "HEAD"))
    commit = head
    if head.startswith("ref: "):
        commit = _read(str(ROOT / ".git" / head[5:])) or "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or "unknown",
        "l2_bytes": caches.get("L2"),
        "l3_bytes": caches.get("L3"),
        "git_commit": commit or "unknown",
        "child_env": {var: env.get(var) for var in (*THREAD_VARS, "MHDDAMP_THREADS", "MHDDAMP_OUT")},
    }


def working_set(n_modes: int, llc: int | None) -> dict:
    """The largest array a step touches: the 12-field complex transform batch."""
    batch = 12 * n_modes**3 * 16
    facts = {"largest_array_bytes": batch, "llc_bytes": llc}
    if llc:
        facts["largest_array_over_llc"] = batch / llc
        facts["fields_figures"] = (
            "computed (arrays < 4 x LLC, not roofline ratios)" if batch < 4 * llc else "computed"
        )
    return facts


# Repetitions ---------------------------------------------------------------------


@dataclass
class Repetition:
    traced: bool
    ok: bool
    problems: list
    result: dict | None
    wall_s: float = 0.0


def run_repetition(wl: Workload, config: Path, steps: int, traced: bool, work: Path, index: int,
                   env: dict, reference: dict | None, first: dict | None, timeout: float) -> tuple[Repetition, dict | None]:
    out = work / f"out-{index}"
    spec_path = work / f"spec-{index}.json"
    result_path = work / f"result-{index}.json"
    spec = {
        "argv": [wl.command, "--config", str(config), "--out", str(out), "--threads", "1"],
        "config": str(config),
        "trace": traced,
        "result": str(result_path),
    }
    spec_path.write_text(json.dumps(spec))
    try:
        proc = run_child(["rep", str(spec_path)], env, timeout)
    except subprocess.TimeoutExpired:
        shutil.rmtree(out, ignore_errors=True)
        return Repetition(traced, False, [f"timed out after {timeout:.0f} s"], None), None
    result = json.loads(result_path.read_text()) if proc.returncode == 0 and result_path.exists() else None
    if result is None:
        shutil.rmtree(out, ignore_errors=True)
        tail = proc.stderr.strip().splitlines()[-3:]
        return Repetition(traced, False, [f"child exited {proc.returncode}: {' | '.join(tail)}"], None), None
    outputs, problems = check_repetition(wl, result["rc"], out, steps)
    shutil.rmtree(out, ignore_errors=True)
    if outputs is not None:
        if reference is not None:
            problems += ["reference: " + p for p in compare_outputs(outputs, reference)]
        if first is not None:
            problems += ["repeat: " + p for p in compare_outputs(outputs, first)]
    return Repetition(traced, not problems, problems, result), outputs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end_samples(reps: list[Repetition], steps: int) -> dict[str, list[float]]:
    """Per-repetition end-to-end values; failed repetitions only when none passed."""
    good = [r.result for r in reps if r.ok and not r.traced] or [r.result for r in reps if r.result and not r.traced]
    return {
        "steps_per_s": [steps / r["main_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }


def layer_value(result: dict, kind: str, key) -> float:
    spans, counters = result["spans"], result["counters"]
    if kind in ("calls", "total", "self"):
        entry = spans.get(key, {})
        return entry.get({"calls": "calls", "total": "total_s", "self": "self_s"}[kind], 0)
    if kind == "grids":
        return counters.get("fields.ifft.grids", 0) + counters.get("fields.fft.grids", 0)
    if kind == "counter":
        return counters.get(key, 0)
    num, den = counters.get(key[0], 0), counters.get(key[1], 0)
    return num / den if den else 0.0


def per_layer_metrics(reps: list[Repetition]) -> tuple[dict, list[str]]:
    """Median per-layer metrics of the traced repetitions; counts must repeat exactly."""
    traced = [r.result for r in reps if r.traced and r.result]
    untraced = [r.result for r in reps if not r.traced and r.result]
    metrics, mismatches = {}, []
    for name, unit, kind, key, point in PER_LAYER:
        if not all(t["found"].get(point, False) for t in traced):
            metrics[name] = {"value": None, "unit": unit}
            continue
        values = [layer_value(t, kind, key) for t in traced]
        if unit in EXACT_UNITS:
            if len(set(values)) != 1:
                mismatches.append(f"{name}: {values}")
            metrics[name] = {"value": values[0], "unit": unit}
        else:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    overhead = min(t["main_s"] for t in traced) / min(u["main_s"] for u in untraced) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    return metrics, mismatches


# Main loop ----------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description="mhddamp end-to-end and per-layer benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="N = 8 and a few steps (self-test size)")
    p.add_argument("--reference-dir", type=Path, default=None,
                   help="root of the stored reference outputs (default: perfbench/reference, none with --toy)")
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's outputs as the seed's reference instead of comparing")
    return p.parse_args(argv)


def check_sources() -> None:
    if not (ROOT / "src" / "mhddamp" / "cli.py").is_file():
        raise BenchError(f"mhddamp sources not found under {ROOT / 'src'}")


def bench(args) -> int:
    check_sources()
    name, wl = args.workload, WORKLOADS[args.workload]
    env = child_env()
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    try:
        config, steps = prepare_inputs(name, wl, args.seed, args.toy, work, env)
        ref_root = args.reference_dir or (None if args.toy else REFERENCE_DIR)
        if ref_root is None and args.write_reference:
            raise BenchError("--write-reference with --toy needs --reference-dir")
        ref_dir = ref_root / name / f"seed-{args.seed}" if ref_root else None
        reference = load_reference(ref_dir) if ref_dir and not args.write_reference else None

        reps: list[Repetition] = []
        first = None
        budget_start = time.perf_counter()
        min_reps = 4 if args.trace else 1
        while True:
            elapsed = time.perf_counter() - budget_start
            est = max((r.wall_s for r in reps), default=0.0)
            if len(reps) >= min_reps and elapsed + est > args.seconds:
                break
            traced = bool(args.trace) and len(reps) % 2 == 1
            timeout = max(10.0, min(CHILD_TIMEOUT_S, 175.0 - (time.perf_counter() - started)))
            t0 = time.perf_counter()
            rep, outputs = run_repetition(wl, config, steps, traced, work, len(reps), env, reference, first, timeout)
            rep.wall_s = time.perf_counter() - t0
            reps.append(rep)
            if first is None and outputs is not None:
                first = outputs
            if args.write_reference:
                if not rep.ok:
                    raise BenchError("reference run failed: " + "; ".join(rep.problems))
                write_reference(outputs, ref_dir)
                print(f"wrote reference {ref_dir}")
                return 0
            if time.perf_counter() - started > 160.0:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    failed = sum(not r.ok for r in reps)
    machine = machine_facts(env)
    env_facts = next((r.result["env"] for r in reps if r.result), {})
    n_modes = TOY_SIZE["n_modes"] if args.toy else wl.n_modes
    details = {
        "workload": name, "why": wl.why, "seed": args.seed, "steps_per_call": steps,
        "reference": "compared" if reference is not None else "none stored for this seed",
        "repetitions": len(reps), "failed_frac": failed / len(reps),
        "machine": {**machine, **env_facts}, "working_set": working_set(n_modes, machine["l3_bytes"]),
    }
    for i, r in enumerate(reps):
        if not r.ok:
            print(f"repetition {i} FAILED: " + "; ".join(r.problems), file=sys.stderr)

    if args.trace:
        if not any(r.result for r in reps if r.traced) or not any(r.result for r in reps if not r.traced):
            print("no traced or no untraced repetition produced timings", file=sys.stderr)
            return 1
        metrics, mismatches = per_layer_metrics(reps)
        details["absent"] = [k for k, v in metrics.items() if v["value"] is None]
    else:
        samples = end_to_end_samples(reps, steps)
        if not samples["steps_per_s"]:
            print("no repetition produced timings", file=sys.stderr)
            return 1
        metrics, mismatches, details["samples"] = {}, [], {}
        for metric, unit in END_TO_END:
            q1, med, q3 = quartiles(samples[metric])
            metrics[metric] = {"value": med, "unit": unit}
            details["samples"][metric] = {"n": len(samples[metric]), "q1": q1, "median": med, "q3": q3,
                                          "values": samples[metric]}
    print(json.dumps({"details": details}))
    width = max(len(k) for k in metrics)
    for metric, m in metrics.items():
        print(f"{metric:<{width}}  {m['value'] if m['value'] is not None else 'absent'}  {m['unit']}")
    print(f"{'failed_frac':<{width}}  {failed / len(reps)}  ({failed} of {len(reps)} repetitions)")
    print(json.dumps({"correct": failed == 0 and not mismatches, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    if mismatches:
        print("count metrics differ between traced repetitions of the same code:\n  "
              + "\n  ".join(mismatches), file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
