"""
Command-line entry points tying the solver and verification harness into
reproducible experiments.

Subcommands: run, lemmas, twin, info.  Exit codes: 0 on success (all
requested checks PASS or NOT-APPLICABLE), 1 on usage or configuration
errors, 2 when a check fails, 3 when a run blows up.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy.fft

from . import __version__
from .damping import DampingSpec, F_CATALOG
from .energy import check_H1_inequalities, check_L2_inequality
from .grid import GridSpec, _is_int, _is_number
from .integrator import (
    BlowUpError,
    InitialCondition,
    SolverConfig,
    config_hash,
    run,
    save_checkpoint,
)
from .lemmas import (
    CheckReport,
    check_interpolation_bound,
    modifier_envelope_report,
    monotonicity_suite,
)
from .operators import sobolev_norm
from .uniqueness import TwinRunResult, twin_run

KNOWN_CHECKS = ("l2", "h1_additive", "h1_exponential", "lemmas", "twin")
KNOWN_REPORT_FORMATS = ("csv", "text", "json")

DEFAULT_MATRIX = {
    "alphas": [0.1, 1.0, 10.0],
    "betas": [3.5, 4.0, 5.0, 7.0],
    "f_ids": sorted(F_CATALOG),
    "x_max": 100.0,
    "x_points": 10_000,
    "pairs": 100_000,
    "seed": 0,
}


class ConfigError(ValueError):
    """Configuration file error with field context."""


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    solver: SolverConfig
    output_dir: str | None = None
    checks: tuple[str, ...] = ("l2",)
    perturbation_scale: float = 1e-6
    report_formats: tuple[str, ...] = KNOWN_REPORT_FORMATS

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name):
            raise ConfigError(f"name: experiment name must be a nonempty string, got {self.name!r}")
        for key, noun, known in (
            ("checks", "check", KNOWN_CHECKS),
            ("report_formats", "report format", KNOWN_REPORT_FORMATS),
        ):
            names = getattr(self, key)
            if not isinstance(names, (list, tuple)):
                raise ConfigError(f"{key}: expected a list of names, got {names!r}")
            for name in names:
                if name not in known:
                    raise ConfigError(f"{key}: unknown {noun} {name!r} (known: {known})")
            object.__setattr__(self, key, tuple(names))
        if not (self.output_dir is None or isinstance(self.output_dir, str)):
            raise ConfigError(f"output_dir: expected a string or null, got {self.output_dir!r}")
        eps = self.perturbation_scale
        if not (_is_number(eps) and eps >= 0):
            raise ConfigError(f"perturbation_scale: must be finite and >= 0, got {eps!r}")


# Configuration (de)serialization -------------------------------------------


def _section(payload: dict, builder, context: str):
    try:
        return builder(**payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _object(data: dict, key: str, context: str, default=None) -> dict:
    value = data.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: section missing or not an object")
    return value


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    solver_data = _object(data, "solver", "solver")
    grid_data = _object(solver_data, "grid", "solver.grid")
    grid_data = {k: v for k, v in grid_data.items() if v is not None}
    grid = _section(grid_data, GridSpec, "solver.grid")
    damping_data = _object(solver_data, "damping", "solver.damping", {"kind": "none"})
    damping = _section(damping_data, DampingSpec, "solver.damping")
    ic_data = _object(solver_data, "initial_condition", "solver.initial_condition")
    ic = _section(ic_data, InitialCondition, "solver.initial_condition")
    solver = _section(
        {**solver_data, "grid": grid, "damping": damping, "initial_condition": ic},
        SolverConfig,
        "solver",
    )
    top = {k: v for k, v in data.items() if k != "solver"}
    return _section({**top, "solver": solver}, ExperimentConfig, "top level")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    data = dataclasses.asdict(cfg)
    data["checks"] = list(cfg.checks)
    data["report_formats"] = list(cfg.report_formats)
    data["solver"]["initial_condition"]["mode"] = list(cfg.solver.initial_condition.mode)
    return data


def load_config(path) -> ExperimentConfig:
    def finite(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ConfigError(f"{path}: number {text} is not finite")
        return value

    try:
        with open(path) as fh:
            data = json.load(fh, parse_float=finite, parse_constant=finite)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


# Output helpers -------------------------------------------------------------


def _resolve_out_dir(cli_out: str | None, cfg_out: str | None, name: str) -> str:
    out = cli_out or os.environ.get("MHDDAMP_OUT") or cfg_out or f"{name}_out"
    os.makedirs(out, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise ConfigError(f"output directory {out!r} is not writable")
    return out


def _write_checks(path, reports: list[CheckReport]) -> None:
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(rep.summary_line() + "\n")


def _final_state_summary(state) -> dict:
    return {
        "t": state.t,
        "u_l2": sobolev_norm(state.u, 0.0),
        "b_l2": sobolev_norm(state.b, 0.0),
        "max_divergence": state.max_divergence(),
    }


# Subcommands ----------------------------------------------------------------


def _apply_common_overrides(args, cfg: ExperimentConfig) -> ExperimentConfig:
    if args.seed is not None:
        solver = dataclasses.replace(cfg.solver, seed=args.seed)
        cfg = dataclasses.replace(cfg, solver=solver)
    return cfg


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    cfg = _apply_common_overrides(args, cfg)
    out = _resolve_out_dir(args.out, cfg.output_dir, cfg.name)

    formats = set(cfg.report_formats)
    summary = {
        "name": cfg.name,
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg.solver),
    }
    try:
        state, ledger = run(cfg.solver)
    except BlowUpError as exc:
        if exc.ledger is not None and "csv" in formats:
            exc.ledger.to_csv(os.path.join(out, "ledger.csv"))
        summary["blow_up_time"] = exc.time
        if "json" in formats:
            with open(os.path.join(out, "summary.json"), "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
                fh.write("\n")
        print(f"blow-up at t = {exc.time:.6g}", file=sys.stderr)
        return 3

    if "csv" in formats:
        ledger.to_csv(os.path.join(out, "ledger.csv"))
    save_checkpoint(os.path.join(out, "checkpoint.mhdf"), state)

    reports: list[CheckReport] = []
    h1_reports = None
    for check in cfg.checks:
        if check == "l2":
            reports.append(check_L2_inequality(ledger))
        elif check in ("h1_additive", "h1_exponential"):
            if h1_reports is None:
                h1_reports = {rep.name: rep for rep in check_H1_inequalities(ledger)}
            reports.append(h1_reports[check])
        elif check == "lemmas":
            reports.extend(_lemma_reports_for_run(cfg.solver.damping))
        elif check == "twin":
            reports.append(_twin_report(cfg))
    if "text" in formats:
        _write_checks(os.path.join(out, "checks.txt"), reports)

    summary["final_state"] = _final_state_summary(state)
    summary["checks"] = {rep.name: rep.status for rep in reports}
    if "json" in formats:
        with open(os.path.join(out, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")

    for rep in reports:
        print(rep.summary_line())
    return 0 if all(rep.acceptable for rep in reports) else 2


def _lemma_reports_for_run(damping: DampingSpec) -> list[CheckReport]:
    """Lemma-suite checks scoped to the run's damping parameters."""
    if damping.kind == "power":
        x = np.linspace(0.0, 100.0, 10_000)
        return [check_interpolation_bound(damping.alpha, float(damping.beta), x)]
    if damping.kind == "generalized":
        return [monotonicity_suite(damping.function, n_pairs=20_000, seed=0)]
    return [CheckReport("lemma_suite", "NOT-APPLICABLE", detail="no damping active")]


def _twin_pair(solver: SolverConfig, eps: float) -> TwinRunResult | None:
    """The eps twin, run once the eps = 0 twin has shown determinism.

    Returns None when the eps = 0 trajectories differ, and the eps = 0 twin
    itself when it blew up.
    """
    zero = twin_run(solver, 0.0)
    if zero.blown_up:
        return zero
    if not zero.identical:
        return None
    return twin_run(solver, eps)


def _twin_report(cfg: ExperimentConfig) -> CheckReport:
    result = _twin_pair(cfg.solver, cfg.perturbation_scale)
    if result is None:
        return CheckReport("twin", "FAIL", detail="eps = 0 twin trajectories differ")
    ok = result.bound_satisfied() and not result.blown_up
    return CheckReport(
        "twin",
        "PASS" if ok else "FAIL",
        worst_margin=result.c_hat,
        detail=f"c_hat={result.c_hat:.6g} c_bound={result.c_bound:.6g}",
    )


def _load_lemma_matrix(path) -> dict:
    """DEFAULT_MATRIX updated from the JSON object in ``path``.

    Every entry is checked: nonempty lists of finite numbers in alphas and
    betas and of catalog names in f_ids, a finite x_max, integer x_points
    and pairs >= 1 and an integer seed >= 0.  ConfigError otherwise.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = sorted(set(data) - set(DEFAULT_MATRIX))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    matrix = {**DEFAULT_MATRIX, **data}
    for key in ("alphas", "betas", "f_ids"):
        if not isinstance(matrix[key], list) or not matrix[key]:
            raise ConfigError(f"{path}: {key} must be a nonempty list")
    for key in ("alphas", "betas"):
        if not all(_is_number(v) for v in matrix[key]):
            raise ConfigError(f"{path}: {key} must hold finite numbers, got {matrix[key]}")
    for f_id in matrix["f_ids"]:
        if not isinstance(f_id, str) or f_id not in F_CATALOG:
            raise ConfigError(f"{path}: unknown f_id {f_id!r}")
    if not _is_number(matrix["x_max"]):
        raise ConfigError(f"{path}: x_max must be a finite number, got {matrix['x_max']!r}")
    for key, minimum in (("x_points", 1), ("pairs", 1), ("seed", 0)):
        if not (_is_int(matrix[key]) and matrix[key] >= minimum):
            raise ConfigError(f"{path}: {key} must be an integer >= {minimum}, got {matrix[key]!r}")
    return matrix


def cmd_lemmas(args) -> int:
    matrix = _load_lemma_matrix(args.matrix) if args.matrix else dict(DEFAULT_MATRIX)
    alphas = matrix["alphas"]
    betas = matrix["betas"]
    f_ids = matrix["f_ids"]

    out = _resolve_out_dir(args.out, None, "lemmas")
    lemma_dir = os.path.join(out, "lemmas")
    os.makedirs(lemma_dir, exist_ok=True)
    x = np.linspace(0.0, float(matrix["x_max"]), int(matrix["x_points"]))

    all_ok = True
    with open(os.path.join(lemma_dir, "interpolation.csv"), "w") as fh:
        fh.write("alpha,beta,status,worst_margin,x_at_worst,margin_at_x_star,c\n")
        for alpha in alphas:
            for beta in betas:
                rep = check_interpolation_bound(float(alpha), float(beta), x)
                all_ok = all_ok and rep.acceptable
                if rep.status == "NOT-APPLICABLE":
                    fh.write(f"{alpha},{beta},NOT-APPLICABLE,,,,\n")
                else:
                    fh.write(
                        f"{alpha},{beta},{rep.status},{rep.worst_margin:.17g},"
                        f"{rep.extra['x_at_worst']:.17g},"
                        f"{rep.extra['margin_at_x_star']:.17g},{rep.extra['c']:.17g}\n"
                    )

    with open(os.path.join(lemma_dir, "monotonicity.csv"), "w") as fh:
        fh.write("f_id,status,worst_margin,samples\n")
        for f_id in f_ids:
            rep = monotonicity_suite(f_id, n_pairs=int(matrix["pairs"]), seed=int(matrix["seed"]))
            all_ok = all_ok and rep.passed
            fh.write(f"{f_id},{rep.status},{rep.worst_margin:.17g},{rep.samples}\n")

    z = np.logspace(0.0, 6.0, 2_000)
    with open(os.path.join(lemma_dir, "envelope.csv"), "w") as fh:
        fh.write("f_id,beta,a_star,a_argmin,b_star,b_argmax,f_at_zero,lower_bound_degenerate\n")
        for f_id in f_ids:
            for beta in betas:
                rep = modifier_envelope_report(f_id, float(beta), z)
                fh.write(
                    f"{f_id},{beta},{rep.a_star:.17g},{rep.a_argmin:.17g},"
                    f"{rep.b_star:.17g},{rep.b_argmax:.17g},{rep.f_at_zero:.17g},"
                    f"{rep.lower_bound_degenerate}\n"
                )

    print("lemma suites:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 2


def cmd_twin(args) -> int:
    cfg = load_config(args.config)
    cfg = _apply_common_overrides(args, cfg)
    if args.eps is not None:
        cfg = dataclasses.replace(cfg, perturbation_scale=args.eps)
    eps = cfg.perturbation_scale
    out = _resolve_out_dir(args.out, cfg.output_dir, cfg.name)

    result = _twin_pair(cfg.solver, eps)
    if result is None:
        print("determinism check failed: eps = 0 trajectories differ", file=sys.stderr)
        return 2
    result.to_csv(os.path.join(out, "twin.csv"))
    result.to_json(os.path.join(out, "summary.json"))
    if result.blown_up:
        print(f"twin run blew up (eps = {result.eps:g})", file=sys.stderr)
        return 3
    ok = result.bound_satisfied()
    print(
        f"twin eps={eps:g}: d0={result.d0:.6e} c_hat={result.c_hat:.6g} "
        f"c_bound={result.c_bound:.6g} bound={'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 2


def cmd_info(args) -> int:
    print(f"mhddamp {__version__}")
    print("damping modifier catalog:")
    for f_id, fn in sorted(F_CATALOG.items()):
        print(f"  {f_id}: f(0) = {fn.f_at_zero:g}")
    print("default lemma matrix:", json.dumps(DEFAULT_MATRIX))
    print("config template:")
    template = ExperimentConfig(
        name="example",
        solver=SolverConfig(
            grid=GridSpec(n_modes=32),
            dt=2e-3,
            t_end=1.0,
            initial_condition=InitialCondition(kind="random_divfree", target_h1=0.01),
            damping=DampingSpec(kind="power", alpha=1.0, beta=4.0),
        ),
        checks=("l2", "h1_additive", "h1_exponential"),
    )
    print(json.dumps(config_to_dict(template), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhddamp",
        description="Damped-MHD pseudo-spectral solver and estimate verification harness",
    )
    parser.add_argument("--version", action="version", version=f"mhddamp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output directory (overrides config and MHDDAMP_OUT)")
        p.add_argument("--threads", type=int, default=0, help="FFT worker cap")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_run = sub.add_parser("run", help="integrate and check the energy estimates")
    p_run.add_argument("--config", required=True)
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_lem = sub.add_parser("lemmas", help="run the scalar/vector lemma verifiers")
    p_lem.add_argument("--matrix", help="JSON file with alphas/betas/f_ids")
    common(p_lem)
    p_lem.set_defaults(func=cmd_lemmas)

    p_twin = sub.add_parser("twin", help="two nearby trajectories, separation growth")
    p_twin.add_argument("--config", required=True)
    p_twin.add_argument("--eps", type=float, default=None, help="perturbation scale")
    common(p_twin)
    p_twin.set_defaults(func=cmd_twin)

    p_info = sub.add_parser("info", help="print version, catalog and config template")
    p_info.set_defaults(func=cmd_info)
    return parser


def _fft_workers(args) -> int:
    """FFT worker cap of one command: --threads, else MHDDAMP_THREADS, else 1."""
    if not hasattr(args, "threads"):
        return 1
    workers = args.threads or int(os.environ.get("MHDDAMP_THREADS", "0") or 0) or 1
    if workers < 1:
        raise ConfigError(f"FFT worker count must be >= 1, got {workers}")
    return workers


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with scipy.fft.set_workers(_fft_workers(args)):
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
