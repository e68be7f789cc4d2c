"""
Command-line entry points tying the solver and verification harness into
reproducible experiments.

Subcommands: run, lemmas, twin, info.  Exit codes: 0 on success (all
requested checks PASS or NOT-APPLICABLE), 1 on usage or configuration
errors, 2 when a check fails, 3 when a run blows up.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, fields
from .damping import DampingSpec, F_CATALOG
from .energy import check_H1_inequalities, check_L2_inequality
from .grid import ConfigError, GridSpec, Leaf, check_fields, check_leaf, check_memory, leaf
from .integrator import (
    BlowUpError,
    InitialCondition,
    SolverConfig,
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
from .uniqueness import PERTURBATION_SCALE, twin_run

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
MATRIX_FIELDS = {
    "alphas": Leaf("reals", gt=0, nonempty=True),
    "betas": Leaf("reals", nonempty=True),
    "f_ids": Leaf("names", choices=tuple(sorted(F_CATALOG)), nonempty=True),
    "x_max": Leaf("real", ge=0),
    "x_points": Leaf("int", ge=1),
    "pairs": Leaf("int", ge=1),
    "seed": Leaf("int", ge=0),
}
# Peak bytes per x point of check_interpolation_bound and per pair of
# monotonicity_suite: 3 and 16 float64 arrays of that length (tracemalloc).
MATRIX_BYTES = {"x_points": 3 * 8, "pairs": 16 * 8}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = leaf("str", nonempty=True)
    solver: SolverConfig
    output_dir: str | None = leaf("str", default=None)
    checks: tuple[str, ...] = leaf("names", choices=KNOWN_CHECKS, default=("l2",))
    perturbation_scale: float = dataclasses.field(default=1e-6,
                                                  metadata={"leaf": PERTURBATION_SCALE})
    report_formats: tuple[str, ...] = leaf("names", choices=KNOWN_REPORT_FORMATS,
                                           default=KNOWN_REPORT_FORMATS)

    def __post_init__(self) -> None:
        check_fields(self)
        object.__setattr__(self, "checks", tuple(self.checks))
        object.__setattr__(self, "report_formats", tuple(self.report_formats))


# Configuration (de)serialization -------------------------------------------

# The nested sections of a config: field name -> the dataclass built from it.
SECTIONS = {"solver": SolverConfig, "grid": GridSpec, "damping": DampingSpec,
            "initial_condition": InitialCondition}


def _build(cls, data, path: str = ""):
    """``cls`` built from the JSON object ``data`` at ``path`` (dotted), each
    of its SECTIONS from a nested object, which may be left out where the
    field has a default; ConfigError prefixed by the path otherwise."""
    context = path or "top level"
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: " + ("section missing or not an object" if path
                                            else "expected a JSON object"))
    # a copy; a null grid entry stands for its default
    data = {k: v for k, v in data.items() if v is not None or cls is not GridSpec}
    for field in dataclasses.fields(cls):
        if field.name in SECTIONS and (field.name in data or field.default is dataclasses.MISSING):
            sub = f"{path}.{field.name}" if path else field.name
            data[field.name] = _build(SECTIONS[field.name], data.get(field.name), sub)
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dataclasses.asdict(cfg)


def _read_json(path):
    """The JSON value in the file ``path``; ConfigError naming the file if
    it cannot be read or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_json(path))


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_config(cfg: ExperimentConfig, path) -> None:
    _write_json(path, config_to_dict(cfg))


# Output helpers -------------------------------------------------------------


def _resolve_out_dir(cli_out: str | None, cfg_out: str | None, name: str) -> str:
    """The output directory, checked but not made: an existing path must be
    a writable directory, else its nearest existing ancestor must be one.
    :func:`_out_file` makes it at the first write, so a command that fails
    before writing leaves no directory behind."""
    out = cli_out or os.environ.get("MHDDAMP_OUT") or cfg_out or f"{name}_out"
    existing = os.path.abspath(out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not (os.path.isdir(existing) and os.access(existing, os.W_OK | os.X_OK)):
        raise ConfigError(f"output directory {out!r} is not writable")
    return out


def _out_file(out: str, name: str) -> str:
    """Path of ``name`` in the output directory ``out``, made if missing."""
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _write_checks(path, reports: list[CheckReport]) -> None:
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(rep.summary_line() + "\n")


def _final_state_summary(state) -> dict:
    return {
        "t": state.t,
        "u_l2": sobolev_norm(state.u, state.grid, 0.0),
        "b_l2": sobolev_norm(state.b, state.grid, 0.0),
        "max_divergence": state.max_divergence(),
    }


# Subcommands ----------------------------------------------------------------


def _load_config(args) -> ExperimentConfig:
    """The config of ``--config``, with ``--seed`` and ``--eps`` applied."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, solver=dataclasses.replace(cfg.solver, seed=args.seed))
    if getattr(args, "eps", None) is not None:
        cfg = dataclasses.replace(cfg, perturbation_scale=args.eps)
    return cfg


def cmd_run(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out_dir(args.out, cfg.output_dir, cfg.name)

    formats = set(cfg.report_formats)
    summary = {"name": cfg.name, "config": config_to_dict(cfg)}
    try:
        state, ledger = run(cfg.solver)
    except BlowUpError as exc:
        # run() hashes the config once (a restart hashes its checkpoint
        # file); the ledger carries that hash
        summary["config_hash"] = exc.ledger.config_hash
        if "csv" in formats:
            exc.ledger.to_csv(_out_file(out, "ledger.csv"))
        summary["blow_up_time"] = exc.time
        if "json" in formats:
            _write_json(_out_file(out, "summary.json"), summary)
        print(f"blow-up at t = {exc.time:.6g}", file=sys.stderr)
        return 3

    if "csv" in formats:
        ledger.to_csv(_out_file(out, "ledger.csv"))
    save_checkpoint(_out_file(out, "checkpoint.mhdf"), state)

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
        _write_checks(_out_file(out, "checks.txt"), reports)

    summary["config_hash"] = ledger.config_hash
    summary["final_state"] = _final_state_summary(state)
    summary["checks"] = {rep.name: rep.status for rep in reports}
    if "json" in formats:
        _write_json(_out_file(out, "summary.json"), summary)

    for rep in reports:
        print(rep.summary_line())
    return 0 if all(rep.acceptable for rep in reports) else 2


def _lemma_reports_for_run(damping: DampingSpec) -> list[CheckReport]:
    """Lemma-suite checks scoped to the run's damping parameters."""
    if damping.kind == "power":
        x = np.linspace(0.0, DEFAULT_MATRIX["x_max"], DEFAULT_MATRIX["x_points"])
        return [check_interpolation_bound(damping.alpha, float(damping.beta), x)]
    if damping.kind == "generalized":
        return [monotonicity_suite(damping.f_id, n_pairs=20_000, seed=0)]
    return [CheckReport("lemma_suite", "NOT-APPLICABLE", detail="no damping active")]


def _twin_report(cfg: ExperimentConfig) -> CheckReport:
    result = twin_run(cfg.solver, cfg.perturbation_scale)
    if not (result.blown_up or result.reproducible):
        return CheckReport("twin", "FAIL", detail="eps = 0 twin trajectories differ")
    ok = result.bound_satisfied() and not result.blown_up
    return CheckReport(
        "twin",
        "PASS" if ok else "FAIL",
        worst_margin=result.c_hat,
        detail=f"c_hat={result.c_hat:.6g} c_bound={result.c_bound:.6g}",
    )


def _load_lemma_matrix(path) -> dict:
    """DEFAULT_MATRIX updated from the JSON object in ``path``, its entries
    checked against MATRIX_FIELDS and its x_points and pairs against the
    physical memory; ValueError otherwise, before any output is written."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    unknown = sorted(set(data) - set(DEFAULT_MATRIX))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    matrix = {**DEFAULT_MATRIX, **data}
    check_fields(matrix, MATRIX_FIELDS, str(path))
    for key, size in MATRIX_BYTES.items():
        check_memory(size * matrix[key], f"{path}: {key} = {matrix[key]}")
    return matrix


def cmd_lemmas(args) -> int:
    matrix = _load_lemma_matrix(args.matrix) if args.matrix else dict(DEFAULT_MATRIX)

    out = _resolve_out_dir(args.out, None, "lemmas")
    lemma_dir = os.path.join(out, "lemmas")
    os.makedirs(lemma_dir, exist_ok=True)
    x = np.linspace(0.0, float(matrix["x_max"]), int(matrix["x_points"]))

    all_ok = True
    with open(os.path.join(lemma_dir, "interpolation.csv"), "w") as fh:
        fh.write("alpha,beta,status,worst_margin,x_at_worst,margin_at_x_star,c\n")
        for alpha in matrix["alphas"]:
            for beta in matrix["betas"]:
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
        for f_id in matrix["f_ids"]:
            rep = monotonicity_suite(f_id, n_pairs=int(matrix["pairs"]), seed=int(matrix["seed"]))
            all_ok = all_ok and rep.passed
            fh.write(f"{f_id},{rep.status},{rep.worst_margin:.17g},{rep.samples}\n")

    z = np.logspace(0.0, 6.0, 2_000)
    with open(os.path.join(lemma_dir, "envelope.csv"), "w") as fh:
        fh.write("f_id,beta,a_star,a_argmin,b_star,b_argmax,f_at_zero,lower_bound_degenerate\n")
        for f_id in matrix["f_ids"]:
            for beta in matrix["betas"]:
                rep = modifier_envelope_report(f_id, float(beta), z)
                fh.write(
                    f"{f_id},{beta},{rep.a_star:.17g},{rep.a_argmin:.17g},"
                    f"{rep.b_star:.17g},{rep.b_argmax:.17g},{rep.f_at_zero:.17g},"
                    f"{rep.lower_bound_degenerate}\n"
                )

    print("lemma suites:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 2


def cmd_twin(args) -> int:
    cfg = _load_config(args)
    eps = cfg.perturbation_scale
    out = _resolve_out_dir(args.out, cfg.output_dir, cfg.name)

    result = twin_run(cfg.solver, eps)
    if not (result.blown_up or result.reproducible):
        print("determinism check failed: eps = 0 trajectories differ", file=sys.stderr)
        return 2
    result.to_csv(_out_file(out, "twin.csv"))
    _write_json(_out_file(out, "summary.json"), result.summary())
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


class _Parser(argparse.ArgumentParser):
    """A usage error raises ConfigError, which ``main`` reports in one line
    with exit code 1, instead of printing the usage and exiting 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_lem.add_argument("--out", help="output directory (overrides MHDDAMP_OUT)")
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
    """FFT worker cap: --threads, else MHDDAMP_THREADS, else 1 (lemmas and
    info run no transform); at most the CPUs this process may run on."""
    source, workers = "--threads", getattr(args, "threads", 1)
    if not workers:
        source, workers = "MHDDAMP_THREADS", os.environ.get("MHDDAMP_THREADS") or "0"
        with contextlib.suppress(ValueError):  # the walker names a non-integer
            workers = int(workers) or 1
    cpus = len(os.sched_getaffinity(0))
    check_leaf(workers, Leaf("int", ge=1, le=cpus), "FFT worker count", source)
    return workers


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with fields.workers(_fft_workers(args)):
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
