"""CLI subcommands: exit codes, artifact outputs and reproducibility."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mhddamp import DampingSpec, InitialCondition, SolverConfig
from mhddamp.integrator import config_hash
from mhddamp.cli import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    main,
    save_config,
)

from _helpers import malformed_checkpoint, write_checkpoint

ROOT = Path(__file__).parent.parent
QUICKSTART = ROOT / "configs" / "quickstart.json"


def experiment(grid, name="exp", damping=DampingSpec(kind="power", alpha=1.0, beta=4.0),
               target=0.01, t_end=0.1, dt=1e-2, checks=("l2", "h1_additive", "h1_exponential"),
               seed=5, **kw):
    return ExperimentConfig(
        name=name,
        solver=SolverConfig(
            grid=grid, dt=dt, t_end=t_end, seed=seed,
            initial_condition=InitialCondition(kind="random_divfree", target_h1=target),
            damping=damping, ledger_stride=2,
        ),
        checks=tuple(checks),
        **kw,
    )


class TestConfigIO:
    def test_round_trip(self, grid16, tmp_path):
        cfg = experiment(grid16, perturbation_scale=1e-7)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_dict_round_trip_through_json(self, grid16):
        cfg = experiment(grid16)
        rebuilt = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert rebuilt == cfg

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x",\n  "solver": }')
        with pytest.raises(ConfigError, match=r":2:"):
            load_config(path)

    def test_field_error_carries_context(self, grid16):
        data = config_to_dict(experiment(grid16))
        data["solver"]["damping"]["beta"] = 0.5
        with pytest.raises(ConfigError, match="damping"):
            config_from_dict(data)

    def test_empty_name_rejected(self, grid16):
        with pytest.raises(ConfigError, match="name"):
            experiment(grid16, name="")

    @pytest.mark.parametrize(
        "field,literal,message",
        [("nu_h", "NaN", "solver: nu_h must be a finite number > 0, got nan"),
         ("alpha", "NaN", "solver.damping: alpha must be a finite number, got nan"),
         ("nu_h", "Infinity", "solver: nu_h must be a finite number > 0, got inf"),
         ("dt", "-Infinity", "solver: dt must be a finite number > 0, got -inf"),
         ("alpha", "1e400", "solver.damping: alpha must be a finite number, got inf")],
        ids=["nu_h-NaN", "alpha-NaN", "nu_h-Infinity", "dt--Infinity", "alpha-1e400"],
    )
    def test_non_finite_number_rejected(self, grid16, tmp_path, capsys, field, literal, message):
        data = config_to_dict(experiment(grid16))
        section = data["solver"]["damping"] if field == "alpha" else data["solver"]
        section[field] = "PLACEHOLDER"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data).replace('"PLACEHOLDER"', literal))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("field", ["ledger_stride", "seed"])
    def test_fractional_integer_field_exit_one(self, grid16, tmp_path, capsys, field):
        data = config_to_dict(experiment(grid16))
        data["solver"][field] = 2.5
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip()
        assert f"{field} must be an integer" in err and "\n" not in err

    @pytest.mark.parametrize(
        "name,digest",
        [("log-damped-n32", "0a834f6cd60bad764ead1e3b91eea22ecf77382419cc9fb8b2a4c31aeeb82ddf"),
         ("quickstart", "fde0cb1484b54dea173ce65a39ddc33797f99522b2366f6b0124a09dc6540384"),
         ("small-damped-n32", "3abb00da5142323beae07f6651b66456b918ecc404d36246f00bcdf506a061bf"),
         ("twin-small", "ffa3519c2362cb7fffb9df3bd986871eaa2a873cb2df2e9e2cd7ebb37ab6a27c")],
    )
    def test_shipped_config_hash_is_stable(self, name, digest):
        # field names, their order and their defaults are hashed
        assert config_hash(load_config(ROOT / "configs" / f"{name}.json").solver) == digest

    def test_working_set_within_physical_memory_accepted(self, grid16):
        data = config_to_dict(experiment(grid16))
        data["solver"]["grid"]["n_modes"] = 64
        assert config_from_dict(data).solver.grid.n_modes == 64

    def test_unknown_check_rejected(self, grid16):
        message = ("checks must be a list, each one of ('l2', 'h1_additive', 'h1_exponential', "
                   "'lemmas', 'twin'), got ('l2', 'wat')")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            experiment(grid16, checks=("l2", "wat"))

    @pytest.mark.parametrize(
        "path,value,match",
        [
            (("checks",), 5, "top level: checks must be a list, each one of ('l2', 'h1_additive', "
                             "'h1_exponential', 'lemmas', 'twin'), got 5"),
            (("solver",), 5, "solver: section missing or not an object"),
            (("solver", "damping"), None, "solver.damping: section missing or not an object"),
            (("solver", "damping"), 5, "solver.damping: section missing or not an object"),
            (("output_dir",), 5, "top level: output_dir must be a string or null, got 5"),
            (("report_formats",), "csv", "top level: report_formats must be a list, each one of "
                                         "('csv', 'text', 'json'), got 'csv'"),
            (("report_formats",), ["xml"], "top level: report_formats must be a list, each one of "
                                           "('csv', 'text', 'json'), got ['xml']"),
            (("solver", "grid", "n_modes"), 16.0,
             "solver.grid: n_modes must be an even integer >= 8 and <= 1048576, got 16.0"),
            (("solver", "dt"), True, "solver: dt must be a finite number > 0, got True"),
            (("solver", "nu_h"), True, "solver: nu_h must be a finite number > 0, got True"),
            (("solver", "damping", "alpha"), True,
             "solver.damping: alpha must be a finite number, got True"),
            (("solver", "initial_condition", "target_h1"), True,
             "solver.initial_condition: target_h1 must be a finite number or null, got True"),
            (("perturbation_scale",), True, "top level: perturbation_scale must be a finite number "
                                            ">= 0 and <= 9.480751908109176e+153, got True"),
            (("name",), 5, "top level: name must be a nonempty string, got 5"),
            (("solver", "grid", "dealias_fraction"), True,
             "solver.grid: dealias_fraction must be a finite number > 0 and <= 1, got True"),
            (("solver", "grid", "truncation_radius"), "5",
             "solver.grid: truncation_radius must be a finite number > 0 or null, got '5'"),
            (("solver", "grid", "n_modes"), 1_000_000, "of physical memory"),
            (("solver", "grid", "n_modes"), 4096, "of physical memory"),
            (("solver", "grid"), {"n_modes": 4096, "truncation_radius": 1.5},
             "of physical memory"),
            (("solver",), {"dt": 1e-300, "t_end": 1e300}, "not a finite number of steps"),
            (("solver",), {"dt": 5e-324, "t_end": 1.0}, "not a finite number of steps"),
            (("solver", "cfl_target"), -1.0,
             "solver: cfl_target must be a finite number > 0, got -1.0"),
            (("solver", "cfl_target"), 0.0, "solver: cfl_target must be a finite number > 0, got 0.0"),
        ],
        ids=["checks-int", "solver-int", "damping-null", "damping-int", "output-dir-int",
             "formats-string", "formats-unknown", "n-modes-float", "dt-bool", "nu-h-bool",
             "alpha-bool", "target-bool", "eps-bool", "name-int", "dealias-bool",
             "radius-string", "n-modes-1e6", "n-modes-4096", "n-modes-4096-r1.5",
             "steps-1e600", "dt-subnormal",
             "cfl-negative", "cfl-zero"],
    )
    def test_malformed_shape_exit_one(self, grid16, tmp_path, monkeypatch, capsys,
                                      path, value, match):
        data = config_to_dict(experiment(grid16, t_end=0.0, checks=("l2",)))
        section = data
        for key in path[:-1]:
            section = section[key]
        if isinstance(value, dict):  # several fields of one section
            section[path[-1]].update(value)
        else:
            section[path[-1]] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        monkeypatch.delenv("MHDDAMP_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err.strip()
        assert match in err and "\n" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


class TestCmdRun:
    def test_t_end_zero_single_row_exit_zero(self, grid16, tmp_path):
        cfg = experiment(grid16, t_end=0.0, checks=("l2",))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "ledger.csv").read_text().strip().split("\n")
        assert len(rows) == 2  # header + one row

    def test_no_checks_write_empty_checks_txt(self, grid16, tmp_path, capsys):
        cfg = experiment(grid16, t_end=0.02, checks=())
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "checks.txt").read_text() == ""
        assert capsys.readouterr().out == ""

    def test_artifacts_and_exit_zero(self, grid16, tmp_path):
        cfg = experiment(grid16, t_end=0.25, dt=5e-3, target=0.01)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        for artifact in ("ledger.csv", "checks.txt", "summary.json", "checkpoint.mhdf"):
            assert (out / artifact).exists(), artifact
        checks = (out / "checks.txt").read_text()
        assert "PASS l2_energy" in checks
        assert "PASS h1_additive" in checks
        assert "PASS h1_exponential" in checks
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checks"]["l2_energy"] == "PASS"
        assert summary["final_state"]["max_divergence"] <= 1e-10

    def test_repeat_runs_byte_identical(self, grid16, tmp_path):
        cfg = experiment(grid16, t_end=0.1)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "ledger.csv").read_bytes()
        b = (tmp_path / "b" / "ledger.csv").read_bytes()
        assert a == b

    def test_summary_config_hash_is_stable(self, grid16, tmp_path):
        # the value the hash has had since summary.json carried it
        path = tmp_path / "cfg.json"
        save_config(experiment(grid16, t_end=0.1), path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config_hash"] == (
            "2857aff8f9388acbb36eb221663584d86e8b583cdbcd4df1fcee33d918428d7e"
        )

    def test_restart_hashes_config_once(self, grid16, tmp_path, monkeypatch):
        # a restart's hash reads and hashes the whole checkpoint file
        from mhddamp import cli, integrator

        first = tmp_path / "first.json"
        save_config(experiment(grid16, t_end=0.02), first)
        assert main(["run", "--config", str(first), "--out", str(tmp_path / "a")]) == 0
        restart = experiment(grid16, t_end=0.04)
        ic = InitialCondition(kind="from_checkpoint", path=str(tmp_path / "a" / "checkpoint.mhdf"))
        restart = dataclasses.replace(
            restart, solver=dataclasses.replace(restart.solver, initial_condition=ic)
        )
        path = tmp_path / "restart.json"
        save_config(restart, path)

        calls = []
        original = integrator.config_hash

        def spy(config):
            calls.append(config)
            return original(config)

        for module in (cli, integrator):
            if hasattr(module, "config_hash"):
                monkeypatch.setattr(module, "config_hash", spy)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
        assert len(calls) == 1
        summary = json.loads((tmp_path / "b" / "summary.json").read_text())
        assert summary["config_hash"] == original(restart.solver)

    def test_blow_up_exit_three(self, grid16, tmp_path):
        cfg = experiment(grid16, t_end=2.0, dt=0.1, target=1e3, damping=DampingSpec(), seed=1)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["blow_up_time"] > 0
        assert summary["config_hash"] == config_hash(cfg.solver)
        assert (out / "ledger.csv").exists()  # partial ledger written

    def test_missing_config_exit_one(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    def test_seed_override_changes_ledger(self, grid16, tmp_path):
        cfg = experiment(grid16, t_end=0.05)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        main(["run", "--config", str(path), "--out", str(tmp_path / "a")])
        main(["run", "--config", str(path), "--out", str(tmp_path / "b"), "--seed", "99"])
        a = (tmp_path / "a" / "ledger.csv").read_bytes()
        b = (tmp_path / "b" / "ledger.csv").read_bytes()
        assert a != b

    def test_env_output_dir(self, grid16, tmp_path, monkeypatch):
        cfg = experiment(grid16, t_end=0.0, checks=("l2",))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("MHDDAMP_OUT", str(env_dir))
        assert main(["run", "--config", str(path)]) == 0
        assert (env_dir / "ledger.csv").exists()

    def test_lemma_and_twin_checks_in_run(self, grid16, tmp_path):
        cfg = experiment(grid16, t_end=0.05, target=0.5,
                         checks=("l2", "lemmas", "twin"))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        checks = (out / "checks.txt").read_text()
        assert "lemma_interpolation" in checks
        assert "PASS twin" in checks

    def test_report_format_flags(self, grid16, tmp_path):
        cfg = experiment(grid16, t_end=0.02, checks=("l2",),
                         report_formats=("csv",))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "ledger.csv").exists()
        assert not (out / "checks.txt").exists()
        assert not (out / "summary.json").exists()

    def test_threads_flag(self, grid16, tmp_path, monkeypatch):
        import mhddamp.fields as fields

        seen = []
        kernel = fields._pocketfft

        def spy(original):
            def wrapped(*args):
                seen.append(args[-1])  # nthreads, the last argument of each call
                return original(*args)
            return wrapped

        # the kernel calls of the ball-pruned passes the stepper runs
        monkeypatch.setattr(fields, "_pocketfft", SimpleNamespace(
            **{name: spy(getattr(kernel, name)) for name in ("c2c", "r2c", "c2r")}))
        cfg = experiment(grid16, t_end=0.02, checks=("l2",))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert main(["run", "--config", str(path), "--threads", "2",
                     "--out", str(tmp_path / "out")]) == 0
        assert seen and set(seen) == {2}
        assert fields._FFT_WORKERS == 1  # scoped to the main() call

    @pytest.mark.parametrize("flag,env", [("-1", None), (None, "-2")])
    def test_negative_threads_exit_one(self, grid16, tmp_path, monkeypatch, capsys, flag, env):
        cfg = experiment(grid16, t_end=0.02, checks=("l2",))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        if flag is not None:
            argv += ["--threads", flag]
        if env is not None:
            monkeypatch.setenv("MHDDAMP_THREADS", env)
        assert main(argv) == 1
        assert "worker count" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [10**20, len(os.sched_getaffinity(0)) + 1])
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_threads_above_cpu_count_exit_one(self, grid16, tmp_path, monkeypatch, capsys,
                                               workers, via):
        import mhddamp.fields as fields

        def no_workers(count):
            raise AssertionError(f"fields.workers({count}) called")

        monkeypatch.setattr(fields, "workers", no_workers)
        cfg = experiment(grid16, t_end=0.02, checks=("l2",))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        if via == "flag":
            argv += ["--threads", str(workers)]
        else:
            monkeypatch.setenv("MHDDAMP_THREADS", str(workers))
        assert main(argv) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err and "worker count" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "alpha,beta,applicable",
        [(0.5, 3 + 1e-9, False), (1e-10, 3.01, False), (1e-300, 5.0, True)],
        ids=["beta-3+1e-9", "alpha-1e-10", "alpha-1e-300"],
    )
    def test_sharp_constant_out_of_double_range(self, tmp_path, capsys, alpha, beta,
                                                applicable):
        # c_(alpha,beta) overflows, or only exp(2 c t) does
        data = json.loads(QUICKSTART.read_text())
        data["solver"]["grid"] = {"n_modes": 8}
        data["solver"]["t_end"] = data["solver"]["dt"]
        data["solver"]["damping"].update(alpha=alpha, beta=beta)
        data["checks"] = ["l2", "h1_additive", "h1_exponential", "lemmas"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        checks = (out / "checks.txt").read_text()
        statuses = json.loads((out / "summary.json").read_text())["checks"]
        assert statuses["lemma_interpolation"] == "NOT-APPLICABLE"
        for name in ("h1_additive", "h1_exponential"):
            assert (statuses[name] == "PASS") == applicable
            if not applicable:
                assert f"NOT-APPLICABLE {name}: interpolation constant out of double range" in checks

    @pytest.mark.parametrize("case", ["five_bytes", "huge_n", "trailing_bytes"])
    def test_malformed_checkpoint_exit_one(self, grid8, tmp_path, capsys, case):
        from mhddamp import make_initial, save_checkpoint

        ckpt = tmp_path / "state.mhdf"
        save_checkpoint(ckpt, make_initial("single_mode", grid8))
        ckpt.write_bytes(malformed_checkpoint(ckpt.read_bytes(), case))
        cfg = ExperimentConfig(
            name="restart",
            solver=SolverConfig(
                grid=grid8, dt=1e-2, t_end=0.02,
                initial_condition=InitialCondition(kind="from_checkpoint", path=str(ckpt)),
            ),
        )
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err

    @pytest.mark.parametrize("command", ["run", "twin"])
    def test_restart_step_count_out_of_range_exit_one(self, grid8, tmp_path, capsys, command):
        # (t_end - t0) / dt = 5e310 overflows to inf
        from mhddamp import make_initial, save_checkpoint

        state = make_initial("single_mode", grid8)
        state.t = -1e308
        ckpt = tmp_path / "state.mhdf"
        save_checkpoint(ckpt, state)
        cfg = ExperimentConfig(
            name="restart",
            solver=SolverConfig(
                grid=grid8, dt=2e-3, t_end=0.0,
                initial_condition=InitialCondition(kind="from_checkpoint", path=str(ckpt)),
            ),
        )
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err
        assert "not a finite number of steps" in err

    @pytest.mark.parametrize(
        "field,value,code,stderr",
        [(("initial_condition", "target_h1"), 1e200, 3,
          ["dt = 0.002 exceeds the advective stability bound", "blow-up at t = 0.002"]),
         (("nu_h",), 1e308, 0, [])],
        ids=["target-h1-1e200", "nu-h-1e308"],
    )
    def test_overflow_prints_no_numpy_warning(self, tmp_path, field, value, code, stderr):
        # run as its own process, so that numpy's warnings and the log reach
        # stderr as they do for a user
        data = json.loads(QUICKSTART.read_text())
        data["solver"]["grid"] = {"n_modes": 8}
        data["solver"]["t_end"] = 10 * data["solver"]["dt"]
        section = data["solver"]
        for key in field[:-1]:
            section = section[key]
        section[field[-1]] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "mhddamp.cli", "run", "--config", str(path),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code
        lines = proc.stderr.splitlines()
        assert len(lines) == len(stderr)
        assert all(line.startswith(want) for line, want in zip(lines, stderr)), lines

    @pytest.mark.parametrize("command", ["twin", "run"])
    def test_tiny_dt_twin_rates(self, tmp_path, command):
        # elapsed times near 1e-300 square to subnormals; the rate fit must
        # not, and neither the twin command nor a run's twin check may fail
        data = json.loads(QUICKSTART.read_text())
        data["solver"].update(grid={"n_modes": 8}, dt=1e-300, t_end=2e-300)
        data["checks"] = ["twin"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "mhddamp.cli", command, "--config", str(path),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert "PASS" in proc.stdout


class TestCmdLemmas:
    def test_default_matrix_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["lemmas", "--out", str(out)]) == 0
        lemma_dir = out / "lemmas"
        for name in ("interpolation.csv", "monotonicity.csv", "envelope.csv"):
            assert (lemma_dir / name).exists()
        text = (lemma_dir / "interpolation.csv").read_text()
        assert "PASS" in text and "FAIL" not in text

    def test_threads_variable_not_read(self, tmp_path, monkeypatch):
        # lemmas runs no transform, so no FFT worker count is read
        monkeypatch.setenv("MHDDAMP_THREADS", "abc")
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps({"alphas": [1.0], "betas": [4.0], "pairs": 100}))
        assert main(["lemmas", "--matrix", str(matrix), "--out", str(tmp_path / "out")]) == 0

    def test_beta_three_cells_not_applicable(self, tmp_path):
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps({"betas": [3.0, 4.0], "pairs": 1000}))
        out = tmp_path / "out"
        assert main(["lemmas", "--matrix", str(matrix), "--out", str(out)]) == 0
        text = (out / "lemmas" / "interpolation.csv").read_text()
        assert "NOT-APPLICABLE" in text

    @pytest.mark.parametrize(
        "matrix,cells",
        [({"betas": [3.000001]}, {"0.1,3.000001"}),
         ({"alphas": [1e-200], "betas": [3.5, 4.0, 5.0]}, {"1e-200,3.5", "1e-200,4.0", "1e-200,5.0"})],
        ids=["beta-3.000001", "alpha-1e-200"],
    )
    def test_sharp_constant_out_of_double_range(self, tmp_path, capsys, matrix, cells):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**matrix, "pairs": 1000}))
        out = tmp_path / "out"
        assert main(["lemmas", "--matrix", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "lemmas" / "interpolation.csv").read_text().splitlines()[1:]
        not_applicable = {row.rsplit(",", 5)[0] for row in rows if "NOT-APPLICABLE" in row}
        assert not_applicable == cells

    # Each exited 2 with FAIL rows, or 0, with numpy overflow warnings on stderr
    # before a grid margin out of double range was NOT-APPLICABLE.
    @pytest.mark.parametrize(
        "matrix,cells",
        [({"betas": [1e300]}, {"0.1,1e+300", "1.0,1e+300", "10.0,1e+300"}),
         ({"alphas": [1e300]}, {"1e+300,7.0"}),
         ({"x_max": 1e300}, {f"{a},{b}" for a in (0.1, 1.0, 10.0) for b in (3.5, 4.0, 5.0, 7.0)}),
         # every grid margin is finite at x_max < 1, but x* = 1 - 6.9e-298 rounds to 1
         ({"betas": [1e300, 1e12], "x_max": 0.5}, {"0.1,1e+300", "1.0,1e+300", "10.0,1e+300"})],
        ids=["betas-1e300", "alphas-1e300", "x-max-1e300", "betas-1e300-x-max-0.5"],
    )
    def test_margin_out_of_double_range(self, tmp_path, capsys, matrix, cells):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**matrix, "pairs": 1000}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["lemmas", "--matrix", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "lemmas" / "interpolation.csv").read_text().splitlines()[1:]
        assert "FAIL" not in "".join(rows)
        not_applicable = {row.rsplit(",", 5)[0] for row in rows if "NOT-APPLICABLE" in row}
        assert not_applicable == cells

    def test_huge_sharp_constant_passes(self, tmp_path, capsys):
        # c = 1.9e99 is in double range; its margin at x* is held relative to c
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"alphas": [1e-200], "betas": [7.0]}))
        out = tmp_path / "out"
        assert main(["lemmas", "--matrix", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = (out / "lemmas" / "interpolation.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:3] for row in rows] == [["1e-200", "7.0", "PASS"]]

    def test_empty_matrix_usage_error(self, tmp_path):
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps({"alphas": []}))
        assert main(["lemmas", "--matrix", str(matrix)]) == 1

    def test_unknown_f_usage_error(self, tmp_path):
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps({"f_ids": ["nope"]}))
        assert main(["lemmas", "--matrix", str(matrix)]) == 1

    ALPHAS = "alphas must be a nonempty list, each a finite number > 0, "

    # (file text, case, error text after the path); the case names the test
    @pytest.mark.parametrize("text,message", [pytest.param(text, message, id=f"{text}-{case}") for (
        text, case, message) in [
        ("[1, 2]", "expected a JSON object", "expected a JSON object"),
        ('{"alphas": [NaN]}', "alphas must hold finite numbers", ALPHAS + "got [nan]"),
        ('{"betas": [4.0, true]}', "betas must hold finite numbers",
         "betas must be a nonempty list, each a finite number, got [4.0, True]"),
        ('{"alphas": 1.0}', "alphas must be a nonempty list", ALPHAS + "got 1.0"),
        ('{"f_ids": [["log1"]]}', "unknown f_id",
         "f_ids must be a nonempty list, each one of ('log1', 'log2', 'log3'), got [['log1']]"),
        ('{"x_max": Infinity}', "x_max must be a finite number",
         "x_max must be a finite number >= 0, got inf"),
        ('{"x_points": 5.5}', "x_points must be an integer",
         "x_points must be an integer >= 1, got 5.5"),
        ('{"pairs": 0}', "pairs must be an integer >= 1", "pairs must be an integer >= 1, got 0"),
        ('{"seed": true}', "seed must be an integer", "seed must be an integer >= 0, got True"),
        ('{"alpha": [1.0]}', "unknown keys", "unknown keys ['alpha']"),
        ('{"x_points": 1000000000000}', "x_points = 1000000000000 needs about",
         "x_points = 1000000000000 needs about"),
        ('{"pairs": 1000000000000}', "pairs = 1000000000000 needs about",
         "pairs = 1000000000000 needs about"),
        ('{"alphas": [-1.0]}', "alphas must be positive", ALPHAS + "got [-1.0]"),
        ('{"alphas": [0.0]}', "alphas must be positive", ALPHAS + "got [0.0]"),
        ('{"x_max": -5.0}', "x_max must be a finite number >= 0",
         "x_max must be a finite number >= 0, got -5.0"),
    ]])
    def test_malformed_matrix_exit_one(self, tmp_path, capsys, text, message):
        matrix = tmp_path / "m.json"
        matrix.write_text(text)
        out = tmp_path / "out"
        assert main(["lemmas", "--matrix", str(matrix), "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and err.startswith(f"error: {matrix}: {message}")
        assert "needs about" in message or err == f"error: {matrix}: {message}"
        assert not out.exists()


class TestCmdTwin:
    def test_zero_eps_exit_zero(self, grid16, tmp_path):
        cfg = experiment(grid16, t_end=0.05, damping=DampingSpec(), target=0.5)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        out = tmp_path / "out"
        assert main(["twin", "--config", str(path), "--eps", "0", "--out", str(out)]) == 0
        assert (out / "twin.csv").exists()
        assert (out / "summary.json").exists()

    def test_small_eps_exit_zero(self, grid16, tmp_path):
        cfg = experiment(grid16, t_end=0.1, damping=DampingSpec(), target=0.5)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        out = tmp_path / "out"
        assert main(["twin", "--config", str(path), "--eps", "1e-6", "--out", str(out)]) == 0
        rows = (out / "twin.csv").read_text().strip().split("\n")
        header, first = rows[0], rows[1].split(",")
        assert header == "t,d,bound"
        assert float(first[1]) > 0.0

    def test_non_finite_eps_exit_one(self, grid16, tmp_path, capsys):
        cfg = experiment(grid16, t_end=0.02, damping=DampingSpec(), target=0.5,
                         checks=("l2", "twin"))
        path, file_path = tmp_path / "cfg.json", tmp_path / "huge.json"
        save_config(cfg, path)
        # the config's own scale, for run's twin check; 1e300 is a valid
        # JSON number that save_config cannot write
        text = path.read_text().replace('"perturbation_scale": 1e-06', '"perturbation_scale": 1e300')
        assert "1e300" in text
        file_path.write_text(text)
        for command, config, eps, where, got in (
            ("twin", path, ["--eps", "nan"], "", "nan"),
            ("twin", path, ["--eps", "1e300"], "", "1e+300"),  # d0 <= 2 eps^2 would overflow
            ("run", file_path, [], "top level: ", "1e+300"),
            ("twin", file_path, [], "top level: ", "1e+300"),
        ):
            out = tmp_path / "out"
            assert main([command, "--config", str(config), *eps, "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: {where}perturbation_scale must be a finite number >= 0 and <= "
                f"9.480751908109176e+153, got {got}\n")
            assert not out.exists()

    def test_blow_up_exit_three(self, grid16, tmp_path, capsys):
        cfg = experiment(grid16, t_end=2.0, dt=0.1, target=1e3, damping=DampingSpec(), seed=1)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        out = tmp_path / "out"
        assert main(["twin", "--config", str(path), "--eps", "1e-6", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "twin run blew up (eps = 1e-06)\n"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["blown_up"] is True
        # the requested twin, its separations up to the first blow-up
        assert summary["eps"] == 1e-6 and summary["d0"] > 0.0

    def test_nondeterministic_step_fails(self, grid16, tmp_path, capsys, monkeypatch):
        # a step whose output depends on how many steps ran before it: the
        # replay differs from the reference
        from mhddamp import integrator
        from mhddamp.cli import _twin_report

        advance, calls = integrator._StepWork.advance, []

        def drifting(self, w, want_diag=True):
            w_new, increments = advance(self, w, want_diag)
            calls.append(None)
            w_new[0, 1] += len(calls) * 1e-9
            return w_new, increments

        monkeypatch.setattr(integrator._StepWork, "advance", drifting)
        cfg = experiment(grid16, t_end=0.05, damping=DampingSpec(), target=0.5, checks=("twin",))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        out = tmp_path / "out"
        assert main(["twin", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "determinism check failed: eps = 0 trajectories differ\n"
        assert not (out / "twin.csv").exists() and not (out / "summary.json").exists()

        rep = _twin_report(cfg)
        assert (rep.status, rep.detail) == ("FAIL", "eps = 0 twin trajectories differ")
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        line = ("FAIL twin worst_margin=nan at t=nan (tolerance 0.000e+00): "
                "eps = 0 twin trajectories differ\n")
        assert (out / "checks.txt").read_text() == line
        assert capsys.readouterr().out == line
        assert json.loads((out / "summary.json").read_text())["checks"] == {"twin": "FAIL"}

    def test_mismatched_grid_usage_error(self, grid8, grid16, tmp_path):
        from mhddamp import make_initial, save_checkpoint

        ckpt = tmp_path / "small.mhdf"
        save_checkpoint(ckpt, make_initial("single_mode", grid8))
        cfg = ExperimentConfig(
            name="mm",
            solver=SolverConfig(
                grid=grid16, dt=1e-2, t_end=0.1,
                initial_condition=InitialCondition(kind="from_checkpoint", path=str(ckpt)),
            ),
        )
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert main(["twin", "--config", str(path), "--eps", "1e-6",
                     "--out", str(tmp_path / "out")]) == 1


class TestCmdInfo:
    def test_info_prints_catalog(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "log1" in out and "log2" in out and "log3" in out
        assert "config template" in out

    def test_info_stdout_is_stable(self, capsys):
        # the template is built from the dataclasses and their defaults
        assert main(["info"]) == 0
        assert capsys.readouterr().out == (ROOT / "tests" / "golden" / "info.txt").read_text()


# Exit 1: one stderr line and no output directory ------------------------------


def quickstart_n8(tmp_path, **solver) -> Path:
    """configs/quickstart.json at N = 8 and two steps, with the ``solver``
    entries replaced; returns the path of the written config."""
    data = json.loads(QUICKSTART.read_text())
    data["solver"].update({"grid": {"n_modes": 8}, "t_end": 2 * data["solver"]["dt"], **solver})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return path


def restart_from(tmp_path, t=0.0, radius=None) -> dict:
    """An initial_condition entry restarting from a new N = 8 checkpoint."""
    from mhddamp import GridSpec, make_initial, save_checkpoint

    state = make_initial("single_mode", GridSpec(n_modes=8, truncation_radius=radius))
    state.t = t
    save_checkpoint(tmp_path / "state.mhdf", state)
    return {"kind": "from_checkpoint", "path": str(tmp_path / "state.mhdf")}


def restart_at(path) -> dict:
    """Solver entries restarting from ``path``."""
    return {"initial_condition": {"kind": "from_checkpoint", "path": path}}


# Errors raised while the initial state is built, after the output directory
# is resolved, or while the initial condition is read: solver entries per case.
INITIAL_STATE_ERRORS = {
    "checkpoint-grid-differs": lambda tmp: {"initial_condition": restart_from(tmp, radius=2.0)},
    "checkpoint-missing": lambda tmp: restart_at(str(tmp / "none.mhdf")),
    "t-end-before-checkpoint": lambda tmp: {"initial_condition": restart_from(tmp, t=1.0)},
    "random-divfree-radius-1": lambda tmp: {"grid": {"n_modes": 8, "truncation_radius": 1.0}},
    "single-mode-zero": lambda tmp: {
        "initial_condition": {"kind": "single_mode", "mode": [0, 0, 0]}},
    # a component outside (-N/2, N/2] aliases to another wavenumber
    "single-mode-aliases": lambda tmp: {
        "initial_condition": {"kind": "single_mode", "mode": [7, 0, 1]}},
    "single-mode-huge": lambda tmp: {
        "initial_condition": {"kind": "single_mode", "mode": [10**30, 0, 1]}},
    "single-mode-aliases-n16": lambda tmp: {
        "grid": {"n_modes": 16}, "initial_condition": {"kind": "single_mode", "mode": [15, 0, 1]}},
    "taylor-green-overflows": lambda tmp: {
        "initial_condition": {"kind": "taylor_green_like", "amplitude": 1e200,
                              "b_amplitude": 1e200}},
    # not a path: open() took true and 7 as file descriptors
    "checkpoint-path-list": lambda tmp: restart_at([1]),
    "checkpoint-path-object": lambda tmp: restart_at({"a": 1}),
    "checkpoint-path-true": lambda tmp: restart_at(True),
    "checkpoint-path-int": lambda tmp: restart_at(7),
}


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("command", ["run", "twin"])
@pytest.mark.parametrize("case", sorted(INITIAL_STATE_ERRORS))
def test_initial_state_error_leaves_no_output_dir(tmp_path, capsys, command, case):
    path = quickstart_n8(tmp_path, **INITIAL_STATE_ERRORS[case](tmp_path))
    out = tmp_path / "new" / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    one_error_line(capsys)
    assert not (tmp_path / "new").exists()


def faulty_checkpoint(tmp_path, case) -> Path:
    """An N = 8 checkpoint of a single-mode velocity, b = 0, whose last
    array, b3, is changed in the named way; returns its path."""
    from mhddamp import GridSpec, make_initial

    grid = GridSpec(n_modes=8)
    coeffs = make_initial("single_mode", grid).coeffs
    b3 = coeffs[5]
    if case in ("small-field-defect", "defect-above-tolerance"):
        # b3 gets one mode, k = (1, 0, 0), and not its mirror k = (-1, 0, 0):
        # a defect as large as b3 itself, and 1e-14 or 1e-6 of the state
        share = 1e-14 if case == "small-field-defect" else 1e-6
        b3[grid.position((1, 0, 0))] = share * np.max(np.abs(coeffs))
    elif case == "nan":
        b3[grid.position((1, 0, 0))] = np.nan
    path = tmp_path / "state.mhdf"
    write_checkpoint(path, grid, coeffs, 0.0)
    if case == "truncated":
        path.write_bytes(path.read_bytes()[:-16])
    return path


# Each fault in the last array is named as in the first; a defect is
# measured against the largest |c| of all six arrays.
CHECKPOINT_FAULTS = {
    "nan": "{path}: state has non-finite coefficients",
    "truncated": "{path}: payload of 4880 bytes does not hold six arrays of the modes "
                 "|k| < 2.66667",
    "small-field-defect": None,
    "defect-above-tolerance": "{path}: state is not a real field (Hermitian defect 1.000e-06 > "
                              "1e-12)",
}


@pytest.mark.parametrize("case", sorted(CHECKPOINT_FAULTS))
def test_checkpoint_fault_in_last_array(tmp_path, capsys, case):
    ckpt = faulty_checkpoint(tmp_path, case)
    path = quickstart_n8(tmp_path, initial_condition={"kind": "from_checkpoint",
                                                      "path": str(ckpt)})
    message = CHECKPOINT_FAULTS[case]
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    if message is None:
        assert code == 0
    else:
        assert code == 1
        assert one_error_line(capsys) == "error: " + message.format(path=ckpt) + "\n"


@pytest.mark.parametrize("command", ["run", "twin"])
def test_exit_one_keeps_existing_output_dir(tmp_path, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("kept\n")
    path = quickstart_n8(tmp_path, **INITIAL_STATE_ERRORS["checkpoint-missing"](tmp_path))
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    one_error_line(capsys)
    assert os.listdir(out) == ["keep.txt"] and (out / "keep.txt").read_text() == "kept\n"


@pytest.mark.parametrize("out", ["file", "file/out"])
@pytest.mark.parametrize("command", ["run", "twin"])
def test_output_path_under_a_file_exit_one(tmp_path, capsys, command, out):
    (tmp_path / "file").write_text("kept\n")
    path = quickstart_n8(tmp_path)
    assert main([command, "--config", str(path), "--out", str(tmp_path / out)]) == 1
    assert "is not writable" in one_error_line(capsys)
    assert (tmp_path / "file").read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv,env,message",
    [(["run", "--config", "CFG", "--out", "OUT", "--threads", "abc"], None,
      "--threads: invalid int value"),
     (["twin", "--config", "CFG", "--out", "OUT", "--eps", "zz"], None,
      "--eps: invalid float value"),
     (["run", "--config", "CFG", "--out", "OUT", "--bogus"], None,
      "unrecognized arguments: --bogus"),
     (["run", "--out", "OUT"], None, "required: --config"),
     ([], None, "required: command"),
     (["walk", "--out", "OUT"], None, "invalid choice: 'walk'"),
     (["run", "--config", "CFG", "--out", "OUT"], "abc",
      "MHDDAMP_THREADS: FFT worker count must be an integer >= 1 and <= "
      f"{len(os.sched_getaffinity(0))}, got 'abc'"),
     (["twin", "--config", "CFG", "--out", "OUT"], "1.5",
      "MHDDAMP_THREADS: FFT worker count must be an integer >= 1 and <= "
      f"{len(os.sched_getaffinity(0))}, got '1.5'"),
     (["lemmas", "--seed", "1", "--out", "OUT"], None, "unrecognized arguments: --seed 1"),
     (["lemmas", "--threads", "1", "--out", "OUT"], None,
      "unrecognized arguments: --threads 1")],
    ids=["threads-abc", "eps-zz", "unknown-flag", "no-config", "no-command",
         "unknown-command", "env-threads-abc", "env-threads-1.5", "lemmas-seed",
         "lemmas-threads"],
)
def test_usage_error_exit_one(tmp_path, monkeypatch, capsys, argv, env, message):
    monkeypatch.delenv("MHDDAMP_THREADS", raising=False)
    if env is not None:
        monkeypatch.setenv("MHDDAMP_THREADS", env)
    out = tmp_path / "out"
    paths = {"CFG": str(quickstart_n8(tmp_path)), "OUT": str(out)}
    assert main([paths.get(arg, arg) for arg in argv]) == 1
    assert message in one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["run", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


# Run by a fresh interpreter: the modules present after a run and a twin,
# and those the two commands imported.
IMPORT_PROBE = """
import json, sys
from mhddamp.cli import main
before = set(sys.modules)
codes = [main([command, "--config", sys.argv[1], "--out", sys.argv[2] + command])
         for command in ("run", "twin")]
print(json.dumps({"codes": codes, "loaded": sorted(sys.modules),
                  "imported": sorted(set(sys.modules) - before)}))
"""


def test_commands_import_no_scipy_fft(tmp_path):
    """The transforms load scipy's pocketfft kernel alone: scipy.fft, with
    its array-API layer and scipy.special, stays unimported, and no numpy
    module is first imported by a command."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(quickstart_n8(tmp_path)), str(tmp_path / "out-")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["codes"] == [0, 0]
    heavy = ("scipy.fft", "scipy.special", "scipy._lib._array_api")
    assert not [m for m in probe["loaded"] if any(m == h or m.startswith(h + ".") for h in heavy)]
    assert not [m for m in probe["imported"] if m == "numpy" or m.startswith("numpy.")]
