"""CLI subcommands: exit codes, artifact outputs and reproducibility."""

import json

import pytest

from mhddamp import DampingSpec, InitialCondition, SolverConfig
from mhddamp.cli import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    main,
    save_config,
)

from _helpers import malformed_checkpoint


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
        "field,literal",
        [("nu_h", "NaN"), ("alpha", "NaN"), ("nu_h", "Infinity"), ("dt", "-Infinity"),
         ("alpha", "1e400")],
    )
    def test_non_finite_number_rejected(self, grid16, tmp_path, capsys, field, literal):
        data = config_to_dict(experiment(grid16))
        section = data["solver"]["damping"] if field == "alpha" else data["solver"]
        section[field] = "PLACEHOLDER"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data).replace('"PLACEHOLDER"', literal))
        with pytest.raises(ConfigError, match="not finite"):
            load_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["ledger_stride", "seed"])
    def test_fractional_integer_field_exit_one(self, grid16, tmp_path, capsys, field):
        data = config_to_dict(experiment(grid16))
        data["solver"][field] = 2.5
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip()
        assert f"{field} must be an integer" in err and "\n" not in err

    def test_unknown_check_rejected(self, grid16):
        with pytest.raises(ConfigError, match="unknown check"):
            experiment(grid16, checks=("l2", "wat"))

    @pytest.mark.parametrize(
        "path,value,match",
        [
            (("checks",), 5, "checks: expected a list"),
            (("solver",), 5, "solver: section missing or not an object"),
            (("solver", "damping"), None, "solver.damping: section missing"),
            (("solver", "damping"), 5, "solver.damping: section missing"),
            (("output_dir",), 5, "output_dir: expected a string or null"),
            (("report_formats",), "csv", "report_formats: expected a list"),
            (("report_formats",), ["xml"], "unknown report format 'xml'"),
            (("solver", "grid", "n_modes"), 16.0, "n_modes must be an even integer"),
            (("solver", "dt"), True, "dt must be a finite number"),
            (("solver", "nu_h"), True, "nu_h must be a finite number"),
            (("solver", "damping", "alpha"), True, "alpha must be a finite number"),
            (("solver", "initial_condition", "target_h1"), True, "target_h1 must be a finite"),
            (("perturbation_scale",), True, "perturbation_scale: must be finite"),
            (("name",), 5, "name: experiment name must be a nonempty string"),
            (("solver", "grid", "dealias_fraction"), True, "dealias_fraction must lie in"),
            (("solver", "grid", "truncation_radius"), "5", "truncation_radius must lie in"),
        ],
        ids=["checks-int", "solver-int", "damping-null", "damping-int", "output-dir-int",
             "formats-string", "formats-unknown", "n-modes-float", "dt-bool", "nu-h-bool",
             "alpha-bool", "target-bool", "eps-bool", "name-int", "dealias-bool",
             "radius-string"],
    )
    def test_malformed_shape_exit_one(self, grid16, tmp_path, monkeypatch, capsys,
                                      path, value, match):
        data = config_to_dict(experiment(grid16, t_end=0.0, checks=("l2",)))
        section = data
        for key in path[:-1]:
            section = section[key]
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

    def test_blow_up_exit_three(self, grid16, tmp_path):
        cfg = experiment(grid16, t_end=2.0, dt=0.1, target=1e3, damping=DampingSpec(), seed=1)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["blow_up_time"] > 0
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
        import scipy.fft

        import mhddamp.fields as fields

        seen = []
        original = fields._fft.irfftn

        def spy(*args, **kwargs):
            seen.append(scipy.fft.get_workers())
            return original(*args, **kwargs)

        monkeypatch.setattr(fields._fft, "irfftn", spy)
        cfg = experiment(grid16, t_end=0.02, checks=("l2",))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert main(["run", "--config", str(path), "--threads", "2",
                     "--out", str(tmp_path / "out")]) == 0
        assert seen and set(seen) == {2}
        assert scipy.fft.get_workers() == 1  # scoped to the main() call

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


class TestCmdLemmas:
    def test_default_matrix_passes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["lemmas", "--out", str(out)]) == 0
        lemma_dir = out / "lemmas"
        for name in ("interpolation.csv", "monotonicity.csv", "envelope.csv"):
            assert (lemma_dir / name).exists()
        text = (lemma_dir / "interpolation.csv").read_text()
        assert "PASS" in text and "FAIL" not in text

    def test_beta_three_cells_not_applicable(self, tmp_path):
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps({"betas": [3.0, 4.0], "pairs": 1000}))
        out = tmp_path / "out"
        assert main(["lemmas", "--matrix", str(matrix), "--out", str(out)]) == 0
        text = (out / "lemmas" / "interpolation.csv").read_text()
        assert "NOT-APPLICABLE" in text

    def test_empty_matrix_usage_error(self, tmp_path):
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps({"alphas": []}))
        assert main(["lemmas", "--matrix", str(matrix)]) == 1

    def test_unknown_f_usage_error(self, tmp_path):
        matrix = tmp_path / "m.json"
        matrix.write_text(json.dumps({"f_ids": ["nope"]}))
        assert main(["lemmas", "--matrix", str(matrix)]) == 1

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[1, 2]", "expected a JSON object"),
            ('{"alphas": [NaN]}', "alphas must hold finite numbers"),
            ('{"betas": [4.0, true]}', "betas must hold finite numbers"),
            ('{"alphas": 1.0}', "alphas must be a nonempty list"),
            ('{"f_ids": [["log1"]]}', "unknown f_id"),
            ('{"x_max": Infinity}', "x_max must be a finite number"),
            ('{"x_points": 5.5}', "x_points must be an integer"),
            ('{"pairs": 0}', "pairs must be an integer >= 1"),
            ('{"seed": true}', "seed must be an integer"),
            ('{"alpha": [1.0]}', "unknown keys"),
        ],
    )
    def test_malformed_matrix_exit_one(self, tmp_path, capsys, text, message):
        matrix = tmp_path / "m.json"
        matrix.write_text(text)
        assert main(["lemmas", "--matrix", str(matrix), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and "\n" not in err and message in err


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
        cfg = experiment(grid16, t_end=0.02, damping=DampingSpec(), target=0.5)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert main(["twin", "--config", str(path), "--eps", "nan",
                     "--out", str(tmp_path / "out")]) == 1
        assert "perturbation_scale: must be finite" in capsys.readouterr().err

    def test_blow_up_exit_three(self, grid16, tmp_path, capsys):
        cfg = experiment(grid16, t_end=2.0, dt=0.1, target=1e3, damping=DampingSpec(), seed=1)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        out = tmp_path / "out"
        assert main(["twin", "--config", str(path), "--eps", "1e-6", "--out", str(out)]) == 3
        assert "blew up" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["blown_up"] is True

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
