"""Golden trajectories: ledger and twin series compared column by column.

The fixtures under ``tests/golden/`` hold N = 16 runs of 50 IF-RK4 steps
(ledger every 5 steps) for no damping, power damping with beta = 5 and log1
damping, and one eps = 1e-6 twin run with log1 damping.  Values are compared,
not bytes, to 1e-10 of each column's largest reference magnitude, so a
change of transform layout that only moves round-off still passes while a
changed term does not.

Regenerate the fixtures (only when the numerics change on purpose) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from mhddamp import DampingSpec, GridSpec, InitialCondition, SolverConfig, run, twin_run

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-10
TWIN_EPS = 1e-6

DAMPINGS = {
    "none": DampingSpec(),
    "power5": DampingSpec(kind="power", alpha=1.0, beta=5.0),
    "log1": DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
}


def golden_config(damping: DampingSpec) -> SolverConfig:
    return SolverConfig(
        grid=GridSpec(n_modes=16), dt=2e-3, t_end=0.1, ledger_stride=5, seed=11,
        initial_condition=InitialCondition(kind="random_divfree", target_h1=10.0),
        damping=damping,
    )


def read_columns(text: str) -> dict[str, np.ndarray]:
    header, *rows = text.strip().split("\n")
    body = np.array([[float(v) for v in row.split(",")] for row in rows])
    return {name: body[:, i] for i, name in enumerate(header.split(","))}


def assert_columns_close(got: dict, ref: dict) -> None:
    assert list(got) == list(ref)
    for name, ref_col in ref.items():
        assert got[name].shape == ref_col.shape, name
        scale = float(np.max(np.abs(ref_col)))
        worst = float(np.max(np.abs(got[name] - ref_col)))
        assert worst <= RTOL * scale, f"{name}: deviation {worst:.3e} vs scale {scale:.3e}"


@pytest.mark.parametrize("name", sorted(DAMPINGS))
def test_ledger_matches_golden(name):
    _, ledger = run(golden_config(DAMPINGS[name]))
    ref = read_columns((GOLDEN / f"ledger-{name}.csv").read_text())
    assert_columns_close(read_columns(ledger.to_csv_string()), ref)


def test_twin_matches_golden(tmp_path):
    result = twin_run(golden_config(DAMPINGS["log1"]), TWIN_EPS)
    result.to_csv(tmp_path / "twin.csv")
    ref = json.loads((GOLDEN / "twin.json").read_text())
    assert result.identical == ref["identical"]
    assert abs(result.c_bound - ref["c_bound"]) <= RTOL * abs(ref["c_bound"])
    assert_columns_close(
        read_columns((tmp_path / "twin.csv").read_text()),
        read_columns((GOLDEN / "twin.csv").read_text()),
    )


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, damping in DAMPINGS.items():
        _, ledger = run(golden_config(damping))
        ledger.to_csv(GOLDEN / f"ledger-{name}.csv")
    result = twin_run(golden_config(DAMPINGS["log1"]), TWIN_EPS)
    result.to_csv(GOLDEN / "twin.csv")
    summary = {"identical": result.identical, "c_bound": result.c_bound, "eps": TWIN_EPS}
    (GOLDEN / "twin.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
