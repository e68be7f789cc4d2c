"""README.md states the contract; these tests hold it to the code.

A name counts as named when it is a whole inline code span of README.md,
such as `cfl_target`, or the last part of a dotted one, such as
`energy.L2_STEP_TOL`.  The config, ``--matrix`` and tolerance tables are
read as tables, so a name elsewhere in the text does not stand in for a
missing row.
"""

import argparse
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import mhddamp
from mhddamp import cli, energy
from mhddamp.damping import DampingSpec
from mhddamp.grid import GridSpec, leaves
from mhddamp.integrator import InitialCondition, SolverConfig

TEXT = (Path(__file__).resolve().parent.parent / "README.md").read_text()
PROSE = re.sub(r"^```.*?^```", "", TEXT, flags=re.M | re.S)  # fenced blocks left out
TOLERANCES = ("energy.L2_STEP_TOL", "energy.DAMPING_IDENTITY_TOL", "uniqueness.BOUND_SLACK",
              "lemmas.MARGIN_TOL", "lemmas.SHARPNESS_TOL", "lemmas.PAIR_SCALE_RANGE",
              "fields.HERMITIAN_TOL", "integrator.DIV_FREE_RTOL")


def spans(text: str) -> list[str]:
    """The inline code spans of ``text``; a span that wraps reads as one line."""
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", text)]


def named(name: str, found) -> bool:
    return any(span == name or span.endswith("." + name) for span in found)


def table(title: str) -> dict[str, list[str]]:
    """The rows of the table whose header's first cell names ``title``:
    each name spanned in a row's first cell -> the row's cells."""
    for block in re.findall(r"(?:^\|.*\n)+", TEXT, flags=re.M):
        header, _, *rows = block.splitlines()
        if named(title, spans(header.split("|")[1])) or header.split("|")[1].strip() == title:
            cells = [row.split("|")[1:-1] for row in rows]
            return {name: row for row in cells for name in spans(row[0])}
    raise AssertionError(f"README.md has no table headed {title!r}")


@pytest.mark.parametrize("cls", [GridSpec, SolverConfig, DampingSpec, InitialCondition,
                                 cli.ExperimentConfig], ids=lambda cls: cls.__name__)
def test_config_table_lists_every_leaf_and_only_fields(cls):
    rows = {name for name in table(cls.__name__) if name.isidentifier()}
    assert set(leaves(cls)) <= rows, set(leaves(cls)) - rows
    assert rows <= {f.name for f in dataclasses.fields(cls)}


def test_matrix_table_lists_every_key():
    assert set(table("MATRIX_FIELDS")) == set(cli.MATRIX_FIELDS)


def test_checks_and_ledger_columns_are_named():
    found = spans(PROSE)
    missing = [name for name in cli.KNOWN_CHECKS + energy.INSTANT_COLUMNS if not named(name, found)]
    assert missing == []


def test_long_options_are_named():
    parsers, options = [cli.build_parser()], set()
    while parsers:
        for action in parsers.pop()._actions:
            options.update(s for s in action.option_strings if s.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    found = spans(PROSE)
    assert {"--config", "--threads", "--help"} <= options
    assert sorted(o for o in options if not named(o, found)) == []


@pytest.mark.parametrize("constant", TOLERANCES)
def test_tolerance_table_gives_each_constant_and_its_value(constant):
    row = table("constant")[constant]
    stated = [float(x) for x in re.findall(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?", row[1])]
    module, name = constant.split(".")
    value = getattr(importlib.import_module(f"mhddamp.{module}"), name)
    assert all(v in stated for v in (value if isinstance(value, tuple) else (value,))), row


def test_public_names_and_their_count():
    found = spans(PROSE)
    assert [name for name in mhddamp.__all__ if not named(name, found)] == []
    assert f"exports {len(mhddamp.__all__)} names" in " ".join(TEXT.split())
