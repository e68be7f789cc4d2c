"""Every function of the package is reached from the command line.

One probe drives ``cli.main`` at N = 8 through each subcommand: ``run``
with no, power and log3 damping (the three initial conditions and every
check between them), a run that blows up, a restart from a checkpoint,
``twin``, ``lemmas --matrix``, ``info`` and a usage error.  The code
objects called are recorded with ``sys.setprofile``.  Every function and method defined in
``src/mhddamp`` must be among them, or in ALLOWED with the reason it stays
without a command-line caller, so a wrapper or an option that no command
reaches fails here.
"""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import sys
from pathlib import Path

import mhddamp
from mhddamp.cli import main

QUICKSTART = Path(__file__).parent.parent / "configs" / "quickstart.json"
PACKAGE_DIR = os.path.dirname(os.path.abspath(mhddamp.__file__))

ALLOWED = {
    "energy.check_damping_identity":
        "verifier of the gradient-damping identity (acceptance criterion 8), for library use",
    "energy.EnergyLedger.validate":
        "checks a ledger's signs and monotone integrals, for library use",
    "cli.save_config":
        "writes an ExperimentConfig as a file load_config reads, for library use",
    "grid.leaf":
        "declares the config dataclasses' fields, so it runs at import, before any command",
}


def package_functions() -> dict:
    """{"module.qualname": code object} of every function, method and
    property accessor written in the package's source files."""
    found = {}

    def add(module, obj):
        obj = inspect.unwrap(obj)
        code = getattr(obj, "__code__", None)
        if code is not None and os.path.dirname(os.path.abspath(code.co_filename)) == PACKAGE_DIR:
            found[f"{module.__name__.split('.', 1)[1]}.{obj.__qualname__}"] = code

    for info in pkgutil.iter_modules(mhddamp.__path__):
        module = importlib.import_module(f"mhddamp.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                add(module, obj)
            elif inspect.isclass(obj):
                for member in vars(obj).values():
                    if isinstance(member, property):
                        for accessor in (member.fget, member.fset, member.fdel):
                            if accessor is not None:
                                add(module, accessor)
                    elif isinstance(member, (classmethod, staticmethod)):
                        add(module, member.__func__)
                    elif callable(member):
                        add(module, member)
    return found


def config(tmp_path, name, damping, initial_condition, checks, **solver):
    """A config file cut from configs/quickstart.json to N = 8."""
    data = json.loads(QUICKSTART.read_text())
    data["name"] = name
    data["checks"] = checks
    data["solver"].update(grid={"n_modes": 8}, dt=0.002, t_end=0.004, ledger_stride=1,
                          damping=damping, initial_condition=initial_condition)
    data["solver"].update(solver)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_every_function_is_reached_from_the_cli(tmp_path):
    every = ["l2", "h1_additive", "h1_exponential", "lemmas"]
    none = config(tmp_path, "none", {"kind": "none"},
                  {"kind": "taylor_green_like"}, every)
    power = config(tmp_path, "power", {"kind": "power", "alpha": 1.0, "beta": 4.0},
                   {"kind": "single_mode", "mode": [1, 0, 1]}, every + ["twin"])
    log3 = config(tmp_path, "log3", {"kind": "generalized", "alpha": 0.25, "f_id": "log3"},
                  {"kind": "random_divfree", "target_h1": 1.0}, every)
    blow_up = config(tmp_path, "blow-up", {"kind": "none"},
                     {"kind": "random_divfree", "target_h1": 1e4}, ["l2"], dt=0.5, t_end=5.0)
    checkpoint = tmp_path / "none-out" / "checkpoint.mhdf"
    restart = config(tmp_path, "restart", {"kind": "none"},
                     {"kind": "from_checkpoint", "path": str(checkpoint)}, ["l2"], t_end=0.008)
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"betas": [4.0], "x_points": 100, "pairs": 100}))
    commands = [
        (["run", "--config", none, "--out", str(tmp_path / "none-out")], 0),
        (["run", "--config", power, "--out", str(tmp_path / "power-out")], 0),
        (["run", "--config", log3, "--out", str(tmp_path / "log3-out")], 0),
        (["run", "--config", blow_up, "--out", str(tmp_path / "blow-up-out")], 3),
        (["run", "--config", restart, "--out", str(tmp_path / "restart-out")], 0),
        (["twin", "--config", log3, "--eps", "1e-6", "--out", str(tmp_path / "twin-out")], 0),
        (["lemmas", "--matrix", str(matrix), "--out", str(tmp_path / "lemmas-out")], 0),
        (["info"], 0),
        (["run", "--bogus"], 1),
    ]

    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv, _ in commands:
            sys.setprofile(record)
            try:
                codes.append(main(argv))
            finally:
                sys.setprofile(None)
    assert codes == [rc for _, rc in commands]

    functions = package_functions()
    assert set(ALLOWED) <= set(functions), "an allowed name no longer exists"
    unreached = sorted(name for name, code in functions.items() if code not in called)
    assert unreached == sorted(ALLOWED)
