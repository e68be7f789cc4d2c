"""Span recorder and the wrap points that attribute time to mhddamp's layers.

Spans are recorded from outside the package: each wrap point replaces a
function or method of ``mhddamp`` by a wrapper that records a span (name,
start, end, parent) and then calls the original.  A function that other
modules import by name is replaced in every module namespace that holds it,
so ``nonlinear.ifft_grid`` and ``energy.ifft_grid`` are both traced, each at
its own call site.

A wrap point whose target no longer exists is reported as absent instead of
failing, so a later refactor (for example replacing ``ifft_grid`` by a real
transform) still gets a trace from this file unchanged.  Spectral transforms
are found by name: every function of ``mhddamp.fields`` whose name starts
with ``fft``, ``rfft``, ``ifft`` or ``irfft`` is traced, as an inverse
transform when the name starts with ``i``.
"""

from __future__ import annotations

import importlib
import math
import os
import re
import sys
import time

_clock = time.perf_counter
_TRANSFORM_NAME = re.compile(r"^i?r?fft")


class SpanRecorder:
    """In-memory spans with self time (duration minus direct children)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, float]] = []  # name, start, end, parent, self
        self._stack: list[list] = []  # [index, start, child_time]
        self.counters: dict[str, float] = {}

    def enter(self, name: str) -> None:
        self.spans.append((name, 0.0, 0.0, -1, 0.0))
        self._stack.append([len(self.spans) - 1, _clock(), 0.0])

    def exit(self) -> None:
        end = _clock()
        index, start, child_time = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.spans[index] = (self.spans[index][0], start, end, parent, dur - child_time)

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, _parent, self_s in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
        return out


def _make_wrapper(fn, name, rec: SpanRecorder, after=None, on_error=None):
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            rec.exit()
            if on_error is not None:
                on_error(exc)
            raise
        rec.exit()
        if after is not None:
            after(args, kwargs, out)
        return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "mhddamp" or n.startswith("mhddamp.")]


def _patch_function(module_name: str, attr: str, span: str, rec: SpanRecorder, after=None, on_error=None) -> bool:
    """Wrap ``module.attr`` in every mhddamp namespace that binds it."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    original = getattr(module, attr, None)
    if original is None or not callable(original):
        return False
    wrapper = _make_wrapper(original, span, rec, after, on_error)
    for mod in _package_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
    return True


def _patch_method(module_name: str, qualname: str, span: str, rec: SpanRecorder, after=None) -> bool:
    cls_name, meth = qualname.split(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    cls = getattr(module, cls_name, None)
    original = getattr(cls, meth, None) if cls is not None else None
    if original is None or not callable(original):
        return False
    setattr(cls, meth, _make_wrapper(original, span, rec, after))
    return True


# Transform accounting -------------------------------------------------------


def _transform_after(inverse: bool, rec: SpanRecorder):
    """Count grids, computed bytes and flops of one batched 3-D transform.

    Flops are 5 M log2 M per complex grid of M = N^3 points, half that for a
    real-to-complex (half spectrum) transform.  The spectral side of a full
    complex spectrum holds 1 - (N/2+1)/N values a real field does not need.
    """
    prefix = "fields.ifft" if inverse else "fields.fft"

    def after(args, kwargs, out):
        src = args[0] if args else next(iter(kwargs.values()))
        phys, spec = (out, src) if inverse else (src, out)
        shape = getattr(phys, "shape", ())
        if len(shape) < 3:
            return
        n = shape[-1]
        m = shape[-3] * shape[-2] * shape[-1]
        grids = math.prod(shape[:-3])
        half = getattr(spec, "shape", (n,))[-1] != n
        rec.add(prefix + ".grids", grids)
        rec.add("fields.bytes", int(getattr(src, "nbytes", 0)) + int(getattr(out, "nbytes", 0)))
        rec.add("fields.flops", grids * (2.5 if half else 5.0) * m * math.log2(m))
        spec_size = int(getattr(spec, "size", 0))
        rec.add("fields.spectral_values", spec_size)
        if not half:
            rec.add("fields.redundant_values", spec_size * (1.0 - (n // 2 + 1) / n))

    return after


def install(rec: SpanRecorder) -> dict[str, bool]:
    """Install every wrap point; return {wrap point: found}."""
    found: dict[str, bool] = {}

    import mhddamp.cli  # noqa: F401  (loads every module the CLI binds names in)

    fields = sys.modules.get("mhddamp.fields")
    transforms = sorted(
        name for name, value in vars(fields).items()
        if _TRANSFORM_NAME.match(name) and callable(value)
        and getattr(value, "__module__", "") == "mhddamp.fields"
    ) if fields is not None else []
    inverse = [t for t in transforms if t.lower().startswith("i")]
    forward = [t for t in transforms if not t.lower().startswith("i")]
    for name in inverse:
        _patch_function("mhddamp.fields", name, "fields.ifft", rec, _transform_after(True, rec))
    for name in forward:
        _patch_function("mhddamp.fields", name, "fields.fft", rec, _transform_after(False, rec))
    found["fields.ifft"] = bool(inverse)
    found["fields.fft"] = bool(forward)

    def count_blowup(exc):
        if type(exc).__name__ == "BlowUpError":
            rec.add("integrator.blowups", 1)

    def twin_after(args, kwargs, out):
        if getattr(out, "blown_up", False):
            rec.add("integrator.blowups", 1)

    def checkpoint_after(args, kwargs, out):
        path = args[0] if args else kwargs.get("path")
        try:
            rec.add("integrator.checkpoint_bytes", os.path.getsize(path))
        except (OSError, TypeError):
            pass

    functions = [
        ("mhddamp.nonlinear", "_rhs_core", "nonlinear.rhs", None, None),
        ("mhddamp.damping", "damping_term", "damping.term", None, None),
        ("mhddamp.operators", "leray_project_coeffs", "operators.leray", None, None),
        ("mhddamp.operators", "truncate_coeffs", "operators.truncate", None, None),
        ("mhddamp.integrator", "make_initial_from_config", "integrator.initial", None, None),
        ("mhddamp.integrator", "load_checkpoint", "integrator.checkpoint_read", None, None),
        ("mhddamp.integrator", "save_checkpoint", "integrator.checkpoint_write", checkpoint_after, None),
        ("mhddamp.integrator", "cfl_bound", "integrator.cfl", None, None),
        ("mhddamp.integrator", "run", "integrator.run", None, count_blowup),
        ("mhddamp.energy", "ledger_row", "energy.ledger_row", None, None),
        ("mhddamp.energy", "check_L2_inequality", "energy.checks", None, None),
        ("mhddamp.energy", "check_H1_inequalities", "energy.checks", None, None),
        ("mhddamp.uniqueness", "twin_run", "uniqueness.twin_run", twin_after, None),
        ("mhddamp.uniqueness", "_separation", "uniqueness.separation", None, None),
    ]
    for module, attr, span, after, on_error in functions:
        ok = _patch_function(module, attr, span, rec, after, on_error)
        found[span] = found.get(span, True) and ok

    methods = [
        ("mhddamp.integrator", "_StepWork.advance", "integrator.advance"),
        ("mhddamp.energy", "EnergyLedger.to_csv", "energy.csv"),
        ("mhddamp.grid", "GridSpec.__init__", "grid.build"),
    ]
    for module, qualname, span in methods:
        found[span] = _patch_method(module, qualname, span, rec)
    return found
