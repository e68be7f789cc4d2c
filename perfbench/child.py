"""One repetition of a benchmark workload, in a fresh interpreter.

Usage:
    python3 child.py rep SPEC.json        run one repetition, write SPEC's result file
    python3 child.py checkpoint CONFIG.json PATH
                                          write the initial state of CONFIG as a checkpoint

A repetition first times the set-up a user pays before stepping
(``cli.load_config``, which builds the grid, then
``integrator.make_initial_from_config`` and ``integrator.cfl_bound``), then
times one ``cli.main`` call.  Interpreter start-up and package import are not
timed.  With tracing on, the wrap points of ``tracer.py`` are installed before
the set-up, so both phases are traced.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _environment() -> dict:
    import numpy
    import scipy
    import scipy.fft

    from mhddamp import fields

    backend = "pocketfft" if "scipy.fft._pocketfft" in sys.modules else "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": f"scipy.fft ({backend})",
        "fft_workers": getattr(fields, "_FFT_WORKERS", None),
        "scipy_default_workers": scipy.fft.get_workers(),
    }


def repetition(spec: dict) -> dict:
    from mhddamp import cli, integrator

    rec = None
    found: dict[str, bool] = {}
    if spec["trace"]:
        import tracer

        rec = tracer.SpanRecorder()
        found = tracer.install(rec)

    t0 = time.perf_counter()
    cfg = cli.load_config(spec["config"])
    state = integrator.make_initial_from_config(cfg.solver)
    integrator.cfl_bound(state, cfg.solver)
    setup_s = time.perf_counter() - t0
    del state, cfg

    t0 = time.perf_counter()
    rc = cli.main(spec["argv"])
    main_s = time.perf_counter() - t0

    result = {
        "rc": rc,
        "setup_s": setup_s,
        "main_s": main_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if rec is not None:
        result["found"] = found
        result["spans"] = rec.summary()
        result["counters"] = rec.counters
    return result


def make_checkpoint(config_path: str, path: str) -> None:
    from mhddamp import cli, integrator

    cfg = cli.load_config(config_path)
    integrator.save_checkpoint(path, integrator.make_initial_from_config(cfg.solver))


def main(argv: list[str]) -> int:
    if argv[:1] == ["rep"] and len(argv) == 2:
        spec = json.loads(Path(argv[1]).read_text())
        result = repetition(spec)
        tmp = spec["result"] + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(result, fh)
        os.replace(tmp, spec["result"])
        return 0
    if argv[:1] == ["checkpoint"] and len(argv) == 3:
        make_checkpoint(argv[1], argv[2])
        return 0
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
