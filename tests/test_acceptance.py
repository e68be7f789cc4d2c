"""Acceptance criteria for the solver and verification harness.

Each test prints one PASS/FAIL line (run with -s or -rA to see them all).
The heavy N = 32 trajectories are shared through module-scoped fixtures.
"""

import json

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from mhddamp import (
    DampingSpec,
    GridSpec,
    InitialCondition,
    SolverConfig,
    check_damping_identity,
    check_H1_inequalities,
    check_L2_inequality,
    interpolation_constant,
    run,
    twin_run,
)
from mhddamp.cli import ExperimentConfig, main, save_config
from mhddamp.lemmas import check_interpolation_bound, monotonicity_suite
from mhddamp.operators import truncate_coeffs, weighted_sum_sq

from _helpers import (
    damping_contraction_check,
    embed_coeffs,
    fft_grid,
    gradient_coeffs,
    half_spectrum,
    ifft_grid,
    inner_l2,
    leray,
    mesh,
    pair_state,
    random_divfree,
)


def report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def grid32():
    return GridSpec(n_modes=32)


@pytest.fixture(scope="module")
def grid16():
    return GridSpec(n_modes=16)


@pytest.fixture(scope="module")
def undamped_study(grid32):
    """alpha = 0 MHD runs at dt in {4e-3, 2e-3, 1e-3}, N = 32, T = 1."""
    ic = InitialCondition(kind="taylor_green_like", amplitude=1.0, b_amplitude=0.5)
    out = {}
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = SolverConfig(grid=grid32, dt=dt, t_end=1.0, initial_condition=ic,
                           ledger_stride=10_000)
        out[dt] = run(cfg)
    return out


@pytest.fixture(scope="module")
def damped_beta4(grid32):
    ic = InitialCondition(kind="taylor_green_like", amplitude=1.0, b_amplitude=0.5)
    cfg = SolverConfig(grid=grid32, dt=2e-3, t_end=1.0, initial_condition=ic,
                       damping=DampingSpec(kind="power", alpha=1.0, beta=4.0),
                       ledger_stride=50)
    return run(cfg)


@pytest.fixture(scope="module")
def damped_log1(grid32):
    ic = InitialCondition(kind="taylor_green_like", amplitude=1.0, b_amplitude=0.5)
    cfg = SolverConfig(grid=grid32, dt=2e-3, t_end=1.0, initial_condition=ic,
                       damping=DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
                       ledger_stride=50)
    return run(cfg)


@pytest.fixture(scope="module")
def small_beta5(grid32):
    cfg = SolverConfig(
        grid=grid32, dt=2e-3, t_end=1.0, seed=11, ledger_stride=25,
        initial_condition=InitialCondition(kind="random_divfree", target_h1=0.01),
        damping=DampingSpec(kind="power", alpha=1.0, beta=5.0),
    )
    return run(cfg)


@pytest.fixture(scope="module")
def small_log1(grid32):
    cfg = SolverConfig(
        grid=grid32, dt=2e-3, t_end=1.0, seed=11, ledger_stride=25,
        initial_condition=InitialCondition(kind="random_divfree", target_h1=0.01),
        damping=DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
    )
    return run(cfg)


def test_criterion_1_spectral_exactness(grid32):
    # point values of a real field band-limited to the ball
    rng = np.random.default_rng(0)
    p = ifft_grid(fft_grid(rng.standard_normal((3, 32, 32, 32)), grid32), grid32)
    back = ifft_grid(fft_grid(p, grid32), grid32)
    rt_err = np.max(np.abs(back - p)) / np.max(np.abs(p))

    # trig polynomial inside the dealias ball, derivative vs analytic
    x1, x2, x3 = mesh(grid32)
    vals = np.zeros((3, 32, 32, 32))
    vals[0] = np.sin(3 * x1) * np.cos(2 * x2) + np.cos(x3)
    s = fft_grid(vals, grid32)
    g = gradient_coeffs(s, grid32).reshape((3, 3) + grid32.index.shape)
    d1 = ifft_grid(g[:, 0], grid32)[0]
    d3 = ifft_grid(g[:, 2], grid32)[0]
    exact1 = 3 * np.cos(3 * x1) * np.cos(2 * x2) + 0.0 * x3
    exact3 = -np.sin(x3) + 0.0 * x1 + 0.0 * x2
    scale = np.max(np.abs(exact1))
    d_err = max(np.max(np.abs(d1 - exact1)), np.max(np.abs(d3 - exact3))) / scale

    ok = rt_err <= 1e-12 and d_err <= 1e-12
    report(1, ok, "spectral round trip and trig derivatives exact",
           f"round_trip={rt_err:.2e} derivative={d_err:.2e}")


def test_criterion_2_leray_algebra(grid32):
    rng = np.random.default_rng(1)
    c = rng.standard_normal((3, 32, 32, 32)) + 1j * rng.standard_normal((3, 32, 32, 32))
    f = truncate_coeffs(half_spectrum(c), grid32)
    pf = leray(f, grid32)
    ppf = leray(pf, grid32)
    scale = np.max(np.abs(pf))
    idem = np.max(np.abs(ppf - pf)) / scale

    g = truncate_coeffs(half_spectrum(
        rng.standard_normal((3, 32, 32, 32)) + 1j * rng.standard_normal((3, 32, 32, 32))
    ), grid32)
    sa = abs(inner_l2(pf, g, grid32) - inner_l2(f, leray(g, grid32), grid32)) / max(
        abs(inner_l2(f, g, grid32)), 1.0
    )

    q_hat = truncate_coeffs(
        half_spectrum(rng.standard_normal((32, 32, 32)) + 1j * rng.standard_normal((32, 32, 32))),
        grid32,
    )
    q_hat[0] = 0.0
    grad_q = np.stack([1j * grid32.kx * q_hat, 1j * grid32.ky * q_hat, 1j * grid32.kz * q_hat])
    annihilation = np.max(np.abs(leray(grad_q, grid32))) / np.max(np.abs(grad_q))

    divfree = random_divfree(grid32, seed=2, l2_norm=1.0)
    fixing = np.max(np.abs(leray(divfree, grid32) - divfree)) / np.max(np.abs(divfree))

    def norm_sq(c):
        return weighted_sum_sq(c, 1.0, grid32)

    total = norm_sq(f)
    pythagoras = abs(total - norm_sq(pf) - norm_sq(f - pf)) / total

    worst = max(idem, sa, annihilation, fixing, pythagoras)
    report(2, worst <= 1e-12, "Leray projector algebra at 1e-12",
           f"idem={idem:.1e} adj={sa:.1e} grad={annihilation:.1e} "
           f"fix={fixing:.1e} pyth={pythagoras:.1e}")


def test_criterion_3_analytic_decay_and_order(grid16):
    cfg = SolverConfig(
        grid=grid16, dt=1e-3, t_end=1.0,
        initial_condition=InitialCondition(kind="single_mode", mode=(0, 0, 1)),
    )
    final, _ = run(cfg)
    _, _, x3 = mesh(grid16)
    u = ifft_grid(final.u, grid16)
    exact = np.exp(-1.0) * np.sin(x3) + np.zeros_like(u[0])
    decay_err = np.max(np.abs(u[0] - exact))

    ic = InitialCondition(kind="random_divfree", target_h1=40.0)
    errs = []
    dts = (4e-3, 2e-3, 1e-3)
    for dt in dts:
        one = SolverConfig(grid=grid16, dt=dt, t_end=dt, initial_condition=ic, seed=2)
        two = SolverConfig(grid=grid16, dt=dt / 2, t_end=dt, initial_condition=ic, seed=2)
        s1, _ = run(one)
        s2, _ = run(two)
        errs.append(np.sqrt(
            np.sum(np.abs(s1.u - s2.u) ** 2)
            + np.sum(np.abs(s1.b - s2.b) ** 2)
        ))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = decay_err <= 1e-8 and slope >= 3.8
    report(3, ok, "viscous decay exact and stepping order >= 3.8",
           f"decay_err={decay_err:.2e} order={slope:.2f}")


def test_criterion_4_energy_balance(undamped_study, damped_beta4, damped_log1):
    residuals = []
    dts = sorted(undamped_study, reverse=True)
    for dt in dts:
        _, ledger = undamped_study[dt]
        res = ledger.column("l2_sq")[0] - (
            ledger.column("l2_sq")[-1] + 2.0 * ledger.column("int_h1dot_sq")[-1]
        )
        residuals.append(abs(res))
    slope = float(np.polyfit(np.log(dts), np.log(residuals), 1)[0])

    details = [f"order={slope:.2f}"]
    ok = slope >= 3.8
    for label, (_, ledger) in (("beta4", damped_beta4), ("log1", damped_log1)):
        rep = check_L2_inequality(ledger)
        ok = ok and rep.status == "PASS"
        details.append(f"{label}_min_residual={rep.worst_margin:.2e} (tol {-rep.tolerance:.0e})")
    report(4, ok, "L2 energy balance: order >= 3.8 undamped, damped residual bounded",
           " ".join(details))


def test_criterion_5_h1_inequalities(small_beta5, small_log1):
    details = []
    ok = True
    _, ledger5 = small_beta5
    assert interpolation_constant(1.0, 5.0) == 0.125
    reports5 = {r.name: r for r in check_H1_inequalities(ledger5)}
    for name in ("h1_additive", "h1_exponential"):
        rep = reports5[name]
        ok = ok and rep.status == "PASS" and rep.worst_margin >= -1e-12
        details.append(f"beta5_{name}={rep.worst_margin:.2e}")

    _, ledger1 = small_log1
    rep = {r.name: r for r in check_H1_inequalities(ledger1)}["h1_exponential"]
    ok = ok and rep.status == "PASS" and rep.worst_margin >= -1e-12
    details.append(f"log1_exp={rep.worst_margin:.2e}")
    report(5, ok, "H1 bounds hold with nonnegative margin at every row", " ".join(details))


def test_criterion_6_interpolation_lemma():
    x = np.linspace(0.0, 100.0, 10_000)
    ok = True
    worst = np.inf
    sharp = 0.0
    for alpha in (0.1, 1.0, 10.0):
        for beta in (3.5, 4.0, 5.0, 7.0):
            rep = check_interpolation_bound(alpha, beta, x)
            ok = ok and rep.status == "PASS"
            worst = min(worst, rep.worst_margin)
            sharp = max(sharp, abs(rep.extra["margin_at_x_star"]))
    ok = ok and worst >= -1e-12 and sharp <= 1e-10

    # independent check of the spot constant: max (x^2 - x^4)/2 = 1/8 at 1/sqrt(2)
    res = minimize_scalar(lambda t: -(t**2 - t**4) / 2.0, bounds=(0.0, 2.0), method="bounded")
    ok = ok and abs(-res.fun - 0.125) <= 1e-9 and interpolation_constant(1.0, 5.0) == 0.125
    report(6, ok, "interpolation bound sharp over the (alpha, beta) matrix",
           f"worst={worst:.1e} sharpness={sharp:.1e} max(x^2-x^4)/2={-res.fun:.9f}")


def test_criterion_7_monotonicity(grid16):
    ok = True
    worst = np.inf
    for f_id in ("log1", "log2", "log3"):
        rep = monotonicity_suite(f_id, n_pairs=100_000, seed=0)
        ok = ok and rep.status == "PASS"
        worst = min(worst, rep.worst_margin)
    ok = ok and worst >= -1e-12

    rng = np.random.default_rng(3)
    spec = DampingSpec(kind="generalized", alpha=1.0, f_id="log1")
    volume = grid16.volume
    field_worst = np.inf
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-2, 1)
        u = rng.standard_normal((3, 16, 16, 16)) * scale
        s = rng.standard_normal((3, 16, 16, 16)) * scale
        field_worst = min(field_worst, damping_contraction_check(u, s, spec, grid16))
    ok = ok and field_worst >= -1e-10 * volume
    report(7, ok, "damping monotonicity pointwise and in integral form",
           f"vector_worst={worst:.1e} field_worst={field_worst:.1e}")


def test_criterion_8_damping_identity(grid32):
    u = random_divfree(grid32, seed=5, l2_norm=2.0, band=32 / 6.0, decay=1.0)
    state = pair_state(grid32, u)
    rep3 = check_damping_identity(state, DampingSpec(kind="power", alpha=1.0, beta=3.0))

    big = GridSpec(n_modes=64)
    u32 = random_divfree(grid32, seed=9, l2_norm=2.0, band=8.0, decay=1.0)
    damping = DampingSpec(kind="generalized", alpha=1.0, f_id="log1")
    rels = []
    for grid, coeffs in (
        (grid32, u32),
        (big, embed_coeffs(u32, grid32, big)),
    ):
        st = pair_state(grid, coeffs)
        rels.append(check_damping_identity(st, damping).extra["rel_error"])
    shrink = rels[0] / max(rels[1], 1e-300)
    ok = rep3.status == "PASS" and rep3.extra["rel_error"] <= 1e-6 and shrink >= 4.0
    report(8, ok, "gradient-damping identity: cubic exact, modifier tail refines",
           f"beta3_rel={rep3.extra['rel_error']:.2e} log1_rel_N32={rels[0]:.2e} "
           f"log1_rel_N64={rels[1]:.2e}")


def test_criterion_9_twin_runs(grid16):
    cfg = SolverConfig(
        grid=grid16, dt=2e-3, t_end=0.5, seed=4, ledger_stride=25,
        initial_condition=InitialCondition(kind="random_divfree", target_h1=0.5),
        damping=DampingSpec(kind="generalized", alpha=1.0, f_id="log1"),
    )
    zero = twin_run(cfg, 0.0)
    r6 = twin_run(cfg, 1e-6)
    r7 = twin_run(cfg, 1e-7)
    ratio = r6.d[1:] / r7.d[1:]
    quadratic = bool(np.all(np.abs(ratio / 100.0 - 1.0) <= 0.05))
    ok = zero.identical and r6.bound_satisfied() and quadratic
    report(9, ok, "twin runs: eps=0 bit-identical, growth bound, quadratic scaling",
           f"d0={r6.d0:.2e} c_hat={r6.c_hat:.3f} ratio_range="
           f"[{ratio.min():.2f},{ratio.max():.2f}]")


def test_criterion_10_cli_determinism(grid16, tmp_path):
    cfg = ExperimentConfig(
        name="det",
        solver=SolverConfig(
            grid=grid16, dt=5e-3, t_end=0.1, seed=7, ledger_stride=5,
            initial_condition=InitialCondition(kind="random_divfree", target_h1=0.5),
            damping=DampingSpec(kind="power", alpha=1.0, beta=4.0),
        ),
        checks=("l2",),
    )
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    rc1 = main(["run", "--config", str(path), "--out", str(tmp_path / "a")])
    rc2 = main(["run", "--config", str(path), "--out", str(tmp_path / "b")])
    a = (tmp_path / "a" / "ledger.csv").read_bytes()
    b = (tmp_path / "b" / "ledger.csv").read_bytes()
    ok = rc1 == 0 and rc2 == 0 and a == b
    report(10, ok, "repeated cmd_run yields byte-identical ledger CSV",
           f"bytes={len(a)}")
