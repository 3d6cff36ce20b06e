"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see them
inline; they also appear in captured output on failure).  Monte Carlo
criteria use fixed seeds; tolerances are the contract values, not tuned.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate as si

from sdelab import calculus as calc
from sdelab import cli
from sdelab import criteria as crit
from sdelab import density as dens
from sdelab import montecarlo as mc
from sdelab.calculus import (
    DensityField,
    build_coefficient_set,
    bump_expression,
    decompose_drift,
    invariance_residual,
)
from sdelab.expr import (
    DomainError,
    differentiate,
    eval_expr,
    evaluate,
    parse_expr,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def cs_identity(H=None, d=2):
    A = [["1" if j == i else "0" for j in range(i, d)] for i in range(d)]
    return build_coefficient_set(A, None, H, d=d)


# --------------------------------------------------------------------------
# 1. expression calculus: randomized derivative vs central differences


_LEAVES = ["x1", "x2", "1.5", "0.25", "-2.0", "0.75"]
_WRAP = [
    "exp({a}/(1 + norm2(x)))",
    "ln(2 + ({a})^2)",
    "sqrt(1 + ({a})^2)",
    "({a}) * ({b})",
    "({a}) + ({b})",
    "({a}) - ({b})",
    "({a}) / (2 + ({b})^2)",
    "({a})^3",
    "({a})^2",
    "(1 + ({a})^2)^(-1.0)",
]


def _random_source(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return str(rng.choice(_LEAVES))
    tpl = rng.choice(_WRAP)
    return tpl.format(a=_random_source(rng, depth - 1), b=_random_source(rng, depth - 1))


def test_criterion_1_derivative_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20_240_817)
    h = 1e-5
    cases = 0
    while cases < 1000:
        src = _random_source(rng)
        tree = parse_expr(src, 2)
        x = rng.uniform(-2, 2, size=2)
        try:
            v = eval_expr(tree, x)
        except DomainError:
            continue
        if abs(v) > 1e6:
            continue
        axis = cases % 2
        try:
            d = differentiate(tree, axis)
            sym = eval_expr(d, x)
        except DomainError:
            continue
        xp, xm = x.copy(), x.copy()
        xp[axis] += h
        xm[axis] -= h
        try:
            fd = (eval_expr(tree, xp) - eval_expr(tree, xm)) / (2 * h)
        except DomainError:
            continue
        if not np.isfinite(fd) or abs(fd) > 1e8:
            continue
        assert abs(sym - fd) <= 1e-6 * (1 + abs(v)), (src, axis, sym, fd)
        cases += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (derivative suite)",
        elapsed < 5.0,
        f"1000 randomized cases at 1e-6*(1+|value|), {elapsed:.2f}s < 5s",
    )


# --------------------------------------------------------------------------
# 2. decomposition identities on the two-invariant-measure example


def test_criterion_2_decomposition_identities():
    cs = cs_identity(H=["1", "0"])
    rng = np.random.default_rng(55)
    pts = rng.uniform(-4, 4, size=(1000, 2))

    rho1 = DensityField.from_expression("1", 2)
    B1, rep1 = decompose_drift(cs, rho1)
    err1 = max(
        float(np.max(np.abs(B1(pts)[:, 0] - 1.0))), float(np.max(np.abs(B1(pts)[:, 1])))
    )

    rho2 = DensityField.from_expression("exp(2*x1)", 2)
    B2, rep2 = decompose_drift(cs, rho2)
    err2 = float(np.max(np.abs(B2(pts))))

    ok = (
        err1 <= 1e-10
        and err2 <= 1e-10
        and rep1.max_residual <= 1e-8 * rep1.scale
        and rep2.max_residual <= 1e-8 * rep2.scale
    )
    _report(
        "criterion 2 (drift decomposition)",
        ok,
        f"B errors {err1:.2e}/{err2:.2e} at 1000 probes; divergence residuals "
        f"{rep1.max_residual:.2e}/{rep2.max_residual:.2e} vs 1e-8*scale",
    )


# --------------------------------------------------------------------------
# 3. invariance residuals on each bump's composite Gauss-Legendre rule


def test_criterion_3_invariance_residuals():
    box = 3.0
    f = bump_expression([-1.0, 0.0], [1.9, 1.9], 2)
    cs = cs_identity(H=["1", "0"])
    rep_flat = invariance_residual(cs, DensityField.from_expression("1", 2), f, box)
    rep_tilt = invariance_residual(cs, DensityField.from_expression("exp(2*x1)", 2), f, box)
    ok_inv = (
        abs(rep_flat.residual) <= 1e-8 * rep_flat.scale
        and abs(rep_tilt.residual) <= 1e-8 * rep_tilt.scale
    )

    # deliberately non-invariant pair: Laplacian/2 against exp(x1) dx
    cs_bm = cs_identity()
    f2 = bump_expression([0.0, 0.0], [2.5, 2.5], 2)
    rep_bad = invariance_residual(
        cs_bm, DensityField.from_expression("exp(x1)", 2), f2, box
    )
    b = lambda t: np.maximum(1 - (t / 2.5) ** 2, 0.0) ** 3
    ix, _ = si.quad(lambda t: b(t) * math.exp(t), -2.5, 2.5, epsabs=1e-14)
    iy, _ = si.quad(b, -2.5, 2.5, epsabs=1e-14)
    oracle = 0.5 * ix * iy
    rel = abs(rep_bad.residual - oracle) / abs(oracle)
    ok = ok_inv and rel <= 1e-6
    _report(
        "criterion 3 (invariance residual)",
        ok,
        f"invariant residuals {rep_flat.residual:.2e}/{rep_tilt.residual:.2e} "
        f"<= 1e-8*scale; non-invariant pair matches the by-parts oracle to {rel:.2e}",
    )


# --------------------------------------------------------------------------
# 4. density solver: manufactured error, observed order, exhaustion agreement


def test_criterion_4_density_solver():
    t0 = time.perf_counter()
    cs = cs_identity(H=["-x1", "-x2"])
    oracle = parse_expr("exp(-norm2(x))", 2)

    errors = {}
    for n in (64, 128, 256):
        approx = dens.solve_density(cs, 4.0, n, "exp(-norm2(x))")
        ax = approx.mesh.axis()
        grids = np.meshgrid(ax, ax, indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
        exact = evaluate(oracle, pts).reshape(approx.values.shape)
        errors[n] = float(np.max(np.abs(approx.values - exact)))
    orders = [
        math.log2(errors[64] / errors[128]),
        math.log2(errors[128] / errors[256]),
    ]

    a6 = dens.solve_density(cs, 6.0, 96, "ones")
    a8 = dens.solve_density(cs, 8.0, 128, "ones")
    xs = np.linspace(-1.5, 1.5, 25)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X.reshape(-1), Y.reshape(-1)], axis=-1)
    v6 = a6.to_density_field().rho(pts)
    v8 = a8.to_density_field().rho(pts)
    nested = float(np.max(np.abs(v6 - v8) / np.abs(v8)))

    elapsed = time.perf_counter() - t0
    ok = (
        errors[128] <= 5e-3
        and all(1.8 <= o <= 2.2 for o in orders)
        and nested <= 0.05
        and elapsed < 60.0
    )
    _report(
        "criterion 4 (density solver)",
        ok,
        f"max error {errors[128]:.2e} <= 5e-3 at n=128; orders {orders[0]:.2f}/{orders[1]:.2f} "
        f"in [1.8,2.2]; R=6 vs R=8 agreement {nested:.3%} <= 5%; {elapsed:.1f}s < 60s",
    )


# --------------------------------------------------------------------------
# 5. exact reproductions of the worked inequalities


def test_criterion_5_paper_inequalities():
    t0 = time.perf_counter()

    # (a) piecewise certificate in the substituted variable: 10^4 points on (0, 50]
    psi = parse_expr("max(x1^2 * (6 - x1), 54 - 81/x1)", 1)
    d1 = differentiate(psi, 0, piecewise=True)
    d2 = differentiate(d1, 0, piecewise=True)
    ys = np.linspace(50.0 / 10_000, 50.0, 10_000)[:, None]
    margin_a = (evaluate(d2, ys) + evaluate(d1, ys)) * ys[:, 0] ** 2 - 0.5 * evaluate(psi, ys)
    ok_a = bool(np.min(margin_a) >= 0)

    # (b) Gaussian-primitive certificate margin >= 0.1 on [-10, 10]
    cs1 = build_coefficient_set([["1"]], G=["-x1 - 2*exp(x1^2)"], d=1)
    rho1 = DensityField.from_expression("exp(-x1^2)", 1)
    hfield = parse_expr("0.8862269254527579*(1 + erf(x1))", 1)
    spec_b = crit.CriterionSpec(
        id="NON_INVARIANCE",
        constants={"alpha": 1.0 / math.sqrt(math.pi)},
        candidate=hfield,
        region=crit.RegionSpec(kind="interval", lo=-10, hi=10, n_points=10_000),
        mode="adjoint",
    )
    verdict_b = crit.evaluate_criterion(spec_b, cs1, rho=rho1)
    ok_b = verdict_b.verdict == "holds-on-grid" and verdict_b.min_margin >= 0.1

    # (c) planar BM: L applied to the log candidate vanishes outside the kink
    cs_bm = cs_identity()
    g = crit.default_growth_candidate(3.0, 2)
    pts = crit.RegionSpec(kind="annulus", r_min=3.5, r_max=40).points(2)
    res_c = crit.lyapunov_margin(cs_bm, None, g, "L", 0.0, pts)
    ok_c = abs(res_c.min_margin) <= 1e-10 and float(np.max(np.abs(res_c.margins))) <= 1e-10

    # (d) confining drift: quadratic-decay margin |x|^2 / 2 outside the unit ball
    cs_ou = cs_identity(H=["-x1", "-x2"])
    spec_d = crit.CriterionSpec(
        id="ERGODIC_DRIFT", constants={"M": 0.5, "N0": 1}, variant="eq_335"
    )
    verdict_d = crit.evaluate_criterion(spec_d, cs_ou)
    pts_d = crit.RegionSpec(kind="annulus", r_min=1.0 + 1e-6, r_max=40).points(2)
    r2 = np.einsum("ij,ij->i", pts_d, pts_d)
    # margin field equals |x|^2/2 exactly for this data
    spec_d2 = crit.CriterionSpec(
        id="ERGODIC_DRIFT",
        constants={"M": 0.5},
        variant="eq_335",
        region=crit.RegionSpec(kind="annulus", r_min=1.0 + 1e-6, r_max=40),
    )
    v2 = crit.evaluate_criterion(spec_d2, cs_ou)
    ok_d = verdict_d.verdict == "holds-on-grid" and v2.min_margin >= 0.5 - 1e-9

    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and ok_d and elapsed < 10.0
    _report(
        "criterion 5 (worked inequalities)",
        ok,
        f"(a) min {np.min(margin_a):.2e} >= 0; (b) margin {verdict_b.min_margin:.3f} >= 0.1; "
        f"(c) |Lg| <= 1e-10; (d) margin >= |x|^2/2; {elapsed:.1f}s < 10s",
    )


# --------------------------------------------------------------------------
# 6. volume/recurrence test


def test_criterion_6_volume_recurrence():
    cs2 = cs_identity()
    rho2 = DensityField.from_expression("1", 2)
    v2 = crit.recurrence_volume_test(cs2, rho2, n_max=1e6)
    table = v2.trend_table
    ns = np.array(table["n"])
    a = np.array(table["a_n"])
    sel = ns >= 4
    rel = np.max(np.abs(a[sel] - np.log(ns[sel]) / math.pi) / (np.log(ns[sel]) / math.pi))
    ok2 = v2.verdict == "holds-on-grid" and rel <= 0.01

    cs3 = cs_identity(d=3)
    rho3 = DensityField.from_expression("1", 3)
    v3 = crit.recurrence_volume_test(cs3, rho3, n_max=1e4)
    ok3 = v3.verdict == "inconclusive" and any("converging" in n for n in v3.notes)

    _report(
        "criterion 6 (volume test)",
        ok2 and ok3,
        f"planar a_n within {rel:.2%} of ln(n)/pi up to 1e6, verdict recurrent; "
        f"3-D verdict inconclusive with converging a_n",
    )


# --------------------------------------------------------------------------
# 7. Monte Carlo oracles (1e4 paths, dt = 1e-3, fixed seeds)


BM = cs_identity()
OU = cs_identity(H=["-x1", "-x2"])
PHI = parse_expr("norm2(x) + 1", 2)


@pytest.fixture(scope="module")
def mc_budget():
    state = {"t0": time.perf_counter()}
    yield state
    elapsed = time.perf_counter() - state["t0"]
    print(f"[INFO] criterion 7 total Monte Carlo time {elapsed:.0f}s (< 300s budget)")
    assert elapsed < 300.0


def test_criterion_7a_bm_moment_and_exit(mc_budget):
    cfg = mc.SimulationConfig(dt=1e-3, horizon=1.0, paths=10_000, seed=90001, radii=(16.0,))
    ens = mc.simulate_ensemble(BM, [0.0, 0.0], cfg, save_times=[1.0])
    X = ens.state_at(1.0)
    r2 = np.einsum("ij,ij->i", X, X)
    se = r2.std(ddof=1) / 100.0
    ok_moment = abs(r2.mean() - 2.0) <= 3 * se

    cfg_exit = mc.SimulationConfig(
        dt=1e-3, horizon=12.0, paths=10_000, seed=90002, radii=(2.0, 6.0)
    )
    ens2 = mc.simulate_ensemble(BM, [0.0, 0.0], cfg_exit)
    stats = mc.exit_statistics(ens2, [2.0])
    mean_exit = stats["per_radius"][0]["mean_exit_time"]
    ok_exit = abs(mean_exit - 2.0) <= 0.1 * 2.0
    _report(
        "criterion 7a (Brownian oracles)",
        ok_moment and ok_exit,
        f"E|X_1|^2 = {r2.mean():.4f} (3SE {3*se:.4f}); mean exit from B_2 = {mean_exit:.3f} "
        f"within 10% of 2",
    )


def test_criterion_7b_ou_oracles(mc_budget):
    cfg = mc.SimulationConfig(dt=1e-3, horizon=1.0, paths=10_000, seed=90001, radii=(16.0,))
    ens = mc.simulate_ensemble(OU, [2.0, 0.0], cfg, save_times=[1.0])
    X = ens.state_at(1.0)
    se = X[:, 0].std(ddof=1) / 100.0
    ok_decay = abs(X[:, 0].mean() - 2.0 * math.exp(-1.0)) <= 3 * se

    cfg_e = mc.SimulationConfig(dt=1e-3, horizon=200.0, paths=1, seed=90001, radii=(8.0, 16.0))
    erg = mc.ergodic_average(OU, [2.0, 0.0], cfg_e, parse_expr("norm2(x)", 2), burn_in=0.0)
    ok_ergodic = abs(erg["terminal_average"] - 1.0) <= 0.05

    cfg_t = mc.SimulationConfig(dt=1e-3, horizon=6.0, paths=10_000, seed=90001, radii=(8.0, 16.0))
    rho = DensityField.from_expression("exp(-norm2(x))", 2)
    tr = mc.transition_histogram(mc.simulate_ensemble(OU, [2.0, 0.0], cfg_t), 6.0, rho_ref=rho)
    critical = 1.358 / 100.0
    ok_ks = max(tr["ks_distance"]) <= critical
    _report(
        "criterion 7b (confining-drift oracles)",
        ok_decay and ok_ergodic and ok_ks,
        f"mean decay {X[:, 0].mean():.4f} ~ {2*math.exp(-1):.4f}; T=200 average "
        f"{erg['terminal_average']:.4f} = 1 +- 0.05; KS {max(tr['ks_distance']):.4f} < {critical:.4f}",
    )


def test_criterion_7c_moment_bound(mc_budget):
    times = [0.25, 0.5, 1.0]
    cfg = mc.SimulationConfig(dt=1e-3, horizon=1.0, paths=10_000, seed=90003, radii=(16.0,))
    ens = mc.simulate_ensemble(OU, [2.0, 0.0], cfg, save_times=times)
    rows = mc.moment_curve(ens, PHI, times, bound={"M": 2.0})
    worst = max(r["bound_ratio"] for r in rows)
    _report(
        "criterion 7c (supermartingale bound)",
        worst <= 1.0,
        f"E[phi(X_t ^ sigma)] <= e^(2t) phi(x0) at all sampled t (max ratio {worst:.3f})",
    )


def test_criterion_7d_krylov(mc_budget):
    truth, _ = si.quad(lambda s: 1 - math.exp(-1 / (2 * s)), 0, 1)
    cfg = mc.SimulationConfig(dt=1e-3, horizon=1.0, paths=10_000, seed=90004, radii=(16.0,))
    ind = parse_expr("selge(1, norm2(x), 1, 0)", 2)  # the unit ball's indicator
    out = mc.krylov_functional(BM, ind, 1.0, [[0.0, 0.0]], cfg)
    row = out["per_start"][0]
    ok_ball = abs(row["estimate"] - truth) <= 3 * row["std_error"] + 2e-3

    out1 = mc.krylov_functional(
        BM, parse_expr("1", 2), 1.0, [[0.0, 0.0]],
        mc.SimulationConfig(dt=1e-2, horizon=1.0, paths=100, seed=1, radii=(16.0,)),
    )
    ok_const = out1["per_start"][0]["estimate"] == pytest.approx(1.0, abs=1e-12)
    _report(
        "criterion 7d (occupation functional)",
        ok_ball and ok_const,
        f"ball occupation {row['estimate']:.4f} vs heat-kernel {truth:.4f} "
        f"(3SE {3*row['std_error']:.4f}); f=1 integrates exactly to t",
    )


def test_criterion_7e_blowup_contrast(mc_budget):
    cs_blow = build_coefficient_set(
        [["1", "0"], ["1"]], G=["norm2(x)*x1", "norm2(x)*x2"], d=2
    )
    cfg = mc.SimulationConfig(dt=1e-3, horizon=2.0, paths=10_000, seed=90005, radii=(4.0, 8.0))
    ens = mc.simulate_ensemble(cs_blow, [1.5, 0.0], cfg)
    p_blow = float(np.mean(np.isfinite(ens.exit_times[8.0])))

    cfg_bm = mc.SimulationConfig(dt=1e-3, horizon=2.0, paths=10_000, seed=90006, radii=(8.0, 16.0))
    ens_bm = mc.simulate_ensemble(BM, [0.0, 0.0], cfg_bm)
    p_bm = float(np.mean(np.isfinite(ens_bm.exit_times[8.0])))
    _report(
        "criterion 7e (blow-up contrast)",
        p_blow >= 0.99 and p_bm <= 0.01,
        f"superlinear P(sigma_8 <= 2) = {p_blow:.4f} >= 0.99; Brownian {p_bm:.4f} <= 0.01",
    )


# --------------------------------------------------------------------------
# 8. determinism across batch splits


def test_criterion_8_determinism(tmp_path, monkeypatch):
    cli.run_scenario(cli.load_config("planar_bm"), tmp_path / "default")
    monkeypatch.setattr(
        mc, "_batch_bounds", lambda paths, n_steps, d: [(s, min(s + 64, paths)) for s in range(0, paths, 64)]
    )
    cli.run_scenario(cli.load_config("planar_bm"), tmp_path / "b64")
    csvs = sorted(p.name for p in (tmp_path / "default").glob("*.csv"))
    assert csvs, "scenario produced no CSV tables"
    identical = sorted(p.name for p in (tmp_path / "b64").glob("*.csv")) == csvs and all(
        (tmp_path / "default" / name).read_bytes() == (tmp_path / "b64" / name).read_bytes()
        for name in csvs
    )
    _report(
        "criterion 8 (determinism)",
        identical,
        f"byte-identical CSVs in one batch and in 64-path batches: {', '.join(csvs)}",
    )


# --------------------------------------------------------------------------
# 9. catalog green run


def test_criterion_9_catalog_green(tmp_path):
    t0 = time.perf_counter()
    codes = {}
    for name in cli.BUILTIN_NAMES:
        cfg = cli.load_config(name)
        report = cli.run_scenario(cfg, tmp_path / name)
        codes[name] = report["status"]["exit_code"]
    elapsed = time.perf_counter() - t0
    manifest = {"density_grid.csv", "verdicts.json", "moments.csv", "ergodic.csv"}
    produced = {p.name for p in (tmp_path / "ou_2d").iterdir()}
    ok = (
        all(code == 0 for code in codes.values())
        and manifest.issubset(produced)
        and elapsed < 600.0
    )
    _report(
        "criterion 9 (catalog run)",
        ok,
        f"exit codes {codes}; ou_2d manifest {sorted(manifest & produced)}; "
        f"total {elapsed:.0f}s < 600s",
    )
