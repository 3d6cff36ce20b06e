import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from sdelab import cli
from sdelab import calculus as calc
from sdelab import criteria as crit
from sdelab.calculus import (
    DensityField,
    build_coefficient_set,
)
from sdelab.criteria import (
    TEMPLATES,
    VERDICTS,
    CriterionSpec,
    RegionSpec,
    default_growth_candidate,
    evaluate_criterion,
    growth_report,
    lyapunov_margin,
    recurrence_volume_test,
)
from sdelab.expr import differentiate, evaluate, parse_expr


def cs_identity(H=None, d=2):
    A = [["1" if j == i else "0" for j in range(i, d)] for i in range(d)]
    return build_coefficient_set(A, None, H, d=d)


def cs_ou(d=2):
    return cs_identity(H=[f"-x{i+1}" for i in range(d)], d=d)


def test_catalog_is_complete():
    expected = {
        "LYAPUNOV_L",
        "LYAPUNOV_EXTERIOR",
        "GROWTH_NONEXPLOSION",
        "EIGENGAP_2D",
        "LINEAR_GROWTH_MOMENT",
        "INTEGRABLE_COEFFS",
        "INVARIANCE_LYAPUNOV",
        "INVARIANCE_LOG_GROWTH",
        "NON_INVARIANCE",
        "RECURRENCE_SUPERSOLUTION",
        "RECURRENCE_GROWTH",
        "VOLUME_CONSERVATIVE",
        "ERGODIC_DRIFT",
        "VOLUME_RECURRENCE",
    }
    assert set(TEMPLATES) == expected
    for row in TEMPLATES.values():
        assert row.conclusion and row.variants


# a small expression for each input a template variant may take
_SMALL_INPUTS = {"candidate": "norm2(x) + 1", "rhs": "2*norm2(x) + 2", "psi1": "1", "psi2": "1 + norm2(x)",
                 "h1": "1", "h2": "1", "Bbar": "0.1*x1"}


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("tid,variant", [(k, v) for k, t in TEMPLATES.items() for v in t.variants])
def test_every_template_variant_evaluates_from_one_record(tid, variant, d):
    # every input the variant takes is a field of the one spec; in d=4 only the
    # d=2 template is rejected at the id
    t, var = TEMPLATES[tid], TEMPLATES[tid].variants[variant]
    inputs = {name: parse_expr(_SMALL_INPUTS[name], d) for name in var.needs + var.reads}
    if "Bbar" in inputs:
        inputs["Bbar"] = (inputs["Bbar"],) * d
    spec = CriterionSpec(
        id=tid,
        variant=variant,
        constants={name: 1.0 for name, default in var.constants.items() if default is crit.REQUIRED},
        region=None if t.region is None else RegionSpec(kind="box", lo=0.5, hi=2.0, n_points=2000),
        **inputs,
    )
    rho = None if t.density == "never" else DensityField.from_expression("exp(-norm2(x))", d)
    if d == 4 and t.dimension == 2:
        with pytest.raises(crit.CriterionError) as err:
            evaluate_criterion(spec, cs_ou(d), rho)
        assert err.value.where == "id"
    else:
        assert evaluate_criterion(spec, cs_ou(d), rho).verdict in VERDICTS


def test_criterion_readers_cover_every_field():
    # a field without a reader would make its config key an "unknown field"
    assert issubclass(cli.Criterion, CriterionSpec)
    assert set(cli._CRITERION_READERS) == {f.name for f in fields(cli.Criterion)}


def test_unknown_id_rejected():
    with pytest.raises(crit.CriterionError):
        CriterionSpec(id="NOT_A_CRITERION")
    with pytest.raises(crit.CriterionError, match="mode"):
        CriterionSpec(id="NON_INVARIANCE", mode="sideways")
    with pytest.raises(crit.CriterionError, match="region kind 'boxx'"):
        RegionSpec(kind="boxx")


def test_lyapunov_margin_ou():
    # L(|x|^2 + 1) = 2 - 2|x|^2 for the confining unit-rate drift, so the
    # margin against 2*(|x|^2+1) is exactly 4|x|^2
    cs = cs_ou()
    phi = parse_expr("norm2(x) + 1", 2)
    pts = RegionSpec(kind="annulus", r_min=1e-6, r_max=10, n_radial=50, n_angular=32).points(2)
    res = lyapunov_margin(cs, None, phi, "L", parse_expr("2*(norm2(x) + 1)", 2), pts)
    r2 = np.einsum("ij,ij->i", pts, pts)
    assert np.allclose(res.margins, 4 * r2, atol=1e-9)
    assert res.min_margin >= -res.zero_tolerance


def test_lyapunov_margin_planar_bm_zero():
    cs = cs_identity()
    g = default_growth_candidate(3.0, 2)
    pts = RegionSpec(kind="annulus", r_min=3.5, r_max=40, n_radial=100, n_angular=64).points(2)
    res = lyapunov_margin(cs, None, g, "L", 0.0, pts)
    assert abs(res.min_margin) <= 1e-10
    assert res.verdict() == "holds-on-grid"


def test_margin_scaling_covariance():
    cs = cs_ou()
    phi = parse_expr("norm2(x) + 1", 2)
    phi4 = parse_expr("4*(norm2(x) + 1)", 2)
    pts = RegionSpec(kind="annulus", r_min=0.5, r_max=8, n_radial=20, n_angular=16).points(2)
    res1 = lyapunov_margin(cs, None, phi, "L", parse_expr("2*(norm2(x)+1)", 2), pts)
    res4 = lyapunov_margin(cs, None, phi4, "L", parse_expr("2*4*(norm2(x)+1)", 2), pts)
    assert np.array_equal(res4.margins, 4.0 * res1.margins)  # exact: power-of-two scale


def test_default_candidate_reproduces_growth_formula():
    # L g for g = ln(|x|^2 v N0^2) + 2 equals
    # -2<Ax,x>/|x|^4 + tr A/|x|^2 + 2<G,x>/|x|^2 outside the kink
    cs = build_coefficient_set(
        [["1 + x2^2", "0.5"], ["2"]], None, ["-x1", "-x2"], d=2
    )
    g = default_growth_candidate(2.0, 2)
    from sdelab.calculus import apply_generator

    lg = apply_generator(cs, None, g, mode="L")
    rng = np.random.default_rng(5)
    pts = rng.uniform(2.5, 9.0, size=(200, 2)) * rng.choice([-1.0, 1.0], size=(200, 2))
    A = cs.eval_A(pts)
    G = cs.eval_G(pts)
    r2 = np.einsum("ij,ij->i", pts, pts)
    axx = np.einsum("nij,nj,ni->n", A, pts, pts)
    want = -2 * axx / r2**2 + np.einsum("nii->n", A) / r2 + 2 * np.einsum("ni,ni->n", G, pts) / r2
    assert np.max(np.abs(lg(pts) - want)) < 1e-10


def test_lyapunov_exterior_ou():
    # L g = -2 for the log candidate under the confining drift, so M g
    # dominates outside any ball
    cs = cs_ou()
    spec = CriterionSpec(id="LYAPUNOV_EXTERIOR", constants={"M": 1.0, "N0": 2})
    v = evaluate_criterion(spec, cs)
    assert v.verdict == "holds-on-grid"
    assert any("increasing" in n for n in v.notes)


def test_growth_nonexplosion_ou():
    cs = cs_ou()
    spec = CriterionSpec(id="GROWTH_NONEXPLOSION", constants={"M": 1.0, "N0": 1})
    v = evaluate_criterion(spec, cs)
    assert v.verdict == "holds-on-grid"
    assert v.min_margin >= 0


def test_ergodic_drift_eq335_ou():
    cs = cs_ou()
    spec = CriterionSpec(
        id="ERGODIC_DRIFT", constants={"M": 0.5, "N0": 1}, variant="eq_335"
    )
    v = evaluate_criterion(spec, cs)
    assert v.verdict == "holds-on-grid"
    # margin = |x|^2 / 2, minimized at the inner radius 1
    assert v.min_margin == pytest.approx(0.5, rel=1e-4)


def test_eigengap_2d_demo():
    # eigenvalues 1 and 1 + |x|^4 with strongly confining drift: the gap term
    # and <G, x> cancel exactly
    cs = build_coefficient_set(
        [["1", "0"], ["1 + norm2(x)^2"]],
        G=["-0.5*norm2(x)*x1", "-0.5*norm2(x)*x2"],
        d=2,
    )
    spec = CriterionSpec(
        id="EIGENGAP_2D", constants={"M": 1.0, "N0": 1}, psi1=parse_expr("1", 2), psi2=parse_expr("1 + norm2(x)^2", 2)
    )
    v = evaluate_criterion(spec, cs)
    assert v.verdict == "holds-on-grid"


def test_eigengap_requires_d2():
    cs = cs_ou(d=3)
    spec = CriterionSpec(id="EIGENGAP_2D", constants={"M": 1.0}, psi1=parse_expr("1", 3), psi2=parse_expr("1", 3))
    with pytest.raises(crit.CriterionError):
        evaluate_criterion(spec, cs)


def test_non_invariance_gaussian_primitive():
    # 1-D certificate: L'h >= h/sqrt(pi) with margin at least 0.1 on [-10, 10]
    cs = build_coefficient_set([["1"]], G=["-x1 - 2*exp(x1^2)"], d=1)
    rho = DensityField.from_expression("exp(-x1^2)", 1)
    h = parse_expr("0.8862269254527579*(1 + erf(x1))", 1)
    spec = CriterionSpec(
        id="NON_INVARIANCE",
        constants={"alpha": 1.0 / math.sqrt(math.pi)},
        candidate=h,
        region=RegionSpec(kind="interval", lo=-10, hi=10, n_points=10_000),
        mode="adjoint",
    )
    v = evaluate_criterion(spec, cs, rho=rho)
    assert v.verdict == "holds-on-grid"
    assert v.min_margin >= 0.1


def test_non_invariance_bounded_witness_second_example():
    # 1-D drift 1/2 + e^{-x}/2 against mu = e^x dx: u = Psi(e^{-x}) with the
    # piecewise cubic/reciprocal Psi satisfies L'u >= u/4
    cs = build_coefficient_set([["1"]], G=["0.5 + 0.5*exp(-x1)"], d=1)
    rho = DensityField.from_expression("exp(x1)", 1)
    u = parse_expr(
        "max(exp(-x1)^2 * (6 - exp(-x1)), 54 - 81/exp(-x1))", 1
    )
    spec = CriterionSpec(
        id="NON_INVARIANCE",
        constants={"alpha": 0.25},
        candidate=u,
        region=RegionSpec(kind="interval", lo=-5, hi=14, n_points=8_000),
        mode="adjoint",
    )
    v = evaluate_criterion(spec, cs, rho=rho)
    assert v.verdict == "holds-on-grid"


def test_non_invariance_forward_mode_explosive_drift():
    # cubic outward 1-D drift with a bounded sub-unit witness: L u >= alpha u
    # certifies that the forward semigroup is not conservative
    cs = build_coefficient_set([["1"]], G=["x1^3"], d=1)
    u = parse_expr("norm2(x) / (1 + norm2(x))", 1)
    spec = CriterionSpec(
        id="NON_INVARIANCE",
        constants={"alpha": 0.2},
        candidate=u,
        mode="forward",
        region=RegionSpec(kind="interval", lo=-10, hi=10, n_points=8000),
    )
    v = evaluate_criterion(spec, cs)
    assert v.verdict == "holds-on-grid"
    assert v.min_margin >= 0


def test_box_region_sampling():
    cs = cs_ou()
    spec = CriterionSpec(
        id="LYAPUNOV_L",
        constants={"M": 2.0},
        candidate=parse_expr("norm2(x) + 1", 2),
        region=RegionSpec(kind="box", lo=-5.0, hi=5.0, n_points=10_000),
    )
    v = evaluate_criterion(spec, cs)
    assert v.verdict == "holds-on-grid"
    assert "box" in v.region


def test_region_extent_per_kind():
    assert RegionSpec(r_min=2.0, r_max=5.0).extent(2) == (2.0, 5.0)
    assert RegionSpec(kind="interval", lo=-10.0, hi=4.0).extent(1) == (0.0, 10.0)
    assert RegionSpec(kind="interval", lo=2.0, hi=3.0).extent(1) == (2.0, 3.0)
    assert RegionSpec(kind="box", lo=-3.0, hi=3.0).extent(2) == (0.0, 3.0 * math.sqrt(2))


def test_growth_note_samples_the_interval():
    cs = cs_identity(H=["-x1"], d=1)
    spec = CriterionSpec(
        id="LYAPUNOV_L",
        constants={"M": 2.0},
        candidate=parse_expr("x1^2 + 1", 1),
        region=RegionSpec(kind="interval", lo=-10.0, hi=10.0),
    )
    (note,) = evaluate_criterion(spec, cs).notes
    assert note.startswith("sphere-infimum growth sampled up to r=40:")


@pytest.mark.parametrize(
    "region",
    [RegionSpec(kind="box", lo=-0.1, hi=0.1), RegionSpec(kind="annulus", r_min=0.05, r_max=0.2)],
)
def test_growth_note_on_a_region_inside_the_unit_ball(region):
    # the sampled radii start inside the region, not at r = 1 above its outer radius
    candidate = parse_expr("norm2(x) + 1", 2)
    spec = CriterionSpec(id="LYAPUNOV_L", constants={"M": 2.0}, candidate=candidate, region=region)
    (note,) = evaluate_criterion(spec, cs_ou()).notes
    assert note.endswith(": increasing (not certified)"), note


def test_piecewise_inequality_form_positive():
    # the same certificate in the substituted variable y = e^{-x}:
    # (Psi'' + Psi') y^2 - Psi/2 >= 0 on (0, 50]
    psi = parse_expr("max(x1^2 * (6 - x1), 54 - 81/x1)", 1)
    d1 = differentiate(psi, 0, piecewise=True)
    d2 = differentiate(d1, 0, piecewise=True)
    ys = np.linspace(1e-4, 50.0, 10_000)[:, None]
    margin = (evaluate(d2, ys) + evaluate(d1, ys)) * ys[:, 0] ** 2 - 0.5 * evaluate(psi, ys)
    assert np.min(margin) >= 0


def test_recurrence_supersolution_planar_bm():
    cs = cs_identity()
    spec = CriterionSpec(id="RECURRENCE_SUPERSOLUTION", constants={"N0": 3})
    v = evaluate_criterion(spec, cs)
    assert v.verdict == "holds-on-grid"
    assert abs(v.min_margin) <= 1e-10


def test_recurrence_growth_bm():
    cs = cs_identity()
    spec = CriterionSpec(id="RECURRENCE_GROWTH", constants={"N0": 1})
    v = evaluate_criterion(spec, cs)
    # LHS = 0 + d/2 - d/2 ... for BM: -<x,x>/|x|^2 + 1 + 0 = 0
    assert v.verdict == "holds-on-grid"


def test_recurrence_growth_fails_with_witness_on_outward_drift():
    cs = cs_identity(H=["x1", "x2"])  # outward drift: transient-looking
    spec = CriterionSpec(id="RECURRENCE_GROWTH", constants={"N0": 1})
    v = evaluate_criterion(spec, cs)
    assert v.verdict == "fails-with-witness"
    # soundness: re-evaluating the template at the witness reproduces margin < 0
    x = np.array(v.witness)
    r2 = float(x @ x)
    lhs = -r2 / r2 + 1.0 + r2
    assert -lhs == pytest.approx(v.min_margin, abs=1e-12)
    assert v.min_margin < 0


def test_lyapunov_l_with_moment_conclusion():
    cs = cs_ou()
    spec = CriterionSpec(id="LYAPUNOV_L", constants={"M": 2.0}, candidate=parse_expr("norm2(x) + 1", 2))
    v = evaluate_criterion(spec, cs)
    assert v.verdict == "holds-on-grid"
    assert "e^{M t}" in v.conclusion


def test_invariance_log_growth_unit_drift():
    # M = 1 genuinely fails near the origin (margin ~ -0.08 at x ~ (0.35, 0));
    # M = 2 makes the log-growth inequality hold everywhere
    cs = cs_identity(H=["1", "0"])
    spec = CriterionSpec(id="INVARIANCE_LOG_GROWTH", constants={"M": 1.0}, mode="forward")
    v = evaluate_criterion(spec, cs)
    assert v.verdict == "fails-with-witness"
    spec2 = CriterionSpec(id="INVARIANCE_LOG_GROWTH", constants={"M": 2.0}, mode="forward")
    v2 = evaluate_criterion(spec2, cs)
    assert v2.verdict == "holds-on-grid"


def test_invariance_lyapunov_needs_density():
    cs = cs_ou()
    spec = CriterionSpec(id="INVARIANCE_LYAPUNOV", constants={"alpha": 1.0})
    with pytest.raises(crit.CriterionError):
        evaluate_criterion(spec, cs)


def test_invariance_lyapunov_ou():
    cs = cs_ou()
    rho = DensityField.from_expression("exp(-norm2(x))", 2)
    spec = CriterionSpec(id="INVARIANCE_LYAPUNOV", constants={"alpha": 2.0, "N0": 1})
    v = evaluate_criterion(spec, cs, rho=rho)
    # L' u for the log candidate: adjoint drift 2 beta - G = -x as well
    assert v.verdict == "holds-on-grid"


def test_integrable_coeffs_gaussian_vs_lebesgue():
    cs = cs_ou()
    rho = DensityField.from_expression("exp(-norm2(x))", 2)
    spec = CriterionSpec(id="INTEGRABLE_COEFFS", constants={"r_max": 32.0})
    v = evaluate_criterion(spec, cs, rho=rho)
    assert v.verdict == "holds-on-grid"

    cs_bm = cs_identity()
    rho1 = DensityField.from_expression("1", 2)
    v2 = evaluate_criterion(spec, cs_bm, rho=rho1)
    assert v2.verdict == "inconclusive"


def test_linear_growth_moment_bm():
    cs = cs_identity()
    spec = CriterionSpec(id="LINEAR_GROWTH_MOMENT", constants={"M": 1.0}, variant="split")
    v = evaluate_criterion(spec, cs)
    assert v.verdict == "holds-on-grid"


def test_linear_growth_moment_bounds_every_root_by_the_diagonal():
    # every root sigma of A has |sigma_ij| <= sqrt(a_ii); for a non-diagonal A
    # the margin reads max_i sqrt(a_ii) = 2, above the symmetric root's
    # largest entry
    spec = CriterionSpec(id="LINEAR_GROWTH_MOMENT", constants={"M": 3.0}, variant="joint")
    w, V = np.linalg.eigh([[4.0, 1.5], [1.5, 1.0]])
    assert np.abs((V * np.sqrt(w)) @ V.T).max() < 2.0
    v = evaluate_criterion(spec, build_coefficient_set([["4", "1.5"], ["1"]], None, ["0", "0"], d=2))
    assert v.witness == (1e-06, 0.0)
    assert v.min_margin == pytest.approx(3.0 * (1e-06 + 1.0) - 2.0, rel=1e-12)


def test_volume_conservative_bounded_density():
    # bounded density, zero mu-divergence remainder: polynomial volume bound
    rho_src = "1 + exp(-norm2(x))"
    beta = [
        "-x1*exp(-norm2(x))/(1 + exp(-norm2(x)))",
        "-x2*exp(-norm2(x))/(1 + exp(-norm2(x)))",
    ]
    cs = cs_identity(H=beta)
    rho = DensityField.from_expression(rho_src, 2)
    spec = CriterionSpec(
        id="VOLUME_CONSERVATIVE",
        constants={"M": 2.0, "c": 3.0, "N1": 2},
        variant="polynomial",
        region=RegionSpec(r_min=1.0, r_max=64.0),
    )
    v = evaluate_criterion(spec, cs, rho=rho)
    assert v.verdict == "holds-on-grid"
    assert v.trend_table is not None
    mu_ann = v.trend_table["mu_annulus"]
    bounds = v.trend_table["bound"]
    assert all(m <= b for m, b in zip(mu_ann, bounds))
    for n1 in (0, -1):  # the annulus ladder 4 N1 2^k never reaches r_max
        bad = CriterionSpec(id="VOLUME_CONSERVATIVE", constants={"M": 2.0, "c": 3.0, "N1": n1})
        with pytest.raises(crit.CriterionError, match="N1 >= 1"):
            evaluate_criterion(bad, cs, rho=rho)
    # a box [-3, 3]^2 reaches |x| = 3 sqrt(2) < 8, so the ladder stops at its first rung
    box = CriterionSpec(
        id="VOLUME_CONSERVATIVE",
        constants={"M": 2.0, "c": 3.0, "N1": 1},
        variant="polynomial",
        region=RegionSpec(kind="box", lo=-3.0, hi=3.0),
    )
    assert evaluate_criterion(box, cs, rho=rho).trend_table["n"] == [1]


@pytest.mark.parametrize("r_max", [0.5, 1.0, 64.0])
def test_radial_grid_increases_to_r_max(r_max):
    radii = calc.radial_ladder(r_max)
    totals, _ = calc.ball_integrals(lambda p: np.exp(-np.einsum("ij,ij->i", p, p)), 2, radii)
    assert np.all(np.diff(radii) > 0)
    assert radii[-1] == r_max
    if r_max == 0.5:  # the Gaussian's mass on the disc of radius 1/2
        assert abs(totals[-1] - math.pi * (1.0 - math.exp(-0.25))) < 1e-9


def _sphere_moments(d):
    """Exact surface integrals of 1, x1^2, x1^4 and x1^2 xd^2 over the unit sphere."""
    surface = 2 * math.pi ** (d / 2) / math.gamma(d / 2)
    return surface, surface / d, 3 * surface / (d * (d + 2)), surface / (d * (d + 2))


def _sphere_d2_d3_reference(d, n_angular):
    """The hand-written d=2 and d=3 rules the recursive rule replaced."""
    if d == 2:
        th = 2 * math.pi * np.arange(n_angular) / n_angular
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return dirs, np.full(len(dirs), 2 * math.pi / len(dirs))
    n_pol = max(4, int(round(math.sqrt(n_angular))))
    n_az = n_pol
    z, wz = np.polynomial.legendre.leggauss(n_pol)
    phi = 2 * math.pi * np.arange(n_az) / n_az
    Z, P = np.meshgrid(z, phi, indexing="ij")
    W = np.broadcast_to(wz[:, None], Z.shape) * (2 * math.pi / n_az)
    s = np.sqrt(1 - Z**2)
    dirs = np.stack([s * np.cos(P), s * np.sin(P), Z], axis=-1).reshape(-1, 3)
    return dirs, W.reshape(-1)


@pytest.mark.parametrize("d, n_min", [(2, 5), (3, 21)])
def test_sphere_rule_keeps_the_d2_and_d3_bytes(d, n_min):
    # above the floor of 5 nodes per axis the recursive rule is the old rule, bit for bit;
    # at 4200 the d=3 rule rounds up to 65^2 = 4225 directions and is still built
    for n in [*range(n_min, 301), 1000, 4096, 4200]:
        dirs, w = calc.sphere_rule(d, n)
        ref_dirs, ref_w = _sphere_d2_d3_reference(d, n)
        assert np.array_equal(dirs, ref_dirs) and np.array_equal(w, ref_w), n


@pytest.mark.parametrize("d, n_angular", [(3, n) for n in range(1, 21)]
                         + [(d, n) for d in (4, 5, 6) for n in (128, 256, 4096)])
def test_sphere_rule_is_exact_to_degree_four(d, n_angular):
    # the old d=3 rule had a floor of 4 nodes and missed x1^4 by 1/3 at n_angular <= 20
    dirs, w = calc.sphere_rule(d, n_angular)
    x1, xd = dirs[:, 0], dirs[:, -1]
    for got, want in zip((w.sum(), w @ x1**2, w @ x1**4, w @ (x1**2 * xd**2)), _sphere_moments(d)):
        assert abs(got - want) <= 1e-14 * want


def test_sphere_rule_beyond_its_size_limit_raises_before_it_allocates():
    # the floor of 5 gives 5^6 = 15625 directions in d=7, more than max(256, 4096)
    tracemalloc.start()
    try:
        with pytest.raises(calc.CalculusError, match="15625 directions"):
            calc.sphere_rule(7, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15625 * 8  # less than one column of the rule


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_ou_lyapunov_margin_in_every_dimension(d):
    # L(|x|^2 + 1) = d - 2|x|^2 for A = I, H = -x, so the margin against 2(|x|^2 + 1)
    # is 2 - d + 4|x|^2, least at the default region's r_min = 1e-6
    v = evaluate_criterion(CriterionSpec(id="LYAPUNOV_L", constants={"M": 2.0}), cs_ou(d))
    assert v.min_margin == pytest.approx(2 - d + 4e-12, abs=1e-12)
    assert v.verdict == ("holds-on-grid" if d == 2 else "fails-with-witness")


@pytest.mark.parametrize("d, ratio", [(2, None), (3, "0.50"), (4, "0.25"), (5, "0.12")])
def test_brownian_motion_is_recurrent_only_in_the_plane(d, ratio):
    # Polya: with density 1, a_n grows like ln(n) in d=2 and its increments shrink by 2^(2-d)
    cs, rho = cs_identity(d=d), DensityField.from_expression("1", d)
    volume = evaluate_criterion(CriterionSpec(id="VOLUME_RECURRENCE"), cs, rho)
    growth = evaluate_criterion(CriterionSpec(id="RECURRENCE_GROWTH"), cs)
    if d == 2:
        assert volume.verdict == growth.verdict == "holds-on-grid"
    else:
        assert volume.verdict == "inconclusive"
        assert volume.notes[0] == f"a_n trend: increment ratio {ratio} <= 0.7"
        assert growth.verdict == "fails-with-witness"


def test_growth_report_flags_bounded_candidate():
    rep = growth_report(parse_expr("1/(1 + norm2(x))", 2), 2, 1.0, 100.0)
    assert not rep["increasing"]
    rep2 = growth_report(parse_expr("norm2(x)", 2), 2, 1.0, 100.0)
    assert rep2["increasing"]


# --- volume-integral recurrence test ----------------------------------------


def test_volume_test_planar_bm():
    cs = cs_identity()
    rho = DensityField.from_expression("1", 2)
    v = recurrence_volume_test(cs, rho, n_max=1e6)
    assert v.verdict == "holds-on-grid"
    table = v.trend_table
    ns = np.array(table["n"])
    a = np.array(table["a_n"])
    sel = ns >= 4
    want = np.log(ns[sel]) / math.pi
    assert np.max(np.abs(a[sel] - want) / want) < 0.01


def test_volume_test_3d_bm_inconclusive():
    cs = cs_identity(d=3)
    rho = DensityField.from_expression("1", 3)
    v = recurrence_volume_test(cs, rho, n_max=1e4)
    assert v.verdict == "inconclusive"
    assert any("converging" in n for n in v.notes)


def test_volume_test_ou_recurrent():
    cs = cs_ou()
    rho = DensityField.from_expression("exp(-norm2(x))", 2)
    v = recurrence_volume_test(cs, rho, n_max=1e3)
    assert v.verdict == "holds-on-grid"


def test_volume_template_matches_direct_call_with_c_and_bbar():
    cs = build_coefficient_set([["1", "0"], ["1"]], [["x1*x2"]], ["-x1", "-x2"], d=2)
    rho = DensityField.from_expression("exp(-norm2(x))", 2)
    bbar = (parse_expr("x1", 2), parse_expr("0", 2))
    spec = CriterionSpec(id="VOLUME_RECURRENCE", constants={"n_max": 1e3}, Bbar=bbar)
    via_template = evaluate_criterion(spec, cs, rho=rho)
    direct = recurrence_volume_test(cs, rho, bbar, 1e3)
    assert via_template.to_json() == direct.to_json()
    assert direct.id == "VOLUME_RECURRENCE" and direct.trend_table is not None
    # Bbar enters v2
    assert direct.trend_table["v2_n"] != recurrence_volume_test(cs, rho, None, 1e3).trend_table["v2_n"]
    with pytest.raises(crit.CriterionError, match="reads no region") as err:
        evaluate_criterion(CriterionSpec(id="VOLUME_RECURRENCE", region=RegionSpec()), cs, rho=rho)
    assert err.value.where == "region"


def test_verdict_serializes():
    cs = cs_identity()
    spec = CriterionSpec(id="RECURRENCE_SUPERSOLUTION", constants={"N0": 3})
    v = evaluate_criterion(spec, cs)
    blob = v.to_json()
    assert blob["id"] == "RECURRENCE_SUPERSOLUTION"
    assert blob["verdict"] == "holds-on-grid"
    assert "min_margin" in blob and "witness" in blob


def test_growth_on_a_box_through_the_origin_skips_it_without_a_warning():
    # 45 x 45 nodes on [-2, 2]^2 put one at the origin, where -<Ax, x>/|x|^2 is 0/0
    cfg = {
        "schema_version": 1,
        "name": "ou_growth_box",
        "dimension": 2,
        "coefficients": {"A": [["1", "0"], ["1"]], "H": ["-x1", "-x2"]},
        "criteria": [
            {
                "id": "GROWTH_NONEXPLOSION",
                "constants": {"M": 0.25},
                "region": {"kind": "box", "lo": -2.0, "hi": 2.0, "n_points": 2025},
            }
        ],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cli.run_scenario(cfg)
    assert report["status"]["exit_code"] == 0
    (verdict,) = report["stages"]["criteria"]
    assert verdict["verdict"] == "holds-on-grid"
    assert verdict["skipped_points"] == 1


@pytest.mark.parametrize("spec, rho", [
    (CriterionSpec(id="EIGENGAP_2D", constants={"M": 1.0}, psi1=parse_expr("1", 2), psi2=parse_expr("1", 2)), None),
    (
        CriterionSpec(id="VOLUME_CONSERVATIVE", constants={"M": 2.0, "c": 3.0, "N1": 1}, variant="polynomial"),
        DensityField.from_expression("exp(-norm2(x))", 2),
    ),
], ids=["EIGENGAP_2D", "VOLUME_CONSERVATIVE"])
def test_margins_dividing_by_r2_skip_the_origin_without_a_warning(spec, rho):
    spec = replace(spec, region=RegionSpec(kind="box", lo=-2.0, hi=2.0, n_points=2025))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = evaluate_criterion(spec, cs_ou(), rho=rho)
    assert v.skipped_points == 1
