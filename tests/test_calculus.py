import math
import platform
import types

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sci_integrate

import sdelab
from sdelab import calculus as calc
from sdelab import cli
from sdelab import expr as ex
from sdelab.calculus import (
    CoefficientSet,
    DensityField,
    EllipticityError,
    QuadratureRule,
    ShapeError,
    apply_generator,
    build_coefficient_set,
    bump_expression,
    decompose_drift,
    default_bump_library,
    integrate,
    integrate_masked,
    invariance_residual,
    log_derivative_beta,
)
from sdelab.expr import Program, evaluate, parse_expr
from test_expr import _exprs


def identity_cs(d=2, H=None):
    A = [["1" if i == j else "0" for j in range(i, d)] for i in range(d)]
    A = [[A[i][j] for j in range(len(A[i]))] for i in range(d)]
    return build_coefficient_set(A, None, H, d=d)


def test_build_identity_drift_zero():
    cs = identity_cs()
    pts = np.random.default_rng(0).normal(size=(50, 2))
    assert np.all(cs.eval_G(pts) == 0)


def test_build_variable_diffusion_drift():
    # A = diag(1 + x1^2, 1): g = (1/2 d1(1+x1^2), 0) = (x1, 0)
    cs = build_coefficient_set([["1 + x1^2", "0"], ["1"]], None, None, d=2)
    pts = np.random.default_rng(1).normal(size=(50, 2))
    G = cs.eval_G(pts)
    assert np.allclose(G[:, 0], pts[:, 0], atol=1e-14)
    assert np.all(G[:, 1] == 0)


def test_build_unit_drift():
    cs = identity_cs(H=["1", "0"])
    pts = np.random.default_rng(2).normal(size=(20, 2))
    G = cs.eval_G(pts)
    assert np.allclose(G, np.tile([1.0, 0.0], (20, 1)))


def test_antisymmetric_part_enters_through_transpose():
    # C upper entry c12 = x1: g_i = 1/2 d_j c_ji adds (d2 c21, d1 c12)/2
    cs = build_coefficient_set([["1", "0"], ["1"]], [["x2^2"]], None, d=2)
    pts = np.random.default_rng(3).normal(size=(30, 2))
    G = cs.eval_G(pts)
    # c12 = x2^2, c21 = -x2^2; g_1 = 1/2 d1(a11) + 1/2 d2(c21)... uses C^T:
    # g_i = 1/2 sum_j d_j (a_ij + c_ji)
    # g_1 = 1/2 d2(c12^T entry) with (C^T)_{12} = c21 = -x2^2 -> g_1 = -x2
    assert np.allclose(G[:, 0], -pts[:, 1], atol=1e-14)
    assert np.allclose(G[:, 1], 0.0, atol=1e-14)


def test_declared_drift_is_kept_as_declared():
    # a declared G is stored as written and H is derived from it; built from that H, the drift
    # is the same up to rounding
    A, C = [["1 + x1^2", "0.5*x2"], ["2 + x2^2"]], [["x1*x2"]]
    G = ["-x1*(1 + norm2(x))", "x1 - x2^3"]
    cs = build_coefficient_set(A, C, G=G, d=2)
    declared = tuple(parse_expr(g, 2) for g in G)
    assert cs.G == declared
    pts = np.random.default_rng(5).normal(size=(200, 2)) * 3
    assert np.array_equal(cs.eval_G(pts), np.stack([evaluate(g, pts) for g in declared], axis=-1))
    from_h = build_coefficient_set(A, C, cs.H, d=2)
    assert np.allclose(from_h.eval_G(pts), cs.eval_G(pts), rtol=1e-13, atol=1e-13)


def test_drift_given_as_both_h_and_g_rejected():
    with pytest.raises(calc.CalculusError, match="at most one of H and G"):
        build_coefficient_set([["1"]], None, ["0"], G=["0"], d=1)


def test_symmetry_violation_rejected():
    with pytest.raises(ShapeError):
        build_coefficient_set([["1", "x1"], ["x2", "1"]], None, None, d=2)


def test_non_elliptic_rejected_with_witness():
    with pytest.raises(EllipticityError) as err:
        build_coefficient_set([["x1", "0"], ["1"]], None, None, d=2)
    assert err.value.witness is not None


def test_non_finite_diffusion_rejected_at_first_bad_probe():
    # nan (sqrt of a negative) at the second probe, inf (1/0) at the origin
    probes = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(EllipticityError, match="not finite") as err:
        build_coefficient_set([["sqrt(x1)", "0"], ["1"]], None, None, d=2, probes=probes)
    assert err.value.witness == (-1.0, 0.0)
    with pytest.raises(EllipticityError, match="not finite") as err:
        build_coefficient_set([["1/x1", "0"], ["1"]], None, None, d=2)
    assert err.value.witness == (0.0, 0.0)


def test_log_derivative_constant_density():
    cs = identity_cs()
    rho = DensityField.from_expression("1", 2)
    beta = log_derivative_beta(cs, rho)
    pts = np.random.default_rng(4).normal(size=(40, 2))
    assert np.allclose(beta(pts), 0.0)


def test_log_derivative_exponential_tilt():
    # rho = exp(2 x1), A = id: beta = e1 (the second invariant measure of the
    # unit-drift example)
    cs = identity_cs(H=["1", "0"])
    rho = DensityField.from_expression("exp(2*x1)", 2)
    beta = log_derivative_beta(cs, rho)
    pts = np.random.default_rng(5).normal(size=(40, 2))
    vals = beta(pts)
    assert np.allclose(vals[:, 0], 1.0, atol=1e-12)
    assert np.allclose(vals[:, 1], 0.0, atol=1e-12)


def test_log_derivative_gaussian():
    cs = identity_cs()
    rho = DensityField.from_expression("exp(-norm2(x))", 2)
    beta = log_derivative_beta(cs, rho)
    pts = np.random.default_rng(6).normal(size=(40, 2))
    assert np.allclose(beta(pts), -pts, atol=1e-12)


def test_decompose_unit_drift_lebesgue():
    cs = identity_cs(H=["1", "0"])
    rho = DensityField.from_expression("1", 2)
    B, report = decompose_drift(cs, rho)
    pts = np.random.default_rng(7).normal(size=(1000, 2))
    vals = B(pts)
    assert np.allclose(vals[:, 0], 1.0, atol=1e-10)
    assert np.allclose(vals[:, 1], 0.0, atol=1e-10)
    assert report.max_residual <= 1e-8 * report.scale


def test_decompose_unit_drift_tilted():
    cs = identity_cs(H=["1", "0"])
    rho = DensityField.from_expression("exp(2*x1)", 2)
    B, report = decompose_drift(cs, rho)
    pts = np.random.default_rng(8).normal(size=(1000, 2))
    assert np.max(np.abs(B(pts))) <= 1e-10
    assert report.max_residual <= 1e-8 * report.scale


def test_decompose_gradient_type_drift():
    # G = beta for rho = exp(-|x|^2): B vanishes identically
    cs = identity_cs(H=["-x1", "-x2"])
    rho = DensityField.from_expression("exp(-norm2(x))", 2)
    B, _ = decompose_drift(cs, rho)
    pts = np.random.default_rng(9).uniform(-3, 3, size=(500, 2))
    assert np.max(np.abs(B(pts))) <= 1e-9


def test_generator_brownian_motion():
    cs = identity_cs()
    f = parse_expr("norm2(x)", 2)
    lf = apply_generator(cs, None, f, mode="L")
    pts = np.random.default_rng(10).normal(size=(30, 2))
    assert np.allclose(lf(pts), 2.0)


def test_generator_ou():
    cs = identity_cs(H=["-x1", "-x2"])
    f = parse_expr("norm2(x) + 1", 2)
    lf = apply_generator(cs, None, f, mode="L")
    pts = np.random.default_rng(11).normal(size=(30, 2))
    r2 = np.einsum("ij,ij->i", pts, pts)
    assert np.allclose(lf(pts), 2.0 - 2.0 * r2, atol=1e-12)


def test_generator_adjoint_gaussian_primitive():
    # 1-D non-invariance certificate: L'h = -2x exp(-x^2) + 2 for the
    # Gaussian primitive h = sqrt(pi)/2 (1 + erf(x)) against drift -x - 2 exp(x^2)
    cs = build_coefficient_set([["1"]], G=["-x1 - 2*exp(x1^2)"], d=1)
    rho = DensityField.from_expression("exp(-x1^2)", 1)
    h = parse_expr("0.8862269254527579*(1 + erf(x1))", 1)
    lph = apply_generator(cs, rho, h, mode="L_adjoint")
    xs = np.linspace(-3, 3, 41)[:, None]
    want = -2 * xs[:, 0] * np.exp(-xs[:, 0] ** 2) + 2
    assert np.allclose(lph(xs), want, atol=1e-10)


def test_generator_mode_identities():
    # L uses the drift G = beta + B and L' uses 2 beta - G, so L - L' = 2 <B, grad f>, pointwise
    cs = build_coefficient_set(
        [["1 + x2^2", "0.5"], ["2"]], [["x1"]], ["-x1", "-x2"], d=2
    )
    rho = DensityField.from_expression("exp(-norm2(x))", 2)
    f = parse_expr("x1^2 * x2 + exp(-norm2(x))", 2)
    L = apply_generator(cs, rho, f, mode="L")
    Lp = apply_generator(cs, rho, f, mode="L_adjoint")
    B, _ = decompose_drift(cs, rho, 2.0)
    grads = [parse_expr("2*x1*x2 - 2*x1*exp(-norm2(x))", 2), parse_expr("x1^2 - 2*x2*exp(-norm2(x))", 2)]
    pts = np.random.default_rng(12).uniform(-2, 2, size=(60, 2))
    gvals = np.stack([evaluate(g, pts) for g in grads], axis=-1)
    scale = np.maximum(1.0, np.abs(L(pts)))
    assert np.max(np.abs(L(pts) - Lp(pts) - 2 * np.einsum("ni,ni->n", B(pts), gvals)) / scale) < 1e-10


def test_invariance_residual_unit_drift():
    cs = identity_cs(H=["1", "0"])
    rho = DensityField.from_expression("1", 2)
    f = bump_expression([-1.0, 0.0], [1.9, 1.9], 2)
    rep = invariance_residual(cs, rho, f, 3.0)
    assert abs(rep.residual) <= 1e-8 * rep.scale

    rho2 = DensityField.from_expression("exp(2*x1)", 2)
    rep2 = invariance_residual(cs, rho2, f, 3.0)
    assert abs(rep2.residual) <= 1e-8 * rep2.scale


def test_a_grid_density_is_interpolated_once_on_each_bump(monkeypatch):
    # one set of corner weights for the box mass, then one per bump for rho
    # and its two gradient components together; the divergence residual is
    # that of B = b_field(cs, rho) evaluated on its own
    xs = np.linspace(-3.0, 3.0, 61)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    rho = DensityField(axes=(xs, xs), values=np.exp(-(X**2 + X * Y + Y**2)))
    cs = build_coefficient_set([["1", "0.3"], ["1.5"]], None, ["-x1", "-x2"], d=2)
    f = bump_expression([0.2, -0.1], [1.0, 1.2], 2)
    calls, interp = [], DensityField._interp
    monkeypatch.setattr(
        DensityField, "_interp", lambda self, grids, pts: calls.append((len(pts), len(grids))) or interp(self, grids, pts)
    )
    rep = invariance_residual(cs, rho, f, 3.0)
    rule = calc.gauss_rule(f.lo, f.hi)
    pts = rule.points_and_weights()[0]
    assert calls == [(calc.gauss_rule((-3.0, -3.0), (3.0, 3.0)).points_and_weights()[1].size, 1), (len(pts), 3)]
    _, grad, _ = f.derivatives(rule)
    B = calc.b_field(cs, rho)(pts)
    div_rho = sum(B[:, i] * g for i, g in enumerate(grad)) * rho.rho(pts)
    assert repr(integrate_masked(div_rho, rule)) == repr((rep.divergence, rep.divergence_skipped))
    assert rep.divergence != 0.0


def _same_bits(a, b) -> bool:
    """Equal arrays, bit for bit (``-0.0`` is not ``0.0``), a NaN of either sign matching a NaN."""
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    bits_a, bits_b = (np.where(nan, 0.0, v).view(np.int64) for v, nan in ((a, nan_a), (b, nan_b)))
    return np.array_equal(nan_a, nan_b) and np.array_equal(bits_a, bits_b)


def _reference_reports(cs, rho, bumps, R):
    """The bump residuals as separate evaluations of rho, A, G and B on each
    bump's nodes, summed column by column.  B is b_field's for an analytic
    density; for a grid density beta is div A / 2 + 1/2 sum_j a_ij d_j rho / rho
    of the separately interpolated rho and gradient, summed in order of j:
    the bits of np.einsum in d <= 2 (in d = 3 its vector lanes may add
    (t0 + t2) + t1)."""
    d = cs.d
    mass = abs(integrate(rho.rho, calc.gauss_rule((-R,) * d, (R,) * d)))
    b_field = calc.b_field(cs, rho)
    div_a = calc.VectorField.from_exprs(calc.add_half_divergence([ex.Const(0.0)] * d, cs.a_entry))
    reports = []
    for bump in bumps:
        rule = calc.gauss_rule(bump.lo, bump.hi)
        pts = rule.points_and_weights()[0]
        value, grad, hess = bump.derivatives(rule)
        centre = math.prod(float(bump.factor(k, (a + b) / 2)[0]) for k, (a, b) in enumerate(zip(bump.lo, bump.hi)))
        with np.errstate(all="ignore"):
            r, A, G = rho.rho(pts), cs.eval_A(pts), cs.eval_G(pts)
            if rho.mode == "analytic":
                Bv = b_field(pts)
            else:
                log_grad = rho.grad_rho(pts) / r[:, None]
                a_log_grad = sum(A[:, :, j] * log_grad[:, j, None] for j in range(d))
                if d <= 2:
                    assert _same_bits(a_log_grad, np.einsum("nij,nj->ni", A, log_grad))
                Bv = G - (div_a(pts) + 0.5 * a_log_grad)
            lf = sum((0.5 if i == j else 1.0) * A[:, i, j] * h for (i, j), h in hess.items())
            lf_rho = (lf + sum(G[:, i] * g for i, g in enumerate(grad))) * r
            div_rho = sum(Bv[:, i] * g for i, g in enumerate(grad)) * r
        (res, skipped), (div, div_skipped) = (integrate_masked(v, rule) for v in (lf_rho, div_rho))
        fmax = max(float(value.max()), centre)
        reports.append(calc.ResidualReport(res, div, mass, fmax * mass, skipped, div_skipped))
    return reports


def _diffusions(d):
    """Positive diagonal, non-diagonal and non-constant diffusion matrices, as upper-triangle rows."""
    diagonal = st.lists(st.floats(0.5, 3.0), min_size=d, max_size=d).map(
        lambda v: [[repr(v[i]) if j == i else "0" for j in range(i, d)] for i in range(d)]
    )
    non_diagonal = st.lists(st.floats(-0.4, 0.4), min_size=d * d, max_size=d * d).map(
        lambda v: [["2.0" if j == i else repr(v[i * d + j]) for j in range(i, d)] for i in range(d)]
    )
    varying = st.just(
        [[f"1.5 + 0.5*erf(x{i + 1})" if j == i else f"0.25*erf(x{i + 1} - x{j + 1})" for j in range(i, d)] for i in range(d)]
    )
    return st.one_of(varying, non_diagonal, diagonal)


_DENSITIES = ["exp(x1 - 0.3*norm2(x))", "(1 + 0.5*erf(x1)) / (1 + norm2(x))^2", "exp(-norm2(x))", "1"]


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_generated_residuals_keep_the_bits_of_separate_evaluations(data):
    # the one generated residual program against rho, A, G and B evaluated on
    # their own, for the drawn density and for its samples on a grid of the box;
    # each choice lists its richest case first, which hypothesis draws first
    d = data.draw(st.sampled_from([3, 2, 1]))
    A = data.draw(_diffusions(d))
    H = data.draw(st.lists(_exprs(d), min_size=d, max_size=d))
    C = data.draw(st.one_of(st.just([[f"0.7*x{i + 1}" for _ in range(i + 1, d)] for i in range(d)]), st.none()))
    cs = build_coefficient_set(A, C, H, d=d)
    rho = DensityField.from_expression(data.draw(st.sampled_from(_DENSITIES)), d)
    R = data.draw(st.sampled_from([3.0, 2.5, 2.0]))
    axes = (np.linspace(-R, R, data.draw(st.integers(25, 61))),) * d
    grid = DensityField(axes=axes, values=rho.rho(calc.lattice(axes)).reshape([len(a) for a in axes]))
    bumps = default_bump_library([-R] * d, [R] * d, d)
    for density in (rho, grid):
        assert repr(invariance_residual(cs, density, bumps, R)) == repr(_reference_reports(cs, density, bumps, R))


def test_one_interpolation_of_several_grids_keeps_the_bits_of_each():
    # shared corner weights against one grid at a time: at nodes, inside
    # cells, on the box faces and at points outside the box, which take the
    # edge cell's linear extension
    rng = np.random.default_rng(13)
    for d in (1, 2, 3):
        axes = tuple(np.linspace(-2.0 + 0.1 * k, 1.5 + 0.2 * k, 9 + k) for k in range(d))
        shape = tuple(len(a) for a in axes)
        grids = [rng.uniform(0.5, 2.0, shape) for _ in range(3)]
        rho = DensityField(axes=axes, values=grids[0])
        nodes = calc.lattice(axes)
        inside = rng.uniform([a[0] for a in axes], [a[-1] for a in axes], (200, d))
        faces = inside.copy()
        for p, (k, end) in enumerate(zip(rng.integers(0, d, 200), rng.integers(0, 2, 200))):
            faces[p, k] = (axes[k][0], axes[k][-1])[end]
        outside = rng.uniform([a[0] - 1.0 for a in axes], [a[-1] + 1.0 for a in axes], (200, d))
        for pts in (nodes, inside, faces, outside):
            shared = rho._interp(grids, pts)
            for grid, values in zip(grids, shared):
                assert _same_bits(values, rho._interp([grid], pts)[0])
        # a node's position is rounded in t = (x - x_0) / h, so its value may be mixed with a neighbour's in the last bits
        assert all(np.allclose(v, g.reshape(-1), rtol=1e-13, atol=0.0) for v, g in zip(rho._interp(grids, nodes), grids))
        assert _same_bits(rho.rho(outside), rho._interp([grids[0]], outside)[0])


def test_invariance_residual_non_invariant_pair():
    # L = (1/2) Laplacian against exp(x1) dx: residual = 1/2 int f e^{x1} dx
    cs = identity_cs()
    rho = DensityField.from_expression("exp(x1)", 2)
    f = bump_expression([0.0, 0.0], [2.0, 2.0], 2)
    rep = invariance_residual(cs, rho, f, 3.0)

    bump1d = lambda t: np.maximum(1 - (t / 2.0) ** 2, 0.0) ** 3
    ix, err1 = sci_integrate.quad(lambda t: bump1d(t) * math.exp(t), -2, 2, epsabs=1e-13)
    iy, err2 = sci_integrate.quad(bump1d, -2, 2, epsabs=1e-13)
    oracle = 0.5 * ix * iy
    assert rep.residual == pytest.approx(oracle, rel=1e-6)


def test_invariance_residual_takes_only_bumps():
    # a test function must be a product bump: a bare expression, alone or in
    # a list, has no support box and no factors
    cs = identity_cs()
    rho = DensityField.from_expression("1", 2)
    bare = parse_expr("exp(-norm2(x))", 2)
    wide = bump_expression([0.0, 0.0], [1.5, 1.5], 2)
    for f in (bare, [wide, bare]):
        with pytest.raises(calc.CalculusError, match="Bump"):
            invariance_residual(cs, rho, f, 2.0)
    assert invariance_residual(cs, rho, wide, 2.0).residual == pytest.approx(0.0, abs=1e-14)


def test_default_bump_factors_vanish_at_their_box_ends():
    # each factor and its two derivatives are exactly 0 at lo and hi and
    # outside, so f, its gradient and its Hessian vanish on the support faces
    for d in (1, 2, 3):
        for R in (1.8, 2.5, 2.7, 3.0, 4.0, 5.0):
            for f in default_bump_library([-R] * d, [R] * d, d):
                for k in range(d):
                    ends = np.array([f.lo[k], f.hi[k], -R, R, f.lo[k] - 0.1, f.hi[k] + 0.1])
                    for part in f.factor(k, ends):
                        assert np.all(part == 0.0), (d, R, f.lo, k)


def test_product_bump_derivatives_match_the_symbolic_route():
    # the outer products of the closed-form factors against the piecewise
    # symbolic derivatives of the same product written as an expression, at
    # the rule's nodes: equal to rounding (1e-13 of each array's max)
    for d in (1, 2, 3, 4):
        for f in default_bump_library([-3.0] * d, [3.0] * d, d):
            expr = ex.Const(1.0)
            for k in range(d):
                lo, hi, r = ex.Const(f.lo[k]), ex.Const(f.hi[k]), ex.Const((f.hi[k] - f.lo[k]) / 2)
                t = ex.mul(ex.div(ex.sub(ex.coord(k), lo), r), ex.div(ex.sub(hi, ex.coord(k)), r))
                expr = ex.mul(expr, ex.powc(ex.Max(t, ex.Const(0.0)), 3.0))
            rule = calc.gauss_rule(f.lo, f.hi)
            pts = rule.points_and_weights()[0]
            grad, hess = calc._f_derivatives(expr, d)(pts)
            value, grads, hessians = f.derivatives(rule)
            pairs = [(value, evaluate(expr, pts))]
            pairs += [(grads[i], grad[:, i]) for i in range(d)]
            pairs += [(h, hess[:, i, j]) for (i, j), h in hessians.items()]
            pairs += [(h, hess[:, j, i]) for (i, j), h in hessians.items()]
            assert len(hessians) == d * (d + 1) // 2
            for mine, symbolic in pairs:
                assert np.max(np.abs(mine - symbolic)) <= 1e-13 * np.max(np.abs(symbolic)), (d, f.lo)


def test_skipped_nodes_are_counted_on_the_bump_rule():
    # G1 = 1/(x1 - p) is infinite on the node column x1 = p of the across bump's rule
    across = bump_expression([1.0, 0.0], [1.9, 1.9], 2)  # x1 in [-0.9, 2.9]
    rule = calc.gauss_rule(across.lo, across.hi)
    xs = rule.axis_nodes(0)[0]
    p = float(xs[100])
    cs = identity_cs(H=[f"1/(x1 - {p!r})", "0"])
    rho = DensityField.from_expression("1", 2)
    rep = invariance_residual(cs, rho, across, 3.0)
    assert rep.skipped_points == rep.divergence_skipped == rule.nodes[1] == 256
    assert math.isfinite(rep.residual) and math.isfinite(rep.divergence)
    # x1 in [-2.9, 0.9]: p is not in this bump's box, so none of its nodes is skipped
    away = bump_expression([-1.0, 0.0], [1.9, 1.9], 2)
    rep = invariance_residual(cs, rho, away, 3.0)
    assert (rep.skipped_points, rep.divergence_skipped) == (0, 0)
    assert math.isfinite(rep.residual) and math.isfinite(rep.divergence)


@pytest.mark.parametrize("H, rho, invariant", [
    (["0", "0", "0"], "1", True),
    (["-x1", "-x2", "-x3"], "exp(-norm2(x))", True),
    (["-x1", "-x2", "-x3"], "exp(-0.9*norm2(x))", False),
])
def test_invariance_check_in_d3_at_the_default_tolerance(H, rho, invariant):
    # Brownian motion against Lebesgue measure and OU against its Gaussian are
    # invariant; OU against a wider Gaussian is not
    check = calc.invariance_check(identity_cs(3, H=H), DensityField.from_expression(rho, 3), 3.0)
    assert (check.max_residual <= 1e-8 * check.scale) == invariant
    assert check.skipped_nodes == 0


def test_residual_scale_counts_the_bump_centre():
    # max|f| = 1 at each bump's centre, which no Gauss node hits; the box mass of 1 on [-3, 3]^2 is 36
    check = calc.invariance_check(identity_cs(), DensityField.from_expression("1", 2), 3.0)
    assert check.scale == pytest.approx(36.0, rel=1e-12)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="import raises glibc's mmap threshold only")
def test_a_repeated_invariance_check_reuses_freed_memory():
    # each column of a bump's 2^16-node rule is 512 KiB; below the raised mmap
    # threshold its freed buffer stays in the heap, and the second check
    # touches no fresh page (at glibc's defaults it takes about 22,000 faults)
    resource = pytest.importorskip("resource")
    cs, (rho,) = cli.build_problem(cli.load_config("ou_2d"))
    calc.invariance_check(cs, rho, 3.0)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    calc.invariance_check(cs, rho, 3.0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000, faults


@pytest.mark.parametrize("libc", [
    types.SimpleNamespace(),
    types.SimpleNamespace(mallopt=lambda param, value: 0),
    types.SimpleNamespace(mallopt=lambda param, value: 0 if param == -1 else 1),
], ids=["no-mallopt", "mallopt-refuses", "trim-refused"])
def test_allocator_setting_off_glibc_is_false_and_raises_nothing(libc):
    assert sdelab._keep_freed_memory(libc) is False


def test_allocator_setting_applies_both_thresholds():
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    assert sdelab._keep_freed_memory(libc) is True
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


def test_diffusion_root_identity_and_diag():
    cs = identity_cs()
    assert np.allclose(calc.diffusion_root_batch(cs.eval_A([[0.3, -1.2]])), np.eye(2))
    cs2 = build_coefficient_set([["4", "0"], ["9"]], None, None, d=2)
    assert np.allclose(calc.diffusion_root_batch(cs2.eval_A([[0.0, 0.0]])), np.diag([2.0, 3.0]))


def test_diffusion_root_multiplies_back():
    rng = np.random.default_rng(123)
    M = rng.normal(size=(3, 3))
    A = M @ M.T + 3 * np.eye(3)
    (root,) = calc.diffusion_root_batch(A[None])
    assert np.max(np.abs(root @ root - A)) <= 1e-12 * np.max(np.abs(A))


def test_diffusion_root_locally_lipschitz():
    rng = np.random.default_rng(321)
    M = rng.normal(size=(3, 3))
    A = M @ M.T + 2 * np.eye(3)
    delta = 1e-6
    P = rng.normal(size=(3, 3))
    P = (P + P.T) / 2
    P *= delta / np.max(np.abs(P))
    r0, r1 = calc.diffusion_root_batch(np.stack([A, A + P]))
    assert np.max(np.abs(r1 - r0)) <= 50 * delta


def test_diffusion_root_degenerate_error():
    cs = build_coefficient_set([["x1^2 + 1e-300", "0"], ["1"]], None, None, d=2, probes=np.array([[1.0, 0.0]]))
    with pytest.raises(calc.DegenerateDiffusionError):
        calc.diffusion_root_batch(cs.eval_A([[0.0, 0.0]]))


def test_integrate_constant():
    rule = QuadratureRule(lo=(-1, -1), hi=(1, 1), nodes=(16, 16))
    assert integrate(lambda pts: np.ones(len(pts)), rule) == pytest.approx(4.0, abs=1e-13)


def test_integrate_gaussian():
    rule = QuadratureRule(lo=(-6.0, -6.0), hi=(6.0, 6.0), nodes=(64, 64))
    f = Program(parse_expr("exp(-norm2(x))", 2))
    assert integrate(f, rule) == pytest.approx(math.pi, abs=1e-6)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_polar_rule_gives_lebesgue_ball_volumes(d):
    radii = [0.25, 1.0, 2.0, 3.0, 8.0]
    volumes, skipped = calc.ball_integrals(lambda pts: np.ones(len(pts)), d, radii)
    unit = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    for r, v in zip(radii, volumes):
        assert abs(v / (unit * r**d) - 1.0) <= 1e-13, r
    assert skipped == 0


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_polar_rule_gives_gaussian_ball_masses(d):
    # int_{B_r} exp(-|x|^2) dx = pi^(d/2) P(d/2, r^2), P the regularized lower incomplete gamma
    f = Program(parse_expr("exp(-norm2(x))", d))
    for r in (0.5, 1.0, 3.0, 6.0):
        (mass,), _ = calc.ball_integrals(f, d, [r])
        assert abs(mass / (math.pi ** (d / 2) * scipy.special.gammainc(d / 2, r * r)) - 1.0) <= 1e-8, r


def test_polar_rule_reads_blocks_and_skips_non_finite_values():
    # 1/|x2| is infinite on the x1 axis: at the direction (1, 0) of each shell
    calls = []

    def f(pts):
        calls.append(len(pts))
        return 1.0 / np.abs(pts[:, 1])

    radii = calc.radial_ladder(1e6)
    _, skipped = calc.ball_integrals(f, 2, radii)
    nodes = 2 * (len(radii) - 1) * 256
    assert max(calls) <= 2**16 and sum(calls) == nodes and len(calls) == math.ceil(nodes / 2**16)
    assert skipped == 2 * (len(radii) - 1)


def test_integrate_masked_skips_and_counts_non_finite_nodes():
    rule = QuadratureRule(lo=(-1.0, -1.0), hi=(1.0, 1.0), nodes=(24, 24))
    w = rule.points_and_weights()[1]
    rng = np.random.default_rng(5)
    values = rng.standard_normal(w.size) * 10.0 ** rng.uniform(-200, 200, w.size)
    assert integrate_masked(values, rule) == (np.sum(w * values), 0)
    values[[3, 40, 77]] = [math.inf, math.nan, -math.inf]
    ok = np.isfinite(values)
    assert integrate_masked(values, rule) == (np.sum(w[ok] * values[ok]), 3)


def test_integrate_masked_with_no_finite_node_is_zero_and_skips_every_node():
    rule = QuadratureRule(lo=(-1.0, -1.0), hi=(1.0, 1.0), nodes=(8, 16))
    values = np.full(rule.points_and_weights()[1].size, math.nan)
    values[::3] = math.inf
    values[1::5] = -math.inf
    assert repr(integrate_masked(values, rule)) == repr((0.0, 128))


# values over the whole exponent range (1e+-300 magnitudes, subnormals, +-0.0),
# with cancelling pairs
_sum_terms = st.one_of(
    st.floats(-1e300, 1e300),
    st.builds(lambda m, k: m * 10.0**k, st.floats(-10.0, 10.0), st.integers(-300, 300)),
    st.floats(-(2.0**-1022), 2.0**-1022),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(8,), (64,), (8, 8), (16, 24)]), st.data())
def test_integrate_is_within_the_pairwise_bound_of_fsum(nodes, data):
    rule = QuadratureRule(lo=(-1.5,) * len(nodes), hi=(2.0,) * len(nodes), nodes=nodes)
    w = rule.points_and_weights()[1]
    terms = data.draw(st.lists(_sum_terms, min_size=w.size // 2, max_size=w.size // 2))
    values = np.array(data.draw(st.permutations(terms + [-t for t in terms])), dtype=float)
    products = w * values
    exact = math.fsum(products.tolist())
    bound = 1e-14 * math.fsum(np.abs(products).tolist())
    assert abs(integrate(lambda pts: values, rule) - exact) <= bound
    assert abs(integrate_masked(values, rule)[0] - exact) <= bound


def test_bump_residual_sums_agree_with_fsum(monkeypatch):
    # both pairwise sums of ou_2d's integrands on the widest default bump (2^16 nodes)
    # lie within 1e-14 * sum |w v| of the correctly rounded sum of the same products
    cs, (rho,) = cli.build_problem(cli.load_config("ou_2d"))
    widest = default_bump_library([-3.0] * 2, [3.0] * 2, 2)[0]
    sums, masked = [], calc.integrate_masked
    monkeypatch.setattr(calc, "integrate_masked", lambda v, rule: sums.append((v, rule)) or masked(v, rule))
    invariance_residual(cs, rho, widest, 3.0)
    assert len(sums) == 2
    for values, rule in sums:
        w = rule.points_and_weights()[1]
        ok = np.isfinite(values)
        products = w[ok] * values[ok]
        total, _ = masked(values, rule)
        assert abs(total - math.fsum(products.tolist())) <= 1e-14 * np.sum(np.abs(products))


def test_gauss_rejects_a_node_count_not_a_multiple_of_8():
    for n in (0, 12):
        with pytest.raises(ValueError):
            QuadratureRule(lo=(-1,), hi=(1,), nodes=(n,))


def test_gauss_panels_are_exact_on_degree_15():
    # two 8-point panels on [0, 2]; x^15 has integral 2^16 / 16
    rule = QuadratureRule(lo=(0.0,), hi=(2.0,), nodes=(16,))
    f = Program(parse_expr("x1^15 - 3*x1^7", 1))
    assert integrate(f, rule) == pytest.approx(2.0**16 / 16 - 3 * 2.0**8 / 8, rel=1e-14)


def test_gauss_rule_spends_about_2_to_the_16_nodes():
    counts = [calc.gauss_rule([-1.0] * d, [1.0] * d).nodes for d in (1, 2, 3, 4)]
    assert counts == [(65536,), (256, 256), (40, 40, 40), (16, 16, 16, 16)]


def test_density_grid_mode_gradient():
    xs = np.linspace(-2, 2, 81)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    vals = np.exp(-(X**2 + Y**2))
    rho = DensityField(axes=(xs, xs), values=vals)
    Xi, Yi = np.meshgrid(xs[2:-2], xs[2:-2], indexing="ij")  # interior: 4th order
    pts = np.stack([Xi.reshape(-1), Yi.reshape(-1)], axis=-1)[::37]
    lg = rho.log_grad(pts)
    assert np.max(np.abs(lg + 2 * pts)) < 5e-5


def test_density_positivity_guard():
    xs = np.linspace(-1, 1, 9)
    vals = np.ones((9, 9))
    vals[4, 4] = -0.5
    with pytest.raises(calc.PositivityError):
        DensityField(axes=(xs, xs), values=vals)
