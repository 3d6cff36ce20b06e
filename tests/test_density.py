import math

import numpy as np
import pytest

from sdelab import criteria as crit
from sdelab import density
from sdelab.calculus import DensityField, build_coefficient_set, lattice
from sdelab.cli import build_problem
from sdelab.density import (
    BoxMesh,
    SolverError,
    assemble_system,
    invariance_of_solution,
    solve_density,
    volume_profile,
)
from sdelab.expr import evaluate, parse_expr


def cs_identity(H=None, d=2):
    A = [["1" if j == i else "0" for j in range(i, d)] for i in range(d)]
    return build_coefficient_set(A, None, H, d=d)


def cs_ou(rate=1.0, d=2):
    # H = -rate*x pairs with the exact density exp(-rate*|x|^2):
    # 1/2 grad rho - rho H = 0 pointwise
    H = [f"-{rate}*x{i+1}" for i in range(d)]
    return cs_identity(H=H, d=d)


def grid_points(mesh):
    return lattice(mesh.axes())


def ladder_errors(cs, R, ns, boundary, exact):
    """Max error over the grid of the solve on ``n`` cells per axis, for each
    ``n`` in ``ns``, against ``exact`` scaled to 1 at the origin."""
    errs = []
    for n in ns:
        approx = solve_density(cs, R, n, boundary)
        want = evaluate(parse_expr(exact, cs.d), grid_points(approx.mesh)).reshape(approx.values.shape)
        errs.append(float(np.max(np.abs(approx.values - want / want[approx.mesh.origin_index]))))
    return errs


def test_mesh_basics():
    mesh = BoxMesh(R=2.0, n=8, d=2)
    assert mesh.h == 0.5
    assert mesh.axis()[0] == -2.0 and mesh.axis()[-1] == 2.0
    assert mesh.n_interior == 49
    assert mesh.axis()[mesh.origin_index[0]] == 0.0


def test_laplace_stencil_counts():
    # identity diffusion on a tiny mesh: 9 interior rows, <= 5 nonzeros each
    cs = cs_identity()
    system = assemble_system(cs, BoxMesh(R=1.0, n=4, d=2))
    assert system.matrix.shape == (9, 9)
    per_row = np.diff(system.matrix.indptr)
    assert per_row.max() <= 5
    # constant vector lies in the kernel of the interior operator (flux of a
    # constant vanishes); with boundary ones the rhs completes the balance
    ones = np.ones(system.mesh.nodes_per_axis**2).reshape(5, 5)
    assert np.max(np.abs(system.residual_of(ones))) < 1e-14


def test_manufactured_residual_second_order():
    cs = cs_ou()
    errs = []
    for n in (32, 64):
        mesh = BoxMesh(R=4.0, n=n, d=2)
        system = assemble_system(cs, mesh, boundary="exp(-norm2(x))")
        pts = grid_points(mesh)
        exact = evaluate(parse_expr("exp(-norm2(x))", 2), pts).reshape(
            (mesh.nodes_per_axis,) * 2
        )
        errs.append(float(np.max(np.abs(system.residual_of(exact)))))
    assert errs[0] / errs[1] >= 3.5


def test_solve_constant_density_exact():
    cs = cs_identity()
    approx = solve_density(cs, R=2.0, n=16, boundary="ones")
    assert approx.valid
    assert approx.values[approx.mesh.origin_index] == 1.0
    assert np.max(np.abs(approx.values - 1.0)) < 1e-10


def test_solve_manufactured_ou():
    cs = cs_ou()
    approx = solve_density(cs, R=4.0, n=128, boundary="exp(-norm2(x))")
    mesh = approx.mesh
    pts = grid_points(mesh)
    exact = evaluate(parse_expr("exp(-norm2(x))", 2), pts).reshape(approx.values.shape)
    err = np.max(np.abs(approx.values - exact))
    assert err <= 5e-3
    assert approx.valid
    assert approx.diagnostics["peclet_max"] <= 2.0


@pytest.mark.parametrize(
    "d, rate, R, n",
    [(2, 10.0, 2.0, 128), (3, 1.0, 4.0, 16)],
    ids=["d2-rate10-n128", "d3-n16"],
)
def test_sparse_lu_solves_dirichlet_system(d, rate, R, n):
    cs = cs_ou(rate=rate, d=d)
    boundary = f"exp(-{rate}*norm2(x))"
    approx = solve_density(cs, R=R, n=n, boundary=boundary)
    diag = approx.diagnostics
    assert diag["method"] == "sparse-lu"
    assert diag["iterations"] == 0
    assert diag["relative_residual"] <= 1e-12
    assert approx.values[approx.mesh.origin_index] == 1.0
    # undo the origin normalization: the grid divided by tau carries the
    # original boundary data and must satisfy the unnormalized Dirichlet
    # system up to rounding.  The scale is max(|A| |u| + |b|), not |b| alone:
    # at rate 10 the boundary data exp(-40) sits below the rounding of the
    # interior terms, so a residual relative to |b| alone measures rounding.
    system = assemble_system(cs, approx.mesh, boundary)
    u = approx.values / diag["boundary_amplitude_tau"]
    interior = u[(slice(1, n),) * d].reshape(-1)
    scale = np.max(abs(system.matrix) @ np.abs(interior) + np.abs(system.rhs))
    assert np.max(np.abs(system.residual_of(u))) <= 1e-13 * scale


def test_singular_factor_raises_solver_error(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(density.spla, "splu", singular)
    with pytest.raises(SolverError, match="exactly singular"):
        solve_density(cs_ou(), R=2.0, n=8)


def test_solve_manufactured_ou_order():
    errs = ladder_errors(cs_ou(), 4.0, (64, 128), "exp(-norm2(x))", "exp(-norm2(x))")
    assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2


@pytest.mark.parametrize(
    "d, A, C, rho, ns",
    [
        (
            2,
            [["2", "0.8*x1/sqrt(1 + x1^2)"], ["1.5"]],
            [["x1*x2"]],
            "exp(-(x1^2 + x1*x2 + x2^2 + x1^4/4))",
            (32, 64, 128),
        ),
        (
            3,
            [["1", "0.3*x2/sqrt(1 + x2^2)", "0"], ["1", "0"], ["1"]],
            [["x1*x2", "0"], ["x3"]],
            "exp(-(norm2(x) + 0.5*x1*x3))",
            (16, 32),
        ),
    ],
    ids=["d2-n32-64-128", "d3-n16-32"],
)
def test_manufactured_ladder_with_variable_c(d, A, C, rho, ns):
    # H = 1/2 (A + C^T) grad(rho)/rho makes the flux 1/2 (A + C^T) grad u - u H
    # vanish at u = rho, so rho solves the problem with boundary rho; the mixed
    # terms and a variable C (a constant C cancels in the central scheme) are
    # checked against an exact answer.  Coarse solves can dip below zero
    # (valid False: d=3 n=16, d=2 n=32 and 64), so the error is asserted, not valid.
    cfg = {
        "schema_version": 1,
        "name": "manufactured",
        "dimension": d,
        "coefficients": {"A": A, "C": C, "H": {"beta_of_density": 0}},
        "density": {"analytic": [rho]},
    }
    cs, _ = build_problem(cfg)
    errs = ladder_errors(cs, 3.0, ns, rho, rho)
    assert all(fine < coarse for coarse, fine in zip(errs, errs[1:])), errs
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errs, errs[1:])]
    assert min(orders) >= 1.8, orders


def test_convergence_exact_on_linears():
    errs = ladder_errors(cs_identity(), 1.0, (8, 16), "1 + x1", "1 + x1")
    assert max(errs) < 1e-12


def test_advection_dominated_order_does_not_diverge():
    errs = ladder_errors(cs_ou(rate=10.0), 2.0, (64, 128), "exp(-10*norm2(x))", "exp(-10*norm2(x))")
    assert 1.5 <= math.log2(errs[0] / errs[1]) <= 2.2


def test_boundary_ones_exhaustion():
    # the exhausting-box construction: boundary 1, normalize at the origin;
    # the R=6 and R=8 solves (same h) agree on the inner quarter box
    cs = cs_ou()
    a6 = solve_density(cs, R=6.0, n=96, boundary="ones")
    a8 = solve_density(cs, R=8.0, n=128, boundary="ones")
    f6 = a6.to_density_field()
    f8 = a8.to_density_field()
    xs = np.linspace(-1.5, 1.5, 25)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([X.reshape(-1), Y.reshape(-1)], axis=-1)
    v6 = f6.rho(pts)
    v8 = f8.rho(pts)
    assert np.max(np.abs(v6 - v8) / v8) < 0.05


def test_boundary_ones_tracks_gaussian():
    # at h = 0.0625 the normalized boundary-ones solution stays within 5%
    # (in ratio spread) of the true invariant density on [-2, 2]^2
    cs = cs_ou()
    a = solve_density(cs, R=6.0, n=192, boundary="ones")
    ax = a.mesh.axis()
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    mask = (np.abs(X) <= 2.0001) & (np.abs(Y) <= 2.0001)
    ratio = a.values[mask] / np.exp(-(X[mask] ** 2 + Y[mask] ** 2))
    assert ratio.max() / ratio.min() - 1.0 < 0.05
    assert a.valid  # far-field noise at the solver floor is tolerated


def test_nested_boxes_symmetric_case():
    cs = cs_identity()
    a1 = solve_density(cs, R=2.0, n=16, boundary="ones")
    a2 = solve_density(cs, R=4.0, n=32, boundary="ones")
    # rho == 1 exactly on both boxes
    assert np.max(np.abs(a1.values - 1)) < 1e-10
    assert np.max(np.abs(a2.values - 1)) < 1e-10


def test_mesh_determinism():
    cs = cs_ou()
    a = solve_density(cs, R=3.0, n=48, boundary="ones")
    b = solve_density(cs, R=3.0, n=48, boundary="ones")
    assert np.array_equal(a.values, b.values)


def test_invariance_of_solution_constant():
    cs = cs_identity()
    approx = solve_density(cs, R=3.0, n=32, boundary="ones")
    rep = invariance_of_solution(cs, approx)
    assert rep.max_residual <= 1e-8 * rep.scale
    assert rep.max_divergence <= 1e-8  # B = G - beta vanishes for a constant density


def test_invariance_of_solution_manufactured_decreases():
    cs = cs_ou()
    res = []
    scales = []
    for n in (64, 128):
        approx = solve_density(cs, R=4.0, n=n, boundary="exp(-norm2(x))")
        rep = invariance_of_solution(cs, approx)
        res.append(rep.max_residual)
        scales.append(rep.scale)
    assert res[1] <= 1e-3 * scales[1]
    assert res[0] / res[1] >= 3.5


def test_invariance_analytic_tilted_unit_drift():
    cs = cs_identity(H=["1", "0"])
    rho = DensityField.from_expression("exp(2*x1)", 2)
    from sdelab.calculus import bump_expression, invariance_residual

    f = bump_expression([-1.0, 0.0], [1.9, 1.9], 2)
    rep = invariance_residual(cs, rho, f, 3.0)
    assert abs(rep.residual) <= 1e-8 * rep.scale


def test_volume_profile_lebesgue():
    rho = DensityField.from_expression("1", 2)
    prof = volume_profile(rho, [1.0, 2.0], d=2, nodes=401)
    assert prof["mu_ball"][2.0] == pytest.approx(math.pi * 4, rel=0.02)
    assert prof["mu_ball"][1.0] == pytest.approx(math.pi, rel=0.02)


def test_volume_profile_bounded_density_polynomial_growth():
    # bounded density: mu(B_r) <= 2 pi r^2 (measure with cap 2 on a bump train)
    rho = DensityField.from_expression("1 + exp(-norm2(x))", 2)
    prof = volume_profile(rho, [1.0, 2.0, 4.0], d=2, nodes=401)
    for r, v in prof["mu_ball"].items():
        assert v <= 2 * math.pi * r * r * 1.02


def test_boundary_amplitude_resolved_flags_rounding_noise():
    # rate 10 on R=2: the boundary data exp(-40) sit below the operator's
    # rounding, so tau is noise; rate 1 on R=4 resolves it
    for rate, R, resolved in ((10.0, 2.0, False), (1.0, 4.0, True)):
        approx = solve_density(cs_ou(rate), R, 64, parse_expr(f"exp(-{rate}*norm2(x))", 2))
        assert approx.diagnostics["boundary_amplitude_resolved"] is resolved


def test_volume_profile_returns_test_integrands():
    # planar BM data: v1(r) = pi r^2 exactly, v2 vanishes
    cs = cs_identity()
    rho = DensityField.from_expression("1", 2)
    rr, v1, v2 = crit.volume_test_integrands(cs, rho, None, 4.0)
    for r in (2.0, 4.0):
        assert np.interp(r, rr, v1) == pytest.approx(math.pi * r * r, rel=1e-3)
        assert np.interp(r, rr, v2) == pytest.approx(0.0, abs=1e-12)


def test_volume_profile_radius_guard():
    xs = np.linspace(-2, 2, 17)
    vals = np.ones((17, 17))
    rho = DensityField(axes=(xs, xs), values=vals)
    from sdelab.density import DensityError

    with pytest.raises(DensityError):
        volume_profile(rho, [5.0], d=2)
