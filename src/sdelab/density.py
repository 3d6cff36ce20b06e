"""Invariant-density solves on exhausting boxes.

The density is the finite-volume solution of the divergence-form balance
``div(1/2 (A + C^T) grad u - u H) = 0`` on ``[-R, R]^d`` with Dirichlet data
(default 1, the exhausting-box construction), normalized so the value at the
origin node is exactly 1.  Fluxes use central differences with coefficients
at face centers; no upwinding, but the cell Peclet number is reported and a
warning is attached above 2.  Every mesh, in d=2 and d=3, is solved by
restarted GMRES preconditioned by a threshold incomplete LU (Saad, *Iterative
Methods for Sparse Linear Systems*, 2nd ed., 2003, ch. 6 and 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import calculus as calc
from . import expr as ex
from .calculus import CoefficientSet, DensityField, ShapeError
from .expr import Expr, evaluate, parse_expr

__all__ = [
    "DensityError",
    "SolverError",
    "BoxMesh",
    "AssembledSystem",
    "DensityApproximation",
    "assemble_system",
    "solve_density",
    "invariance_of_solution",
    "volume_profile",
]

PECLET_WARN = 2.0


class DensityError(Exception):
    pass


class SolverError(DensityError):
    pass


@dataclass(frozen=True)
class BoxMesh:
    """Uniform tensor mesh on ``[-R, R]^d`` with ``n`` cells (n+1 nodes) per axis."""

    R: float
    n: int
    d: int

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ShapeError("mesh needs an even cell count >= 4 so the origin is a node")
        if self.d < 2 or self.d > 3:
            raise ShapeError("density meshes support d in {2, 3}")

    @property
    def h(self) -> float:
        return 2.0 * self.R / self.n

    def axis(self) -> np.ndarray:
        return -self.R + self.h * np.arange(self.n + 1)

    @property
    def nodes_per_axis(self) -> int:
        return self.n + 1

    @property
    def n_interior(self) -> int:
        return (self.n - 1) ** self.d

    @property
    def origin_index(self) -> Tuple[int, ...]:
        return (self.n // 2,) * self.d

    def axes(self) -> Tuple[np.ndarray, ...]:
        a = self.axis()
        return (a,) * self.d


@dataclass
class AssembledSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray
    mesh: BoxMesh
    boundary_values: np.ndarray  # on the full grid, nan at interior nodes
    peclet_max: float
    peclet_warning: bool

    def residual_of(self, values_on_grid: np.ndarray) -> np.ndarray:
        """Apply the interior operator to full-grid samples (max-norm oracle)."""
        interior = _interior_values(values_on_grid, self.mesh)
        return self.matrix @ interior - self.rhs


def _strides(m: BoxMesh) -> np.ndarray:
    npa = m.nodes_per_axis
    return np.array([npa ** (m.d - 1 - k) for k in range(m.d)], dtype=np.int64)


def _interior_multi_indices(m: BoxMesh) -> np.ndarray:
    return calc.lattice([np.arange(1, m.n)] * m.d).astype(np.int64)


def _interior_values(grid: np.ndarray, m: BoxMesh) -> np.ndarray:
    sl = tuple(slice(1, m.n) for _ in range(m.d))
    return grid[sl].reshape(-1)


def assemble_system(
    cs: CoefficientSet, mesh: BoxMesh, boundary: Union[str, Expr] = "ones"
) -> AssembledSystem:
    """Conservative finite-volume discretization of the density balance.

    One row per interior node; Dirichlet data enters the right-hand side.
    Raises on coefficient evaluation failure at a face center.
    """
    d, n, h, R = mesh.d, mesh.n, mesh.h, mesh.R
    if cs.d != d:
        raise ShapeError(f"coefficient set is d={cs.d}, mesh is d={d}")
    M = _interior_multi_indices(mesh)
    N = len(M)
    X = -R + h * M.astype(float)
    strides = _strides(mesh)
    row_of = np.full(mesh.nodes_per_axis**d, -1, dtype=np.int64)
    row_of[M @ strides] = np.arange(N)

    # flux coefficients: Ahat = 1/2 (A + C^T)
    ahat = [
        [ex.mul(ex.Const(0.5), calc.a_plus_ct_entry(cs.a_upper, cs.c_upper, k, j)) for j in range(d)]
        for k in range(d)
    ]

    boundary_grid = _boundary_values(mesh, boundary)

    contribs: Dict[Tuple[int, ...], np.ndarray] = {}

    def add(offset: Tuple[int, ...], coeff: np.ndarray):
        if offset in contribs:
            contribs[offset] = contribs[offset] + coeff
        else:
            contribs[offset] = coeff.copy()

    def ev(expr_, pts):
        vals = evaluate(expr_, pts)
        if not np.all(np.isfinite(vals)):
            k = int(np.argmax(~np.isfinite(vals)))
            raise DensityError(
                f"coefficient evaluation failed at face center {pts[k].tolist()}"
            )
        return vals

    zero = np.zeros(d, dtype=np.int64)
    for k in range(d):
        ek = zero.copy()
        ek[k] = 1
        for s in (+1, -1):
            Xf = X.copy()
            Xf[:, k] += s * h / 2.0
            akk = ev(ahat[k][k], Xf)
            hk = ev(cs.H[k], Xf)
            se_k = tuple(s * ek)
            # diagonal diffusive flux: (s/h) * akk * s * (u_{I+s e_k} - u_I)/h
            add(se_k, akk / h**2)
            add(tuple(zero), -akk / h**2)
            # -u_face * h_k term: (s/h) * (-h_k) * (u_I + u_{I+s e_k})/2
            add(tuple(zero), -(s / h) * hk / 2.0)
            add(se_k, -(s / h) * hk / 2.0)
            for j in range(d):
                if j == k:
                    continue
                if ahat[k][j] == ex.Const(0.0):
                    continue
                akj = ev(ahat[k][j], Xf)
                c = (s / h) * akj / (4.0 * h)
                ej = zero.copy()
                ej[j] = 1
                add(tuple(ej), c)
                add(tuple(-ej), -c)
                add(tuple(s * ek + ej), c)
                add(tuple(s * ek - ej), -c)

    rows_acc: List[np.ndarray] = []
    cols_acc: List[np.ndarray] = []
    vals_acc: List[np.ndarray] = []
    rhs = np.zeros(N)
    eq_rows = np.arange(N)
    for offset, coeff in sorted(contribs.items()):
        cols_multi = M + np.array(offset, dtype=np.int64)
        g = cols_multi @ strides
        r = row_of[g]
        inter = r >= 0
        rows_acc.append(eq_rows[inter])
        cols_acc.append(r[inter])
        vals_acc.append(coeff[inter])
        if np.any(~inter):
            b_idx = tuple(cols_multi[~inter].T)
            rhs[eq_rows[~inter]] -= coeff[~inter] * boundary_grid[b_idx]

    matrix = sp.csr_matrix(
        (np.concatenate(vals_acc), (np.concatenate(rows_acc), np.concatenate(cols_acc))),
        shape=(N, N),
    )
    matrix.eliminate_zeros()

    # cell Peclet |H| h / lambda_min(A) at interior nodes
    A_nodes = cs.eval_A(X)
    lam_min = np.linalg.eigvalsh(A_nodes)[:, 0]
    Hn = np.linalg.norm(cs.eval_H(X), axis=1)
    peclet = float(np.max(Hn * h / lam_min)) if N else 0.0

    return AssembledSystem(
        matrix=matrix,
        rhs=rhs,
        mesh=mesh,
        boundary_values=boundary_grid,
        peclet_max=peclet,
        peclet_warning=peclet > PECLET_WARN,
    )


def _boundary_values(mesh: BoxMesh, boundary: Union[str, Expr]) -> np.ndarray:
    shape = (mesh.nodes_per_axis,) * mesh.d
    grid = np.full(shape, np.nan)
    pts = calc.lattice(mesh.axes())
    mask = np.zeros(shape, dtype=bool)
    for k in range(mesh.d):
        sl0 = [slice(None)] * mesh.d
        sl0[k] = 0
        mask[tuple(sl0)] = True
        sl0[k] = -1
        mask[tuple(sl0)] = True
    flat_mask = mask.reshape(-1)
    if isinstance(boundary, str) and boundary == "ones":
        vals = np.ones(flat_mask.sum())
    else:
        e = parse_expr(boundary, mesh.d) if isinstance(boundary, str) else boundary
        vals = evaluate(e, pts[flat_mask])
    out = grid.reshape(-1)
    out[flat_mask] = vals
    return out.reshape(shape)


@dataclass
class DensityApproximation:
    """Grid values of a computed invariant density, normalized at the origin."""

    mesh: BoxMesh
    values: np.ndarray  # full grid, origin value exactly 1
    positivity_min: float
    valid: bool
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def to_density_field(self) -> DensityField:
        """Export as a grid density; far-field rounding noise is floored.

        Nodes whose value sits below the solver noise floor (these are always
        deep in the tail, where the true values are unresolvable in doubles)
        are replaced by a tiny positive number so the strict-positivity
        contract of :class:`DensityField` holds.  A genuinely non-positive
        approximation (``valid`` False) is refused.
        """
        if not self.valid:
            raise calc.PositivityError(
                f"approximation flagged invalid (min node value {self.positivity_min:.3e})"
            )
        values = np.maximum(self.values, 1e-300)
        return DensityField(axes=self.mesh.axes(), values=values)


def solve_density(
    cs: CoefficientSet,
    R: float,
    n: int,
    boundary: Union[str, Expr] = "ones",
) -> DensityApproximation:
    """Solve the discrete balance normalized so the origin value is exactly 1.

    The raw Dirichlet problem (boundary amplitude pinned) spans ``e^{R^2}``
    decades for confining drifts and is numerically singular in doubles, so
    the system is reparametrized the way the construction itself normalizes:
    the origin value is fixed to 1 and the boundary amplitude ``tau`` becomes
    the extra unknown (a sparse column swap).  The ``tau`` column is scaled
    to the operator's largest entry, the matrix is factored incompletely
    (SuperLU ILUTP: drop tolerance 1e-4, fill factor 10, minimum degree on
    ``A^T + A``) and GMRES(60) runs on that factor to a relative residual of
    1e-13.  A zero boundary column, a singular factor (both "exactly
    singular") or a relative residual above 1e-7 raises :class:`SolverError`.
    The diagnostics give the GMRES ``iterations``, their preconditioned
    ``residual_history`` and the ``factor_nnz`` of L + U.  ``tau`` is
    meaningful only when the boundary column rises above the rounding of the
    operator's largest entry; the diagnostic ``boundary_amplitude_resolved``
    says whether it does.
    """
    mesh = BoxMesh(R=float(R), n=int(n), d=cs.d)
    system = assemble_system(cs, mesh, boundary)
    N = mesh.n_interior
    A = system.matrix
    # the origin's interior index is n/2 - 1 along each axis
    origin_flat = int(np.ravel_multi_index((mesh.n // 2 - 1,) * mesh.d, (mesh.n - 1,) * mesh.d))
    boundary_col = -system.rhs  # couples the (unit) boundary profile, scaled by tau
    rows_b = np.nonzero(boundary_col)[0]
    if len(rows_b) == 0:
        raise SolverError("the boundary column is zero, so the normalized system is exactly singular")
    # scale the tau column up to the operator's largest entry, so that GMRES
    # resolves it even where the boundary data sit below the operator's rounding
    scale = float(np.max(np.abs(A.data)) / np.max(np.abs(boundary_col)))
    coo = A.tocoo()
    keep = coo.col != origin_flat
    M = sp.csc_matrix(
        (
            np.concatenate([coo.data[keep], scale * boundary_col[rows_b]]),
            (
                np.concatenate([coo.row[keep], rows_b]),
                np.concatenate([coo.col[keep], np.full(len(rows_b), origin_flat)]),
            ),
        ),
        shape=(N, N),
    )
    r = -np.asarray(A[:, origin_flat].todense()).ravel()

    try:
        ilu = spla.spilu(M, drop_tol=1e-4, fill_factor=10, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        raise SolverError(f"incomplete LU failed: {err}") from err
    history: List[float] = []
    x, _ = spla.gmres(
        M, r, rtol=1e-13, atol=0.0, restart=60, maxiter=10,
        M=spla.LinearOperator((N, N), ilu.solve), callback=history.append, callback_type="pr_norm",
    )
    res = float(np.linalg.norm(r - M @ x) / max(np.linalg.norm(r), 1e-300))
    if not np.all(np.isfinite(x)) or res > 1e-7:
        raise SolverError(f"linear solve failed (relative residual {res:.3e})")

    tau = scale * float(x[origin_flat])
    interior = x.copy()
    interior[origin_flat] = 1.0
    grid = tau * system.boundary_values
    sl = tuple(slice(1, mesh.n) for _ in range(mesh.d))
    grid[sl] = interior.reshape((mesh.n - 1,) * mesh.d)

    if not np.isfinite(tau) or tau == 0.0:
        raise SolverError(f"degenerate boundary amplitude tau={tau!r}")
    pos_min = float(grid.min())
    # tolerate far-field rounding noise below the solve's error floor
    return DensityApproximation(
        mesh=mesh,
        values=grid,
        positivity_min=pos_min,
        valid=pos_min > -1e-10 * float(np.max(grid)),
        diagnostics={
            "method": "gmres-ilu",
            "relative_residual": res,
            "iterations": len(history),
            "residual_history": history,
            "factor_nnz": int(ilu.L.nnz + ilu.U.nnz),
            "boundary_amplitude_tau": tau,
            "boundary_amplitude_resolved": bool(
                np.max(np.abs(boundary_col)) > 2.0**-52 * np.max(np.abs(A.data))
            ),
            "peclet_max": system.peclet_max,
            "peclet_warning": system.peclet_warning,
            "boundary": boundary if isinstance(boundary, str) else ex.to_source(boundary),
        },
    )


def invariance_of_solution(cs: CoefficientSet, approx: DensityApproximation) -> calc.InvarianceCheck:
    """Quadrature residuals of the solved density against the bump library."""
    return calc.invariance_check(cs, approx.to_density_field(), approx.mesh.R)


def volume_profile(rho: DensityField, radii: Sequence[float], *, d: int) -> Dict[str, object]:
    """Measures ``mu(B_r)`` of balls by the polar rule
    (:func:`~sdelab.calculus.ball_integrals`), each radius a panel end, and
    the number of skipped nodes."""
    radii = [float(r) for r in radii]
    if rho.mode == "grid":
        box = float(rho.axes[0][-1])
        if max(radii) > box + 1e-12:
            raise DensityError(f"radius {max(radii)} exceeds meshed domain [{-box}, {box}]")
    mu, skipped = calc.ball_integrals(rho.rho, d, radii)
    return {"mu_ball": dict(zip(radii, mu.tolist())), "skipped_nodes": skipped}
