"""Coefficient sets, drift decomposition, generators and quadrature.

The drift of a divergence-form operator
``L f = 1/2 div((A + C) grad f) + <H, grad f>`` is assembled symbolically as
``g_i = 1/2 sum_j d_j(a_ij + c_ji) + h_i``.  Given a strictly positive density
``rho``, the drift splits as ``G = beta + B`` where
``beta_i = 1/2 sum_j (d_j a_ij + a_ij d_j rho / rho)`` and ``B`` has zero
divergence against ``rho dx``; ``L`` has drift ``G`` and its mu-adjoint
``L'`` has ``2 beta - G`` (:func:`generator_drift`).  Both properties of a
density are checked by quadrature against compactly supported bump test
functions ``f``, in one pass of :func:`invariance_residual`: infinitesimal invariance
``integral (L f) rho dx = 0`` and the divergence condition
``integral <B, grad f> rho dx = 0``.  Each bump is a product of 1-d
factors that vanish at the ends of its support box, and is integrated on
its own composite Gauss-Legendre product rule over that box
(:func:`gauss_rule`); its value, gradient and Hessian there are outer
products of the factors and their closed-form derivatives.  Every integral
over balls ``B_r`` reads one polar rule (:func:`ball_integrals`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.special

from . import expr as ex
from .expr import (
    Const,
    Expr,
    Program,
    batched,
    differentiate,
    gradient,
    mul,
    parse_expr,
    sub,
)

__all__ = [
    "CalculusError",
    "ShapeError",
    "EllipticityError",
    "PositivityError",
    "DegenerateDiffusionError",
    "CoefficientSet",
    "DensityField",
    "QuadratureRule",
    "gauss_rule",
    "sphere_rule",
    "radial_ladder",
    "gauss2_panels",
    "ball_integrals",
    "Bump",
    "VectorField",
    "build_coefficient_set",
    "upper_triangle",
    "coefficient_triangles",
    "a_plus_ct_entry",
    "add_half_a_log_grad",
    "add_half_divergence",
    "log_derivative_beta",
    "b_field",
    "decompose_drift",
    "generator_drift",
    "apply_generator",
    "invariance_residual",
    "invariance_check",
    "diffusion_root_batch",
    "lattice",
    "integrate",
    "default_bump_library",
    "bump_expression",
]


class CalculusError(Exception):
    pass


class ShapeError(CalculusError):
    """Matrix/vector shapes inconsistent with the declared dimension."""


class EllipticityError(CalculusError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PositivityError(CalculusError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DegenerateDiffusionError(CalculusError):
    """A diffusion matrix too close to singular for a square root."""


# ---------------------------------------------------------------------------
# fields


class VectorField:
    """Point function ``(n, d) -> (n, m)``: a compiled program or a raw callable."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self._fn = fn

    @batched
    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self._fn(pts)

    @classmethod
    def from_exprs(cls, exprs: Sequence[Expr]) -> "VectorField":
        return cls(Program(tuple(exprs)))


# ---------------------------------------------------------------------------
# coefficient sets


@dataclass(frozen=True)
class CoefficientSet:
    """Problem data: diffusion matrix A, antisymmetric part C, perturbation H.

    Only upper triangles of A and C are stored; the full matrices are
    reconstructed so symmetry/antisymmetry hold exactly.  Of ``H`` and ``G``
    the one declared is stored as given and the other is derived
    symbolically.  ``integrability_p`` is declared metadata (the local
    integrability order of H) and is never certified here.
    """

    d: int
    a_upper: Tuple[Tuple[Expr, ...], ...]  # row i holds entries j = i .. d-1
    c_upper: Tuple[Tuple[Expr, ...], ...]  # row i holds entries j = i+1 .. d-1
    H: Tuple[Expr, ...]
    G: Tuple[Expr, ...]
    integrability_p: Optional[float] = None

    def a_entry(self, i: int, j: int) -> Expr:
        return _symmetric_entry(self.a_upper, i, j)

    def c_entry(self, i: int, j: int) -> Expr:
        return _antisymmetric_entry(self.c_upper, i, j)

    @property
    def C(self) -> List[List[Expr]]:
        return [[self.c_entry(i, j) for j in range(self.d)] for i in range(self.d)]

    @cached_property
    def _A_program(self) -> Program:
        return _a_program(self.a_upper)

    @cached_property
    def _G_field(self) -> VectorField:
        return VectorField.from_exprs(self.G)

    @cached_property
    def _H_field(self) -> VectorField:
        return VectorField.from_exprs(self.H)

    def eval_A(self, pts) -> np.ndarray:
        """``A`` at ``(n, d)`` points as ``(n, d, d)``, or at one point as ``(d, d)``."""
        out = self._A_program(pts)
        return out.reshape(out.shape[:-1] + (self.d, self.d))

    @cached_property
    def cholesky(self) -> Tuple[Expr, ...]:
        """The lower Cholesky factor ``L`` of ``A`` row by row, constants folded
        (Golub & Van Loan, *Matrix Computations*, 4.2; each sum in order), then
        ``min_j p_j - 1e-12 trace(A)`` over the pivots ``p_j = L_jj^2``: not
        positive (or NaN) where ``A`` is degenerate.  No ``p_j`` is below ``A``'s
        least eigenvalue."""
        L, pivots = [], []
        for i in range(self.d):
            L.append([])
            for j in range(i + 1):
                s = reduce(sub, (mul(L[i][k], L[j][k]) for k in range(j)), self.a_entry(i, j))
                L[i].append(ex.fold_const(ex.div(s, L[j][j]) if j < i else ex.Sqrt(s)))
            pivots.append(s)  # j = i
        trace = reduce(ex.add, (self.a_entry(j, j) for j in range(self.d)))
        margin = sub(reduce(ex.Min, pivots), mul(Const(1e-12), trace))
        return tuple(e for row in L for e in row) + (ex.fold_const(margin),)

    def eval_G(self, pts) -> np.ndarray:
        return self._G_field(pts)

    def eval_H(self, pts) -> np.ndarray:
        return self._H_field(pts)


def upper_triangle(M, d: int, kind: str) -> Tuple[Tuple[Expr, ...], ...]:
    """The upper triangle of a ``symmetric`` or ``antisymmetric`` matrix given
    as ragged upper-triangle rows or as a full, structurally consistent one;
    raises :class:`ShapeError` otherwise."""
    rows = [list(r) for r in M]
    strict = kind == "antisymmetric"
    want_ragged = [d - i - (1 if strict else 0) for i in range(d)]
    if len(rows) < d and all(n == 0 for n in want_ragged[len(rows) :]):
        rows = rows + [[] for _ in range(d - len(rows))]
    if [len(r) for r in rows] == want_ragged:
        return tuple(tuple(_coerce(e, d) for e in r) for r in rows)
    if len(rows) == d and all(len(r) == d for r in rows):
        full = [[_coerce(e, d) for e in r] for r in rows]
        for i in range(d):
            for j in range(d):
                if i == j and strict and full[i][i] != Const(0.0) and full[i][i] != Const(-0.0):
                    raise ShapeError(f"{kind} matrix must have zero diagonal, entry ({i},{i})")
                if i < j:
                    mirror = full[j][i]
                    want = mul(Const(-1.0), full[i][j]) if strict else full[i][j]
                    if mirror != want and not _mirror_ok(full[i][j], mirror, strict):
                        raise ShapeError(
                            f"{kind} structure violated at entries ({i},{j})/({j},{i})"
                        )
        if strict:
            return tuple(tuple(full[i][j] for j in range(i + 1, d)) for i in range(d))
        return tuple(tuple(full[i][j] for j in range(i, d)) for i in range(d))
    raise ShapeError(
        f"{kind} matrix for d={d}: give ragged upper-triangle rows "
        f"(lengths {want_ragged}) or a full structurally consistent matrix"
    )


def _mirror_ok(upper: Expr, lower: Expr, strict: bool) -> bool:
    # constants may be written out numerically on both sides
    cu, cl = ex.fold_const(upper), ex.fold_const(lower)
    return isinstance(cu, Const) and isinstance(cl, Const) and cl.value == (-cu.value if strict else cu.value)


def _coerce(e, d: int) -> Expr:
    if isinstance(e, Expr):
        return e
    if isinstance(e, (int, float)):
        return Const(float(e))
    if isinstance(e, str):
        return parse_expr(e, d)
    raise TypeError(f"cannot coerce {e!r} to an expression")


def _symmetric_entry(upper, i: int, j: int) -> Expr:
    return upper[i][j - i] if i <= j else upper[j][i - j]


def _antisymmetric_entry(upper, i: int, j: int) -> Expr:
    if i == j:
        return Const(0.0)
    if i < j:
        return upper[i][j - i - 1]
    return mul(Const(-1.0), upper[j][i - j - 1])


def a_plus_ct_entry(a_upper, c_upper, i: int, j: int) -> Expr:
    """Entry ``(i, j)`` of ``A + C^T``, ``a_ij + c_ji``, from the stored upper
    triangles: the matrix of the drift, the flux and ``beta_of_density``."""
    return ex.add(_symmetric_entry(a_upper, i, j), _antisymmetric_entry(c_upper, j, i))


def coefficient_triangles(A, C, d: int):
    """The stored upper triangles of ``A`` and of ``C`` (zero when ``None``)."""
    if C is None:
        C = [[Const(0.0)] * (d - i - 1) for i in range(d)]
    return upper_triangle(A, d, "symmetric"), upper_triangle(C, d, "antisymmetric")


def _a_program(a_upper) -> Program:
    d = len(a_upper)
    return Program([_symmetric_entry(a_upper, i, j) for i in range(d) for j in range(d)])


def probe_ellipticity(a_upper, pts: np.ndarray) -> None:
    """Raises unless ``A`` is finite and positive definite at every probe point."""
    d = len(a_upper)
    A = _a_program(a_upper)(pts).reshape(len(pts), d, d)
    bad = ~np.isfinite(A).all(axis=(1, 2))
    if bad.any():
        witness = tuple(float(v) for v in pts[int(np.argmax(bad))])
        raise EllipticityError(f"A is not finite at probe {witness}", witness=witness)
    mins = np.linalg.eigvalsh(A)[:, 0]
    k = int(np.argmin(mins))
    if mins[k] <= 0:
        witness = tuple(float(v) for v in pts[k])
        raise EllipticityError(
            f"A is not positive definite at probe {witness}: min eigenvalue {float(mins[k]):.3e}",
            witness=witness,
        )


def default_probes(d: int) -> np.ndarray:
    """1000 seeded uniform points in ``[-5, 5]^d``, the first at the origin."""
    rng = np.random.default_rng(20240)
    pts = rng.uniform(-5.0, 5.0, size=(1000, d))
    pts[0] = 0.0
    return pts


def _drift_vector(v, d: int, name: str) -> Tuple[Expr, ...]:
    out = tuple(_coerce(e, d) for e in v)
    if len(out) != d:
        raise ShapeError(f"{name} must have {d} components, got {len(out)}")
    return out


def build_coefficient_set(
    A,
    C=None,
    H=None,
    *,
    G=None,
    d: int,
    probes: Optional[np.ndarray] = None,
    integrability_p: Optional[float] = None,
) -> CoefficientSet:
    """Validate shapes, derive the drift symbolically, probe ellipticity.

    ``g_i = h_i + 1/2 sum_j d_j(a_ij + c_ji)``.  Give at most one of ``H`` and
    ``G`` (neither means ``H = 0``): the one given is stored as given and the
    other is derived.  The upper triangles of A and C are the stored
    representation, so symmetry is exact by construction.
    """
    if H is not None and G is not None:
        raise CalculusError("give at most one of H and G")
    a_upper, c_upper = coefficient_triangles(A, C, d)
    m = partial(a_plus_ct_entry, a_upper, c_upper)
    if G is None:
        Hv = _drift_vector([Const(0.0)] * d if H is None else H, d, "H")
        Gv = add_half_divergence(Hv, m)
    else:
        Gv = _drift_vector(G, d, "G")
        Hv = tuple(sub(g, half_div) for g, half_div in zip(Gv, add_half_divergence([Const(0.0)] * d, m)))

    if probes is None:
        probes = default_probes(d)
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[1] != d or len(probes) == 0:
        raise ShapeError("probes must be a non-empty (n, d) array")
    probe_ellipticity(a_upper, probes)
    return CoefficientSet(d=d, a_upper=a_upper, c_upper=c_upper, H=Hv, G=Gv, integrability_p=integrability_p)


# ---------------------------------------------------------------------------
# densities


class DensityField:
    """Density, either analytic or values on a tensor grid; grid values must
    be strictly positive (declared analytic densities are checked at load)."""

    def __init__(
        self,
        *,
        expr: Optional[Expr] = None,
        axes: Optional[Tuple[np.ndarray, ...]] = None,
        values: Optional[np.ndarray] = None,
    ):
        if (expr is None) == (values is None):
            raise ValueError("give exactly one of expr= or (axes=, values=)")
        self.expr = expr
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes) if axes is not None else None
        self.values = np.ascontiguousarray(values, dtype=float) if values is not None else None
        self._grad_programs: dict = {}  # analytic mode: d -> program of [d_1 rho, ..., d_d rho]
        if self.values is not None:
            if self.axes is None or self.values.shape != tuple(len(a) for a in self.axes):
                raise ShapeError("grid values must match the axes shape")
            if self.values.min() <= 0:
                k = np.unravel_index(int(np.argmin(self.values)), self.values.shape)
                witness = tuple(float(self.axes[i][k[i]]) for i in range(len(self.axes)))
                raise PositivityError(
                    f"density not strictly positive on grid (min {self.values.min():.3e})",
                    witness=witness,
                )
        else:
            self._rho = Program(self.expr)

    # -- construction helpers

    @classmethod
    def from_expression(cls, e: Union[str, Expr], d: int) -> "DensityField":
        if isinstance(e, str):
            e = parse_expr(e, d)
        return cls(expr=e)

    @property
    def mode(self) -> str:
        return "analytic" if self.expr is not None else "grid"

    # -- evaluation

    @batched
    def rho(self, pts: np.ndarray) -> np.ndarray:
        if self.expr is not None:
            return self._rho(pts)
        return self._interp([self.values], pts)[0]

    @batched
    def grad_rho(self, pts: np.ndarray) -> np.ndarray:
        if self.expr is not None:
            d = pts.shape[1]
            if d not in self._grad_programs:
                self._grad_programs[d] = Program(gradient(self.expr, d, piecewise=True))
            return self._grad_programs[d](pts)
        return np.stack(self._interp(self._grad_grids, pts), axis=-1)

    @batched
    def log_grad(self, pts: np.ndarray) -> np.ndarray:
        """grad(rho)/rho; raises if rho <= 0 at an evaluation point."""
        r, *grad = self._rho_and_grad(pts)
        return np.stack(grad, axis=-1) / r[:, None]

    def _rho_and_grad(self, pts: np.ndarray) -> List[np.ndarray]:
        """The density and its ``d`` gradient components at ``(n, d)`` points,
        a grid density's from one set of corner weights; raises where the
        density is not positive."""
        if self.expr is None:
            r, *grad = self._interp([self.values, *self._grad_grids], pts)
        else:
            r, *grad = [self._rho(pts), *self.grad_rho(pts).T]
        if np.any(~np.isfinite(r)) or np.any(r <= 0):
            bad = pts[np.argmin(r)]
            msg = f"density non-positive at evaluation point {bad.tolist()}"
            raise PositivityError(msg, witness=tuple(map(float, bad)))
        return [r, *grad]

    @cached_property
    def _grad_grids(self) -> List[np.ndarray]:
        return [_grid_derivative(self.values, self.axes, axis) for axis in range(len(self.axes))]

    def _interp(self, grids: Sequence[np.ndarray], pts: np.ndarray) -> List[np.ndarray]:
        """Multilinear interpolation of each of ``grids`` (shaped as ``values``) at
        ``(n, d)`` points from one set of corner weights: a node's value at a node (to the
        rounding of its position), and linear in the edge cell outside the box."""
        strides = np.cumprod((1,) + self.values.shape[:0:-1])[::-1]  # flat index step per axis
        ends = []  # per axis: (flat offset, weight) of the cell's lower and upper node
        for axis, ax in enumerate(self.axes):
            h = ax[1] - ax[0]
            t = (pts[:, axis] - ax[0]) / h
            i0 = np.clip(np.floor(t).astype(int), 0, len(ax) - 2)
            frac = t - i0
            ends.append(((i0 * strides[axis], 1.0 - frac), ((i0 + 1) * strides[axis], frac)))
        flats = [grid.reshape(-1) for grid in grids]
        outs = [np.zeros(pts.shape[0]) for _ in grids]
        for corner in range(1 << len(ends)):
            k, w = 0, np.ones(pts.shape[0])
            for axis, (lower, upper) in enumerate(ends):
                offset, weight = upper if corner >> axis & 1 else lower
                k, w = k + offset, w * weight
            for out, flat in zip(outs, flats):
                out += w * flat[k]
        return outs


def _grid_derivative(values: np.ndarray, axes, axis: int) -> np.ndarray:
    """4th-order central differences inside, 2nd-order one-sided at edges."""
    h = axes[axis][1] - axes[axis][0]
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    n = v.shape[0]
    if n < 5:
        raise ShapeError("grid too small for 4th-order differentiation (need >= 5 nodes)")
    out[2:-2] = (-v[4:] + 8 * v[3:-1] - 8 * v[1:-3] + v[:-4]) / (12 * h)
    out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    out[1] = (v[2] - v[0]) / (2 * h)
    out[-2] = (v[-1] - v[-3]) / (2 * h)
    out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return np.ascontiguousarray(np.moveaxis(out, 0, axis))  # C order: _interp flattens it without a copy


# ---------------------------------------------------------------------------
# quadrature


def lattice(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The points of the product grid of ``axes``, one row each, the first axis slowest."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


# Gauss-Legendre nodes per panel, with their nodes and weights on [-1, 1]; the node budget
# of one residual rule, of one block of the polar rule (ball_integrals) and of the marginal CDF table
_GAUSS_M = 8
_GAUSS_T, _GAUSS_W = np.polynomial.legendre.leggauss(_GAUSS_M)
_GAUSS_BUDGET = 2**16


@dataclass(frozen=True)
class QuadratureRule:
    """Composite Gauss-Legendre product rule on an axis-aligned box:
    ``nodes[k]`` nodes along axis ``k``, in equal panels of 8."""

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]
    nodes: Tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or len(self.lo) != len(self.nodes):
            raise ShapeError("lo/hi/nodes must have equal lengths")
        for n in self.nodes:
            if n < _GAUSS_M or n % _GAUSS_M:
                raise ValueError(f"Gauss needs a positive multiple of {_GAUSS_M} nodes per axis")

    def axis_nodes(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi, n = self.lo[k], self.hi[k], self.nodes[k]
        panels = n // _GAUSS_M
        h = (hi - lo) / panels
        x = (lo + h * (np.arange(panels)[:, None] + 0.5 * (_GAUSS_T + 1.0))).reshape(-1)
        return x, np.tile(0.5 * h * _GAUSS_W, panels)

    def points_and_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """Nodes ``(n, d)`` and weights ``(n,)``, built on first use and shared
        read-only by every later caller of this rule."""
        return self._grid

    @cached_property
    def _grid(self) -> Tuple[np.ndarray, np.ndarray]:
        axes = [self.axis_nodes(k) for k in range(len(self.lo))]
        pts = lattice([a[0] for a in axes])
        w = reduce(np.multiply.outer, [a[1] for a in axes]).reshape(-1)
        pts.flags.writeable = w.flags.writeable = False
        return pts, w


def gauss_rule(lo: Sequence[float], hi: Sequence[float]) -> QuadratureRule:
    """The composite Gauss-Legendre product rule on the box ``[lo, hi]`` of
    the residual checks: ``8 * round((2**16)**(1/d) / 8)`` nodes per axis in
    panels of 8, about 2**16 nodes in all (65536 per axis in d=1, 256 in
    d=2, 40 in d=3, 16 in d=4)."""
    d = len(lo)
    n = _GAUSS_M * max(1, round(_GAUSS_BUDGET ** (1.0 / d) / _GAUSS_M))
    return QuadratureRule(tuple(map(float, lo)), tuple(map(float, hi)), (n,) * d)


def sphere_rule(d: int, n_angular: int) -> Tuple[np.ndarray, np.ndarray]:
    """Directions and quadrature weights on the unit sphere (sum = surface).

    Stroud's recursive product rule (*Approximate Calculation of Multiple
    Integrals*, 1971): m uniform azimuths on S^1, then for k = 2 .. d-1 lift
    S^{k-1} to S^k as ``(sqrt(1 - t^2) y, t)``, t on the m Gauss-Gegenbauer
    nodes of weight ``(1 - t^2)^{(k-2)/2}``; ``m = max(5, round(n_angular^{1/(d-1)}))``.
    The floor of 5 (exact to degree 4) gives 5^(d-1) directions; past
    ``max(n_angular, 4096)`` (4096: the d=3 default annulus) it raises unbuilt.
    """
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if 5 ** (d - 1) > max(n_angular, 4096):
        raise CalculusError(f"the d={d} sphere rule has {5 ** (d - 1)} directions, more than max({n_angular}, 4096)")
    m = max(5, int(round(n_angular ** (1.0 / (d - 1)))))
    th = 2 * math.pi * np.arange(m) / m
    dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
    w = np.full(m, 2 * math.pi / m)
    for k in range(2, d):
        t, wt = np.polynomial.legendre.leggauss(m) if k == 2 else scipy.special.roots_gegenbauer(m, (k - 1) / 2)
        s = np.sqrt(1 - t**2)
        dirs = np.concatenate([(s[:, None, None] * dirs).reshape(-1, k), np.repeat(t, len(dirs))[:, None]], axis=1)
        w = (wt[:, None] * w).reshape(-1)
    return dirs, w


def radial_ladder(r_max: float) -> np.ndarray:
    """65 radii on ``[0, min(r_max, 1)]``, then 64 per decade up to ``r_max`` > 1."""
    radii = np.linspace(0.0, min(r_max, 1.0), 65)
    if r_max > 1.0:
        decades = math.ceil(math.log10(r_max))
        radii = np.concatenate([radii, np.geomspace(1.0, r_max, decades * 64 + 1)[1:]])
    return radii


def gauss2_panels(ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The 2-point Gauss-Legendre rule (exact for cubics) on each panel
    between consecutive ``ends``: the nodes, two per panel in order, and each
    panel's half-width, the weight of both its nodes."""
    mid, half = 0.5 * (ends[1:] + ends[:-1]), 0.5 * np.diff(ends)
    return (mid[:, None] + np.array([-1.0, 1.0]) / math.sqrt(3.0) * half[:, None]).reshape(-1), half


def ball_integrals(
    f: Callable[[np.ndarray], np.ndarray], d: int, radii: Sequence[float]
) -> Tuple[np.ndarray, int]:
    """``int_{B_r} f dx`` at each of ``radii``, and the count of skipped values.

    The polar rule: panels between the radii of :func:`radial_ladder` up to
    ``max(radii)`` and ``radii`` themselves, each with the 2-point
    Gauss-Legendre rule in ``r`` (:func:`gauss2_panels`) times :func:`sphere_rule`
    at ``n_angular`` 256, weighted by ``r^(d-1)``.  ``f`` maps ``(n, d)``
    points to ``(n,)`` and sees at most ``2**16`` points a call; non-finite
    values are skipped and counted, as in :func:`integrate_masked`.
    """
    radii = np.asarray(radii, dtype=float)
    ends = np.union1d(radial_ladder(float(radii.max())), radii)
    dirs, w = sphere_rule(d, 256)
    r, half = gauss2_panels(ends)
    shells, skipped = np.empty(len(r)), 0
    step = _GAUSS_BUDGET // len(dirs)  # >= 16: sphere_rule builds at most 4096 directions
    with np.errstate(all="ignore"):
        for k in range(0, len(r), step):
            pts = (r[k : k + step, None, None] * dirs).reshape(-1, d)
            vals = np.asarray(f(pts), dtype=float).reshape(-1, len(dirs))
            ok = np.isfinite(vals)
            skipped += int(np.count_nonzero(~ok))
            shells[k : k + step] = np.where(ok, vals, 0.0) @ w
    panels = half * (shells * r ** (d - 1)).reshape(-1, 2).sum(axis=1)
    return np.concatenate([[0.0], np.cumsum(panels)])[np.searchsorted(ends, radii)], skipped


def integrate(f: Callable[[np.ndarray], np.ndarray], rule: QuadratureRule) -> float:
    """Tensor-product quadrature of ``f``, which maps ``(n, d)`` points to
    ``(n,)``.

    The products ``w * f`` are added by numpy's pairwise sum, off by at most
    about ``log2(n) * eps * sum |w * f|``; ``np.sum`` rather than a BLAS dot,
    whose result may depend on the BLAS thread count."""
    pts, w = rule.points_and_weights()
    vals = np.asarray(f(pts), dtype=float)
    vals = np.broadcast_to(vals, w.shape)
    return float(np.sum(w * vals))


def integrate_masked(values: np.ndarray, rule: QuadratureRule) -> Tuple[float, int]:
    """Quadrature of ``values`` given at the rule's nodes, skipping (and
    counting) the non-finite ones; the sum is pairwise, as in :func:`integrate`.

    Isolated singular points of otherwise integrable fields land on nodes for
    centered rules; skipping them is reported, never silent.
    """
    w = rule.points_and_weights()[1]
    ok = np.isfinite(values)
    return float(np.sum(w[ok] * values[ok])), int(np.count_nonzero(~ok))


# ---------------------------------------------------------------------------
# drift decomposition and generators


def _add_half_sum(start: Sequence[Expr], term: Callable[[int, int], Expr]) -> Tuple[Expr, ...]:
    """``start_i + sum_j 1/2 term(i, j)`` for each ``i``, added in order of ``j``."""
    d = len(start)
    return tuple(reduce(ex.add, (mul(Const(0.5), term(i, j)) for j in range(d)), start[i]) for i in range(d))


def add_half_a_log_grad(start: Sequence[Expr], m: Callable[[int, int], Expr], rho: Expr) -> Tuple[Expr, ...]:
    """``start_i + sum_j 1/2 m_ij d_j rho / rho`` for each ``i``, symbolic; ``m(i, j)`` is the entry."""
    log_grad = [ex.div(differentiate(rho, j, piecewise=True), rho) for j in range(len(start))]
    return _add_half_sum(start, lambda i, j: mul(m(i, j), log_grad[j]))


def add_half_divergence(start: Sequence[Expr], m: Callable[[int, int], Expr]) -> Tuple[Expr, ...]:
    """``start_i + sum_j 1/2 d_j m_ij`` for each ``i``, symbolic; ``m(i, j)`` is the entry."""
    return _add_half_sum(start, lambda i, j: differentiate(m(i, j), j))


def _sum(terms) -> Expr:
    """``0 + t_1 + t_2 + ...`` of raw nodes: the bits of Python's ``sum`` of their values."""
    return reduce(ex.Add, terms, Const(0.0))


def _density_terms(cs: CoefficientSet, rho: DensityField) -> Tuple[Expr, Tuple[Expr, ...], int]:
    """``rho``, ``beta`` and the number of inputs they read: ``x1 .. xd``, then a grid
    density's value and gradient (:meth:`DensityField._rho_and_grad`), in whose
    ``beta_i = 1/2 div A_i + 1/2 sum_j a_ij d_j rho / rho`` the sum is in order of ``j``."""
    d = cs.d
    div_a = add_half_divergence([Const(0.0)] * d, cs.a_entry)
    if rho.mode == "analytic":
        return rho.expr, add_half_a_log_grad(div_a, cs.a_entry, rho.expr), d
    r, grad = ex.Coord(d), [ex.Coord(d + 1 + j) for j in range(d)]
    a_log_grad = [_sum(ex.Mul(cs.a_entry(i, j), ex.Div(grad[j], r)) for j in range(d)) for i in range(d)]
    return r, tuple(ex.Add(div_a[i], ex.Mul(Const(0.5), a_log_grad[i])) for i in range(d)), 2 * d + 1


def _density_field(cs: CoefficientSet, rho: DensityField, exprs: Sequence[Expr]) -> VectorField:
    """The point function of ``exprs`` in the inputs of :func:`_density_terms`."""
    program = Program(exprs)

    def fn(pts):
        density = rho._rho_and_grad(pts) if rho.mode == "grid" else []
        with np.errstate(all="ignore"):
            return ex.columns(program.function(cs.d)(*pts.T, *density), len(pts))

    return VectorField(fn)


def log_derivative_beta(cs: CoefficientSet, rho: DensityField) -> VectorField:
    """``beta_i = 1/2 sum_j (d_j a_ij + a_ij d_j rho / rho)``: symbolic throughout in analytic
    mode; in grid mode the density and its gradient are interpolated (:func:`_density_terms`)."""
    return _density_field(cs, rho, _density_terms(cs, rho)[1])


def b_field(cs: CoefficientSet, rho: DensityField) -> VectorField:
    """``B = G - beta``."""
    return _density_field(cs, rho, [sub(g, b) for g, b in zip(cs.G, _density_terms(cs, rho)[1])])


@dataclass(frozen=True)
class DivergenceReport:
    """Max over the bump library of |integral <B, grad f> rho dx|; ``scale``
    is the box mass and ``skipped_points`` that of :class:`InvarianceCheck`."""

    max_residual: float
    residuals: Tuple[float, ...]
    scale: float
    skipped_points: int = 0


def decompose_drift(
    cs: CoefficientSet,
    rho: DensityField,
    halfwidth: float = 3.0,
) -> Tuple[VectorField, DivergenceReport]:
    """Split ``G = beta + B`` and report how far B is from mu-divergence zero:
    the divergence residuals of :func:`invariance_check` on the box
    ``[-halfwidth, halfwidth]^d``."""
    check = invariance_check(cs, rho, halfwidth)
    report = DivergenceReport(check.max_divergence, check.divergences, check.mass, check.skipped_nodes)
    return b_field(cs, rho), report


@dataclass(frozen=True)
class Bump:
    """The C^2 test function ``f = prod_k phi_k(x_k)``, 0 outside the closed box ``[lo, hi]``:
    ``phi_k = max(t_k, 0)^3``, ``t_k = ((x_k - lo_k)/r_k) ((hi_k - x_k)/r_k)``, ``r_k = (hi_k - lo_k)/2``.
    ``t_k`` is exactly 0 at ``lo_k`` and at ``hi_k``, so ``f`` vanishes on the faces of its
    box, and integration by parts leaves no boundary term."""

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]

    def factor(self, k: int, x):
        """``phi_k``, ``phi_k'`` and ``phi_k''`` at ``x`` on axis ``k``, in closed
        form: ``3 m^2 t'`` and ``6 m t'^2 + 3 m^2 t''`` with ``m = max(t, 0)``,
        ``t' = ((hi - x) - (x - lo))/r^2`` and ``t'' = -2/r^2``."""
        lo, hi = self.lo[k], self.hi[k]
        r = (hi - lo) / 2
        m = np.maximum(((x - lo) / r) * ((hi - x) / r), 0.0)
        t1 = ((hi - x) - (x - lo)) / r**2
        return m**3, 3 * m**2 * t1, 6 * m * t1**2 + 3 * m**2 * (-2 / r**2)

    def derivatives(self, rule: QuadratureRule):
        """``f``, ``[d_i f]`` and ``{(i, j): d_ij f}`` for ``i <= j`` at the nodes of
        ``rule``, in :func:`lattice` order: outer products of each axis's
        factor, or of its first or second derivative, on that axis's nodes."""
        d = len(self.lo)
        F = [self.factor(k, rule.axis_nodes(k)[0]) for k in range(d)]

        def outer(*axes):  # each axis listed once per derivative taken along it
            return reduce(np.multiply.outer, [F[k][axes.count(k)] for k in range(d)]).reshape(-1)

        return outer(), [outer(i) for i in range(d)], {(i, j): outer(i, j) for i in range(d) for j in range(i, d)}


def bump_expression(center: Sequence[float], radius: Sequence[float], d: int) -> Bump:
    """The :class:`Bump` on ``[lo, hi] = [c - r, c + r]``, the C^2 product
    ``prod_i max(1 - ((x_i - c_i)/r_i)^2, 0)^3``."""
    lo = tuple(float(center[i]) - abs(float(radius[i])) for i in range(d))
    hi = tuple(float(center[i]) + abs(float(radius[i])) for i in range(d))
    return Bump(lo, hi)


def default_bump_library(lo, hi, d: int) -> List[Bump]:
    """Eight deterministic bump placements spanning the box interior."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    c = (lo + hi) / 2
    half = (hi - lo) / 2
    bumps = [
        bump_expression(c, 0.9 * half, d),
        bump_expression(c, 0.45 * half, d),
    ]
    shift = 0.35 * half
    for axis in range(min(d, 2)):
        for sgn in (+1.0, -1.0):
            cc = c.copy()
            cc[axis] += sgn * shift[axis]
            bumps.append(bump_expression(cc, 0.5 * half, d))
    bumps.append(bump_expression(c + 0.3 * half, 0.4 * half, d))
    bumps.append(bump_expression(c - 0.3 * half, 0.4 * half, d))
    return bumps[:8]


def _f_derivatives(f: Expr, d: int):
    """``pts -> (grad (n, d), hessian (n, d, d))`` of an AST; max/min nodes take branch derivatives."""
    grads = gradient(f, d, piecewise=True)
    program = Program(grads + [differentiate(g, j, piecewise=True) for g in grads for j in range(d)])

    def derivatives(pts):
        out = program(pts)
        return np.ascontiguousarray(out[:, :d]), np.ascontiguousarray(out[:, d:]).reshape(len(pts), d, d)

    return derivatives


def generator_drift(
    cs: CoefficientSet, rho: Optional[DensityField], mode: str
) -> Callable[[np.ndarray], np.ndarray]:
    """Point function ``(n, d) -> (n, d)``, the drift of generator ``mode``:
    G for ``L``, and ``2 beta - G`` for its mu-adjoint ``L_adjoint`` (it
    needs ``rho``)."""
    if mode == "L":
        return cs.eval_G
    if mode != "L_adjoint":
        raise ValueError(f"unknown generator mode {mode!r}")
    if rho is None:
        raise CalculusError(f"mode {mode} requires a density")
    beta = log_derivative_beta(cs, rho)
    return lambda pts: 2.0 * beta(pts) - cs.eval_G(pts)


def _generator_sum(cs: CoefficientSet, drift, pts, grad, hess) -> np.ndarray:
    """``1/2 sum a_ij d_ij f + <drift, grad f>`` at ``pts``, given ``grad f`` and
    the Hessian there; ``A`` is freed before the drift is evaluated (peak memory)."""
    out = 0.5 * np.einsum("nij,nij->n", cs.eval_A(pts), hess)
    return out + np.einsum("ni,ni->n", drift(pts), grad)


def apply_generator(
    cs: CoefficientSet,
    rho: Optional[DensityField],
    f,
    mode: str = "L",
) -> Callable[[np.ndarray], np.ndarray]:
    """Point function ``(n, d) -> (n,)``: ``1/2 sum a_ij d_ij f + <drift, grad f>``
    with the drift of :func:`generator_drift`."""
    drift = generator_drift(cs, rho, mode)
    derivatives = _f_derivatives(f, cs.d)
    return lambda pts: _generator_sum(cs, drift, pts, *derivatives(pts))


@dataclass(frozen=True)
class ResidualReport:
    """Quadrature residuals of one test function ``f`` against ``rho``.

    ``residual`` is ``integral (L f) rho dx`` and ``divergence`` is
    ``integral <B, grad f> rho dx``; both vanish when ``rho`` is
    infinitesimally invariant.  Both are sums on the :func:`gauss_rule` of
    ``f``'s support box.  ``mass`` is ``|integral rho dx|`` over the whole
    box and ``scale`` is ``max|f|`` (over the nodes and the support box's
    centre) times it.  The skip counts are the non-finite nodes each sum
    left out.
    """

    residual: float
    divergence: float
    mass: float
    scale: float
    skipped_points: int = 0
    divergence_skipped: int = 0


def invariance_residual(
    cs: CoefficientSet, rho: DensityField, f, halfwidth: float
) -> Union[ResidualReport, List[ResidualReport]]:
    """Residuals of a :class:`Bump` ``f`` against ``rho``, with the mass of
    ``rho`` on the box ``[-halfwidth, halfwidth]^d``, or one report per bump
    given a list of them.

    This is the only loop over test functions.  Each bump is integrated on the
    :func:`gauss_rule` of its support box, where its derivatives are outer products
    of its factors (:meth:`Bump.derivatives`) and one generated program
    (:func:`_residual_program`) evaluates each node of ``rho``, ``A``, ``G`` and
    ``beta`` once.  The box mass of ``rho`` is integrated once per call.  A test
    function that is not a :class:`Bump` raises :class:`CalculusError`.
    """
    bumps = f if isinstance(f, list) else [f]
    if not all(isinstance(g, Bump) for g in bumps):
        raise CalculusError("a test function must be a Bump, a product of 1-d factors on its support box")
    lo, hi = (-float(halfwidth),) * cs.d, (float(halfwidth),) * cs.d
    mass = abs(integrate(rho.rho, gauss_rule(lo, hi)))
    residuals = _residual_program(cs, rho).function(cs.d)
    reports = [_bump_report(rho, residuals, g, mass) for g in bumps]
    return reports if isinstance(f, list) else reports[0]


def _residual_program(cs: CoefficientSet, rho: DensityField) -> Program:
    """The integrands ``(1/2 sum_ij a_ij d_ij f + sum_i G_i d_i f) rho`` and ``(sum_i B_i d_i f) rho``
    of the inputs of :func:`_density_terms`, then ``d_i f`` and ``d_ij f`` (``i <= j``, as
    :meth:`Bump.derivatives` orders them), from raw nodes with each sum in order from 0."""
    d = cs.d
    r, beta, k = _density_terms(cs, rho)
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    grad, hess = [ex.Coord(k + i) for i in range(d)], [ex.Coord(k + d + m) for m in range(len(pairs))]
    a = [ex.Mul(Const(0.5), cs.a_entry(i, i)) if i == j else cs.a_entry(i, j) for i, j in pairs]
    a_hess = (ex.Mul(a_ij, h) for a_ij, h in zip(a, hess))
    lf = ex.Add(_sum(a_hess), _sum(ex.Mul(g, df) for g, df in zip(cs.G, grad)))
    b_grad = _sum(ex.Mul(sub(g, b), df) for g, b, df in zip(cs.G, beta, grad))
    return Program((ex.Mul(lf, r), ex.Mul(b_grad, r)))


def _bump_report(rho: DensityField, residuals, bump: Bump, mass: float) -> ResidualReport:
    """One bump's residuals: the function of :func:`_residual_program` on its rule's
    nodes, where a grid density is interpolated once, summed column by column."""
    rule = gauss_rule(bump.lo, bump.hi)
    pts = rule.points_and_weights()[0]
    value, grad, hess = bump.derivatives(rule)
    # a bump peaks at its centre, where no Gauss node lies
    centre = math.prod(float(bump.factor(k, (a + b) / 2)[0]) for k, (a, b) in enumerate(zip(bump.lo, bump.hi)))
    density = rho._rho_and_grad(pts) if rho.mode == "grid" else []
    with np.errstate(all="ignore"):
        lf_rho, div_rho = residuals(*pts.T, *density, *grad, *hess.values())
    (residual, skipped), (divergence, divergence_skipped) = (integrate_masked(v, rule) for v in (lf_rho, div_rho))
    fmax = max(float(value.max()), centre)
    return ResidualReport(residual, divergence, mass, fmax * mass, skipped, divergence_skipped)


@dataclass(frozen=True)
class InvarianceCheck:
    """:func:`invariance_residual` over the default bump library, summarized:
    each bump's two residuals, their largest magnitudes, the box mass, the
    largest ``scale``, and the most non-finite nodes any one sum left out."""

    max_residual: float
    scale: float
    mass: float
    residuals: Tuple[float, ...]
    divergences: Tuple[float, ...]
    max_divergence: float
    skipped_nodes: int


def invariance_check(cs: CoefficientSet, rho: DensityField, halfwidth: float) -> InvarianceCheck:
    """Residuals of ``rho`` against the default bump library on the box
    ``[-halfwidth, halfwidth]^d``."""
    R = float(halfwidth)
    reports = invariance_residual(cs, rho, default_bump_library([-R] * cs.d, [R] * cs.d, cs.d), R)
    residuals = tuple(r.residual for r in reports)
    divergences = tuple(r.divergence for r in reports)
    return InvarianceCheck(
        max_residual=max(abs(v) for v in residuals),
        scale=max(r.scale for r in reports),
        mass=reports[0].mass,
        residuals=residuals,
        divergences=divergences,
        max_divergence=max(abs(v) for v in divergences),
        skipped_nodes=max(max(r.skipped_points, r.divergence_skipped) for r in reports),
    )


# ---------------------------------------------------------------------------
# diffusion square root


def diffusion_root_batch(A_vals: np.ndarray) -> np.ndarray:
    """Symmetric positive-definite square roots of a batch ``(n, d, d)`` of SPD
    matrices.  No sdelab layer calls it; ``perfbench/spans.py`` still wraps
    it by name, so it stays until that table drops it.

    Eigendecomposition with descending eigenvalues; the root is
    ``V sqrt(diag) V^T``, which does not depend on the eigenvector signs.  A
    smallest eigenvalue at or below ``1e-12`` times the trace is degenerate.
    """
    A_vals = np.asarray(A_vals, dtype=float)
    w, v = np.linalg.eigh(A_vals)
    w = w[:, ::-1]
    v = v[:, :, ::-1]
    traces = np.einsum("nii->n", A_vals)
    bad = w[:, -1] <= 1e-12 * np.abs(traces)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DegenerateDiffusionError(f"diffusion matrix degenerate: eigenvalue {w[k, -1]:.3e} <= 1e-12 * trace")
    return np.einsum("nik,nk,njk->nij", v, np.sqrt(w), v)

