"""Sampled-grid checks of sufficient conditions for global properties.

Every catalog entry instantiates one inequality template (a Lyapunov-type
bound, a coefficient growth bound, or a volume/integrability trend) and
reports the minimum margin ``rhs - lhs`` over a sampling grid together with
the argmin witness.  Verdicts are explicitly "holds-on-grid": the artifact
samples, it does not certify.  Limit-type conditions (integrability, volume
growth, a_n divergence) are evaluated as trends over geometric radius
ladders and report "inconclusive" when the trend is unstable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import calculus as calc
from . import expr as ex
from .calculus import CoefficientSet, DensityField, VectorField, apply_generator
from .expr import CallableField, Expr, evaluate, parse_expr

__all__ = [
    "CriterionError",
    "CATALOG",
    "CONCLUSIONS",
    "MODES",
    "REGION_KINDS",
    "VERDICTS",
    "RegionSpec",
    "CriterionSpec",
    "CriterionVerdict",
    "MarginResult",
    "lyapunov_margin",
    "evaluate_criterion",
    "recurrence_volume_test",
    "volume_test_integrands",
    "default_growth_candidate",
    "smallest_constant",
    "growth_report",
]


class CriterionError(Exception):
    pass


# catalog of inequality templates; every in-scope sufficient condition of the
# source material maps to exactly one entry
CATALOG: Tuple[str, ...] = (
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
)

CONCLUSIONS: Dict[str, str] = {
    "LYAPUNOV_L": "non-explosive; E_x[phi(X_t)] <= e^{M t} phi(x)",
    "LYAPUNOV_EXTERIOR": "non-explosive (exterior Lyapunov bound)",
    "GROWTH_NONEXPLOSION": "non-explosive (coefficient growth bound)",
    "EIGENGAP_2D": "non-explosive (d=2 eigenvalue-gap bound)",
    "LINEAR_GROWTH_MOMENT": "non-explosive; sup-moment bound D*e^{E t}",
    "INTEGRABLE_COEFFS": "mu invariant for the adjoint flow (L^1 coefficients)",
    "INVARIANCE_LYAPUNOV": "mu invariant / dual semigroup conservative",
    "INVARIANCE_LOG_GROWTH": "mu invariant / dual semigroup conservative",
    "NON_INVARIANCE": "mu NOT invariant / dual semigroup not conservative",
    "RECURRENCE_SUPERSOLUTION": "recurrent (exterior supersolution)",
    "RECURRENCE_GROWTH": "recurrent (coefficient growth bound)",
    "VOLUME_CONSERVATIVE": "conservative (volume growth bound)",
    "ERGODIC_DRIFT": "finite invariant measure; ergodic limits apply",
}


# the verdicts a template can return
VERDICTS: Tuple[str, ...] = ("holds-on-grid", "fails-with-witness", "inconclusive")

# which generator the (non-)invariance templates apply
MODES: Tuple[str, ...] = ("adjoint", "forward")


def default_growth_candidate(N0: float, d: int) -> Expr:
    """The workhorse exterior candidate ``ln(|x|^2 v N0^2) + 2``."""
    return parse_expr(f"ln(max(norm2(x), {float(N0) ** 2})) + 2", d)


# ---------------------------------------------------------------------------
# regions

REGION_KINDS: Tuple[str, ...] = ("annulus", "box", "interval")


@dataclass(frozen=True)
class RegionSpec:
    """Sampling region: an annulus (radial x angular), a box, or an interval."""

    kind: str = "annulus"  # one of REGION_KINDS
    r_min: float = 1.0
    r_max: float = 40.0
    lo: float = -10.0
    hi: float = 10.0
    n_radial: int = 200
    n_angular: int = 256
    n_points: int = 10_000  # interval mode

    def __post_init__(self):
        if self.kind not in REGION_KINDS:
            raise CriterionError(f"unknown region kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "annulus":
            return f"annulus {self.r_min} < |x| <= {self.r_max}"
        if self.kind == "box":
            return f"box [{self.lo}, {self.hi}]^d"
        return f"interval [{self.lo}, {self.hi}]"

    def points(self, d: int) -> np.ndarray:
        if self.kind == "interval" or d == 1:
            xs = np.linspace(self.lo, self.hi, self.n_points)
            return xs[:, None]
        if self.kind == "box":
            n_side = max(2, int(round(self.n_points ** (1.0 / d))))
            axes = [np.linspace(self.lo, self.hi, n_side)] * d
            grids = np.meshgrid(*axes, indexing="ij")
            return np.stack([g.reshape(-1) for g in grids], axis=-1)
        radii = np.linspace(self.r_min, self.r_max, self.n_radial)
        dirs = _sphere(d, self.n_angular)[0]
        pts = radii[:, None, None] * dirs[None, :, :]
        return pts.reshape(-1, d)


def _sphere(d: int, n_angular: int) -> Tuple[np.ndarray, np.ndarray]:
    """Directions and quadrature weights on the unit sphere (sum = surface)."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 2:
        th = 2 * math.pi * np.arange(n_angular) / n_angular
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return dirs, np.full(len(dirs), 2 * math.pi / len(dirs))
    if d == 3:
        n_pol = max(4, int(round(math.sqrt(n_angular))))
        n_az = n_pol
        z, wz = np.polynomial.legendre.leggauss(n_pol)
        phi = 2 * math.pi * np.arange(n_az) / n_az
        Z, P = np.meshgrid(z, phi, indexing="ij")
        W = np.broadcast_to(wz[:, None], Z.shape) * (2 * math.pi / n_az)
        s = np.sqrt(1 - Z**2)
        dirs = np.stack([s * np.cos(P), s * np.sin(P), Z], axis=-1).reshape(-1, 3)
        return dirs, W.reshape(-1)
    raise CriterionError(f"no angular sampling for d={d}")


# ---------------------------------------------------------------------------
# specs and verdicts


@dataclass
class CriterionSpec:
    id: str
    constants: Dict[str, float] = field(default_factory=dict)
    candidate: Optional[Union[Expr, CallableField, str]] = None
    rhs: Optional[Union[Expr, str]] = None
    region: Optional[RegionSpec] = None
    variant: Optional[str] = None  # template-specific flavor
    mode: str = "adjoint"  # one of MODES

    def __post_init__(self):
        if self.id not in CATALOG:
            raise CriterionError(f"unknown criterion id {self.id!r}")
        if self.mode not in MODES:
            raise CriterionError(f"unknown mode {self.mode!r}")

    def constant(self, name: str, default=None) -> float:
        if name in self.constants:
            return float(self.constants[name])
        if default is None:
            raise CriterionError(f"criterion {self.id} needs constant {name!r}")
        return float(default)


@dataclass
class CriterionVerdict:
    id: str
    region: str
    verdict: str  # holds-on-grid | fails-with-witness | inconclusive
    min_margin: Optional[float] = None
    witness: Optional[Tuple[float, ...]] = None
    conclusion: str = ""
    notes: List[str] = field(default_factory=list)
    trend_table: Optional[Dict[str, list]] = None
    skipped_points: int = 0

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "id": self.id,
            "region": self.region,
            "verdict": self.verdict,
            "conclusion": self.conclusion,
        }
        if self.min_margin is not None:
            out["min_margin"] = self.min_margin
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.notes:
            out["notes"] = list(self.notes)
        if self.trend_table is not None:
            out["trend_table"] = self.trend_table
        if self.skipped_points:
            out["skipped_points"] = self.skipped_points
        return out


@dataclass
class MarginResult:
    margins: np.ndarray
    points: np.ndarray
    min_margin: float
    argmin: Tuple[float, ...]
    zero_tolerance: float
    skipped: int

    def verdict(self) -> str:
        return "holds-on-grid" if self.min_margin >= -self.zero_tolerance else "fails-with-witness"


def _finish_margin(pts: np.ndarray, lhs: np.ndarray, rhs: np.ndarray) -> MarginResult:
    margins = rhs - lhs
    ok = np.isfinite(margins)
    skipped = int(np.sum(~ok))
    if skipped == len(margins):
        raise CriterionError("margin evaluation failed at every grid point")
    work = np.where(ok, margins, np.inf)
    k = int(np.argmin(work))  # first minimum: lexicographic tie-break
    scale = float(np.nanmax(np.abs(lhs[ok])) + np.nanmax(np.abs(rhs[ok])) + 1.0)
    return MarginResult(
        margins=margins,
        points=pts,
        min_margin=float(margins[k]),
        argmin=tuple(float(v) for v in pts[k]),
        zero_tolerance=1e-10 * scale,
        skipped=skipped,
    )


def lyapunov_margin(
    cs: CoefficientSet,
    rho: Optional[DensityField],
    candidate: Union[Expr, CallableField],
    mode: str,
    rhs: Union[Expr, float, Callable[[np.ndarray], np.ndarray]],
    pts: np.ndarray,
) -> MarginResult:
    """Margin field ``rhs(x) - (operator candidate)(x)`` on the given points.

    Evaluation failures at single grid points are skipped and counted, never
    silently dropped.
    """
    op = apply_generator(cs, rho, candidate, mode=mode, piecewise=True)
    with np.errstate(all="ignore"):
        lhs = op(pts)
        if isinstance(rhs, (int, float)):
            rhs_vals = np.full(len(pts), float(rhs))
        else:
            rhs_vals = np.asarray(ex.as_point_function(rhs)(pts), dtype=float)
    return _finish_margin(pts, lhs, rhs_vals)


def growth_report(
    candidate: Union[Expr, CallableField],
    d: int,
    r_start: float,
    r_stop: float,
    n_levels: int = 12,
    n_angular: int = 128,
) -> Dict[str, object]:
    """Sampled check that ``inf over spheres`` of the candidate grows.

    Reported, never certified: evaluates the candidate on spheres of
    geometrically increasing radius and reports whether the infimum increases.
    """
    fn = ex.as_point_function(candidate)
    radii = np.geomspace(max(r_start, 1e-3), r_stop, n_levels)
    dirs = _sphere(d, n_angular)[0]
    infs = []
    for r in radii:
        vals = fn(r * dirs)
        infs.append(float(np.min(vals)))
    infs_arr = np.array(infs)
    increasing = bool(np.all(np.diff(infs_arr) >= -1e-12)) and infs_arr[-1] > infs_arr[0]
    return {
        "radii": [float(r) for r in radii],
        "sphere_inf": infs,
        "increasing": increasing,
    }


def smallest_constant(margin_at: Callable[[float], MarginResult]) -> Optional[float]:
    """Smallest M >= 0 with nonnegative grid margin, for M-affine templates."""
    m0 = margin_at(0.0).margins
    m1 = margin_at(1.0).margins
    slope = m1 - m0
    ok = np.isfinite(m0) & np.isfinite(slope)
    need = -m0[ok]
    slp = slope[ok]
    if np.any((slp <= 0) & (need > 0)):
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(slp > 0, need / slp, 0.0)
    return max(0.0, float(np.max(ratio)))


# ---------------------------------------------------------------------------
# shared pointwise quantities


def _geometry(cs: CoefficientSet, pts: np.ndarray):
    A = cs.eval_A(pts)
    G = cs.eval_G(pts)
    r2 = np.einsum("ij,ij->i", pts, pts)
    axx = np.einsum("nij,nj,ni->n", A, pts, pts)
    tra = np.einsum("nii->n", A)
    gx = np.einsum("ni,ni->n", G, pts)
    return A, G, r2, axx, tra, gx


def _default_region(cs: CoefficientSet, spec: CriterionSpec, exterior: bool) -> RegionSpec:
    if spec.region is not None:
        return spec.region
    n0 = spec.constant("N0", 1.0)
    if cs.d == 1:
        return RegionSpec(kind="interval", lo=-10.0, hi=10.0)
    if cs.d == 3:
        base = RegionSpec(kind="annulus", n_radial=100, n_angular=4096)
    else:
        base = RegionSpec(kind="annulus")
    r_min = n0 * (1.0 + 1e-6) if exterior else 1e-6
    return RegionSpec(
        kind="annulus",
        r_min=r_min,
        r_max=base.r_max,
        n_radial=base.n_radial,
        n_angular=base.n_angular,
    )


def _coerce_candidate(c, d: int):
    if isinstance(c, str):
        return parse_expr(c, d)
    return c


# ---------------------------------------------------------------------------
# template handlers


def _margin_verdict(spec, region, result: MarginResult, notes=None, trend=None) -> CriterionVerdict:
    return CriterionVerdict(
        id=spec.id,
        region=region.describe(),
        verdict=result.verdict(),
        min_margin=result.min_margin,
        witness=result.argmin,
        conclusion=CONCLUSIONS[spec.id],
        notes=notes or [],
        trend_table=trend,
        skipped_points=result.skipped,
    )


def _growth_notes(candidate, d, region) -> List[str]:
    rep = growth_report(candidate, d, max(region.r_min, 1.0), region.r_max * 4)
    tag = "increasing" if rep["increasing"] else "NOT increasing"
    return [f"sphere-infimum growth sampled up to r={rep['radii'][-1]:.3g}: {tag} (not certified)"]


def _handle_lyapunov_l(spec, cs, rho, **_):
    region = _default_region(cs, spec, exterior=False)
    phi = _coerce_candidate(spec.candidate, cs.d) or parse_expr("norm2(x) + 1", cs.d)
    M = spec.constant("M")
    pts = region.points(cs.d)
    rhs = spec.rhs
    if rhs is None:
        rhs = ex.mul(ex.Const(M), phi) if isinstance(phi, Expr) else (
            lambda p, _phi=phi: M * np.asarray(_phi.value(p))
        )
    else:
        rhs = _coerce_candidate(rhs, cs.d)
    result = lyapunov_margin(cs, rho, phi, "L", rhs, pts)
    notes = _growth_notes(phi, cs.d, region)
    return _margin_verdict(spec, region, result, notes)


def _handle_lyapunov_exterior(spec, cs, rho, **_):
    region = _default_region(cs, spec, exterior=True)
    n0 = spec.constant("N0", 1.0)
    g = _coerce_candidate(spec.candidate, cs.d) or default_growth_candidate(n0, cs.d)
    M = spec.constant("M")
    pts = region.points(cs.d)
    rhs = ex.mul(ex.Const(M), g) if isinstance(g, Expr) else (
        lambda p, _g=g: M * np.asarray(_g.value(p))
    )
    result = lyapunov_margin(cs, rho, g, "L", rhs, pts)
    return _margin_verdict(spec, region, result, _growth_notes(g, cs.d, region))


def _growth_lhs_rhs(spec, cs, pts, rhs_kind: str):
    _, _, r2, axx, tra, gx = _geometry(cs, pts)
    lhs = -axx / r2 + 0.5 * tra + gx
    M = spec.constant("M", 0.0)
    r = np.sqrt(r2)
    if rhs_kind == "log_growth":
        rhs = M * r2 * (np.log(r) + 1.0)
    elif rhs_kind == "zero":
        rhs = np.zeros_like(r2)
    elif rhs_kind == "neg_quadratic":
        rhs = -M * r2
    else:
        raise CriterionError(rhs_kind)
    return lhs, rhs


def _handle_growth_nonexplosion(spec, cs, rho, **_):
    region = _default_region(cs, spec, exterior=True)
    pts = region.points(cs.d)
    lhs, rhs = _growth_lhs_rhs(spec, cs, pts, "log_growth")
    result = _finish_margin(pts, lhs, rhs)
    return _margin_verdict(spec, region, result)


def _handle_eigengap_2d(spec, cs, rho, psi1=None, psi2=None, **_):
    if cs.d != 2:
        raise CriterionError("EIGENGAP_2D is a d=2 template")
    if psi1 is None or psi2 is None:
        raise CriterionError("EIGENGAP_2D needs the two eigenvalue fields psi1, psi2")
    psi1 = _coerce_candidate(psi1, 2)
    psi2 = _coerce_candidate(psi2, 2)
    region = _default_region(cs, spec, exterior=True)
    pts = region.points(2)
    M = spec.constant("M")
    _, _, r2, _, _, gx = _geometry(cs, pts)
    lhs = 0.5 * np.abs(evaluate(psi1, pts) - evaluate(psi2, pts)) + gx
    rhs = M * r2 * (np.log(np.sqrt(r2)) + 1.0)
    result = _finish_margin(pts, lhs, rhs)
    return _margin_verdict(spec, region, result)


def _handle_linear_growth_moment(spec, cs, rho, h1=None, h2=None, **_):
    region = _default_region(cs, spec, exterior=False)
    pts = region.points(cs.d)
    M = spec.constant("M")
    A = cs.eval_A(pts)
    sigma = calc.diffusion_root_batch(A)
    G = cs.eval_G(pts)
    r = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    h1v = np.abs(evaluate(_coerce_candidate(h1, cs.d), pts)) if h1 is not None else 0.0
    h2v = np.abs(evaluate(_coerce_candidate(h2, cs.d), pts)) if h2 is not None else 0.0
    smax = np.max(np.abs(sigma), axis=(1, 2))
    gmax = np.max(np.abs(G), axis=1)
    variant = spec.variant or "split"
    if variant == "split":
        m_sigma = h1v + M * (np.sqrt(r) + 1.0) - smax
        m_drift = h2v + M * (r + 1.0) - gmax
        lhs = np.zeros_like(r)
        rhs = np.minimum(m_sigma, m_drift)
    elif variant == "joint":
        lhs = smax + gmax
        rhs = h1v + M * (r + 1.0)
    else:
        raise CriterionError(f"LINEAR_GROWTH_MOMENT variant {variant!r}")
    result = _finish_margin(pts, lhs, rhs)
    note = [f"variant {variant}; moment bound shape D*exp(E*t)"]
    return _margin_verdict(spec, region, result, note)


def _handle_integrable_coeffs(spec, cs, rho, **_):
    if rho is None:
        raise CriterionError("INTEGRABLE_COEFFS needs the density")
    region = spec.region or RegionSpec(r_min=1.0, r_max=64.0)
    beta = calc.log_derivative_beta(cs, rho)
    gfield = cs.drift_field()

    def integrand(pts):
        A = np.abs(cs.eval_A(pts)).sum(axis=(1, 2))
        gb = np.abs(gfield(pts) - beta(pts)).sum(axis=1)
        return (A + gb) * rho.rho(pts)

    ladder, totals = _radial_cumulative(integrand, cs.d, region.r_max)
    incs = np.diff(totals)
    trend = {"radius": ladder.tolist(), "integral": totals.tolist()}
    verdict, note = _converging_trend(incs)
    return CriterionVerdict(
        id=spec.id,
        region=f"balls up to r={region.r_max}",
        verdict="holds-on-grid" if verdict == "converging" else "inconclusive",
        conclusion=CONCLUSIONS[spec.id],
        notes=[f"L^1(mu) totals {note} (trend, not certified)"],
        trend_table=trend,
    )


def _handle_invariance_lyapunov(spec, cs, rho, **_):
    if rho is None:
        raise CriterionError("INVARIANCE_LYAPUNOV applies the adjoint drift; needs density")
    region = _default_region(cs, spec, exterior=False)
    u = _coerce_candidate(spec.candidate, cs.d)
    if u is None:
        u = default_growth_candidate(spec.constant("N0", 1.0), cs.d)
    alpha = spec.constant("alpha")
    pts = region.points(cs.d)
    rhs = ex.mul(ex.Const(alpha), u) if isinstance(u, Expr) else (
        lambda p, _u=u: alpha * np.asarray(_u.value(p))
    )
    result = lyapunov_margin(cs, rho, u, "L_adjoint", rhs, pts)
    return _margin_verdict(spec, region, result, _growth_notes(u, cs.d, region))


def _handle_invariance_log_growth(spec, cs, rho, **_):
    region = _default_region(cs, spec, exterior=False)
    pts = region.points(cs.d)
    M = spec.constant("M")
    A, G, r2, axx, tra, _ = _geometry(cs, pts)
    if spec.mode == "forward":
        drift = G
    else:
        if rho is None:
            raise CriterionError("adjoint log-growth check needs the density")
        beta = calc.log_derivative_beta(cs, rho)(pts)
        drift = 2.0 * beta - G
    dx = np.einsum("ni,ni->n", drift, pts)
    lhs = -axx / (r2 + 1.0) + 0.5 * tra + dx
    rhs = M * (r2 + 1.0) * (np.log(r2 + 1.0) + 1.0)
    result = _finish_margin(pts, lhs, rhs)
    note = [f"drift field: {'G' if spec.mode == 'forward' else '2 beta - G'}"]
    return _margin_verdict(spec, region, result, note)


def _handle_non_invariance(spec, cs, rho, **_):
    u = _coerce_candidate(spec.candidate, cs.d)
    if u is None:
        raise CriterionError("NON_INVARIANCE needs a bounded nonnegative candidate")
    region = _default_region(cs, spec, exterior=False)
    pts = region.points(cs.d)
    alpha = spec.constant("alpha")
    mode = "L" if spec.mode == "forward" else "L_adjoint"
    if mode == "L_adjoint" and rho is None:
        raise CriterionError("adjoint non-invariance certificate needs the density")
    # certificate direction: (op u) - alpha u >= 0
    op = apply_generator(cs, rho, u, mode=mode, piecewise=True)
    with np.errstate(all="ignore"):
        uvals = np.asarray(ex.as_point_function(u)(pts), dtype=float)
        op_vals = op(pts)
    result = _finish_margin(pts, uvals * alpha, op_vals)
    notes = [
        f"candidate sampled range [{np.nanmin(uvals):.3g}, {np.nanmax(uvals):.3g}]"
        " (boundedness declared, checked on grid only)",
        "certificate direction: operator u >= alpha u",
    ]
    if np.nanmin(uvals) < 0:
        notes.append("WARNING: candidate negative at a grid point")
    v = _margin_verdict(spec, region, result, notes)
    return v


def _handle_recurrence_supersolution(spec, cs, rho, **_):
    region = _default_region(cs, spec, exterior=True)
    n0 = spec.constant("N0", 1.0)
    g = _coerce_candidate(spec.candidate, cs.d) or default_growth_candidate(n0, cs.d)
    pts = region.points(cs.d)
    result = lyapunov_margin(cs, rho, g, "L", 0.0, pts)
    return _margin_verdict(spec, region, result, _growth_notes(g, cs.d, region))


def _handle_recurrence_growth(spec, cs, rho, **_):
    region = _default_region(cs, spec, exterior=True)
    pts = region.points(cs.d)
    lhs, rhs = _growth_lhs_rhs(spec, cs, pts, "zero")
    result = _finish_margin(pts, lhs, rhs)
    return _margin_verdict(spec, region, result)


def _handle_volume_conservative(spec, cs, rho, Bbar=None, **_):
    if rho is None:
        raise CriterionError("VOLUME_CONSERVATIVE needs the density")
    region = _default_region(cs, spec, exterior=True)
    pts = region.points(cs.d)
    M = spec.constant("M")
    c = spec.constant("c")
    n1 = int(spec.constant("N1", 1.0))
    if n1 < 1:  # the annulus ladder below doubles N1 until it passes r_max
        raise CriterionError("VOLUME_CONSERVATIVE needs N1 >= 1")
    variant = spec.variant or "polynomial"
    A, G, r2, axx, tra, _ = _geometry(cs, pts)
    beta = calc.log_derivative_beta(cs, rho)(pts)
    B = G - beta
    bx = np.abs(np.einsum("ni,ni->n", B, pts))
    if variant == "polynomial":
        lhs = axx / r2 + bx
        rhs = M * r2 * np.log(np.sqrt(r2) + 1.0)
    elif variant == "exponential":
        lhs = axx + bx
        rhs = M * r2
    else:
        raise CriterionError(f"VOLUME_CONSERVATIVE variant {variant!r}")
    coeff_result = _finish_margin(pts, lhs, rhs)

    # annulus volume ladder mu(B_4n \ B_2n)
    ns = [n1]
    while ns[-1] * 2 * 4 <= region.r_max:
        ns.append(ns[-1] * 2)
    ladder, totals = _radial_cumulative(lambda p: rho.rho(p), cs.d, max(4 * max(ns), 4.0))
    mu_of = lambda r: float(np.interp(r, ladder, totals))
    rows = []
    vol_margins = []
    for m in ns:
        mu_ann = mu_of(4 * m) - mu_of(2 * m)
        bound = (4 * m) ** c if variant == "polynomial" else math.exp(c * (4 * m) ** 2)
        rows.append({"n": m, "mu_annulus": mu_ann, "bound": bound})
        vol_margins.append(bound - mu_ann)
    trend = {
        "n": [r["n"] for r in rows],
        "mu_annulus": [r["mu_annulus"] for r in rows],
        "bound": [r["bound"] for r in rows],
    }
    vol_ok = all(v >= 0 for v in vol_margins)
    verdict = coeff_result.verdict()
    if verdict == "holds-on-grid" and not vol_ok:
        verdict = "fails-with-witness"
    notes = [f"variant {variant}; annulus ladder n in {ns}"]
    v = _margin_verdict(spec, region, coeff_result, notes, trend)
    v.verdict = verdict
    return v


def _handle_ergodic_drift(spec, cs, rho, **_):
    region = _default_region(cs, spec, exterior=True)
    variant = spec.variant or "lyapunov"
    pts = region.points(cs.d)
    if variant == "lyapunov":
        n0 = spec.constant("N0", 1.0)
        g = _coerce_candidate(spec.candidate, cs.d) or default_growth_candidate(n0, cs.d)
        cc = spec.constant("c")
        result = lyapunov_margin(cs, rho, g, "L", -cc, pts)
        return _margin_verdict(spec, region, result, _growth_notes(g, cs.d, region))
    if variant == "eq_335":
        lhs, rhs = _growth_lhs_rhs(spec, cs, pts, "neg_quadratic")
        result = _finish_margin(pts, lhs, rhs)
        return _margin_verdict(spec, region, result, ["specialization: <= -M |x|^2"])
    if variant == "eq_336":
        M = spec.constant("M")
        _, _, _, _, tra, gx = _geometry(cs, pts)
        lhs = 0.5 * tra + gx
        rhs = np.full(len(pts), -M)
        result = _finish_margin(pts, lhs, rhs)
        return _margin_verdict(spec, region, result, ["specialization: <= -M"])
    raise CriterionError(f"ERGODIC_DRIFT variant {variant!r}")


_HANDLERS = {
    "LYAPUNOV_L": _handle_lyapunov_l,
    "LYAPUNOV_EXTERIOR": _handle_lyapunov_exterior,
    "GROWTH_NONEXPLOSION": _handle_growth_nonexplosion,
    "EIGENGAP_2D": _handle_eigengap_2d,
    "LINEAR_GROWTH_MOMENT": _handle_linear_growth_moment,
    "INTEGRABLE_COEFFS": _handle_integrable_coeffs,
    "INVARIANCE_LYAPUNOV": _handle_invariance_lyapunov,
    "INVARIANCE_LOG_GROWTH": _handle_invariance_log_growth,
    "NON_INVARIANCE": _handle_non_invariance,
    "RECURRENCE_SUPERSOLUTION": _handle_recurrence_supersolution,
    "RECURRENCE_GROWTH": _handle_recurrence_growth,
    "VOLUME_CONSERVATIVE": _handle_volume_conservative,
    "ERGODIC_DRIFT": _handle_ergodic_drift,
}


def evaluate_criterion(
    spec: CriterionSpec,
    cs: CoefficientSet,
    rho: Optional[DensityField] = None,
    **inputs,
) -> CriterionVerdict:
    """Instantiate a catalog template and return its sampled-grid verdict."""
    handler = _HANDLERS[spec.id]
    return handler(spec, cs, rho, **inputs)


# ---------------------------------------------------------------------------
# volume-based recurrence test


def _radial_cumulative(
    integrand: Callable[[np.ndarray], np.ndarray],
    d: int,
    r_max: float,
    n_angular: int = 256,
    per_decade: int = 64,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cumulative ``int_{B_r} f dx`` on a linear+geometric radius grid."""
    dirs, w = _sphere(d, n_angular)
    r_lin = np.linspace(0.0, 1.0, 65)
    decades = max(1, int(math.ceil(math.log10(max(r_max, 1.0 + 1e-9)))))
    r_log = np.geomspace(1.0, r_max, decades * per_decade + 1)
    radii = np.concatenate([r_lin, r_log[1:]])

    def shell(r: float) -> float:
        if r == 0.0:
            return 0.0
        pts = r * dirs
        vals = np.asarray(integrand(pts), dtype=float)
        return float(np.dot(w, vals)) * r ** (d - 1)

    shells = np.array([shell(r) for r in radii])
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (shells[1:] + shells[:-1]) * np.diff(radii))])
    return radii, cum


def _converging_trend(increments: np.ndarray) -> Tuple[str, str]:
    pos = increments[increments > 0]
    if len(pos) < 4:
        return "converging", "vanishing increments"
    tail = pos[-5:]
    ratios = tail[1:] / tail[:-1]
    q = float(np.mean(ratios))
    if q <= 0.7:
        return "converging", f"increment ratio {q:.2f} <= 0.7"
    if q >= 0.8:
        return "growing", f"increment ratio {q:.2f} >= 0.8"
    return "unstable", f"increment ratio {q:.2f} in (0.7, 0.8)"


def volume_test_integrands(
    cs: CoefficientSet,
    rho: DensityField,
    Bbar: Optional[Sequence[Union[str, Expr]]] = None,
    r_max: float = 1e6,
    *,
    n_angular: int = 256,
    per_decade: int = 64,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative volume-test integrands ``(radii, v1, v2)``.

    ``v1(r) = int_{B_r} <A x, x>/|x|^2 dmu``; ``v2(r)`` integrates
    ``|<(beta_C + Bbar)(x), x>|`` against ``mu``, where ``beta_C`` is the
    antisymmetric-part log derivative.  The density is multiplied through the
    ``beta_C`` quotient so far-field underflow of ``rho`` never divides.
    """
    d = cs.d

    def v1_integrand(pts):
        A = cs.eval_A(pts)
        r2 = np.einsum("ij,ij->i", pts, pts)
        return np.einsum("nij,nj,ni->n", A, pts, pts) / r2 * rho.rho(pts)

    div_ct = []
    for i in range(d):
        s: Expr = ex.Const(0.0)
        for j in range(d):
            s = ex.add(s, ex.differentiate(cs.c_entry(j, i), j))
        div_ct.append(ex.mul(ex.Const(0.5), s))
    div_field = VectorField.from_exprs(div_ct)
    c_is_zero = all(e == ex.Const(0.0) for row in cs.c_upper for e in row)
    c_program = ex.Program([e for row in cs.C for e in row])
    bbar_field = (
        VectorField.from_exprs([_coerce_candidate(b, d) for b in Bbar]) if Bbar else None
    )

    def v2_integrand(pts):
        r = rho.rho(pts)
        if c_is_zero:
            vec_rho = np.zeros((len(pts), d))
        else:
            ct = np.swapaxes(c_program(pts).reshape(len(pts), d, d), 1, 2)
            grad = rho.grad_rho(pts)
            vec_rho = div_field(pts) * r[:, None] + 0.5 * np.einsum("nij,nj->ni", ct, grad)
        if bbar_field is not None:
            vec_rho = vec_rho + bbar_field(pts) * r[:, None]
        return np.abs(np.einsum("ni,ni->n", vec_rho, pts))

    radii, v1 = _radial_cumulative(v1_integrand, d, r_max, n_angular, per_decade)
    _, v2 = _radial_cumulative(v2_integrand, d, r_max, n_angular, per_decade)
    return radii, v1, v2


def recurrence_volume_test(
    cs: CoefficientSet,
    rho: DensityField,
    Bbar: Optional[Sequence[Union[str, Expr]]] = None,
    n_max: float = 1e6,
    *,
    n_angular: int = 256,
    per_decade: int = 64,
    ladder_base: float = 2.0,
) -> CriterionVerdict:
    """Volume-integral recurrence test via ``a_n = int_1^n r / v(r) dr``.

    ``v = v1 + v2`` (see :func:`volume_test_integrands`).  Recurrence verdict
    requires ``a_n`` to be unbounded-trending and ``ln(v2 v 1)/a_n`` to trend
    to zero.
    """
    radii, v1, v2 = volume_test_integrands(
        cs, rho, Bbar, n_max, n_angular=n_angular, per_decade=per_decade
    )
    v = v1 + v2

    # a_n by trapezoid in ln r: integrand r^2 / v(r)
    sel = radii >= 1.0
    rs = radii[sel]
    vs = v[sel]
    if np.any(vs <= 0):
        return CriterionVerdict(
            id="VOLUME_RECURRENCE",
            region=f"volume test up to n={n_max:g}",
            verdict="inconclusive",
            conclusion="recurrence (volume test)",
            notes=["v(r) vanishes on a radius interval; division guard"],
        )
    u = np.log(rs)
    integrand_u = rs**2 / vs
    a = np.concatenate(
        [[0.0], np.cumsum(0.5 * (integrand_u[1:] + integrand_u[:-1]) * np.diff(u))]
    )

    # geometric ladder for the trend table
    ladder = []
    m = 1.0
    while m <= n_max * (1 + 1e-12):
        ladder.append(m)
        m *= ladder_base
    a_of = lambda n: float(np.interp(math.log(n), u, a))
    v2_of = lambda n: float(np.interp(n, radii, v2))
    table = {
        "n": ladder,
        "a_n": [a_of(n) for n in ladder],
        "v2_n": [v2_of(n) for n in ladder],
        "log_v2_over_a": [
            (math.log(max(v2_of(n), 1.0)) / a_of(n)) if a_of(n) > 0 else math.inf
            for n in ladder
        ],
    }
    incs = np.diff(np.array(table["a_n"]))
    kind, why = _converging_trend(incs)
    ratio_seq = [x for x in table["log_v2_over_a"] if math.isfinite(x)]
    v2_trending_zero = (not ratio_seq) or ratio_seq[-1] <= 1e-6 or (
        len(ratio_seq) >= 3 and ratio_seq[-1] <= 0.5 * max(ratio_seq[0], 1e-300)
    )
    notes = [f"a_n trend: {why}"]
    if kind == "growing" and v2_trending_zero:
        verdict = "holds-on-grid"
        notes.append("a_n unbounded-trending and ln(v2 v 1)/a_n -> 0 trending")
    elif kind == "converging":
        verdict = "inconclusive"
        notes.append("a_n converging: transient-consistent, test silent")
    else:
        verdict = "inconclusive"
        if kind == "growing":
            notes.append("ln(v2 v 1)/a_n not trending to zero")
    return CriterionVerdict(
        id="VOLUME_RECURRENCE",
        region=f"volume test up to n={n_max:g}",
        verdict=verdict,
        conclusion="recurrent (volume-integral test)" if verdict == "holds-on-grid" else "recurrence (volume test)",
        notes=notes,
        trend_table=table,
    )
