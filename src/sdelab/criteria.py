"""Sampled-grid checks of sufficient conditions for global properties.

A criterion is one :class:`CriterionSpec`: a template id, its variant, mode,
constants and region, and the inputs :data:`INPUTS` names (candidate and
right-hand side, eigenvalue, slack and volume-test drift fields, all
expressions) as fields of the one record.  Every catalog entry instantiates
one inequality template (a Lyapunov-type bound, a coefficient growth bound,
or a volume/integrability trend) and reports the minimum margin
``rhs - lhs`` over a sampling grid together with the argmin witness.
Verdicts are explicitly "holds-on-grid": the artifact samples, it does not
certify.  Limit-type conditions (integrability, volume growth, a_n
divergence) are evaluated as trends over geometric radius ladders and report
"inconclusive" when the trend is unstable.  The volume-integral recurrence
test (:func:`recurrence_volume_test`) is one catalog entry like the others:
it reads the density, an optional drift ``Bbar`` and the constant ``n_max``,
samples no region, and returns its ``a_n`` ladder as the verdict's trend
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import calculus as calc
from . import expr as ex
from .calculus import CoefficientSet, DensityField, VectorField, apply_generator
from .expr import Expr, evaluate, parse_expr

__all__ = [
    "CriterionError",
    "TEMPLATES",
    "Template",
    "Variant",
    "check_criterion",
    "INPUTS",
    "MODES",
    "REGION_KINDS",
    "REGION_FIELDS",
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
    "growth_report",
]


class CriterionError(Exception):
    """A criterion that cannot be evaluated; ``where`` names the criterion
    field at fault, if one is (``constants.M``, ``variant``, ...)."""

    def __init__(self, message: str, where: str = ""):
        super().__init__(f"{where}: {message}" if where else message)
        self.message, self.where = message, where


# the verdicts a template can return
VERDICTS: Tuple[str, ...] = ("holds-on-grid", "fails-with-witness", "inconclusive")

# the generator each mode of the (non-)invariance templates applies; adjoint by default
_GENERATOR_OF_MODE: Dict[str, str] = {"adjoint": "L_adjoint", "forward": "L"}
MODES: Tuple[str, ...] = tuple(_GENERATOR_OF_MODE)


def default_growth_candidate(N0: float, d: int) -> Expr:
    """The workhorse exterior candidate ``ln(|x|^2 v N0^2) + 2``."""
    return parse_expr(f"ln(max(norm2(x), {float(N0) ** 2})) + 2", d)


# ---------------------------------------------------------------------------
# regions

# the RegionSpec fields each region kind samples with; it reads no others
REGION_FIELDS: Dict[str, Tuple[str, ...]] = {
    "annulus": ("r_min", "r_max", "n_radial", "n_angular"),
    "box": ("lo", "hi", "n_points"),
    "interval": ("lo", "hi", "n_points"),
}
REGION_KINDS: Tuple[str, ...] = tuple(REGION_FIELDS)


@dataclass(frozen=True)
class RegionSpec:
    """Sampling region: an annulus (radial x angular, d >= 2), a box, or
    an interval (d = 1); only the fields :data:`REGION_FIELDS` names for its
    kind are checked."""

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
        if self.kind == "annulus":
            if self.r_min < 0:
                raise CriterionError(f"r_min {self.r_min} is negative")
            if not self.r_max > self.r_min:
                raise CriterionError(f"r_max {self.r_max} does not exceed r_min {self.r_min}")
        elif not self.hi > self.lo:
            raise CriterionError(f"hi {self.hi} does not exceed lo {self.lo}")

    def fits(self, d: int) -> bool:
        if self.kind == "annulus":
            return d >= 2
        return self.kind == "box" or d == 1

    def describe(self) -> str:
        if self.kind == "annulus":
            return f"annulus {self.r_min} < |x| <= {self.r_max}"
        if self.kind == "box":
            return f"box [{self.lo}, {self.hi}]^d"
        return f"interval [{self.lo}, {self.hi}]"

    def extent(self, d: int) -> Tuple[float, float]:
        """The smallest and largest ``|x|`` over the region."""
        if self.kind == "annulus":
            return self.r_min, self.r_max
        scale = math.sqrt(d) if self.kind == "box" else 1.0
        inner = 0.0 if self.lo <= 0.0 <= self.hi else min(abs(self.lo), abs(self.hi))
        return scale * inner, scale * max(abs(self.lo), abs(self.hi))

    def points(self, d: int) -> np.ndarray:
        if self.kind == "interval":
            xs = np.linspace(self.lo, self.hi, self.n_points)
            return xs[:, None]
        if self.kind == "box":
            n_side = max(2, int(round(self.n_points ** (1.0 / d))))
            return calc.lattice([np.linspace(self.lo, self.hi, n_side)] * d)
        radii = np.linspace(self.r_min, self.r_max, self.n_radial)
        dirs = calc.sphere_rule(d, self.n_angular)[0]
        pts = radii[:, None, None] * dirs[None, :, :]
        return pts.reshape(-1, d)


# ---------------------------------------------------------------------------
# specs and verdicts


# the inputs a criterion may give besides its constants, region, variant and
# mode; each template variant needs or reads some of them (Variant)
INPUTS: Tuple[str, ...] = ("candidate", "rhs", "psi1", "psi2", "h1", "h2", "Bbar")


@dataclass(frozen=True)
class CriterionSpec:
    """One criterion; an input of :data:`INPUTS` that is None is not given."""

    id: str
    constants: Dict[str, float] = field(default_factory=dict)
    candidate: Optional[Expr] = None
    rhs: Optional[Expr] = None
    region: Optional[RegionSpec] = None
    variant: Optional[str] = None  # template-specific flavor
    mode: Optional[str] = None  # one of MODES, for the templates that have a mode
    # eigenvalue, slack and volume-test drift fields
    psi1: Optional[Expr] = None
    psi2: Optional[Expr] = None
    h1: Optional[Expr] = None
    h2: Optional[Expr] = None
    Bbar: Optional[Tuple[Expr, ...]] = None

    def __post_init__(self):
        if self.id not in TEMPLATES:
            raise CriterionError(f"unknown criterion id {self.id!r}")
        if self.mode is not None and self.mode not in MODES:
            raise CriterionError(f"unknown mode {self.mode!r}")


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
    candidate: Expr,
    mode: str,
    rhs: Union[Expr, float],
    pts: np.ndarray,
) -> MarginResult:
    """Margin field ``rhs(x) - (operator candidate)(x)`` on the given points.

    Evaluation failures at single grid points are skipped and counted, never
    silently dropped.
    """
    op = apply_generator(cs, rho, candidate, mode=mode)
    with np.errstate(all="ignore"):
        lhs = op(pts)
        if isinstance(rhs, (int, float)):
            rhs_vals = np.full(len(pts), float(rhs))
        else:
            rhs_vals = ex.Program(rhs)(pts)
    return _finish_margin(pts, lhs, rhs_vals)


def growth_report(
    candidate: Expr,
    d: int,
    r_start: float,
    r_stop: float,
) -> Dict[str, object]:
    """Sampled check that ``inf over spheres`` of the candidate grows.

    Reported, never certified: evaluates the candidate on the sphere rule at
    ``n_angular`` 128 (128 directions in d=2, 121 in d=3, 5^(d-1) in d = 4..6)
    on 12 spheres of geometrically increasing radius and reports whether the
    infimum increases.
    """
    fn = ex.Program(candidate)
    radii = np.geomspace(max(r_start, 1e-3), r_stop, 12)
    dirs = calc.sphere_rule(d, 128)[0]
    infs = [float(np.min(fn(r * dirs))) for r in radii]
    increasing = bool(np.all(np.diff(infs) >= -1e-12)) and infs[-1] > infs[0]
    return {"radii": radii.tolist(), "sphere_inf": infs, "increasing": increasing}


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


# ---------------------------------------------------------------------------
# template handlers: each gets the spec with its variant, mode, constants and
# region resolved by check_criterion, and reads its inputs off the spec


def _margin_verdict(spec, result: MarginResult, notes=None, trend=None) -> CriterionVerdict:
    return CriterionVerdict(
        id=spec.id,
        region=spec.region.describe(),
        verdict=result.verdict(),
        min_margin=result.min_margin,
        witness=result.argmin,
        conclusion=TEMPLATES[spec.id].conclusion,
        notes=notes or [],
        trend_table=trend,
        skipped_points=result.skipped,
    )


def _growth_notes(candidate, d, region) -> List[str]:
    r_in, r_out = region.extent(d)
    rep = growth_report(candidate, d, min(max(r_in, 1.0), r_out), r_out * 4)
    tag = "increasing" if rep["increasing"] else "NOT increasing"
    return [f"sphere-infimum growth sampled up to r={rep['radii'][-1]:.3g}: {tag} (not certified)"]


def _lyapunov(op: str, candidate: Callable, rhs: Callable):
    """Handler of a Lyapunov-type template: ``(op g)(x) <= rhs(x)`` on the grid
    for the spec's candidate ``g``, else ``candidate(constants, d)``, and the
    spec's ``rhs``, else ``rhs(constants, g)``."""

    def handle(spec, cs, rho):
        g = candidate(spec.constants, cs.d) if spec.candidate is None else spec.candidate
        bound = rhs(spec.constants, g) if spec.rhs is None else spec.rhs
        result = lyapunov_margin(cs, rho, g, op, bound, spec.region.points(cs.d))
        return _margin_verdict(spec, result, _growth_notes(g, cs.d, spec.region))

    return handle


def _scaled(name: str):
    """The right-hand side ``constants[name] * g``."""

    return lambda k, g: ex.mul(ex.Const(k[name]), g)


def _growth_candidate(k, d: int) -> Expr:
    return default_growth_candidate(k["N0"], d)


def _growth(rhs: Callable, note: Optional[str] = None):
    """Handler of a coefficient-growth template:
    ``-<Ax, x>/|x|^2 + tr A / 2 + <G, x> <= rhs(constants, |x|^2)`` on the grid."""

    def handle(spec, cs, rho):
        pts = spec.region.points(cs.d)
        _, _, r2, axx, tra, gx = _geometry(cs, pts)
        with np.errstate(all="ignore"):  # the origin's margin is non-finite, skipped and counted
            lhs, bound = -axx / r2 + 0.5 * tra + gx, rhs(spec.constants, r2)
        return _margin_verdict(spec, _finish_margin(pts, lhs, bound), [note] if note else None)

    return handle


def _handle_eigengap_2d(spec, cs, rho):
    pts = spec.region.points(2)
    _, _, r2, _, _, gx = _geometry(cs, pts)
    lhs = 0.5 * np.abs(evaluate(spec.psi1, pts) - evaluate(spec.psi2, pts)) + gx
    with np.errstate(all="ignore"):  # the origin's margin is non-finite, skipped and counted
        rhs = spec.constants["M"] * r2 * (np.log(np.sqrt(r2)) + 1.0)
    return _margin_verdict(spec, _finish_margin(pts, lhs, rhs))


def _handle_linear_growth_moment(spec, cs, rho):
    pts = spec.region.points(cs.d)
    M = spec.constants["M"]
    A = cs.eval_A(pts)
    G = cs.eval_G(pts)
    r = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    h1v = np.abs(evaluate(spec.h1, pts)) if spec.h1 is not None else 0.0
    h2v = np.abs(evaluate(spec.h2, pts)) if spec.h2 is not None else 0.0
    # every root sigma of A has |sigma_ij| <= sqrt(a_ii), the norm of its row i,
    # with equality for a diagonal A; a negative a_ii gives a skipped margin
    with np.errstate(invalid="ignore"):
        smax = np.max(np.sqrt(np.einsum("nii->ni", A)), axis=1)
    gmax = np.max(np.abs(G), axis=1)
    if spec.variant == "split":
        m_sigma = h1v + M * (np.sqrt(r) + 1.0) - smax
        m_drift = h2v + M * (r + 1.0) - gmax
        lhs = np.zeros_like(r)
        rhs = np.minimum(m_sigma, m_drift)
    else:  # joint
        lhs = smax + gmax
        rhs = h1v + M * (r + 1.0)
    note = [f"variant {spec.variant}; moment bound shape D*exp(E*t)"]
    return _margin_verdict(spec, _finish_margin(pts, lhs, rhs), note)


def _handle_integrable_coeffs(spec, cs, rho):
    r_max = spec.constants["r_max"]
    b = calc.b_field(cs, rho)

    def integrand(pts):
        A = np.abs(cs.eval_A(pts)).sum(axis=(1, 2))
        return (A + np.abs(b(pts)).sum(axis=1)) * rho.rho(pts)

    ladder = calc.radial_ladder(r_max)
    totals, skipped = calc.ball_integrals(integrand, cs.d, ladder)
    verdict, note = _converging_trend(np.diff(totals))
    return CriterionVerdict(
        id=spec.id,
        region=f"balls up to r={r_max}",
        verdict="holds-on-grid" if verdict == "converging" else "inconclusive",
        conclusion=TEMPLATES[spec.id].conclusion,
        notes=[f"L^1(mu) totals {note} (trend, not certified)"],
        trend_table={"radius": ladder.tolist(), "integral": totals.tolist()},
        skipped_points=skipped,
    )


def _handle_invariance_log_growth(spec, cs, rho):
    pts = spec.region.points(cs.d)
    _, _, r2, axx, tra, _ = _geometry(cs, pts)
    dx = np.einsum("ni,ni->n", calc.generator_drift(cs, rho, _GENERATOR_OF_MODE[spec.mode])(pts), pts)
    lhs = -axx / (r2 + 1.0) + 0.5 * tra + dx
    rhs = spec.constants["M"] * (r2 + 1.0) * (np.log(r2 + 1.0) + 1.0)
    note = [f"drift field: {'G' if spec.mode == 'forward' else '2 beta - G'}"]
    return _margin_verdict(spec, _finish_margin(pts, lhs, rhs), note)


def _handle_non_invariance(spec, cs, rho):
    u = spec.candidate
    pts = spec.region.points(cs.d)
    # certificate direction: (op u) - alpha u >= 0
    op = apply_generator(cs, rho, u, mode=_GENERATOR_OF_MODE[spec.mode])
    with np.errstate(all="ignore"):
        uvals = ex.Program(u)(pts)
        op_vals = op(pts)
    result = _finish_margin(pts, uvals * spec.constants["alpha"], op_vals)
    notes = [
        f"candidate sampled range [{np.nanmin(uvals):.3g}, {np.nanmax(uvals):.3g}]"
        " (boundedness declared, checked on grid only)",
        "certificate direction: operator u >= alpha u",
    ]
    if np.nanmin(uvals) < 0:
        notes.append("WARNING: candidate negative at a grid point")
    return _margin_verdict(spec, result, notes)


def _handle_volume_conservative(spec, cs, rho):
    region, variant = spec.region, spec.variant
    pts = region.points(cs.d)
    M, c, n1 = spec.constants["M"], spec.constants["c"], int(spec.constants["N1"])
    _, _, r2, axx, _, _ = _geometry(cs, pts)
    bx = np.abs(np.einsum("ni,ni->n", calc.b_field(cs, rho)(pts), pts))
    if variant == "polynomial":
        with np.errstate(all="ignore"):  # the origin's margin is non-finite, skipped and counted
            lhs = axx / r2 + bx
        rhs = M * r2 * np.log(np.sqrt(r2) + 1.0)
    else:  # exponential
        lhs = axx + bx
        rhs = M * r2
    coeff_result = _finish_margin(pts, lhs, rhs)

    # annulus volume ladder mu(B_4n \ B_2n)
    ns = [n1]
    while ns[-1] * 2 * 4 <= region.extent(cs.d)[1]:
        ns.append(ns[-1] * 2)
    mu, skipped = calc.ball_integrals(rho.rho, cs.d, [r for m in ns for r in (2 * m, 4 * m)])
    mu_ann = [float(outer - inner) for inner, outer in mu.reshape(-1, 2)]
    bounds = [(4 * m) ** c if variant == "polynomial" else math.exp(c * (4 * m) ** 2) for m in ns]
    trend = {"n": ns, "mu_annulus": mu_ann, "bound": bounds}
    notes = [f"variant {variant}; annulus ladder n in {ns}"]
    v = _margin_verdict(spec, coeff_result, notes, trend)
    v.skipped_points += skipped
    if v.verdict == "holds-on-grid" and not all(b - mu >= 0 for mu, b in zip(mu_ann, bounds)):
        v.verdict = "fails-with-witness"
    return v


_ergodic_lyapunov = _lyapunov("L", _growth_candidate, lambda k, g: -k["c"])
_ergodic_quadratic = _growth(lambda k, r2: -k["M"] * r2, "specialization: <= -M |x|^2")


def _handle_ergodic_drift(spec, cs, rho):
    if spec.variant == "lyapunov":
        return _ergodic_lyapunov(spec, cs, rho)
    if spec.variant == "eq_335":
        return _ergodic_quadratic(spec, cs, rho)
    pts = spec.region.points(cs.d)  # eq_336
    _, _, _, _, tra, gx = _geometry(cs, pts)
    result = _finish_margin(pts, 0.5 * tra + gx, np.full(len(pts), -spec.constants["M"]))
    return _margin_verdict(spec, result, ["specialization: <= -M"])


def _handle_volume_recurrence(spec, cs, rho):
    return recurrence_volume_test(cs, rho, spec.Bbar, spec.constants["n_max"])


# ---------------------------------------------------------------------------
# the catalog


REQUIRED = None  # the default of a constant that must be given
_N0 = {"N0": 1.0}  # inner radius of the default exterior region


class Variant(NamedTuple):
    """What a criterion of one template variant may and must give."""

    constants: Dict[str, Optional[float]]  # constant -> default, or REQUIRED
    needs: Tuple[str, ...] = ()  # INPUTS that must be given
    reads: Tuple[str, ...] = ()  # INPUTS that may be given


class Template(NamedTuple):
    """One inequality template: its variants, the defaults, and the handler
    that evaluates it."""

    handler: Callable[..., CriterionVerdict]
    conclusion: str
    # the first variant is the default, and None stands for a template
    # without variants
    variants: Dict[Optional[str], Variant]
    # default region: "interior" or "exterior"; None for a template that
    # reads no region
    region: Optional[str] = "interior"
    # reads the density "always", "never", or in "adjoint" mode only; only
    # the templates of the last kind have a mode
    density: str = "never"
    dimension: Optional[int] = None  # the only dimension it applies in


# catalog of inequality templates; every in-scope sufficient condition of the
# source material maps to exactly one entry
TEMPLATES: Dict[str, Template] = {
    "LYAPUNOV_L": Template(
        _lyapunov("L", lambda k, d: parse_expr("norm2(x) + 1", d), _scaled("M")),
        "non-explosive; E_x[phi(X_t)] <= e^{M t} phi(x)",
        {None: Variant({"M": REQUIRED}, reads=("candidate", "rhs"))}),
    "LYAPUNOV_EXTERIOR": Template(
        _lyapunov("L", _growth_candidate, _scaled("M")), "non-explosive (exterior Lyapunov bound)",
        {None: Variant({"M": REQUIRED, **_N0}, reads=("candidate",))}, region="exterior"),
    "GROWTH_NONEXPLOSION": Template(
        _growth(lambda k, r2: k["M"] * r2 * (np.log(np.sqrt(r2)) + 1.0)),
        "non-explosive (coefficient growth bound)", {None: Variant({"M": 0.0, **_N0})}, region="exterior"),
    "EIGENGAP_2D": Template(
        _handle_eigengap_2d, "non-explosive (d=2 eigenvalue-gap bound)",
        {None: Variant({"M": REQUIRED, **_N0}, needs=("psi1", "psi2"))}, region="exterior", dimension=2),
    "LINEAR_GROWTH_MOMENT": Template(
        _handle_linear_growth_moment, "non-explosive; sup-moment bound D*e^{E t}",
        {"split": Variant({"M": REQUIRED}, reads=("h1", "h2")),
         "joint": Variant({"M": REQUIRED}, reads=("h1",))}),
    "INTEGRABLE_COEFFS": Template(
        _handle_integrable_coeffs, "mu invariant for the adjoint flow (L^1 coefficients)",
        {None: Variant({"r_max": 64.0})}, region=None, density="always"),
    "INVARIANCE_LYAPUNOV": Template(
        _lyapunov("L_adjoint", _growth_candidate, _scaled("alpha")),
        "mu invariant / dual semigroup conservative",
        {None: Variant({"alpha": REQUIRED, **_N0}, reads=("candidate",))}, density="always"),
    "INVARIANCE_LOG_GROWTH": Template(
        _handle_invariance_log_growth, "mu invariant / dual semigroup conservative",
        {None: Variant({"M": REQUIRED})}, density="adjoint"),
    "NON_INVARIANCE": Template(
        _handle_non_invariance, "mu NOT invariant / dual semigroup not conservative",
        {None: Variant({"alpha": REQUIRED}, needs=("candidate",))}, density="adjoint"),
    "RECURRENCE_SUPERSOLUTION": Template(
        _lyapunov("L", _growth_candidate, lambda k, g: 0.0), "recurrent (exterior supersolution)",
        {None: Variant(dict(_N0), reads=("candidate",))}, region="exterior"),
    "RECURRENCE_GROWTH": Template(
        _growth(lambda k, r2: np.zeros_like(r2)), "recurrent (coefficient growth bound)",
        {None: Variant(dict(_N0))}, region="exterior"),
    "VOLUME_CONSERVATIVE": Template(
        _handle_volume_conservative, "conservative (volume growth bound)",
        {v: Variant({"M": REQUIRED, "c": REQUIRED, **_N0, "N1": 1.0})
         for v in ("polynomial", "exponential")},
        region="exterior", density="always"),
    "ERGODIC_DRIFT": Template(
        _handle_ergodic_drift, "finite invariant measure; ergodic limits apply",
        {"lyapunov": Variant({"c": REQUIRED, **_N0}, reads=("candidate",)),
         "eq_335": Variant({"M": 0.0, **_N0}), "eq_336": Variant({"M": REQUIRED, **_N0})}, region="exterior"),
    "VOLUME_RECURRENCE": Template(
        _handle_volume_recurrence, "recurrent (volume-integral test)",
        {None: Variant({"n_max": 1e6}, reads=("Bbar",))}, region=None, density="always"),
}

# constants with a lower bound: N0 and r_max are radii, the annulus ladder of
# VOLUME_CONSERVATIVE doubles N1 until it passes the region's r_max, and n_max
# ends the volume test's ladder
_BOUNDS = {"N0": ("N0 > 0", lambda v: v > 0), "N1": ("N1 >= 1", lambda v: v >= 1),
           "r_max": ("r_max > 0", lambda v: v > 0), "n_max": ("n_max > 0", lambda v: v > 0)}

# the id of the volume-integral test's row, which recurrence_volume_test reports
_VOLUME_TEST = next(k for k, t in TEMPLATES.items() if t.handler is _handle_volume_recurrence)


def _default_region(where: Optional[str], d: int, n0: Optional[float]) -> Optional[RegionSpec]:
    if where is None:
        return None
    if d == 1:
        return RegionSpec(kind="interval", lo=-10.0, hi=10.0)
    r_min = n0 * (1.0 + 1e-6) if where == "exterior" else 1e-6
    return RegionSpec(r_min=r_min, n_radial=100, n_angular=4096) if d == 3 else RegionSpec(r_min=r_min)


def check_criterion(spec: CriterionSpec, d: int, has_density: bool) -> CriterionSpec:
    """``spec`` checked against its template, with the default variant, mode,
    constants (as floats) and region filled in.

    An input, a mode, a density or a region that the template (in the given
    variant and mode) does not read is an error.  Raises
    :class:`CriterionError` that names the criterion field at fault.
    """
    t = TEMPLATES[spec.id]
    if t.dimension is not None and d != t.dimension:
        raise CriterionError(f"{spec.id} is a d={t.dimension} template", "id")
    variant = next(iter(t.variants)) if spec.variant is None else spec.variant
    if variant not in t.variants:
        options = ", ".join(v for v in t.variants if v is not None)
        message = f"{variant!r} is not one of {options}" if options else f"{spec.id} has no variants"
        raise CriterionError(message, "variant")
    var = t.variants[variant]
    flavor = f"{spec.id}/{variant}" if variant else spec.id
    defaults = var.constants
    for name in spec.constants:
        if name not in defaults:
            raise CriterionError(f"{spec.id} takes no constant {name!r}", f"constants.{name}")
    constants = {}
    for name, default in defaults.items():
        if name not in spec.constants and default is REQUIRED:
            raise CriterionError(f"{spec.id} needs constant {name!r}", f"constants.{name}")
        constants[name] = float(spec.constants.get(name, default))
        if name in _BOUNDS and not _BOUNDS[name][1](constants[name]):
            raise CriterionError(f"{spec.id} needs {_BOUNDS[name][0]}", f"constants.{name}")
    given = [name for name in INPUTS if getattr(spec, name) is not None]
    for name in given:
        if name not in var.needs + var.reads:
            raise CriterionError(f"{flavor} does not read {name}", name)
    for name in var.needs:
        if name not in given:
            raise CriterionError(f"{flavor} needs {name}", name)
    if spec.region is not None and t.region is None:
        raise CriterionError(f"{spec.id} reads no region", "region")
    if spec.region is not None and not spec.region.fits(d):
        raise CriterionError(f"an {spec.region.kind} region does not apply in d={d}", "region.kind")
    has_mode = t.density == "adjoint"
    if spec.mode is not None and not has_mode:
        raise CriterionError(f"{spec.id} has no mode", "mode")
    mode = (spec.mode or MODES[0]) if has_mode else None
    in_mode = f" in {mode} mode" if mode else ""
    reads_density = t.density == "always" or mode == "adjoint"
    if reads_density and not has_density:
        raise CriterionError(f"{spec.id} needs the density{in_mode}", "density")
    if has_density and not reads_density:
        raise CriterionError(f"{spec.id} does not read the density{in_mode}", "density")
    # N0 places the default exterior region (d >= 2) and, in a variant that
    # reads a candidate, the default log candidate g; given, it must place one
    places_region = t.region == "exterior" and spec.region is None and d >= 2
    places_candidate = "candidate" in var.reads and spec.candidate is None
    if "N0" in spec.constants and not (places_region or places_candidate):
        raise CriterionError(f"{flavor} reads N0 only for a default region or candidate", "constants.N0")
    try:
        region = spec.region or _default_region(t.region, d, constants.get("N0"))
    except CriterionError as err:  # only N0 moves the default region
        raise CriterionError(f"default region: {err.message}", "constants.N0") from None
    return replace(spec, variant=variant, mode=mode, constants=constants, region=region)


def evaluate_criterion(
    spec: CriterionSpec, cs: CoefficientSet, rho: Optional[DensityField] = None
) -> CriterionVerdict:
    """Instantiate a catalog template and return its sampled-grid verdict;
    the spec is first checked against its template."""
    spec = check_criterion(spec, cs.d, rho is not None)
    return TEMPLATES[spec.id].handler(spec, cs, rho)


# ---------------------------------------------------------------------------
# volume-based recurrence test


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
    Bbar: Optional[Sequence[Expr]] = None,
    r_max: float = 1e6,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Cumulative volume-test integrands ``(radii, v1, v2, skipped)`` on the
    :func:`~sdelab.calculus.radial_ladder` up to ``r_max``.

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

    div_field = VectorField.from_exprs(calc.add_half_divergence([ex.Const(0.0)] * d, lambda i, j: cs.c_entry(j, i)))
    c_is_zero = all(e == ex.Const(0.0) for row in cs.c_upper for e in row)
    c_program = ex.Program([e for row in cs.C for e in row])
    bbar_field = VectorField.from_exprs(Bbar) if Bbar else None

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

    radii = calc.radial_ladder(r_max)
    v1, skipped1 = calc.ball_integrals(v1_integrand, d, radii)
    v2, skipped2 = calc.ball_integrals(v2_integrand, d, radii)
    return radii, v1, v2, skipped1 + skipped2


def recurrence_volume_test(
    cs: CoefficientSet,
    rho: DensityField,
    Bbar: Optional[Sequence[Expr]] = None,
    n_max: float = 1e6,
) -> CriterionVerdict:
    """Volume-integral recurrence test via ``a_n = int_1^n r / v(r) dr``.

    ``v = v1 + v2`` (see :func:`volume_test_integrands`).  Recurrence verdict
    requires ``a_n`` to be unbounded-trending and ``ln(v2 v 1)/a_n`` to trend
    to zero on the ladder ``n = 1, 2, 4, ...`` up to ``n_max``.
    """
    radii, v1, v2, skipped = volume_test_integrands(cs, rho, Bbar, n_max)
    rs, vs = radii[radii >= 1.0], (v1 + v2)[radii >= 1.0]
    verdict, table = "inconclusive", None
    notes = ["v(r) vanishes on a radius interval; division guard"]
    if not np.any(vs <= 0):
        # a_n by trapezoid in ln r (integrand r^2 / v(r)) on the geometric ladder
        u, integrand_u = np.log(rs), rs**2 / vs
        a = np.concatenate([[0.0], np.cumsum(0.5 * (integrand_u[1:] + integrand_u[:-1]) * np.diff(u))])
        ladder = []
        m = 1.0
        while m <= n_max * (1 + 1e-12):
            ladder.append(m)
            m *= 2.0
        a_n = [float(np.interp(math.log(n), u, a)) for n in ladder]
        v2_n = [float(np.interp(n, radii, v2)) for n in ladder]
        ratios = [math.log(max(v, 1.0)) / an if an > 0 else math.inf for v, an in zip(v2_n, a_n)]
        table = {"n": ladder, "a_n": a_n, "v2_n": v2_n, "log_v2_over_a": ratios}
        kind, why = _converging_trend(np.diff(np.array(a_n)))
        finite = [x for x in ratios if math.isfinite(x)]
        v2_trending_zero = (not finite) or finite[-1] <= 1e-6 or (
            len(finite) >= 3 and finite[-1] <= 0.5 * max(finite[0], 1e-300)
        )
        notes = [f"a_n trend: {why}"]
        if kind == "growing" and v2_trending_zero:
            verdict = "holds-on-grid"
            notes.append("a_n unbounded-trending and ln(v2 v 1)/a_n -> 0 trending")
        elif kind == "converging":
            notes.append("a_n converging: transient-consistent, test silent")
        elif kind == "growing":
            notes.append("ln(v2 v 1)/a_n not trending to zero")
    return CriterionVerdict(
        id=_VOLUME_TEST,
        region=f"volume test up to n={n_max:g}",
        verdict=verdict,
        conclusion=TEMPLATES[_VOLUME_TEST].conclusion,
        notes=notes,
        trend_table=table,
        skipped_points=skipped,
    )
