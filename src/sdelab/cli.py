"""Scenario runner: declarative JSON configs in, reports and CSV tables out.

A scenario bundles a coefficient set, declared and/or solved densities,
criterion requests, and a simulation request.  ``validate_config`` is the
only code that reads a config dict.  It parses it once into a frozen
:class:`Scenario`, whose dataclass fields are the schema: each field names a
config key, its type, its default and its reader.  Every expression string
becomes an ``Expr``, density references are resolved, and cross-references
(a check and the block it reads, a density reference and the declared
densities) are checked.  Malformed input, a key the schema does not define
included, raises :class:`ConfigError` with its field path, such as
``$.simulation.checks[0].time``.  The stages read typed fields only.

``run`` executes the stages in order density -> criteria -> simulation ->
comparisons; partial failures are embedded per stage (per criterion in
the criteria stage) and reflected in the exit code:

    0  all stages green
    2  a criterion verdict differed from its declared expectation
    3  a numerical stage failed (solver error, failed check)
    4  config error (found before any stage runs)

Reports are JSON (schema-versioned, canonical key order); bulk numerics go
to CSV (comma separator, ``.`` decimal, header row, LF line endings) and are
byte-identical across reruns with the same seed.
Each stage builds the CSV tables of the numbers it computes and returns them
as :class:`Table` values beside its report blob; a stage that fails returns
no tables.  ``emit_report`` only writes ``report.json``, ``verdicts.json`` and
the collected tables.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import re
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from . import calculus as calc
from . import criteria as crit
from . import density as dens
from . import montecarlo as mc
from .calculus import CoefficientSet, DensityField
from .expr import Const, Expr, ExprError, evaluate, parse_expr

SCHEMA_VERSION = 1

BUILTIN_NAMES = (
    "planar_bm",
    "ou_2d",
    "example_3_8",
    "remark_2_1_12_i",
    "remark_2_1_12_ii",
    "example_3_2_1_4_ii",
    "corollary_3_1_3_demo",
    "superlinear_blowup",
)


class ConfigError(Exception):
    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


# ---------------------------------------------------------------------------
# readers: each takes a config value, its field path and the scenario
# dimension, and returns the typed value or raises ConfigError at that path

Reader = Callable[[object, str, int], object]


def _key(read: Reader, default=MISSING):
    """A dataclass field read from the config key of the same name; a field
    without a default is a required key."""
    return field(default=default, metadata={"read": read})


def _parse(cls, obj, path: str, d: int, readers: Optional[Dict[str, Reader]] = None):
    """``cls`` from the config object at ``path``, each key read by its reader
    (by default the one its field declares)."""
    readers = readers or {f.name: f.metadata["read"] for f in fields(cls) if "read" in f.metadata}
    if not isinstance(obj, dict):
        raise ConfigError("expected dict", path)
    for key in obj:
        if key not in readers:
            raise ConfigError("unknown field", f"{path}.{key}")
    kw = {}
    for f in fields(cls):
        if f.name in obj:
            kw[f.name] = readers[f.name](obj[f.name], f"{path}.{f.name}", d)
        elif f.name in readers and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError("missing required field", f"{path}.{f.name}")
    return cls(**kw)


def _block(cls, readers: Optional[Dict[str, Reader]] = None) -> Reader:
    return lambda v, path, d: _parse(cls, v, path, d, readers)


def _typed(kind: type, name: str) -> Reader:
    def read(v, path, d=0):
        # bool is a subclass of int, but true and false are no ints here
        if not isinstance(v, kind) or (isinstance(v, bool) and kind is not bool):
            raise ConfigError(f"expected {name}", path)
        return v

    return read


_int, _str, _bool = _typed(int, "int"), _typed(str, "str"), _typed(bool, "bool")


def _number(v, path, d=0):
    """A number with a finite float value, kept as written (int or float)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError("expected a number", path)
    return v


def _float(v, path, d=0) -> float:
    return float(_number(v, path))


def _positive(v, path, d=0) -> float:
    if not _float(v, path) > 0:
        raise ConfigError("must be positive", path)
    return float(v)


def _count(v, path, d=0) -> int:
    if _int(v, path) < 1:
        raise ConfigError("must be >= 1", path)
    return v


def _choice(options) -> Reader:
    def read(v, path, d=0):
        if not isinstance(v, str) or v not in options:
            raise ConfigError(f"{v!r} is not one of {', '.join(options)}", path)
        return v

    return read


def _list(read: Reader, nonempty: bool = False) -> Reader:
    def read_list(v, path, d):
        if not isinstance(v, list):
            raise ConfigError("expected list", path)
        if nonempty and not v:
            raise ConfigError("must not be empty", path)
        return tuple(read(x, f"{path}[{i}]", d) for i, x in enumerate(v))

    return read_list


def _vector(read: Reader) -> Reader:
    """A list of ``d`` entries."""

    def read_vector(v, path, d):
        out = _list(read)(v, path, d)
        if len(out) != d:
            raise ConfigError(f"expected {d} components", path)
        return out

    return read_vector


_floats = _list(_float, nonempty=True)


def _ladder(v, path, d) -> Tuple[float, ...]:
    out = _list(_positive, nonempty=True)(v, path, d)
    if list(out) != sorted(out):
        raise ConfigError("must be increasing", path)
    return out


def _expr(v, path, d) -> Expr:
    if isinstance(v, str):
        try:
            return parse_expr(v, d)
        except ExprError as err:
            raise ConfigError(f"bad expression {v!r}: {err}", path) from None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError("expected an expression", path)
    return Const(_float(v, path))


DensityRef = Union[int, str]  # index of a declared analytic density, or "solved"
SOLVED = "solved"


def _density_ref(v, path, d=0) -> DensityRef:
    match = isinstance(v, str) and re.fullmatch(r"analytic:([0-9]+)", v)
    if v != SOLVED and not match:
        raise ConfigError(f"expected 'analytic:<index>' or 'solved', got {v!r}", path)
    return int(match.group(1)) if match else SOLVED


def _constants(v, path, d) -> Dict[str, float]:
    if not isinstance(v, dict):
        raise ConfigError("expected dict", path)
    return {name: _float(c, f"{path}.{name}") for name, c in v.items()}


# RegionSpec's fields, read by the type of their defaults
_REGION_READERS: Dict[str, Reader] = {
    f.name: _choice(crit.REGION_KINDS) if f.name == "kind" else _count if type(f.default) is int else _float
    for f in fields(crit.RegionSpec)
}


def _region(v, path, d) -> crit.RegionSpec:
    """A region reads its ``kind`` (default annulus) and the fields that
    ``criteria.REGION_FIELDS`` names for the kind."""
    if not isinstance(v, dict):
        raise ConfigError("expected dict", path)
    kind = _REGION_READERS["kind"](v.get("kind", crit.RegionSpec.kind), f"{path}.kind")
    readers = {name: _REGION_READERS[name] for name in ("kind", *crit.REGION_FIELDS[kind])}
    for key in v:
        if key in _REGION_READERS and key not in readers:
            raise ConfigError(f"{kind} region does not read this field", f"{path}.{key}")
    try:
        return _parse(crit.RegionSpec, v, path, d, readers)
    except crit.CriterionError as err:
        raise ConfigError(str(err), path) from None


# ---------------------------------------------------------------------------
# simulation checks: the simulation block each type reads, the fields it
# needs and may be given, and its test


def _n_se(chk: Check) -> float:
    """Standard errors a check allows; 3 when not given."""
    return 3.0 if chk.n_se is None else chk.n_se


def _moment_value(chk: Check, out: dict, scfg) -> Tuple[bool, str]:
    row = next(r for r in out["moments"] if r["time"] == chk.time)
    n_se = _n_se(chk)
    return (
        abs(row["estimate"] - chk.value) <= n_se * row["std_error"],
        f"estimate {row['estimate']:.6g} vs {chk.value} +- {n_se} SE",
    )


def _moment_bound(chk: Check, out: dict, scfg) -> Tuple[bool, str]:
    worst = max(r["bound_ratio"] for r in out["moments"])
    return worst <= 1.0, f"max bound ratio {worst:.4f}"


def _ergodic_value(chk: Check, out: dict, scfg) -> Tuple[bool, str]:
    val = out["ergodic"]["terminal_average"]
    return abs(val - chk.value) <= chk.tol, f"terminal average {val:.4f} vs {chk.value} +- {chk.tol}"


def _ks_below_critical(chk: Check, out: dict, scfg) -> Tuple[bool, str]:
    """The largest marginal KS distance against one marginal's critical value;
    over d independent marginals the false-alarm level is about
    ``1 - (1 - alpha)^d`` (9.75% at 5pct in d=2)."""
    tr = out["transition"]
    if "ks_distance" not in tr:  # the reference was found not normalizable
        return False, tr["reference_error"]
    level = chk.level or "5pct"
    factor, alpha = mc.KS_FACTOR[level]
    critical = factor / math.sqrt(scfg.paths)
    worst, d = max(tr["ks_distance"]), len(tr["ks_distance"])
    family = 1.0 - (1.0 - alpha) ** d
    return worst <= critical, (
        f"max KS {worst:.4f} vs critical {critical:.4f} ({level} per marginal; "
        f"about {family:.2%} family-wise over {d} marginals)"
    )


def _mean_at(chk: Check, out: dict, scfg) -> Tuple[bool, str]:
    tr = out["transition"]
    ok = all(
        abs(m - w) <= _n_se(chk) * max(se, 1e-12)
        for m, w, se in zip(tr["mean"], chk.value, tr["mean_std_error"])
    )
    return ok, f"mean {tr['mean']} vs {list(chk.value)}"


def _exit_row(chk: Check, out: dict) -> dict:
    return next(r for r in out["exit"]["per_radius"] if r["radius"] == chk.radius)


def _exit_prob(chk: Check, out: dict, scfg) -> Tuple[bool, str]:
    p = _exit_row(chk, out)["p_exit_by_horizon"]
    ok = (chk.min is None or p >= chk.min) and (chk.max is None or p <= chk.max)
    return ok, f"P(exit {chk.radius}) = {p:.4f}"


def _exit_mean_time(chk: Check, out: dict, scfg) -> Tuple[bool, str]:
    row = _exit_row(chk, out)
    if "mean_exit_time" not in row:
        return False, f"no path exited radius {chk.radius}"
    val = row["mean_exit_time"]
    return abs(val - chk.value) <= chk.rel_tol * abs(chk.value), f"mean exit time {val:.4f} vs {chk.value}"


def _not_normalizable(chk: Check, out: dict, scfg) -> Tuple[bool, str]:
    tr = out["transition"]
    return "reference_error" in tr, tr.get("reference_error", "reference was normalizable")


class _CheckKind(NamedTuple):
    block: str  # the simulation block whose output the check reads
    needs: Tuple[str, ...]  # Check fields the type needs
    reads: Tuple[str, ...]  # Check fields the type may be given
    test: Callable[[Check, dict, mc.SimulationConfig], Tuple[bool, str]]


_CHECKS: Dict[str, _CheckKind] = {
    "moment_value": _CheckKind("moments", ("time", "value"), ("n_se",), _moment_value),
    "moment_bound": _CheckKind("moments", (), (), _moment_bound),
    "ergodic_value": _CheckKind("ergodic", ("value", "tol"), (), _ergodic_value),
    "ks_below_critical": _CheckKind("transition", (), ("level",), _ks_below_critical),
    # time, when given, must be transition.t: the only time the block samples
    "mean_at": _CheckKind("transition", ("value",), ("time", "n_se"), _mean_at),
    "exit_prob": _CheckKind("exit", ("radius",), ("min", "max"), _exit_prob),
    "exit_mean_time": _CheckKind("exit", ("radius", "value", "rel_tol"), (), _exit_mean_time),
    "not_normalizable": _CheckKind("transition", (), (), _not_normalizable),
}


# ---------------------------------------------------------------------------
# scenario model: what validate_config returns; each field with a reader is
# a config key


class Declared(NamedTuple):
    source: object  # the expression as written in the config
    expr: Expr


def _declared_density(v, path, d) -> Declared:
    """A density must be finite and nonnegative at the probe points and
    positive at the origin; values that underflow to 0 far out stay legal."""
    e = _expr(v, path, d)
    with np.errstate(all="ignore"):
        vals = evaluate(e, calc.default_probes(d))
    if not (np.all(np.isfinite(vals)) and np.all(vals >= 0) and vals[0] > 0):
        raise ConfigError("must be finite and >= 0 at the probe points and > 0 at the origin", path)
    return Declared(v, e)


@dataclass(frozen=True)
class BetaOfDensity:
    """``H = 1/2 (A + C^T) grad(rho) / rho`` of a declared analytic density,
    which leaves that density invariant for any antisymmetric ``C``."""

    beta_of_density: int = _key(_int, 0)


def _drift(v, path, d) -> Union[Tuple[Expr, ...], BetaOfDensity]:
    if isinstance(v, dict):
        return _parse(BetaOfDensity, v, path, d)
    return _vector(_expr)(v, path, d)


def _matrix(kind: str) -> Reader:
    """A ``symmetric`` or ``antisymmetric`` d x d matrix of expressions, as
    ragged upper-triangle rows or full rows."""

    def read(v, path, d):
        rows = _list(_list(_expr))(v, path, d)
        try:
            calc.upper_triangle(rows, d, kind)
        except calc.ShapeError as err:
            raise ConfigError(str(err), path) from None
        return rows

    return read


@dataclass(frozen=True)
class Coefficients:
    A: Tuple[Tuple[Expr, ...], ...] = _key(_matrix("symmetric"))
    C: Optional[Tuple[Tuple[Expr, ...], ...]] = _key(_matrix("antisymmetric"), None)
    H: Union[None, Tuple[Expr, ...], BetaOfDensity] = _key(_drift, None)
    G: Optional[Tuple[Expr, ...]] = _key(_vector(_expr), None)
    p: Optional[float] = _key(_positive, None)


@dataclass(frozen=True)
class Solve:
    R_ladder: Tuple[float, ...] = _key(_ladder)
    n: int = _key(_count)
    boundary: Union[str, Expr] = _key(lambda v, path, d: v if v == "ones" else _expr(v, path, d), "ones")


@dataclass(frozen=True)
class PowerBound:
    c: float = _key(_number)
    power: float = _key(_number)


@dataclass(frozen=True)
class VolumeProfile:
    radii: Tuple[float, ...] = _key(_list(_positive, nonempty=True))
    density: DensityRef = _key(_density_ref, 0)
    bound: Optional[PowerBound] = _key(_block(PowerBound), None)


@dataclass(frozen=True)
class Densities:
    analytic: Tuple[Declared, ...] = _key(_list(_declared_density), ())
    residual_box: float = _key(_positive, 3.0)
    residual_tolerance: float = _key(_float, 1e-8)
    solve: Optional[Solve] = _key(_block(Solve), None)
    volume_profile: Optional[VolumeProfile] = _key(_block(VolumeProfile), None)


# the criterion whose trend table the criteria stage writes to a CSV file, with
# the file's name and columns; one such criterion per scenario
_TREND_CSV = {"VOLUME_RECURRENCE": ("volume_test.csv", ("n", "a_n", "v2_n", "log_v2_over_a"))}


@dataclass(frozen=True)
class Criterion(crit.CriterionSpec):
    """A criterion as a config gives it: the spec, the density it reads and
    the verdict it expects."""

    density: Optional[DensityRef] = None
    expect: str = crit.VERDICTS[0]  # holds-on-grid


# one reader per Criterion field; Bbar, a drift, is a vector of expressions
_CRITERION_READERS: Dict[str, Reader] = {
    "id": _choice(crit.TEMPLATES), "constants": _constants, "region": _region, "variant": _str,
    "mode": _choice(crit.MODES), **{name: _expr for name in crit.INPUTS}, "Bbar": _vector(_expr),
    "density": _density_ref, "expect": _choice(crit.VERDICTS),
}


@dataclass(frozen=True)
class MomentBound:
    M: float = _key(_float)  # E phi(X_t) <= e^{M t} phi(x0)


@dataclass(frozen=True)
class Moments:
    phi: Expr = _key(_expr)
    times: Tuple[float, ...] = _key(_floats)
    bound: Optional[MomentBound] = _key(_block(MomentBound), None)


@dataclass(frozen=True)
class Ergodic:
    f: Expr = _key(_expr)
    horizon: float = _key(_positive)
    burn_in: float = _key(_float)


@dataclass(frozen=True)
class Krylov:
    f: Expr = _key(_expr)
    t: float = _key(_positive)
    x_grid: Tuple[Tuple[float, ...], ...] = _key(_list(_vector(_float), nonempty=True))
    density: Optional[DensityRef] = _key(_density_ref, None)
    q: Optional[float] = _key(_positive, None)


@dataclass(frozen=True)
class Transition:
    t: float = _key(_positive)
    reference: Optional[DensityRef] = _key(_density_ref, None)


@dataclass(frozen=True)
class Exit:
    radii: Optional[Tuple[float, ...]] = _key(_floats, None)  # default: every ladder radius


@dataclass(frozen=True)
class Check:
    type: str = _key(_choice(_CHECKS))
    time: Optional[float] = _key(_float, None)
    value: Union[None, float, Tuple[float, ...]] = _key(
        lambda v, path, d: _vector(_float)(v, path, d) if isinstance(v, list) else _float(v, path), None
    )
    n_se: Optional[float] = _key(_float, None)
    tol: Optional[float] = _key(_float, None)
    level: Optional[str] = _key(_choice(mc.KS_FACTOR), None)
    radius: Optional[float] = _key(_float, None)
    min: Optional[float] = _key(_float, None)
    max: Optional[float] = _key(_float, None)
    rel_tol: Optional[float] = _key(_float, None)


@dataclass(frozen=True)
class Simulation:
    dt: float = _key(_positive)
    horizon: float = _key(_positive)
    paths: int = _key(_count)
    seed: int = _key(_int)
    radii: Tuple[float, ...] = _key(_floats)
    x0: Tuple[float, ...] = _key(_vector(_float))
    clip: float = _key(_float, mc.SimulationConfig.clip)
    moments: Optional[Moments] = _key(_block(Moments), None)
    ergodic: Optional[Ergodic] = _key(_block(Ergodic), None)
    krylov: Optional[Krylov] = _key(_block(Krylov), None)
    transition: Optional[Transition] = _key(_block(Transition), None)
    exit: Optional[Exit] = _key(_block(Exit), None)
    save_paths: bool = _key(_bool, False)
    checks: Tuple[Check, ...] = _key(_list(_block(Check)), ())

    @cached_property
    def config(self) -> mc.SimulationConfig:
        return mc.SimulationConfig(
            dt=self.dt, horizon=self.horizon, paths=self.paths, seed=self.seed,
            radii=self.radii, clip=self.clip,
        )


def _schema_version(v, path, d=0) -> int:
    if _int(v, path) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {v}", path)
    return v


@dataclass(frozen=True)
class Scenario:
    # schema_version, name and dimension come first: fields are read in this
    # order, and the readers after them parse expressions in that dimension
    schema_version: int = _key(_schema_version)
    name: str = _key(_str)
    dimension: int = _key(_count)
    coefficients: Coefficients = _key(_block(Coefficients))
    density: Densities = _key(_block(Densities), Densities())
    criteria: Tuple[Criterion, ...] = _key(_list(_block(Criterion, _CRITERION_READERS)), ())
    simulation: Optional[Simulation] = _key(_block(Simulation), None)
    notes: Tuple[str, ...] = _key(_list(_str), ())
    output_dir: Optional[str] = _key(_str, None)
    source: Optional[dict] = field(default=None, compare=False, repr=False)  # the config, echoed in reports


# ---------------------------------------------------------------------------
# config handling


def load_config(name_or_path: str) -> dict:
    """Load a scenario config from a path or the built-in catalog."""
    p = Path(name_or_path)
    if p.exists():
        text = p.read_text()
    elif name_or_path in BUILTIN_NAMES:
        text = (
            importlib.resources.files("sdelab")
            .joinpath(f"scenarios/{name_or_path}.json")
            .read_text()
        )
    else:
        raise ConfigError(
            f"{name_or_path!r} is neither a file nor a built-in scenario "
            f"(built-ins: {', '.join(BUILTIN_NAMES)})"
        )
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON: {err}") from None
    return cfg


def canonical_config(cfg: dict) -> str:
    """Canonical serialization: sorted keys, stable float formatting."""
    return json.dumps(cfg, indent=2, sort_keys=True)


def validate_config(cfg: dict) -> Scenario:
    """Parse a config dict into a :class:`Scenario`, reading every field once.

    Raises :class:`ConfigError` with the path of the first malformed field.
    """
    # the dimension reader rejects a bad dimension before any reader uses it
    d = cfg.get("dimension") if isinstance(cfg, dict) else None
    scenario = replace(_parse(Scenario, cfg, "$", d), source=cfg)
    _check_references(scenario)
    return scenario


def _check_references(s: Scenario) -> None:
    """The rules that relate fields to one another."""
    co, dn = s.coefficients, s.density
    declared = {*range(len(dn.analytic)), *([SOLVED] if dn.solve else [])}

    def ref(r: Optional[DensityRef], path: str) -> None:
        if r is not None and r not in declared:
            raise ConfigError("no such density is declared", path)

    if (co.H is None) == (co.G is None):
        raise ConfigError("give either H or G", "$.coefficients")
    if isinstance(co.H, BetaOfDensity):
        ref(co.H.beta_of_density, "$.coefficients.H.beta_of_density")
    if dn.solve:
        try:
            for R in dn.solve.R_ladder:
                dens.BoxMesh(R=R, n=dn.solve.n, d=s.dimension)
        except calc.ShapeError as err:
            raise ConfigError(str(err), "$.density.solve") from None
    if dn.volume_profile:
        ref(dn.volume_profile.density, "$.density.volume_profile.density")
    for i, c in enumerate(s.criteria):
        ref(c.density, f"$.criteria[{i}].density")
        try:
            crit.check_criterion(c, s.dimension, c.density is not None)
        except crit.CriterionError as err:
            raise ConfigError(err.message, f"$.criteria[{i}].{err.where}") from None
        if c.id in _TREND_CSV and any(b.id == c.id for b in s.criteria[:i]):
            raise ConfigError(f"a second {c.id} would overwrite {_TREND_CSV[c.id][0]}", f"$.criteria[{i}].id")
    if s.simulation:
        _check_simulation(s.simulation, s.dimension, ref)


def _check_simulation(sim: Simulation, d: int, ref: Callable[[Optional[DensityRef], str], None]) -> None:
    path = "$.simulation"

    def run_config(where: str, **changes) -> mc.SimulationConfig:
        try:
            return replace(sim.config, **changes)
        except mc.MonteCarloError as err:
            raise ConfigError(str(err), where) from None

    def inside(x: Sequence[float], where: str) -> None:
        if float(np.linalg.norm(x)) >= sim.radii[0]:
            raise ConfigError("must lie inside the smallest ladder radius", where)

    scfg = run_config(path)
    inside(sim.x0, f"{path}.x0")
    if sim.moments:
        for i, t in enumerate(sim.moments.times):
            if not 0 <= t <= scfg.horizon:
                raise ConfigError("must lie in [0, horizon]", f"{path}.moments.times[{i}]")
    if sim.ergodic:
        run_config(f"{path}.ergodic.horizon", horizon=sim.ergodic.horizon)
        if not 0 <= sim.ergodic.burn_in < sim.ergodic.horizon:
            raise ConfigError("must lie in [0, horizon)", f"{path}.ergodic.burn_in")
    if sim.krylov:
        run_config(f"{path}.krylov.t", horizon=sim.krylov.t)
        for i, x in enumerate(sim.krylov.x_grid):
            inside(x, f"{path}.krylov.x_grid[{i}]")
        ref(sim.krylov.density, f"{path}.krylov.density")
        if sim.krylov.q is not None and sim.krylov.density is None:
            raise ConfigError("q is read only with a density (the L^q(mu) norm)", f"{path}.krylov.q")
    if sim.transition:
        if not scfg.dt <= sim.transition.t <= scfg.horizon:
            raise ConfigError("must lie in [dt, horizon]", f"{path}.transition.t")
        ref(sim.transition.reference, f"{path}.transition.reference")
    exit_radii = sim.exit.radii if sim.exit and sim.exit.radii else scfg.radii
    for i, r in enumerate(exit_radii):
        if r not in scfg.radii:
            raise ConfigError("not one of simulation.radii", f"{path}.exit.radii[{i}]")
    for i, chk in enumerate(sim.checks):
        where = f"{path}.checks[{i}]"
        kind = _CHECKS[chk.type]
        block = getattr(sim, kind.block)
        if block is None:
            raise ConfigError(f"{chk.type} check needs a simulation.{kind.block} block", where)
        for name in (f.name for f in fields(Check) if f.name != "type"):
            given = getattr(chk, name) is not None
            if given and name not in kind.needs + kind.reads:
                raise ConfigError(f"{chk.type} check does not read this field", f"{where}.{name}")
            if not given and name in kind.needs:
                raise ConfigError("missing required field", f"{where}.{name}")
        if chk.value is not None and isinstance(chk.value, tuple) != (chk.type == "mean_at"):
            wanted = f"a list of {d} numbers" if chk.type == "mean_at" else "a number"
            raise ConfigError(f"expected {wanted}", f"{where}.value")
        if chk.type == "moment_bound" and block.bound is None:
            raise ConfigError("moment_bound check needs a bound", f"{path}.moments.bound")
        if chk.type == "moment_value" and chk.time not in block.times:
            raise ConfigError("not one of simulation.moments.times", f"{where}.time")
        if chk.type == "mean_at" and chk.time not in (None, block.t):
            raise ConfigError("must equal simulation.transition.t", f"{where}.time")
        if kind.block == "exit" and chk.radius not in exit_radii:
            raise ConfigError("not one of the exit radii", f"{where}.radius")
        if chk.type in ("ks_below_critical", "not_normalizable") and block.reference is None:
            raise ConfigError(f"{chk.type} check needs a reference", f"{path}.transition.reference")


# ---------------------------------------------------------------------------
# problem construction


def build_problem(scenario: Union[Scenario, dict]):
    if isinstance(scenario, dict):
        scenario = validate_config(scenario)  # the benchmark harness builds from raw dicts
    d, co = scenario.dimension, scenario.coefficients
    analytic = [DensityField(expr=a.expr) for a in scenario.density.analytic]
    try:
        H = co.H
        if isinstance(H, BetaOfDensity):
            # gradient-type drift derived from a declared density: H = 1/2 (A + C^T) grad(rho)/rho
            m = partial(calc.a_plus_ct_entry, *calc.coefficient_triangles(co.A, co.C, d))
            H = calc.add_half_a_log_grad([Const(0.0)] * d, m, analytic[H.beta_of_density].expr)
        return calc.build_coefficient_set(co.A, co.C, H, G=co.G, d=d, integrability_p=co.p), analytic
    except (calc.CalculusError, ExprError) as err:
        raise ConfigError(str(err), "$.coefficients") from None


class Table(NamedTuple):
    """One CSV file: a header row, the data rows, and an optional comment line
    before the header."""

    header: Sequence[str]
    rows: Sequence[Sequence]
    preamble: Optional[str] = None

    def text(self) -> str:
        lines = [] if self.preamble is None else [self.preamble]
        lines.append(",".join(self.header))
        lines += [",".join(_fmt(v) for v in row) for row in self.rows]
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # np.float64 is a float whose repr is "np.float64(...)"
    return str(v)


# what the density stage hands on: its solved density, None (the stage did not
# run or has no solve block), or the reason the stage failed
Solved = Union[None, str, dens.DensityApproximation]

# numerical failures: each fails its stage, or its one criterion, with exit 3
_NUMERICAL_ERRORS = (dens.DensityError, calc.CalculusError, mc.MonteCarloError, crit.CriterionError)


def _pick_density(ref: Optional[DensityRef], analytic: List[DensityField], solved: Solved):
    """A failed density stage fails the stage that reads its solution (exit 3);
    one that did not run leaves a config error (exit 4)."""
    if ref is None:
        return None
    if ref == SOLVED:
        if isinstance(solved, str):
            raise dens.DensityError(solved)
        if solved is None:
            raise ConfigError("no solved density available", "$.density.solve")
        return solved.to_density_field()
    return analytic[ref]


# ---------------------------------------------------------------------------
# stages: each returns its report blob and the CSV tables it computed


def run_density_stage(
    scenario: Scenario, cs: CoefficientSet, analytic: List[DensityField]
) -> Tuple[dict, Dict[str, Table], Optional[dens.DensityApproximation]]:
    """The density blob, its tables, and the solved density (None without a solve block).

    A part that fails numerically (an analytic row, the checks of a solved
    density, the volume profile) carries its own ``error`` and leaves the
    others as they are; a solve that fails fails the stage.
    """
    out: Dict[str, object] = {}
    tables: Dict[str, Table] = {}
    last = None
    block = scenario.density
    if analytic:
        rows = []
        for k, rho in enumerate(analytic):
            row: Dict[str, object] = {"index": k, "expression": block.analytic[k].source}
            try:
                check = calc.invariance_check(cs, rho, block.residual_box)
            except _NUMERICAL_ERRORS as err:
                rows.append({**row, "error": str(err)})
                continue
            rows.append(
                {
                    **row,
                    "max_invariance_residual": check.max_residual,
                    "residual_scale": check.scale,
                    "invariant_on_grid": bool(check.max_residual <= block.residual_tolerance * check.scale),
                    "divergence_report": check.max_divergence,
                    "divergence_scale": check.mass,
                    "skipped_nodes": check.skipped_nodes,
                }
            )
        out["analytic"] = rows
        if len(rows) >= 2 and all(r.get("invariant_on_grid") for r in rows):
            out["non_uniqueness_note"] = (
                "several declared densities are infinitesimally invariant and are "
                "not constant multiples of each other; the computed normalized "
                "solution is reported without canonicity claims"
            )
    solve = block.solve
    if solve is not None:
        ladder = list(solve.R_ladder)
        approxes = [dens.solve_density(cs, R, solve.n, solve.boundary) for R in ladder]
        last = approxes[-1]
        out["solve"] = blob = {
            "R_ladder": ladder,
            "n": solve.n,
            "positivity_min": last.positivity_min,
            "valid": last.valid,
            "diagnostics": last.diagnostics,
        }
        try:  # an invalid mesh is no density: these checks read it as one
            if len(approxes) >= 2:
                inner = min(ladder) / 4.0
                pts = calc.lattice([np.linspace(-inner, inner, 25)] * cs.d)
                va = approxes[-2].to_density_field().rho(pts)
                vb = last.to_density_field().rho(pts)
                blob["nested_agreement_rel"] = float(np.max(np.abs(va - vb) / np.abs(vb)))
                blob["nested_agreement_region"] = f"[-{inner}, {inner}]^{cs.d}"
            check = dens.invariance_of_solution(cs, last)
            blob["invariance_residual"] = check.max_residual
            blob["invariance_scale"] = check.scale
            blob["divergence_residual"] = check.max_divergence
            blob["skipped_nodes"] = check.skipped_nodes
        except _NUMERICAL_ERRORS as err:
            blob["error"] = str(err)
        mesh = last.mesh
        pts, vals = calc.lattice(mesh.axes()), last.values.reshape(-1)
        tables["density_grid.csv"] = Table(
            ["index"] + [f"x{i+1}" for i in range(mesh.d)] + ["value"],
            [[i, *pts[i], vals[i]] for i in range(len(vals))],
            f"# R={_fmt(mesh.R)},n={mesh.n},d={mesh.d}",
        )
    profile = block.volume_profile
    if profile is not None:
        try:
            rho = _pick_density(profile.density, analytic, last)
            prof = dens.volume_profile(rho, profile.radii, d=cs.d)
        except _NUMERICAL_ERRORS as err:
            out["volume_profile"] = {"error": str(err)}
        else:
            mu_ball = prof["mu_ball"]
            out["volume_profile"] = {**prof, "mu_ball": {str(k): v for k, v in mu_ball.items()}}
            tables["volume_profile.csv"] = Table(["radius", "mu_ball"], sorted(mu_ball.items()))
            bound = profile.bound
            if bound is not None:
                ok = all(v <= bound.c * r**bound.power * (1 + 1e-9) for r, v in mu_ball.items())
                out["volume_profile"]["bound"] = asdict(bound)
                out["volume_profile"]["within_bound"] = bool(ok)
                if not ok:
                    out["volume_profile"]["error"] = "volume profile exceeded its declared bound"
    return out, tables, last


def _density_errors(blob: dict) -> List[str]:
    """The notes of the density stage's failed parts."""
    rows = blob.get("analytic", [])
    notes = [f"density analytic[{row['index']}] error: {row['error']}" for row in rows if "error" in row]
    parts = [part for part in ("solve", "volume_profile") if "error" in blob.get(part, {})]
    return notes + [f"density {part} error: {blob[part]['error']}" for part in parts]


def _expected(verdict: crit.CriterionVerdict, expect: str) -> dict:
    blob = verdict.to_json()
    blob["expect"] = expect
    blob["as_expected"] = verdict.verdict == expect
    return blob


def run_criteria_stage(
    scenario: Scenario, cs, analytic, solved: Solved
) -> Tuple[List[dict], Dict[str, Table]]:
    """One row per criterion: its verdict and expectation, or ``{"id", "error"}``
    when it failed numerically; a density that cannot be had fails the stage."""
    results = []
    tables: Dict[str, Table] = {}
    for c in scenario.criteria:
        rho = _pick_density(c.density, analytic, solved)
        try:
            verdict = crit.evaluate_criterion(c, cs, rho=rho)
        except _NUMERICAL_ERRORS as err:
            results.append({"id": c.id, "error": str(err)})
            continue
        results.append(_expected(verdict, c.expect))
        t = verdict.trend_table
        if c.id in _TREND_CSV and t is not None:  # None when the volume test is silent
            name, columns = _TREND_CSV[c.id]
            tables[name] = Table(columns, list(zip(*(t[k] for k in columns))))
    return results, tables


def run_simulation_stage(scenario: Scenario, cs, analytic, solved: Solved) -> Tuple[dict, Dict[str, Table]]:
    sim = scenario.simulation
    if sim is None:
        return {}, {}
    scfg = sim.config
    x0 = list(sim.x0)
    # a density that cannot be had fails the stage before any path is stepped
    kry, trans = sim.krylov, sim.transition
    rho_krylov = _pick_density(kry.density, analytic, solved) if kry else None
    rho_ref = _pick_density(trans.reference, analytic, solved) if trans else None
    out: Dict[str, object] = {"config": {
        "dt": scfg.dt, "horizon": scfg.horizon, "paths": scfg.paths,
        "seed": scfg.seed, "radii": list(scfg.radii), "clip": scfg.clip, "x0": x0,
    }}
    tables: Dict[str, Table] = {}

    moments = sim.moments
    # the ergodic and Krylov estimators step their own paths
    if moments or sim.exit or trans or sim.save_paths:
        save_times = set(moments.times) if moments else set()
        if trans:
            save_times.add(trans.t)
        ens = mc.simulate_ensemble(cs, x0, scfg, save_times=sorted(save_times))
        out["clip_events"] = int(ens.clip_counts.sum())
        out["exited_paths"] = int(ens.status.sum())
    if sim.save_paths:
        tables["paths.csv"] = Table(*mc.ensemble_summary_rows(ens))

    if moments:
        bound = asdict(moments.bound) if moments.bound else None
        curve = out["moments"] = mc.moment_curve(ens, moments.phi, moments.times, bound=bound)
        columns = ["time", "estimate", "std_error", "paths"] + (["bound", "bound_ratio"] if bound else [])
        tables["moments.csv"] = Table(columns, [[r[c] for c in columns] for r in curve])
    if sim.exit:
        exits = out["exit"] = mc.exit_statistics(ens, sim.exit.radii)
        tables["exit.csv"] = Table(
            ["radius", "p_exit", "wilson_lo", "wilson_hi", "mean_exit_time", "median_exit_time"],
            [
                [r["radius"], r["p_exit_by_horizon"], *r["wilson_95"],
                 r.get("mean_exit_time", ""), r.get("median_exit_time", "")]
                for r in exits["per_radius"]
            ],
        )
    erg = sim.ergodic
    if erg:
        average = out["ergodic"] = mc.ergodic_average(
            cs, x0, replace(scfg, horizon=erg.horizon), erg.f, burn_in=erg.burn_in
        )
        tables["ergodic.csv"] = Table(
            ["time", "running_average"], list(zip(average["times"], average["running_average"]))
        )
    if kry:
        functional = out["krylov"] = mc.krylov_functional(
            cs, kry.f, kry.t, kry.x_grid, scfg, rho=rho_krylov, q=kry.q
        )
        tables["krylov.csv"] = Table(
            ["start", "estimate", "std_error"],
            [[";".join(map(_fmt, r["x"])), r["estimate"], r["std_error"]] for r in functional["per_start"]],
        )
    if trans:
        tr = out["transition"] = mc.transition_histogram(ens, trans.t, rho_ref=rho_ref)
        quantiles = tr["cdf_quantiles"]
        tables["transition_cdf.csv"] = Table(
            ["level"] + [f"x{k+1}_quantile" for k in range(len(quantiles))],
            [[level, *q] for level, *q in zip(tr["cdf_levels"], *quantiles)],
        )

    out["checks"] = [_run_check(chk, out, scfg) for chk in sim.checks]
    return out, tables


def _run_check(chk: Check, sim_out: dict, scfg: mc.SimulationConfig) -> dict:
    passed, detail = _CHECKS[chk.type].test(chk, sim_out, scfg)
    return {"type": chk.type, "passed": passed, "detail": detail}


# ---------------------------------------------------------------------------
# emission


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays so the report stays numeric."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _write_json(path: Path, blob) -> None:
    path.write_text(json.dumps(_jsonable(blob), indent=2, sort_keys=True) + "\n")


def emit_report(report: dict, tables: Dict[str, Table], out_dir: Path) -> None:
    """Write report.json, verdicts.json when the criteria stage gave verdicts,
    and one CSV file per table."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", report)
    verdicts = report["stages"].get("criteria")
    if isinstance(verdicts, list):  # a failed stage holds {"error": ...}
        _write_json(out_dir / "verdicts.json", verdicts)
    for name, table in tables.items():
        (out_dir / name).write_text(table.text(), newline="\n")


# ---------------------------------------------------------------------------
# orchestration


def run_scenario(
    cfg: Union[Scenario, dict],
    out_dir: Union[None, str, Path] = None,
    *,
    stages: Sequence[str] = ("density", "criteria", "simulation"),
    threads: int = 1,  # read by nothing; perfbench/workloads.py passes it
    seed_override: Optional[int] = None,
) -> dict:
    """Execute the requested stages; returns the report with an exit code."""
    report: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "stages": {},
        "timings": {},
        "status": {"exit_code": 0, "notes": []},
    }
    exit_code = 0
    notes: List[str] = report["status"]["notes"]

    try:
        scenario = cfg if isinstance(cfg, Scenario) else validate_config(cfg)
        report["scenario"] = json.loads(canonical_config(scenario.source))
        sim = scenario.simulation
        if seed_override is not None and sim is not None:
            sim = replace(sim, seed=seed_override)
            scenario = replace(scenario, simulation=sim)
            report["scenario"]["simulation"]["seed"] = seed_override
        report["seed_record"] = {
            "master_seed": sim.seed if sim is not None else None,
            "overridden": seed_override is not None,
        }
        cs, analytic = build_problem(scenario)
    except ConfigError as err:
        report["stages"]["build"] = {"error": str(err)}
        report["status"]["exit_code"] = 4
        return report

    solved: Solved = None
    tables: Dict[str, Table] = {}
    for stage in stages:
        t0 = time.perf_counter()
        try:
            if stage == "density":
                blob, stage_tables, solved = run_density_stage(scenario, cs, analytic)
                errors = _density_errors(blob)
                notes.extend(errors)
                if errors:
                    exit_code = max(exit_code, 3)
                for row in blob.get("analytic", []):
                    if not row.get("invariant_on_grid", True):
                        notes.append(
                            f"declared density {row['index']} fails the invariance "
                            f"residual at tolerance"
                        )
                        exit_code = max(exit_code, 3)
            elif stage == "criteria":
                blob, stage_tables = run_criteria_stage(scenario, cs, analytic, solved)
                for i, v in enumerate(blob):
                    if "error" in v:
                        notes.append(f"criteria[{i}] {v['id']} error: {v['error']}")
                        exit_code = max(exit_code, 3)
                    elif not v["as_expected"]:
                        notes.append(f"criterion {v['id']}: verdict {v['verdict']} != expected {v['expect']}")
                        exit_code = max(exit_code, 2)
            elif stage == "simulation":
                blob, stage_tables = run_simulation_stage(scenario, cs, analytic, solved)
                for chk in blob.get("checks", []):
                    if not chk["passed"]:
                        notes.append(f"simulation check {chk['type']} failed: {chk['detail']}")
                        exit_code = max(exit_code, 3)
            else:
                raise ConfigError(f"unknown stage {stage!r}")
            report["stages"][stage] = blob
            tables.update(stage_tables)
        except _NUMERICAL_ERRORS as err:
            report["stages"][stage] = {"error": str(err)}
            notes.append(f"stage {stage} error: {err}")
            exit_code = max(exit_code, 3)
            if stage == "density":
                solved = f"no solved density: the density stage failed: {err}"
        except ConfigError as err:
            report["stages"][stage] = {"error": str(err)}
            notes.append(f"stage {stage} config error: {err}")
            exit_code = max(exit_code, 4)
        report["timings"][stage] = time.perf_counter() - t0

    notes.extend(scenario.notes)
    report["status"]["exit_code"] = exit_code
    if out_dir is not None:
        emit_report(report, tables, Path(out_dir))
    return report


# ---------------------------------------------------------------------------
# entry point


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdelab",
        description="invariant densities, global-property criteria and Monte Carlo "
        "cross-checks for Ito SDEs with rough coefficients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # subcommand -> help, stages it runs
    commands = {
        "validate": ("validate a config and exit", ()),
        "density": ("run the density stage only", ("density",)),
        "check": ("run the density and criteria stages", ("density", "criteria")),
        "simulate": ("run the simulation stage only", ("simulation",)),
        "ergodic": ("run only the ergodic-average estimator", ("simulation",)),
        "krylov": ("run only the occupation-functional estimator", ("simulation",)),
        "run": ("run the full pipeline", ("density", "criteria", "simulation")),
    }
    for name, (help_text, _) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a scenario JSON or a built-in name")
        p.add_argument("--out", default=None, help="output directory (default: ./out/<name>)")
        p.add_argument("--seed", type=int, default=None, help="override the simulation seed")
    sub.add_parser("catalog", help="list built-in scenarios")

    args = parser.parse_args(argv)

    if args.command == "catalog":
        for name in BUILTIN_NAMES:
            print(name)
        return 0

    try:
        scenario = validate_config(load_config(args.config))
        if args.command == "validate":
            build_problem(scenario)  # the coefficient set, checked as run checks it
            print(f"{scenario.name}: ok")
            return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 4

    if args.out is None and scenario.output_dir:
        args.out = scenario.output_dir

    if args.command in ("ergodic", "krylov") and scenario.simulation is not None:
        # keep only the estimator the subcommand names
        drop = dict(
            moments=None, ergodic=None, krylov=None, transition=None, exit=None, save_paths=False, checks=()
        )
        del drop[args.command]
        scenario = replace(scenario, simulation=replace(scenario.simulation, **drop))

    out_dir = Path(args.out) if args.out else Path("out") / scenario.name
    report = run_scenario(
        scenario,
        out_dir,
        stages=commands[args.command][1],
        seed_override=args.seed,
    )
    code = report["status"]["exit_code"]
    label = {0: "green", 2: "criterion-mismatch", 3: "numerical-error", 4: "config-error"}[code]
    print(f"{scenario.name}: exit {code} ({label}); report in {out_dir}")
    for note in report["status"]["notes"]:
        print(f"  - {note}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
