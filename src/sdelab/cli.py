"""Scenario runner: declarative JSON configs in, reports and CSV tables out.

A scenario bundles a coefficient set, declared and/or solved densities,
criterion requests, and a simulation request.  ``run`` executes the stages in
order density -> criteria -> simulation -> comparisons; partial failures are
embedded per stage and reflected in the exit code:

    0  all stages green
    2  a criterion verdict differed from its declared expectation
    3  a numerical stage failed (solver error, failed check)
    4  config error

Reports are JSON (schema-versioned, canonical key order); bulk numerics go
to CSV (comma separator, ``.`` decimal, header row, LF line endings) and are
byte-identical across reruns with the same seed, independent of --threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.resources
import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from . import calculus as calc
from . import criteria as crit
from . import density as dens
from . import montecarlo as mc
from .calculus import CoefficientSet, DensityField
from .expr import CallableField, Const, parse_expr

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
# builtin candidate fields (for certificates with no closed form in the DSL)


def _gaussian_primitive() -> CallableField:
    from scipy.special import erf

    return CallableField(
        value=lambda p: math.sqrt(math.pi) / 2 * (1 + erf(p[:, 0])),
        grad=lambda p: np.exp(-p[:, 0] ** 2)[:, None],
        hess=lambda p: (-2 * p[:, 0] * np.exp(-p[:, 0] ** 2))[:, None, None],
    )


BUILTIN_FIELDS = {"gaussian_primitive": _gaussian_primitive}


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


def _object(val, path: str) -> dict:
    if not isinstance(val, dict):
        raise ConfigError("expected dict", path)
    return val


def _need(cfg: dict, key: str, typ, path: str):
    if key not in _object(cfg, path):
        raise ConfigError(f"missing required field", f"{path}.{key}")
    val = cfg[key]
    if typ is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ConfigError("expected a number", f"{path}.{key}")
        return float(val)
    if not isinstance(val, typ):
        raise ConfigError(f"expected {typ.__name__}", f"{path}.{key}")
    return val


# the simulation block each check type reads its data from
_CHECK_BLOCKS = {
    "moment_value": "moments",
    "moment_bound": "moments",
    "ergodic_value": "ergodic",
    "ks_below_critical": "transition",
    "mean_at": "transition",
    "exit_prob": "exit",
    "exit_mean_time": "exit",
}


def validate_config(cfg: dict) -> None:
    """Structural validation with the failing field path in errors."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _need(cfg, "schema_version", int, "$")
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {cfg['schema_version']}", "$.schema_version")
    name = _need(cfg, "name", str, "$")
    d = _need(cfg, "dimension", int, "$")
    if d < 1:
        raise ConfigError("dimension must be >= 1", "$.dimension")
    coeffs = _need(cfg, "coefficients", dict, "$")
    _need(coeffs, "A", list, "$.coefficients")
    if "H" not in coeffs and "G" not in coeffs:
        raise ConfigError("give either H or G", "$.coefficients")
    # expressions must parse
    def check_exprs(obj, path):
        if isinstance(obj, str):
            try:
                parse_expr(obj, d)
            except Exception as err:
                raise ConfigError(f"bad expression {obj!r}: {err}", path) from None
        elif isinstance(obj, list):
            for i, sub in enumerate(obj):
                check_exprs(sub, f"{path}[{i}]")

    for key in ("A", "C", "H", "G"):
        if key in coeffs:
            check_exprs(coeffs[key], f"$.coefficients.{key}")
    densities = _object(cfg.get("density", {}), "$.density")
    for i, e in enumerate(densities.get("analytic", [])):
        check_exprs(e, f"$.density.analytic[{i}]")
    solve = densities.get("solve")
    if solve is not None:
        ladder = _need(solve, "R_ladder", list, "$.density.solve")
        if sorted(ladder) != ladder or len(ladder) == 0:
            raise ConfigError("R_ladder must be nonempty and increasing", "$.density.solve.R_ladder")
        _need(solve, "n", int, "$.density.solve")
    if not isinstance(cfg.get("criteria", []), list):
        raise ConfigError("expected list", "$.criteria")
    for i, c in enumerate(cfg.get("criteria", [])):
        cid = _need(c, "id", str, f"$.criteria[{i}]")
        if cid not in crit.CATALOG:
            raise ConfigError(f"unknown criterion id {cid!r}", f"$.criteria[{i}].id")
        expect = c.get("expect", "holds-on-grid")
        if expect not in ("holds-on-grid", "fails-with-witness", "inconclusive"):
            raise ConfigError(f"bad expect {expect!r}", f"$.criteria[{i}].expect")
    sim = cfg.get("simulation")
    if sim is not None:
        for key in ("dt", "horizon"):
            if not _need(sim, key, float, "$.simulation") > 0:
                raise ConfigError("must be positive", f"$.simulation.{key}")
        for key in ("seed", "paths"):
            _need(sim, key, int, "$.simulation")
        radii = _need(sim, "radii", list, "$.simulation")
        if sorted(radii) != radii:
            raise ConfigError("radii must be increasing", "$.simulation.radii")
        x0 = _need(sim, "x0", list, "$.simulation")
        if len(x0) != d:
            raise ConfigError(f"x0 must have {d} components", "$.simulation.x0")
        for i, chk in enumerate(sim.get("checks", [])):
            kind = _need(chk, "type", str, f"$.simulation.checks[{i}]")
            if kind in _CHECK_BLOCKS:
                block = _CHECK_BLOCKS[kind]
                if block not in sim:
                    raise ConfigError(
                        f"{kind} check needs a simulation.{block} block", f"$.simulation.checks[{i}]"
                    )
                _object(sim[block], f"$.simulation.{block}")
            if kind == "moment_bound" and "bound" not in sim["moments"]:
                raise ConfigError("moment_bound check needs a bound", "$.simulation.moments.bound")
    if cfg.get("volume_test") is not None:
        _object(cfg["volume_test"], "$.volume_test")
    return None


# ---------------------------------------------------------------------------
# problem construction


def build_problem(cfg: dict):
    d = cfg["dimension"]
    coeffs = cfg["coefficients"]
    A = coeffs["A"]
    C = coeffs.get("C")
    p_meta = coeffs.get("p")

    analytic = [
        DensityField.from_expression(src, d) for src in cfg.get("density", {}).get("analytic", [])
    ]

    H = coeffs.get("H")
    if isinstance(H, dict):
        # gradient-type drift derived from a declared density: H = 1/2 A grad(rho)/rho
        k = H.get("beta_of_density", 0)
        if not analytic or k >= len(analytic):
            raise ConfigError("beta_of_density points at a missing density", "$.coefficients.H")
        base = calc.build_coefficient_set(A, C, None, d=d, integrability_p=p_meta)
        H = calc.add_half_a_log_grad([Const(0.0)] * d, base, analytic[k].expr)

    if "G" in coeffs:
        cs = calc.coefficient_set_from_drift(A, coeffs["G"], d=d, C=C, integrability_p=p_meta)
    else:
        cs = calc.build_coefficient_set(A, C, H, d=d, integrability_p=p_meta)
    return cs, analytic


def _resolve_candidate(spec_cfg: dict, d: int):
    cand = spec_cfg.get("candidate")
    if isinstance(cand, str) and cand.startswith("builtin:"):
        name = cand.split(":", 1)[1]
        if name not in BUILTIN_FIELDS:
            raise ConfigError(f"unknown builtin field {name!r}")
        return BUILTIN_FIELDS[name]()
    return cand


def _region_from_cfg(rcfg: Optional[dict]) -> Optional[crit.RegionSpec]:
    if rcfg is None:
        return None
    return crit.RegionSpec(
        kind=rcfg.get("kind", "annulus"),
        r_min=rcfg.get("r_min", 1.0),
        r_max=rcfg.get("r_max", 40.0),
        lo=rcfg.get("lo", -10.0),
        hi=rcfg.get("hi", 10.0),
        n_radial=rcfg.get("n_radial", 200),
        n_angular=rcfg.get("n_angular", 256),
        n_points=rcfg.get("n_points", 10_000),
    )


# ---------------------------------------------------------------------------
# stages


def run_density_stage(cfg: dict, cs: CoefficientSet, analytic: List[DensityField]) -> dict:
    out: Dict[str, object] = {}
    dcfg = cfg.get("density", {})
    residual_tol = dcfg.get("residual_tolerance", 1e-8)
    if analytic:
        rows = []
        nodes = {1: 2001, 2: 721}.get(cs.d, 81)
        rule = calc.QuadratureRule.box(dcfg.get("residual_box", 3.0), cs.d, nodes)
        bumps = calc.default_bump_library(rule.lo, rule.hi, cs.d)
        for k, rho in enumerate(analytic):
            residuals = calc.invariance_residual(cs, rho, bumps, rule)
            worst = max(abs(r.residual) for r in residuals)
            scale = max(r.scale for r in residuals)
            _, div_report = calc.decompose_drift(cs, rho, rule=rule, bumps=bumps)
            rows.append(
                {
                    "index": k,
                    "expression": cfg["density"]["analytic"][k],
                    "max_invariance_residual": worst,
                    "residual_scale": scale,
                    "invariant_on_grid": bool(worst <= residual_tol * scale),
                    "divergence_report": div_report.max_residual,
                    "divergence_scale": div_report.scale,
                }
            )
        out["analytic"] = rows
        if len(rows) >= 2 and all(r["invariant_on_grid"] for r in rows):
            out["non_uniqueness_note"] = (
                "several declared densities are infinitesimally invariant and are "
                "not constant multiples of each other; the computed normalized "
                "solution is reported without canonicity claims"
            )
    solve = dcfg.get("solve")
    if solve is not None:
        ladder = solve["R_ladder"]
        n = solve["n"]
        boundary = solve.get("boundary", "ones")
        approxes = []
        for R in ladder:
            approxes.append(dens.solve_density(cs, R, n, boundary))
        last = approxes[-1]
        out["solve"] = {
            "R_ladder": ladder,
            "n": n,
            "positivity_min": last.positivity_min,
            "valid": last.valid,
            "diagnostics": last.diagnostics,
        }
        if len(approxes) >= 2:
            inner = min(ladder) / 4.0
            a, b = approxes[-2], approxes[-1]
            xs = np.linspace(-inner, inner, 25)
            grids = np.meshgrid(*[xs] * cs.d, indexing="ij")
            pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
            va = a.to_density_field().rho(pts)
            vb = b.to_density_field().rho(pts)
            agreement = float(np.max(np.abs(va - vb) / np.abs(vb)))
            out["solve"]["nested_agreement_rel"] = agreement
            out["solve"]["nested_agreement_region"] = f"[-{inner}, {inner}]^{cs.d}"
        res_rep = dens.invariance_of_solution(cs, last)
        out["solve"]["invariance_residual"] = res_rep["max_residual"]
        out["solve"]["invariance_scale"] = res_rep["scale"]
        out["_approx"] = last  # in-process handle for later stages / CSV
    profile = dcfg.get("volume_profile")
    if profile is not None:
        rho = _pick_density(profile.get("density", "analytic:0"), analytic, out)
        prof = dens.volume_profile(
            rho, profile["radii"], d=cs.d, nodes=profile.get("nodes", 401)
        )
        out["volume_profile"] = {"mu_ball": {str(k): v for k, v in prof["mu_ball"].items()}}
        bound = profile.get("bound")
        if bound is not None:
            ok = all(
                v <= bound["c"] * r ** bound["power"] * (1 + 1e-9)
                for r, v in prof["mu_ball"].items()
            )
            out["volume_profile"]["bound"] = bound
            out["volume_profile"]["within_bound"] = bool(ok)
            if not ok:
                raise dens.DensityError("volume profile exceeded its declared bound")
    return out


def _pick_density(ref: Optional[str], analytic: List[DensityField], density_stage: dict):
    if ref is None:
        return None
    if ref == "solved":
        approx = density_stage.get("_approx")
        if approx is None:
            raise ConfigError("no solved density available", "$.density")
        return approx.to_density_field()
    if ref.startswith("analytic:"):
        k = int(ref.split(":", 1)[1])
        if k >= len(analytic):
            raise ConfigError(f"density index {k} out of range", "$.density.analytic")
        return analytic[k]
    raise ConfigError(f"bad density reference {ref!r}")


def run_criteria_stage(cfg: dict, cs, analytic, density_stage) -> List[dict]:
    results = []
    for i, ccfg in enumerate(cfg.get("criteria", [])):
        spec = crit.CriterionSpec(
            id=ccfg["id"],
            constants=dict(ccfg.get("constants", {})),
            candidate=_resolve_candidate(ccfg, cfg["dimension"]),
            rhs=ccfg.get("rhs"),
            region=_region_from_cfg(ccfg.get("region")),
            variant=ccfg.get("variant"),
            mode=ccfg.get("mode", "adjoint"),
        )
        rho = _pick_density(ccfg.get("density"), analytic, density_stage)
        kwargs = {}
        for key in ("psi1", "psi2", "h1", "h2"):
            if key in ccfg:
                kwargs[key] = ccfg[key]
        verdict = crit.evaluate_criterion(spec, cs, rho=rho, **kwargs)
        expect = ccfg.get("expect", "holds-on-grid")
        blob = verdict.to_json()
        blob["expect"] = expect
        blob["as_expected"] = verdict.verdict == expect
        results.append(blob)
    vt = cfg.get("volume_test")
    if vt is not None:
        rho = _pick_density(vt.get("density", "analytic:0"), analytic, density_stage)
        verdict = crit.recurrence_volume_test(
            cs, rho, Bbar=vt.get("Bbar"), n_max=float(vt.get("n_max", 1e6))
        )
        blob = verdict.to_json()
        expect = vt.get("expect", "holds-on-grid")
        blob["expect"] = expect
        blob["as_expected"] = verdict.verdict == expect
        results.append(blob)
    return results


def run_simulation_stage(cfg: dict, cs, analytic, density_stage, threads: int) -> dict:
    sim = cfg.get("simulation")
    if sim is None:
        return {}
    scfg = mc.SimulationConfig(
        dt=float(sim["dt"]),
        horizon=float(sim["horizon"]),
        paths=int(sim["paths"]),
        seed=int(sim["seed"]),
        radii=tuple(float(r) for r in sim["radii"]),
        clip=float(sim.get("clip", 10.0)),
    )
    d = cfg["dimension"]
    x0 = [float(v) for v in sim["x0"]]
    out: Dict[str, object] = {"config": {
        "dt": scfg.dt, "horizon": scfg.horizon, "paths": scfg.paths,
        "seed": scfg.seed, "radii": list(scfg.radii), "clip": scfg.clip, "x0": x0,
    }}

    moments_cfg = sim.get("moments")
    save_times = sorted(set(moments_cfg["times"])) if moments_cfg else None
    ens = mc.simulate_ensemble(cs, x0, scfg, save_times=save_times, threads=threads)
    out["clip_events"] = int(ens.clip_counts.sum())
    out["exited_paths"] = int(ens.status.sum())
    if sim.get("save_paths"):
        out["_ensemble"] = ens

    if moments_cfg:
        phi = parse_expr(moments_cfg["phi"], d)
        out["moments"] = mc.moment_curve(
            ens, phi, moments_cfg["times"], bound=moments_cfg.get("bound")
        )
    exit_cfg = sim.get("exit")
    if exit_cfg:
        out["exit"] = mc.exit_statistics(ens, exit_cfg.get("radii"))
    erg = sim.get("ergodic")
    if erg:
        out["ergodic"] = mc.ergodic_average(
            cs,
            x0,
            dataclasses.replace(scfg, horizon=float(erg["horizon"])),
            parse_expr(erg["f"], d),
            burn_in=float(erg["burn_in"]),
        )
    kry = sim.get("krylov")
    if kry:
        rho = _pick_density(kry.get("density"), analytic, density_stage)
        out["krylov"] = mc.krylov_functional(
            cs,
            parse_expr(kry["f"], d),
            float(kry["t"]),
            kry["x_grid"],
            scfg,
            rho=rho,
            q=kry.get("q"),
            threads=threads,
        )
    trans = sim.get("transition")
    if trans:
        rho_ref = _pick_density(trans.get("reference"), analytic, density_stage)
        try:
            out["transition"] = mc.transition_histogram(
                cs, x0, float(trans["t"]), scfg, rho_ref=rho_ref, threads=threads
            )
        except mc.MonteCarloError as err:
            if "not normalizable" in str(err):
                # keep the empirical marginals; record why no reference applies
                out["transition"] = mc.transition_histogram(
                    cs, x0, float(trans["t"]), scfg, rho_ref=None, threads=threads
                )
                out["transition"]["reference_error"] = str(err)
            else:
                raise

    checks = []
    for chk in sim.get("checks", []):
        checks.append(_run_check(chk, out, scfg))
    out["checks"] = checks
    return out


def _run_check(chk: dict, sim_out: dict, scfg: mc.SimulationConfig) -> dict:
    kind = chk["type"]
    res = {"type": kind, "passed": False}
    if kind == "moment_value":
        row = next(r for r in sim_out["moments"] if r["time"] == chk["time"])
        n_se = chk.get("n_se", 3.0)
        res["detail"] = f"estimate {row['estimate']:.6g} vs {chk['value']} +- {n_se} SE"
        res["passed"] = abs(row["estimate"] - chk["value"]) <= n_se * row["std_error"]
    elif kind == "moment_bound":
        rows = sim_out["moments"]
        worst = max(r["bound_ratio"] for r in rows)
        res["detail"] = f"max bound ratio {worst:.4f}"
        res["passed"] = worst <= 1.0
    elif kind == "ergodic_value":
        val = sim_out["ergodic"]["terminal_average"]
        res["detail"] = f"terminal average {val:.4f} vs {chk['value']} +- {chk['tol']}"
        res["passed"] = abs(val - chk["value"]) <= chk["tol"]
    elif kind == "ks_below_critical":
        tr = sim_out["transition"]
        level = chk.get("level", "5pct")
        factor = 1.358 if level == "5pct" else 1.63
        critical = factor / math.sqrt(scfg.paths)
        worst = max(tr["ks_distance"])
        res["detail"] = f"max KS {worst:.4f} vs critical {critical:.4f} ({level})"
        res["passed"] = worst <= critical
    elif kind == "mean_at":
        tr = sim_out["transition"]
        n_se = chk.get("n_se", 3.0)
        ok = all(
            abs(m - w) <= n_se * max(se, 1e-12)
            for m, w, se in zip(tr["mean"], chk["value"], tr["mean_std_error"])
        )
        res["detail"] = f"mean {tr['mean']} vs {chk['value']}"
        res["passed"] = ok
    elif kind == "exit_prob":
        rows = sim_out["exit"]["per_radius"]
        row = next(r for r in rows if r["radius"] == chk["radius"])
        p = row["p_exit_by_horizon"]
        ok = True
        if "min" in chk:
            ok = ok and p >= chk["min"]
        if "max" in chk:
            ok = ok and p <= chk["max"]
        res["detail"] = f"P(exit {chk['radius']}) = {p:.4f}"
        res["passed"] = ok
    elif kind == "exit_mean_time":
        rows = sim_out["exit"]["per_radius"]
        row = next(r for r in rows if r["radius"] == chk["radius"])
        val = row["mean_exit_time"]
        res["detail"] = f"mean exit time {val:.4f} vs {chk['value']}"
        res["passed"] = abs(val - chk["value"]) <= chk["rel_tol"] * abs(chk["value"])
    elif kind == "not_normalizable":
        tr = sim_out.get("transition", {})
        res["detail"] = tr.get("reference_error", "reference was normalizable")
        res["passed"] = "reference_error" in tr
    else:
        raise ConfigError(f"unknown check type {kind!r}", "$.simulation.checks")
    return res


# ---------------------------------------------------------------------------
# emission


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays so the report stays numeric."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items() if not str(k).startswith("_")}
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


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # np.float64 is a float whose repr is "np.float64(...)"
    return str(v)


def _write_csv(
    path: Path, header: Sequence[str], rows: Sequence[Sequence], preamble: Optional[str] = None
) -> None:
    lines = [] if preamble is None else [preamble]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def emit_report(report: dict, out_dir: Path, formats: Sequence[str] = ("json", "csv")) -> List[Path]:
    """Write report.json plus one CSV per bulk table; returns written paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    stages = report["stages"]
    density_stage = stages.get("density", {})
    approx = density_stage.pop("_approx", None)
    if "json" in formats:
        path = out_dir / "report.json"
        path.write_text(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n")
        written.append(path)
        verdicts = stages.get("criteria")
        if verdicts is not None:
            vp = out_dir / "verdicts.json"
            vp.write_text(json.dumps(_jsonable(verdicts), indent=2, sort_keys=True) + "\n")
            written.append(vp)
    if "csv" in formats:
        if approx is not None:
            path = out_dir / "density_grid.csv"
            mesh = approx.mesh
            ax = mesh.axis()
            grids = np.meshgrid(*[ax] * mesh.d, indexing="ij")
            pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
            vals = approx.values.reshape(-1)
            header = ["index"] + [f"x{i+1}" for i in range(mesh.d)] + ["value"]
            rows = [[i] + [pts[i, k] for k in range(mesh.d)] + [vals[i]] for i in range(len(vals))]
            _write_csv(path, header, rows, preamble=f"# R={_fmt(mesh.R)},n={mesh.n},d={mesh.d}")
            written.append(path)
        sim = stages.get("simulation", {})
        if sim.get("moments"):
            path = out_dir / "moments.csv"
            header = ["time", "estimate", "std_error", "paths"]
            has_bound = "bound" in sim["moments"][0]
            if has_bound:
                header += ["bound", "bound_ratio"]
            rows = []
            for r in sim["moments"]:
                row = [r["time"], r["estimate"], r["std_error"], r["paths"]]
                if has_bound:
                    row += [r["bound"], r["bound_ratio"]]
                rows.append(row)
            _write_csv(path, header, rows)
            written.append(path)
        if sim.get("ergodic"):
            path = out_dir / "ergodic.csv"
            erg = sim["ergodic"]
            _write_csv(
                path,
                ["time", "running_average"],
                list(zip(erg["times"], erg["running_average"])),
            )
            written.append(path)
        if sim.get("exit"):
            path = out_dir / "exit.csv"
            rows = []
            for r in sim["exit"]["per_radius"]:
                rows.append(
                    [
                        r["radius"],
                        r["p_exit_by_horizon"],
                        r["wilson_95"][0],
                        r["wilson_95"][1],
                        r.get("mean_exit_time", ""),
                        r.get("median_exit_time", ""),
                    ]
                )
            _write_csv(
                path,
                ["radius", "p_exit", "wilson_lo", "wilson_hi", "mean_exit_time", "median_exit_time"],
                rows,
            )
            written.append(path)
        if sim.get("krylov"):
            path = out_dir / "krylov.csv"
            rows = [
                [";".join(map(_fmt, r["x"])), r["estimate"], r["std_error"]]
                for r in sim["krylov"]["per_start"]
            ]
            _write_csv(path, ["start", "estimate", "std_error"], rows)
            written.append(path)
        if sim.get("transition") and "cdf_levels" in sim.get("transition", {}):
            path = out_dir / "transition_cdf.csv"
            tr = sim["transition"]
            d = len(tr["cdf_quantiles"])
            header = ["level"] + [f"x{k+1}_quantile" for k in range(d)]
            rows = [
                [tr["cdf_levels"][i]] + [tr["cdf_quantiles"][k][i] for k in range(d)]
                for i in range(len(tr["cdf_levels"]))
            ]
            _write_csv(path, header, rows)
            written.append(path)
        ens = sim.get("_ensemble")
        if ens is not None:
            from .montecarlo import ensemble_summary_rows

            header, rows = ensemble_summary_rows(ens)
            path = out_dir / "paths.csv"
            _write_csv(path, header, rows)
            written.append(path)
        vt = density_stage.get("volume_profile")
        if vt:
            path = out_dir / "volume_profile.csv"
            rows = [[float(k), v] for k, v in sorted(vt["mu_ball"].items(), key=lambda kv: float(kv[0]))]
            _write_csv(path, ["radius", "mu_ball"], rows)
            written.append(path)
        for v in stages.get("criteria", []):
            if v.get("trend_table") and "a_n" in v["trend_table"]:
                path = out_dir / "volume_test.csv"
                t = v["trend_table"]
                _write_csv(
                    path,
                    ["n", "a_n", "v2_n", "log_v2_over_a"],
                    list(zip(t["n"], t["a_n"], t["v2_n"], t["log_v2_over_a"])),
                )
                written.append(path)
    return written


# ---------------------------------------------------------------------------
# orchestration


def run_scenario(
    cfg: dict,
    out_dir: Optional[Path] = None,
    *,
    stages: Sequence[str] = ("density", "criteria", "simulation"),
    threads: int = 1,
    seed_override: Optional[int] = None,
    formats: Sequence[str] = ("json", "csv"),
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
        validate_config(cfg)
        if seed_override is not None and "simulation" in cfg:
            cfg = json.loads(json.dumps(cfg))
            cfg["simulation"]["seed"] = seed_override
        report["scenario"] = json.loads(canonical_config(cfg))
        report["seed_record"] = {
            "master_seed": cfg.get("simulation", {}).get("seed"),
            "overridden": seed_override is not None,
        }
        cs, analytic = build_problem(cfg)
    except (ConfigError, calc.CalculusError) as err:
        report["stages"]["build"] = {"error": str(err)}
        report["status"]["exit_code"] = 4
        return report

    density_stage: dict = {}
    for stage in stages:
        t0 = time.perf_counter()
        try:
            if stage == "density":
                density_stage = run_density_stage(cfg, cs, analytic)
                report["stages"]["density"] = density_stage
                for row in density_stage.get("analytic", []):
                    if not row["invariant_on_grid"]:
                        notes.append(
                            f"declared density {row['index']} fails the invariance "
                            f"residual at tolerance"
                        )
                        exit_code = max(exit_code, 3)
            elif stage == "criteria":
                verdicts = run_criteria_stage(cfg, cs, analytic, density_stage)
                report["stages"]["criteria"] = verdicts
                for v in verdicts:
                    if not v["as_expected"]:
                        notes.append(
                            f"criterion {v['id']}: verdict {v['verdict']} != expected {v['expect']}"
                        )
                        exit_code = max(exit_code, 2)
            elif stage == "simulation":
                sim_out = run_simulation_stage(cfg, cs, analytic, density_stage, threads)
                report["stages"]["simulation"] = sim_out
                for chk in sim_out.get("checks", []):
                    if not chk["passed"]:
                        notes.append(f"simulation check {chk['type']} failed: {chk['detail']}")
                        exit_code = max(exit_code, 3)
        except (dens.DensityError, calc.CalculusError, mc.MonteCarloError, crit.CriterionError) as err:
            report["stages"][stage] = {"error": str(err)}
            notes.append(f"stage {stage} error: {err}")
            exit_code = max(exit_code, 3)
        except ConfigError as err:
            report["stages"][stage] = {"error": str(err)}
            notes.append(f"stage {stage} config error: {err}")
            exit_code = max(exit_code, 4)
        report["timings"][stage] = time.perf_counter() - t0

    for extra_note in cfg.get("notes", []):
        notes.append(extra_note)
    report["status"]["exit_code"] = exit_code
    if out_dir is not None:
        emit_report(report, out_dir, formats)
    else:
        report["stages"].get("density", {}).pop("_approx", None)
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

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="path to a scenario JSON or a built-in name")
        p.add_argument("--out", default=None, help="output directory (default: ./out/<name>)")
        p.add_argument("--seed", type=int, default=None, help="override the simulation seed")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument(
            "--format", default="json,csv", help="comma-separated output formats (json, csv)"
        )

    for name, help_text in [
        ("validate", "validate a config and exit"),
        ("density", "run the density stage only"),
        ("check", "run the criteria stage only"),
        ("simulate", "run the simulation stage only"),
        ("ergodic", "run only the ergodic-average estimator"),
        ("krylov", "run only the occupation-functional estimator"),
        ("run", "run the full pipeline"),
    ]:
        p = sub.add_parser(name, help=help_text)
        add_common(p)
    sub.add_parser("catalog", help="list built-in scenarios")

    args = parser.parse_args(argv)

    if args.command == "catalog":
        for name in BUILTIN_NAMES:
            print(name)
        return 0

    try:
        cfg = load_config(args.config)
        validate_config(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 4

    if args.command == "validate":
        print(f"{cfg['name']}: ok")
        return 0

    if args.out is None and cfg.get("output_dir"):
        args.out = cfg["output_dir"]

    stage_map = {
        "density": ("density",),
        "check": ("density", "criteria"),
        "simulate": ("simulation",),
        "ergodic": ("simulation",),
        "krylov": ("simulation",),
        "run": ("density", "criteria", "simulation"),
    }
    if args.command == "ergodic":
        sim = cfg.get("simulation", {})
        for key in ("moments", "krylov", "transition", "exit", "checks"):
            sim.pop(key, None)
    if args.command == "krylov":
        sim = cfg.get("simulation", {})
        for key in ("moments", "ergodic", "transition", "exit", "checks"):
            sim.pop(key, None)

    out_dir = Path(args.out) if args.out else Path("out") / cfg["name"]
    formats = tuple(f.strip() for f in args.format.split(",") if f.strip())
    report = run_scenario(
        cfg,
        out_dir,
        stages=stage_map[args.command],
        threads=args.threads,
        seed_override=args.seed,
        formats=formats,
    )
    code = report["status"]["exit_code"]
    label = {0: "green", 2: "criterion-mismatch", 3: "numerical-error", 4: "config-error"}[code]
    print(f"{cfg['name']}: exit {code} ({label}); report in {out_dir}")
    for note in report["status"]["notes"]:
        print(f"  - {note}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
