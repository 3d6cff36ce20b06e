"""The three benchmark workloads: how each builds its inputs, runs one
operation, and checks what the operation produced.

Every workload is a list of operations. The workload seed (not the program)
decides the order of operations in each pass and, in ``ensemble``, the
simulation seed of every scenario; the program only sees the generated
inputs.

- ``analytic``: ``run_scenario`` with the density and criteria stages over
  all built-ins. Exercises expression evaluation on large point batches,
  bump-library quadrature, two dense n=64 solves and criterion sampling;
  Monte Carlo stays idle.
- ``ensemble``: ``run_scenario`` with the simulation stage only, over the
  built-ins that declare a simulation plus one generated scenario with a
  ``krylov`` block. Exercises Euler-Maruyama stepping, the scalar ergodic
  loop and many small evaluations; the density solver and quadrature stay
  idle.
- ``mesh_ladder``: direct ``solve_density`` calls on a mesh ladder with an
  exact solution. Exercises assembly and the linear solvers; Monte Carlo
  and criteria stay idle.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

# sdelab is reached through module attributes only, so that the span
# recorder's wrappers (installed on those attributes) see every call
from sdelab import calculus as calc
from sdelab import cli
from sdelab import density as dens
from sdelab import expr as ex

RESIDUAL_GATE = 1e-7  # solve relative residual an analytic scenario must meet
MIN_ORDER = 1.8  # observed order between consecutive valid meshes of a family
ENSEMBLE_THREADS = 2
SIMULATION_BUILTINS = ("planar_bm", "ou_2d", "example_3_8", "superlinear_blowup")
# (family, dimension, drift rate, box half-width R, mesh sizes n)
MESH_FAMILIES = (
    ("d2_rate1", 2, 1.0, 4.0, (64, 128, 256)),
    ("d2_rate10", 2, 10.0, 2.0, (64, 128)),
    ("d3_rate1", 3, 1.0, 3.0, (16, 32)),
)


@dataclass
class Op:
    """One operation: a unique name and the generated input."""

    name: str
    payload: object


@dataclass
class Outcome:
    """What the benchmark learned from one operation."""

    ok: bool
    digest: bytes  # the operation's output bytes, hashed into the run digest
    counters: Dict[str, float] = field(default_factory=dict)  # per-layer counts
    detail: str = ""
    max_error: float = math.nan  # against the exact density (mesh_ladder)


@dataclass
class Workload:
    name: str
    build: Callable[[random.Random], List[Op]]
    run: Callable[[Op, Path], object]
    check: Callable[[Op, object, Path], Outcome]
    # cross-operation checks after a pass; may turn outcomes into failures
    finish_pass: Callable[[List[Op], Dict[str, Outcome]], None] = lambda ops, outs: None


def _csv_digest(out_dir: Path) -> bytes:
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.digest()


def _stage_counters(op: Op, report: dict) -> Dict[str, float]:
    counters = {f"cli.stage.{k}_s": v for k, v in report["timings"].items()}
    counters[f"cli.scenario.{op.name}_s"] = sum(report["timings"].values())
    return counters


# ---------------------------------------------------------------------------
# analytic


def _build_analytic(rng: random.Random) -> List[Op]:
    ops = []
    for name in cli.BUILTIN_NAMES:
        cfg = cli.load_config(name)
        cli.validate_config(cfg)
        cli.build_problem(cfg)
        ops.append(Op(name, cfg))
    return ops


def _run_analytic(op: Op, out_dir: Path) -> dict:
    return cli.run_scenario(op.payload, out_dir, stages=("density", "criteria"))


def _check_analytic(op: Op, report: dict, out_dir: Path) -> Outcome:
    stages = report["stages"]
    density = stages.get("density", {})
    solve = density.get("solve")
    problems = []
    if report["status"]["exit_code"] != 0:
        problems.append(f"exit {report['status']['exit_code']}")
    problems += [f"{v['id']} not as expected" for v in stages.get("criteria", []) if not v["as_expected"]]
    problems += [
        f"density {r['index']} not invariant"
        for r in density.get("analytic", [])
        if not r["invariant_on_grid"]
    ]
    if solve is not None and not solve["diagnostics"]["relative_residual"] <= RESIDUAL_GATE:
        problems.append(f"residual {solve['diagnostics']['relative_residual']:.3e}")
    return Outcome(not problems, _csv_digest(out_dir), _stage_counters(op, report), "; ".join(problems))


# ---------------------------------------------------------------------------
# ensemble


def _krylov_scenario(seed: int) -> dict:
    """ou_2d's coefficients with a Krylov occupation block and two starts."""
    base = cli.load_config("ou_2d")
    return {
        "schema_version": base["schema_version"],
        "name": "ou_2d_krylov",
        "dimension": base["dimension"],
        "coefficients": base["coefficients"],
        "density": {"analytic": base["density"]["analytic"]},
        "simulation": {
            "dt": 0.001,
            "horizon": 1.0,
            "paths": 2000,
            "seed": seed,
            "radii": [8.0, 16.0],
            "x0": [0.0, 0.0],
            "krylov": {
                "f": "exp(-norm2(x))",
                "t": 1.0,
                "x_grid": [[0.0, 0.0], [1.0, 0.0]],
                "density": "analytic:0",
                "q": 2.0,
            },
        },
    }


def _build_ensemble(rng: random.Random) -> List[Op]:
    cfgs = []
    for name in SIMULATION_BUILTINS:
        cfg = cli.load_config(name)
        cfg["simulation"]["seed"] = rng.randrange(1, 2**31)
        cfgs.append(cfg)
    cfgs.append(_krylov_scenario(rng.randrange(1, 2**31)))
    ops = []
    for cfg in cfgs:
        cli.validate_config(cfg)
        cli.build_problem(cfg)
        ops.append(Op(cfg["name"], cfg))
    return ops


def _run_ensemble(op: Op, out_dir: Path) -> dict:
    return cli.run_scenario(op.payload, out_dir, stages=("simulation",), threads=ENSEMBLE_THREADS)


def _check_ensemble(op: Op, report: dict, out_dir: Path) -> Outcome:
    # failed statistical checks are expected at some seeds (a 5% test fails
    # 5% of the time), so only stage errors fail the operation
    sim = report["stages"].get("simulation", {})
    errors = [s["error"] for s in report["stages"].values() if isinstance(s, dict) and "error" in s]
    counters = _stage_counters(op, report)
    counters["montecarlo.clip_events"] = sim.get("clip_events", 0)
    counters["montecarlo.mc_checks_failed"] = sum(not c["passed"] for c in sim.get("checks", []))
    return Outcome(not errors, _csv_digest(out_dir), counters, "; ".join(errors))


# ---------------------------------------------------------------------------
# mesh_ladder


def _build_mesh_ladder(rng: random.Random) -> List[Op]:
    ops = []
    for family, d, rate, R, meshes in MESH_FAMILIES:
        A = [["1"] + ["0"] * (d - 1 - i) for i in range(d)]
        cs = calc.build_coefficient_set(A, None, [f"-{rate}*x{i + 1}" for i in range(d)], d=d)
        boundary = ex.parse_expr(f"exp(-{rate}*norm2(x))", d)
        for n in meshes:
            ops.append(Op(f"{family}_n{n}", (family, rate, R, n, cs, boundary)))
    return ops


def _run_mesh_ladder(op: Op, out_dir: Path):
    _, _, R, n, cs, boundary = op.payload
    try:
        return dens.solve_density(cs, R, n, boundary)
    except dens.SolverError as err:
        return err


def _check_mesh_ladder(op: Op, approx, out_dir: Path) -> Outcome:
    if isinstance(approx, dens.SolverError):
        return Outcome(False, b"", {}, str(approx))
    rate = op.payload[1]
    grids = np.meshgrid(*[approx.mesh.axis()] * approx.mesh.d, indexing="ij")
    exact = np.exp(-rate * sum(g * g for g in grids))
    err = float(np.max(np.abs(approx.values - exact)))
    detail = "" if approx.valid else f"invalid: min node {approx.positivity_min:.3e}"
    return Outcome(approx.valid, approx.values.tobytes(), {}, detail, err)


def _mesh_orders(ops: List[Op], outcomes: Dict[str, Outcome]) -> None:
    """Fail a mesh whose order against the previous valid mesh is below MIN_ORDER."""
    prev = {}
    for op in sorted(ops, key=lambda o: (o.payload[0], o.payload[3])):
        family, out = op.payload[0], outcomes[op.name]
        if not out.ok:
            continue
        if family in prev:
            coarse = prev[family]
            order = math.log2(coarse.max_error / out.max_error)
            if order < MIN_ORDER:
                out.ok = False
                out.detail = f"observed order {order:.3f} < {MIN_ORDER}"
        prev[family] = out


WORKLOADS = {
    "analytic": Workload("analytic", _build_analytic, _run_analytic, _check_analytic),
    "ensemble": Workload("ensemble", _build_ensemble, _run_ensemble, _check_ensemble),
    "mesh_ladder": Workload(
        "mesh_ladder", _build_mesh_ladder, _run_mesh_ladder, _check_mesh_ladder, _mesh_orders
    ),
}
