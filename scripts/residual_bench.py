"""Throughput of the bump-residual layer: ``calculus.invariance_check`` of
every analytic density a built-in declares, on its ``residual_box``, and
``density.invariance_of_solution`` of ``ou_2d``'s R=4, n=64 ``"ones"`` solve
(row ``ou_2d:solved``, a grid density), in checks/s and Gauss nodes/s.

Run from the root of a checkout (Unix only: it reads ``resource``)::

    PYTHONPATH=src python3 scripts/residual_bench.py [--repeats 5]

A check integrates the density on the box's Gauss rule and each bump of the
default library on its own rule of the same size; its node count is the sum.
A figure is the best of ``--repeats`` timed runs after one warm-up run
(which builds the rules and compiles the programs), with the minor page
faults of that run.  ``all`` is one pass over every analytic density; the
solve is made once, before any timing.  The output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import time

from sdelab import calculus as calc
from sdelab import cli
from sdelab import density as dens


def _timed(run) -> tuple:
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    run()
    return time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def _figure(run, checks: int, nodes: int, repeats: int) -> dict:
    run()
    best_s, faults = min(_timed(run) for _ in range(repeats))
    return {
        "checks_per_s": round(checks / best_s, 2),
        "nodes_per_s": round(nodes / best_s),
        "best_s": round(best_s, 4),
        "minor_faults": faults,
    }


def _check_nodes(d: int, R: float) -> int:
    """Gauss nodes of one check on ``[-R, R]^d``: the box mass and each default bump, on rules of one size."""
    bumps = calc.default_bump_library([-R] * d, [R] * d, d)
    return (1 + len(bumps)) * math.prod(calc.gauss_rule([-R] * d, [R] * d).nodes)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    cases = {}
    for name in cli.BUILTIN_NAMES:
        scenario = cli.validate_config(cli.load_config(name))
        cs, analytic = cli.build_problem(scenario)
        R = scenario.density.residual_box
        for k, rho in enumerate(analytic):
            cases[f"{name}:{k}"] = (lambda cs=cs, rho=rho, R=R: calc.invariance_check(cs, rho, R), _check_nodes(cs.d, R))
    out = {label: _figure(run, 1, nodes, args.repeats) for label, (run, nodes) in cases.items()}
    runs = [run for run, _ in cases.values()]
    out["all"] = _figure(
        lambda: [run() for run in runs], len(runs), sum(nodes for _, nodes in cases.values()), args.repeats
    )
    cs, _ = cli.build_problem(cli.validate_config(cli.load_config("ou_2d")))
    approx = dens.solve_density(cs, 4.0, 64, "ones")
    out["ou_2d:solved"] = _figure(
        lambda: dens.invariance_of_solution(cs, approx), 1, _check_nodes(cs.d, approx.mesh.R), args.repeats
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
