"""One benchmark process: set up a workload, or set it up and run its passes.

    python3 perfbench/worker.py --role setup --workload W --seed N
    python3 perfbench/worker.py --role run --workload W --seed N --seconds S --trace 0|1

``run.py`` starts this script in a fresh process per role and reads the JSON
object on its last line of output. ``--role setup`` times the import of
sdelab plus loading, validating and building every input. ``--role run``
builds the inputs, then runs whole passes until the next one would end after
``--seconds``; at least one pass always runs. With ``--trace 1`` one
untraced pass comes first, and the passes after it run under the span
recorder (their set-up of the inputs is traced too).
"""

import time

T_START = time.perf_counter()  # before sdelab, numpy and scipy are imported

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path

import workloads
from metrics import RATES, REPORT_METRICS, SOLVE_METHODS, SPAN_METRICS
from spans import SpanRecorder

SETUP_OP = -1  # operation id of the spans recorded while inputs are built
CHECK_OP = -2  # operation id while the benchmark checks outputs (not counted)


def run_pass(wl, ops, rng, tmp: Path, index: int, rec=None) -> dict:
    """Run every operation once in a seeded order and check the outputs."""
    order = list(ops)
    rng.shuffle(order)
    outcomes, unexpected, wall = {}, [], 0.0
    for i, op in enumerate(order):
        out_dir = tmp / f"pass{index}-op{i}"
        if rec is not None:
            rec.op = index * len(ops) + i
        t0 = time.perf_counter()
        try:
            result = wl.run(op, out_dir)
        except Exception:  # an escaped exception fails the operation and the run
            result = None
            unexpected.append(f"{op.name}: {traceback.format_exc()}")
        wall += time.perf_counter() - t0
        if rec is not None:
            rec.op = CHECK_OP
        if result is None:
            outcomes[op.name] = workloads.Outcome(False, b"", {}, "raised")
        else:
            outcomes[op.name] = wl.check(op, result, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
    wl.finish_pass(ops, outcomes)
    digest = hashlib.sha256()
    counters = defaultdict(float)
    for name in sorted(outcomes):
        digest.update(name.encode() + b"\0" + outcomes[name].digest)
        for key, value in outcomes[name].counters.items():
            counters[key] += value
    return {
        "wall_s": wall,
        "failed": {n: o.detail for n, o in outcomes.items() if not o.ok},
        "digest": digest.hexdigest(),
        "counters": counters,
        "unexpected": unexpected,
    }


def run_timed(wl, ops, rng, tmp: Path, seconds: float, first_index: int, rec=None) -> list:
    """Whole passes until another one would end after ``seconds``."""
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(wl, ops, rng, tmp, first_index + len(passes), rec))
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def pass_wall(passes: list) -> float:
    """The mean time of one pass."""
    return sum(p["wall_s"] for p in passes) / len(passes)


def layer_metrics(rec, passes: list, untraced_wall: float) -> dict:
    """Per-layer numbers for one set-up of the inputs plus one traced pass."""
    n = len(passes)
    setup = rec.totals(lambda op: op == SETUP_OP)
    traced = rec.totals(lambda op: op >= 0)

    def value(label, key):
        return setup[label][key] + traced[label][key] / n

    out = {}
    for label, keys in SPAN_METRICS.items():
        for key in keys:
            if key in RATES:
                total = value(label, "total_s")
                out[f"{label}.{key}"] = value(label, RATES[key]) / total if total > 0 else 0.0
            else:
                out[f"{label}.{key}"] = value(label, key)
    out["density.solve.iterations"] = value("density.solve_density", "iterations")
    for m in SOLVE_METHODS:
        out[f"density.solve.method.{m}"] = value("density.solve_density", f"method.{m}")
    attempts = out["density.solve.method.bicgstab_ilu"] + out["density.solve.method.sparse-lu-fallback"]
    out["density.solve.fallback_ratio"] = (
        out["density.solve.method.sparse-lu-fallback"] / attempts if attempts else 0.0
    )
    out["criteria.grid_points"] = value("criteria.RegionSpec.points", "points")
    for key, _ in REPORT_METRICS:
        out[key] = sum(p["counters"].get(key, 0.0) for p in passes) / n
    traced_wall = pass_wall(passes)
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.traced_wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.coverage"] = rec.root_time(lambda op: op >= 0) / sum(p["wall_s"] for p in passes)
    return out


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    ops = wl.build(rng)
    if args.role == "setup":
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd()))
    layers = None
    try:
        if args.trace:
            untraced = run_pass(wl, ops, rng, tmp, 0)
            rec = SpanRecorder()
            rec.install()
            try:
                rec.op = SETUP_OP
                ops = wl.build(random.Random(args.seed))
                passes = run_timed(wl, ops, rng, tmp, args.seconds - untraced["wall_s"], 1, rec)
            finally:
                rec.uninstall()
            layers = layer_metrics(rec, passes, untraced["wall_s"])
            wall = untraced["wall_s"]
            passes.insert(0, untraced)
        else:
            passes = run_timed(wl, ops, rng, tmp, args.seconds, 0)
            wall = pass_wall(passes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    digests = sorted({p["digest"] for p in passes})
    unexpected = [u for p in passes for u in p["unexpected"]]
    for text in unexpected:
        print(text, file=sys.stderr)
    result = {
        "wall_s": wall,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "attempted": len(ops) * len(passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "failures": passes[0]["failed"],
        "correct": not unexpected and len(digests) == 1,
        "digest": digests[0] if len(digests) == 1 else digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": versions(),
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
