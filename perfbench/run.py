"""sdelab benchmark launcher.

    python3 perfbench/run.py --workload {analytic,ensemble,mesh_ladder} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout (the directory holding
``src/sdelab``). It imports sdelab from ``src`` and nothing else, so a
checkout without the sources fails at once with exit code 2.

With ``--trace 0`` it starts one fresh process that runs whole passes over
the workload for about ``--seconds``, and ``SETUPS`` fresh processes, half
before it and half after, that each import sdelab and build every input of
the workload. It prints the end-to-end metrics: ``setup_s`` (median
set-up), ``wall_s`` (one pass with tracing off, the mean over the passes),
``peak_rss_mb`` (the pass process's peak RSS) and ``ok_frac`` (operations
that passed their checks over those attempted; ``failed_frac`` is one minus
it and is printed on its own line).

With ``--trace 1`` the pass process runs one untraced pass, then traced
passes, and it prints the per-layer metrics, span coverage and the tracing
overhead.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``correct`` is false when an
operation raised an unexpected exception or two passes of the run produced
different output bytes; outputs that fail a check count in ``failed``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import layer_metric_units

WORKLOADS = ("analytic", "ensemble", "mesh_ladder")
SETUPS = 12  # fresh set-up processes per run; setup_s is their median
DEADLINE_S = 175.0  # a run must end within 180 s
# One BLAS thread: the workloads' BLAS calls are small apart from a few dense
# solves, and a second thread made mesh_ladder only about 6% faster on a
# 2-core host. With two threads, ensemble's peak RSS moved by 30 MB between
# runs of the same seed.
BLAS_THREADS = 1
HERE = Path(__file__).resolve().parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args: list, env: dict, deadline: float) -> dict:
    """Run the worker in a fresh process and return its last-line JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="sdelab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (Path.cwd() / "src" / "sdelab" / "__init__.py").is_file():
        print("run from the root of an sdelab checkout: src/sdelab not found", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []

    def set_up(count: int) -> None:
        for _ in range(count):
            setups.append(run_child(["--role", "setup", *common], env, deadline)["setup_s"])

    try:
        # Half the set-ups before the passes and half after, so that their
        # median spans the run instead of the host's speed in its first seconds.
        set_up(0 if args.trace else SETUPS // 2)
        res = run_child(
            ["--role", "run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env,
            deadline,
        )
        set_up(0 if args.trace else SETUPS - SETUPS // 2)
    except subprocess.TimeoutExpired:
        print("benchmark exceeded its deadline", file=sys.stderr)
        return 3

    v = res["versions"]
    print(
        f"env: cpu={cpu_model()!r} nproc={nproc} blas_threads={BLAS_THREADS} "
        f"python={v['python']} "
        f"numpy={v['numpy']} scipy={v['scipy']} blas={v['blas']!r}"
    )
    walls = res["pass_wall_s"]
    print(f"passes: {len(walls)}, each {', '.join(f'{w:.3f}' for w in walls)} s")
    print(f"failed_frac: {res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']:.4f}")
    for name, detail in sorted(res["failures"].items()):
        print(f"  failed in first pass: {name}: {detail}")
    digest = res["digest"]
    print(f"output sha256: {digest if isinstance(digest, str) else 'DIFFERS between passes ' + ' '.join(digest)}")

    if args.trace:
        units = layer_metric_units()
        layers = res["layers"]
        for name, unit in units.items():
            print(f"  {name:44s} {layers[name]:16.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1.0 - res["failed"] / res["attempted"], "unit": "ratio"},
        }
        print(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
        for name, m in metrics.items():
            print(f"  {name:12s} {m['value']:12.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
