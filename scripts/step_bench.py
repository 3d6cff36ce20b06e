"""Throughput of the Euler-Maruyama stepping layer: path-steps/s of a
2000-path batch, and steps/s of the one-path loop (on Python floats) for
three built-in drifts.

Run from the root of a checkout::

    PYTHONPATH=src python3 scripts/step_bench.py [--repeats 3]

Each case steps the named built-in's coefficients with dt = 1e-3 and one
ladder radius of 1000, which no path reaches; noise drawing is included.
A figure is the best of ``--repeats`` timed runs after one short warm-up
run (which compiles the step). The output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import time

from sdelab import cli
from sdelab.montecarlo import SimulationConfig, simulate_ensemble

DT = 1e-3
# label -> (built-in whose coefficients are stepped, x0, paths, steps)
CASES = {
    "batch_2000_paths_ou_2d": ("ou_2d", (0.0, 0.0), 2000, 200),
    "one_path_ou_2d": ("ou_2d", (0.0, 0.0), 1, 20000),
    "one_path_corollary_3_1_3_demo": ("corollary_3_1_3_demo", (0.5, 0.0), 1, 20000),
    "one_path_example_3_2_1_4_ii": ("example_3_2_1_4_ii", (0.5, 0.3), 1, 20000),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    out = {}
    for label, (name, x0, paths, steps) in CASES.items():
        cs, _ = cli.build_problem(cli.load_config(name))
        cfg = SimulationConfig(dt=DT, horizon=steps * DT, paths=paths, seed=3, radii=(1e3,))
        simulate_ensemble(cs, x0, SimulationConfig(dt=DT, horizon=10 * DT, paths=paths, seed=3, radii=(1e3,)))
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            simulate_ensemble(cs, x0, cfg)
            times.append(time.perf_counter() - t0)
        out[label] = {"path_steps_per_s": round(paths * steps / min(times)), "best_s": round(min(times), 4)}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
