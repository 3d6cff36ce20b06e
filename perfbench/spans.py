"""In-memory span recorder that wraps sdelab's layer functions from outside.

Each span is ``(id, label, start, end, parent id, operation id, self time)``.
Self time is the span's duration minus the time of its direct child spans.
Installing the recorder replaces each target function wherever it is bound:
every ``sdelab`` module attribute that is the original function object, or
the class attribute for a method. ``uninstall`` puts the originals back.

Only layer boundaries are wrapped, not every public helper: the expression
constructors (``add``, ``mul``, ...) run once per AST node and would turn the
traced run into a measurement of the recorder. A recursive call of a wrapped
function (``differentiate``) opens no new span, so ``calls`` counts calls from
outside the function.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

NO_PARENT = -1  # root span of the thread that installed the recorder
OTHER_THREAD = -2  # root span of a worker thread (overlaps its caller's span)


def _rows(points) -> int:
    shape = np.shape(points)
    return 1 if len(shape) == 1 else shape[0]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _nodes(args, kwargs) -> int:
    return int(np.prod(_arg(args, kwargs, 1, "rule").nodes))


def _solve_counts(args, kwargs, approx) -> Dict[str, float]:
    diag = approx.diagnostics
    method = diag["method"].replace("+", "_")
    return {
        "unknowns": approx.mesh.n_interior,
        "iterations": diag["iterations"],
        f"method.{method}": 1,
    }


# (module, attribute or Class.method, label, counts(args, kwargs, result))
Counter = Optional[Callable[[tuple, dict, object], Dict[str, float]]]
TARGETS: Tuple[Tuple[str, str, str, Counter], ...] = (
    ("sdelab.expr", "parse_expr", "expr.parse_expr", None),
    ("sdelab.expr", "differentiate", "expr.differentiate", None),
    ("sdelab.expr", "evaluate", "expr.evaluate", lambda a, k, r: {"points": _rows(_arg(a, k, 1, "points"))}),
    ("sdelab.calculus", "build_coefficient_set", "calculus.build_coefficient_set", None),
    ("sdelab.calculus", "invariance_residual", "calculus.invariance_residual", None),
    ("sdelab.calculus", "decompose_drift", "calculus.decompose_drift", None),
    ("sdelab.calculus", "integrate", "calculus.integrate", lambda a, k, r: {"nodes": _nodes(a, k)}),
    (
        "sdelab.calculus",
        "integrate_masked",
        "calculus.integrate_masked",
        lambda a, k, r: {"nodes": _nodes(a, k), "skipped": r[1]},
    ),
    ("sdelab.calculus", "VectorField.__call__", "calculus.VectorField", lambda a, k, r: {"points": _rows(a[1])}),
    ("sdelab.calculus", "diffusion_root_batch", "calculus.diffusion_root_batch", None),
    ("sdelab.density", "assemble_system", "density.assemble_system", None),
    ("sdelab.density", "solve_density", "density.solve_density", _solve_counts),
    ("sdelab.density", "invariance_of_solution", "density.invariance_of_solution", None),
    ("sdelab.density", "volume_profile", "density.volume_profile", None),
    ("sdelab.criteria", "evaluate_criterion", "criteria.evaluate_criterion", None),
    ("sdelab.criteria", "recurrence_volume_test", "criteria.recurrence_volume_test", None),
    ("sdelab.criteria", "RegionSpec.points", "criteria.RegionSpec.points", lambda a, k, r: {"points": len(r)}),
    (
        "sdelab.montecarlo",
        "simulate_ensemble",
        "montecarlo.simulate_ensemble",
        lambda a, k, r: {"path_steps": _arg(a, k, 2, "cfg").paths * _arg(a, k, 2, "cfg").n_steps},
    ),
    (
        "sdelab.montecarlo",
        "ergodic_average",
        "montecarlo.ergodic_average",
        lambda a, k, r: {"steps": _arg(a, k, 2, "cfg").n_steps},
    ),
    ("sdelab.montecarlo", "transition_histogram", "montecarlo.transition_histogram", None),
    ("sdelab.montecarlo", "krylov_functional", "montecarlo.krylov_functional", None),
    ("sdelab.cli", "validate_config", "cli.validate_config", None),
    ("sdelab.cli", "build_problem", "cli.build_problem", None),
    ("sdelab.cli", "run_scenario", "cli.run_scenario", None),
    ("sdelab.cli", "run_density_stage", "cli.run_density_stage", None),
    ("sdelab.cli", "run_criteria_stage", "cli.run_criteria_stage", None),
    ("sdelab.cli", "run_simulation_stage", "cli.run_simulation_stage", None),
    ("sdelab.cli", "emit_report", "cli.emit_report", None),
)


class SpanRecorder:
    """Records spans and counts for the wrapped functions; see the module doc."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[Tuple[int, str, str], float] = defaultdict(float)
        self.op = -1  # current operation id; negative while inputs are built
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._undo: List[Tuple[object, str, object]] = []

    def _frames(self) -> Tuple[list, set]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.open = [], set()
        return local.stack, local.open

    def _wrap(self, label: str, orig: Callable, counter: Counter) -> Callable:
        rec = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack, open_labels = rec._frames()
            if label in open_labels:
                return orig(*args, **kwargs)
            frame = [next(rec._ids), 0.0]  # id, time of direct children
            stack.append(frame)
            open_labels.add(label)
            op = rec.op
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                open_labels.discard(label)
                if stack:
                    stack[-1][1] += t1 - t0
                    parent = stack[-1][0]
                else:
                    parent = NO_PARENT if threading.get_ident() == rec._main else OTHER_THREAD
                rec.spans.append((frame[0], label, t0, t1, parent, op, t1 - t0 - frame[1]))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    rec.counts[(op, label, key)] += value
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "sdelab" or name.startswith("sdelab.")]
        for modname, attr, label, counter in TARGETS:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[meth]
                self._undo.append((owner, meth, orig))
                setattr(owner, meth, self._wrap(label, orig, counter))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(label, orig, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, name, orig))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def totals(self, ops: Callable[[int], bool]) -> Dict[str, Dict[str, float]]:
        """Per label: calls, inclusive and self seconds, and counts, over the
        operations for which ``ops(op_id)`` holds."""
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for _, label, t0, t1, _, op, self_s in self.spans:
            if ops(op):
                row = out[label]
                row["calls"] += 1
                row["total_s"] += t1 - t0
                row["self_s"] += self_s
        for (op, label, key), value in self.counts.items():
            if ops(op):
                out[label][key] += value
        return out

    def root_time(self, ops: Callable[[int], bool]) -> float:
        """Seconds covered by root spans of the installing thread."""
        return sum(t1 - t0 for _, _, t0, t1, parent, op, _ in self.spans if parent == NO_PARENT and ops(op))
