"""Names and units of the per-layer metrics (standard library only, so the
launcher can use them without importing sdelab)."""

# per-layer metrics read from the span recorder: label -> keys
SPAN_METRICS = {
    "expr.evaluate": ("calls", "points", "self_s", "points_per_s"),
    "expr.differentiate": ("calls", "self_s"),
    "expr.parse_expr": ("calls", "self_s"),
    "cli.validate_config": ("self_s",),
    "cli.build_problem": ("self_s",),
    "calculus.invariance_residual": ("self_s",),
    "calculus.decompose_drift": ("self_s",),
    "calculus.integrate": ("calls", "nodes", "self_s"),
    "calculus.integrate_masked": ("calls", "nodes", "self_s", "skipped"),
    "calculus.VectorField": ("calls", "points", "self_s"),
    "calculus.diffusion_root_batch": ("calls", "self_s"),
    "density.solve_density": ("calls", "unknowns", "self_s"),
    "density.assemble_system": ("self_s",),
    "density.invariance_of_solution": ("self_s",),
    "density.volume_profile": ("self_s",),
    "criteria.evaluate_criterion": ("self_s",),
    "criteria.recurrence_volume_test": ("self_s",),
    "montecarlo.simulate_ensemble": ("calls", "path_steps", "self_s", "path_steps_per_s"),
    "montecarlo.ergodic_average": ("steps", "self_s", "steps_per_s"),
    "montecarlo.transition_histogram": ("self_s",),
    "montecarlo.krylov_functional": ("self_s",),
    "cli.emit_report": ("self_s",),
}
# rate key -> the count it divides by the span's inclusive time
RATES = {"points_per_s": "points", "path_steps_per_s": "path_steps", "steps_per_s": "steps"}
SOLVE_METHODS = ("dense-direct", "bicgstab_ilu", "sparse-lu-fallback")
SCENARIOS = (
    "planar_bm",
    "ou_2d",
    "example_3_8",
    "remark_2_1_12_i",
    "remark_2_1_12_ii",
    "example_3_2_1_4_ii",
    "corollary_3_1_3_demo",
    "superlinear_blowup",
    "ou_2d_krylov",
)
# per-layer metrics the workloads read from the program's reports
REPORT_METRICS = (
    ("montecarlo.clip_events", "count"),
    ("montecarlo.mc_checks_failed", "count"),
    *((f"cli.stage.{s}_s", "s") for s in ("density", "criteria", "simulation")),
    *((f"cli.scenario.{s}_s", "s") for s in SCENARIOS),
)


def _unit(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    return "s" if key.endswith("_s") else "count"


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in output order."""
    units = {f"{label}.{key}": _unit(key) for label, keys in SPAN_METRICS.items() for key in keys}
    units["density.solve.iterations"] = "count"
    units.update({f"density.solve.method.{m}": "count" for m in SOLVE_METHODS})
    units["density.solve.fallback_ratio"] = "ratio"
    units["criteria.grid_points"] = "count"
    units.update(dict(REPORT_METRICS))
    units.update(
        {
            "trace.untraced_wall_s": "s",
            "trace.traced_wall_s": "s",
            "trace.overhead_s": "s",
            "trace.coverage": "ratio",
        }
    )
    return units
