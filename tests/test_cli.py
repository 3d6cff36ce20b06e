import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import cli
from sdelab import montecarlo as mc
from sdelab.cli import (
    BUILTIN_NAMES,
    ConfigError,
    canonical_config,
    load_config,
    run_scenario,
    validate_config,
)


def tiny_bm_config(**overrides):
    cfg = {
        "schema_version": 1,
        "name": "tiny_bm",
        "dimension": 2,
        "coefficients": {"A": [["1", "0"], ["1"]], "H": ["0", "0"]},
        "density": {"analytic": ["1"]},
        "criteria": [{"id": "RECURRENCE_SUPERSOLUTION", "constants": {"N0": 3}}],
        "simulation": {
            "dt": 0.01,
            "horizon": 0.5,
            "paths": 200,
            "seed": 17,
            "radii": [8.0, 16.0],
            "x0": [0.0, 0.0],
            "moments": {"phi": "norm2(x) + 1", "times": [0.5]},
            "checks": [{"type": "moment_value", "time": 0.5, "value": 2.0, "n_se": 3.0}],
        },
    }
    cfg.update(overrides)
    return cfg


def ou_4d_config(criterion):
    """A d=4 OU scenario with one criterion, no density and no simulation."""
    cfg = tiny_bm_config(
        dimension=4,
        coefficients={"A": [["1", "0", "0", "0"], ["1", "0", "0"], ["1", "0"], ["1"]], "H": ["-x1", "-x2", "-x3", "-x4"]},
        density={},
        criteria=[criterion],
    )
    del cfg["simulation"]
    return cfg


@pytest.mark.parametrize("criterion", [
    # a template that samples only its region, on a box
    {"id": "GROWTH_NONEXPLOSION", "region": {"kind": "box", "lo": 1.0, "hi": 4.0, "n_points": 2000}},
    # an annulus, given or default, and a template whose growth note samples spheres
    {"id": "GROWTH_NONEXPLOSION", "region": {"kind": "annulus"}},
    {"id": "GROWTH_NONEXPLOSION"},
    {"id": "LYAPUNOV_L", "constants": {"M": 2}, "region": {"kind": "box"}},
])
def test_four_dimensional_criterion_runs(criterion):
    report = run_scenario(ou_4d_config(criterion))
    assert report["status"]["exit_code"] == 0
    assert report["stages"]["criteria"][0]["verdict"] == "holds-on-grid"


def test_builtins_load_and_validate():
    for name in BUILTIN_NAMES:
        cfg = load_config(name)
        validate_config(cfg)
        assert cfg["name"] == name


def test_unknown_config_rejected():
    with pytest.raises(ConfigError):
        load_config("no_such_scenario")


def test_validation_reports_field_path():
    cfg = tiny_bm_config()
    del cfg["coefficients"]["H"]
    with pytest.raises(ConfigError, match="coefficients"):
        validate_config(cfg)
    cfg2 = tiny_bm_config()
    cfg2["criteria"][0]["id"] = "BOGUS"
    with pytest.raises(ConfigError, match=r"criteria\[0\]"):
        validate_config(cfg2)
    cfg3 = tiny_bm_config()
    cfg3["coefficients"]["A"] = [["ln(x9)", "0"], ["1"]]
    with pytest.raises(ConfigError, match=r"coefficients\.A"):
        validate_config(cfg3)
    cfg4 = tiny_bm_config(criteria={"id": "RECURRENCE_SUPERSOLUTION"})
    with pytest.raises(ConfigError, match=r"\$\.criteria: expected list"):
        validate_config(cfg4)
    for key, value in (("dt", -1e-3), ("horizon", 0.0)):
        cfg5 = tiny_bm_config()
        cfg5["simulation"][key] = value
        with pytest.raises(ConfigError, match=rf"simulation\.{key}: must be positive"):
            validate_config(cfg5)
    for kind, block in (
        ("moment_value", "moments"),
        ("moment_bound", "moments"),
        ("ergodic_value", "ergodic"),
        ("ks_below_critical", "transition"),
        ("mean_at", "transition"),
        ("exit_prob", "exit"),
        ("exit_mean_time", "exit"),
    ):
        cfg6 = tiny_bm_config()
        cfg6["simulation"].pop("moments")
        cfg6["simulation"]["checks"] = [{"type": kind}]
        with pytest.raises(ConfigError, match=rf"simulation\.checks\[0\]: {kind} check needs a simulation\.{block}"):
            validate_config(cfg6)
    cfg7 = tiny_bm_config()
    cfg7["simulation"]["checks"] = [{"type": "moment_bound"}]
    with pytest.raises(ConfigError, match=r"\$\.simulation\.moments\.bound: moment_bound check needs a bound"):
        validate_config(cfg7)
    # blocks and list entries that are not objects: ConfigError, and exit 4 from run_scenario
    cfg8 = tiny_bm_config()
    cfg8["simulation"]["checks"] = [5]
    cfg9 = tiny_bm_config()
    cfg9["simulation"]["moments"] = 5
    for cfg, path in (
        (tiny_bm_config(coefficients=[]), "$.coefficients"),
        (tiny_bm_config(density=[]), "$.density"),
        (tiny_bm_config(density={"solve": 3}), "$.density.solve"),
        (tiny_bm_config(criteria=[5]), "$.criteria[0]"),
        (tiny_bm_config(simulation=[]), "$.simulation"),
        (cfg8, "$.simulation.checks[0]"),
        (cfg9, "$.simulation.moments"),
        (tiny_bm_config(criteria=[{"id": "VOLUME_RECURRENCE", "constants": 1e6, "density": "analytic:0"}]),
         "$.criteria[0].constants"),
    ):
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert str(err.value) == f"{path}: expected dict"
        report = run_scenario(cfg)
        assert report["status"]["exit_code"] == 4
        assert report["stages"]["build"]["error"] == f"{path}: expected dict"
        assert report["timings"] == {}
    # malformed values and broken cross-references: found at parse time, before any stage runs
    for cfg, path, message in malformed_inputs():
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert str(err.value).startswith(f"{path}: "), str(err.value)
        assert message in str(err.value)
        report = run_scenario(cfg)
        assert report["status"]["exit_code"] == 4
        assert report["stages"]["build"]["error"] == str(err.value)
        assert report["timings"] == {}


def malformed_inputs():
    """(config, field path, message fragment) for inputs the parser must reject."""

    def sim(**changes):
        cfg = tiny_bm_config()
        cfg["simulation"].update(changes)
        return cfg

    def crit0(**changes):
        cfg = tiny_bm_config()
        cfg["criteria"][0].update(changes)
        return cfg

    def volume(*extra, **changes):
        """The tiny config with a volume test as criteria[1], then ``extra``."""
        cfg = tiny_bm_config()
        cfg["criteria"] += [{"id": "VOLUME_RECURRENCE", "density": "analytic:0", **changes}, *extra]
        return cfg

    beta = tiny_bm_config()
    beta["coefficients"]["H"] = {"beta_of_density": "x"}
    a_entry = tiny_bm_config()
    a_entry["coefficients"]["A"] = [[{}, "0"], ["1"]]
    three_d = tiny_bm_config(
        dimension=3,
        coefficients={"A": [["1", "0", "0"], ["1", "0"], ["1"]], "H": ["0", "0", "0"]},
        criteria=[{"id": "EIGENGAP_2D", "constants": {"M": 1}, "psi1": "1", "psi2": "1"}],
    )
    del three_d["simulation"]
    # a region kind that does not fit the dimension: an interval in d=2 made the run raise
    # IndexError, and an annulus in d=1 sampled [-10, 10] under the annulus's name
    def lyapunov_only(region, **changes):
        cfg = tiny_bm_config(criteria=[{"id": "LYAPUNOV_L", "constants": {"M": 2}, "region": region}], **changes)
        del cfg["simulation"]
        return cfg

    interval_in_d2 = lyapunov_only(
        {"kind": "interval"}, coefficients={"A": [["1", "0"], ["1"]], "H": ["-x1", "-x2"]}
    )
    annulus_in_d1 = lyapunov_only(
        {"kind": "annulus", "r_min": 50.0, "r_max": 60.0}, dimension=1,
        coefficients={"A": [["1"]], "H": ["-x1"]},
    )
    # a region field its kind does not read: r_max on an interval was checked against the default r_min
    r_max_on_interval = lyapunov_only(
        {"kind": "interval", "r_max": 0.5}, dimension=1, coefficients={"A": [["1"]], "H": ["-x1"]}
    )

    def builtin(name, edit):
        cfg = copy.deepcopy(load_config(name))
        edit(cfg)
        return cfg

    # fields that a built-in's template or check would accept and then ignore
    candidate_on_eq_335 = builtin("ou_2d", lambda c: c["criteria"][0].update(candidate="norm2(x)"))
    growth_with_mode = builtin("planar_bm", lambda c: c["criteria"].append(
        {"id": "GROWTH_NONEXPLOSION", "mode": "forward", "density": "analytic:0"}))
    # a candidate is an expression: a "builtin:" field name does not parse
    builtin_candidate = builtin("remark_2_1_12_i", lambda c: c["criteria"][0].update(
        candidate="builtin:gaussian_primitive"))
    n_se_on_exit_prob = builtin("planar_bm", lambda c: c["simulation"]["checks"][1].update(n_se=2.0))
    mean_at_off_time = builtin("example_3_8", lambda c: c["simulation"]["checks"][1].update(time=0.25))
    # N0 beside the region and the candidate it would otherwise place
    n0_beside_region = builtin("example_3_2_1_4_ii", lambda c: c["criteria"][0]["constants"].update(N0=6))
    # INTEGRABLE_COEFFS reads a radius, not a region: the box was replaced by balls up to r=40
    box_on_integrable = builtin("ou_2d", lambda c: c["criteria"][2].update(
        region={"kind": "box", "lo": -1.0, "hi": 1.0}))
    # volume_profile reads the polar rule; its midpoint node count is gone
    profile_nodes = builtin("example_3_2_1_4_ii", lambda c: c["density"]["volume_profile"].update(nodes=401))
    a_rows = tiny_bm_config()
    a_rows["coefficients"]["A"] = [["1", "0", "0"], ["1"]]
    a_full = tiny_bm_config()
    a_full["coefficients"]["A"] = [["1", "0.5"], ["0", "1"]]
    c_full = tiny_bm_config()
    c_full["coefficients"]["C"] = [["0", "1"], ["1", "0"]]
    return [
        (candidate_on_eq_335, "$.criteria[0].candidate", "ERGODIC_DRIFT/eq_335 does not read candidate"),
        (builtin_candidate, "$.criteria[0].candidate", "bad expression 'builtin:gaussian_primitive'"),
        (profile_nodes, "$.density.volume_profile.nodes", "unknown field"),
        (growth_with_mode, "$.criteria[4].mode", "GROWTH_NONEXPLOSION has no mode"),
        (n_se_on_exit_prob, "$.simulation.checks[1].n_se", "exit_prob check does not read this field"),
        (mean_at_off_time, "$.simulation.checks[1].time", "must equal simulation.transition.t"),
        (crit0(density="analytic:0"), "$.criteria[0].density", "RECURRENCE_SUPERSOLUTION does not read the density"),
        (n0_beside_region, "$.criteria[0].constants.N0", "reads N0 only for a default region or candidate"),
        (crit0(id="GROWTH_NONEXPLOSION", constants={"N0": 2}, region={"r_min": 2.0}),
         "$.criteria[0].constants.N0", "GROWTH_NONEXPLOSION reads N0 only"),
        (crit0(id="INVARIANCE_LYAPUNOV", constants={"alpha": 2, "N0": 2}, candidate="norm2(x) + 1",
               density="analytic:0"),
         "$.criteria[0].constants.N0", "INVARIANCE_LYAPUNOV reads N0 only"),
        (a_rows, "$.coefficients.A", "lengths [2, 1]"),
        (a_full, "$.coefficients.A", "symmetric structure violated at entries (0,1)/(1,0)"),
        (c_full, "$.coefficients.C", "antisymmetric structure violated at entries (0,1)/(1,0)"),
        (crit0(id="INVARIANCE_LOG_GROWTH", constants={"M": 1}, mode="forward", density="analytic:0"),
         "$.criteria[0].density", "does not read the density in forward mode"),
        (crit0(id="LINEAR_GROWTH_MOMENT", constants={"M": 1}, variant="joint", h2="1"),
         "$.criteria[0].h2", "LINEAR_GROWTH_MOMENT/joint does not read h2"),
        (sim(checks=[{"type": "moment_value", "time": 0.5, "value": 2.0, "level": "1pct"}]),
         "$.simulation.checks[0].level", "moment_value check does not read this field"),
        (sim(checks=[{"type": "moment_value", "time": 0.25, "value": 2.0}]),
         "$.simulation.checks[0].time", "not one of simulation.moments.times"),
        (sim(checks=[{"type": "moment_value", "time": 0.5}]),
         "$.simulation.checks[0].value", "missing required field"),
        (sim(exit={"radii": [8.0]}, checks=[{"type": "exit_prob", "radius": 16.0, "max": 0.1}]),
         "$.simulation.checks[0].radius", "not one of the exit radii"),
        (sim(transition={"t": 0.5}, checks=[{"type": "ks_below_critical"}]),
         "$.simulation.transition.reference", "ks_below_critical check needs a reference"),
        (crit0(density="analytic:x"), "$.criteria[0].density", "expected 'analytic:<index>' or 'solved'"),
        (crit0(density="analytic:4"), "$.criteria[0].density", "no such density is declared"),
        (sim(radii=[]), "$.simulation.radii", "must not be empty"),
        (sim(radii=[16.0, 8.0]), "$.simulation.radii", "must be strictly increasing"),
        (sim(clip=-1), "$.simulation.clip", "must be positive"),
        (tiny_bm_config(density={"analytic": ["1"], "solve": {"R_ladder": [3.0, 3.0], "n": 16}}),
         "$.density.solve.R_ladder", "must be strictly increasing"),
        # check fields that validated and then made the check always fail, or always pass
        (sim(checks=[{"type": "moment_value", "time": 0.5, "value": 2.0, "n_se": -3}]),
         "$.simulation.checks[0].n_se", "must be positive"),
        (sim(ergodic={"f": "1", "horizon": 2.0, "burn_in": 0.5},
             checks=[{"type": "ergodic_value", "value": 1.0, "tol": -0.1}]),
         "$.simulation.checks[0].tol", "must be positive"),
        (sim(exit={}, checks=[{"type": "exit_mean_time", "radius": 8.0, "value": 1.0, "rel_tol": 0}]),
         "$.simulation.checks[0].rel_tol", "must be positive"),
        (sim(exit={}, checks=[{"type": "exit_prob", "radius": 8.0}]),
         "$.simulation.checks[0]", "exit_prob check needs min or max"),
        (sim(exit={}, checks=[{"type": "exit_prob", "radius": 8.0, "max": 1.5}]),
         "$.simulation.checks[0].max", "must lie in [0, 1]"),
        (sim(exit={}, checks=[{"type": "exit_prob", "radius": 8.0, "min": 0.6, "max": 0.4}]),
         "$.simulation.checks[0].min", "must not exceed max"),
        (sim(x0=["a", 0]), "$.simulation.x0[0]", "expected a number"),
        (sim(moments={"phi": "norm2(x) + 1", "times": [0.5, "x"]}),
         "$.simulation.moments.times[1]", "expected a number"),
        (sim(moments={"phi": "norm2(x) +", "times": [0.5]}), "$.simulation.moments.phi", "bad expression"),
        (crit0(candidate="x1 +"), "$.criteria[0].candidate", "bad expression"),
        (tiny_bm_config(density={"analytic": ["1"], "solve": {"R_ladder": [2.0], "n": 16, "boundary": "exp(("}}),
         "$.density.solve.boundary", "bad expression"),
        (beta, "$.coefficients.H.beta_of_density", "expected int"),
        (a_entry, "$.coefficients.A[0][0]", "expected an expression"),
        (sim(checks=[{"type": "moment_valu"}]), "$.simulation.checks[0].type", "'moment_valu' is not one of"),
        (sim(exit={"radii": [4.0]}), "$.simulation.exit.radii[0]", "not one of simulation.radii"),
        (crit0(region={"kind": "boxx"}), "$.criteria[0].region.kind", "'boxx' is not one of"),
        (crit0(mode="sideways"), "$.criteria[0].mode", "'sideways' is not one of"),
        (crit0(expect="maybe"), "$.criteria[0].expect", "'maybe' is not one of"),
        (volume(expect="maybe"), "$.criteria[1].expect", "'maybe' is not one of"),
        (tiny_bm_config(volume_test={"density": "analytic:0"}), "$.volume_test", "unknown field"),
        (volume(region={"r_min": 2.0}), "$.criteria[1].region", "VOLUME_RECURRENCE reads no region"),
        (volume(Bbar=["0"]), "$.criteria[1].Bbar", "expected 2 components"),
        (tiny_bm_config(criteria=[{"id": "VOLUME_RECURRENCE"}]),
         "$.criteria[0].density", "VOLUME_RECURRENCE needs the density"),
        (volume(constants={"n_max": 0}), "$.criteria[1].constants.n_max", "needs n_max > 0"),
        (volume({"id": "VOLUME_RECURRENCE", "density": "analytic:0", "constants": {"n_max": 1e3}}),
         "$.criteria[2].id", "a second VOLUME_RECURRENCE would overwrite volume_test.csv"),
        (crit0(constant={"N0": 3}), "$.criteria[0].constant", "unknown field"),
        (tiny_bm_config(simulaton={}), "$.simulaton", "unknown field"),
        (sim(x0=[9.0, 0.0]), "$.simulation.x0", "inside the smallest ladder radius"),
        (sim(moments={"phi": "norm2(x) + 1", "times": [0.5, 2.0]}),
         "$.simulation.moments.times[1]", "[0, horizon]"),
        (sim(transition={"t": 0.001}), "$.simulation.transition.t", "must lie in [dt, horizon]"),
        (sim(transition={"t": 0.6}), "$.simulation.transition.t", "must lie in [dt, horizon]"),
        (sim(ergodic={"f": "1", "horizon": 2.0, "burn_in": 2.0}), "$.simulation.ergodic.burn_in", "[0, horizon)"),
        (sim(paths=0), "$.simulation.paths", "must be >= 1"),
        (tiny_bm_config(density={"analytic": ["1"], "solve": {"R_ladder": [2.0], "n": 15}}),
         "$.density.solve", "even cell count"),
        # criteria checked against their template
        (crit0(id="ERGODIC_DRIFT", variant="eq_999"),
         "$.criteria[0].variant", "'eq_999' is not one of lyapunov, eq_335, eq_336"),
        (crit0(id="LYAPUNOV_EXTERIOR", variant="split"), "$.criteria[0].variant", "has no variants"),
        (crit0(id="LYAPUNOV_L", constants={}), "$.criteria[0].constants.M", "needs constant 'M'"),
        (crit0(id="LYAPUNOV_L", constants={"m": 2}), "$.criteria[0].constants.m", "takes no constant 'm'"),
        (crit0(id="GROWTH_NONEXPLOSION", constants={"m": 2}),
         "$.criteria[0].constants.m", "takes no constant"),
        (crit0(id="INTEGRABLE_COEFFS", constants={}), "$.criteria[0].density", "needs the density"),
        (crit0(id="EIGENGAP_2D", constants={"M": 1}, psi1="1"), "$.criteria[0].psi2", "needs psi2"),
        (three_d, "$.criteria[0].id", "d=2 template"),
        (crit0(psi1="1"), "$.criteria[0].psi1", "does not read psi1"),
        (crit0(constants={"N0": 0}), "$.criteria[0].constants.N0", "needs N0 > 0"),
        (crit0(constants={"N0": 40}),
         "$.criteria[0].constants.N0", "default region: r_max 40.0 does not exceed"),
        (crit0(region={"r_min": 5.0, "r_max": 2.0}), "$.criteria[0].region", "does not exceed r_min"),
        (crit0(region={"r_min": -1.0}), "$.criteria[0].region", "r_min -1.0 is negative"),
        (crit0(region={"kind": "interval", "lo": 1.0, "hi": -1.0}),
         "$.criteria[0].region", "does not exceed lo"),
        (interval_in_d2, "$.criteria[0].region.kind", "an interval region does not apply in d=2"),
        (annulus_in_d1, "$.criteria[0].region.kind", "an annulus region does not apply in d=1"),
        (box_on_integrable, "$.criteria[2].region", "INTEGRABLE_COEFFS reads no region"),
        (crit0(region={"kind": "box", "lo": -1.0, "hi": 1.0, "r_max": 5.0}),
         "$.criteria[0].region.r_max", "box region does not read this field"),
        (crit0(region={"kind": "annulus", "lo": 3.0, "hi": 2.0}),
         "$.criteria[0].region.lo", "annulus region does not read this field"),
        (r_max_on_interval, "$.criteria[0].region.r_max", "interval region does not read this field"),
        # q sets the L^q(mu) norm, which only a krylov density makes
        (sim(krylov={"f": "1", "t": 0.5, "x_grid": [[0.0, 0.0]], "q": 2.0}),
         "$.simulation.krylov.q", "q is read only with a density"),
        (crit0(id="INTEGRABLE_COEFFS", constants={"r_max": 0.0}, density="analytic:0"),
         "$.criteria[0].constants.r_max", "needs r_max > 0"),
        (tiny_bm_config(density={"analytic": ["0"]}), "$.density.analytic[0]", "> 0 at the origin"),
        (tiny_bm_config(density={"analytic": ["-1"]}), "$.density.analytic[0]", ">= 0 at the probe points"),
    ]


def test_one_dimensional_simulation():
    # the stepping kernel is d-generic: a d=1 OU process reaches its N(0, 1/2) law exp(-x^2)
    cfg = tiny_bm_config(
        dimension=1,
        coefficients={"A": [["1"]], "H": ["-x1"]},
        density={"analytic": ["exp(-x1^2)"]},
        criteria=[],
    )
    cfg["simulation"].update(
        horizon=3.0,
        paths=2000,
        x0=[0.0],
        moments={"phi": "x1^2", "times": [3.0]},
        transition={"t": 3.0, "reference": "analytic:0"},
        checks=[{"type": "moment_value", "time": 3.0, "value": 0.5}, {"type": "ks_below_critical"}],
    )
    report = run_scenario(cfg)
    assert report["status"]["exit_code"] == 0
    sim = report["stages"]["simulation"]
    assert [c["passed"] for c in sim["checks"]] == [True, True]
    assert max(sim["transition"]["ks_distance"]) <= sim["transition"]["ks_critical_5pct"]


def test_run_scenario_reports_malformed_config():
    report = run_scenario(tiny_bm_config(dimension=0))
    assert report["status"]["exit_code"] == 4
    assert report["stages"]["build"]["error"].startswith("$.dimension:")
    # coefficients that parse but cannot be built: a kink in A (no drift term), a non-elliptic A
    # and an infinite one
    for a11, message in (
        ("1 + max(x1, 0)", "max node"),
        ("x1", "not positive definite"),
        ("1/(1 - 1)", "not finite"),
    ):
        cfg = tiny_bm_config()
        cfg["coefficients"]["A"] = [[a11, "0"], ["1"]]
        report = run_scenario(cfg)
        assert report["status"]["exit_code"] == 4
        assert report["stages"]["build"]["error"].startswith("$.coefficients: ")
        assert message in report["stages"]["build"]["error"]


def test_config_round_trip_canonical():
    cfg = load_config("planar_bm")
    once = canonical_config(cfg)
    again = canonical_config(json.loads(once))
    assert once == again


def test_empty_scenario_yields_valid_report(tmp_path):
    cfg = {
        "schema_version": 1,
        "name": "empty",
        "dimension": 2,
        "coefficients": {"A": [["1", "0"], ["1"]], "H": ["0", "0"]},
    }
    report = run_scenario(cfg, tmp_path)
    assert report["status"]["exit_code"] == 0
    blob = json.loads((tmp_path / "report.json").read_text())
    assert blob["stages"] == {"density": {}, "criteria": [], "simulation": {}}


def test_run_scenario_takes_a_str_output_dir(tmp_path):
    cfg = tiny_bm_config()
    cfg.pop("simulation")
    report = run_scenario(cfg, str(tmp_path / "out"), stages=("criteria",))
    assert report["status"]["exit_code"] == 0
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "verdicts.json").exists()


def test_beta_of_density_keeps_the_density_invariant_with_variable_c():
    # H = 1/2 (A + C^T) grad(rho)/rho makes the flux vanish at rho for any antisymmetric C;
    # without the C^T term this residual is 0.30 against a scale of 3.63
    cfg = tiny_bm_config(
        coefficients={"A": [["2", "0"], ["1.5"]], "C": [["x1*x2"]], "H": {"beta_of_density": 0}},
        density={"analytic": ["exp(-(x1^2 + x1*x2 + x2^2))"]},
        criteria=[],
    )
    cfg.pop("simulation")
    report = run_scenario(cfg, stages=("density",))
    assert report["status"]["exit_code"] == 0
    (row,) = report["stages"]["density"]["analytic"]
    assert row["invariant_on_grid"]
    assert row["max_invariance_residual"] <= 1e-8 * row["residual_scale"]


@pytest.mark.parametrize("name, skipped", [("example_3_2_1_4_ii", 0), ("planar_bm", 0)])
def test_declared_density_row_reports_skipped_nodes(name, skipped):
    # example_3_2_1_4_ii's three humps are singular at their centres, and no
    # node of a bump's Gauss-Legendre rule lands on one
    report = run_scenario(load_config(name), stages=("density",))
    (row,) = report["stages"]["density"]["analytic"]
    assert row["skipped_nodes"] == skipped


def test_build_problem_builds_and_probes_once_per_builtin(monkeypatch):
    # the H, G and beta_of_density drift forms each build one coefficient set and probe A once
    calls = {"build": 0, "probe": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(cli.calc, "build_coefficient_set", counting("build", cli.calc.build_coefficient_set))
    monkeypatch.setattr(cli.calc, "probe_ellipticity", counting("probe", cli.calc.probe_ellipticity))
    forms = set()
    for name in BUILTIN_NAMES:
        scenario = validate_config(load_config(name))
        co = scenario.coefficients
        forms.add("G" if co.G is not None else type(co.H).__name__)
        calls.update(build=0, probe=0)
        cs, _ = cli.build_problem(scenario)
        assert calls == {"build": 1, "probe": 1}, name
        if co.G is not None:
            assert cs.G == co.G, name
    assert forms == {"G", "tuple", "BetaOfDensity"}


def test_tiny_scenario_green(tmp_path):
    report = run_scenario(tiny_bm_config(), tmp_path)
    assert report["status"]["exit_code"] == 0
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "verdicts.json").exists()
    assert (tmp_path / "moments.csv").exists()
    moments = (tmp_path / "moments.csv").read_text()
    assert moments.splitlines()[0] == "time,estimate,std_error,paths"
    assert "\r" not in moments


def test_exit_code_2_on_unexpected_verdict(tmp_path):
    cfg = tiny_bm_config()
    cfg["coefficients"]["H"] = ["x1", "x2"]  # outward drift: not recurrent
    cfg["criteria"] = [{"id": "RECURRENCE_GROWTH", "constants": {"N0": 1}}]
    cfg.pop("simulation")
    cfg.pop("density")
    report = run_scenario(cfg, tmp_path)
    assert report["status"]["exit_code"] == 2


def test_exit_code_3_on_failed_check(tmp_path):
    cfg = tiny_bm_config()
    cfg["simulation"]["checks"] = [
        {"type": "moment_value", "time": 0.5, "value": 99.0, "n_se": 3.0}
    ]
    report = run_scenario(cfg, tmp_path)
    assert report["status"]["exit_code"] == 3


def test_expected_failure_is_green(tmp_path):
    cfg = tiny_bm_config()
    cfg["coefficients"]["H"] = ["x1", "x2"]
    cfg["criteria"] = [
        {"id": "RECURRENCE_GROWTH", "constants": {"N0": 1}, "expect": "fails-with-witness"}
    ]
    cfg.pop("simulation")
    cfg.pop("density")
    report = run_scenario(cfg, tmp_path)
    assert report["status"]["exit_code"] == 0


def test_non_normalizable_reference_fails_ks_check(tmp_path):
    # density "1" on R^2 has infinite mass: the KS check fails with the reason, it does not raise
    cfg = tiny_bm_config()
    cfg["simulation"].update(
        transition={"t": 0.5, "reference": "analytic:0"}, checks=[{"type": "ks_below_critical"}]
    )
    report = run_scenario(cfg, tmp_path, stages=("simulation",))
    assert report["status"]["exit_code"] == 3
    (chk,) = report["stages"]["simulation"]["checks"]
    assert not chk["passed"]
    assert chk["detail"] == report["stages"]["simulation"]["transition"]["reference_error"]
    assert chk["detail"].startswith("reference not normalizable")


def test_failed_criteria_stage_still_writes_report(tmp_path):
    # ln(-1 - |x|^2) is nowhere defined: the margin cannot be evaluated at any grid point
    cfg = tiny_bm_config(
        criteria=[{"id": "LYAPUNOV_L", "constants": {"M": 1}, "candidate": "ln(-1 - norm2(x))"}]
    )
    cfg.pop("simulation")
    cfg.pop("density")
    report = run_scenario(cfg, tmp_path, stages=("density", "criteria"))
    assert report["status"]["exit_code"] == 3
    blob = json.loads((tmp_path / "report.json").read_text())
    (row,) = blob["stages"]["criteria"]
    assert row["id"] == "LYAPUNOV_L" and "margin evaluation failed" in row["error"]
    assert json.loads((tmp_path / "verdicts.json").read_text()) == [row]
    assert report["status"]["notes"] == [f"criteria[0] LYAPUNOV_L error: {row['error']}"]


def test_failed_criterion_keeps_the_other_verdicts(tmp_path):
    # d = 7: the default annulus of LYAPUNOV_L needs 5^6 sphere directions and
    # fails; the box criterion beside it still gets its verdict
    d = 7
    cfg = tiny_bm_config(
        dimension=d,
        coefficients={"A": [["1"] + ["0"] * (d - 1 - i) for i in range(d)], "H": [f"-x{i + 1}" for i in range(d)]},
        density={},
        criteria=[
            {"id": "GROWTH_NONEXPLOSION", "region": {"kind": "box", "lo": 1.0, "hi": 3.0, "n_points": 200}},
            {"id": "LYAPUNOV_L", "constants": {"M": 2}},
        ],
    )
    del cfg["simulation"]
    report = run_scenario(cfg, tmp_path)
    assert report["status"]["exit_code"] == 3
    growth, lyapunov = json.loads((tmp_path / "verdicts.json").read_text())
    assert growth["verdict"] == "holds-on-grid" and growth["as_expected"]
    assert lyapunov == {"id": "LYAPUNOV_L", "error": lyapunov["error"]}
    assert "15625 directions" in lyapunov["error"]
    assert report["status"]["notes"] == [f"criteria[1] LYAPUNOV_L error: {lyapunov['error']}"]


def test_builtin_reports_hold_no_nan(tmp_path):
    # strict JSON has no NaN; planar_bm's log_v2_over_a at n = 1 is a stated Infinity
    def refuse(token):
        if token == "NaN":
            raise ValueError(token)
        return float(token)

    for name in BUILTIN_NAMES:
        out = tmp_path / name
        run_scenario(load_config(name), out)
        for path in (out / "report.json", out / "verdicts.json"):
            json.loads(path.read_text(), parse_constant=refuse)


def test_failed_solve_fails_a_stage_that_reads_it(tmp_path):
    # ln(x1) is undefined on half of the box, so the solve fails at a face
    # center; the density stage keeps its analytic row
    cfg = tiny_bm_config(
        density={"analytic": ["1"], "solve": {"R_ladder": [3.0], "n": 16}},
        criteria=[{"id": "INVARIANCE_LOG_GROWTH", "constants": {"M": 2}, "density": "solved"}],
    )
    cfg["coefficients"]["H"] = ["ln(x1)", "-x2"]
    cfg.pop("simulation")
    report = run_scenario(cfg, tmp_path, stages=("density", "criteria"))
    assert report["status"]["exit_code"] == 3
    density = report["stages"]["density"]
    assert [row["index"] for row in density["analytic"]] == [0]
    assert sorted(density["solve"]) == ["R_ladder", "error", "n"]
    note = report["status"]["notes"][-1]
    assert note.startswith("stage criteria error: no solved density: the solve failed")
    # without the density stage, a solved reference stays a config error
    assert run_scenario(cfg, stages=("criteria",))["status"]["exit_code"] == 4


def test_an_invalid_mesh_fails_only_the_parts_that_read_it(tmp_path):
    # dX = -BX dt + sigma dW with B non-normal and A = sigma sigma^T not
    # diagonal: the declared density is the exact invariant one, with
    # covariance S solving BS + SB^T = A. The R = 5 mesh of n = 64 is invalid
    # (Pe 3.96, a negative node), so the checks that read it as a density
    # fail on their own, as does the criteria stage, which reads it; the
    # analytic row and the solve's positivity_min, valid and peclet_max stay,
    # and the exit is 3
    cfg = tiny_bm_config(
        coefficients={"A": [["1", "0.4"], ["0.8"]], "H": ["-(x1 + 1.5*x2)", "-(-0.5*x1 + x2)"]},
        density={
            "analytic": ["exp(-(114*x1^2 - 8*x1*x2 + 134*x2^2)/109)"],
            "solve": {"R_ladder": [4.0, 5.0], "n": 64, "boundary": "ones"},
        },
        criteria=[{"id": "INVARIANCE_LOG_GROWTH", "constants": {"M": 2}, "density": "solved"}],
    )
    cfg.pop("simulation")
    report = run_scenario(cfg, tmp_path, stages=("density", "criteria"))
    assert report["status"]["exit_code"] == 3
    density = report["stages"]["density"]
    (row,) = density["analytic"]
    assert row["invariant_on_grid"] and "error" not in row
    solve = density["solve"]
    assert solve["valid"] is False and solve["positivity_min"] < 0.0
    assert solve["diagnostics"]["peclet_max"] > 3.9
    assert solve["error"].startswith("approximation flagged invalid (min node value -1.8")
    assert "invariance_residual" not in solve
    assert report["stages"]["criteria"]["error"].startswith("approximation flagged invalid")
    assert report["status"]["notes"][0] == f"density solve error: {solve['error']}"
    assert (tmp_path / "density_grid.csv").exists()


def test_zero_boundary_solve_is_a_numerical_failure(tmp_path):
    # boundary data 0 on every boundary node leave the tau column empty
    cfg = tiny_bm_config(
        density={"analytic": ["1"], "solve": {"R_ladder": [2.0], "n": 8, "boundary": "0*x1"}}, criteria=[]
    )
    cfg.pop("simulation")
    report = run_scenario(cfg, tmp_path, stages=("density",))
    assert report["status"]["exit_code"] == 3
    density = report["stages"]["density"]
    assert "exactly singular" in density["solve"]["error"]
    (row,) = density["analytic"]
    assert row["invariant_on_grid"]


@pytest.mark.parametrize("paths", [1, 50])
def test_degenerate_diffusion_is_a_numerical_failure(tmp_path, paths):
    # the outward drift takes the paths to |x| > 5.26, where the pivot
    # exp(-|x|^2) of A is at most 1e-12 * trace: exit 3 with the state
    cfg = tiny_bm_config(criteria=[])
    cfg["coefficients"] = {"A": [["1", "0"], ["exp(-norm2(x))"]], "H": ["x1", "x2"]}
    cfg["simulation"].update(paths=paths, horizon=5.0, x0=[1.0, 0.0])
    report = run_scenario(cfg, tmp_path, stages=("simulation",))
    assert report["status"]["exit_code"] == 3
    assert "diffusion matrix degenerate at x = " in report["stages"]["simulation"]["error"]


@pytest.mark.parametrize(
    "block",
    [
        {"transition": {"t": 0.5, "reference": "solved"}},
        {"krylov": {"f": "norm2(x)", "t": 0.2, "x_grid": [[0.0, 0.0]], "density": "solved"}},
    ],
    ids=["transition", "krylov"],
)
def test_unavailable_solved_density_fails_before_stepping(monkeypatch, block):
    # the solve block is declared, so the config is valid; the density stage
    # does not run, so the reference is missing when the simulation stage starts
    stepped, simulate = [], mc.simulate_ensemble
    monkeypatch.setattr(mc, "simulate_ensemble", lambda *a, **k: stepped.append(1) or simulate(*a, **k))
    cfg = tiny_bm_config(density={"analytic": ["1"], "solve": {"R_ladder": [3.0], "n": 16}})
    cfg["simulation"].update(block)
    report = run_scenario(cfg, stages=("simulation",))
    assert report["status"]["exit_code"] == 4
    assert "no solved density available" in report["status"]["notes"][0]
    assert stepped == []


def test_estimator_subcommands_keep_only_their_block(tmp_path, monkeypatch):
    cfg = tiny_bm_config()
    cfg["coefficients"]["H"] = ["-x1", "-x2"]
    cfg["simulation"].update(
        ergodic={"f": "norm2(x)", "horizon": 1.0, "burn_in": 0.2},
        krylov={"f": "norm2(x)", "t": 0.2, "x_grid": [[0.0, 0.0], [0.5, 0.0]]},
        transition={"t": 0.5},
        exit={},
        save_paths=True,
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    # no ensemble is stepped that no block reads: one path for the ergodic
    # average, one ensemble per Krylov start
    stepped = []
    simulate = mc.simulate_ensemble
    monkeypatch.setattr(mc, "simulate_ensemble", lambda *a, **k: stepped.append(1) or simulate(*a, **k))
    for command, csv, ensembles in (("ergodic", "ergodic.csv", 1), ("krylov", "krylov.csv", 2)):
        out = tmp_path / command
        stepped.clear()
        assert cli.main([command, "--config", str(path), "--out", str(out), "--seed", "5"]) == 0
        assert len(stepped) == ensembles
        assert sorted(p.name for p in out.glob("*.csv")) == [csv]
        blob = json.loads((out / "report.json").read_text())
        assert "clip_events" not in blob["stages"]["simulation"]
        assert blob["seed_record"] == {"master_seed": 5, "overridden": True}
        assert blob["stages"]["simulation"]["checks"] == []
        echoed = copy.deepcopy(cfg)
        echoed["simulation"]["seed"] = 5
        assert blob["scenario"] == echoed


def test_seed_override_recorded(tmp_path):
    cfg = tiny_bm_config()
    report = run_scenario(cfg, tmp_path, seed_override=555)
    assert report["seed_record"]["overridden"]
    assert report["scenario"]["simulation"]["seed"] == 555


def test_batch_split_does_not_change_bytes(tmp_path, monkeypatch):
    cfg = tiny_bm_config()
    cfg["coefficients"]["H"] = ["-x1", "-x2"]
    # the tight clip and the inner radius give non-trivial clip counts and exit times
    cfg["simulation"].update(
        paths=400,
        radii=[0.5, 8.0],
        clip=0.005,
        save_paths=True,
        exit={"radii": [0.5]},
        krylov={"f": "norm2(x)", "t": 0.5, "x_grid": [[0.0, 0.0], [0.3, 0.0]]},
        transition={"t": 0.5},
        checks=[],
    )
    batches = []

    def bounds_50(paths, n_steps, d):
        bounds = [(s, min(s + 50, paths)) for s in range(0, paths, 50)]
        batches.append(len(bounds))
        return bounds

    def csvs(out):
        assert run_scenario(cfg, out, stages=("simulation",))["status"]["exit_code"] == 0
        return {p.name: p.read_bytes() for p in out.glob("*.csv")}

    one_batch = csvs(tmp_path / "default")
    monkeypatch.setattr(mc, "_batch_bounds", bounds_50)
    assert csvs(tmp_path / "b50") == one_batch
    assert batches == [8] * 3  # the main ensemble and one per krylov start
    assert sorted(one_batch) == ["exit.csv", "krylov.csv", "moments.csv", "paths.csv", "transition_cdf.csv"]
    paths_csv = one_batch["paths.csv"].decode().splitlines()[1:]
    assert any(row.split(",")[2] for row in paths_csv)  # some exit from radius 0.5
    assert any(int(row.split(",")[4]) for row in paths_csv)  # some clipped step


def test_transition_reads_the_main_ensemble(tmp_path, monkeypatch):
    stepped, simulate = [], mc.simulate_ensemble
    monkeypatch.setattr(mc, "simulate_ensemble", lambda *a, **k: stepped.append(1) or simulate(*a, **k))
    # example_3_8 samples its transition at the horizon
    report = run_scenario(load_config("example_3_8"), tmp_path / "example_3_8", stages=("simulation",))
    assert report["status"]["exit_code"] == 0
    assert stepped == [1]
    # a transition time inside the horizon gives the bytes of an ensemble
    # stepped to that time alone
    cfg = tiny_bm_config()
    cfg["coefficients"]["H"] = ["-x1", "-x2"]
    cfg["simulation"].pop("moments")
    cfg["simulation"].update(radii=[0.5, 8.0], clip=0.005, transition={"t": 0.3}, checks=[])
    csv = []
    for horizon in (0.5, 0.3):
        stepped.clear()
        cfg["simulation"]["horizon"] = horizon
        out = tmp_path / f"h{horizon}"
        assert run_scenario(cfg, out, stages=("simulation",))["status"]["exit_code"] == 0
        assert stepped == [1]
        csv.append((out / "transition_cdf.csv").read_bytes())
    assert csv[0] == csv[1]


def test_cli_main_catalog(capsys):
    assert cli.main(["catalog"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(BUILTIN_NAMES)


def test_cli_main_has_no_threads_flag(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--config", "ou_2d", "--threads", "2"])
    assert err.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_cli_main_validate_builtin(capsys):
    assert cli.main(["validate", "--config", "remark_2_1_12_i"]) == 0


def test_cli_main_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"schema_version\": 1}")
    assert cli.main(["validate", "--config", str(bad)]) == 4


def test_cli_main_validate_builds_coefficients(tmp_path, capsys):
    cfg = tiny_bm_config()
    cfg["coefficients"]["A"] = [["x1", "0"], ["1"]]
    path = tmp_path / "non_elliptic.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["validate", "--config", str(path)]) == 4
    assert "$.coefficients: A is not positive definite" in capsys.readouterr().err


def test_save_paths_emits_per_path_csv(tmp_path):
    cfg = tiny_bm_config()
    cfg["simulation"]["save_paths"] = True
    cfg["simulation"]["radii"] = [1.0, 8.0]
    report = run_scenario(cfg, tmp_path)
    assert report["status"]["exit_code"] == 0
    lines = (tmp_path / "paths.csv").read_text().splitlines()
    assert lines[0] == "path,status,exit_time_r1,exit_time_r8,clip_events,overshoot_max"
    assert len(lines) == 1 + 200
    # neither report.json nor the returned report carries the raw ensemble
    blob = json.loads((tmp_path / "report.json").read_text())
    assert "_ensemble" not in blob["stages"]["simulation"]
    assert "_ensemble" not in report["stages"]["simulation"]


def test_density_solve_emits_grid_csv(tmp_path):
    cfg = {
        "schema_version": 1,
        "name": "ou_small",
        "dimension": 2,
        "coefficients": {"A": [["1", "0"], ["1"]], "H": ["-x1", "-x2"]},
        "density": {
            "analytic": ["exp(-norm2(x))"],
            "solve": {"R_ladder": [2.0], "n": 16, "boundary": "exp(-norm2(x))"},
        },
    }
    report = run_scenario(cfg, tmp_path, stages=("density",))
    assert report["status"]["exit_code"] == 0
    # the divergence residual and what the solver did go to report.json only
    solve = json.loads((tmp_path / "report.json").read_text())["stages"]["density"]["solve"]
    assert 0 <= solve["divergence_residual"] < solve["invariance_scale"]
    diag = solve["diagnostics"]
    assert diag["method"] == "gmres-ilu"
    assert diag["iterations"] == len(diag["residual_history"]) >= 1
    assert diag["factor_nnz"] > 0
    grid = (tmp_path / "density_grid.csv").read_text().splitlines()
    assert grid[0].startswith("# R=2.0,n=16,d=2")
    assert grid[1] == "index,x1,x2,value"
    assert len(grid) == 2 + 17 * 17
    for line in grid[2:]:
        index, *numbers = line.split(",")
        int(index)
        assert len(numbers) == 3
        for text in numbers:
            float(text)


def _tree_paths(obj, path=()):
    """The path of every dict entry and list item in a JSON tree."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _tree_paths(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def mutated_builtins(draw):
    """A built-in with one key deleted, one leaf replaced by a malformed value,
    one criterion constant deleted or renamed, or one criterion variant
    replaced; and whether the mutation must be rejected."""
    cfg = load_config(draw(st.sampled_from(BUILTIN_NAMES)))
    paths = list(_tree_paths(cfg))
    mutation = draw(st.sampled_from(("key", "leaf", "constant", "variant")))
    if mutation == "key":
        path = draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]))
        del _at(cfg, path[:-1])[path[-1]]
        return cfg, False
    if mutation == "leaf":
        path = draw(st.sampled_from([p for p in paths if not isinstance(_at(cfg, p), (dict, list))]))
        _at(cfg, path[:-1])[path[-1]] = draw(st.sampled_from([None, "x", [], {}, -1, 0]))
        return cfg, False
    if mutation == "constant":
        constants = draw(st.sampled_from([c["constants"] for c in cfg["criteria"] if c.get("constants")]))
        name = draw(st.sampled_from(sorted(constants)))
        value = constants.pop(name)
        renamed = draw(st.booleans())
        if renamed:
            constants[name.swapcase()] = value
        return cfg, renamed
    variant = draw(st.sampled_from(("nope", "split", "joint", "exponential", "lyapunov", "eq_336")))
    draw(st.sampled_from(cfg["criteria"]))["variant"] = variant
    return cfg, variant == "nope"


@settings(max_examples=200, deadline=None)
@given(mutated_builtins())
def test_mutated_builtins_fail_with_a_field_path(mutated):
    cfg, rejected = mutated
    try:
        validate_config(cfg)
    except ConfigError as err:
        assert str(err).startswith("$")
    report = run_scenario(cfg, stages=())
    assert report["status"]["exit_code"] in ((4,) if rejected else (0, 4))
    if report["status"]["exit_code"] == 4:
        assert report["stages"]["build"]["error"].startswith("$")
