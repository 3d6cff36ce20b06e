import itertools
import json
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from sdelab import cli, montecarlo
from sdelab import expr as ex
from sdelab import calculus as calc
from sdelab.calculus import DensityField, build_coefficient_set
from sdelab.expr import Program, parse_expr, to_source
from sdelab.montecarlo import (
    MonteCarloError,
    SimulationConfig,
    ergodic_average,
    exit_statistics,
    krylov_functional,
    ks_marginal_distance,
    moment_curve,
    simulate_ensemble,
    transition_histogram,
)


def cs_identity(H=None, d=2):
    A = [["1" if j == i else "0" for j in range(i, d)] for i in range(d)]
    return build_coefficient_set(A, None, H, d=d)


def cs_ou(d=2):
    return cs_identity(H=[f"-x{i+1}" for i in range(d)], d=d)


BM = cs_identity()
OU = cs_ou()
# superlinear_blowup's coefficients
BLOWUP = build_coefficient_set([["1", "0"], ["1"]], None, G=["norm2(x)*x1", "norm2(x)*x2"], d=2)


def test_config_validation():
    with pytest.raises(MonteCarloError):
        SimulationConfig(dt=0.0, horizon=1.0, paths=10, seed=1)
    with pytest.raises(MonteCarloError):
        SimulationConfig(dt=1e-3, horizon=1.0, paths=10, seed=1, radii=(4.0, 2.0))


def test_bm_second_moment():
    cfg = SimulationConfig(dt=1e-3, horizon=1.0, paths=4000, seed=11, radii=(16.0,))
    ens = simulate_ensemble(BM, [0.0, 0.0], cfg, save_times=[1.0])
    X = ens.state_at(1.0)
    r2 = np.einsum("ij,ij->i", X, X)
    est = r2.mean()
    se = r2.std(ddof=1) / math.sqrt(len(r2))
    assert abs(est - 2.0) <= 3 * se


def test_ou_mean_decay():
    cfg = SimulationConfig(dt=1e-3, horizon=1.0, paths=4000, seed=12, radii=(16.0,))
    ens = simulate_ensemble(OU, [2.0, 0.0], cfg, save_times=[1.0])
    X = ens.state_at(1.0)
    se = X[:, 0].std(ddof=1) / math.sqrt(len(X))
    assert abs(X[:, 0].mean() - 2.0 * math.exp(-1.0)) <= 3 * se


def test_seed_determinism_across_batch_splits(monkeypatch):
    # the tight clip and the inner radius make clip counts and exit times non-trivial
    cfg = SimulationConfig(dt=1e-2, horizon=0.5, paths=600, seed=77, radii=(1.5, 16.0), clip=0.012)
    acc = {"r2": parse_expr("norm2(x)", 2)}
    assert len(montecarlo._batch_bounds(cfg.paths, cfg.n_steps, 2)) == 1
    splits = {
        "64-path batches": [(s, min(s + 64, cfg.paths)) for s in range(0, cfg.paths, 64)],
        "one path alone": [(0, 1), (1, cfg.paths)],
    }
    # a constant A whose root is not diagonal (a matmul's bits depend on its
    # row count), and an A whose root is a column per path
    non_constant = [["2 + x1/(1 + norm2(x))", "0.3*x2/(1 + norm2(x))"], ["1.5 + 0.5*exp(-norm2(x))"]]
    for A in ([["1", "0"], ["1"]], [["2", "0.8"], ["1.5"]], non_constant):
        cs = build_coefficient_set(A, None, ["-x1", "-x2"], d=2)
        monkeypatch.undo()
        a = simulate_ensemble(cs, [1.0, -1.0], cfg, save_times=[0.25, 0.5], accumulate=acc)
        assert a.clip_counts.sum() > 0 and np.isfinite(a.exit_times[1.5]).any()
        for bounds in splits.values():
            monkeypatch.setattr(montecarlo, "_batch_bounds", lambda paths, n_steps, d: bounds)
            b = simulate_ensemble(cs, [1.0, -1.0], cfg, save_times=[0.25, 0.5], accumulate=acc)
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.clip_counts, b.clip_counts)
            assert np.array_equal(a.accumulators["r2"], b.accumulators["r2"])
            for r in cfg.radii:
                assert np.array_equal(a.exit_times[r], b.exit_times[r], equal_nan=True)
    # superlinear_blowup's drift: 63 of the 64 paths leave, over many noise
    # chunks, and later chunks are drawn for the living paths only; the
    # tight clip fires on the way out
    cfg = SimulationConfig(dt=1e-3, horizon=2.0, paths=64, seed=90210, radii=(4.0, 8.0), clip=0.05)
    monkeypatch.undo()
    a = simulate_ensemble(BLOWUP, [1.0, 0.0], cfg, save_times=[0.25, 1.0])
    assert a.status.sum() == 63 and a.clip_counts.sum() > 0
    assert np.nanmax(a.exit_times[8.0]) > 8 * montecarlo._NOISE_CHUNK * cfg.dt
    monkeypatch.setattr(montecarlo, "_batch_bounds", lambda paths, n_steps, d: [(0, 1), (1, 5), (5, 64)])
    b = simulate_ensemble(BLOWUP, [1.0, 0.0], cfg, save_times=[0.25, 1.0])
    assert [_per_path(b, p) for p in range(cfg.paths)] == [_per_path(a, p) for p in range(cfg.paths)]


def test_a_batch_whose_paths_have_all_left_stops(monkeypatch):
    # the strong outward drift takes all 40 paths past radius 3 in the first
    # noise chunk of three: the batch asks for no later chunk, and the save
    # slots after each exit hold the frozen states
    chunks, noise = [], montecarlo._noise
    monkeypatch.setattr(montecarlo, "_noise", lambda *args: (chunks.append(args[1]) or u for u in noise(*args)))
    cs = cs_identity(H=["4*x1", "4*x2"])
    dt = 1e-2
    cfg = SimulationConfig(dt=dt, horizon=3 * montecarlo._NOISE_CHUNK * dt, paths=40, seed=9, radii=(2.0, 3.0))
    kw = dict(save_times=[1.0, 2.0, 3.0], accumulate={"r2": parse_expr("norm2(x)", 2)})
    ens = simulate_ensemble(cs, [1.0, 0.0], cfg, **kw)
    assert chunks == [0]
    assert ens.status.sum() == cfg.paths and np.nanmax(ens.exit_times[3.0]) < 1.0
    assert np.all(ens.states[:, 1:] == ens.states[:, -1:]) and np.all(np.linalg.norm(ens.states[:, -1], axis=1) >= 3.0)
    assert np.all(ens.accumulators["r2"][:, 1:] == ens.accumulators["r2"][:, -1:])
    monkeypatch.setattr(montecarlo, "_batch_bounds", lambda paths, n_steps, d: [(0, 1), (1, 7), (7, paths)])
    split = simulate_ensemble(cs, [1.0, 0.0], cfg, **kw)
    assert [_per_path(split, p) for p in range(cfg.paths)] == [_per_path(ens, p) for p in range(cfg.paths)]


def test_no_stream_is_drawn_past_the_chunk_after_its_path_left(monkeypatch):
    # each stream's draws (one a chunk) are counted; a path that left in
    # chunk j was drawn for chunks 0 .. j, and for chunk j + 1 at most, which
    # a batch draws one chunk ahead
    streams = []

    class Counted(np.random.Generator):
        def __init__(self, bit_generator):
            super().__init__(bit_generator)
            self.chunks = self.numbers = 0
            streams.append(self)

        def random(self, *args, out=None, **kwargs):
            self.chunks += 1
            self.numbers += out.size
            return super().random(*args, out=out, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Counted)
    cfg = SimulationConfig(dt=1e-3, horizon=2.0, paths=64, seed=90210, radii=(4.0, 8.0))
    ens = simulate_ensemble(BLOWUP, [1.0, 0.0], cfg)
    chunk = montecarlo._NOISE_CHUNK
    n_chunks = -(-cfg.n_steps // chunk)
    assert len(streams) == cfg.paths
    left = []
    for stream, t in zip(streams, ens.exit_times[8.0]):
        if np.isnan(t):
            assert (stream.chunks, stream.numbers) == (n_chunks, cfg.n_steps * 2)
            continue
        j = (int(round(t / cfg.dt)) - 1) // chunk  # the chunk of the step that left
        assert j + 1 <= stream.chunks <= min(j + 2, n_chunks)
        assert stream.numbers == min(stream.chunks * chunk, cfg.n_steps) * 2
        left.append(j)
    assert len(left) == 63 and max(left) - min(left) >= 8
    assert sum(s.numbers for s in streams) < 0.5 * cfg.paths * cfg.n_steps * 2


def test_concurrent_ensembles_keep_their_bytes():
    # three ensembles at once, each with its own noise worker (six threads
    # on two cores), with the GIL handed over every 10 us: each gives the
    # bytes it gives alone, so no chunk is read while it is being written
    cfg = SimulationConfig(dt=1e-2, horizon=4 * montecarlo._NOISE_CHUNK * 1e-2, paths=48, seed=0, radii=(1.5, 2.5))
    seeds = (11, 12, 13)

    def run(seed):
        ens = simulate_ensemble(OU, [1.0, 0.0], replace(cfg, seed=seed), save_times=[1.0, 3.0])
        return [_per_path(ens, p) for p in range(cfg.paths)]

    alone = [run(seed) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(seeds)) as pool:
            futures = [pool.submit(run, seed) for seed in seeds]
            together = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert together == alone


def test_the_inverse_cdf_runs_on_the_caller_and_one_worker_that_ends_with_the_run(monkeypatch):
    # a batch's slices are converted by the calling thread and by one worker
    # at most, each slice once (20 paths make one slice a chunk); the worker
    # is joined when the run ends, and a one-path batch converts inline
    by, gaussians = [], montecarlo._gaussians
    monkeypatch.setattr(montecarlo, "_gaussians", lambda u, g: by.append(threading.get_ident()) or gaussians(u, g))
    before = threading.active_count()
    cfg = SimulationConfig(dt=1e-2, horizon=3 * montecarlo._NOISE_CHUNK * 1e-2, paths=20, seed=4, radii=(16.0,))
    simulate_ensemble(OU, [1.0, 0.0], cfg)
    assert threading.active_count() == before
    assert len(by) == 3 and len(set(by) - {threading.get_ident()}) <= 1
    by.clear()
    simulate_ensemble(OU, [1.0, 0.0], replace(cfg, paths=1))  # a one-path batch converts inline
    assert by == [threading.get_ident()] * 3


def _bm_states_match_the_streams(cfg, x0=(0.3, -0.2)):
    """Step BM and check that each path's saved states are the running sums
    of ``sqrt(dt)`` times one long read of its stream; the states."""
    dt, n_steps = cfg.dt, cfg.n_steps
    x0 = np.array(x0)
    ens = simulate_ensemble(BM, x0, cfg, save_times=[k * dt for k in range(n_steps + 1)])
    for p in range(cfg.paths):
        steps = math.sqrt(dt) * _philox_normals(cfg.seed, p, (n_steps, 2))
        assert np.array_equal(ens.states[p], np.cumsum(np.vstack([x0, steps]), axis=0))
    return ens.states


def _wait_for(ready, seconds=60.0):
    deadline = time.monotonic() + seconds
    while not ready():
        assert time.monotonic() < deadline
        time.sleep(1e-4)


def _slow_worker(monkeypatch, hold):
    """Slices of two rows, each of which the worker converts 5 ms late; with
    ``hold``, only once every slice of its chunk is taken.  The threads that
    converted the slices, in order."""
    monkeypatch.setattr(montecarlo, "_SLICE_FLOATS", 2 * montecarlo._NOISE_CHUNK * 2)
    caller, by, chunk = threading.get_ident(), [], {}
    run, gaussians = montecarlo._Conversion.run, montecarlo._gaussians

    def tracked(conv):
        chunk[threading.get_ident()] = conv
        run(conv)

    def slow(u, g):
        me = threading.get_ident()
        if me != caller:
            conv = chunk[me]
            _wait_for(lambda: not hold or conv.taken >= conv.slices)
            time.sleep(5e-3)
        gaussians(u, g)
        by.append(me)

    monkeypatch.setattr(montecarlo._Conversion, "run", tracked)
    monkeypatch.setattr(montecarlo, "_gaussians", slow)
    return by


def test_the_stepping_thread_converts_what_a_slow_worker_leaves(monkeypatch):
    # 10 slices in each full chunk and 2 in the last (20 steps); the worker
    # holds the one slice it takes until the calling thread has taken the
    # rest, so the caller converts all but one slice of each chunk and then
    # waits for the worker's
    by = _slow_worker(monkeypatch, hold=True)
    cfg = SimulationConfig(dt=1e-3, horizon=(3 * montecarlo._NOISE_CHUNK + 20) * 1e-3, paths=20, seed=8, radii=(16.0,))
    _bm_states_match_the_streams(cfg)
    assert len(by) == 32 and by.count(threading.get_ident()) >= 28


def test_a_chunk_the_worker_converts_alone_is_read_after_its_last_slice(monkeypatch):
    # the calling thread takes no slice until the worker has taken every one,
    # and the worker's slices are slow: the caller reads a chunk only once the
    # worker's last slice is written
    by = _slow_worker(monkeypatch, hold=False)
    caller, run = threading.get_ident(), montecarlo._Conversion.run

    def late(conv):
        if threading.get_ident() == caller:
            _wait_for(lambda: conv.taken >= conv.slices)
        run(conv)

    monkeypatch.setattr(montecarlo._Conversion, "run", late)
    cfg = SimulationConfig(dt=1e-3, horizon=(3 * montecarlo._NOISE_CHUNK + 20) * 1e-3, paths=20, seed=8, radii=(16.0,))
    _bm_states_match_the_streams(cfg)
    assert len(by) == 32 and caller not in by


def test_seeds_that_differ_mod_2_64_read_different_streams():
    # Philox(key=[a, b]) rounds a list holding a word of 2^63 or more
    # through float64, which would give seeds 0, -1 and -2 (and 2^63 and
    # 2^63 + 1) one ensemble; path p reads the stream keyed by the exact
    # words (seed mod 2^64, p)
    cfg = SimulationConfig(dt=1e-3, horizon=(montecarlo._NOISE_CHUNK + 8) * 1e-3, paths=3, seed=0, radii=(16.0,))
    states = [_bm_states_match_the_streams(replace(cfg, seed=seed)) for seed in (0, -1, -2, 2**63, 2**63 + 1)]
    for a, b in itertools.combinations(states, 2):
        assert not np.array_equal(a, b)


def test_clip_accounting_zero_for_lipschitz():
    cfg = SimulationConfig(dt=1e-3, horizon=1.0, paths=500, seed=3, radii=(16.0,), clip=10.0)
    for cs in (BM, OU):
        ens = simulate_ensemble(cs, [0.5, 0.5], cfg)
        assert int(ens.clip_counts.sum()) == 0


def test_stopped_paths_respect_ladder_with_overshoot():
    # strong outward drift pushes every path through the ladder quickly
    cs = cs_identity(H=["4*x1", "4*x2"])
    cfg = SimulationConfig(dt=1e-3, horizon=2.0, paths=300, seed=9, radii=(2.0, 3.0))
    ens = simulate_ensemble(cs, [1.0, 0.0], cfg, save_times=[2.0])
    assert np.all(ens.status == 1)
    # frozen states sit beyond the top radius only by the recorded overshoot
    X = ens.state_at(2.0)
    rn = np.linalg.norm(X, axis=1)
    assert np.all(rn <= 3.0 + ens.overshoot_max + 1e-12)
    # sigma_n nondecreasing in n per path
    t2 = ens.exit_times[2.0]
    t3 = ens.exit_times[3.0]
    assert np.all(t2[np.isfinite(t3)] <= t3[np.isfinite(t3)] + 1e-12)


def test_exit_times_are_first_saved_crossings():
    # coarse steps under a strong outward drift cross several close radii at once
    cs = cs_identity(H=["4*x1", "4*x2"])
    dt = 2e-2
    cfg = SimulationConfig(dt=dt, horizon=1.0, paths=40, seed=10, radii=(1.5, 1.52, 1.54, 3.0))
    ens = simulate_ensemble(cs, [1.0, 0.0], cfg, save_times=[k * dt for k in range(cfg.n_steps + 1)])
    rn = np.linalg.norm(ens.states, axis=2)
    several = 0
    for p in range(cfg.paths):
        over = 0.0
        for r in cfg.radii:
            k = int(np.argmax(rn[p] >= r))
            assert rn[p, k] >= r
            assert ens.exit_times[r][p] == ens.saved_times[k]
            over = max(over, rn[p, k] - r)
        assert ens.overshoot_max[p] == over
        several += ens.exit_times[1.5][p] == ens.exit_times[1.54][p]
    assert np.all(ens.status == 1)
    assert several > 0


def test_bm_exit_time_from_ball():
    # E[exit time of B_2 from 0] = (4 - 0)/d = 2 for planar BM
    cfg = SimulationConfig(dt=1e-3, horizon=12.0, paths=2000, seed=21, radii=(2.0, 6.0))
    ens = simulate_ensemble(BM, [0.0, 0.0], cfg)
    stats = exit_statistics(ens, [2.0])
    row = stats["per_radius"][0]
    assert row["exited"] >= 1990
    assert row["mean_exit_time"] == pytest.approx(2.0, rel=0.10)


def test_superlinear_blowup_proxy():
    # from (1.5, 0) the cubic drift escapes before noise can trap a path near
    # the origin (from (1, 0) about 1.2% of paths linger past T=2)
    cs = cs_identity(H=["norm2(x)*x1", "norm2(x)*x2"])
    cfg = SimulationConfig(dt=1e-3, horizon=2.0, paths=1000, seed=31, radii=(4.0, 8.0))
    ens = simulate_ensemble(cs, [1.5, 0.0], cfg)
    stats = exit_statistics(ens, [4.0, 8.0])
    p8 = stats["per_radius"][1]["p_exit_by_horizon"]
    assert p8 >= 0.99
    med4 = stats["per_radius"][0]["median_exit_time"]
    med8 = stats["per_radius"][1]["median_exit_time"]
    assert med8 - med4 < 0.1  # blow-up signature: ladder crossed in a flash

    ens1 = simulate_ensemble(cs, [1.0, 0.0], cfg)
    p8_1 = np.mean(np.isfinite(ens1.exit_times[8.0]))
    assert p8_1 >= 0.98


def test_bm_stays_inside_radius_8_by_t2():
    cfg = SimulationConfig(dt=1e-3, horizon=2.0, paths=1000, seed=32, radii=(8.0, 16.0))
    ens = simulate_ensemble(BM, [0.0, 0.0], cfg)
    stats = exit_statistics(ens, [8.0])
    assert stats["per_radius"][0]["p_exit_by_horizon"] <= 0.01


def test_moment_curve_bound_ratio():
    cfg = SimulationConfig(dt=1e-3, horizon=1.0, paths=2000, seed=41, radii=(16.0,))
    times = [0.25, 0.5, 1.0]
    ens = simulate_ensemble(OU, [2.0, 0.0], cfg, save_times=times)
    from sdelab.expr import parse_expr

    rows = moment_curve(ens, parse_expr("norm2(x) + 1", 2), times, bound={"M": 2.0})
    for row in rows:
        assert row["bound_ratio"] <= 1.0


def test_moment_curve_reaches_stationary_level():
    # E[|X_t|^2 + 1] -> d/2 + 1 = 2 for the unit-rate confining drift
    from sdelab.expr import parse_expr

    cfg = SimulationConfig(dt=1e-3, horizon=6.0, paths=2000, seed=43, radii=(16.0,))
    ens = simulate_ensemble(OU, [2.0, 0.0], cfg, save_times=[6.0])
    row = moment_curve(ens, parse_expr("norm2(x) + 1", 2), [6.0])[0]
    assert abs(row["estimate"] - 2.0) <= 3 * row["std_error"]


def test_weak_order_sanity():
    times = [1.0]
    from sdelab.expr import parse_expr

    phi = parse_expr("norm2(x) + 1", 2)
    results = []
    for dt in (2e-3, 1e-3):
        cfg = SimulationConfig(dt=dt, horizon=1.0, paths=4000, seed=55, radii=(16.0,))
        ens = simulate_ensemble(BM, [0.0, 0.0], cfg, save_times=times)
        results.append(moment_curve(ens, phi, times)[0])
    diff = abs(results[0]["estimate"] - results[1]["estimate"])
    combined = math.hypot(results[0]["std_error"], results[1]["std_error"])
    assert diff <= 2 * combined


def test_krylov_constant_f_is_exact():
    cfg = SimulationConfig(dt=1e-2, horizon=1.0, paths=50, seed=5, radii=(16.0,))
    out = krylov_functional(BM, parse_expr("1", 2), 1.0, [[0.0, 0.0]], cfg)
    assert out["per_start"][0]["estimate"] == pytest.approx(1.0, abs=1e-12)
    assert out["per_start"][0]["std_error"] == pytest.approx(0.0, abs=1e-15)


def test_krylov_ball_occupation_matches_heat_kernel():
    # E_0[int_0^1 1_{B_1}(X_s) ds] = int_0^1 (1 - e^{-1/(2s)}) ds for planar BM
    from scipy.integrate import quad

    truth, _ = quad(lambda s: 1 - math.exp(-1 / (2 * s)), 0, 1)
    cfg = SimulationConfig(dt=1e-3, horizon=1.0, paths=4000, seed=61, radii=(16.0,))
    out = krylov_functional(BM, parse_expr("selge(1, norm2(x), 1, 0)", 2), 1.0, [[0.0, 0.0]], cfg)
    row = out["per_start"][0]
    assert abs(row["estimate"] - truth) <= 3 * row["std_error"] + 2e-3


def test_estimator_result_invariant():
    from sdelab.montecarlo import _mean_se

    vals = np.arange(16.0)
    estimate, std_error = _mean_se(vals)
    assert estimate == 7.5
    assert std_error == pytest.approx(np.std(vals, ddof=1) / 4.0)


def test_krylov_singular_f_stable_under_refinement():
    # |x|^{-1/2} on the unit ball is integrable along paths: exact hits of
    # the singularity are counted and the estimate stays finite
    f = parse_expr("selge(1, norm2(x), min(norm2(x), 1)^(-0.25), 0)", 2)
    cfg = SimulationConfig(dt=2e-3, horizon=0.5, paths=2000, seed=99, radii=(16.0,))
    out = krylov_functional(BM, f, 0.5, [[0.0, 0.0]], cfg)
    assert out["singular_hits"] > 0  # every path starts exactly on the singularity
    assert np.isfinite(out["per_start"][0]["estimate"])


def test_krylov_reports_lq_norm():
    rho = DensityField.from_expression("1", 2)
    cfg = SimulationConfig(dt=1e-2, horizon=0.5, paths=100, seed=7, radii=(16.0,))
    ind = parse_expr("selge(1, norm2(x), 1, 0)", 2)
    out = krylov_functional(BM, ind, 0.5, [[0.0, 0.0]], cfg, rho=rho, q=2.0)
    # ||1_{B_1}||_{L^2(dx)} = sqrt(pi); r = 1 is a panel end of the polar rule on B_8
    assert out["f_lq_mu_norm"] == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert out["lq_skipped_nodes"] == 0
    assert "fitted_constant" in out
    # a singular f: the origin is no node of the polar rule, so nothing is skipped;
    # ||r^{-1/2}||_{L^2(e^{-r^2} dx)} = (pi int_0^inf e^{-s} s^{-1/2} ds)^{1/2} = pi^{3/4}
    rho = DensityField.from_expression("exp(-norm2(x))", 2)
    f = parse_expr("norm2(x)^(-0.25)", 2)
    out = krylov_functional(BM, f, 0.5, [[1.0, 0.0]], cfg, rho=rho, q=2.0)
    assert out["f_lq_mu_norm"] == pytest.approx(math.pi**0.75, rel=1e-6)
    assert out["lq_skipped_nodes"] == 0
    assert math.isfinite(out["fitted_constant"]) and out["fitted_constant"] > 0


def test_ergodic_average_constant_function():
    cfg = SimulationConfig(dt=1e-2, horizon=20.0, paths=1, seed=71, radii=(16.0,))
    out = ergodic_average(OU, [0.0, 0.0], cfg, parse_expr("1", 2), burn_in=1.0)
    assert out["terminal_average"] == pytest.approx(1.0, abs=1e-12)


def test_ergodic_average_ou_radial_second_moment():
    from sdelab.expr import parse_expr

    cfg = SimulationConfig(dt=1e-3, horizon=200.0, paths=1, seed=73, radii=(16.0,))
    out = ergodic_average(OU, [0.0, 0.0], cfg, parse_expr("norm2(x)", 2), burn_in=5.0)
    assert abs(out["terminal_average"] - 1.0) <= 0.05
    assert out["non_converged_note"] is None


def _philox_normals(seed, path, shape):
    """One path's noise drawn as a single block of Philox uniforms."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed & (2**64 - 1), path], dtype=np.uint64)))
    u = gen.random(shape)
    u[u == 0.0] = 2.0**-54
    return ndtri(u)


def cholesky_noise(A, xi):
    """``L xi`` for the lower Cholesky factor ``L`` of ``A``, both by the
    recurrence on Python floats with each sum taken in order; not
    ``np.linalg.cholesky``, whose LAPACK kernel scales by a reciprocal, so
    its bits differ."""
    A, xi = A.tolist(), xi.tolist()
    d = len(A)
    L = [[0.0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1):
            s = A[i][j]
            for k in range(j):
                s = s - L[i][k] * L[j][k]
            L[i][j] = math.sqrt(s) if i == j else s / L[j][j]
    noise = []
    for i in range(d):
        s = xi[0] * L[i][0]
        for j in range(1, i + 1):
            s = s + xi[j] * L[i][j]
        noise.append(s)
    return np.array(noise)


def scalar_ergodic_average(cs, x0, cfg, f, burn_in, curve_points=200):
    """The scalar single-path loop that ``ergodic_average`` replaced."""
    fn = Program(f)
    d = cs.d
    n_steps = cfg.n_steps
    xi = _philox_normals(cfg.seed, 0, (n_steps, d))
    g_field = cs.eval_G
    x = np.asarray(x0, dtype=float).copy()
    r_top = cfg.radii[-1]
    dt = cfg.dt
    sqrt_dt = math.sqrt(dt)
    burn_steps = int(round(burn_in / dt))
    total, hits = 0.0, 0
    stride = max(1, n_steps // curve_points)
    curve_t, curve_v, curve_totals = [], [], []
    for k in range(n_steps):
        if k >= burn_steps:
            inc = float(fn(x)) * dt
            if math.isfinite(inc):
                total += inc
            else:
                hits += 1
        G = g_field(x[None, :])[0]
        gn = float(np.linalg.norm(G))
        if gn * dt > cfg.clip:
            G = G * (cfg.clip / (gn * dt))
        x = x + G * dt + sqrt_dt * cholesky_noise(cs.eval_A(x), xi[k])
        if float(np.linalg.norm(x)) >= r_top:
            t_exit = (k + 1) * dt
            if t_exit <= burn_in:
                raise MonteCarloError(f"path exited the ladder at t={t_exit:.3f} before burn-in")
            break
        if (k + 1) % stride == 0 and (k + 1) * dt > burn_in + dt:
            t_now = (k + 1) * dt
            curve_t.append(t_now)
            curve_v.append(total / (t_now - burn_in))
            curve_totals.append(total)
    t_final = min((k + 1) * dt, cfg.horizon)
    terminal = total / (t_final - burn_in)
    drift_note = None
    if len(curve_v) >= 9:
        third = len(curve_v) // 3
        a = float(np.mean(curve_v[third : 2 * third]))
        b = float(np.mean(curve_v[2 * third :]))
        rel = abs(b - a) / max(abs(b), 1e-300)
        if rel > 0.2:
            drift_note = f"running average still drifting ({rel:.1%} over final third)"
    return {
        "terminal_average": terminal,
        "times": curve_t,
        "running_average": curve_v,
        "burn_in": burn_in,
        "horizon": t_final,
        "non_converged_note": drift_note,
        "batch_means_std_error": montecarlo._batch_means_std_error(curve_totals, stride * dt),
        "singular_hits": hits,
    }


def test_ergodic_average_matches_scalar_loop():
    f = parse_expr("norm2(x)", 2)
    # never exits; 3000 steps span six noise chunks
    cfg = SimulationConfig(dt=1e-2, horizon=30.0, paths=1, seed=5, radii=(16.0,))
    assert cfg.n_steps > 2 * montecarlo._NOISE_CHUNK
    out = ergodic_average(OU, [0.5, 0.0], cfg, f, burn_in=1.0)
    assert out["horizon"] == cfg.horizon
    assert repr(out) == repr(scalar_ergodic_average(OU, [0.5, 0.0], cfg, f, burn_in=1.0))
    # leaves the ladder after burn-in: the curve and the average stop there
    cfg = SimulationConfig(dt=1e-2, horizon=30.0, paths=1, seed=8, radii=(1.0, 2.0))
    out = ergodic_average(OU, [0.5, 0.0], cfg, f, burn_in=1.0)
    assert 1.0 < out["horizon"] < cfg.horizon and out["times"]
    assert repr(out) == repr(scalar_ergodic_average(OU, [0.5, 0.0], cfg, f, burn_in=1.0))


def test_ergodic_batch_means_std_error():
    # a constant has no batch-to-batch spread
    cfg = SimulationConfig(dt=1e-2, horizon=20.0, paths=1, seed=71, radii=(16.0,))
    out = ergodic_average(OU, [0.0, 0.0], cfg, parse_expr("1", 2), burn_in=1.0)
    assert 0.0 <= out["batch_means_std_error"] <= 1e-12
    # E[X1] = 0 under the stationary law: the average lies within its error bar
    cfg = SimulationConfig(dt=1e-2, horizon=100.0, paths=1, seed=72, radii=(16.0,))
    out = ergodic_average(OU, [1.0, 0.0], cfg, parse_expr("x1", 2), burn_in=2.0)
    se = out["batch_means_std_error"]
    assert se > 0 and abs(out["terminal_average"]) <= 4 * se
    # fewer increments than batches give no error bar
    cfg = SimulationConfig(dt=1e-2, horizon=0.2, paths=1, seed=72, radii=(16.0,))
    out = ergodic_average(OU, [1.0, 0.0], cfg, parse_expr("x1", 2), burn_in=0.05)
    assert len(out["times"]) < montecarlo._BATCHES + 1
    assert out["batch_means_std_error"] is None


def plain_ensemble(cs, x0, cfg, save_times, accumulate, accumulate_from):
    """One path at a time: ``cs.eval_G``, ``np.linalg.norm`` and one call per
    accumulator, which skips and counts non-finite increments: the arithmetic
    ``simulate_ensemble`` must reproduce."""
    d, dt, n_steps = cs.d, cfg.dt, cfg.n_steps
    sqrt_dt = math.sqrt(dt)
    radii = list(cfg.radii)
    fns = {name: Program(f) for name, f in accumulate.items()}
    save_idx = sorted({n_steps} | {int(round(t / dt)) for t in save_times})
    acc_start = int(round(accumulate_from / dt))
    out = {"states": [], "exit_times": [], "clip_counts": [], "status": [], "overshoot_max": []}
    out.update({name: [] for name in fns})
    out["skipped"] = {name: 0 for name in fns}
    for p in range(cfg.paths):
        xi = _philox_normals(cfg.seed, p, (n_steps, d))
        x = np.asarray(x0, dtype=float)
        nxt, clips, over = 0, 0, 0.0
        exits = [math.nan] * len(radii)
        totals = {name: 0.0 for name in fns}
        states, saved = [], {name: [] for name in fns}
        if 0 in save_idx:
            states.append(x.tolist())
        for k in range(n_steps):
            if nxt < len(radii):
                if k >= acc_start:
                    for name, fn in fns.items():
                        inc = float(fn(x)) * dt
                        if math.isfinite(inc):
                            totals[name] += inc
                        else:
                            out["skipped"][name] += 1
                G = cs.eval_G(x[None, :])
                gn = float(np.linalg.norm(G, axis=1)[0])
                if gn * dt > cfg.clip:
                    G = G * (cfg.clip / (gn * dt))
                    clips += 1
                x = (x[None, :] + G * dt + sqrt_dt * cholesky_noise(cs.eval_A(x), xi[k]))[0]
                r = float(np.linalg.norm(x[None, :], axis=1)[0])
                if r >= radii[nxt]:
                    over = max(over, r - radii[nxt])
                    while nxt < len(radii) and r >= radii[nxt]:
                        exits[nxt] = (k + 1) * dt
                        nxt += 1
            if k + 1 in save_idx:
                states.append(x.tolist())
                for name in fns:
                    saved[name].append(totals[name])
        out["states"].append(states)
        out["exit_times"].append(exits)
        out["clip_counts"].append(clips)
        out["status"].append(int(nxt == len(radii)))
        out["overshoot_max"].append(over)
        for name in fns:
            out[name].append(saved[name])
    return out


def test_fused_kernel_matches_plain_stepper(monkeypatch):
    monkeypatch.setattr(montecarlo, "_batch_bounds", lambda paths, n_steps, d: [(0, 5), (5, paths)])
    # a non-constant A; outward drift inside radius sqrt(3), inward outside, so
    # paths cross the close inner radii (several in one step) and some leave
    cs = build_coefficient_set(
        [["2 + x1/(1 + norm2(x))", "0.3"], ["1.5"]], None, ["3*x1 - x1*norm2(x)", "3*x2 - x2*norm2(x)"], d=2
    )
    assert not isinstance(cs.cholesky[0], ex.Const)
    dt = 2e-2
    cfg = SimulationConfig(dt=dt, horizon=600 * dt, paths=12, seed=404, radii=(1.0, 1.05, 1.1, 2.8), clip=0.06)
    # ln(x1) is not finite wherever x1 <= 0
    acc = {name: parse_expr(src, 2) for name, src in (("r2", "norm2(x)"), ("mixed", "x1*x2 - x1"), ("log", "ln(x1)"))}
    kw = dict(save_times=[0.3, 1.0, 5.0], accumulate=acc, accumulate_from=0.3)
    ens = simulate_ensemble(cs, [0.5, 0.2], cfg, **kw)
    ref = plain_ensemble(cs, [0.5, 0.2], cfg, **kw)
    assert repr(ens.states.tolist()) == repr(ref["states"])
    exit_times = np.column_stack([ens.exit_times[r] for r in cfg.radii])
    assert repr(exit_times.tolist()) == repr(ref["exit_times"])
    for name in ("clip_counts", "status", "overshoot_max"):
        assert repr(getattr(ens, name).tolist()) == repr(ref[name])
    for name in acc:
        assert repr(ens.accumulators[name].tolist()) == repr(ref[name])
    assert ens.skipped == ref["skipped"]
    # the case covers what it is meant to
    assert ens.clip_counts.sum() > 0
    assert 0 < ens.status.sum() < cfg.paths
    assert np.any(ens.exit_times[1.0] == ens.exit_times[1.1])
    assert np.all(ens.accumulators["mixed"][:, 0] == 0.0)  # nothing before accumulate_from
    assert np.all(ens.accumulators["mixed"][:, 1:] != 0.0)
    assert ens.skipped["log"] > 0 and ens.skipped["r2"] == ens.skipped["mixed"] == 0
    assert np.isfinite(ens.accumulators["log"]).all()


@pytest.mark.parametrize("d", range(2, 11))
def test_row_norms_equal_linalg_norm_bit_for_bit(d):
    # the step program's norm of the new state sums the squares in order in
    # every d, on columns and on floats; below 8 columns numpy does too, and
    # from 8 on it sums pairwise
    rng = np.random.default_rng(d)
    step = montecarlo._step_program(cs_ou(d), SimulationConfig(dt=1e-2, horizon=1.0, paths=1, seed=1), [])
    on_columns, on_floats = step.function(d), step.function(d, floats=True)
    for magnitude in (1e-200, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e200):
        x = magnitude * rng.standard_normal((200, d)) * np.exp(rng.standard_normal((200, d)))
        xi = rng.standard_normal((200, d))
        with np.errstate(all="ignore"):
            V = on_columns(*x.T, *xi.T)
            new, got = ex.columns(V[:d], 200), V[d]
            if d < 8:
                want = np.linalg.norm(new, axis=1)
            else:
                want = np.sqrt(sum((new[:, k] * new[:, k] for k in range(1, d)), new[:, 0] * new[:, 0]))
            floats = [on_floats(*p, *e)[d] for p, e in zip(x.tolist(), xi.tolist())]
        assert repr(got.tolist()) == repr(want.tolist()) == repr(floats)


def test_mix_is_the_in_order_float_sum():
    # the step's noise term xi_0 * L_i0 + ... + xi_i * L_ii is added left to
    # right as on Python floats, with L's entries constant (a constant A) and
    # one per path (an A that varies with x); a zero drift and dt = 1 make
    # the new state x_i + 0.0 + 1.0 * term
    rng = np.random.default_rng(7)
    x, xi = rng.standard_normal((3334, 3)), rng.standard_normal((3334, 3))
    cfg = SimulationConfig(dt=1.0, horizon=1.0, paths=1, seed=1)
    for A in ([["2", "0.5", "-0.25"], ["3", "0.75"], ["1.5"]], [["2 + x1^2", "0.5*x2", "-0.25"], ["3 + x3^2", "0.75*x1"], ["5"]]):
        cs = build_coefficient_set(A, G=["0", "0", "0"], d=3)
        assert isinstance(cs.cholesky[0], ex.Const) == (A[2] == ["1.5"])
        L = Program(list(cs.cholesky[:-1]))(x).tolist()  # L's 6 entries at each path's state
        want = []
        for p, e, l in zip(x.tolist(), xi.tolist(), L):
            out = []
            for i in range(3):
                row = l[i * (i + 1) // 2 :][: i + 1]
                s = e[0] * row[0]
                for j in range(1, i + 1):
                    s = s + e[j] * row[j]
                out.append(p[i] + 0.0 + 1.0 * s)
            want.append(out)
        V = montecarlo._step_program(cs, cfg, []).function(3)(*x.T, *xi.T)
        assert repr(ex.columns(V[:3], 3334).tolist()) == repr(want)


@pytest.mark.parametrize(
    "a", [(1.0, 1.0), (2.0, 3.0), (1.0, 1.0, 1.0), (0.5, 2.0, 7.0)], ids=["I2", "diag_2_3", "I3", "diag_05_2_7"]
)
def test_chunked_noise_reproduces_the_stream(monkeypatch, a):
    # BM with a constant diagonal A: each step adds sqrt(dt) * xi_k * sqrt(a),
    # so the saved states are the running sums of one long read of each
    # path's stream; diag(sqrt(a)) is the symmetric root bit for bit as well
    batches = []

    def two_batches(paths, n_steps, d):
        batches.append((paths, n_steps))
        return [(0, 3), (3, paths)]

    monkeypatch.setattr(montecarlo, "_batch_bounds", two_batches)
    d = len(a)
    assert np.array_equal(calc.diffusion_root_batch(np.diag(a)[None])[0], np.diag(np.sqrt(a)))
    cs = build_coefficient_set([[repr(a[i]) if j == i else "0" for j in range(i, d)] for i in range(d)], d=d)
    n_steps = 2 * montecarlo._NOISE_CHUNK + 276
    dt = 1e-3
    cfg = SimulationConfig(dt=dt, horizon=n_steps * dt, paths=5, seed=2024, radii=(16.0,))
    x0 = np.array([0.3, -0.2, 0.1][:d])
    ens = simulate_ensemble(cs, x0, cfg, save_times=[k * dt for k in range(n_steps + 1)])
    assert batches == [(5, n_steps)]
    assert ens.states.shape == (5, n_steps + 1, d)
    for p in range(cfg.paths):
        steps = math.sqrt(dt) * (_philox_normals(cfg.seed, p, (n_steps, d)) * np.sqrt(a))
        assert np.array_equal(ens.states[p], np.cumsum(np.vstack([x0, steps]), axis=0))


@pytest.mark.parametrize("paths", [1, 3], ids=["float loop", "batch loop"])
@pytest.mark.parametrize("a22", ["exp(-norm2(x))", "sqrt(60 - norm2(x))"], ids=["small pivot", "nan pivot"])
def test_degenerate_diffusion_fails_in_both_loops(paths, a22):
    # the outward drift takes every path to where the second pivot a22 is at
    # most 1e-12 * trace (|x|^2 >= ln(1e12 - 1) = 27.63) or not finite
    # (|x|^2 > 60); the error names the first state where it is
    cs = build_coefficient_set([["1", "0"], [a22]], None, ["x1", "x2"], d=2)
    cfg = SimulationConfig(dt=1e-2, horizon=5.0, paths=paths, seed=5, radii=(16.0,))
    before = threading.active_count()
    with pytest.raises(calc.DegenerateDiffusionError, match="diffusion matrix degenerate at x = ") as err:
        simulate_ensemble(cs, [1.0, 0.0], cfg)
    assert threading.active_count() == before  # the worker is joined when a step raises
    x = json.loads(str(err.value).split("x = ")[1].split(":")[0])
    assert sum(v * v for v in x) >= (27.63 if a22.startswith("exp") else 60.0)


@pytest.mark.parametrize("paths", [1, 3], ids=["float loop", "batch loop"])
@pytest.mark.parametrize("a11", ["1", "1 + 0.5*exp(-norm2(x))"], ids=["constant A", "non-constant A"])
def test_a_drift_that_is_not_finite_ends_the_run(paths, a11):
    # the drift sqrt(1 - x1) takes path 0 past x1 = 1, where it is NaN: the
    # next step makes the state NaN, and both loops raise there, whatever A
    # is, naming the step and the last finite state (past x1 = 1)
    cs = build_coefficient_set([[a11, "0"], ["1"]], None, ["sqrt(1 - x1)", "0"], d=2)
    cfg = SimulationConfig(dt=1e-2, horizon=5.0, paths=paths, seed=3, radii=(4.0,))
    before = threading.active_count()
    with pytest.raises(MonteCarloError, match=r"^path 0: the state is not finite after step \d+; ") as err:
        simulate_ensemble(cs, [0.0, 0.0], cfg)
    assert threading.active_count() == before  # the worker is joined when a step raises
    step = int(str(err.value).split("after step ")[1].split(";")[0])
    x = json.loads(str(err.value).split("x = ")[1])
    assert step > 1 and x[0] > 1.0 and all(map(math.isfinite, x))


def test_ergodic_average_burn_in_guard():
    cfg = SimulationConfig(dt=1e-2, horizon=5.0, paths=1, seed=74, radii=(2.0,))
    cs = cs_identity(H=["4*x1", "4*x2"])
    with pytest.raises(MonteCarloError):
        ergodic_average(cs, [1.0, 0.0], cfg, parse_expr("1", 2), burn_in=4.0)


def test_transition_histogram_short_time_concentrates():
    cfg = SimulationConfig(dt=1e-3, horizon=0.01, paths=2000, seed=81, radii=(16.0,))
    out = transition_histogram(simulate_ensemble(BM, [0.7, -0.3], cfg), 0.01)
    for mean, se, want in zip(out["mean"], out["mean_std_error"], [0.7, -0.3]):
        assert abs(mean - want) <= 3 * se


def test_transition_histogram_ou_vs_gaussian_reference():
    cfg = SimulationConfig(dt=1e-3, horizon=6.0, paths=4000, seed=83, radii=(16.0,))
    rho = DensityField.from_expression("exp(-norm2(x))", 2)
    out = transition_histogram(simulate_ensemble(OU, [1.0, 1.0], cfg), 6.0, rho_ref=rho)
    for ks in out["ks_distance"]:
        assert ks <= 1.63 / math.sqrt(cfg.paths)


def test_transition_histogram_one_path_is_finite():
    # the standard error of one path is 0, as in _mean_se, so the block holds
    # no NaN and raises no warning
    cfg = SimulationConfig(dt=1e-2, horizon=0.1, paths=1, seed=85, radii=(16.0,))
    ens = simulate_ensemble(OU, [0.5, -0.5], cfg)
    out = transition_histogram(ens, 0.1)
    assert out["mean_std_error"] == [0.0, 0.0]
    assert out["mean"] == ens.states[0, -1].tolist()
    json.dumps(out, allow_nan=False)


def test_transition_histogram_flat_reference_rejected():
    # a reference of infinite mass is reported with its reason, and no KS distance is taken
    cfg = SimulationConfig(dt=1e-2, horizon=0.1, paths=50, seed=85, radii=(16.0,))
    rho = DensityField.from_expression("1", 2)
    ens = simulate_ensemble(cs_identity(H=["1", "0"]), [0.0, 0.0], cfg)
    out = transition_histogram(ens, 0.1, rho_ref=rho)
    assert out["reference_error"].startswith("reference not normalizable")
    assert "ks_distance" not in out
    assert out == {**transition_histogram(ens, 0.1), "reference_error": out["reference_error"]}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_marginal_cdf_table_matches_erf(d):
    # exp(-|x|^2) has N(0, 1/2) marginals, whose CDF is (1 + erf(x)) / 2
    rho = DensityField.from_expression("exp(-norm2(x))", d)
    grid, cdfs = montecarlo._marginal_cdfs(rho, d, montecarlo._REF_BOX)
    assert len(cdfs) == d
    exact = 0.5 * (1.0 + np.array([math.erf(x) for x in grid]))
    for cdf in cdfs:
        assert np.max(np.abs(cdf - exact)) <= 1e-8


@pytest.mark.parametrize("d, bound", [(2, 1e-8), (3, 1e-8), (4, 1e-4)])
def test_marginal_cdf_table_of_a_correlated_gaussian(d, bound):
    # exp(-|x|^2 - (x1 x2 + ... + x_{d-1} x_d)) is N(0, P^-1) with P = 2 I plus
    # 1 beside the diagonal; its k-th marginal CDF is Phi(x / sqrt(P^-1_kk)).
    # It is not a product, so the error across the axis does not cancel in
    # the normalization
    rho = DensityField.from_expression(
        "exp(-norm2(x) - (" + " + ".join(f"x{i}*x{i + 1}" for i in range(1, d)) + "))", d
    )
    cov = np.linalg.inv(2 * np.eye(d) + np.eye(d, k=1) + np.eye(d, k=-1))
    calls, density = [], rho.rho
    rho.rho = lambda pts: calls.append(len(pts)) or density(pts)
    grid, cdfs = montecarlo._marginal_cdfs(rho, d, montecarlo._REF_BOX)
    for k, cdf in enumerate(cdfs):
        assert np.max(np.abs(cdf - ndtr(grid / math.sqrt(cov[k, k])))) <= bound, k
    assert max(calls) <= 2**16


def test_ks_distance_helper():
    rng = np.random.default_rng(4)
    samples = rng.uniform(0, 1, 4000)
    grid = np.linspace(0, 1, 1001)
    ks = ks_marginal_distance(samples, grid, grid)
    assert ks < 1.63 / math.sqrt(4000)
    shifted = samples * 0.5
    assert ks_marginal_distance(shifted, grid, grid) > 0.4


def test_x0_must_start_inside_ladder():
    cfg = SimulationConfig(dt=1e-2, horizon=0.1, paths=10, seed=1, radii=(1.0,))
    with pytest.raises(MonteCarloError):
        simulate_ensemble(BM, [2.0, 0.0], cfg)


# --- the float loop: a one-path batch against the same path in a batch of two ---

_A = {
    "diagonal": [["1.7", "0", "0"], ["0.6", "0"], ["1"]],
    "non_diagonal": [["2", "0.8", "0.3"], ["1.5", "0.2"], ["1"]],
    # diagonally dominant wherever it is finite
    "non_constant": [["1.5 + exp(-norm2(x))", "0.3/(1 + norm2(x))", "0.2"], ["1.2 + 0.5*erf(x1)", "0.1"], ["1"]],
}
# the fixed accumulators: a Div by an exact 0 (Python's / would raise), ln of
# negative values (skipped and counted), and SelGe, Min, Max, Pow and Erf
_FIXED_ACC = {
    "div": "1/(x1 - x1)",
    "ln": "ln(x1)",
    "sel": "selge(x1, 0, min(x1, 1)^1.5, erf(max(x1, -1)))",
}


def _nodes(d):
    """Expressions over x1 .. xd that use every node type."""
    leaves = st.one_of(
        st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.5]).map(ex.Const),
        st.integers(0, d - 1).map(ex.Coord),
        st.just(ex.Norm2()),
    )

    def extend(inner):
        two = st.tuples(inner, inner)
        return st.one_of(
            *(two.map(lambda ab, cls=cls: cls(*ab)) for cls in (ex.Add, ex.Sub, ex.Mul, ex.Div, ex.Max, ex.Min)),
            *(inner.map(cls) for cls in (ex.Exp, ex.Ln, ex.Sqrt, ex.Erf)),
            st.tuples(inner, st.sampled_from([2.0, 3.0, 0.5, -1.0, 1.5])).map(lambda be: ex.Pow(*be)),
            st.tuples(inner, inner, inner, inner).map(lambda n: ex.SelGe(*n)),
        )

    return st.recursive(leaves, extend, max_leaves=8)


_NODES = {d: _nodes(d) for d in (1, 2, 3)}


def _per_path(ens, p):
    exit_times = [float(ens.exit_times[r][p]) for r in ens.config.radii]
    fields = (ens.states[p], exit_times, ens.clip_counts[p], ens.status[p], ens.overshoot_max[p])
    accs = {name: v[p] for name, v in ens.accumulators.items()}
    return repr([np.asarray(f).tolist() for f in fields]) + repr({k: v.tolist() for k, v in accs.items()})


def _oracle_run(d, accumulate, accumulate_from):
    """The start, the one-path config and the keywords of the oracle runs."""
    dt = 2e-2
    cfg = SimulationConfig(dt=dt, horizon=150 * dt, paths=1, seed=404, radii=(1.0, 1.02, 1.04, 2.5), clip=0.03)
    x0 = ([0.5, 0.0, -0.25] + [0.0] * d)[:d]
    return x0, cfg, dict(save_times=[0.3, 1.0, 2.0], accumulate=accumulate, accumulate_from=accumulate_from)


def _split_error(monkeypatch, cs, accumulate, accumulate_from, array_loop):
    """The error of two paths stepped as two one-path batches, by the float
    loop or, with ``array_loop``, by the array loop."""
    monkeypatch.undo()
    monkeypatch.setattr(montecarlo, "_batch_bounds", lambda paths, n_steps, d: [(0, 1), (1, 2)])
    if array_loop:
        batch_of_one = lambda job, p, noise: montecarlo._step_batch(job, p, p + 1, noise)
        monkeypatch.setattr(montecarlo, "_step_path", batch_of_one)
    x0, cfg, kw = _oracle_run(cs.d, accumulate, accumulate_from)
    with pytest.raises(MonteCarloError) as err:
        simulate_ensemble(cs, x0, replace(cfg, paths=2), **kw)
    return str(err.value)


def _float_oracle(monkeypatch, cs, accumulate, accumulate_from):
    """A one-path run against path 0 of a two-path batch, and two one-path
    batches against one two-path batch; returns the one-path ensemble and
    how many paths the float loop stepped."""
    monkeypatch.undo()  # hypothesis runs every example in one test's fixture
    d = cs.d
    stepped = []
    real = montecarlo._step_path

    def counted(job, p, noise):
        stepped.append(p)
        return real(job, p, noise)

    monkeypatch.setattr(montecarlo, "_step_path", counted)
    x0, cfg, kw = _oracle_run(d, accumulate, accumulate_from)
    one = simulate_ensemble(cs, x0, cfg, **kw)
    two = simulate_ensemble(cs, x0, replace(cfg, paths=2), **kw)
    assert _per_path(one, 0) == _per_path(two, 0)
    monkeypatch.setattr(montecarlo, "_batch_bounds", lambda paths, n_steps, d: [(0, 1), (1, 2)])
    split = simulate_ensemble(cs, x0, replace(cfg, paths=2), **kw)
    for p in (0, 1):
        assert _per_path(split, p) == _per_path(two, p)
    assert split.skipped == two.skipped
    return one, len(stepped)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.sampled_from([1, 2, 3]), st.sampled_from(sorted(_A)), st.sampled_from([0.0, 0.3]))
def test_float_loop_matches_the_array_loop(monkeypatch, data, d, a_kind, accumulate_from):
    drift = [data.draw(_NODES[d]) for _ in range(d)]
    accumulate = {name: parse_expr(src, d) for name, src in _FIXED_ACC.items()}
    accumulate["drawn"] = data.draw(_NODES[d])
    A = [row[: d - i] for i, row in enumerate(_A[a_kind][:d])]
    cs = build_coefficient_set(A, None, [to_source(g) for g in drift], d=d)
    try:
        _, stepped = _float_oracle(monkeypatch, cs, accumulate, accumulate_from)
    except MonteCarloError:
        # a drift that is not finite takes a path to a state that is not
        # finite, whatever A is: both loops raise the same error, naming the
        # path, the step and the last finite state
        float_err, array_err = (_split_error(monkeypatch, cs, accumulate, accumulate_from, a) for a in (False, True))
        assert float_err == array_err and "not finite after step" in float_err, (float_err, array_err)
        assume(False)
    # the float loop steps every one-path batch, whatever A is
    assert stepped == 3


def test_float_loop_steps_d8(monkeypatch):
    # numpy sums a row of 8 or more squares pairwise; every sum of squares
    # here is in order, so the float loop steps d = 8 with the batch's bytes
    one, stepped = _float_oracle(monkeypatch, cs_ou(d=8), {"r2": parse_expr("norm2(x)", 8)}, 0.0)
    assert stepped == 3
    assert one.clip_counts[0] > 0 and one.accumulators["r2"][0, -1] > 0.0


def test_float_loop_covers_clips_ladders_and_skips(monkeypatch):
    # outward drift inside radius sqrt(3), inward outside: the tight clip
    # fires, and steps cross several of the close inner radii at once; A is
    # not constant, and the path reaches x1 <= 0 before it leaves
    cs = build_coefficient_set(
        [["2 + x1/(1 + norm2(x))", "0.8"], ["1"]], None, ["3*x1 - x1*norm2(x)", "3*x2 - x2*norm2(x)"], d=2
    )
    accumulate = {name: parse_expr(src, 2) for name, src in _FIXED_ACC.items()}
    one, stepped = _float_oracle(monkeypatch, cs, accumulate, 0.3)
    assert stepped == 3
    assert one.clip_counts[0] > 0
    assert one.exit_times[1.0][0] == one.exit_times[1.04][0]
    assert one.status[0] == 1
    assert np.all(one.accumulators["sel"][0, :1] == 0.0) and one.accumulators["sel"][0, -1] != 0.0
    assert one.skipped["div"] > 0 and 0 < one.skipped["ln"] < one.skipped["div"]
    assert one.skipped["sel"] == 0


def test_float_loop_draws_no_noise_after_its_path_leaves(monkeypatch):
    # the strong outward drift takes the path past radius 3 in its first
    # noise chunk of three; later save slots hold its frozen state and totals
    drawn, noise = [], montecarlo._noise
    monkeypatch.setattr(montecarlo, "_noise", lambda *args: (drawn.append(args[1]) or u for u in noise(*args)))
    cs = cs_identity(H=["4*x1", "4*x2"])
    dt = 1e-2
    cfg = SimulationConfig(dt=dt, horizon=3 * montecarlo._NOISE_CHUNK * dt, paths=1, seed=9, radii=(2.0, 3.0))
    kw = dict(save_times=[0.5, 1.0, 2.0, 3.0], accumulate={"r2": parse_expr("norm2(x)", 2)})
    one = simulate_ensemble(cs, [1.0, 0.0], cfg, **kw)
    assert one.status[0] == 1 and one.exit_times[3.0][0] < 0.5
    assert drawn == [0]
    two = simulate_ensemble(cs, [1.0, 0.0], replace(cfg, paths=2), **kw)
    assert _per_path(one, 0) == _per_path(two, 0)
    assert np.all(one.states[0, 1:] == one.states[0, -1]) and one.accumulators["r2"][0, -1] > 0.0


def _transition_scenario(d):
    return {
        "schema_version": 1,
        "name": f"ou_{d}d_transition",
        "dimension": d,
        "coefficients": {"A": [["1" if j == i else "0" for j in range(i, d)] for i in range(d)],
                         "H": [f"-x{i + 1}" for i in range(d)]},
        "density": {"analytic": ["exp(-norm2(x))"]},
        "simulation": {"dt": 0.01, "horizon": 0.05, "paths": 20, "seed": 3, "x0": [0.0] * d, "radii": [8.0],
                       "transition": {"t": 0.05, "reference": "analytic:0"}},
    }


def test_d4_transition_reference_runs():
    report = cli.run_scenario(_transition_scenario(4), stages=("simulation",))
    assert report["status"]["exit_code"] == 0
    ks = report["stages"]["simulation"]["transition"]["ks_distance"]
    assert len(ks) == 4 and all(0.0 < v < 1.0 for v in ks)


def test_d5_transition_reference_fails_before_building_its_rule(monkeypatch):
    # 960 * 16^4 = 62914560 points per axis with 2 panels of 8 nodes across:
    # more than 2**22, so the stage fails with exit 3 and the count, and no
    # rule is built
    built = []
    monkeypatch.setattr(montecarlo, "QuadratureRule", lambda *a: built.append(a))
    report = cli.run_scenario(_transition_scenario(5), stages=("simulation",))
    assert report["status"]["exit_code"] == 3
    assert any("62914560 points" in note for note in report["status"]["notes"])
    assert built == []
