"""Euler-Maruyama ensembles with localization ladders and estimators.

Paths follow ``X_{k+1} = X_k + G_clip(X_k) dt + L(X_k) sqrt(dt) xi_k``
with ``L`` the lower Cholesky factor of ``A`` (any ``sigma sigma^T = A`` gives
the same law) and ``xi_k`` standard Gaussians drawn by inverse CDF from
counter-based Philox streams keyed by ``(master seed, path index)``.  Each
path's stream is read in chunks of ``_NOISE_CHUNK`` time steps; successive
reads continue the stream, so the numbers are those of one long read.  A
path stops permanently at its first exit from the largest ladder radius
(absorption is the simulator's proxy for the cemetery state); exit times are
recorded for every ladder radius at the first sample index with
``|X| >= n``.  ``simulate_ensemble`` steps every ensemble: the ergodic
average runs as a one-path ensemble, and a transition histogram reads the
state of an ensemble stepped for other estimators.  Everything is
bit-reproducible for a fixed config, however the paths are split into
batches.

Two loops step a batch, with the same operations in the same order: each
step calls one compiled :class:`~sdelab.expr.Program` for the drift, every
accumulator and :attr:`CoefficientSet.cholesky` (``L``, then a margin that
raises :class:`~sdelab.calculus.DegenerateDiffusionError` where it is not
positive).  :func:`_step_batch` steps the batch's paths together, with few
numpy calls per step; :func:`_step_path` steps a batch of one path on Python
floats, at a tenth of the cost per step.  Every sum (``norm2``,
:func:`_row_norms`, the noise ``sum_{j<=i} L_ij xi_j``, :func:`_mix`) is in
order and elementwise, so a path's bits do not depend on its batch.  A
non-finite accumulator increment (a path on a singular set) is skipped and
counted in ``PathEnsemble.skipped``, as :func:`calculus.integrate_masked`
skips and counts quadrature nodes.  A step to a state that is not finite
raises :class:`MonteCarloError`; the ladder test finds it (its norm is
not below the next radius) and names the step and the last finite state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtri

from . import calculus as calc
from .calculus import CoefficientSet, DensityField, QuadratureRule
from .expr import Const, Expr, Max, Program, columns, mul

__all__ = [
    "MonteCarloError",
    "SimulationConfig",
    "PathEnsemble",
    "simulate_ensemble",
    "moment_curve",
    "krylov_functional",
    "ergodic_average",
    "transition_histogram",
    "exit_statistics",
    "ks_marginal_distance",
    "KS_FACTOR",
]

_MASK64 = (1 << 64) - 1
_NOISE_CHUNK = 512  # time steps of Gaussian noise drawn per path at a time
_BATCH_FLOATS = 1 << 22  # noise numbers held per batch (32 MiB)
_REF_BOX = 6.0  # half-width of the box a transition reference is normalized on
_BATCHES = 20  # batch means behind the ergodic average's standard error
_CDF_POINTS = 2**22  # points per axis of a marginal CDF rule, at most
# KS level -> (critical distance times sqrt(paths), significance)
KS_FACTOR = {"5pct": (1.358, 0.05), "1pct": (1.63, 0.01)}


class MonteCarloError(Exception):
    pass


@dataclass(frozen=True)
class SimulationConfig:
    """Euler-Maruyama run description; ``seed`` keys every path's noise stream."""

    dt: float
    horizon: float
    paths: int
    seed: int
    radii: Tuple[float, ...] = (16.0,)
    clip: float = 10.0  # clip drift when |G| dt > clip

    def __post_init__(self):
        if self.dt <= 0 or self.horizon < self.dt:
            raise MonteCarloError("need dt > 0 and horizon >= dt")
        if not self.radii or list(self.radii) != sorted(set(self.radii)) or self.radii[0] <= 0:
            raise MonteCarloError("ladder radii must be strictly increasing and positive")
        if self.clip <= 0:
            raise MonteCarloError("clip threshold must be positive")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class PathEnsemble:
    config: SimulationConfig
    x0: np.ndarray
    saved_times: np.ndarray  # (n_saved,)
    states: np.ndarray  # (paths, n_saved, d); frozen at exit
    exit_times: Dict[float, np.ndarray]  # radius -> (paths,), nan if no exit
    clip_counts: np.ndarray  # (paths,)
    status: np.ndarray  # (paths,) 0 = alive, 1 = exited-largest-radius
    overshoot_max: np.ndarray  # (paths,) max (|X_exit| - n) over ladder exits
    accumulators: Dict[str, np.ndarray] = field(default_factory=dict)
    skipped: Dict[str, int] = field(default_factory=dict)  # non-finite increments

    @property
    def n_paths(self) -> int:
        return self.config.paths

    def state_at(self, t: float) -> np.ndarray:
        k = int(np.argmin(np.abs(self.saved_times - t)))
        if abs(self.saved_times[k] - t) > 0.5 * self.config.dt + 1e-12:
            raise MonteCarloError(
                f"time {t} was not saved (closest {self.saved_times[k]})"
            )
        return self.states[:, k, :]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Row norms, the squares summed column by column in order, as ``norm2``
    sums them and as :func:`_step_path` sums them on floats.

    Below 8 columns numpy adds a row's squares in order too, so this is
    ``np.linalg.norm(x, axis=1)`` bit for bit there, at about a quarter of
    its cost at 2000 rows and d=2; from 8 columns on numpy sums pairwise,
    and the two may differ in the last bit.
    """
    s = x[:, 0] * x[:, 0]
    for k in range(1, x.shape[1]):
        s = s + x[:, k] * x[:, k]
    return np.sqrt(s)


def _batch_bounds(paths: int, n_steps: int, d: int) -> List[Tuple[int, int]]:
    """Path ranges whose noise chunk holds at most ``_BATCH_FLOATS`` numbers."""
    per_path = min(n_steps, _NOISE_CHUNK) * d
    batch = max(1, min(paths, _BATCH_FLOATS // per_path))
    return [(s, min(s + batch, paths)) for s in range(0, paths, batch)]


def _noise(seed: int, lo: int, hi: int, n_steps: int, d: int) -> Iterator[np.ndarray]:
    """The standard Gaussians of paths ``lo .. hi-1``, one ``(steps, paths, d)``
    chunk of at most ``_NOISE_CHUNK`` steps at a time, in one reused buffer."""
    gens = [
        np.random.Generator(np.random.Philox(key=[seed & _MASK64, p & _MASK64]))
        for p in range(lo, hi)
    ]
    xi = np.empty((min(n_steps, _NOISE_CHUNK), hi - lo, d))
    for k in range(0, n_steps, _NOISE_CHUNK):
        # successive draws continue each path's stream, so the numbers do
        # not depend on the chunk length
        u = xi[: min(_NOISE_CHUNK, n_steps - k)]
        for i, gen in enumerate(gens):
            u[:, i, :] = gen.random((len(u), d))
        u[u == 0.0] = 2.0**-54
        ndtri(u, out=u)
        yield u


def _mix(e: np.ndarray, V: Sequence, rows: List[Tuple[int, int, range]]) -> np.ndarray:
    """``out[:, i]`` is the in-order sum over ``j <= i`` of ``e[:, j] * L_ij``,
    ``L`` read from a program's values ``V`` at ``rows`` (``_Job.rows``),
    elementwise: a path's bits do not depend on its batch, as a matmul's do."""
    out = np.empty(e.shape)
    for i, o, js in rows:
        s = e[:, 0] * V[o]
        for j in js:
            s = s + e[:, j] * V[o + j]
        out[:, i] = s
    return out


def _degenerate(X, margin) -> calc.DegenerateDiffusionError:
    """The error at the first row of ``X`` whose degeneracy margin is not positive."""
    x = np.asarray(X[int(np.argmin(np.broadcast_to(margin, (len(X),)) > 0))]).tolist()
    return calc.DegenerateDiffusionError(
        f"diffusion matrix degenerate at x = {x}: a Cholesky pivot is not above 1e-12 * trace"
    )


def _not_finite(k: int, paths, before, after) -> MonteCarloError:
    """The error at the first of ``paths`` whose state ``after`` step ``k + 1`` is not finite."""
    i = int(np.argmin(np.isfinite(after).all(axis=1)))
    where = f"path {int(paths[i])}: the state is not finite after step {k + 1}"
    return MonteCarloError(f"{where}; the last finite state is x = {np.asarray(before[i]).tolist()}")


@dataclass
class _Job:
    """An ensemble's step settings and the result arrays that both stepping
    loops fill, path by path."""

    cfg: SimulationConfig
    x0: np.ndarray
    fused: Callable  # the generated function of the drift's d columns, one per accumulator, then cs.cholesky
    rows: List[Tuple[int, int, range]]  # per row i of L: i, L_i0's index from the values' end, the j > 0
    acc_start: int
    save_pos: Dict[int, int]  # step -> save slot
    states: np.ndarray
    exit_t: np.ndarray
    clip_counts: np.ndarray
    status: np.ndarray
    overshoot: np.ndarray
    accs: np.ndarray
    skipped: np.ndarray

    def save(self, k: int, rows, X, totals) -> None:
        """Store the states and totals of ``rows`` (a path or a slice of
        paths) after ``k`` steps, if ``k`` is saved."""
        pos = self.save_pos.get(k)
        if pos is not None:
            self.states[rows, pos] = X
            self.accs[rows, pos] = totals


def simulate_ensemble(
    cs: CoefficientSet,
    x0: Sequence[float],
    cfg: SimulationConfig,
    *,
    save_times: Optional[Sequence[float]] = None,
    accumulate: Optional[Dict[str, Expr]] = None,
    accumulate_from: float = 0.0,
) -> PathEnsemble:
    """Simulate the ensemble; deterministic for fixed config and inputs.

    ``save_times`` lists process times whose states are stored (the terminal
    time is always stored); ``accumulate`` maps names to expressions whose
    left-endpoint time integrals from ``accumulate_from`` on are accumulated
    along each living path and stored at the save times like the states.
    Non-finite increments are left out of the integrals and counted.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (cs.d,):
        raise MonteCarloError(f"x0 must have shape ({cs.d},)")
    if float(np.linalg.norm(x0)) >= cfg.radii[0]:
        raise MonteCarloError("x0 must start inside the smallest ladder radius")

    n_steps = cfg.n_steps
    dt = cfg.dt
    save_idx = {n_steps}
    if save_times is not None:
        for t in save_times:
            k = int(round(t / dt))
            if not (0 <= k <= n_steps):
                raise MonteCarloError(f"save time {t} outside horizon")
            save_idx.add(k)
    save_idx = sorted(save_idx)

    d = cs.d
    accumulate = accumulate or {}
    names = list(accumulate)
    paths, n_saved = cfg.paths, len(save_idx)
    job = _Job(
        cfg=cfg,
        x0=x0,
        fused=Program(tuple(cs.G) + tuple(accumulate.values()) + cs.cholesky).function(d),
        rows=[(i, i * (i + 1) // 2 - len(cs.cholesky), range(1, i + 1)) for i in range(d)],
        acc_start=int(round(accumulate_from / dt)),
        save_pos={k: i for i, k in enumerate(save_idx)},
        states=np.empty((paths, n_saved, d)),
        exit_t=np.full((paths, len(cfg.radii)), np.nan),
        clip_counts=np.zeros(paths, dtype=np.int64),
        status=np.zeros(paths, dtype=np.int8),
        overshoot=np.zeros(paths),
        accs=np.zeros((paths, n_saved, len(names))),
        skipped=np.zeros(len(names), dtype=np.int64),
    )
    for lo, hi in _batch_bounds(paths, n_steps, d):
        noise = _noise(cfg.seed, lo, hi, n_steps, d)
        with np.errstate(all="ignore"):
            if hi - lo == 1:
                _step_path(job, lo, noise)
            else:
                _step_batch(job, lo, hi, noise)

    return PathEnsemble(
        config=cfg,
        x0=x0,
        saved_times=np.array([k * dt for k in save_idx]),
        states=job.states,
        exit_times={float(r): job.exit_t[:, j].copy() for j, r in enumerate(cfg.radii)},
        clip_counts=job.clip_counts,
        status=job.status,
        overshoot_max=job.overshoot,
        accumulators={name: job.accs[:, :, j].copy() for j, name in enumerate(names)},
        skipped={name: int(n) for name, n in zip(names, job.skipped)},
    )


def _step_batch(job: _Job, lo: int, hi: int, noise: Iterator[np.ndarray]) -> None:
    """Step paths ``lo .. hi-1`` together, one numpy operation per step over
    the living paths."""
    cfg, d = job.cfg, len(job.x0)
    dt, sqrt_dt = cfg.dt, math.sqrt(cfg.dt)
    n_acc = job.accs.shape[2]
    radii = np.array(cfg.radii, dtype=float)
    n_radii = len(radii)
    next_radius = np.append(radii, np.inf)  # a path past the last radius has none
    cols = np.arange(n_radii)
    B = hi - lo
    X = np.tile(job.x0, (B, 1))
    totals = np.zeros((B, n_acc))
    live = slice(None)  # the living paths; a slice, so views, until one leaves
    ids = np.arange(B)  # batch indices of the living paths
    nxt = np.zeros(B, dtype=np.intp)  # each path's next ladder radius ...
    thr = np.full(B, radii[0])  # ... and its value, updated on crossings only
    job.save(0, slice(lo, hi), X, totals)
    for k in range(cfg.n_steps):
        c = k % _NOISE_CHUNK
        if c == 0:
            xi = next(noise)
        if len(ids):
            Xa = X[live]
            e = xi[c][live]
            V = job.fused(*Xa.T)
            if not np.all(V[-1] > 0):
                raise _degenerate(Xa, V[-1])
            W = columns(V[: d + n_acc], len(Xa))
            G = W[:, :d]
            if k >= job.acc_start:
                inc = W[:, d:] * dt
                ok = np.isfinite(inc)
                if np.count_nonzero(ok) < ok.size:
                    job.skipped[:] += len(ok) - ok.sum(axis=0)
                    inc[~ok] = 0.0
                totals[live] += inc
            gn = _row_norms(G)
            too_big = gn * dt > cfg.clip
            if np.count_nonzero(too_big):
                scale = np.ones(len(Xa))
                scale[too_big] = cfg.clip / (gn[too_big] * dt)
                G = G * scale[:, None]
                job.clip_counts[lo + ids[too_big]] += 1
            Xn = Xa + G * dt + sqrt_dt * _mix(e, V, job.rows)
            rn = _row_norms(Xn)
            hit = ~(rn < thr[live])  # a NaN norm too: its state is not finite
            hits = np.count_nonzero(hit)
            if hits and not np.isfinite(Xn[hit]).all():
                raise _not_finite(k, lo + ids[hit], Xa[hit], Xn[hit])
            X[live] = Xn
            if hits:
                p, r_p = ids[hit], rn[hit]
                # a path may cross several radii in one step; the smallest
                # of them gives the largest overshoot
                job.overshoot[lo + p] = np.maximum(job.overshoot[lo + p], r_p - thr[p])
                new = np.searchsorted(radii, r_p, side="right")
                crossed = (nxt[p, None] <= cols) & (cols < new[:, None])
                job.exit_t[lo + p] = np.where(crossed, (k + 1) * dt, job.exit_t[lo + p])
                nxt[p] = new
                thr[p] = next_radius[new]
                left = p[new == n_radii]
                if len(left):
                    job.status[lo + left] = 1
                    live = ids = np.nonzero(nxt < n_radii)[0]
        job.save(k + 1, slice(lo, hi), X, totals)


def _step_path(job: _Job, p: int, noise: Iterator[np.ndarray]) -> None:
    """Step path ``p`` alone on Python floats, with :func:`_step_batch`'s
    operations in its order: the program's function takes the point as
    floats, the noise rows are one chunk's ``.tolist()``, :func:`_mix` is
    written out, and the clip and the ladder are ``if``s.  No noise is drawn
    after the path leaves."""
    cfg, d = job.cfg, len(job.x0)
    dt, sqrt_dt, clip = cfg.dt, math.sqrt(cfg.dt), cfg.clip
    radii = cfg.radii
    n_radii = len(radii)
    fused = job.fused
    n_acc = job.accs.shape[2]
    x = job.x0.tolist()
    totals = [0.0] * n_acc
    skipped = [0] * n_acc
    nxt, thr, clips, over = 0, radii[0], 0, 0.0
    job.save(0, p, x, totals)
    for k in range(cfg.n_steps):
        c = k % _NOISE_CHUNK
        if c == 0:
            chunk = next(noise)[:, 0].tolist()
        V = fused(*x)
        if not V[-1] > 0:
            raise _degenerate([x], V[-1])
        if k >= job.acc_start:
            for j in range(n_acc):
                inc = V[d + j] * dt
                if math.isfinite(inc):
                    totals[j] += inc
                else:
                    skipped[j] += 1
        G = V[:d]
        s = G[0] * G[0]
        for g in G[1:]:
            s = s + g * g
        gn = math.sqrt(s)
        if gn * dt > clip:
            scale = clip / (gn * dt)
            G = [g * scale for g in G]
            clips += 1
        e = chunk[c]
        xn = []
        for i, o, js in job.rows:
            s = e[0] * V[o]
            for j in js:
                s = s + e[j] * V[o + j]
            xn.append(x[i] + G[i] * dt + sqrt_dt * s)
        s = xn[0] * xn[0]
        for v in xn[1:]:
            s = s + v * v
        r = math.sqrt(s)
        if not r < thr and not all(map(math.isfinite, xn)):
            raise _not_finite(k, [p], [x], [xn])
        x = xn
        job.save(k + 1, p, x, totals)
        if r >= thr:
            over = max(over, r - thr)
            while nxt < n_radii and r >= radii[nxt]:
                job.exit_t[p, nxt] = (k + 1) * dt
                nxt += 1
            thr = radii[nxt] if nxt < n_radii else math.inf
            if nxt == n_radii:  # the path has left: its state and totals stay
                for later in range(k + 2, cfg.n_steps + 1):
                    job.save(later, p, x, totals)
                break
    job.clip_counts[p] = clips
    job.status[p] = nxt == n_radii
    job.overshoot[p] = over
    job.skipped += np.array(skipped, dtype=np.int64)


# ---------------------------------------------------------------------------
# estimators


def _mean_se(values: np.ndarray) -> Tuple[float, float]:
    """The sample mean and its standard error (0 for a single value)."""
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return float(np.mean(values)), se


def ensemble_summary_rows(ens: PathEnsemble) -> Tuple[List[str], List[list]]:
    """One row per path: seed index, terminal state, exit times, clip count."""
    radii = list(ens.config.radii)
    header = (
        ["path", "status"]
        + [f"exit_time_r{r:g}" for r in radii]
        + ["clip_events", "overshoot_max"]
    )
    rows = []
    for p in range(ens.n_paths):
        row = [p, "exited-largest-radius" if ens.status[p] else "alive"]
        for r in radii:
            t = ens.exit_times[float(r)][p]
            row.append(float(t) if np.isfinite(t) else "")
        row.append(int(ens.clip_counts[p]))
        row.append(float(ens.overshoot_max[p]))
        rows.append(row)
    return header, rows


def moment_curve(
    ens: PathEnsemble,
    phi: Expr,
    times: Sequence[float],
    bound: Optional[Dict[str, float]] = None,
) -> List[Dict[str, object]]:
    """``E[phi(X_{t ^ sigma_N})]`` per time, with optional ``e^{M t}`` bound ratio.

    The ensemble's frozen-at-exit states realize stopping at the largest
    ladder radius, matching the supermartingale bound being compared against.
    """
    fn = Program(phi)
    out = []
    phi0 = float(fn(ens.x0))
    for t in times:
        vals = fn(ens.state_at(t))
        est, se = _mean_se(vals)
        row: Dict[str, object] = {
            "time": float(t),
            "estimate": est,
            "std_error": se,
            "paths": ens.n_paths,
        }
        if bound is not None:
            M = float(bound["M"])
            cap = math.exp(M * t) * phi0
            row["bound"] = cap
            row["bound_ratio"] = est / cap if cap != 0 else math.inf
        out.append(row)
    return out


def krylov_functional(
    cs: CoefficientSet,
    f: Expr,
    t: float,
    x_grid: Sequence[Sequence[float]],
    cfg: SimulationConfig,
    *,
    rho: Optional[DensityField] = None,
    q: Optional[float] = None,
) -> Dict[str, object]:
    """Estimates of ``E_x[int_0^t |f|(X_s) ds]`` over starting points.

    Returns the per-start estimates, their sup, and (given a density) the
    ``L^q(mu)`` norm of ``f`` on the ball ``B_8``, by the polar rule
    (:func:`~sdelab.calculus.ball_integrals`), so the occupation bound's
    constant can be fitted.

    Exact hits of the singular set evaluate to inf/nan; they contribute
    nothing to the left-endpoint sum (a measure-zero set of times) and the
    hit count is reported as ``singular_hits``.  Non-finite quadrature values
    are left out of the norm likewise and counted as ``lq_skipped_nodes``.
    """
    absf = Max(f, mul(Const(-1.0), f))
    hits = 0
    rows = []
    for x in x_grid:
        ens = simulate_ensemble(cs, x, replace(cfg, horizon=t), accumulate={"occupation": absf})
        hits += ens.skipped["occupation"]
        est, se = _mean_se(ens.accumulators["occupation"][:, -1])
        rows.append({"x": list(map(float, x)), "estimate": est, "std_error": se})
    sup_row = max(rows, key=lambda r: r["estimate"])
    out: Dict[str, object] = {
        "time": float(t),
        "per_start": rows,
        "sup_estimate": sup_row["estimate"],
        "sup_at": sup_row["x"],
        "singular_hits": hits,
    }
    if rho is not None:
        if q is None:
            p = cs.integrability_p or float(cs.d + 1)
            q = p * cs.d / (p + cs.d)
        absf_fn = Program(absf)
        (total,), skipped = calc.ball_integrals(lambda pts: absf_fn(pts) ** q * rho.rho(pts), cs.d, [8.0])
        norm_q = float(total) ** (1.0 / q)
        out["f_lq_mu_norm"] = norm_q
        out["lq_skipped_nodes"] = skipped
        out["q"] = q
        if norm_q > 0:
            out["fitted_constant"] = out["sup_estimate"] / (math.exp(t) * norm_q)
    return out


def ergodic_average(
    cs: CoefficientSet,
    x0: Sequence[float],
    cfg: SimulationConfig,
    f: Expr,
    burn_in: float,
) -> Dict[str, object]:
    """Running time-average ``(t - b)^{-1} int_b^t f(X_s) ds`` on one path.

    The path is a one-path ensemble; the curve is sampled every
    ``n_steps // 200`` steps and ends before the path leaves the largest
    ladder radius, which also ends the average.  ``batch_means_std_error``
    is read off the integral at the curve's sample times, see
    :func:`_batch_means_std_error`.  Steps at which ``f`` is not finite are
    left out of the integral and counted as ``singular_hits``.
    """
    if burn_in >= cfg.horizon:
        raise MonteCarloError("burn-in must be shorter than the horizon")
    cfg1 = replace(cfg, paths=1)
    dt = cfg1.dt
    n_steps = cfg1.n_steps
    stride = max(1, n_steps // 200)
    steps = range(stride, n_steps + 1, stride)
    ens = simulate_ensemble(
        cs, x0, cfg1, save_times=[k * dt for k in steps], accumulate={"f": f}, accumulate_from=burn_in
    )
    t_exit = float(ens.exit_times[float(cfg1.radii[-1])][0])
    if t_exit <= burn_in:
        raise MonteCarloError(f"path exited the ladder at t={t_exit:.3f} before burn-in")
    k_exit = n_steps + 1 if math.isnan(t_exit) else int(round(t_exit / dt))
    totals = ens.accumulators["f"][0]
    curve_t: List[float] = []
    curve_v: List[float] = []
    curve_totals: List[float] = []
    for k, total in zip(steps, totals):
        if k < k_exit and k * dt > burn_in + dt:
            curve_t.append(k * dt)
            curve_v.append(float(total) / (k * dt - burn_in))
            curve_totals.append(float(total))
    t_final = min(min(k_exit, n_steps) * dt, cfg1.horizon)
    terminal = float(totals[-1]) / (t_final - burn_in)
    # non-convergence diagnostic: compare the last two thirds of the curve
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
        "batch_means_std_error": _batch_means_std_error(curve_totals, stride * dt),
        "singular_hits": ens.skipped["f"],
    }


def _batch_means_std_error(totals: Sequence[float], width: float) -> Optional[float]:
    """Batch-means standard error of a time average from its running integral
    sampled every ``width`` time units.

    The increments of the integral are split into ``_BATCHES`` consecutive
    batches of equal length (the leftover increments at the start are
    dropped); the standard error is the standard deviation of the batch
    means over ``sqrt(_BATCHES)``.  None with fewer than ``_BATCHES``
    increments.
    """
    increments = np.diff(np.asarray(totals, dtype=float))
    per = len(increments) // _BATCHES
    if per == 0:
        return None
    sums = increments[len(increments) - per * _BATCHES :].reshape(_BATCHES, per).sum(axis=1)
    return float(np.std(sums / (per * width), ddof=1) / math.sqrt(_BATCHES))


def _marginal_cdfs(rho: DensityField, d: int, box: float) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Normalized marginal CDFs of a density on [-box, box]^d, one per axis,
    tabulated at 481 equispaced nodes along the axis (the same on every axis).

    The 480 panels between the table nodes carry the 2-point Gauss-Legendre
    rule (:func:`calc.gauss2_panels`).  At each of its nodes the marginal
    density is the sum over the other axes of a :class:`QuadratureRule` of 8
    panels of 8 nodes per axis, or of 4 or 2 panels where 8 would put more
    than ``_CDF_POINTS`` points on one axis's rule; d = 1 has no rule across.
    The CDF is the cumulative panel sum, normalized by its last value.
    ``rho`` sees at most ``2**16`` points a call.  Where even 2 panels exceed
    ``_CDF_POINTS`` (d >= 5), it raises before any rule is built.
    """
    xs = np.linspace(-box, box, 481)
    t, half = calc.gauss2_panels(xs)
    panels = next((p for p in (8, 4, 2) if len(t) * (8 * p) ** (d - 1) <= _CDF_POINTS), 0)
    if not panels:
        raise MonteCarloError(
            f"the d={d} marginal CDF rule has {len(t) * 16 ** (d - 1)} points per axis with 2 panels across, "
            f"more than {_CDF_POINTS}"
        )
    across, w = np.zeros((1, 0)), np.ones(1)  # d = 1: no rule across
    if d > 1:
        across, w = QuadratureRule((-box,) * (d - 1), (box,) * (d - 1), (8 * panels,) * (d - 1)).points_and_weights()
    step = calc._GAUSS_BUDGET // len(w)
    cdfs = []
    for axis in range(d):
        marginal = np.empty(len(t))
        for k in range(0, len(t), step):
            tk = t[k : k + step]
            pts = np.insert(np.tile(across, (len(tk), 1)), axis, np.repeat(tk, len(w)), axis=1)
            marginal[k : k + step] = rho.rho(pts).reshape(len(tk), len(w)) @ w
        cdf = np.concatenate([[0.0], np.cumsum(half * marginal.reshape(-1, 2).sum(axis=1))])
        cdfs.append(cdf / cdf[-1])
    return xs, cdfs


def check_normalizable(rho: DensityField, d: int, radius: float) -> float:
    """Mass of the ball of ``radius``; error when it exceeds 1.05 times that of
    the ball of half the radius (both from one pass of the polar rule)."""
    (m1, m2), _ = calc.ball_integrals(rho.rho, d, [radius / 2, radius])
    if m1 <= 0 or m2 / m1 > 1.05:
        raise MonteCarloError(
            "reference not normalizable: mass still growing "
            f"({m1:.4g} on B_{radius / 2:g} vs {m2:.4g} on B_{radius:g})"
        )
    return float(m2)


def ks_marginal_distance(samples: np.ndarray, grid: np.ndarray, cdf: np.ndarray) -> float:
    """Kolmogorov-Smirnov sup distance of samples against a tabulated CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    ref = np.interp(xs, grid, cdf, left=0.0, right=1.0)
    upper = np.max(np.arange(1, n + 1) / n - ref)
    lower = np.max(ref - np.arange(0, n) / n)
    return float(max(upper, lower))


def transition_histogram(
    ens: PathEnsemble, t: float, rho_ref: Optional[DensityField] = None
) -> Dict[str, object]:
    """Empirical per-coordinate CDFs of ``X_t`` and KS distance to a reference.

    ``t`` is a time the ensemble saved.  The reference density is normalized
    on ``[-_REF_BOX, _REF_BOX]^d``; a reference that fails
    :func:`check_normalizable` at radius ``_REF_BOX`` is non-normalizable: the
    result then holds the reason as ``reference_error`` and no KS distance.
    """
    X = ens.state_at(t)
    d = X.shape[1]
    reference_error = None
    if rho_ref is not None:
        try:
            check_normalizable(rho_ref, d, _REF_BOX)
        except MonteCarloError as err:
            rho_ref, reference_error = None, str(err)
    qs = np.linspace(0.0, 1.0, 129)
    # the standard error is 0 for a single path, as in _mean_se
    se = X.std(axis=0, ddof=1) / math.sqrt(len(X)) if len(X) > 1 else np.zeros(d)
    out: Dict[str, object] = {
        "time": float(t),
        "paths": ens.n_paths,
        "mean": [float(v) for v in X.mean(axis=0)],
        "mean_std_error": [float(v) for v in se],
        # empirical per-coordinate CDF, tabulated as quantiles
        "cdf_levels": qs.tolist(),
        "cdf_quantiles": [np.quantile(X[:, k], qs).tolist() for k in range(d)],
    }
    if reference_error is not None:
        out["reference_error"] = reference_error
    if rho_ref is not None:
        grid, cdfs = _marginal_cdfs(rho_ref, d, _REF_BOX)
        out["ks_distance"] = [ks_marginal_distance(X[:, k], grid, cdf) for k, cdf in enumerate(cdfs)]
        out["ks_critical_5pct"] = KS_FACTOR["5pct"][0] / math.sqrt(ens.n_paths)
    return out


def _wilson(successes: int, n: int) -> Tuple[float, float]:
    """Wilson score interval at 95% confidence."""
    z = 1.96
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (center - half, center + half)


def exit_statistics(ens: PathEnsemble, radii: Optional[Sequence[float]] = None) -> Dict[str, object]:
    """Exit probabilities and exit-time summaries per ladder radius."""
    cfg = ens.config
    radii = list(radii) if radii is not None else list(cfg.radii)
    rows = []
    prev_p = None
    for r in radii:
        if float(r) not in ens.exit_times:
            raise MonteCarloError(f"radius {r} not in the simulated ladder")
        times = ens.exit_times[float(r)]
        exited = np.isfinite(times)
        k = int(np.sum(exited))
        p = k / ens.n_paths
        lo, hi = _wilson(k, ens.n_paths)
        row = {
            "radius": float(r),
            "p_exit_by_horizon": p,
            "wilson_95": [lo, hi],
            "exited": k,
        }
        if k:
            row["mean_exit_time"] = float(np.mean(times[exited]))
            row["median_exit_time"] = float(np.median(times[exited]))
        if prev_p is not None and lo > prev_p[1]:
            row["monotonicity_note"] = "exit probability increased with radius beyond CI overlap"
        prev_p = (lo, hi)
        rows.append(row)
    return {"horizon": cfg.horizon, "paths": ens.n_paths, "per_radius": rows}
