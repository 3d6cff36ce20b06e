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

Each stream's Philox key is the two exact 64-bit words ``(seed mod 2^64,
p mod 2^64)`` (:class:`_Key`), so no two seeds that differ mod 2^64 share
their noise, and setting a stream up reads no OS entropy.  Noise is drawn
for living paths only: a chunk covers the paths alive when its draw starts,
and a batch whose paths have all left stops, its later save slots holding
the frozen states and totals.  :func:`_noise` draws every uniform on the
calling thread, stream by stream in path order, so no stream depends on
thread timing.  A chunk's inverse CDF (``ndtri``, which releases the GIL) is
split into row slices (:class:`_Conversion`).  For a batch of several paths
one worker thread starts taking the slices of chunk k+1 as soon as it is
drawn, while the batch steps through chunk k; when the batch reaches chunk
k+1 the calling thread converts the slices nobody has taken yet and waits
only for the one the worker holds.  A one-path batch converts each chunk
inline when it needs it.  ``ndtri`` works element by element, so the
numbers do not depend on which thread converts which slice.

One generated :class:`~sdelab.expr.Program` computes the whole step
(:func:`_step_program`) from the state and the step's noise: the new state,
its norm, the drift's clip scale, every accumulator, and the margin of
:attr:`CoefficientSet.cholesky` that raises
:class:`~sdelab.calculus.DegenerateDiffusionError` where it is not positive.
Two loops call it and keep only the ladder, the saves and the counts:
:func:`_step_batch` steps the batch's paths together on columns, and
:func:`_step_path` steps a batch of one path on Python floats, through the
program's float templates, at a tenth of the cost per step.  Every sum
(``norm2``, the drift's and the new state's squares, the noise
``sum_{j<=i} L_ij xi_j``) is in order and elementwise, and the float
templates give the ufuncs' bits, so a path's bits do not depend on its batch.
A non-finite accumulator increment (a path on a singular set) is skipped and
counted in ``PathEnsemble.skipped``, as :func:`calculus.integrate_masked`
skips and counts quadrature nodes.  A step to a state that is not finite
raises :class:`MonteCarloError`; the ladder test finds it (its norm is
not below the next radius) and names the step and the last finite state.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.special import ndtri

from . import calculus as calc
from .calculus import CoefficientSet, DensityField, QuadratureRule
from .expr import Add, Const, Coord, Div, Expr, Max, Min, Mul, Program, Sqrt, columns, fold_const, mul

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
_NOISE_CHUNK = 128  # time steps of Gaussian noise drawn per path at a time
_BATCH_FLOATS = 1 << 22  # noise numbers held per batch in its three buffers (32 MiB)
_SLICE_FLOATS = 1 << 15  # noise numbers per slice of a chunk's inverse CDF, at most
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


def _batch_bounds(paths: int, n_steps: int, d: int) -> List[Tuple[int, int]]:
    """Path ranges whose three noise buffers (:func:`_noise`) hold at most
    ``_BATCH_FLOATS`` numbers."""
    per_path = 3 * min(n_steps, _NOISE_CHUNK) * d
    batch = max(1, min(paths, _BATCH_FLOATS // per_path))
    return [(s, min(s + batch, paths)) for s in range(0, paths, batch)]


class _Key(ISeedSequence):
    """A Philox key given as two exact 64-bit words.  ``Philox(key=[a, b])``
    turns a list holding a word of 2^63 or more into float64, which rounds
    it, and it reads OS entropy for a seed sequence it then drops; a
    :class:`_Key` does neither and gives the same stream where both words
    are below 2^63."""

    def __init__(self, a: int, b: int):
        self.words = (a, b)

    def generate_state(self, n_words, dtype=np.uint32):
        # Philox asks for its key as two uint64 words
        return np.array(self.words, dtype=np.uint64)


def _gaussians(u: np.ndarray, g: np.ndarray) -> None:
    """Write the standard Gaussians of the path-major uniforms ``u`` (rows,
    steps, d) into the step-major ``g`` (steps, rows, d); ``u`` is changed."""
    u[u == 0.0] = 2.0**-54
    ndtri(u, out=g.transpose(1, 0, 2))


class _Conversion:
    """One chunk's inverse CDF, from the path-major uniforms ``u`` (rows,
    steps, d), which it changes, into the step-major Gaussians ``g`` (steps,
    rows, d) it writes at the start of the flat buffer ``out``.  The rows are
    split into slices of at most ``_SLICE_FLOATS`` numbers that threads take
    in turn from one counter, so each slice is converted once, by the thread
    that took it."""

    def __init__(self, u: np.ndarray, out: np.ndarray):
        rows, steps, d = u.shape
        self.u, self.g = u, out[: u.size].reshape(steps, rows, d)
        self.per = max(1, _SLICE_FLOATS // (steps * d))
        self.slices = -(-rows // self.per)
        self.taken = 0
        self.lock = threading.Lock()

    def run(self) -> None:
        """Convert slices until none is left untaken."""
        while True:
            with self.lock:
                i, self.taken = self.taken, self.taken + 1
            if i >= self.slices:
                return
            a, b = i * self.per, (i + 1) * self.per
            _gaussians(self.u[a:b], self.g[:, a:b])


def _noise(
    seed: int, lo: int, hi: int, n_steps: int, d: int, status: np.ndarray, pool: Optional[Executor] = None
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The standard Gaussians of the living paths among ``lo .. hi-1``, one
    ``(steps, rows, d)`` chunk of at most ``_NOISE_CHUNK`` steps at a time,
    each with the batch indices of its rows.

    Path ``p`` reads the Philox stream keyed by the two exact 64-bit words
    ``seed & _MASK64`` and ``p & _MASK64``.  ``status`` is the batch's view
    of the ensemble's status; a chunk's rows are the paths whose status is 0
    (alive) when its draw starts, and no other stream is advanced.  The
    calling thread draws each row's uniforms into one path-major buffer,
    contiguously, stream by stream in path order.  With ``pool`` its worker
    takes slices of chunk k+1's conversion, into one of two step-major
    buffers, while the caller steps through chunk k; when the caller asks
    for chunk k+1 it converts the slices left and waits for the worker's
    last one.  Without a pool each chunk is converted when it is asked for.
    """
    key = seed & _MASK64
    gens = [np.random.Generator(np.random.Philox(_Key(key, p & _MASK64))) for p in range(lo, hi)]
    size = min(n_steps, _NOISE_CHUNK) * (hi - lo) * d
    u, out = np.empty(size), (np.empty(size), np.empty(size))

    def draw(k: int, buf: np.ndarray) -> Tuple[_Conversion, np.ndarray]:
        # successive draws continue each path's stream, so the numbers do
        # not depend on the chunk length
        rows, steps = np.flatnonzero(status == 0), min(_NOISE_CHUNK, n_steps - k)
        v = u[: len(rows) * steps * d].reshape(len(rows), steps, d)
        for r, i in enumerate(rows.tolist()):
            gens[i].random(out=v[r])
        return _Conversion(v, buf), rows

    if pool is None:
        for k in range(0, n_steps, _NOISE_CHUNK):
            conv, rows = draw(k, out[0])
            _gaussians(conv.u, conv.g)  # no other thread takes slices
            yield conv.g, rows
        return
    conv, rows = draw(0, out[0])
    ahead = pool.submit(conv.run)
    for i, k in enumerate(range(0, n_steps, _NOISE_CHUNK)):
        conv.run()
        if not ahead.cancel():  # the worker has started: wait for its last slice
            ahead.result()
        xi, xi_rows = conv.g, rows
        if k + _NOISE_CHUNK < n_steps:
            conv, rows = draw(k + _NOISE_CHUNK, out[(i + 1) % 2])
            ahead = pool.submit(conv.run)
        yield xi, xi_rows


def _rows_at(rows: np.ndarray, ids: np.ndarray):
    """Where the batch indices ``ids`` sit in a chunk's sorted ``rows``, which
    hold them all: every row (a slice, so a view) when nothing else is there."""
    return slice(None) if len(rows) == len(ids) else np.searchsorted(rows, ids)


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


def _step_program(cs: CoefficientSet, cfg: SimulationConfig, accumulate: List[Expr]) -> Program:
    """The Euler step as one program of the state ``x1 .. xd`` and the noise
    ``x(d+1) .. x(2d)``.  Its values are the new state
    ``x_i + (G_i s) dt + sqrt(dt) sum_{j<=i} xi_j L_ij``, the new state's
    norm, the clip scale ``s = min(1, clip / (|G| dt))``, the accumulators,
    and the degeneracy margin.  The step is built from raw nodes, which fold
    nothing (``xi_j * 0.0`` keeps the sign of its zero), and every sum is in
    order.  Only exact folds are made: a constant drift's clip scale and drift
    term, and a unit entry of ``L`` (``xi_j * 1.0`` is ``xi_j`` bit for bit)."""
    d = cs.d
    dt, sqrt_dt = Const(float(cfg.dt)), Const(math.sqrt(cfg.dt))
    G, chol = cs.G, cs.cholesky
    drift_norm = Sqrt(reduce(Add, (Mul(g, g) for g in G)))
    scale = fold_const(Min(Const(1.0), Div(Const(float(cfg.clip)), Mul(drift_norm, dt))))
    xi = [Coord(d + j) for j in range(d)]
    new = []
    for i in range(d):
        L_i = chol[i * (i + 1) // 2 :][: i + 1]
        noise = reduce(Add, (e if l == Const(1.0) else Mul(e, l) for e, l in zip(xi, L_i)))
        new.append(Add(Add(Coord(i), fold_const(Mul(Mul(G[i], scale), dt))), Mul(sqrt_dt, noise)))
    norm = Sqrt(reduce(Add, (Mul(x, x) for x in new)))
    return Program((*new, norm, scale, *accumulate, chol[-1]))


@dataclass
class _Job:
    """An ensemble's step settings and the result arrays that both stepping
    loops fill, path by path."""

    cfg: SimulationConfig
    x0: np.ndarray
    step: Program  # see _step_program
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

    def save_from(self, k: int, rows, X, totals) -> None:
        """Store the states and totals of ``rows``, whose paths have all left,
        at every saved step from ``k`` on."""
        for step in self.save_pos:
            if step >= k:
                self.save(step, rows, X, totals)


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
        step=_step_program(cs, cfg, list(accumulate.values())),
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
    # the worker is shut down and joined however the loop ends; a run of
    # one-path batches submits nothing to it and so starts no thread
    with ThreadPoolExecutor(1) as pool, np.errstate(all="ignore"):
        for lo, hi in _batch_bounds(paths, n_steps, d):
            if hi - lo == 1:
                _step_path(job, lo, _noise(cfg.seed, lo, hi, n_steps, d, job.status[lo:hi]))
            else:
                _step_batch(job, lo, hi, _noise(cfg.seed, lo, hi, n_steps, d, job.status[lo:hi], pool))

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


def _step_batch(job: _Job, lo: int, hi: int, noise: Iterator[Tuple[np.ndarray, np.ndarray]]) -> None:
    """Step paths ``lo .. hi-1`` together, one numpy operation per step over
    the living paths, until the horizon or until every path has left."""
    cfg, d = job.cfg, len(job.x0)
    dt = cfg.dt
    n_acc = job.accs.shape[2]
    radii = np.array(cfg.radii, dtype=float)
    n_radii = len(radii)
    next_radius = np.append(radii, np.inf)  # a path past the last radius has none
    cols = np.arange(n_radii)
    fused = job.step.function(d)
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
            xi, rows = next(noise)  # rows: the paths alive when the chunk was drawn
            at = _rows_at(rows, ids)
        Xa = X[live]
        V = fused(*Xa.T, *xi[c][at].T)
        if not np.all(V[-1] > 0):
            raise _degenerate(Xa, V[-1])
        if k >= job.acc_start:
            inc = columns(V[d + 2 : -1], len(Xa)) * dt
            ok = np.isfinite(inc)
            if np.count_nonzero(ok) < ok.size:
                job.skipped[:] += len(ok) - ok.sum(axis=0)
                inc[~ok] = 0.0
            totals[live] += inc
        clipped = V[d + 1] < 1.0  # a constant drift's is one bool
        if np.any(clipped):
            job.clip_counts[lo + ids[np.broadcast_to(clipped, ids.shape)]] += 1
        Xn, rn = columns(V[:d], len(Xa)), V[d]
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
                at = _rows_at(rows, ids)
        job.save(k + 1, slice(lo, hi), X, totals)
        if not len(ids):
            job.save_from(k + 2, slice(lo, hi), X, totals)
            return


def _step_path(job: _Job, p: int, noise: Iterator[Tuple[np.ndarray, np.ndarray]]) -> None:
    """Step path ``p`` alone on Python floats, through the step program's
    float templates: the point and the noise rows (one chunk's ``.tolist()``)
    are floats, and the ladder is ``if``s.  No noise is drawn after the path
    leaves."""
    cfg, d = job.cfg, len(job.x0)
    dt = cfg.dt
    radii = cfg.radii
    n_radii = len(radii)
    fused = job.step.function(d, floats=True)
    n_acc = job.accs.shape[2]
    x = job.x0.tolist()
    totals = [0.0] * n_acc
    skipped = [0] * n_acc
    nxt, thr, clips, over = 0, radii[0], 0, 0.0
    job.save(0, p, x, totals)
    for k in range(cfg.n_steps):
        c = k % _NOISE_CHUNK
        if c == 0:
            chunk = next(noise)[0][:, 0].tolist()
        V = fused(*x, *chunk[c])
        if not V[-1] > 0:
            raise _degenerate([x], V[-1])
        if k >= job.acc_start:
            for j in range(n_acc):
                inc = V[d + 2 + j] * dt
                if math.isfinite(inc):
                    totals[j] += inc
                else:
                    skipped[j] += 1
        if V[d + 1] < 1.0:
            clips += 1
        xn, r = V[:d], V[d]
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
                job.save_from(k + 2, p, x, totals)
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
