"""Louvain: greedy local moving, graph aggregation, and the pass loop.

Local moving comes in three flavors, all on one kernel.  Asynchronous
sweeps apply each accepted move immediately, so later vertices in the same
iteration see it (Gauss-Seidel style).  Synchronous sweeps decide every
move against the iteration-start state and apply the non-conflicting
local maxima together at the end (Jacobi style);
applied-together moves may realize less than the sum of their
decision-time gains, so modularity is always recomputed exactly between
passes.  With ``Config.threads`` T above one, worker w of an asynchronous
sweep moves ids w, w + T, w + 2T, ..., racing the others over one shared
label array and one shared community-mass array: reads are unsynchronized
(a reader may see a stale label or mass), and each accepted move applies
its label write and its two mass adjustments as one block under a mutex,
so races perturb the search trajectory but never the bookkeeping.  One
thread runs the same move block under a nullcontext, bit for bit.

The kernel is pure Python over flat numpy arrays: the graph's CSR arrays,
the int64 labels and the float64 community masses are read and written
through memoryviews, which give the builtin int and float a list would
hold, float bits included.  No sweep keeps a Python object per vertex, so
a pass holds little beyond the graph itself, and the caller's labels are
updated in place.  One function, _move_phase, runs a pass's local moving
for every engine: it checks the labels, picks the sweep, runs the
iteration loop and measures the community-mass drift.

After each pass the convergence tolerance is divided by a decline factor
(threshold scaling), trading precision in late passes for speed.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from .community import (
    Dendrogram,
    _check_labels,
    _gain_terms,
    _label_sums,
    _relabel,
    modularity,
    normalize_labels,
    scan_arcs,
    singleton_assignment,
)
from .graph import ARC_CHUNK, Graph, _coarsen

__all__ = [
    "Config",
    "PassStats",
    "Report",
    "SweepResult",
    "best_move",
    "local_moving",
    "aggregate_graph",
    "louvain",
    "sweep_tolerance",
    "sweep_threads",
]

# threshold scaling never drops the tolerance below this, avoiding denormals
TOLERANCE_FLOOR = 1e-16

MODES = ("async", "sync")

# GIL preemption slice used while worker threads are live; the default 5 ms
# slice would let a desk-scale share finish without ever yielding,
# hiding exactly the read/write contention the threaded sweep exists to study
WORKER_SWITCH_INTERVAL = 5e-6

# each requested thread is a live worker on a graph of as many vertices
MAX_THREADS = 64


@dataclass
class Config:
    """Run parameters.  threads > 1 runs the threaded async sweep, worker w
    moving ids w, w + threads, ...; each check is written so NaN fails it."""

    tolerance_initial: float = 0.01
    tolerance_decline_factor: float = 10.0
    pass_tolerance: float = 0.0
    max_passes: int = 20
    max_iterations_per_pass: int = 500
    mode: str = "async"
    threads: int = 1

    def __post_init__(self) -> None:
        if not self.tolerance_initial > 0:
            raise ValueError("tolerance must be > 0")
        if not self.tolerance_decline_factor >= 1:
            raise ValueError("tolerance_decline_factor must be >= 1")
        if not self.pass_tolerance >= 0:
            raise ValueError("pass_tolerance must be >= 0")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        # the counts feed range(), so integral floats become int
        for name in ("max_passes", "max_iterations_per_pass", "threads"):
            value = getattr(self, name)
            if not (value >= 1 and float(value).is_integer()):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            setattr(self, name, int(value))
        if self.threads > MAX_THREADS:
            raise ValueError(f"threads must be at most {MAX_THREADS}, got {self.threads}")
        if self.threads > 1 and self.mode != "async":
            raise ValueError("the threaded engine only supports async mode")


@dataclass
class PassStats:
    """Statistics for one pass (local moving + aggregation)."""

    index: int
    vertices: int
    iterations: int
    q_after: float
    local_ms: float
    agg_ms: float
    # per iteration, the moves whose target's mass changed between picking
    # them (after the scan) and their locked write; zero unless threads > 1
    conflicts: list[int]


@dataclass
class Report:
    """Whole-run statistics returned alongside the dendrogram."""

    passes: list[PassStats]
    final_q: float
    total_iterations: int
    wall_ms: float
    truncated: bool = False
    threads: int = 1
    max_sigma_drift: float = 0.0

    @property
    def n_passes(self) -> int:
        return len(self.passes)


def best_move(
    scan: dict[int, float],
    sigma_tot,
    k_u: float,
    from_c: int,
    m: float,
) -> tuple[int, float]:
    """Pick the neighbor community with the highest move gain.

    Returns (community, gain).  When no candidate improves modularity the
    vertex stays put and the result is (from_c, 0.0).  Exact gain ties are
    broken toward the lowest community id.  The gain is delta_modularity's
    expression, scaled by the same _gain_terms, in the same float order.
    """
    k_from = scan[from_c]
    s_from_wo = sigma_tot[from_c] - k_u
    a, b = _gain_terms(k_u, m)
    best_c = from_c
    best_dq = 0.0
    for c, k_c in scan.items():
        if c == from_c:
            continue
        dq = (k_c - k_from) / m - a * (sigma_tot[c] - s_from_wo) / b
        if dq > best_dq or (dq == best_dq and dq > 0.0 and c < best_c):
            best_dq = dq
            best_c = c
    return best_c, best_dq


def _sweep_range(
    ids: range,
    offs: Sequence[int],
    tgt: Sequence[int],
    wts: Sequence[float],
    degs: Sequence[float],
    labs: memoryview,
    sigma_tot: memoryview,
    m: float,
    lock=nullcontext(),
) -> tuple[float, int, int]:
    """Greedy move sweep over the vertices of ids, in its order.

    labs and sigma_tot are updated in place: each accepted move's label
    write and two sigma_tot adjustments run as one block under lock, the
    threaded engine's mutex, or by default one shared nullcontext, so one
    thread runs the same lines and, with no other writer, counts no conflict.
    Only a change to the target's mass after best_move returns is counted.
    Returns (summed gain, move count, conflict count).
    """
    gain = 0.0
    moves = 0
    conflicts = 0
    for u in ids:
        own = labs[u]
        k_u = degs[u]
        to_c, dq = best_move(scan_arcs(u, offs, tgt, wts, labs), sigma_tot, k_u, own, m)
        if to_c != own:
            s_seen = sigma_tot[to_c]
            with lock:
                if sigma_tot[to_c] != s_seen:
                    conflicts += 1
                sigma_tot[own] -= k_u
                sigma_tot[to_c] += k_u
                labs[u] = to_c
            gain += dq
            moves += 1
    return gain, moves, conflicts


def _threaded_sweep(pool: ThreadPoolExecutor, shares, lock, *state) -> tuple[float, int, int]:
    """One threaded iteration: worker w runs _sweep_range over the ids of
    shares[w], every move under lock; the workers' gains, moves and
    conflicts are summed in worker order.  The workers start together once
    the last share is submitted, so none sweeps alone while the pool is
    still starting the others."""
    go = threading.Event()

    def work(ids):
        go.wait()
        return _sweep_range(ids, *state, lock)

    try:
        futures = [pool.submit(work, ids) for ids in shares]
    finally:
        # a submit that raises must not leave the started workers waiting
        go.set()
    gains, moves, conflicts = zip(*(f.result() for f in futures))
    return sum(gains), sum(moves), sum(conflicts)


# the switch interval belongs to the whole process, so phases share it in turn
_phase_lock = threading.Lock()


@contextmanager
def _threaded_phase(shares):
    """Yield one threaded phase's sweep: _threaded_sweep over shares on a
    pool of one worker per share, with one move lock.  Phases take turns
    on _phase_lock; each sets the worker switch interval and restores the
    interval it found."""
    with _phase_lock:
        saved = sys.getswitchinterval()
        sys.setswitchinterval(WORKER_SWITCH_INTERVAL)
        try:
            with ThreadPoolExecutor(max_workers=len(shares)) as pool:
                yield partial(_threaded_sweep, pool, shares, threading.Lock())
        finally:
            sys.setswitchinterval(saved)


def _sync_iteration(
    offs: Sequence[int],
    tgt: Sequence[int],
    wts: Sequence[float],
    degs: Sequence[float],
    labs: memoryview,
    sigma_tot: memoryview,
    m: float,
) -> tuple[float, int, int]:
    """One Jacobi-style iteration: decide against the iteration-start
    state, apply together.

    Applying every positive decision simultaneously lets adjacent vertices
    swap communities forever (the claimed gains stay positive while the
    realized gain is zero), so only decisions that are local maxima go
    through: a vertex moves when no neighbor claims a strictly larger
    gain, with exact ties won by the lower vertex id.  Every decision is
    made before the first move is applied, and the filter reads only the
    decisions, so each is a pure function of the iteration-start state
    with no snapshot of it.  The decisions are arrays read through
    memoryviews, like the state itself.  Returns (gain, moves, 0).
    """
    n = len(labs)
    want = memoryview(np.full(n, -1, dtype=np.int64))
    dqs = memoryview(np.zeros(n))
    for u in range(n):
        own = labs[u]
        scan = scan_arcs(u, offs, tgt, wts, labs)
        to_c, dq = best_move(scan, sigma_tot, degs[u], own, m)
        if to_c != own:
            want[u] = to_c
            dqs[u] = dq

    gain = 0.0
    moves = 0
    for u in range(n):
        to_c = want[u]
        if to_c < 0:
            continue
        du = dqs[u]
        blocked = False
        # a vertex that wants no move has dqs 0.0 < du, and u itself fails
        # both tests, so neither needs skipping
        for k in range(offs[u], offs[u + 1]):
            v = tgt[k]
            dv = dqs[v]
            if dv > du or (dv == du and v < u):
                blocked = True
                break
        if blocked:
            continue
        # labs[u] is written only here, so it still holds u's start label
        k_u = degs[u]
        own = labs[u]
        sigma_tot[own] -= k_u
        sigma_tot[to_c] += k_u
        labs[u] = to_c
        gain += du
        moves += 1
    return gain, moves, 0


def _move_phase(
    g: Graph, labels: np.ndarray, tolerance: float, cfg: Config
) -> tuple[int, float, int, list[int], float]:
    """One pass's local moving: repeat the sweep cfg picks until an
    iteration gains <= tolerance or cfg.max_iterations_per_pass is hit.

    Sync sweeps with _sync_iteration, one async thread with the mutex-free
    _sweep_range over every id in order.  More threads T stride the ids:
    worker w of min(T, n) owns range(w, n, T), so only it moves those
    vertices; _threaded_phase holds their pool and switch interval for
    the phase, and a nullcontext yields the other sweeps.  A sweep(offs,
    tgt, wts, degs, labs, sigma_tot, m) returns (gain, moves, conflicts).
    Each argument but m is a memoryview, which gives the builtin int or
    float that tolist() would hold, float bits included: of the graph's
    arrays, which no sweep copies, and of the int64 labels and float64
    community masses, which it updates in place.
    The labels are labels itself if int64, strided or not, else their
    int64 conversion, written back at the end.  Raises ValueError before
    any sweep when labels is not of shape (n,), in [0, n) or writable.
    Returns (iterations, cumulative gain, accepted moves, conflicts per
    iteration, sigma drift), where the drift is the largest absolute
    difference between the incrementally maintained community masses and
    an exact recomputation from the final labels.
    """
    work = _check_labels(g, labels)
    if not np.asarray(labels).flags.writeable:
        raise ValueError("labels are read-only: local moving updates them in place")
    sigma_tot = _label_sums(work, g.degrees, g.n)
    state = [memoryview(a) for a in (g.offsets, g.targets, g.weights, g.degrees, work, sigma_tot)]
    if cfg.mode == "sync":
        phase = nullcontext(_sync_iteration)
    elif cfg.threads == 1:
        phase = nullcontext(partial(_sweep_range, range(g.n)))
    else:
        # a worker past the vertex count would own no id, so none is started
        phase = _threaded_phase([range(w, g.n, cfg.threads) for w in range(min(cfg.threads, g.n))])
    iterations, total_gain, total_moves, conflicts = 0, 0.0, 0, []
    with phase as sweep:
        while True:
            iterations += 1
            gain, moves, clashes = sweep(*state, g.total / 2.0)
            total_gain += gain
            total_moves += moves
            conflicts.append(clashes)
            if gain <= tolerance or iterations >= cfg.max_iterations_per_pass:
                break

    if work is not labels:
        labels[:] = work
    return iterations, total_gain, total_moves, conflicts, _mass_drift(work, g.degrees, sigma_tot)


def _mass_drift(labels: np.ndarray, degrees: np.ndarray, sigma_tot: np.ndarray) -> float:
    """The largest |recount - sigma_tot| over communities, recount being
    _label_sums(labels, degrees, n): each community's degrees summed in
    vertex order.  The recount is made for at most 16 ranges of
    communities in turn, each over slices of ARC_CHUNK vertices, so the
    check makes no n-length array; the sums keep their order and bits."""
    n = sigma_tot.size
    step = max(ARC_CHUNK, -(-n // 16))
    drifts = []
    for c0 in range(0, n, step):
        part = np.zeros(min(step, n - c0))
        for lo in range(0, labels.size, ARC_CHUNK):
            lab = labels[lo : lo + ARC_CHUNK]
            inside = (lab >= c0) & (lab < c0 + step)
            np.add.at(part, lab[inside] - c0, degrees[lo : lo + ARC_CHUNK][inside])
        part -= sigma_tot[c0 : c0 + step]
        drifts.append(np.max(np.abs(part, out=part)))
    return float(np.max(drifts))


def local_moving(
    g: Graph,
    labels: np.ndarray,
    tolerance: float,
    mode: str = Config.mode,
    max_iterations: int = Config.max_iterations_per_pass,
) -> tuple[int, float, int]:
    """Run the single-threaded local-moving phase until an iteration gains
    <= tolerance.

    labels is updated in place.  Returns (iterations, cumulative gain,
    accepted moves).  The gain is the sum of decision-time move gains; in
    async mode it matches the realized modularity increase, in sync mode
    it can overstate it.  Hitting max_iterations stops the loop without
    raising; labels not of shape (g.n,), outside [0, n) or read-only and
    a negative or NaN tolerance raise ValueError.
    """
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")
    cfg = Config(mode=mode, max_iterations_per_pass=max_iterations)
    return _move_phase(g, labels, tolerance, cfg)[:3]


def aggregate_graph(g: Graph, labels: np.ndarray) -> tuple[Graph, np.ndarray]:
    """Collapse each community into a super-vertex.

    Inter-community arc weights merge; intra-community weight (including
    existing self-loops) becomes the super-vertex's self-loop, so the
    coarse graph scores the same modularity under singletons as the fine
    graph does under the given labels.  Returns the coarse graph and the
    normalized labels used as the dendrogram level; labels not of shape
    (g.n,) raise ValueError.  The labels are normalized once, and
    graph._coarsen merges each block of whole communities once, in one
    pass, to the bits of one stable sort of all arcs by (community, target
    community) with each run summed in arc order.
    """
    if np.shape(labels) != (g.n,):
        raise ValueError(f"labels must have length {g.n}, got {np.shape(labels)}")
    mapping, n_comm = normalize_labels(labels)
    return _coarsen(g, mapping, n_comm), mapping


def louvain(g: Graph, cfg: Config | None = None) -> tuple[Dendrogram, Report]:
    """Full Louvain run: local moving, quality check, aggregation, repeat.

    Returns the dendrogram and its report.  Aggregation is sequential for
    every thread count.
    """
    cfg = cfg if cfg is not None else Config()
    t_start = time.perf_counter()
    levels: list[np.ndarray] = []
    per_q: list[float] = []
    pass_stats: list[PassStats] = []
    g_cur = g
    tol = cfg.tolerance_initial
    q_prev = modularity(g_cur, singleton_assignment(g_cur.n))
    truncated = False
    max_drift = 0.0

    for pass_idx in range(cfg.max_passes):
        labels = singleton_assignment(g_cur.n)
        t0 = time.perf_counter()
        iters, _gain, moves, conflicts, drift = _move_phase(g_cur, labels, tol, cfg)
        local_ms = (time.perf_counter() - t0) * 1000.0
        max_drift = max(max_drift, drift)
        if iters >= cfg.max_iterations_per_pass:
            truncated = True

        # the pass's labels become its dendrogram level
        n_comm = _relabel(labels)
        q_now = modularity(g_cur, labels)
        # a pass without moves leaves every vertex alone: n_comm == g_cur.n
        stop = (q_now - q_prev) <= cfg.pass_tolerance or n_comm >= g_cur.n
        agg_ms = 0.0
        if not stop:
            t1 = time.perf_counter()
            g_next = _coarsen(g_cur, labels, n_comm)
            agg_ms = (time.perf_counter() - t1) * 1000.0
        pass_stats.append(
            PassStats(
                index=pass_idx,
                vertices=g_cur.n,
                iterations=iters,
                q_after=q_now,
                local_ms=local_ms,
                agg_ms=agg_ms,
                conflicts=conflicts,
            )
        )
        # a last pass keeps its level when it moved anything without
        # losing quality (racy or synchronous passes can end below their
        # start; such a level would put a dip in per_level_q); a no-move
        # first pass keeps an identity level so the dendrogram is never empty
        if not stop or (moves > 0 and q_now >= q_prev) or not levels:
            levels.append(labels)
            per_q.append(q_now)
        if stop:
            break
        g_cur = g_next
        q_prev = q_now
        tol = max(tol / cfg.tolerance_decline_factor, TOLERANCE_FLOOR)
    else:
        truncated = True

    dend = Dendrogram(levels=levels, per_level_q=per_q)
    report = Report(
        passes=pass_stats,
        final_q=per_q[-1],
        total_iterations=sum(p.iterations for p in pass_stats),
        wall_ms=(time.perf_counter() - t_start) * 1000.0,
        truncated=truncated,
        threads=cfg.threads,
        max_sigma_drift=max_drift,
    )
    return dend, report


@dataclass
class SweepResult:
    """One grid cell of a parameter sweep: its parameters and its run's report."""

    params: dict
    report: Report


def _sweep(g: Graph, cells: list[tuple[dict, Config]]) -> list[SweepResult]:
    """One louvain(g, cfg) per (params, cfg) cell, in order.  The cells
    are a list, so every cell's Config is valid before the first run."""
    return [SweepResult(params, louvain(g, cfg)[1]) for params, cfg in cells]


def sweep_tolerance(
    g: Graph,
    initial_grid: list[float],
    decline_grid: list[float],
    cfg: Config | None = None,
) -> list[SweepResult]:
    """Run louvain over the cross product of initial tolerances and decline
    factors; one result row per cell, in grid order."""
    if not initial_grid or not decline_grid:
        raise ValueError("sweep grids must be non-empty")
    base = cfg if cfg is not None else Config()
    cells = [
        ({"tolerance": init, "decline_factor": dec},
         replace(base, tolerance_initial=init, tolerance_decline_factor=dec))
        for init in initial_grid
        for dec in decline_grid
    ]
    return _sweep(g, cells)


def sweep_threads(g: Graph, thread_list: list[int], cfg: Config | None = None) -> list[SweepResult]:
    """One louvain run per thread count, in list order."""
    if not thread_list:
        raise ValueError("thread list must be non-empty")
    base = cfg if cfg is not None else Config()
    cfgs = [replace(base, threads=t) for t in thread_list]
    return _sweep(g, [({"threads": c.threads}, c) for c in cfgs])
