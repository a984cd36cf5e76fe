"""Multi-threaded asynchronous local moving over shared membership state.

Worker threads sweep disjoint contiguous vertex chunks against one shared
label array and one shared per-community degree-mass array.  Reads are
deliberately unsynchronized (a reader may see a stale label or mass), and
each accepted move applies its label write and its two mass adjustments as
one indivisible block under a mutex, so concurrency can perturb the search
trajectory but never corrupt the bookkeeping: the aggregates and modularity
reported after convergence are recomputed exactly from the final labels.

Every thread count runs the sequential engine's kernel (the same
neighbour scan, move selection and iteration loop in louvain.py); the
threads only split each sweep into chunks.  With one thread the sweep is
the sequential asynchronous one, unsplit and unlocked, so the run matches
it bit for bit.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .graph import Graph
from .louvain import Config, Report, SweepResult, _move_loop, _run_passes, _sweep, _sweep_range
from .community import Dendrogram

__all__ = [
    "ParallelConfig",
    "parallel_local_moving",
    "parallel_louvain",
    "sweep_threads",
]

# GIL preemption slice used while worker threads are live; the default 5 ms
# slice would let a desk-scale chunk sweep finish without ever yielding,
# hiding exactly the read/write contention this engine exists to study
WORKER_SWITCH_INTERVAL = 5e-6


@dataclass
class ParallelConfig(Config):
    """Config plus thread count and static chunk size."""

    threads: int = 12
    chunk_size: int = 1024

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


# the switch interval belongs to the whole process, so the count of live
# threaded runs that share it does too
_switch_lock = threading.Lock()
_switch_users = 0
_saved_interval = 0.0


@contextmanager
def _worker_switch_interval():
    """Hold the worker switch interval while any threaded run is live.

    The first run in saves the process interval and the last run out
    restores it, so overlapping runs leave it as they found it.
    """
    global _switch_users, _saved_interval
    with _switch_lock:
        if _switch_users == 0:
            _saved_interval = sys.getswitchinterval()
            sys.setswitchinterval(WORKER_SWITCH_INTERVAL)
        _switch_users += 1
    try:
        yield
    finally:
        with _switch_lock:
            _switch_users -= 1
            if _switch_users == 0:
                sys.setswitchinterval(_saved_interval)


def parallel_local_moving(
    g: Graph,
    labels: np.ndarray,
    tolerance: float,
    cfg: ParallelConfig,
) -> tuple[int, float, int, list[int], float]:
    """Threaded local-moving phase; labels is updated in place.

    Vertex ids are split into contiguous chunks of cfg.chunk_size; worker
    w statically owns chunks w, w + threads, w + 2*threads, ...  Only the
    owning worker ever moves a vertex.  Per-worker gains are summed and
    the iteration loop repeats while that sum exceeds the tolerance.

    Returns (iterations, gain, moves, conflicts_per_iteration, sigma_drift)
    where sigma_drift is the largest absolute difference between the
    incrementally maintained community masses and an exact recomputation
    at loop exit.
    """
    cap = cfg.max_iterations_per_pass
    if cfg.threads == 1:
        # one unlocked sweep over everything: the sequential async engine
        result = _move_loop(g, labels, tolerance, cap, partial(_sweep_range, 0, g.n))
    else:
        bounds = [(lo, min(lo + cfg.chunk_size, g.n)) for lo in range(0, g.n, cfg.chunk_size)]
        lock = threading.Lock()

        def run_worker(wid: int, *state) -> tuple[float, int, int]:
            gain = 0.0
            moves = 0
            conflicts = 0
            for lo, hi in bounds[wid :: cfg.threads]:
                gn, mv, cf = _sweep_range(lo, hi, *state, lock)
                gain += gn
                moves += mv
                conflicts += cf
            return gain, moves, conflicts

        with _worker_switch_interval(), ThreadPoolExecutor(max_workers=cfg.threads) as pool:

            def sweep(*state) -> tuple[float, int, int]:
                futures = [pool.submit(run_worker, wid, *state) for wid in range(cfg.threads)]
                gains, moves, conflicts = zip(*(f.result() for f in futures))
                return sum(gains), sum(moves), sum(conflicts)

            result = _move_loop(g, labels, tolerance, cap, sweep)

    iterations, gain, moves, conflicts, sigma_tot = result
    fresh = np.bincount(labels, weights=g.degrees, minlength=g.n)
    drift = float(np.max(np.abs(fresh - np.asarray(sigma_tot, dtype=np.float64))))
    return iterations, gain, moves, conflicts, drift


def parallel_louvain(
    g: Graph, cfg: ParallelConfig | None = None
) -> tuple[Dendrogram, Report]:
    """Louvain with threaded local moving; aggregation stays sequential."""
    cfg = cfg if cfg is not None else ParallelConfig()
    if cfg.mode != "async":
        raise ValueError("the threaded engine only supports async mode")

    def phase(gc: Graph, labels: np.ndarray, tol: float):
        return parallel_local_moving(gc, labels, tol, cfg)

    dend, report = _run_passes(g, cfg, phase)
    report.threads = cfg.threads
    return dend, report


def sweep_threads(
    g: Graph, thread_list: list[int], cfg: ParallelConfig | None = None
) -> list[SweepResult]:
    """One parallel_louvain run per thread count, in list order."""
    if not thread_list:
        raise ValueError("thread list must be non-empty")
    base = cfg if cfg is not None else ParallelConfig()
    cells = (({"threads": int(t)}, replace(base, threads=int(t))) for t in thread_list)
    return _sweep(g, cells, parallel_louvain)
