"""Shared graph builders and CSR oracles for the test suite."""

from __future__ import annotations

import csv
import math
import threading
from functools import cache, partial
from types import SimpleNamespace

import numpy as np
import pytest

from commdet.community import normalize_labels, scan_arcs
from commdet.fixtures import cliques, gnp_graph, ring_of_cliques
from commdet.graph import ARC_CHUNK, EdgeList, Graph, build_graph
from commdet.louvain import Config, _sweep_range, _threaded_sweep, best_move


def two_triangles() -> Graph:
    return build_graph(cliques(3, 2))


def bridged_triangles(weight: float = 1.0) -> Graph:
    """Two triangles joined by a single bridge edge (2-3), every edge of
    the given weight."""
    edges = cliques(3, 2)
    return build_graph(EdgeList(edges.n, np.vstack([edges.entries, [(2, 3)]]),
                                np.append(edges.weights, 1.0) * weight))


def single_edge() -> Graph:
    return build_graph(EdgeList(2, [(0, 1, 1.0)]))


def sbm_graph(blocks: int, size: int, p_in: float, p_out: float, seed: int) -> Graph:
    """Planted-partition graph: dense blocks, sparse everywhere else."""
    rng = np.random.default_rng(seed)
    n = blocks * size
    iu, iv = np.triu_indices(n, k=1)
    same = (iu // size) == (iv // size)
    draw = rng.random(iu.size)
    keep = np.where(same, draw < p_in, draw < p_out)
    return build_graph(EdgeList(n, np.column_stack([iu[keep], iv[keep]]), np.ones(keep.sum())))


def fixture_suite() -> list[tuple[str, Graph]]:
    """Small named graphs with varied structure, used by engine tests."""
    return [
        ("two_triangles", two_triangles()),
        ("bridged_triangles", bridged_triangles()),
        ("ring_of_cliques", build_graph(ring_of_cliques(5, 8))),
        ("gnp_64", gnp_graph(64, 0.1, seed=11)),
        ("sbm_160", sbm_graph(4, 40, 0.25, 0.02, seed=5)),
    ]


def weighted_chunk_graph(seed: int = 9) -> Graph:
    """3000 vertices, the top 40 isolated, ~90k arcs with random weights,
    some self-loops and repeated pairs: several ARC_CHUNKs of arcs whose
    sums depend on the order they are added in."""
    rng = np.random.default_rng(seed)
    us, vs = rng.integers(2960, size=45_000), rng.integers(2960, size=45_000)
    g = build_graph(EdgeList(3000, np.column_stack([us, vs]), rng.uniform(0.1, 10.0, 45_000)))
    assert g.n_arcs > 4 * ARC_CHUNK and g.n_arcs % ARC_CHUNK
    return g


def hub_graph() -> Graph:
    """A weighted star whose centre alone has more arcs than ARC_CHUNK,
    plus a ring over the leaves and a self-loop on every vertex."""
    rng = np.random.default_rng(12)
    leaves = np.arange(1, ARC_CHUNK + 3000)
    ring = np.roll(leaves, 1)
    us = np.concatenate([np.zeros(leaves.size, dtype=np.int64), leaves])
    vs = np.concatenate([leaves, ring])
    g = build_graph(
        EdgeList(leaves.size + 1, np.column_stack([us, vs]), rng.uniform(0.5, 2.0, us.size)),
        add_self_loops=True,
        default_weight=0.3,
    )
    assert g.offsets[1] - g.offsets[0] > ARC_CHUNK
    return g


def oracle_graphs() -> list[tuple[str, Graph]]:
    """The fixture suite plus the multi-chunk and the hub graph."""
    return fixture_suite() + [("weighted_chunks", weighted_chunk_graph()), ("hub", hub_graph())]


def oracle_labelings(g: Graph) -> list[tuple[str, np.ndarray]]:
    """Singletons; runs of 37 consecutive ids, whose rows straddle slice
    boundaries; four and one community, each past ARC_CHUNK arcs on the
    larger graphs; and n / 50 communities scattered over every slice."""
    rng = np.random.default_rng(g.n)
    return [
        ("singletons", np.arange(g.n)),
        ("runs_of_37", np.arange(g.n) // 37),
        ("four", rng.integers(4, size=g.n)),
        ("one", np.zeros(g.n, dtype=np.int64)),
        ("scattered", rng.integers(max(1, g.n // 50), size=g.n)),
    ]


@pytest.fixture
def triangles() -> Graph:
    return two_triangles()


# ---------------------------------------------------------------------------
# CSR oracles
# ---------------------------------------------------------------------------


def arc_sources(g: Graph) -> np.ndarray:
    """Per-arc source vertex ids (row index of each CSR entry)."""
    return np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.offsets))


def neighbors(g: Graph, u: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (targets, weights) slices for vertex u."""
    lo, hi = g.offsets[u], g.offsets[u + 1]
    return g.targets[lo:hi], g.weights[lo:hi]


def validate_graph(g: Graph) -> None:
    """Check the CSR invariants; raises AssertionError on violation.

    Verifies monotone offsets, per-row target ordering, arc symmetry
    (every (u, v, w) has a matching (v, u, w)), positive finite weights,
    and degree/total consistency.
    """
    assert g.offsets.shape == (g.n + 1,)
    assert g.offsets[0] == 0 and g.offsets[-1] == g.n_arcs
    assert np.all(np.diff(g.offsets) >= 0), "offsets must be non-decreasing"
    assert g.targets.shape == g.weights.shape
    assert np.all(np.isfinite(g.weights)) and np.all(g.weights > 0)

    src = arc_sources(g)
    for u in range(g.n):
        row = g.targets[g.offsets[u] : g.offsets[u + 1]]
        assert np.all(np.diff(row) > 0), f"row {u} not strictly sorted"

    fwd = np.lexsort((g.targets, src))
    rev = np.lexsort((src, g.targets))
    assert np.array_equal(src[fwd], g.targets[rev])
    assert np.array_equal(g.targets[fwd], src[rev])
    assert np.array_equal(g.weights[fwd], g.weights[rev]), "asymmetric arc weights"

    expect = np.bincount(src, weights=g.weights, minlength=g.n)
    assert np.allclose(g.degrees, expect, rtol=0, atol=0)
    assert g.total == float(np.sum(g.degrees))
    assert g.total > 0


def graph_to_edgelist(g: Graph) -> EdgeList:
    """Collapse a Graph back to one entry per undirected edge (u <= v)."""
    src = arc_sources(g)
    keep = src <= g.targets
    return EdgeList(g.n, np.column_stack([src[keep], g.targets[keep]]), g.weights[keep])


# ---------------------------------------------------------------------------
# Bit-exact oracles: each pass that the package runs in slices or blocks,
# done here over whole arc arrays at once
# ---------------------------------------------------------------------------

ASYMMETRIC = "arc list is not symmetric; pass symmetrize=True or provide both directions"


def bincount_degrees(g: Graph) -> np.ndarray:
    """Weighted degrees from one bincount over every arc."""
    return np.bincount(arc_sources(g), weights=g.weights, minlength=g.n)


def bincount_sigma_in(g: Graph, labels: np.ndarray) -> np.ndarray:
    """Per-community internal arc weight from one bincount over every arc."""
    lab_src = labels[arc_sources(g)]
    internal = lab_src == labels[g.targets]
    width = int(labels.max()) + 1
    return np.bincount(lab_src[internal], weights=g.weights[internal], minlength=width)


def lexsort_symmetric(us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> bool:
    """Whether the arcs sorted by (v, u) are the arcs sorted by (u, v)
    reversed, with weights equal to rtol 1e-12; us must be in CSR order."""
    rev = np.lexsort((us, vs))
    return (
        np.array_equal(us, vs[rev])
        and np.array_equal(vs, us[rev])
        and np.allclose(ws, ws[rev], rtol=1e-12, atol=0.0)
    )


def widest_within_rtol(a: np.ndarray) -> np.ndarray:
    """For each weight a, the largest float b with |a - b| <= 1e-12 *
    min(a, b): the reverse weight farthest above a that the build's
    symmetry check accepts."""
    a = np.asarray(a, dtype=np.float64)

    def accepted(b):
        return np.abs(a - b) <= 1e-12 * np.minimum(a, b)

    b = a * (1 + 1e-12)
    while not accepted(b).all():
        b = np.where(accepted(b), b, np.nextafter(b, 0.0))
    while (step := accepted(up := np.nextafter(b, np.inf))).any():
        b = np.where(step, up, b)
    return b


def dict_normalize_labels(labels) -> tuple[np.ndarray, int]:
    """normalize_labels as a dict loop: each label, on first sight, takes
    the next id."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.empty_like(labels)
    seen: dict[int, int] = {}
    for i, lab in enumerate(labels.tolist()):
        out[i] = seen.setdefault(lab, len(seen))
    return out, len(seen)


def unique_normalize_labels(labels) -> tuple[np.ndarray, int]:
    """normalize_labels through np.unique: each distinct label's rank in
    the order of its first occurrence, looked up through the inverse."""
    labels = np.asarray(labels, dtype=np.int64)
    uniq, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(uniq.size)
    return rank[inverse], int(uniq.size)


def reduceat_merge(n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> tuple:
    """Row lengths, targets and weights of arcs merged by one stable sort by
    (source, target) and one reduceat over every run of equal pairs."""
    order = np.lexsort((vs, us))
    us, vs, ws = us[order], vs[order], ws[order]
    new_run = np.ones(us.size, dtype=bool)
    new_run[1:] = (us[1:] != us[:-1]) | (vs[1:] != vs[:-1])
    starts = np.flatnonzero(new_run)
    with np.errstate(over="ignore"):
        ws = np.add.reduceat(ws, starts)
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(us, minlength=n), out=bounds[1:])
    return np.diff(np.searchsorted(starts, bounds)), vs[starts], ws


def lexsort_aggregate(g: Graph, labels: np.ndarray) -> tuple[Graph, np.ndarray]:
    """aggregate_graph as one stable sort of every arc by (community,
    target community), each run summed with reduceat, then the same checks
    and error messages as the package's graph build.  The coarse targets
    are int32 when there are at most 2**31 - 1 communities."""
    mapping, n_comm = normalize_labels(labels)
    us, vs = mapping[arc_sources(g)], mapping[g.targets]
    order = np.lexsort((vs, us))
    us, vs, ws = us[order], vs[order], g.weights[order]
    new_run = np.ones(us.size, dtype=bool)
    new_run[1:] = (us[1:] != us[:-1]) | (vs[1:] != vs[:-1])
    starts = np.flatnonzero(new_run)
    with np.errstate(over="ignore"):
        ws = np.add.reduceat(ws, starts)
    us, vs = us[starts], vs[starts]
    if not np.isfinite(ws.max()):
        raise ValueError("merged arc weight is not finite (float64 overflow)")
    if not lexsort_symmetric(us, vs, ws):
        raise ValueError(ASYMMETRIC)
    degrees = np.bincount(us, weights=ws, minlength=n_comm)
    with np.errstate(over="ignore"):
        total = float(np.sum(degrees))
    if not math.isfinite(total):
        raise ValueError("total arc weight is not finite (float64 overflow)")
    offsets = np.zeros(n_comm + 1, dtype=np.int64)
    np.cumsum(np.bincount(us, minlength=n_comm), out=offsets[1:])
    vs = vs.astype(np.int32 if n_comm <= np.iinfo(np.int32).max else np.int64)
    return Graph(n_comm, offsets, vs, ws, degrees, total), mapping


def lexsort_build(edges: EdgeList, symmetrize: bool = True, add_self_loops: bool = False,
                  default_weight: float = 1.0) -> Graph:
    """build_graph as one stable lexsort of arc-length source, target and
    weight columns in arc order, each run summed with one reduceat, and a
    symmetry check on one lexsort by (target, source), with the same
    checks and messages in the same order.  With symmetrize off, each arc
    whose source is above its target then takes its reverse's weight.
    The targets are int32 when n is at most 2**31 - 1, int64 above that."""
    n, pairs, ws = edges.n, edges.entries, edges.weights
    if n < 1:
        raise ValueError("empty graph: vertex count must be >= 1")
    if add_self_loops and not (math.isfinite(default_weight) and default_weight > 0):
        raise ValueError(f"self-loop weight must be positive and finite, got {default_weight!r}")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError("edge endpoint outside declared vertex range")
    if ws.size and not np.all(np.isfinite(ws)):
        raise ValueError("non-finite edge weight")
    if ws.size and not np.all(ws > 0):
        raise ValueError("non-positive edge weight")
    us, vs = pairs[:, 0], pairs[:, 1]
    off = us != vs if symmetrize else np.zeros(us.size, dtype=bool)
    missing = np.empty(0, dtype=np.int64)
    if add_self_loops:
        has_loop = np.zeros(n, dtype=bool)
        has_loop[us[us == vs]] = True
        missing = np.flatnonzero(~has_loop)
    ids = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    src = np.concatenate([us, vs[off], missing]).astype(ids)
    tgt = np.concatenate([vs, us[off], missing]).astype(ids)
    w = np.concatenate([ws, ws[off], np.full(missing.size, float(default_weight))])
    counts, tgt, w = reduceat_merge(n, src, tgt, w)
    if w.size and not np.isfinite(w.max()):
        raise ValueError("merged arc weight is not finite (float64 overflow)")
    src = np.repeat(np.arange(n), counts)
    if not lexsort_symmetric(src, tgt, w):
        raise ValueError(ASYMMETRIC)
    if not symmetrize:
        above = src > tgt
        w[above] = w[np.lexsort((src, tgt))][above]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    degrees = np.bincount(src, weights=w, minlength=n)
    with np.errstate(over="ignore"):
        total = float(np.sum(degrees))
    if total <= 0.0:
        raise ValueError("graph has no arcs; add edges or enable self-loop insertion")
    if not math.isfinite(total):
        raise ValueError("total arc weight is not finite (float64 overflow)")
    return Graph(n, offsets, tgt, w, degrees, total)


def graph_bytes(g: Graph) -> tuple:
    """Everything a Graph holds, as bytes, dtypes included."""
    arrays = (g.offsets, g.targets, g.weights, g.degrees)
    return (g.n, repr(g.total)) + tuple((a.dtype.str, a.tobytes()) for a in arrays)


# ---------------------------------------------------------------------------
# Local-moving oracle: the engines with their labels, community masses,
# snapshots and decisions held in lists, one Python object per vertex
# ---------------------------------------------------------------------------


class InlinePool:
    """A ThreadPoolExecutor stand-in that runs each task in the calling
    thread when its result is first asked for, so a threaded sweep, which
    reads the results in submit order after its last submit, is
    deterministic and starts no thread."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        return SimpleNamespace(result=cache(partial(fn, *args)))


def list_sync_iteration(offs, tgt, wts, degs, labs, sigma_tot, m):
    """The Jacobi iteration on list snapshots and list decisions."""
    snap_labs = list(labs)
    snap_sigma = list(sigma_tot)
    n = len(labs)
    want = [-1] * n
    dqs = [0.0] * n
    for u in range(n):
        own = snap_labs[u]
        scan = scan_arcs(u, offs, tgt, wts, snap_labs)
        to_c, dq = best_move(scan, snap_sigma, degs[u], own, m)
        if dq > 0.0 and to_c != own:
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
        for k in range(offs[u], offs[u + 1]):
            v = tgt[k]
            if v == u or want[v] < 0:
                continue
            dv = dqs[v]
            if dv > du or (dv == du and v < u):
                blocked = True
                break
        if blocked:
            continue
        k_u = degs[u]
        own = snap_labs[u]
        sigma_tot[own] -= k_u
        sigma_tot[to_c] += k_u
        labs[u] = to_c
        gain += du
        moves += 1
    return gain, moves, 0


def list_move_loop(g: Graph, labels: np.ndarray, tolerance: float, max_iterations: int,
                   sweep) -> tuple:
    """The iteration loop on tolist() copies of the graph, the labels and
    the community masses; labels is written back at the end."""
    if labels.size and (labels.min() < 0 or labels.max() >= g.n):
        raise ValueError("labels must lie in [0, n)")
    graph = tuple(a.tolist() for a in (g.offsets, g.targets, g.weights, g.degrees))
    labs = labels.tolist()
    sigma_tot = np.bincount(labels, weights=g.degrees, minlength=g.n).tolist()
    iterations, total_gain, total_moves, conflicts = 0, 0.0, 0, []
    while True:
        iterations += 1
        gain, moves, clashes = sweep(*graph, labs, sigma_tot, g.total / 2.0)
        total_gain += gain
        total_moves += moves
        conflicts.append(clashes)
        if gain <= tolerance or iterations >= max_iterations:
            break
    labels[:] = labs
    fresh = np.bincount(labels, weights=g.degrees, minlength=g.n)
    drift = float(np.max(np.abs(fresh - np.asarray(sigma_tot, dtype=np.float64))))
    return iterations, total_gain, total_moves, conflicts, drift


def list_move_phase(g: Graph, labels: np.ndarray, tolerance: float, cfg: Config) -> tuple:
    """_move_phase on list_move_loop.  More than one thread runs the
    package's threaded sweep over the same strided shares on an InlinePool."""
    if cfg.mode == "sync":
        sweep = list_sync_iteration
    elif cfg.threads == 1:
        sweep = partial(_sweep_range, range(g.n))
    else:
        shares = [range(w, g.n, cfg.threads) for w in range(min(cfg.threads, g.n))]
        sweep = partial(_threaded_sweep, InlinePool(), shares, threading.Lock())
    return list_move_loop(g, labels, tolerance, cfg.max_iterations_per_pass, sweep)


def read_sweep_csv(path: str) -> list[dict]:
    """The rows of a sweep CSV, the counts as int and the rest as float."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            {k: int(v) if k in ("passes", "total_iterations", "threads") else float(v)
             for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]
