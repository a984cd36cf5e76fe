"""Shared graph builders and CSR oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from commdet.fixtures import cliques, gnp_graph, ring_of_cliques
from commdet.graph import EdgeList, Graph, build_graph, edge_array


def two_triangles() -> Graph:
    return build_graph(cliques(3, 2))


def bridged_triangles() -> Graph:
    """Two triangles joined by a single bridge edge (2-3)."""
    edges = cliques(3, 2)
    return build_graph(EdgeList(edges.n, edges.entries.tolist() + [(2, 3, 1.0)]))


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
    return build_graph(EdgeList(n, edge_array(iu[keep], iv[keep], 1.0)))


def fixture_suite() -> list[tuple[str, Graph]]:
    """Small named graphs with varied structure, used by engine tests."""
    return [
        ("two_triangles", two_triangles()),
        ("bridged_triangles", bridged_triangles()),
        ("ring_of_cliques", build_graph(ring_of_cliques(5, 8))),
        ("gnp_64", gnp_graph(64, 0.1, seed=11)),
        ("sbm_160", sbm_graph(4, 40, 0.25, 0.02, seed=5)),
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
    return EdgeList(n=g.n, entries=edge_array(src[keep], g.targets[keep], g.weights[keep]))
