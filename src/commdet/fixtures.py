"""Deterministic synthetic graphs at desk scale.

Real benchmark inputs run to hundreds of millions of edges; these
generators provide small instances with known community structure
(disjoint or ring-connected cliques) and seeded random graphs for
property tests.
"""

from __future__ import annotations

import numpy as np

from .graph import EdgeList, Graph, _check_fits, build_graph

__all__ = ["cliques", "ring_of_cliques", "random_gnp", "gnp_graph"]


def cliques(k: int, count: int, bridges: int = 0) -> EdgeList:
    """`count` disjoint k-cliques, optionally chained by bridge edges.

    With bridges = b > 0, vertex j of clique i is joined to vertex j of
    clique i + 1 for j < b, forming a chain.
    """
    if k < 2:
        raise ValueError("clique size must be >= 2")
    if count < 1:
        raise ValueError("clique count must be >= 1")
    if not 0 <= bridges <= k:
        raise ValueError("bridges must lie in [0, k]")
    # triu_indices takes k * k bytes, and each edge about 64 at the peak (tracemalloc)
    _check_fits(count * k, k * k + 64 * (count * (k * (k - 1) // 2) + bridges * (count - 1)))
    a, b = np.triu_indices(k, k=1)
    base = np.repeat(np.arange(count) * k, a.size)
    i = np.repeat(np.arange(count - 1), bridges)
    j = np.tile(np.arange(bridges), count - 1)
    us = np.concatenate([base + np.tile(a, count), i * k + j])
    vs = np.concatenate([base + np.tile(b, count), (i + 1) * k + j])
    return EdgeList(count * k, np.column_stack([us, vs]), np.ones(us.size))


def ring_of_cliques(k: int, count: int) -> EdgeList:
    """`count` k-cliques joined in a ring by single edges."""
    edges = cliques(k, count)
    if count < 2:
        return edges
    i = np.arange(count)
    ring = np.column_stack([i * k + (k - 1), (i + 1) % count * k])
    pairs = np.concatenate([edges.entries, ring])
    return EdgeList(edges.n, pairs, np.ones(len(pairs)))


def random_gnp(
    n: int,
    p: float,
    seed: int = 42,
    weight_choices: list[float] | None = None,
) -> EdgeList:
    """Erdos-Renyi G(n, p), unit weights unless weight_choices is given."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    # triu_indices takes n * n bytes and 16 per candidate pair, the draw and
    # its mask 9 more, and each edge about 32 at the peak (tracemalloc)
    _check_fits(n, n * n + int((25 + 32 * p) * (n * (n - 1) // 2)))
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    us, vs = iu[mask], iv[mask]
    if weight_choices is not None:
        ws = rng.choice(np.asarray(weight_choices, dtype=np.float64), size=us.size)
    else:
        ws = np.ones(us.size)
    return EdgeList(n, np.column_stack([us, vs]), ws)


def gnp_graph(
    n: int,
    p: float,
    seed: int = 42,
    weight_choices: list[float] | None = None,
    add_self_loops: bool = False,
) -> Graph:
    """Seeded random graph, built and preprocessed in one call.

    Falls back to a higher edge probability if the draw came out edgeless,
    so callers always get a usable graph.
    """
    edges = random_gnp(n, p, seed, weight_choices)
    if edges.entries.size == 0 and not add_self_loops:
        edges = random_gnp(n, min(1.0, max(p, 0.5)), seed, weight_choices)
    return build_graph(edges, symmetrize=True, add_self_loops=add_self_loops)
