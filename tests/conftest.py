"""Shared graph builders for the test suite."""

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
