"""Seeded O(m) graph generators for the benchmark inputs.

Both generators draw a fixed number of endpoint pairs and then drop
self-loops and repeated pairs, so memory and time grow with the edge
count, never with n².  The output is loop-free with one entry per
undirected pair, which keeps networkx usable as a modularity oracle
(networkx counts a self-loop twice in the degree; commdet counts it once).

Every generator returns a ``Planted`` record: the edge arrays exactly as
written to disk (weights are multiples of 1/1000, so the text form parses
back to the same doubles) and the planted block of every vertex.  Vertex
ids are shuffled, so a block is not a contiguous id range and the engines
cannot profit from an id order that real inputs do not have.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Planted:
    """A generated graph: undirected edges (u, v, w) with u > v, plus labels."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    labels: np.ndarray

    @property
    def edges(self) -> int:
        return int(self.u.size)


def _finish(rng: np.random.Generator, n: int, a: np.ndarray, b: np.ndarray,
            w: np.ndarray | None, blocks: np.ndarray) -> Planted:
    """Shuffle ids, drop loops and repeated pairs, order as (hi, lo)."""
    perm = rng.permutation(n)
    a, b = perm[a], perm[b]
    labels = np.empty(n, dtype=np.int64)
    labels[perm] = blocks
    keep = a != b
    hi = np.maximum(a[keep], b[keep])
    lo = np.minimum(a[keep], b[keep])
    # first draw of each pair wins, so weights stay tied to one draw
    _, first = np.unique(hi * n + lo, return_index=True)
    weights = np.ones(first.size) if w is None else w[keep][first]
    return Planted(n=n, u=hi[first], v=lo[first], w=weights, labels=labels)


def planted_partition(seed: int, n: int, blocks: int, deg_in: float,
                      deg_out: float) -> Planted:
    """Unweighted planted partition of ``blocks`` equal blocks.

    Each vertex draws on average ``deg_in`` endpoints inside its block and
    ``deg_out`` outside it (before de-duplication, which removes a few
    intra-block repeats).
    """
    if n % blocks:
        raise ValueError("n must be a multiple of blocks")
    rng = np.random.default_rng(seed)
    size = n // blocks
    block_of = np.arange(n, dtype=np.int64) // size
    m_in = int(round(n * deg_in / 2))
    m_out = int(round(n * deg_out / 2))
    a_in = rng.integers(0, n, m_in)
    b_in = block_of[a_in] * size + rng.integers(0, size, m_in)
    a_out = rng.integers(0, n, m_out)
    # shift by 1..blocks-1 whole blocks so the far end is never in a's block
    shift = rng.integers(1, blocks, m_out) * size + rng.integers(0, size, m_out)
    b_out = (a_out - a_out % size + shift) % n
    return _finish(rng, n, np.concatenate([a_in, a_out]),
                   np.concatenate([b_in, b_out]), None, block_of)


def hub_partition(seed: int, n: int, blocks: int, mixing: float, gamma: float,
                  min_degree: float, max_degree: float) -> Planted:
    """Degree-corrected planted partition with power-law expected degrees.

    Expected degrees follow a Pareto law with exponent ``gamma`` from
    ``min_degree``, clipped at ``max_degree``.  Each edge starts at a
    vertex drawn by expected degree; with probability ``mixing`` its other
    end is drawn by degree from the whole graph (rejected when it lands in
    the same block), otherwise from the start vertex's block.  Weights are
    uniform on [0.5, 2.0] in steps of 0.001.
    """
    rng = np.random.default_rng(seed)
    size = n // blocks
    block_of = np.minimum(np.arange(n, dtype=np.int64) // size, blocks - 1)
    theta = min_degree * (1.0 - rng.random(n)) ** (-1.0 / (gamma - 1.0))
    np.minimum(theta, max_degree, out=theta)
    cum = np.cumsum(theta)
    total = cum[-1]
    m = int(round(total / 2))

    def by_degree(lo_mass: np.ndarray, hi_mass: np.ndarray) -> np.ndarray:
        r = lo_mass + rng.random(lo_mass.size) * (hi_mass - lo_mass)
        return np.minimum(np.searchsorted(cum, r, side="right"), n - 1)

    a = by_degree(np.zeros(m), np.full(m, total))
    mixed = rng.random(m) < mixing
    starts = np.searchsorted(block_of, np.arange(blocks), side="left")
    block_lo = np.concatenate([[0.0], cum])[starts]
    block_hi = cum[np.append(starts[1:], n) - 1]
    ba = block_of[a]
    b = np.where(mixed, by_degree(np.zeros(m), np.full(m, total)),
                 by_degree(block_lo[ba], block_hi[ba]))
    keep = ~(mixed & (block_of[b] == ba))
    w = rng.integers(500, 2001, m) / 1000.0
    return _finish(rng, n, a[keep], b[keep], w[keep], block_of)


def write_edgelist(path: str, g: Planted) -> None:
    """The ``u v`` edge-list format, with a ``# n`` directive; unweighted."""
    body = "\n".join(map("{} {}".format, g.u.tolist(), g.v.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n {g.n}\n{body}\n")


def write_matrix_market(path: str, g: Planted) -> None:
    """Symmetric real MatrixMarket, 1-based, lower triangle (row > col)."""
    body = "\n".join(map("{} {} {:.3f}".format, (g.u + 1).tolist(),
                         (g.v + 1).tolist(), g.w.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{g.n} {g.n} {g.edges}\n{body}\n")


def planted_modularity(g: Planted, labels: np.ndarray) -> float:
    """Q of ``labels`` computed straight from the edge arrays.

    Uses the same arc convention as commdet on a loop-free graph: 2m is
    twice the edge weight and each edge counts twice inside a community.
    """
    labels = np.asarray(labels, dtype=np.int64)
    two_m = 2.0 * float(g.w.sum())
    same = labels[g.u] == labels[g.v]
    width = int(labels.max()) + 1
    inside = np.bincount(labels[g.u[same]], weights=2.0 * g.w[same], minlength=width)
    deg = np.bincount(g.u, weights=g.w, minlength=g.n) + np.bincount(
        g.v, weights=g.w, minlength=g.n)
    tot = np.bincount(labels, weights=deg, minlength=width)
    return float(np.sum(inside / two_m - (tot / two_m) ** 2))
