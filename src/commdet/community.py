"""Community assignments, modularity scoring, and the move-gain bookkeeping.

Labels are plain int64 numpy arrays of length n: ``labels[u]`` is the
community of vertex u.  Modularity follows the arc convention of the graph
module: with ``2m`` equal to ``graph.total``,

    Q = sum over communities c of  IN_c / 2m - (TOT_c / 2m)^2

where IN_c sums the stored arc weights with both endpoints in c (so a
symmetric pair counts twice and a self-loop once) and TOT_c sums the
weighted degrees of c's members.  Under this convention Q is 0 for the
all-in-one assignment and lies in [-0.5, 1.0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .formats import _quote
from .graph import ARC_CHUNK, Graph, _integers, _row_slices

__all__ = [
    "Aggregates",
    "Dendrogram",
    "singleton_assignment",
    "normalize_labels",
    "community_aggregates",
    "scan_arcs",
    "neighbor_community_weights",
    "modularity",
    "modularity_bruteforce",
    "delta_modularity",
    "flatten",
    "write_membership",
    "read_membership",
]


@dataclass
class Aggregates:
    """Per-community totals that make move gains O(1).

    Attributes:
        sigma_tot: sum of weighted degrees of member vertices.
        sigma_in: sum of arc weights internal to the community (symmetric
            pairs twice, self-loop arcs once).
        sizes: member counts.
    """

    sigma_tot: np.ndarray
    sigma_in: np.ndarray
    sizes: np.ndarray


@dataclass
class Dendrogram:
    """Per-pass membership hierarchy.

    ``levels[k]`` maps the vertices of level k to the super-vertices of
    level k + 1; level 0 has one entry per original vertex.  ``per_level_q``
    records modularity after each pass.
    """

    levels: list[np.ndarray] = field(default_factory=list)
    per_level_q: list[float] = field(default_factory=list)


def singleton_assignment(n: int) -> np.ndarray:
    """Every vertex alone in its own community: labels[u] = u."""
    if n < 1:
        raise ValueError("vertex count must be >= 1")
    return np.arange(n, dtype=np.int64)


def normalize_labels(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Remap labels onto [0, C) preserving first-occurrence order.

    Idempotent: already-normalized input comes back unchanged.  Labels
    in [0, n) are relabeled by _relabel on a copy; any others are first
    ranked by value with np.unique, which keeps their first-occurrence
    order.  Labels that are not integers raise ValueError.
    """
    labels = _integers(labels, "labels")
    if labels.size and (labels.min() < 0 or labels.max() >= labels.size):
        out = np.unique(labels, return_inverse=True)[1].reshape(-1).astype(np.int64, copy=False)
    else:
        out = labels.copy()
    return out, _relabel(out)


def _relabel(labels: np.ndarray) -> int:
    """normalize_labels in place, for a writable int64 array of labels in
    [0, labels.size); returns the community count.  louvain relabels each
    pass's labels with it, which then serve as the dendrogram level.

    Each label's first position is found by np.minimum.at over slices of
    ARC_CHUNK labels into a table indexed by label, which then holds each
    label's rank by first position and maps the labels a slice at a time.
    Beside labels, the work holds the table and arrays as long as the
    number of distinct labels; no sort of n labels is made.  The table is
    int64, as long as the community masses the move phase has just freed,
    so it can take their memory: an int32 table read about 10 B/vertex
    more in detect's peak RSS over stats' on a 20k-vertex graph.
    """
    n = labels.size
    table = np.full(n, n, dtype=np.int64)
    for lo in range(0, n, ARC_CHUNK):
        np.minimum.at(table, labels[lo : lo + ARC_CHUNK], np.arange(lo, min(lo + ARC_CHUNK, n)))
    present = np.flatnonzero(table < n)
    # the labels present, in order of first position, get ranks 0, 1, ...
    table[present[np.argsort(table[present], kind="stable")]] = np.arange(present.size)
    for lo in range(0, n, ARC_CHUNK):
        labels[lo : lo + ARC_CHUNK] = table[labels[lo : lo + ARC_CHUNK]]
    return int(present.size)


def _check_labels(g: Graph, labels: np.ndarray) -> np.ndarray:
    labels = _integers(labels, "labels")
    if labels.shape != (g.n,):
        raise ValueError(f"labels must have length {g.n}, got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= g.n):
        raise ValueError("labels must lie in [0, n)")
    return labels


def community_aggregates(
    g: Graph, labels: np.ndarray, n_communities: int | None = None
) -> Aggregates:
    """Compute sigma_tot / sigma_in / sizes for every community.

    Arrays are sized max(label) + 1 unless n_communities asks for more
    (extra slots stay zero; useful for probing moves into a fresh
    community).
    """
    labels = _check_labels(g, labels)
    sigma_tot, sigma_in = _masses(g, labels, n_communities)
    return Aggregates(
        sigma_tot=sigma_tot,
        sigma_in=sigma_in,
        sizes=np.bincount(labels, minlength=sigma_tot.size).astype(np.int64, copy=False),
    )


def _masses(
    g: Graph, labels: np.ndarray, n_communities: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """community_aggregates' sigma_tot and sigma_in, of checked labels."""
    width = int(labels.max()) + 1
    if n_communities is not None:
        if n_communities < width:
            raise ValueError("n_communities smaller than max label + 1")
        width = n_communities
    sigma_in = np.zeros(width, dtype=np.float64)
    for r0, r1, lo, hi in _row_slices(g.offsets):
        lab_src = np.repeat(labels[r0:r1], np.diff(g.offsets[r0 : r1 + 1]))
        internal = lab_src == labels[g.targets[lo:hi]]
        # np.add.at adds to each bin in arc order, slice after slice, as
        # one bincount over all arcs would
        np.add.at(sigma_in, lab_src[internal], g.weights[lo:hi][internal])
    return _label_sums(labels, g.degrees, width), sigma_in


def _label_sums(labels: np.ndarray, values: np.ndarray, width: int) -> np.ndarray:
    """np.bincount(labels, weights=values, minlength=width): each label's
    values summed in vertex order, by np.add.at over slices of ARC_CHUNK
    vertices, so no temporary as long as the result is made beside it
    (bincount's own doubles its peak)."""
    out = np.zeros(width, dtype=np.float64)
    for lo in range(0, labels.size, ARC_CHUNK):
        np.add.at(out, labels[lo : lo + ARC_CHUNK], values[lo : lo + ARC_CHUNK])
    return out


def scan_arcs(u: int, offs, tgt, wts, labs) -> dict:
    """Weights from vertex u into each adjacent community, from CSR rows.

    offs / tgt / wts are the graph's offsets, targets and weights and labs
    the labels, as lists or arrays.  Returns k_map: k_map[c] sums u's
    non-loop arc weights into community c and always contains u's own
    community (0.0 when u has no non-loop neighbor there).  Arcs are
    summed in CSR order, and k_map keys are ordered by first appearance
    after u's own community.
    """
    k_map = {labs[u]: 0.0}
    for k in range(offs[u], offs[u + 1]):
        v = tgt[k]
        if v == u:
            continue
        c = labs[v]
        if c in k_map:
            k_map[c] += wts[k]
        else:
            k_map[c] = wts[k]
    return k_map


def neighbor_community_weights(
    g: Graph, labels: np.ndarray, u: int
) -> tuple[dict[int, float], float]:
    """scan_arcs on a Graph and label array, with builtin int keys and
    float values, and u's self-loop weight (0.0 without one; rows are
    merged, so u has at most one loop arc)."""
    k_map = scan_arcs(u, g.offsets, g.targets, g.weights, labels)
    row = slice(g.offsets[u], g.offsets[u + 1])
    loop_w = float(g.weights[row][g.targets[row] == u].sum())
    return {int(c): float(w) for c, w in k_map.items()}, loop_w


def modularity(g: Graph, labels: np.ndarray) -> float:
    """Modularity of an assignment; lies in [-0.5, 1.0].

    The per-community terms are combined with math.fsum, which is correctly
    rounded, so the result is exactly invariant under community relabeling.
    """
    sigma_tot, terms = _masses(g, _check_labels(g, labels))
    if g.total <= 0:
        raise ValueError("modularity undefined for zero-total graph")
    # the terms sigma_in / total - frac * frac, computed in place over
    # the masses: frac is sigma_tot / total
    sigma_tot /= g.total
    terms /= g.total
    terms -= np.square(sigma_tot, out=sigma_tot)
    return math.fsum(terms)


def modularity_bruteforce(g: Graph, labels: np.ndarray) -> float:
    """Independent modularity oracle: plain loops, no shared bookkeeping.

    Recomputes the total weight and every community's internal and degree
    mass directly from the CSR arrays.  Intended for cross-checking at
    small scale, not for production use.
    """
    labels = _check_labels(g, labels)
    offs = g.offsets.tolist()
    tgt = g.targets.tolist()
    wts = g.weights.tolist()
    labs = labels.tolist()

    total = 0.0
    for w in wts:
        total += w
    if total <= 0:
        raise ValueError("modularity undefined for zero-total graph")

    q = 0.0
    for c in sorted(set(labs)):
        internal = 0.0
        degree_mass = 0.0
        for u in range(g.n):
            if labs[u] != c:
                continue
            for k in range(offs[u], offs[u + 1]):
                degree_mass += wts[k]
                if labs[tgt[k]] == c:
                    internal += wts[k]
        q += internal / total - (degree_mass / total) ** 2
    return q


def delta_modularity(
    g: Graph,
    agg: Aggregates,
    u: int,
    k_to: dict[int, float],
    from_c: int,
    to_c: int,
) -> float:
    """Exact modularity change of moving u from from_c to to_c.

    k_to maps each candidate community to the summed weight of u's
    non-loop arcs into it; zero entries may be omitted.  agg must reflect
    the assignment in which u currently sits in from_c.  Moving to an
    empty community is allowed when agg was sized to include it.
    """
    if agg.sizes[from_c] < 1:
        raise ValueError(f"community {from_c} is empty; u cannot be moving out of it")
    if to_c == from_c:
        return 0.0
    k_u = float(g.degrees[u])
    m = g.total / 2.0
    k_new = float(k_to.get(to_c, 0.0))
    k_from = float(k_to.get(from_c, 0.0))
    s_from_wo = float(agg.sigma_tot[from_c]) - k_u
    a, b = _gain_terms(k_u, m)
    return (k_new - k_from) / m - a * (float(agg.sigma_tot[to_c]) - s_from_wo) / b


def _gain_terms(k_u: float, m: float) -> tuple[float, float]:
    """(a, b) so that moving a vertex of degree k_u gains (k_c - k_from) / m
    - a * (sigma_c - s_from_wo) / b: (k_u, 2m^2) for 1e-150 < m < 1e150,
    else (k_u / 2m, m), whose factors stay near 1 at any weight scale; m
    is 0 only for one loop of the least denormal, with no move to score."""
    if m and not 1e-150 < m < 1e150:
        return k_u / (2.0 * m), m
    return k_u, 2.0 * m * m


def flatten(d: Dendrogram) -> np.ndarray:
    """Compose all dendrogram levels into one original-vertex assignment;
    raise ValueError for a label that is not an integer or is negative,
    or a level whose length is not one past the largest label of the
    level before it."""
    if not d.levels:
        raise ValueError("cannot flatten an empty dendrogram")
    for k, lev in enumerate(d.levels):
        lev = _integers(lev, f"level {k} labels")
        if lev.size and lev.min() < 0:
            raise ValueError(f"level {k} has a negative label")
        if k and lev.shape[0] != (width := int(acc.max()) + 1):
            raise ValueError(f"level {k} has {lev.shape[0]} entries, expected {width}")
        acc = lev[acc] if k else lev
    return acc


# ---------------------------------------------------------------------------
# Membership file format: one "vertex_id community_id" line per vertex
# ---------------------------------------------------------------------------

# lines formatted per write: each line is a few Python objects while its
# block is formatted, so a block costs about 100 bytes a line (the write's
# tracemalloc peak: 103 kB with blocks of 1024 lines, 36 kB with 256), and
# a small block keeps detect's last step under the load's peak RSS
MEMBERSHIP_BLOCK = 1 << 8


def write_membership(path: str, labels: np.ndarray) -> None:
    """One "u labels[u]" line per vertex, written MEMBERSHIP_BLOCK lines at
    a time, so the text of the whole file is never held at once; labels
    that are not integers raise ValueError."""
    labels = _integers(labels, "labels")
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, labels.size, MEMBERSHIP_BLOCK):
            block = labels[lo : lo + MEMBERSHIP_BLOCK].tolist()
            fh.write("".join(f"{u} {c}\n" for u, c in enumerate(block, start=lo)))


def read_membership(path: str) -> np.ndarray:
    """Parse a membership file; every vertex id must appear exactly once."""
    pairs: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            toks = stripped.split()
            if len(toks) != 2:
                raise ValueError(f"line {line_no}: expected 'vertex community'")
            try:
                u, c = int(toks[0]), int(toks[1])
            except ValueError as exc:
                raise ValueError(
                    f"line {line_no}: non-integer vertex or community: {_quote(stripped)}"
                ) from exc
            if u in pairs:
                raise ValueError(f"line {line_no}: duplicate vertex {u}")
            pairs[u] = c
    n = len(pairs)
    if n == 0:
        raise ValueError("empty membership file")
    if set(pairs) != set(range(n)):
        raise ValueError("membership file must cover vertex ids 0..n-1 exactly once")
    out = np.empty(n, dtype=np.int64)
    for u, c in pairs.items():
        out[u] = c
    return out
