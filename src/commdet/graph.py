"""Undirected weighted graphs in CSR form, plus loaders for the two text formats.

A graph is stored as flat arc arrays: every undirected edge {u, v} with u != v
appears as the two arcs (u, v, w) and (v, u, w); a self-loop is stored as a
single arc (u, u, w) whose weight counts once in the vertex degree.  All
community and modularity code in this package assumes exactly this convention.

Vertex ids are int32 whenever the vertex count is at most 2**31 - 1 and
int64 above that, from the parsed id pairs to Graph.targets, so a load
never makes a widened copy of an arc-length id column.  build_graph puts
the arcs into rows with a stable counting sort that scatters a few
thousand arcs at a time, so a load holds the parsed edges, the weight and
target columns and slice-sized temporaries, but no arc-length source
column or sort permutation.  When every arc weighs the same, as in an
unweighted edge list or a pattern MatrixMarket file, the load makes no
weight column at all: Graph.weights is then a read-only zero-stride view
of that one value, unless a repeated pair has to be merged.  One merge
step, _merge_rows, sorts and merges the rows of the build and of each
aggregation block in one pass per slice, over the front of the columns:
the build cuts its own columns to length, and aggregation appends each
block's merged front to its coarse buffers, so an aggregated graph
always has a full weight column.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass, field
from typing import IO, TextIO

import numpy as np

__all__ = [
    "EdgeList",
    "Graph",
    "GraphStats",
    "GraphParseError",
    "parse_matrix_market",
    "parse_edgelist",
    "build_graph",
    "graph_stats",
    "save_edgelist",
    "load_graph_file",
]


class GraphParseError(ValueError):
    """Raised when an input graph file cannot be parsed."""


# arcs per slice of every arc-length pass that runs in slices to bound its
# temporaries, about 50 bytes per arc of a slice (tracemalloc): the build's
# counting sort, the symmetry check, the row merges, the degree pass and
# modularity.  No merge run crosses a row and every sum adds in arc order,
# so the slice size changes no result, only the peak and the call count.
ARC_CHUNK = 1 << 12

# the peak RSS per declared vertex, and per entry or inserted loop, that
# _build assumes a run takes: detect read 119 B/vertex on a 300k-vertex
# edge list of one edge, and 37 B/entry on a weighted 539k-entry input
RUN_BYTES_PER_VERTEX = 128
RUN_BYTES_PER_ENTRY = 48

_INT32_MAX = int(np.iinfo(np.int32).max)


def _id_dtype(n: int) -> type:
    """The dtype of ids in [0, n): int32 when n <= 2**31 - 1, else int64."""
    return np.int32 if n <= _INT32_MAX else np.int64


@dataclass
class EdgeList:
    """Raw edges as read from disk, before symmetrization or loop insertion.

    Attributes:
        n: declared vertex count; every id in entries lies in [0, n).
        entries: int32 or int64 array of shape (e, 2), one (u, v) pair of
            0-based vertex ids per edge.
        weights: float64 array of shape (e,), the weight of each edge.

    Arrays of these dtypes are kept without a copy; entries of any other
    dtype become int64.  Given entries alone, ``EdgeList(n, [(u, v, w),
    ...])`` splits the tuples into an int64 and a float64 array;
    ``EdgeList(n)`` has no edges.

    Raises:
        ValueError: if entries is not of shape (e, 2) or weights not of
            length e.
    """

    n: int
    entries: np.ndarray = field(default_factory=list)
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.weights is None:
            rows = [(u, v, w) for u, v, w in self.entries]
            self.entries = np.array([r[:2] for r in rows], dtype=np.int64).reshape(-1, 2)
            self.weights = [r[2] for r in rows]
        if not (isinstance(self.entries, np.ndarray)
                and self.entries.dtype in (np.int32, np.int64)):
            self.entries = np.asarray(self.entries, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.entries.ndim != 2 or self.entries.shape[1] != 2:
            raise ValueError(f"entries must have shape (e, 2), got {self.entries.shape}")
        e = len(self.entries)
        if self.weights.shape != (e,):
            raise ValueError(f"weights must have shape ({e},), got {self.weights.shape}")


@dataclass(frozen=True)
class Graph:
    """Immutable undirected weighted graph in compressed sparse row form.

    Attributes:
        n: vertex count.
        offsets: int64 array of length n + 1, row start positions.
        targets: arc endpoints, sorted within each row; int32 when n is
            at most 2**31 - 1, int64 above that.
        weights: float64 array of arc weights, all positive and finite.
            When every arc weighs the same it may be a read-only
            zero-stride view of that one value (strides == (0,)), which
            reads, slices and indexes like a full column.
        degrees: float64 array, degrees[u] = sum of weights of arcs out of u
            (a self-loop arc counts once).
        total: sum of all degrees; equals twice the undirected edge weight
            when self-loops are absent.
    """

    n: int
    offsets: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray
    total: float

    @property
    def n_arcs(self) -> int:
        return int(self.targets.shape[0])


@dataclass(frozen=True)
class GraphStats:
    """Vertex count, arc count, and average degree of a preprocessed graph."""

    vertices: int
    undirected_edges: int
    avg_degree: float


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_MM_FIELDS = ("pattern", "real", "integer")
_MM_SYMMETRIES = ("general", "symmetric")
# the largest vertex count whose n + 1 CSR offsets fit an int64
_MAX_VERTICES = int(np.iinfo(np.int64).max) - 1


def parse_matrix_market(stream: TextIO | IO[str]) -> EdgeList:
    """Parse a MatrixMarket coordinate file into an EdgeList.

    Accepts pattern/real/integer fields and general/symmetric storage.
    One loop reads the stream: its first non-blank line is the header,
    the first later line that is neither blank nor a % comment the size
    line, and each such line after it an entry.  Indices are converted
    from 1-based to 0-based and held as int32 when the size line declares
    at most 2**31 - 1 rows, as int64 otherwise; pattern entries get
    weight 1.  For symmetric files only the stored triangle is returned;
    mirroring the arcs is build_graph's job.

    Raises:
        GraphParseError: on a malformed header or size line, an entry
            with fields missing or extra, an index out of the declared
            range, a non-finite weight, or an entry count that does not
            match the size line.  Messages name the offending line, or
            the line after the last one for a file that ends early.
    """
    head = ids = None
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if head is None and line:
            head = line.split()
            if len(head) < 4 or head[0] != "%%MatrixMarket" or head[1].lower() != "matrix":
                raise GraphParseError(f"line {line_no}: malformed MatrixMarket header: {line!r}")
            fmt, fld = head[2].lower(), head[3].lower()
            sym = head[4].lower() if len(head) > 4 else "general"
            if fmt != "coordinate":
                raise GraphParseError(
                    f"line {line_no}: unsupported format {fmt!r} (need coordinate)"
                )
            if fld not in _MM_FIELDS:
                raise GraphParseError(f"line {line_no}: unsupported field {fld!r}")
            if sym not in _MM_SYMMETRIES:
                raise GraphParseError(f"line {line_no}: unsupported symmetry {sym!r}")
            pattern = fld == "pattern"
            want = 2 if pattern else 3
            continue
        if not line or line.startswith("%"):
            continue
        toks = line.split()
        if ids is None:
            if len(toks) != 3:
                raise GraphParseError(f"line {line_no}: malformed size line: {line!r}")
            try:
                n, cols, nnz = int(toks[0]), int(toks[1]), int(toks[2])
            except ValueError as exc:
                raise GraphParseError(f"line {line_no}: malformed size line: {line!r}") from exc
            if n != cols:
                raise GraphParseError(f"line {line_no}: non-square matrix {n}x{cols}")
            if n < 1 or nnz < 0:
                raise GraphParseError(f"line {line_no}: invalid size line: {line!r}")
            if n > _MAX_VERTICES:
                raise GraphParseError(
                    f"line {line_no}: size line declares more vertices than int64 ids allow: "
                    f"{line!r}"
                )
            ids, ws = array("i" if _id_dtype(n) is np.int32 else "q"), array("d")
            continue
        if len(ws) == nnz:
            raise GraphParseError(
                f"line {line_no}: extra entry beyond declared count {nnz}: {line!r}"
            )
        if len(toks) < want:
            raise GraphParseError(f"line {line_no}: truncated entry: {line!r}")
        if len(toks) > want:
            raise GraphParseError(
                f"line {line_no}: extra field in {fld} entry, expected {want}: {line!r}"
            )
        try:
            u = int(toks[0]) - 1
            v = int(toks[1]) - 1
        except ValueError as exc:
            raise GraphParseError(f"line {line_no}: bad vertex id in {line!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {line_no}: index out of range 1..{n}: {line!r}")
        if pattern:
            w = 1.0
        else:
            try:
                w = float(toks[2])
            except ValueError as exc:
                raise GraphParseError(f"line {line_no}: bad weight in {line!r}") from exc
            if not math.isfinite(w):
                raise GraphParseError(f"line {line_no}: non-finite weight in {line!r}")
        ids.append(u)
        ids.append(v)
        ws.append(w)
    if head is None:
        raise GraphParseError("line 1: missing MatrixMarket header")
    if ids is None:
        raise GraphParseError(f"line {line_no + 1}: missing size line")
    if len(ws) < nnz:
        raise GraphParseError(
            f"line {line_no + 1}: truncated file: expected {nnz} entries, found {len(ws)}"
        )
    return EdgeList(n, np.frombuffer(ids, dtype=ids.typecode).reshape(-1, 2), np.frombuffer(ws))


def parse_edgelist(stream: TextIO | IO[str]) -> EdgeList:
    """Parse the plain edge-list format: one ``u v [w]`` per line, 0-based.

    Lines starting with ``#`` are comments; a leading ``# n <N>`` directive
    fixes the vertex count (needed to preserve trailing isolated vertices),
    otherwise n is inferred as max id + 1.  The ids are held as int32
    until one passes 2**31 - 1, when the ids read so far are widened to
    int64, once.

    Raises:
        GraphParseError: on a malformed entry, a negative id, a non-finite
            weight, an id at or beyond a declared n, or an n directive that
            is negative, beyond the int64 range or not above an id read
            before it.  Messages name the offending line number.
    """
    ids, ws = array("i"), array("d")
    declared_n = None
    max_id = -1
    # the largest id the ids array holds; past it the ids widen to int64
    # once, and past the int64 bound the id is rejected
    limit = _INT32_MAX
    for line_no, raw in enumerate(stream, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            toks = stripped[1:].split()
            if len(toks) == 2 and toks[0] == "n":
                try:
                    declared_n = int(toks[1])
                except ValueError as exc:
                    raise GraphParseError(f"line {line_no}: bad n directive: {stripped!r}") from exc
                if declared_n > _MAX_VERTICES:
                    raise GraphParseError(
                        f"line {line_no}: n directive exceeds the int64 id range: {stripped!r}"
                    )
                if declared_n < 0:
                    raise GraphParseError(f"line {line_no}: negative n directive: {stripped!r}")
                if declared_n <= max_id:
                    raise GraphParseError(
                        f"line {line_no}: n directive below vertex id {max_id} read before it: "
                        f"{stripped!r}"
                    )
            continue
        toks = stripped.split()
        if len(toks) not in (2, 3):
            raise GraphParseError(f"line {line_no}: expected 'u v [w]', got {stripped!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
            w = float(toks[2]) if len(toks) == 3 else 1.0
        except ValueError as exc:
            raise GraphParseError(f"line {line_no}: bad entry: {stripped!r}") from exc
        if u < 0 or v < 0:
            raise GraphParseError(f"line {line_no}: negative vertex id: {stripped!r}")
        if not math.isfinite(w):
            raise GraphParseError(f"line {line_no}: non-finite weight: {stripped!r}")
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise GraphParseError(f"line {line_no}: index beyond declared n={declared_n}")
        max_id = max(max_id, u, v)
        if max_id > limit:
            if max_id >= _MAX_VERTICES:
                raise GraphParseError(
                    f"line {line_no}: vertex id exceeds the int64 range: {stripped!r}"
                )
            ids, limit = array("q", ids), _MAX_VERTICES - 1
        ids.append(u)
        ids.append(v)
        ws.append(w)
    n = declared_n if declared_n is not None else max_id + 1
    if n < 1:
        raise GraphParseError("edge list declares no vertices")
    return EdgeList(n, np.frombuffer(ids, dtype=ids.typecode).reshape(-1, 2), np.frombuffer(ws))


def load_graph_file(
    path: str,
    fmt: str | None = None,
    symmetrize: bool = True,
    add_self_loops: bool = False,
    default_weight: float = 1.0,
) -> Graph:
    """Load and preprocess a graph from a .mtx or edge-list file.

    A byte that is not UTF-8 reads as U+FFFD, so the parser rejects the
    token that holds it with the line number, and ignores it in a comment.
    """
    if fmt is None:
        fmt = "mtx" if str(path).endswith(".mtx") else "edgelist"
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        # the list holds the only reference to the parsed edges, and _build
        # empties it, so each array is freed as soon as the build is done with it
        held = [(parse_matrix_market if fmt == "mtx" else parse_edgelist)(fh)]
    return _build(held, symmetrize, add_self_loops, default_weight)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def build_graph(
    edges: EdgeList,
    symmetrize: bool = True,
    add_self_loops: bool = False,
    default_weight: float = 1.0,
) -> Graph:
    """Build a CSR Graph from raw edges.

    With symmetrize on, every entry (u, v, w) with u != v also yields the
    reverse arc (v, u, w).  Parallel arcs between the same ordered pair are
    merged by summing weights.  With add_self_loops on, every vertex with
    no self-loop gains one of weight default_weight; existing self-loops
    are kept as-is.

    Raises:
        ValueError: if the edge list declares no vertices, the self-loop
            weight is not positive and finite, the finished graph has zero
            total weight, a merged arc weight or the total overflows
            float64, or its arrays would not fit in memory.
    """
    return _build([edges], symmetrize, add_self_loops, default_weight)


def _build(
    held: list[EdgeList], symmetrize: bool, add_self_loops: bool, default_weight: float
) -> Graph:
    """build_graph over the one EdgeList in held, a list that this
    function empties and whose EdgeList it leaves unchanged.

    The arc order is the entries, then, with symmetrize on, each entry
    whose ends differ reversed, then the inserted loops.  A stable
    counting sort puts the arcs into rows: each row's arcs are counted,
    then the weights and then the targets are scattered to their row's
    fill pointer in arc order, ARC_CHUNK entries at a time, so no
    arc-length source column or permutation is made.  When every entry
    and every inserted loop weighs the same w, no weight column is made:
    a read-only zero-stride view of w stands in for it.  When held had
    the only reference to the EdgeList, its weights are freed before the
    target column exists, and its id pairs once that column is filled.
    _merge_rows then sorts each row by target and merges each repeated
    pair over the front of the columns, and this function, their one
    owner, cuts them to the merged length in place; a column that
    something else references (a tracer's copy of the frame's locals) is
    copied instead.  A uniform input that repeats a pair is merged again
    over a full column of w, made then, so its sums add the same values
    in the same order as any input's.  With symmetrize off, each arc whose
    source is above its target takes its reverse's weight bits once the
    symmetry check passes, so coarse graphs sum equal weights both ways.
    Before any n-length array, a graph whose run the RUN_BYTES_* estimate
    puts above physical memory (a figure blind to cgroup limits) is
    refused as a MemoryError is.
    """
    edges = held.pop()
    n, pairs, ws = edges.n, edges.entries, edges.weights
    del edges
    if n < 1:
        raise ValueError("empty graph: vertex count must be >= 1")
    if add_self_loops and not (math.isfinite(default_weight) and default_weight > 0):
        raise ValueError(f"self-loop weight must be positive and finite, got {default_weight!r}")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError("edge endpoint outside declared vertex range")
    # the least and the largest weight, which are NaN if any weight is
    seen = {float(ws.min()), float(ws.max())} if ws.size else set()
    if not all(map(math.isfinite, seen)):
        raise ValueError("non-finite edge weight")

    try:
        need = RUN_BYTES_PER_VERTEX * n + RUN_BYTES_PER_ENTRY * (ws.size + n * add_self_loops)
        if need > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
            raise MemoryError(f"an estimated {need >> 20} MiB exceeds physical memory")
        loops = np.empty(0, dtype=np.int64)
        if add_self_loops:
            has_loop = np.zeros(n, dtype=bool)
            has_loop[pairs[pairs[:, 0] == pairs[:, 1], 0]] = True
            loops = np.flatnonzero(~has_loop)
            if loops.size:
                seen.add(float(default_weight))
        # the weight of every arc, or None when two arcs differ in weight
        w = seen.pop() if len(seen) == 1 else None
        us, vs = pairs[:, 0], pairs[:, 1]
        del pairs
        ends = (us, vs, symmetrize, loops)
        counts = np.zeros(n, dtype=np.int64)
        _scatter(counts, _arc_slices(*ends, vs, us, loops))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        del counts
        m = int(offsets[-1])
        if w is None:
            weights = np.empty(m, dtype=np.float64)
            _scatter(offsets[:-1].copy(), _arc_slices(*ends, ws, ws, default_weight), weights)
        else:
            weights = np.broadcast_to(np.float64(w), (m,))
        del ws
        targets = np.empty(m, dtype=_id_dtype(n))
        _scatter(offsets[:-1].copy(), _arc_slices(*ends, vs, us, loops), targets)
        del us, vs, ends, loops
        counts, at = _merge_rows(offsets, targets, weights, n)
        if counts is None:
            weights = np.full(m, w)
            counts, at = _merge_rows(offsets, targets, weights, n)
        del offsets
        if at < m:
            try:
                # resize refuses a column that something else references
                targets.resize(at)
                weights.resize(at)
            except ValueError:
                targets, weights = targets[:at].copy(), weights[:at].copy()
        return _finish_graph(n, counts, targets, weights, mirror=not symmetrize)
    except MemoryError as exc:
        raise ValueError(f"a graph with {n} vertices does not fit in memory: {exc}") from exc


def _arc_slices(us, vs, symmetrize, loops, head, mirrored, loop):
    """The arcs in arc order, as (sources, values) slices of at most
    ARC_CHUNK arcs: each entry (us[i], vs[i]) with value head[i],
    then, with symmetrize on, each entry whose ends differ reversed, with
    value mirrored[i], then a loop on each vertex of loops, with value
    loop, an array as long as loops or one value."""
    for lo in range(0, us.size, ARC_CHUNK):
        hi = lo + ARC_CHUNK
        yield us[lo:hi], head[lo:hi]
    if symmetrize:
        for lo in range(0, us.size, ARC_CHUNK):
            hi = lo + ARC_CHUNK
            off = us[lo:hi] != vs[lo:hi]
            yield vs[lo:hi][off], mirrored[lo:hi][off]
    for lo in range(0, loops.size, ARC_CHUNK):
        hi = lo + ARC_CHUNK
        yield loops[lo:hi], loop if np.ndim(loop) == 0 else loop[lo:hi]


def _scatter(fill: np.ndarray, slices, out: np.ndarray | None = None) -> None:
    """A stable counting sort of (keys, values) slices into out.

    fill[k] is the position in out of the next value of key k.  Each value
    goes to its key's fill pointer plus the number of earlier values of its
    slice with the same key, so out holds each key's values in the order
    the slices give them, and fill then points past them.  values is an
    array like keys or one value.  With out None, fill only counts the
    keys.  The temporaries are a few arrays as long as one slice, which
    every caller cuts at ARC_CHUNK arcs.
    """
    for keys, values in slices:
        if out is not None and keys.size:
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            # each value's rank among the values of its key in the slice
            at = np.arange(keys.size) - np.searchsorted(keys, keys)
            at += fill[keys]
            out[at] = values if np.ndim(values) == 0 else values[order]
        np.add.at(fill, keys, 1)


def _merge_rows(
    offsets: np.ndarray, vs: np.ndarray, ws: np.ndarray, n: int
) -> tuple[np.ndarray | None, int]:
    """Sort each row's arcs stably by target and merge each run of a
    repeated pair into one arc, in place over the front of vs and ws.

    Each row-aligned slice keys its arcs by row start times n plus target
    (targets lie in [0, n), and a slice of at most ARC_CHUNK arcs keeps
    the key in the int64 range); a run starts where the sorted key
    changes, and reduceat sums it in arc order, as one stable sort and
    one reduceat over all arcs would.  An overflow is left for
    _finish_graph to reject.  Returns the row lengths and the merged arc
    count at: the merged arcs are vs[:at] and ws[:at].  A zero-stride ws
    cannot hold a merge, so at the first repeated pair this returns
    (None, at), the slices before it sorted and the rest unchanged.
    """
    counts = np.diff(offsets)
    at = 0
    for r0, r1, lo, hi in _row_slices(offsets):
        if lo == hi:
            continue
        rows = offsets[r0 : r1 + 1] - lo
        key = np.repeat(rows[:-1] * n, np.diff(rows))
        key += vs[lo:hi]
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        del key
        if starts.size < hi - lo and not ws.strides[0]:
            return None, at
        vs[at : at + starts.size] = vs[lo:hi][order[starts]]
        if ws.strides[0]:
            with np.errstate(over="ignore"):
                ws[at : at + starts.size] = np.add.reduceat(ws[lo:hi][order], starts)
        counts[r0:r1] = np.diff(np.searchsorted(starts, rows))
        at += starts.size
    return counts, at


def _coarsen(g: Graph, mapping: np.ndarray, n_comm: int) -> Graph:
    """The graph with each community of mapping, normalized labels in
    [0, n_comm), collapsed into one vertex.

    The arcs are merged in blocks of whole communities, at most ARC_CHUNK
    arcs each unless one community alone has more.  A block lists its
    communities' arcs in grouped order, members ascending and each
    member's arcs in arc order, which is CSR form with one row per
    community.  One _merge_rows call per block sorts each row stably by
    target community, the order one stable sort of all arcs by
    (community, target community) gives, and sums each run in arc order,
    so every run sums the same arcs in the same order, to the same bits.
    Each block's merged front is appended to growing target and weight
    buffers.  Beside the graph, the work holds the members, int32 when
    g.n fits, and slice-sized temporaries; the coarse targets are
    _id_dtype(n_comm).
    """
    # the vertices grouped by community, ascending within each
    members = np.argsort(mapping, kind="stable").astype(_id_dtype(g.n), copy=False)
    first_member = np.zeros(n_comm + 1, dtype=np.int64)
    np.cumsum(np.bincount(mapping, minlength=n_comm), out=first_member[1:])
    # the position of each community's first arc in the grouped arc order,
    # where each member's arcs follow in arc order
    comm_arcs = np.zeros(n_comm + 1, dtype=np.int64)
    np.add.at(comm_arcs[1:], mapping, np.diff(g.offsets))
    np.cumsum(comm_arcs, out=comm_arcs)
    ids = _id_dtype(n_comm)
    counts = np.empty(n_comm, dtype=np.int64)
    tgt, w = array("i" if ids is np.int32 else "q"), array("d")
    for c0, c1, lo, hi in _row_slices(comm_arcs):
        verts = members[first_member[c0] : first_member[c1]]
        arc = g.offsets[verts]
        length = g.offsets[verts + 1] - arc
        # each member's first arc id less its first position in the block
        arc -= np.cumsum(length) - length
        arc = np.repeat(arc, length)
        arc += np.arange(hi - lo)
        rows = comm_arcs[c0 : c1 + 1] - lo
        block_tgt, block_w = mapping[g.targets[arc]].astype(ids), g.weights[arc]
        del arc
        counts[c0:c1], at = _merge_rows(rows, block_tgt, block_w, n_comm)
        tgt.frombytes(block_tgt[:at].data.cast("B"))
        w.frombytes(block_w[:at].data.cast("B"))
        # free the merged block before the next one is gathered: left
        # alive, it sits among the next block's temporaries where the
        # growing buffers would extend, which raised detect's peak RSS by
        # 0.6 MB on a graph of 882k arcs
        del block_tgt, block_w
    del members, first_member, comm_arcs
    return _finish_graph(n_comm, counts, np.frombuffer(tgt, dtype=ids), np.frombuffer(w))


def _finish_graph(
    n: int, counts: np.ndarray, vs: np.ndarray, ws: np.ndarray, mirror: bool = False
) -> Graph:
    """Check merged CSR arcs and wrap them in a Graph.

    counts[u] is the length of row u; vs and ws are the targets and
    weights in CSR order, each row's targets strictly ascending.  The
    offsets, degrees and total are derived here, and the weights, the
    symmetry (which with mirror on gives both arcs of a pair one weight)
    and the total are checked.  vs becomes the Graph's targets as given,
    without a copy, so its dtype is the caller's: _id_dtype(n) for
    build_graph and _coarsen.
    """
    if ws.size and ws.min() <= 0:
        raise ValueError("arc weights must be positive after merging")
    if ws.size and not np.isfinite(ws.max()):
        raise ValueError("merged arc weight is not finite (float64 overflow)")

    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # the Graph type promises symmetry; catch unsymmetrized input here
    # rather than letting modularity invariants break silently downstream
    if not _is_symmetric(offsets, vs, ws, mirror):
        raise ValueError(
            "arc list is not symmetric; pass symmetrize=True or provide both directions"
        )
    degrees = np.zeros(n, dtype=np.float64)
    for r0, r1, lo, hi in _row_slices(offsets):
        # a row lies within one slice, so each degree sums its row in arc
        # order, as one bincount over all arcs would
        degrees[r0:r1] = np.bincount(
            _slice_rows(offsets, r0, r1), weights=ws[lo:hi], minlength=r1 - r0
        )
    with np.errstate(over="ignore"):
        total = float(np.sum(degrees))
    if total <= 0.0:
        raise ValueError("graph has no arcs; add edges or enable self-loop insertion")
    # a degree that overflows from finite arcs makes the total inf as well
    if not math.isfinite(total):
        raise ValueError("total arc weight is not finite (float64 overflow)")

    for a in (offsets, vs, ws, degrees):
        a.setflags(write=False)
    return Graph(n=n, offsets=offsets, targets=vs, weights=ws, degrees=degrees, total=total)


def _row_slices(offsets: np.ndarray):
    """Split the rows of a CSR offset array into consecutive ranges, the
    slices of the row merges, the symmetry check, degrees and modularity.

    Yields (r0, r1, lo, hi): rows r0..r1-1, whose arcs are lo..hi-1.  A
    range holds at most ARC_CHUNK arcs unless its single row has more, and
    two consecutive ranges hold more than ARC_CHUNK together, so there are
    at most 2 * arcs / ARC_CHUNK + 1 of them.
    """
    n = offsets.size - 1
    r0 = 0
    while r0 < n:
        lo = int(offsets[r0])
        r1 = max(int(np.searchsorted(offsets, lo + ARC_CHUNK, side="right")) - 1, r0 + 1)
        yield r0, r1, lo, int(offsets[r1])
        r0 = r1


def _slice_rows(offsets: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Each arc's row, minus r0, for the arcs of rows r0..r1-1."""
    return np.repeat(np.arange(r1 - r0), np.diff(offsets[r0 : r1 + 1]))


def _is_symmetric(
    offsets: np.ndarray, vs: np.ndarray, ws: np.ndarray, mirror: bool = False
) -> bool:
    """Whether the arc at rank i of the (v, u) order reverses the arc at
    position i of the (u, v) order, with a weight equal to rtol 1e-12.
    With mirror on, each arc of a symmetric graph whose source is above
    its target then takes its reverse's weight bits.

    The arcs are in CSR order with strictly ascending targets per row, so
    a stable sort by target alone gives the (v, u) order, and arc j's
    source is the row whose offsets bracket j.  The verdict is false
    unless every vertex has as many arcs in as out; then each vertex's
    in-arcs start, in that order, where its own row does, and a counting
    sort scatters the arc ids there, into an int32 array when they fit.
    The comparisons run over row-aligned slices, so only the reverse
    order is arc-length; the verdict is that of comparing whole columns.
    """
    slices = [(lo, min(lo + ARC_CHUNK, vs.size)) for lo in range(0, vs.size, ARC_CHUNK)]
    in_arcs = np.zeros(offsets.size - 1, dtype=np.int64)
    _scatter(in_arcs, ((vs[lo:hi], None) for lo, hi in slices))
    if not np.array_equal(in_arcs, np.diff(offsets)):
        return False
    del in_arcs
    rev = np.empty(vs.size, dtype=_id_dtype(vs.size))
    _scatter(offsets[:-1].copy(), ((vs[lo:hi], np.arange(lo, hi)) for lo, hi in slices), rev)
    mirror = mirror and ws.strides[0]
    for r0, r1, lo, hi in _row_slices(offsets):
        r = rev[lo:hi]
        v = vs[lo:hi]
        if not (
            np.array_equal(_slice_rows(offsets, r0, r1) + r0, vs[r])
            and np.all(offsets[v] <= r)
            and np.all(r < offsets[v + 1])
            and np.allclose(ws[lo:hi], ws[r], rtol=1e-12, atol=0.0)
        ):
            return False
        if mirror:
            # the reverse of an arc whose source is above its target lies
            # in an earlier row, checked already, and is never written
            above = _slice_rows(offsets, r0, r1) + r0 > v
            ws[lo:hi][above] = ws[r[above]]
    return True


def graph_stats(g: Graph) -> GraphStats:
    """Vertex count, arc count (symmetric pairs twice, loops once), avg degree."""
    return GraphStats(
        vertices=g.n,
        undirected_edges=g.n_arcs,
        avg_degree=g.n_arcs / g.n,
    )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def save_edgelist(edges: EdgeList, path: str) -> None:
    """Write an EdgeList in the text format parse_edgelist reads back.

    Weights are written with ``repr`` of the builtin float, so parsing the
    file gives back the same bits.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n {edges.n}\n")
        for (u, v), w in zip(edges.entries.tolist(), edges.weights.tolist()):
            fh.write(f"{u} {v} {w!r}\n")
