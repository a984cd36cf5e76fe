"""Undirected weighted graphs in CSR form, plus loaders for the two text formats.

A graph is stored as flat arc arrays: every undirected edge {u, v} with u != v
appears as the two arcs (u, v, w) and (v, u, w); a self-loop is stored as a
single arc (u, u, w) whose weight counts once in the vertex degree.  All
community and modularity code in this package assumes exactly this convention.

Vertex ids are int32 whenever the vertex count is at most 2**31 - 1 and
int64 above that, so a load never makes a widened copy of an arc-length
id column.  Every build makes two passes over blocks of entries: a count
pass counts each row's forward, mirrored and loop arcs, and a placement
pass writes each block's targets, and weights, to their rows' fill
pointers, a stable counting sort that keeps the arc order of the
entries, their mirrored copies, then the inserted loops, each column
written by the one placement step, _place.  load_graph_file reads a
regular file once per pass, a block of lines at a time (formats.py), so
no EdgeList is made: the count pass checks the file and learns n and the
weight range, and the placement pass checks that each block of lines is
the one the count pass read, so a file changed between the passes fails
with GraphParseError.  A pipe, which cannot be read twice, is parsed
once into an EdgeList, whose blocks are slices of ARC_CHUNK entries:
_build reads any source with n and blocks(), and checks no argument
itself.  When every arc weighs the same, as in an unweighted edge list
or a pattern MatrixMarket file, the load makes no weight column at all:
Graph.weights is then a read-only zero-stride view of that one value,
unless a repeated pair has to be merged.  One merge step, _merge_rows,
sorts and merges the rows of the build and of each aggregation block in
one pass per slice, over the front of the columns: the build cuts its
own columns to length, and aggregation appends each block's merged front
to its coarse buffers, so an aggregated graph always has a full weight
column.  The symmetry check finds each arc's reverse by a binary search
in its target's row, so no reverse column is made.
"""

from __future__ import annotations

import math
import os
import stat
from array import array
from dataclasses import dataclass, field
from typing import IO, TextIO

import numpy as np

from .formats import (
    GraphParseError,
    _EdgeListReader,
    _MatrixMarketReader,
    _entry_error,
    _read_blocks,
)

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


# arcs per slice of every arc-length pass that runs in slices to bound its
# temporaries, about 50 bytes per arc of a slice (tracemalloc): the
# placement of an EdgeList, the symmetry check, the row merges, the degree
# pass and modularity.  No merge run crosses a row and every sum adds in arc order,
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


def _integers(values, name: str, keep: tuple = (np.int64,)) -> np.ndarray:
    """values as an array of integers, the one conversion of vertex ids
    and community labels: an array of a dtype in keep as it is, without
    a copy, and any other integer or bool values, or floats that all are
    integers, as int64.  Raises ValueError naming name for other values,
    such as 0.5 or NaN, which a cast would truncate."""
    a = np.asarray(values)
    if a.dtype in keep:
        return a
    if a.dtype.kind in "iub":
        return a.astype(np.int64)
    if a.dtype.kind == "f":
        with np.errstate(invalid="ignore"):
            out = a.astype(np.int64)
        # a fraction, NaN, an infinity or a float past int64 casts to another value
        if (out == a).all():
            return out
    raise ValueError(f"{name} must be integers")


@dataclass
class EdgeList:
    """Raw edges as read from disk, before symmetrization or loop insertion.

    Attributes:
        n: declared vertex count; every id in entries lies in [0, n).
        entries: int32 or int64 array of shape (e, 2), one (u, v) pair of
            0-based vertex ids per edge.
        weights: float64 array of shape (e,), the weight of each edge.

    Arrays of these dtypes are kept without a copy; entries of any other
    integer dtype, or floats that all are integers, become int64.  Given
    entries alone, ``EdgeList(n, [(u, v, w), ...])`` splits the tuples
    into an int64 and a float64 array; ``EdgeList(n)`` has no edges.
    blocks() yields it to a build as a file's reader yields a file.

    Raises:
        ValueError: if an id is not an integer, or entries is not of
            shape (e, 2) or weights not of length e.
    """

    n: int
    entries: np.ndarray = field(default_factory=list)
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.weights is None:
            rows = [(u, v, w) for u, v, w in self.entries]
            self.entries = np.reshape([r[:2] for r in rows], (-1, 2))
            self.weights = [r[2] for r in rows]
        self.entries = _integers(self.entries, "entries", (np.int32, np.int64))
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.entries.ndim != 2 or self.entries.shape[1] != 2:
            raise ValueError(f"entries must have shape (e, 2), got {self.entries.shape}")
        e = len(self.entries)
        if self.weights.shape != (e,):
            raise ValueError(f"weights must have shape ({e},), got {self.weights.shape}")

    def blocks(self):
        """Slices of ARC_CHUNK entries and their weights."""
        for lo in range(0, self.weights.size, ARC_CHUNK):
            yield self.entries[lo : lo + ARC_CHUNK], self.weights[lo : lo + ARC_CHUNK]


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

def _parse(stream, reader) -> EdgeList:
    """The EdgeList of a stream, as the line loop reads it: in either
    format the ids are int32 until a block holds one past 2**31 - 1, when
    the earlier blocks' ids are widened to int64, once."""
    ids, ws = array("i"), array("d")
    for pairs, w in _read_blocks(stream, reader):
        ws.frombytes(w.tobytes())
        if ids.typecode == "i" and pairs.size and pairs.max() > _INT32_MAX:
            ids = array("q", ids)
        ids.frombytes(pairs.astype(ids.typecode).tobytes())
    return EdgeList(reader.n, np.frombuffer(ids, dtype=ids.typecode).reshape(-1, 2),
                    np.frombuffer(ws))


def parse_matrix_market(stream: TextIO | IO[str]) -> EdgeList:
    """Parse a MatrixMarket coordinate file into an EdgeList.

    Accepts pattern/real/integer fields and general/symmetric storage.
    The first non-blank line is the header, the first later line that is
    neither blank nor a % comment the size line, and each such line after
    it an entry.  Indices are converted from 1-based to 0-based and held
    as int32 until a block holds one past 2**31 - 1, whatever the size
    line declares, when the earlier blocks' ids are widened to int64,
    once; pattern entries get weight 1.  For symmetric files only
    the stored triangle is returned; mirroring the arcs is build_graph's
    job.  The stream is read in blocks of lines, as load_graph_file reads
    a file.

    Raises:
        GraphParseError: on a malformed header or size line, an entry
            with fields missing or extra, an index out of the declared
            range, a non-finite weight, or an entry count that does not
            match the size line.  Messages name the offending line, or
            the line after the last one for a file that ends early.
    """
    return _parse(stream, _MatrixMarketReader())


def parse_edgelist(stream: TextIO | IO[str]) -> EdgeList:
    """Parse the plain edge-list format: one ``u v [w]`` per line, 0-based.

    Lines starting with ``#`` are comments; a ``# n <N>`` directive fixes
    the vertex count (needed to preserve trailing isolated vertices),
    otherwise n is inferred as max id + 1.  The ids are held as int32
    until a block holds one past 2**31 - 1, when the earlier blocks' ids
    are widened to int64, once.  The stream is read in blocks of lines,
    as load_graph_file reads a file.

    Raises:
        GraphParseError: on a malformed entry, a negative id, a non-finite
            weight, an id at or beyond a declared n, or an n directive that
            is negative, beyond the int64 range or not above an id read
            before it.  Messages name the offending line number.
    """
    return _parse(stream, _EdgeListReader())


class _FileBlocks:
    """The entries of a regular file, read and checked afresh by every
    call of blocks; each call after the first raises GraphParseError
    unless each block of lines is the one the first call read."""

    def __init__(self, path: str, reader: type) -> None:
        self.path, self.reader_type = path, reader
        self.reader = reader()
        self.digests: list | None = None

    @property
    def n(self) -> int | None:
        return self.reader.n

    def blocks(self):
        self.reader = self.reader_type()
        expect, self.digests = self.digests, []
        with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
            yield from _read_blocks(fh, self.reader, self.digests, expect)


def load_graph_file(
    path: str,
    fmt: str | None = None,
    symmetrize: bool = True,
    add_self_loops: bool = False,
    default_weight: float = 1.0,
) -> Graph:
    """Load and preprocess a graph from a .mtx or edge-list file.

    A regular file is read twice, a block of lines at a time: the count
    pass checks it and counts each row's arcs, the placement pass writes
    the arcs to their rows, and no EdgeList is made.  A file that changes
    between the passes fails with GraphParseError.  Anything else, such
    as a pipe, is parsed once into an EdgeList, checked by its reader, and
    built.  A byte that is not UTF-8 reads as U+FFFD, so the parser
    rejects the token that holds it with the line number, and ignores it
    in a comment.  A bad self-loop weight is refused before the path is
    read, with build_graph's ValueError.
    """
    if fmt is None:
        fmt = "mtx" if str(path).endswith(".mtx") else "edgelist"
    reader = _MatrixMarketReader if fmt == "mtx" else _EdgeListReader
    _check_loop_weight(add_self_loops, default_weight)
    if stat.S_ISREG(os.stat(path).st_mode):
        held = [_FileBlocks(path, reader)]
    else:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            held = [_parse(fh, reader())]
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
        ValueError: in this order, if the edge list declares no vertices,
            the self-loop weight is not positive and finite, an entry has
            an id outside [0, n), a non-finite or a non-positive weight;
            then if the finished graph has zero total weight, a merged arc
            weight or the total overflows float64, or its arrays would not
            fit in memory.
    """
    if edges.n < 1:
        raise ValueError("empty graph: vertex count must be >= 1")
    _check_loop_weight(add_self_loops, default_weight)
    if (error := _entry_error(edges.entries, edges.weights, edges.n)) is not None:
        raise ValueError(error)
    return _build([edges], symmetrize, add_self_loops, default_weight)


# the cgroup v2 and v1 files that hold a container's memory limit
_CGROUP_MEMORY_FILES = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


def _cgroup_memory_limit() -> int | None:
    """The memory limit in bytes of the first readable cgroup file, or
    None: v2 writes "max" and v1 a value near 2**63 for no limit."""
    for path in _CGROUP_MEMORY_FILES:
        try:
            with open(path, encoding="ascii") as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        return int(text) if text.isdigit() and int(text) < 1 << 62 else None
    return None


def _memory_limit() -> tuple[int, str]:
    """The smaller of physical memory and the cgroup limit, and its name."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    cgroup = _cgroup_memory_limit()
    if cgroup is not None and cgroup < physical:
        return cgroup, "the cgroup memory limit"
    return physical, "physical memory"


def _check_fits(n: int, need: int) -> None:
    """Raise ValueError when a run on n vertices takes an estimated need
    bytes, more than the smaller of physical memory and the cgroup limit."""
    limit, name = _memory_limit()
    if need > limit:
        raise ValueError(f"a graph with {n} vertices does not fit in memory: "
                         f"an estimated {need >> 20} MiB exceeds {name}")


class _RowCounts:
    """The count pass: for each row, its forward arcs (the entries from
    it), its mirrored arcs (with symmetrize on, the entries into it from
    another vertex) and whether an entry is a loop on it (with loop
    insertion on), plus the entry count and the weight range, over blocks
    of entries.

    The count arrays grow to the rows seen (_grow) only while the
    RUN_BYTES_* estimate for that many rows and the entries so far stays
    within the memory limit; past it the counting stops, and _build
    refuses the run once the pass is over.  fit(n) sets the final size.
    """

    def __init__(self, symmetrize: bool, add_self_loops: bool) -> None:
        self.limit = _memory_limit()[0]
        self.loops = add_self_loops
        self.fwd = np.zeros(0, dtype=np.int64)
        self.mir = np.zeros(0, dtype=np.int64) if symmetrize else None
        self.has_loop = np.zeros(0, dtype=bool) if add_self_loops else None
        self.entries = 0
        self.lo, self.hi = math.inf, -math.inf
        self.stopped = False

    def need(self, n: int) -> int:
        """The RUN_BYTES_* estimate for n rows and the entries so far."""
        return RUN_BYTES_PER_VERTEX * n + RUN_BYTES_PER_ENTRY * (self.entries + n * self.loops)

    def add(self, pairs: np.ndarray, ws: np.ndarray) -> None:
        """Count a block: pairs of ids and their weights."""
        if not len(pairs):
            return
        self.entries += len(pairs)
        self.lo, self.hi = min(self.lo, float(ws.min())), max(self.hi, float(ws.max()))
        size = int(pairs.max()) + 1
        if self.stopped or size > self.fwd.size and not self._grow(size):
            self.stopped = True
            return
        us, vs = pairs[:, 0], pairs[:, 1]
        np.add.at(self.fwd, us, 1)
        if self.mir is not None:
            off = us != vs
            np.add.at(self.mir, vs[off], 1)
        if self.has_loop is not None:
            self.has_loop[us[us == vs]] = True

    def _grow(self, size: int) -> bool:
        """Widen the counts to the larger of twice their size and size
        rows, else to size rows, the first that the estimate allows."""
        for cap in (max(size, 2 * self.fwd.size), size):
            if self.need(cap) <= self.limit:
                self.fit(cap)
                return True
        return False

    def fit(self, n: int) -> None:
        """Resize the count arrays, none of which has a view, to n rows;
        new rows count zero."""
        for a in (self.fwd, self.mir, self.has_loop):
            if a is not None:
                a.resize(n, refcheck=False)

    def regions(self) -> tuple[np.ndarray, list, int]:
        """Each row's region starts, the counts consumed: an n + 1 buffer,
        0 then the start of each row's last region (mirrored with
        symmetrize on, else forward), and the fill pointers of the
        regions in arc order, forward first, the last of them that
        buffer's tail.  A row holds its forward arcs, then its mirrored
        ones, then its inserted loop; once every arc is placed, the last
        fill pointer of a row with a loop to insert is the loop's
        position, and adding the loop indicator makes the buffer the
        row offsets.  Also returns the arc count."""
        fwd, mir = self.fwd, self.mir
        offsets = np.zeros(fwd.size + 1, dtype=np.int64)
        tail = offsets[1:]
        tail += fwd
        if mir is not None:
            tail += mir
        if self.has_loop is not None:
            tail += ~self.has_loop
        np.cumsum(tail, out=tail)
        m = int(tail[-1])
        if mir is not None:
            np.add(offsets[:-1], fwd, out=mir)
        fwd[:] = offsets[:-1]
        tail[:] = fwd if mir is None else mir
        self.fwd = self.mir = None
        return offsets, ([tail] if mir is None else [fwd, tail]), m


def _build(
    held: list, symmetrize: bool, add_self_loops: bool, default_weight: float
) -> Graph:
    """build_graph over the one source in held, a list this function
    empties: anything with n and blocks(), such as an EdgeList,
    left unchanged, or a file's _FileBlocks, taken as it is, for the
    caller checks the arguments and a reader the entries of a file.

    Two passes over the source's blocks of entries make the CSR columns.
    The count pass (_RowCounts) counts each row's forward, mirrored and
    loop arcs; the placement pass writes each block's targets, and its
    weights unless every entry and inserted loop weighs the same, to
    their rows' fill pointers in a stable counting sort, so each row
    holds its forward arcs in entry order, then its mirrored arcs in
    entry order, then its inserted loop: the arc order of the entries,
    then each entry whose ends differ reversed, then the loops.  No
    arc-length source column or permutation is made.  When every entry
    and every inserted loop weighs the same w, a read-only zero-stride
    view of w stands in for the weight column.  _merge_rows then sorts
    each row by target and merges each repeated pair over the front of
    the columns, and this function, their one owner, cuts them to the
    merged length in place (a tracer's copy of the frame's locals holds
    the same arrays, cut with them).  At a uniform input's first repeated pair,
    _merge_rows swaps the view for a full column of w, whose sums add the
    same values in the same order as any input's.  With symmetrize off,
    each arc whose source is above its target takes its reverse's weight
    bits once the symmetry check passes, so coarse graphs sum equal
    weights both ways.  After the count pass, a run of any source that
    the RUN_BYTES_* estimate puts above the smaller of physical memory
    and the cgroup limit is refused (_check_fits), before any n-length
    array or placement; a MemoryError is refused as a ValueError too.
    """
    source = held.pop()
    try:
        rows = _RowCounts(symmetrize, add_self_loops)
        for pairs, ws in source.blocks():
            rows.add(pairs, ws)
        # the last block can be a view that would keep a parsed EdgeList alive
        pairs = ws = None
        n = source.n
        _check_fits(n, rows.need(n))
        rows.fit(n)
        seen = {rows.lo, rows.hi} if rows.entries else set()
        has_loop = rows.has_loop
        if add_self_loops and not has_loop.all():
            seen.add(float(default_weight))
        # the weight of every arc, or None when two arcs differ in weight
        w = seen.pop() if len(seen) == 1 else None
        offsets, fills, m = rows.regions()
        del rows
        targets = np.empty(m, dtype=_id_dtype(n))
        weights = np.empty(m) if w is None else np.broadcast_to(np.float64(w), (m,))
        _place_blocks(source, fills, targets, weights)
        del source, fills
        if has_loop is not None:
            for lo in range(0, n, ARC_CHUNK):
                ids = np.flatnonzero(~has_loop[lo : lo + ARC_CHUNK]) + lo
                _place(offsets[1:], ids, (targets, ids),
                       (weights, np.full(ids.size, default_weight)))
            del has_loop
        counts, at, weights = _merge_rows(offsets, targets, weights, n)
        del offsets
        if at < m:
            # a merge leaves an owned weight column, and no column has a view
            targets.resize(at, refcheck=False)
            weights.resize(at, refcheck=False)
        return _finish_graph(n, counts, targets, weights, mirror=not symmetrize)
    except MemoryError as exc:
        raise ValueError(f"the graph does not fit in memory: {exc}") from exc


def _check_loop_weight(add_self_loops: bool, default_weight: float) -> None:
    if add_self_loops and not (math.isfinite(default_weight) and default_weight > 0):
        raise ValueError(f"self-loop weight must be positive and finite, got {default_weight!r}")


def _place_blocks(source, fills: list, targets: np.ndarray, weights: np.ndarray) -> None:
    """The placement pass: each block's arcs, read as the count pass read
    them, to their regions' fill pointers, forward arcs by source and, with
    two fill arrays, mirrored arcs by target; no weight to a uniform view."""
    for pairs, ws in source.blocks():
        us, vs = pairs[:, 0], pairs[:, 1]
        _place(fills[0], us, (targets, vs), (weights, ws))
        if len(fills) > 1:
            off = us != vs
            _place(fills[1], vs[off], (targets, us[off]), (weights, ws[off]))


def _place(fill: np.ndarray, keys: np.ndarray, *columns) -> None:
    """One step of a stable counting sort: the block's i-th value of each
    (out, values) column goes to out at its key's fill pointer plus the
    number of earlier keys of the block equal to keys[i], and the pointers
    then move past the block.  A zero-stride out, a uniform weight's view,
    is skipped.  The temporaries are a few block-length arrays."""
    if not keys.size:
        return
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # each key's rank among the equal keys of the block
    at = np.arange(keys.size) - np.searchsorted(keys, keys)
    at += fill[keys]
    for out, values in columns:
        if out.strides[0]:
            out[at] = values[order]
    np.add.at(fill, keys, 1)


def _merge_rows(
    offsets: np.ndarray, vs: np.ndarray, ws: np.ndarray, n: int
) -> tuple[np.ndarray, int, np.ndarray]:
    """Sort each row's arcs stably by target and merge each run of a
    repeated pair into one arc, in place over the front of vs and ws.

    Each row-aligned slice keys its arcs by row start times n plus target
    in int64 (targets lie in [0, n), and a slice of at most ARC_CHUNK
    arcs keeps the key in range); a run starts where the sorted key
    changes, and reduceat sums it in arc order, as one stable sort and
    one reduceat over all arcs would.  An overflow is left for
    _finish_graph to reject.  Returns (row lengths, at, ws): the merged
    arcs are vs[:at] and ws[:at].  A zero-stride ws, the read-only view
    of a uniform weight, cannot hold a merge, so at the first repeated
    pair a full column of its value replaces it.
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
            ws = np.full(ws.size, ws[0])
        vs[at : at + starts.size] = vs[lo:hi][order[starts]]
        if ws.strides[0]:
            with np.errstate(over="ignore"):
                ws[at : at + starts.size] = np.add.reduceat(ws[lo:hi][order], starts)
        counts[r0:r1] = np.diff(np.searchsorted(starts, rows))
        at += starts.size
        # free this slice's arrays before the next slice makes its own
        del order, starts
    return counts, at, ws


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
    Each block's merged front is written after the previous one into
    target and weight columns as long as an upper bound of the coarse
    arc count, which are cut to length at the end: unlike buffers grown
    block by block, they are never moved, and only their written pages
    are resident.  Beside the graph, the work holds the members, int32
    when g.n fits, and slice-sized temporaries; the coarse targets are
    _id_dtype(n_comm).
    """
    first_member = np.zeros(n_comm + 1, dtype=np.int64)
    np.cumsum(np.bincount(mapping, minlength=n_comm), out=first_member[1:])
    # the vertices grouped by community, ascending within each, and the
    # position of each community's first arc in the grouped arc order,
    # where each member's arcs follow in arc order
    members = np.empty(g.n, dtype=_id_dtype(g.n))
    fill = first_member[:-1].copy()
    comm_arcs = np.zeros(n_comm + 1, dtype=np.int64)
    for lo in range(0, g.n, ARC_CHUNK):
        hi = min(lo + ARC_CHUNK, g.n)
        _place(fill, mapping[lo:hi], (members, np.arange(lo, hi)))
        np.add.at(comm_arcs[1:], mapping[lo:hi], np.diff(g.offsets[lo : hi + 1]))
    del fill
    np.cumsum(comm_arcs, out=comm_arcs)
    ids = _id_dtype(n_comm)
    counts = np.empty(n_comm, dtype=np.int64)
    # a block merges into at most one arc per row and coarse target, so
    # columns of this length hold every block; only the pages written are
    # resident, and the columns are cut to length at the end
    bound = sum(min(hi - lo, (c1 - c0) * n_comm) for c0, c1, lo, hi in _row_slices(comm_arcs))
    tgt, w = np.empty(bound, dtype=ids), np.empty(bound)
    end = 0
    for c0, c1, lo, hi in _row_slices(comm_arcs):
        verts = members[first_member[c0] : first_member[c1]]
        arc = g.offsets[verts]
        length = g.offsets[verts + 1] - arc
        # a view of members, which it would keep alive past their del
        del verts
        # each member's first arc id less its first position in the block
        arc -= np.cumsum(length) - length
        arc = np.repeat(arc, length)
        arc += np.arange(hi - lo)
        rows = comm_arcs[c0 : c1 + 1] - lo
        block_tgt, block_w = mapping[g.targets[arc]].astype(ids), g.weights[arc]
        del arc
        counts[c0:c1], at, block_w = _merge_rows(rows, block_tgt, block_w, n_comm)
        tgt[end : end + at] = block_tgt[:at]
        w[end : end + at] = block_w[:at]
        end += at
        # free the merged block before the next one is gathered, so the
        # next block's temporaries can take its place
        del block_tgt, block_w
    del members, first_member, comm_arcs
    # no view of either column exists, so resizing in place is safe
    tgt.resize(end, refcheck=False)
    w.resize(end, refcheck=False)
    return _finish_graph(n_comm, counts, tgt, w)


def _finish_graph(
    n: int, counts: np.ndarray, vs: np.ndarray, ws: np.ndarray, mirror: bool = False
) -> Graph:
    """Check merged CSR arcs and wrap them in a Graph.

    counts[u] is the length of row u; vs and ws are the targets and
    weights in CSR order, each row's targets strictly ascending.  The
    offsets, degrees and total are derived here.  The weights, sums of
    positive entries, need only be finite; they, the symmetry (which with
    mirror on gives both arcs of a pair one weight) and the total are
    checked.  vs becomes the Graph's targets as given, without a copy, so
    its dtype is the caller's: _id_dtype(n) for build_graph and _coarsen.
    """
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
    """Whether every arc (u, v) has a reverse (v, u) whose weight equals
    its own to rtol 1e-12.  With mirror on, each arc of a symmetric graph
    whose source is above its target then takes its reverse's weight bits.

    The arcs are in CSR order with strictly ascending targets per row, so
    each arc's reverse, if any, follows the last target below its source
    in its target's row.  A binary search per row-aligned slice finds that
    target for every arc of the slice at once, in steps of descending
    powers of two, as many as the longest row searched has bits; the
    temporaries are a few slice-length arrays, and no arc-length array is
    made.  Each arc (u, v) found reversed maps to a distinct arc (v, u),
    so the verdict is that of comparing the (u, v) order with the (v, u)
    order.
    """
    mirror = mirror and ws.strides[0]
    last = vs.size - 1
    for r0, r1, lo, hi in _row_slices(offsets):
        if lo == hi:
            continue
        v = vs[lo:hi]
        src = np.repeat(np.arange(r0, r1, dtype=vs.dtype), np.diff(offsets[r0 : r1 + 1]))
        end = offsets[1:][v]
        # the last position in row v whose target is below the source, or
        # the position before the row
        rev = offsets[v]
        rev -= 1
        probe, got = np.empty_like(rev), np.empty_like(v)
        up, below = np.empty(v.size, dtype=bool), np.empty(v.size, dtype=bool)
        # the largest power of two up to the longest row's length
        step = 1 << int((end - rev).max() - 1).bit_length() >> 1
        while step:
            np.add(rev, step, out=probe)
            np.less(probe, end, out=up)
            # a probe past the row reads a clipped position, unused
            np.minimum(probe, last, out=probe)
            # mode clip: unbuffered, and every probe is in range already
            up &= np.less(np.take(vs, probe, out=got, mode="clip"), src, out=below)
            np.add(rev, step, out=rev, where=up)
            step >>= 1
        rev += 1
        if not (np.all(np.less(rev, end, out=up)) and np.array_equal(vs[rev], src)):
            return False
        del end, probe, got, below
        # np.allclose(ws[lo:hi], ws[rev], rtol=1e-12, atol=0.0) for the
        # finite weights that _finish_graph has checked, in place
        back = ws[rev]
        diff = ws[lo:hi] - back
        np.abs(diff, out=diff)
        np.abs(back, out=back)
        back *= 1e-12
        if not np.all(np.less_equal(diff, back, out=up)):
            return False
        if mirror:
            # the reverse of an arc whose source is above its target lies
            # in an earlier row, checked already, and is never written
            np.greater(src, v, out=up)
            ws[lo:hi][up] = ws[rev[up]]
        # free this slice's arrays before the next slice makes its own
        del src, rev, up, back, diff
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
    file gives back the same bits.  The edges are listed ARC_CHUNK at a
    time, as a whole-array tolist would take some 200 bytes per edge.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n {edges.n}\n")
        for pairs, ws in edges.blocks():
            for (u, v), w in zip(pairs.tolist(), ws.tolist()):
                fh.write(f"{u} {v} {w!r}\n")
