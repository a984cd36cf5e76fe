"""Array-native ingest: EdgeList conversion, exact round trips, and the
memory per arc of ingest and local moving."""

import io
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from array import array

import numpy as np
import pytest

import commdet
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import commdet.formats
import commdet.graph
from commdet.community import modularity, singleton_assignment
from commdet.cli import main
from commdet.fixtures import ring_of_cliques
from commdet.graph import (
    RUN_BYTES_PER_ENTRY,
    RUN_BYTES_PER_VERTEX,
    EdgeList,
    GraphParseError,
    build_graph,
    load_graph_file,
    parse_edgelist,
    parse_matrix_market,
    save_edgelist,
)
from commdet.louvain import Config, _move_phase, aggregate_graph, local_moving

from conftest import graph_bytes, hub_graph, lexsort_build, weighted_chunk_graph

# ---------------------------------------------------------------------------
# EdgeList
# ---------------------------------------------------------------------------


def test_edgelist_splits_tuples_into_pairs_and_weights():
    el = EdgeList(3, [(0, 1, 1), (2, 2, 0.5)])
    assert el.entries.dtype == np.int64 and el.weights.dtype == np.float64
    assert el.entries.tolist() == [[0, 1], [2, 2]]
    assert el.weights.tolist() == [1.0, 0.5]
    assert EdgeList(3).entries.shape == (0, 2)
    assert EdgeList(3).weights.shape == (0,)


def test_edgelist_keeps_its_arrays_without_a_copy():
    for ids in (np.int32, np.int64):
        pairs = np.array([[0, 1], [1, 2]], dtype=ids)
        weights = np.array([2.0, 2.0])
        el = EdgeList(3, pairs, weights)
        assert el.entries is pairs and el.weights is weights


@pytest.mark.parametrize("pairs", [
    np.array([[0, 1], [1, 2]], dtype=np.int16),
    np.array([[0, 1], [1, 2]], dtype=np.uint32),
    [[0, 1], [1, 2]],
    np.array([[0.0, 1.0], [1.0, 2.0]]),
], ids=["int16", "uint32", "list", "integral-floats"])
def test_edgelist_makes_other_ids_int64(pairs):
    el = EdgeList(3, pairs, np.ones(2))
    assert el.entries.dtype == np.int64 and el.entries.tolist() == [[0, 1], [1, 2]]


@pytest.mark.parametrize("make", [
    lambda: EdgeList(3, np.array([[0.5, 1.7]]), np.array([1.0])),
    lambda: EdgeList(3, np.array([[np.nan, 1.0]]), np.array([1.0])),
    lambda: EdgeList(3, [(0.5, 1.7, 1.0)]),
], ids=["fractions", "nan", "tuples"])
def test_edgelist_refuses_ids_that_are_not_integers(make):
    """An id is never truncated: 0.5 would read as vertex 0."""
    with pytest.raises(ValueError, match="^entries must be integers$"):
        make()


# ---------------------------------------------------------------------------
# Id width: int32 when n <= 2**31 - 1, int64 above that
# ---------------------------------------------------------------------------


def test_id_dtype_rule():
    assert commdet.graph._id_dtype(1) is np.int32
    assert commdet.graph._id_dtype(2**31 - 1) is np.int32
    assert commdet.graph._id_dtype(2**31) is np.int64


def test_edgelist_ids_widen_once_when_an_id_passes_int32(monkeypatch):
    """Without a # n directive the ids stay int32 up to 2**31 - 1, and the
    first block with an id past it widens the ids of the earlier blocks to
    int64, once; that block and the later ones are appended as int64."""
    made = []

    def recorded(typecode, initializer=()):
        made.append((typecode, len(initializer)))
        return array(typecode, initializer)

    monkeypatch.setattr(commdet.graph, "array", recorded)
    # blocks of two lines: the first id past int32 is in the second block
    monkeypatch.setattr(commdet.formats, "BLOCK_LINES", 2)
    head = "0 1 0.5\n# a comment\n2147483647 3\n"
    el = parse_edgelist(io.StringIO(head))
    assert el.entries.dtype == np.int32 and el.n == 2**31
    assert el.entries.tolist() == [[0, 1], [2**31 - 1, 3]]
    assert made == [("i", 0), ("d", 0)]
    made.clear()
    el = parse_edgelist(io.StringIO(head + "4 2147483648 2.0\n5 6\n9 4294967296\n"))
    # one int64 array, of the first block's ids: the pair (0, 1)
    assert made == [("i", 0), ("d", 0), ("q", 2)]
    assert el.entries.dtype == np.int64 and el.n == 2**32 + 1
    assert el.entries.tolist() == [[0, 1], [2**31 - 1, 3], [4, 2**31], [5, 6], [9, 2**32]]
    assert el.weights.tolist() == [0.5, 1.0, 2.0, 1.0, 1.0]


@pytest.mark.parametrize("n, top, ids", [
    (2**31, 2**31 - 1, np.int32), (2**31 + 1, 2**31, np.int64), (2**40, 5, np.int32),
], ids=["int32-max", "past-int32", "size-line-past-int32"])
def test_mtx_id_width_follows_the_largest_id(n, top, ids):
    """MatrixMarket ids follow the edge-list rule: int32 until an id
    passes 2**31 - 1, whatever the size line declares.  Parse only:
    nothing of size n is allocated."""
    el = parse_matrix_market(io.StringIO(
        f"%%MatrixMarket matrix coordinate real general\n{n} {n} 2\n1 {top + 1} 0.5\n"
        f"{top + 1} 1 0.5\n"
    ))
    assert el.n == n and el.entries.dtype == ids
    assert el.entries.tolist() == [[0, top], [top, 0]]


def test_built_loaded_and_aggregated_graphs_have_int32_targets(tmp_path):
    txt, mtx = tmp_path / "g.txt", tmp_path / "g.mtx"
    txt.write_text("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n2 3\n")
    mtx.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n4 4 3\n2 1\n3 2\n4 3\n")
    for g in (load_graph_file(str(txt)), load_graph_file(str(mtx), add_self_loops=True)):
        assert g.targets.dtype == np.int32
    g = build_graph(ring_of_cliques(6, 5))
    levels = 0
    while True:
        assert g.targets.dtype == np.int32
        labels = singleton_assignment(g.n)
        local_moving(g, labels, 1e-6)
        if np.unique(labels).size == g.n:
            break
        g, _ = aggregate_graph(g, labels)
        levels += 1
    assert levels >= 1


@pytest.mark.parametrize("pairs, weights, message", [
    (np.zeros((2, 3), dtype=np.int64), np.ones(2), r"entries must have shape \(e, 2\)"),
    (np.zeros(4, dtype=np.int64), np.ones(4), r"entries must have shape \(e, 2\)"),
    (np.zeros((2, 2), dtype=np.int64), np.ones(3), r"weights must have shape \(2,\)"),
    (np.zeros((2, 2), dtype=np.int64), np.ones((2, 1)), r"weights must have shape \(2,\)"),
    (np.zeros((2, 2), dtype=np.int64), 1.0, r"weights must have shape \(2,\)"),
], ids=["three-columns", "flat", "too-many-weights", "column-of-weights", "scalar-weight"])
def test_edgelist_rejects_a_bad_shape(pairs, weights, message):
    with pytest.raises(ValueError, match=message):
        EdgeList(3, pairs, weights)


@pytest.mark.parametrize("name, text", [
    ("a.txt", "# n 3\n0 1 0.5\n1 2\n"),
    ("a.mtx", "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 0.5\n2 3 1\n"),
])
def test_load_graph_file_reads_a_regular_file_twice_and_makes_no_edgelist(
    tmp_path, monkeypatch, name, text
):
    """A regular file is opened for the count pass and the placement pass
    and never parsed into an EdgeList, and gives the graph of its parse."""
    path = tmp_path / name
    path.write_text(text)
    parse = parse_matrix_market if name.endswith(".mtx") else parse_edgelist
    with open(path, encoding="utf-8") as fh:
        want = graph_bytes(build_graph(parse(fh)))
    opened, made = [], []
    monkeypatch.setattr(commdet.graph, "open", _recording_open(opened), raising=False)
    monkeypatch.setattr(EdgeList, "__post_init__", lambda self: made.append(self))
    assert graph_bytes(load_graph_file(str(path))) == want
    assert opened == [str(path)] * 2 and made == []


def _recording_open(opened, before_second=None):
    """open that records each path opened outside /sys, and calls
    before_second() just before the second such open."""
    def recording(file, *args, **kwargs):
        if not str(file).startswith("/sys/"):
            opened.append(str(file))
            if len(opened) == 2 and before_second is not None:
                before_second()
        return open(file, *args, **kwargs)
    return recording


def test_load_graph_file_parses_a_pipe_once(tmp_path):
    """A pipe cannot be read twice: it is parsed into an EdgeList once."""
    text = "# n 4\n0 1 0.5\n1 2\n2 0 2.0\n"
    path = tmp_path / "edges.txt"
    path.write_text(text)
    want = graph_bytes(load_graph_file(str(path), add_self_loops=True))
    fifo = tmp_path / "pipe.txt"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,))
    writer.start()
    try:
        got = graph_bytes(load_graph_file(str(fifo), add_self_loops=True))
    finally:
        writer.join()
    assert got == want


# (file name, text of the count pass, text of the placement pass, the
# first line of the first block of two lines that differs)
CHANGED_FILES = [
    ("target.txt", "# n 4\n0 1\n1 2\n2 3\n", "# n 4\n0 1\n1 3\n2 3\n", 3),
    ("weight.txt", "0 1 1.0\n1 2 1.0\n", "0 1 1.0\n1 2 2.0\n", 1),
    ("longer.txt", "0 1\n1 2\n", "0 1\n1 2\n2 0\n", 3),
    ("shorter.mtx", "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n2 3\n",
     "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n", 3),
    ("invalid.mtx", "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 0.5\n2 3 1\n",
     "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 0.5\n2 x 1\n", 3),
    ("cut.txt", "0 1\n1 2\n2 3\n3 0\n", "0 1\n1 2\n", 3),
]


@pytest.mark.parametrize("name, first, second, line", CHANGED_FILES,
                         ids=[c[0] for c in CHANGED_FILES])
def test_a_file_changed_between_the_passes_exits_1_with_a_message(
    tmp_path, monkeypatch, capsys, name, first, second, line
):
    """Each block of lines the placement pass reads must be the one the
    count pass read, so a change to the ids, the weights or the length
    of the file, or one that makes it invalid, ends with exit code 1 and
    the first line of the first block that differs, never with a
    traceback or a graph mixed from two files."""
    monkeypatch.setattr(commdet.formats, "BLOCK_LINES", 2)
    path = tmp_path / name
    message = f"line {line}: the file changed while it was read"
    for run in ("load", "cli"):
        path.write_text(first)
        monkeypatch.setattr(commdet.graph, "open",
                            _recording_open([], lambda: path.write_text(second)), raising=False)
        if run == "load":
            with pytest.raises(GraphParseError, match=f"^{message}$"):
                load_graph_file(str(path))
        else:
            assert main(["stats", "--input", str(path)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"


# tokens that the bulk path and the line loop must read alike: separators,
# non-ASCII digits, signs, the int32 and int64 edges, non-finite weights
ODD_IDS = ["1_000", "\u0661\u0662", "+3", "-1", "-0", "2147483647", "2147483648",
           "9223372036854775806", "9223372036854775808", "1.0", "0x1", "x", ";"]
ODD_WEIGHTS = ["1e400", "nan", "inf", "-inf", "1_0.5", "\u0661.\u0665", "1e308", "abc",
               "5e-324", "-2.5", "0"]


def _odd_line(rng, fmt):
    """A line that some block may hold beside clean ones."""
    tok = lambda: rng.choice([str(rng.randrange(1, 6)), *ODD_IDS])
    return rng.choice([
        "", "  \t", "# a comment", "% a comment", f"# n {rng.randrange(0, 9)}",
        f"{tok()}", f"{tok()} {tok()}", f"{tok()} {tok()} {rng.choice(ODD_WEIGHTS)}",
        f"{tok()} {tok()} 1.5 2", f"{tok()}\t{tok()}", "1 2;", "1 2 # x",
    ])


def _random_text(rng, fmt):
    """A seeded text of mostly clean lines, CRLF ends here and there."""
    n = rng.randrange(1, 8)
    weighted = rng.random() < 0.5
    lines = []
    for _ in range(rng.randrange(0, 30)):
        if rng.random() < 0.08:
            lines.append(_odd_line(rng, fmt))
            continue
        base = 1 if fmt == "mtx" else 0
        u, v = rng.randrange(base, n + base), rng.randrange(base, n + base)
        mixed = fmt == "edgelist" and rng.random() < 0.05
        lines.append(f"{u} {v} {rng.choice(['0.5', '2', '1e-3', '3.25'])}"
                     if weighted != mixed else f"{u} {v}")
    if fmt == "mtx":
        field = ("real" if weighted else "pattern") if rng.random() < 0.9 else "integer"
        sym = rng.choice(["general", "symmetric"])
        nnz = sum(1 for line in lines if line[:1].isdigit()) + rng.choice([0, 0, 0, 1, -1])
        lines = [f"%%MatrixMarket matrix coordinate {field} {sym}", f"{n} {n} {max(nnz, 0)}",
                 *lines]
    elif rng.random() < 0.7:
        lines.insert(rng.randrange(0, min(3, len(lines) + 1)), f"# n {n}")
    ends = [rng.choice(["\n", "\n", "\n", "\r\n"]) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def _parse_outcome(parse, text):
    """The EdgeList's n, dtypes and bytes, or the exception's type and message."""
    try:
        el = parse(io.StringIO(text))
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc), str(exc)
    return el.n, el.entries.dtype.str, el.entries.tobytes(), el.weights.dtype.str, el.weights.tobytes()


def _typed_outcome(build):
    """The built graph's bytes, or the type and message of its ValueError."""
    try:
        return graph_bytes(build())
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fmt", ["edgelist", "mtx"])
def test_bulk_parse_equals_the_line_loop_on_random_texts(tmp_path, monkeypatch, fmt):
    """On seeded random texts, read in blocks of 1, 3 and 2048 lines,
    parse_* returns the line loop's EdgeList bytes and dtypes or raises
    its exact exception, and load_graph_file, which counts and places
    the same blocks, builds the graph of that EdgeList or fails as its
    build does.  The line loop alone is the reference: the bulk path
    patched away, every block goes through it."""
    parse = parse_matrix_market if fmt == "mtx" else parse_edgelist
    split = commdet.formats._split_entries
    bulk = []

    def counted(*args):
        block = split(*args)
        bulk.append(block is not None)
        return block

    monkeypatch.setattr(commdet.formats, "_split_entries", counted)
    rng = random.Random(21 if fmt == "mtx" else 12)
    path = tmp_path / ("g.mtx" if fmt == "mtx" else "g.txt")
    for case in range(300):
        text = _random_text(rng, fmt)
        with monkeypatch.context() as patch:
            patch.setattr(commdet.formats, "_split_entries", lambda *args: None)
            want = _parse_outcome(parse, text)
        loops = case % 2 == 1
        want_graph = want if isinstance(want[0], type) else _typed_outcome(
            lambda: build_graph(parse(io.StringIO(text)), add_self_loops=loops))
        path.write_bytes(text.encode("utf-8"))
        for lines in (1, 3, 2048):
            monkeypatch.setattr(commdet.formats, "BLOCK_LINES", lines)
            assert _parse_outcome(parse, text) == want, (lines, text)
            got = _typed_outcome(lambda: load_graph_file(str(path), add_self_loops=loops))
            assert got == want_graph, (lines, text)
    # the bulk path read a good share of the blocks
    assert 0.3 < sum(bulk) / len(bulk) < 0.95


def test_build_graph_leaves_entries_unchanged():
    el = EdgeList(4, [(3, 1, 1.0), (0, 2, 2.0), (1, 3, 0.5), (2, 2, 4.0)])
    before = el.entries.copy(), el.weights.copy()
    build_graph(el, add_self_loops=True)
    build_graph(el)
    assert el.entries.tobytes() == before[0].tobytes()
    assert el.weights.tobytes() == before[1].tobytes()


# ---------------------------------------------------------------------------
# Round trips (hypothesis)
# ---------------------------------------------------------------------------

# an example has at most 43 entries, each in at most two arcs, so with
# weights up to 1e306 no merged weight or total can pass the float64 range
# and every drawn example reaches the byte-identity check; the overflow
# branches are covered by explicit examples
WEIGHTS = st.one_of(
    st.sampled_from([5e-324, 1e306, 0.1, 1.0, 2.5]),
    st.floats(min_value=5e-324, max_value=1e306),
)


@st.composite
def edge_tuples(draw):
    """(n, entries) with a duplicate, a reversed pair and a self-loop."""
    n = draw(st.integers(1, 12))
    ids = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(ids, ids, WEIGHTS), min_size=1, max_size=40))
    u, v, w = entries[0]
    entries += [(u, v, w), (v, u, draw(WEIGHTS)), (v, v, draw(WEIGHTS))]
    return n, draw(st.permutations(entries))


@settings(max_examples=150, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=edge_tuples(), loops=st.booleans())
# a merged arc weight overflows
@example(case=(2, [(0, 1, 1e308), (0, 1, 1e308), (1, 0, 1e308), (1, 1, 1.0)]), loops=False)
# every merged weight is finite, the total is not
@example(case=(2, [(0, 1, 1e308), (0, 1, 5e-324), (1, 0, 5e-324), (1, 1, 1.0)]), loops=False)
# a 1e308 weight whose total stays finite
@example(case=(3, [(0, 1, 0.1), (0, 1, 0.1), (1, 0, 2.5), (2, 2, 1e308)]), loops=True)
def test_save_parse_round_trip_and_build_identity(tmp_path, case, loops):
    n, tuples = case
    path = tmp_path / "edges.txt"
    save_edgelist(EdgeList(n, tuples), str(path))
    with open(path, encoding="utf-8") as fh:
        parsed = parse_edgelist(fh)
    assert parsed.n == n
    assert parsed.entries.tolist() == [[u, v] for u, v, _ in tuples]
    assert parsed.weights.tolist() == [w for _, _, w in tuples]
    # merging weights near 1e308 can overflow float64; both paths must then
    # raise the same error, and otherwise build the same bytes
    outcomes = []
    for el in (parsed, EdgeList(n, tuples)):
        try:
            outcomes.append(graph_bytes(build_graph(el, add_self_loops=loops)))
        except ValueError as exc:
            assert "is not finite (float64 overflow)" in str(exc)
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@st.composite
def build_cases(draw):
    """(n, entries): entries drawn over n ids, so some rows stay empty,
    then copies of some of them repeated, reversed, negated, which cancels
    a pair, or reversed at minus half the weight, which leaves a pair
    one-sided in weight."""
    n = draw(st.integers(1, 12))
    ids = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(ids, ids, st.sampled_from([0.5, 1.0, 2.5, 3.0])),
                            max_size=30))
    copies = draw(st.lists(st.tuples(st.sampled_from(entries), st.integers(0, 3)), max_size=8)
                  if entries else st.just([]))
    for (u, v, w), kind in copies:
        entries.append([(u, v, w), (v, u, w), (u, v, -w), (v, u, -w / 2)][kind])
    return n, draw(st.permutations(entries))


@st.composite
def uniform_build_cases(draw):
    """(n, entries) as build_cases draws them, but every entry at one
    weight, 0.75, the inserted loops' weight, or 2.5, and copies only
    repeated or reversed, so some inputs have no repeated pair."""
    n = draw(st.integers(1, 12))
    ids = st.integers(0, n - 1)
    w = draw(st.sampled_from([0.75, 2.5]))
    entries = draw(st.lists(st.tuples(ids, ids, st.just(w)), max_size=30))
    copies = draw(st.lists(st.tuples(st.sampled_from(entries), st.booleans()), max_size=3)
                  if entries else st.just([]))
    for (u, v, w), reverse in copies:
        entries.append((v, u, w) if reverse else (u, v, w))
    return n, draw(st.permutations(entries))


@settings(max_examples=300, database=None, deadline=None)
@given(case=st.one_of(build_cases(), uniform_build_cases()), symmetrize=st.booleans(),
       loops=st.booleans())
@example(case=(3, [(0, 1, 2.0), (1, 0, 2.0), (0, 1, -2.0), (1, 0, -2.0), (2, 2, 1.0)]),
         symmetrize=False, loops=False)
@example(case=(4, [(0, 1, 3.0), (0, 1, -1.0), (1, 0, 2.0)]), symmetrize=False, loops=True)
# uniform: without and with a repeated pair, and loops at another weight
@example(case=(3, [(0, 1, 0.75), (1, 2, 0.75), (2, 2, 0.75)]), symmetrize=True, loops=True)
@example(case=(3, [(0, 1, 0.75), (1, 0, 0.75), (2, 2, 0.75)]), symmetrize=True, loops=True)
@example(case=(3, [(0, 1, 2.5), (1, 2, 2.5)]), symmetrize=True, loops=True)
# uniform, loops inserted at the entries' weight, not symmetrized: without
# and with a repeated pair
@example(case=(3, [(0, 1, 0.75), (1, 0, 0.75)]), symmetrize=False, loops=True)
@example(case=(3, [(0, 1, 0.75), (1, 0, 0.75), (1, 0, 0.75), (0, 1, 0.75)]), symmetrize=False,
         loops=True)
def test_build_equals_the_lexsort_build(case, symmetrize, loops):
    n, tuples = case
    _assert_builds_as_the_lexsort_build(
        EdgeList(n, tuples), symmetrize=symmetrize, add_self_loops=loops, default_weight=0.75
    )


@pytest.mark.parametrize("symmetrize", [True, False], ids=["sym", "no-sym"])
def test_build_equals_the_lexsort_build_over_many_slices(symmetrize):
    """Multi-slice inputs with repeated pairs and loops, repeated pairs in
    the first rows only, so later slices move down without merging, a hub
    row past ARC_CHUNK arcs, and the same arcs rebuilt from both
    directions, which repeats every pair when symmetrized; each with
    random weights and with one weight, the inserted loops' or another."""
    rng = np.random.default_rng(16)
    pairs = rng.integers(2000, size=(40_000, 2))
    cases = [EdgeList(2100, pairs, rng.uniform(0.1, 10.0, 40_000))]
    path = np.arange(100, 30_000)
    pairs = np.concatenate([rng.integers(50, size=(3000, 2)), np.column_stack([path, path + 1])])
    cases.append(EdgeList(30_001, pairs, rng.uniform(0.1, 10.0, len(pairs))))
    for g in (weighted_chunk_graph(), hub_graph()):
        src = np.repeat(np.arange(g.n), np.diff(g.offsets))
        cases.append(EdgeList(g.n, np.column_stack([src, g.targets]), g.weights))
    # a path of one weight has no repeated pair
    cases.append(EdgeList(30_001, np.column_stack([path, path + 1]), np.full(path.size, 2.5)))
    for el, w in zip(cases[:4], [1.0, 2.5, 1.0, 2.5]):
        cases.append(EdgeList(el.n, el.entries, np.full(len(el.weights), w)))
    for el in cases:
        for loops in (False, True):
            _assert_builds_as_the_lexsort_build(el, symmetrize=symmetrize, add_self_loops=loops)


def _assert_builds_as_the_lexsort_build(el, **options):
    """build_graph gives the lexsort oracle's graph bytes, or its
    ValueError message, and a zero-stride weights view exactly when every
    arc weighs the same and no (source, target) pair repeats; otherwise a
    C-contiguous weight column."""
    want = _outcome(lambda: lexsort_build(el, **options))
    try:
        g = build_graph(el, **options)
    except ValueError as exc:
        assert str(exc) == want
        return
    assert graph_bytes(g) == want
    us, vs = el.entries[:, 0], el.entries[:, 1]
    loops = np.setdiff1d(np.arange(el.n), us[us == vs]) if options["add_self_loops"] else []
    weights = set(el.weights.tolist())
    if len(loops):
        weights.add(options.get("default_weight", 1.0))
    arcs = len(us) + options["symmetrize"] * np.count_nonzero(us != vs) + len(loops)
    if len(weights) == 1 and arcs == g.n_arcs:
        assert g.weights.strides == (0,)
    else:
        assert g.weights.flags.c_contiguous and g.weights.strides == (8,)


# (file name, text, whether some arc lacks its reverse); each file has
# repeated and reversed pairs, a self-loop and trailing isolated vertices,
# and the uniform one, whose pairs repeat only when symmetrized, takes no
# weight column unsymmetrized, without loops or with loops of its weight, 1
LOAD_FILES = [
    ("one_sided.txt", "# n 8\n0 1 0.5\n0 1 0.25\n1 0 2.0\n2 2 3.0\n3 4\n4 3\n5 1 1.5\n", True),
    ("both_sides.txt", "# n 6\n0 1 0.5\n1 0 0.5\n2 1\n1 2\n2 2 4.0\n0 1 0.1\n1 0 0.1\n", False),
    ("general.mtx", "%%MatrixMarket matrix coordinate real general\n7 7 7\n"
                    "1 2 0.5\n2 1 0.5\n1 2 1.5\n3 3 2.0\n2 1 1.5\n4 5 1.0\n5 4 1.0\n", False),
    ("symmetric.mtx", "%%MatrixMarket matrix coordinate pattern symmetric\n6 6 4\n"
                      "2 1\n3 1\n3 3\n2 1\n", True),
    ("uniform.txt", "# n 7\n0 1 1.0\n1 0 1.0\n2 2 1.0\n3 4 1.0\n1 2 1.0\n4 3 1.0\n2 1 1.0\n",
     False),
]
LOAD_OPTIONS = [
    {},
    {"add_self_loops": True, "default_weight": 0.25},
    {"symmetrize": False},
    {"symmetrize": False, "add_self_loops": True},
]


def _outcome(build):
    """The built graph's bytes, or the message of the ValueError it raised."""
    try:
        return graph_bytes(build())
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("options", LOAD_OPTIONS, ids=["plain", "loops", "no-sym", "no-sym-loops"])
@pytest.mark.parametrize("name, text, one_sided", LOAD_FILES, ids=[f[0] for f in LOAD_FILES])
def test_load_graph_file_equals_build_of_the_parse(tmp_path, name, text, one_sided, options):
    path = tmp_path / name
    path.write_text(text)
    parse = parse_matrix_market if name.endswith(".mtx") else parse_edgelist

    def parse_then(build):
        with open(path, encoding="utf-8") as fh:
            return build(parse(fh), **options)

    loaded = _outcome(lambda: load_graph_file(str(path), **options))
    assert loaded == _outcome(lambda: parse_then(build_graph))
    assert loaded == _outcome(lambda: parse_then(lexsort_build))
    # only a one-sided file read without symmetrizing fails to build
    failed = one_sided and options.get("symmetrize") is False
    assert isinstance(loaded, str) == failed


def test_saved_weights_are_builtin_float_reprs(tmp_path):
    path = tmp_path / "w.txt"
    save_edgelist(EdgeList(2, [(0, 1, 5e-324), (1, 1, 1e308), (0, 0, 0.1)]), str(path))
    assert path.read_text() == "# n 2\n0 1 5e-324\n1 1 1e+308\n0 0 0.1\n"


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

# tracemalloc peak of load_graph_file per arc of the finished graph, warm
# (numpy 2.4): 15.0 B on the unit-weight planted input with repeated pairs,
# 19.2 B on the weighted input with them and 18.7 B without.  The bound
# leaves 27% headroom over 19.2 B
MAX_LOAD_BYTES_PER_ARC = 24.4

# the same peak on the unit-weight planted input without repeated pairs,
# whose graph takes a zero-stride weights view rather than a column:
# 10.6 B.  The bound leaves 27% headroom
MAX_UNIFORM_LOAD_BYTES_PER_ARC = 13.4

# tracemalloc peak of build_graph per arc on the parse of the same inputs,
# the EdgeList made before tracing: 15.1 B on the unit-weight input with
# repeated pairs, 15.8 and 15.3 B on the weighted one with and without
# them, 7.4 B on the unit-weight one without them.  The bounds leave 26%
# headroom over 15.8 B and 61% over 7.4 B
MAX_BUILD_BYTES_PER_ARC = 19.9
MAX_UNIFORM_BUILD_BYTES_PER_ARC = 11.9

# tracemalloc peak of pass-0 local moving per arc, warm (numpy 2.4): 2.20 B
# in async mode, 2.21 B in sync mode and 2.35 B with two threads.  The
# bound leaves 32% headroom over the largest
MAX_MOVE_BYTES_PER_ARC = 3.1

# tracemalloc peaks per arc of modularity and aggregate_graph under the
# labels of pass-0 local moving, warm (numpy 2.4): 1.68 B and 2.996 B.
# The bounds leave 72% and 0.1% headroom
MAX_MODULARITY_BYTES_PER_ARC = 2.9
MAX_AGGREGATE_BYTES_PER_ARC = 3.0

# peak RSS of ``commdet stats`` on the planted input with 600-vertex blocks
# (266k arcs, repeated pairs), less that of a bare ``import commdet.cli``,
# per arc: 19.7 B (median of 5, 19.1-20.1).  RSS also counts what
# tracemalloc does not see, such as the sorts' own buffers and pages the
# allocator keeps.  The bound leaves 25% headroom over 19.7 B
MAX_STATS_RSS_BYTES_PER_ARC = 24.6

# the same on that input without repeated pairs, whose graph takes a
# zero-stride weights view: 11.8 B (median of 5, 11.6-11.9).  The bound
# leaves 25% headroom over 11.8 B
MAX_STATS_UNIFORM_RSS_BYTES_PER_ARC = 14.8

# peak RSS of ``commdet detect --out-membership`` less that of ``commdet
# stats``, per vertex, on the planted input with 100 blocks of 200: 12.5 to
# 29.9 B (median 19.1, 10 runs, the CLI spawned outside the checkout with
# cached bytecode).  The later phases reuse memory the load and the
# compiler freed, so the reading moves with the heap's layout, and with
# the source text, more than with the code's work.  The gap is the noise
# of two RSS readings, so the bound is set against that noise rather
# than as a share of the measurement
MAX_DETECT_OVER_STATS_RSS_BYTES_PER_VERTEX = 20.0


def _planted_edgelist(path, seed=0, blocks=25, size=200, deg_in=16, deg_out=2, repeats=True,
                      weighted=False):
    """Seeded planted partition in O(m): endpoint pairs drawn inside a block
    or anywhere, loops dropped, repeated pairs left for build_graph to merge
    unless repeats is off, which keeps one entry per unordered pair.  The
    weights are 1.0, or multiples of 1/1000 in (0, 1) when weighted."""
    rng = np.random.default_rng(seed)
    n = blocks * size
    e_in, e_out = n * deg_in // 2, n * deg_out // 2
    block = rng.integers(blocks, size=e_in) * size
    us = np.concatenate([block + rng.integers(size, size=e_in), rng.integers(n, size=e_out)])
    vs = np.concatenate([block + rng.integers(size, size=e_in), rng.integers(n, size=e_out)])
    keep = us != vs
    us, vs = us[keep], vs[keep]
    if not repeats:
        pairs = np.unique(np.minimum(us, vs) * n + np.maximum(us, vs))
        us, vs = pairs // n, pairs % n
    weights = rng.integers(1, 1000, size=us.size) / 1000 if weighted else np.ones(us.size)
    save_edgelist(EdgeList(n, np.column_stack([us, vs]), weights), str(path))


def _warm_up(tmp_path):
    """Run every measured call once, untraced, on a small graph, so one-time
    allocations of the first call in the process are not measured."""
    path = tmp_path / "small.txt"
    _planted_edgelist(path, blocks=2, size=20)
    g = load_graph_file(str(path))
    labels = singleton_assignment(g.n)
    local_moving(g, labels, 0.01)
    modularity(g, labels)
    aggregate_graph(g, labels)


def _traced_peak(fn):
    """The tracemalloc peak of one call, and its result."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def _planted_graph(tmp_path, repeats=True, weighted=False):
    _warm_up(tmp_path)
    path = tmp_path / "planted.txt"
    _planted_edgelist(path, repeats=repeats, weighted=weighted)
    peak, g = _traced_peak(lambda: load_graph_file(str(path)))
    assert 85_000 <= g.n_arcs <= 90_000
    return g, peak / g.n_arcs


def test_load_peak_memory_per_arc(tmp_path):
    assert _planted_graph(tmp_path, repeats=True)[1] <= MAX_LOAD_BYTES_PER_ARC


def test_load_peak_memory_per_arc_without_repeated_pairs(tmp_path):
    g, per_arc = _planted_graph(tmp_path, repeats=False)
    assert g.weights.strides == (0,)
    assert per_arc <= MAX_UNIFORM_LOAD_BYTES_PER_ARC


@pytest.mark.parametrize("repeats", [True, False], ids=["repeats", "no-repeats"])
def test_weighted_load_peak_memory_per_arc(tmp_path, repeats):
    g, per_arc = _planted_graph(tmp_path, repeats=repeats, weighted=True)
    assert g.weights.flags.c_contiguous
    assert per_arc <= MAX_LOAD_BYTES_PER_ARC


@pytest.mark.parametrize("repeats, weighted", [(True, False), (True, True), (False, True),
                                              (False, False)],
                         ids=["repeats", "weighted-repeats", "weighted", "uniform"])
def test_build_peak_memory_per_arc(tmp_path, repeats, weighted):
    """build_graph of a parsed EdgeList, which the caller holds, peaks
    no higher per arc than the load did before it counted and placed."""
    _warm_up(tmp_path)
    path = tmp_path / "planted.txt"
    _planted_edgelist(path, repeats=repeats, weighted=weighted)
    with open(path, encoding="utf-8") as fh:
        edges = parse_edgelist(fh)
    peak, g = _traced_peak(lambda: build_graph(edges))
    uniform = not (repeats or weighted)
    assert (g.weights.strides == (0,)) == uniform
    bound = MAX_UNIFORM_BUILD_BYTES_PER_ARC if uniform else MAX_BUILD_BYTES_PER_ARC
    assert peak / g.n_arcs <= bound


def _move_peak_per_arc(tmp_path, cfg):
    g, _ = _planted_graph(tmp_path)
    peak, _ = _traced_peak(lambda: _move_phase(g, singleton_assignment(g.n), 0.01, cfg))
    return peak / g.n_arcs


def test_local_moving_peak_memory_per_arc(tmp_path):
    assert _move_peak_per_arc(tmp_path, Config()) <= MAX_MOVE_BYTES_PER_ARC


@pytest.mark.parametrize("cfg", [Config(mode="sync"), Config(threads=2)], ids=["sync", "threads2"])
def test_sync_and_threaded_local_moving_peak_memory_per_arc(tmp_path, cfg):
    assert _move_peak_per_arc(tmp_path, cfg) <= MAX_MOVE_BYTES_PER_ARC


def test_modularity_and_aggregation_peak_memory_per_arc(tmp_path):
    g, _ = _planted_graph(tmp_path)
    labels = singleton_assignment(g.n)
    local_moving(g, labels, 0.01)
    peak, _ = _traced_peak(lambda: modularity(g, labels))
    assert peak / g.n_arcs <= MAX_MODULARITY_BYTES_PER_ARC
    peak, _ = _traced_peak(lambda: aggregate_graph(g, labels))
    assert peak / g.n_arcs <= MAX_AGGREGATE_BYTES_PER_ARC


# A small interpreter that runs argv and prints its exit code and peak RSS
# (KiB).  Linux starts a child's ru_maxrss at the peak of the process it
# was spawned from, so the test process, which holds graphs of its own,
# cannot measure the child directly.
_MEASURE = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def _child_peak_rss(*args):
    """The peak RSS in bytes of ``python args`` with src on PYTHONPATH,
    and its standard output."""
    src = os.path.dirname(os.path.dirname(commdet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", _MEASURE, sys.executable, *args],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    *out, last = res.stdout.splitlines()
    code, kib = map(int, last.split())
    assert code == 0, res.stderr
    return kib * 1024, out


def _stats_rss_per_arc(tmp_path, repeats):
    """Peak RSS of ``commdet stats`` on the planted input with 600-vertex
    blocks, less that of a bare ``import commdet.cli``, per arc."""
    path = tmp_path / "planted.txt"
    _planted_edgelist(path, size=600, repeats=repeats)
    base, _ = _child_peak_rss("-c", "import commdet.cli")
    peak, out = _child_peak_rss("-m", "commdet.cli", "stats", "--input", str(path))
    arcs = int(out[0].split("|E|=")[1].split()[0])
    assert 250_000 <= arcs <= 300_000
    return (peak - base) / arcs


def test_stats_peak_rss_per_arc(tmp_path):
    assert _stats_rss_per_arc(tmp_path, repeats=True) <= MAX_STATS_RSS_BYTES_PER_ARC


def test_stats_peak_rss_per_arc_without_repeated_pairs(tmp_path):
    assert _stats_rss_per_arc(tmp_path, repeats=False) <= MAX_STATS_UNIFORM_RSS_BYTES_PER_ARC


def test_detect_peak_rss_over_stats_per_vertex(tmp_path):
    path = tmp_path / "planted.txt"
    _planted_edgelist(path, blocks=100, size=200)
    stats, _ = _child_peak_rss("-m", "commdet.cli", "stats", "--input", str(path))
    detect, _ = _child_peak_rss("-m", "commdet.cli", "detect", "--input", str(path),
                                "--out-membership", str(tmp_path / "membership.txt"))
    assert (detect - stats) / 20_000 <= MAX_DETECT_OVER_STATS_RSS_BYTES_PER_VERTEX


@pytest.mark.parametrize("loops", [False, True], ids=["plain", "self-loops"])
def test_detect_peak_rss_per_vertex_stays_under_the_memory_estimate(tmp_path, loops):
    """The build's memory check counts RUN_BYTES_PER_VERTEX per vertex and
    RUN_BYTES_PER_ENTRY per entry and inserted loop.  On a graph of one
    edge and 400k vertices, detect's peak RSS less that of a bare import
    stays under that estimate, with and without a loop on every vertex."""
    n = 400_000
    path = tmp_path / "sparse.txt"
    path.write_text(f"# n {n}\n0 1\n")
    base, _ = _child_peak_rss("-c", "import commdet.cli")
    peak, _ = _child_peak_rss("-m", "commdet.cli", "detect", "--input", str(path),
                              *["--add-self-loops"] * loops,
                              "--out-membership", str(tmp_path / "membership.txt"))
    assert peak - base <= n * (RUN_BYTES_PER_VERTEX + RUN_BYTES_PER_ENTRY * loops)
