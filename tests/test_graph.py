import importlib
import io
import sys
import warnings

import numpy as np
import pytest

from commdet.fixtures import cliques, random_gnp
from commdet.graph import (
    ARC_CHUNK,
    EdgeList,
    GraphParseError,
    _is_symmetric,
    _merge_rows,
    build_graph,
    graph_stats,
    load_graph_file,
    parse_edgelist,
    parse_matrix_market,
    save_edgelist,
)
from commdet.louvain import aggregate_graph, louvain

from conftest import (
    ASYMMETRIC,
    arc_sources,
    bincount_degrees,
    graph_bytes,
    graph_to_edgelist,
    lexsort_build,
    lexsort_symmetric,
    neighbors,
    oracle_graphs,
    reduceat_merge,
    validate_graph,
    weighted_chunk_graph,
    widest_within_rtol,
)

GRAPH_MODULE = importlib.import_module("commdet.graph")


# ---------------------------------------------------------------------------
# MatrixMarket parsing
# ---------------------------------------------------------------------------


def mm(text: str) -> EdgeList:
    return parse_matrix_market(io.StringIO(text))


def test_mm_pattern_general():
    el = mm("%%MatrixMarket matrix coordinate pattern general\n3 3 2\n2 1\n3 2\n")
    assert el.n == 3
    assert el.entries.tolist() == [[1, 0], [2, 1]]
    assert el.weights.tolist() == [1.0, 1.0]


def test_mm_real_weights():
    el = mm("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 2.5\n")
    assert el.entries.tolist() == [[0, 1]]
    assert el.weights.tolist() == [2.5]


def test_mm_integer_field():
    el = mm("%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 3\n")
    assert el.entries.tolist() == [[1, 0]]
    assert el.weights.tolist() == [3.0]


def test_mm_comments_and_blank_lines_skipped():
    el = mm(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "% a comment\n\n3 3 1\n% another\n1 3\n"
    )
    assert el.entries.tolist() == [[0, 2]]
    assert el.weights.tolist() == [1.0]


def test_mm_symmetric_returns_stored_triangle_only():
    el = mm("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 1\n")
    assert el.entries.tolist() == [[1, 0], [2, 0]]
    assert el.weights.tolist() == [1.0, 1.0]


def test_mm_malformed_header():
    with pytest.raises(GraphParseError, match="line 1"):
        mm("%%NotMatrixMarket whatever\n1 1 0\n")


def test_mm_unsupported_field():
    with pytest.raises(GraphParseError, match="complex"):
        mm("%%MatrixMarket matrix coordinate complex general\n1 1 0\n")


def test_mm_index_out_of_range_names_line():
    with pytest.raises(GraphParseError, match="line 3"):
        mm("%%MatrixMarket matrix coordinate pattern general\n3 3 1\n4 1\n")


def test_mm_truncated_entries():
    with pytest.raises(GraphParseError, match="truncated"):
        mm("%%MatrixMarket matrix coordinate pattern general\n4 4 4\n1 2\n2 3\n3 4\n")


@pytest.mark.parametrize("fld, entry", [("real", "1 2 1.0 7"), ("pattern", "1 2 1.0")],
                         ids=["real", "pattern"])
def test_mm_extra_field_names_line(fld, entry):
    with pytest.raises(GraphParseError, match=f"line 4: extra field in {fld} entry"):
        mm(f"%%MatrixMarket matrix coordinate {fld} general\n2 2 2\n2 1{' 1' * (fld == 'real')}\n"
           f"{entry}\n")


def test_mm_non_finite_weight():
    with pytest.raises(GraphParseError, match="non-finite"):
        mm("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 inf\n")


MM_PATTERN = "%%MatrixMarket matrix coordinate pattern general\n"


@pytest.mark.parametrize("text, message", [
    (MM_PATTERN + "\n% c\n", "line 4: missing size line"),
    (MM_PATTERN + "3 3 2\n1 2\n\n% c\n", "line 6: truncated file: expected 2 entries, found 1"),
    (MM_PATTERN + "3 3 2\n1 2", "line 4: truncated file: expected 2 entries, found 1"),
    (MM_PATTERN + "2 2 1\n1 2\n% c\n2 1\n", "line 5: extra entry beyond declared count 1: '2 1'"),
    ("\n\n" + MM_PATTERN + "3 3\n", "line 4: malformed size line: '3 3'"),
    ("\n \n\n", "line 1: missing MatrixMarket header"),
], ids=["no-size-line", "short-then-comment", "short-without-newline", "extra-after-comment",
        "blank-lines-before-header", "blank-lines-only"])
def test_mm_errors_at_the_end_of_the_file_name_their_line(text, message):
    """An early end names the line after the file's last; blank and
    comment lines count."""
    with pytest.raises(GraphParseError) as err:
        mm(text)
    assert str(err.value) == message


def test_mm_extra_entries_rejected():
    with pytest.raises(GraphParseError, match="extra entry"):
        mm("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n2 1\n")


def test_mm_non_square_rejected():
    with pytest.raises(GraphParseError, match="non-square"):
        mm("%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n")


# ---------------------------------------------------------------------------
# Edge-list parsing
# ---------------------------------------------------------------------------


def test_edgelist_basic():
    el = parse_edgelist(io.StringIO("# comment\n0 1\n1 2 2.5\n"))
    assert el.n == 3
    assert el.entries.tolist() == [[0, 1], [1, 2]]
    assert el.weights.tolist() == [1.0, 2.5]


def test_edgelist_n_directive_preserves_isolated():
    el = parse_edgelist(io.StringIO("# n 5\n0 1\n"))
    assert el.n == 5


def test_edgelist_bad_line_names_number():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_edgelist(io.StringIO("0 1\n0 1 2 3\n"))


def test_edgelist_id_beyond_declared_n():
    with pytest.raises(GraphParseError, match="beyond declared"):
        parse_edgelist(io.StringIO("# n 2\n0 5\n"))


def test_a_non_positive_weight_deep_in_a_clean_edgelist_names_its_line(tmp_path):
    """Every block of clean lines takes the bulk path, so only its refusal
    of the 0 weight, which the pair's first entry would net positive,
    hands the second block to the line loop that names the line."""
    lines = [f"{i} {i + 1} 1.5\n" for i in range(2000)]
    lines[1699] = "0 1 0\n"
    path = tmp_path / "g.txt"
    path.write_text("".join(lines))
    for read in (lambda: parse_edgelist(io.StringIO("".join(lines))),
                 lambda: load_graph_file(str(path))):
        with pytest.raises(GraphParseError) as err:
            read()
        assert str(err.value) == "line 1700: non-positive weight: '0 1 0'"


def test_ids_across_the_int32_limit_parse_exactly():
    want = (2**31 + 1, [[2**31 - 1, 2**31]], [0.5])
    el = parse_edgelist(io.StringIO("2147483647 2147483648 0.5\n"))
    assert (el.n, el.entries.tolist(), el.weights.tolist()) == want
    mm = parse_matrix_market(io.StringIO(
        "%%MatrixMarket matrix coordinate real general\n"
        "2147483649 2147483649 1\n2147483648 2147483649 0.5\n"
    ))
    assert (mm.n, mm.entries.tolist(), mm.weights.tolist()) == want


# ---------------------------------------------------------------------------
# build_graph
# ---------------------------------------------------------------------------


def test_build_single_edge():
    g = build_graph(EdgeList(2, [(0, 1, 1.0)]))
    assert g.n == 2
    assert g.targets.tolist() == [1, 0]
    assert g.weights.tolist() == [1.0, 1.0]
    assert g.degrees.tolist() == [1.0, 1.0]
    assert g.total == 2.0
    validate_graph(g)


def test_build_single_edge_with_self_loops():
    g = build_graph(EdgeList(2, [(0, 1, 1.0)]), add_self_loops=True)
    arcs = list(zip(np.repeat([0, 1], np.diff(g.offsets)).tolist(), g.targets.tolist()))
    assert arcs == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert g.degrees.tolist() == [2.0, 2.0]
    assert g.total == 4.0


def test_build_existing_self_loop_kept_not_doubled():
    g = build_graph(EdgeList(2, [(0, 1, 1.0), (0, 0, 3.0)]), add_self_loops=True)
    # vertex 0 keeps its weight-3 loop, vertex 1 gains a weight-1 loop
    assert neighbors(g, 0)[1].tolist() == [3.0, 1.0]
    assert neighbors(g, 1)[1].tolist() == [1.0, 1.0]


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0, 0.0])
def test_build_rejects_a_bad_self_loop_weight(weight):
    with pytest.raises(ValueError, match="self-loop weight must be positive and finite"):
        build_graph(EdgeList(2, [(0, 1, 1.0)]), add_self_loops=True, default_weight=weight)
    # without loop insertion the weight is unused
    build_graph(EdgeList(2, [(0, 1, 1.0)]), default_weight=weight)


def test_load_refuses_a_bad_self_loop_weight_before_reading_the_path(tmp_path, monkeypatch):
    calls = []
    stat = GRAPH_MODULE.os.stat
    monkeypatch.setattr(GRAPH_MODULE.os, "stat", lambda *a, **k: calls.append(a) or stat(*a, **k))
    monkeypatch.setattr(GRAPH_MODULE, "open", lambda *a, **k: calls.append(a) or open(*a, **k),
                        raising=False)
    with pytest.raises(ValueError) as info:
        GRAPH_MODULE.load_graph_file(str(tmp_path / "missing.txt"), add_self_loops=True,
                                     default_weight=0.0)
    assert str(info.value) == "self-loop weight must be positive and finite, got 0.0"
    assert calls == []


def test_build_merges_parallel_arcs():
    g = build_graph(EdgeList(2, [(0, 1, 1.0), (1, 0, 2.0)]))
    assert g.targets.tolist() == [1, 0]
    assert g.weights.tolist() == [3.0, 3.0]


def test_build_rejects_empty_vertex_set():
    with pytest.raises(ValueError, match="empty graph"):
        build_graph(EdgeList(0, []))


def test_build_rejects_zero_total():
    with pytest.raises(ValueError, match="no arcs"):
        build_graph(EdgeList(3, []))


@pytest.mark.parametrize("pair, weight, message", [
    ([0, 3], 1.0, "edge endpoint outside declared vertex range"),
    ([-1, 2], 1.0, "edge endpoint outside declared vertex range"),
    ([1, 2], float("nan"), "non-finite edge weight"),
    ([1, 2], float("inf"), "non-finite edge weight"),
    ([1, 2], 0.0, "non-positive edge weight"),
    ([1, 2], -0.0, "non-positive edge weight"),
], ids=["beyond-n", "negative", "nan", "inf", "zero", "negative-zero"])
def test_build_rejects_a_bad_entry(pair, weight, message):
    edges = EdgeList(3, np.array([[0, 1], pair]), np.array([1.0, weight]))
    with pytest.raises(ValueError) as err:
        build_graph(edges)
    assert str(err.value) == message


@pytest.mark.parametrize("entries, message", [
    ([(0, 1, -1.0), (0, 1, 2.0)], "non-positive edge weight"),
    ([(0, 1, -1.0), (0, 1, float("nan"))], "non-finite edge weight"),
], ids=["netted-positive", "nan-first"])
def test_build_refuses_each_non_positive_weight_after_the_non_finite_ones(entries, message):
    """A repeated pair that would sum to a positive weight is refused all
    the same, and a NaN beside a negative weight is reported as NaN."""
    for build in (build_graph, lexsort_build):
        with pytest.raises(ValueError) as err:
            build(EdgeList(2, entries))
        assert str(err.value) == message


@pytest.mark.parametrize(
    "entries, match",
    [
        ([(0, 1, 1e308), (0, 1, 1e308)], "merged arc weight is not finite"),
        ([(0, 1, 1e308), (0, 2, 1e308)], "total arc weight is not finite"),
    ],
    ids=["merged-weight", "degree"],
)
def test_build_rejects_float64_overflow(entries, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            build_graph(EdgeList(3, entries))


def test_build_no_symmetrize_accepts_full_arc_list():
    g = build_graph(
        EdgeList(2, [(0, 1, 1.5), (1, 0, 1.5)]), symmetrize=False
    )
    assert g.weights.tolist() == [1.5, 1.5]
    validate_graph(g)


def test_build_no_symmetrize_rejects_one_sided_arcs():
    with pytest.raises(ValueError, match="not symmetric"):
        build_graph(EdgeList(3, [(0, 1, 1.0), (1, 2, 1.0)]), symmetrize=False)
    with pytest.raises(ValueError, match="not symmetric"):
        build_graph(
            EdgeList(2, [(0, 1, 1.0), (1, 0, 2.0)]), symmetrize=False
        )


def _complete_arc_columns(k=300):
    """Both arcs of every pair of a complete graph on k vertices, one random
    weight per pair; more arcs than one ARC_CHUNK."""
    iu, iv = np.triu_indices(k, 1)
    w = np.random.default_rng(4).uniform(1.0, 2.0, iu.size)
    us, vs, ws = np.concatenate([iu, iv]), np.concatenate([iv, iu]), np.concatenate([w, w])
    assert us.size > ARC_CHUNK
    # the reverse of the last pair sorts last, far beyond the first chunk
    last = us.size - 1
    assert (us[last], vs[last]) == (k - 1, k - 2)
    return k, us, vs, ws, last


def _assert_verdict(k, us, vs, ws, symmetric):
    """_is_symmetric and the lexsort oracle both give the verdict on the
    arcs in CSR order."""
    offsets, us, vs, ws = _csr_columns(k, us, vs, ws)
    assert _is_symmetric(offsets, vs, ws) == lexsort_symmetric(us, vs, ws) == symmetric


def test_symmetry_check_rejects_an_endpoint_beyond_the_first_chunk():
    k, us, vs, ws, last = _complete_arc_columns()
    vs[last] = k - 1
    with pytest.raises(ValueError) as err:
        build_graph(EdgeList(k, np.column_stack([us, vs]), ws), symmetrize=False)
    assert str(err.value) == ASYMMETRIC
    _assert_verdict(k, us, vs, ws, False)


@pytest.mark.parametrize("rel, symmetric", [(1e-10, False), (1e-13, True)])
def test_symmetry_check_weight_tolerance_beyond_the_first_chunk(rel, symmetric):
    k, us, vs, ws, last = _complete_arc_columns()
    ws[last] *= 1.0 + rel
    _assert_verdict(k, us, vs, ws, symmetric)
    el = EdgeList(k, np.column_stack([us, vs]), ws)
    if symmetric:
        assert build_graph(el, symmetrize=False).n_arcs == us.size
    else:
        with pytest.raises(ValueError) as err:
            build_graph(el, symmetrize=False)
        assert str(err.value) == ASYMMETRIC


def _within_rtol_edges(rng, k):
    """Both arcs of each of a random set of pairs on k vertices, in random
    order: one arc weighs a, the other, on a random side, the widest
    weight the symmetry check accepts for a; and a loop on every third
    vertex."""
    iu, iv = np.triu_indices(k, 1)
    keep = rng.random(iu.size) < rng.uniform(0.05, 0.9)
    iu, iv, loops = iu[keep], iv[keep], np.arange(0, k, 3)
    a = rng.uniform(0.5, 2.0, iu.size)
    b = widest_within_rtol(a)
    flip = rng.random(iu.size) < 0.5
    us, vs = np.concatenate([iu, iv, loops]), np.concatenate([iv, iu, loops])
    ws = np.concatenate([np.where(flip, b, a), np.where(flip, a, b), rng.random(loops.size) + 1])
    order = rng.permutation(us.size)
    return EdgeList(k, np.column_stack([us, vs])[order], ws[order])


def test_no_symmetrize_gives_both_arcs_of_a_pair_one_weight():
    """Without symmetrizing, pairs whose arcs differ within the load's
    rtol 1e-12 load with each arc holding its reverse's weight bits, as
    in the lexsort oracle; so aggregation under any labels sums equal
    weights both ways, and neither it nor a whole run finds a coarse
    graph asymmetric.  The last graph has more arcs than one ARC_CHUNK."""
    rng = np.random.default_rng(19)
    for k in [*rng.integers(2, 40, size=300).tolist(), 260]:
        el = _within_rtol_edges(rng, k)
        g = build_graph(el, symmetrize=False)
        assert graph_bytes(g) == graph_bytes(lexsort_build(el, symmetrize=False))
        rev = np.lexsort((arc_sources(g), g.targets))
        assert g.weights[rev].tobytes() == g.weights.tobytes()
        for labels in (rng.integers(max(1, k // 5), size=k), rng.integers(k, size=k)):
            aggregate_graph(g, labels)
        louvain(g)
    assert g.n_arcs > ARC_CHUNK


def test_build_symmetry_independent_of_input_order():
    rng = np.random.default_rng(3)
    el = random_gnp(40, 0.15, seed=9)
    order = rng.permutation(len(el.weights))
    entries, weights = el.entries[order], el.weights[order]
    assert entries.tolist() != el.entries.tolist()
    g1 = build_graph(EdgeList(el.n, entries, weights))
    g2 = build_graph(el)
    validate_graph(g1)
    assert np.array_equal(g1.offsets, g2.offsets)
    assert np.array_equal(g1.targets, g2.targets)
    assert np.array_equal(g1.weights, g2.weights)


def test_degree_total_consistency():
    g = build_graph(random_gnp(60, 0.1, seed=2, weight_choices=[0.5, 1.0, 2.0]))
    assert g.total == float(np.sum(g.degrees))
    validate_graph(g)


def test_isolated_vertices_keep_zero_degree():
    g = build_graph(EdgeList(4, [(0, 1, 1.0)]))
    assert g.degrees.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_degrees_equal_one_bincount_over_all_arcs():
    for name, g in oracle_graphs():
        expect = bincount_degrees(g)
        assert g.degrees.tobytes() == expect.tobytes(), name
        assert g.total == float(np.sum(expect)), name
    # the check can tell summation orders apart: summing each row pairwise
    # gives other bits than adding its arcs one by one
    g = weighted_chunk_graph()
    pairwise = np.add.reduceat(g.weights, g.offsets[:-1][np.diff(g.offsets) > 0])
    assert pairwise.tobytes() != g.degrees[np.diff(g.offsets) > 0].tobytes()


def _csr_columns(n, us, vs, ws):
    """Arcs in CSR order, the first of each repeated (u, v) kept."""
    order = np.lexsort((vs, us))
    us, vs, ws = us[order], vs[order], ws[order]
    keep = np.ones(us.size, dtype=bool)
    keep[1:] = (us[1:] != us[:-1]) | (vs[1:] != vs[:-1])
    us, vs, ws = us[keep], vs[keep], ws[keep]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(us, minlength=n), out=offsets[1:])
    return offsets, us, vs, ws


def test_symmetry_verdict_equals_lexsort_oracle():
    """Symmetric arc sets, and ones with an arc dropped, added or
    retargeted, a weight changed beyond or within rtol 1e-12, or a
    directed cycle added, which keeps every vertex's in- and out-arc
    counts equal."""
    rng = np.random.default_rng(6)
    verdicts = []
    for _ in range(400):
        n = int(rng.integers(1, 12))
        k = int(rng.integers(1, 30))
        a, b = rng.integers(n, size=k), rng.integers(n, size=k)
        w = rng.choice([0.5, 1.0, 3.0], size=k)
        us, vs, ws = np.concatenate([a, b]), np.concatenate([b, a]), np.concatenate([w, w])
        offsets, us, vs, ws = _csr_columns(n, us, vs, ws)
        i = int(rng.integers(us.size))
        kind = int(rng.integers(7))
        if kind == 1:
            keep = np.arange(us.size) != i
            offsets, us, vs, ws = _csr_columns(n, us[keep], vs[keep], ws[keep])
        elif kind == 2:
            extra = rng.integers(n, size=2)
            offsets, us, vs, ws = _csr_columns(
                n, np.append(us, extra[0]), np.append(vs, extra[1]), np.append(ws, 1.0)
            )
        elif kind == 3:
            vs = vs.copy()
            vs[i] = rng.integers(n)
            offsets, us, vs, ws = _csr_columns(n, us, vs, ws)
        elif kind in (4, 5):
            ws = ws.copy()
            ws[i] *= 1.0 + (1e-10 if kind == 4 else 1e-13)
        elif kind == 6 and n >= 3:
            cycle = rng.permutation(n)[: int(rng.integers(3, n + 1))]
            offsets, us, vs, ws = _csr_columns(
                n, np.concatenate([cycle, us]), np.concatenate([np.roll(cycle, 1), vs]),
                np.concatenate([np.ones(cycle.size), ws]),
            )
        verdict = _is_symmetric(offsets, vs, ws)
        assert verdict == lexsort_symmetric(us, vs, ws)
        verdicts.append(verdict)
    assert 50 < sum(verdicts) < 350
    for _, g in oracle_graphs():
        assert _is_symmetric(g.offsets, g.targets, g.weights)
        ws = g.weights.copy()
        ws[-2] *= 1.0 + 1e-10
        assert not _is_symmetric(g.offsets, g.targets, ws)
        assert not lexsort_symmetric(arc_sources(g), g.targets, ws)


@pytest.mark.parametrize("symmetrize", [True, False], ids=["sym", "no-sym"])
def test_scatter_gives_the_lexsort_arcs_from_int32_and_int64_ids(symmetrize, monkeypatch):
    """The build scatters int32 targets when the ids fit, int64 otherwise
    (here forced by patching _id_dtype); both give the rows, targets and
    weight bits of one lexsort and one reduceat over the arc columns,
    with repeated pairs, loops, inserted loops, empty rows and more
    entries than one scatter slice, and, with symmetrize off, a row alone
    past ARC_CHUNK arcs that _merge_rows takes in a slice of its own.
    _finish_graph is patched to return the merged arcs, so the one-sided
    arcs of symmetrize off are neither rejected nor mirrored."""
    monkeypatch.setattr(
        GRAPH_MODULE, "_finish_graph", lambda n, counts, vs, ws, mirror=False: (counts, vs, ws)
    )

    def check(n, pairs, ws):
        loops = np.setdiff1d(np.arange(n), pairs[pairs[:, 0] == pairs[:, 1], 0])
        us, vs = pairs[:, 0], pairs[:, 1]
        off = us != vs if symmetrize else np.zeros(us.size, dtype=bool)
        want = reduceat_merge(
            n, np.concatenate([us, vs[off], loops]), np.concatenate([vs, us[off], loops]),
            np.concatenate([ws, ws[off], np.full(loops.size, 0.25)]),
        )
        for ids in (np.int32, np.int64):
            with monkeypatch.context() as patch:
                patch.setattr(GRAPH_MODULE, "_id_dtype", lambda n: ids)
                got = build_graph(
                    EdgeList(n, pairs, ws), symmetrize, add_self_loops=True, default_weight=0.25
                )
            assert got[1].dtype == ids
            assert [a.tobytes() for a in (got[0], got[1].astype(np.int64), got[2])] == [
                a.tobytes() for a in want
            ]
        return want

    rng = np.random.default_rng(15)
    for n, k in [(1, 0), (5, 0), (3, 7), (9, 60), (40, 700), (300, ARC_CHUNK + 900)]:
        check(n, rng.integers(n - n // 3, size=(k, 2)), rng.uniform(0.1, 10.0, k))
    if not symmetrize:
        # row 0 has 3 * ARC_CHUNK arcs in runs of hundreds, rows up to
        # n - 51 runs of a few arcs, and the last 50 rows no entries
        n, hub = 3000, 3 * ARC_CHUNK
        us = np.concatenate([np.zeros(hub, dtype=np.int64), rng.integers(1, n - 50, size=150_000)])
        vs = np.concatenate([rng.integers(n, size=hub) % 40, rng.integers(n, size=150_000) % 25])
        want = check(n, np.column_stack([us, vs]), rng.uniform(0.1, 10.0, us.size))
        assert want[1].size < us.size / 2


def _repeated_pairs():
    """Rows [1 0 1 | 0 2 0] of a 3-vertex CSR: each row repeats a pair."""
    offsets = np.array([0, 3, 6, 6])
    return offsets, np.array([1, 0, 1, 0, 2, 0], dtype=np.int32), np.arange(1.0, 7.0)


def test_merge_rows_merges_over_the_front_of_the_columns():
    """Each row is sorted stably by target and the merged arcs are written
    over the front of the given arrays, which keep their length; the
    merged row lengths and arc count come back."""
    offsets, vs, ws = _repeated_pairs()
    counts, at, merged = _merge_rows(offsets, vs, ws, 3)
    assert counts.tolist() == [2, 2, 0] and at == 4 and merged is ws
    assert vs.size == ws.size == 6
    assert vs[:at].tolist() == [0, 1, 0, 2] and ws[:at].tolist() == [2.0, 4.0, 10.0, 5.0]
    # a zero-stride weights view cannot hold a merge: a full column of
    # its value takes its place and holds the merged weights
    offsets, vs, _ = _repeated_pairs()
    counts, at, merged = _merge_rows(offsets, vs, np.broadcast_to(1.0, (6,)), 3)
    assert counts.tolist() == [2, 2, 0] and at == 4
    assert merged.size == 6 and merged.strides[0] and merged.flags.writeable
    assert vs[:at].tolist() == [0, 1, 0, 2] and merged[:at].tolist() == [1.0, 2.0, 2.0, 1.0]


@pytest.mark.parametrize("loops", [False, True])
def test_uniform_build_with_repeated_pairs_merges_once(loops, monkeypatch):
    """A uniform weight with repeated pairs over many slices: the build
    calls _merge_rows once, and its graph is the lexsort build's."""
    rng = np.random.default_rng(8)
    n = 3 * ARC_CHUNK
    pairs = rng.integers(n, size=(4 * ARC_CHUNK, 2))
    # the first pair repeats in the last slice
    pairs[-1] = pairs[0]
    el = EdgeList(n, pairs, np.full(len(pairs), 2.5))
    want = graph_bytes(lexsort_build(el, add_self_loops=loops, default_weight=2.5))
    calls = []
    merge_rows = GRAPH_MODULE._merge_rows

    def counted(*args):
        calls.append(args[2].strides[0])
        return merge_rows(*args)

    monkeypatch.setattr(GRAPH_MODULE, "_merge_rows", counted)
    assert graph_bytes(build_graph(el, add_self_loops=loops, default_weight=2.5)) == want
    # one call, given the zero-stride view of the uniform weight
    assert calls == [0]


def test_build_under_a_tracer_reading_its_locals_gives_the_same_graph():
    """A tracer that reads _build's frame.f_locals holds references to
    its columns; the build still cuts them in place, and the graph is the
    same."""
    rng = np.random.default_rng(4)
    edges = EdgeList(50, rng.integers(50, size=(400, 2)), rng.uniform(0.1, 10.0, 400))
    want = graph_bytes(build_graph(edges, add_self_loops=True))
    code = GRAPH_MODULE._build.__code__

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        assert "held" in frame.f_locals
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        got = build_graph(edges, add_self_loops=True)
    finally:
        sys.settrace(previous)
    assert graph_bytes(got) == want


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


def test_stats_single_edge_graph():
    st = graph_stats(build_graph(EdgeList(2, [(0, 1, 1.0)])))
    assert (st.vertices, st.undirected_edges, st.avg_degree) == (2, 2, 1.0)


def test_stats_triangle():
    st = graph_stats(build_graph(cliques(3, 1)))
    assert (st.vertices, st.undirected_edges, st.avg_degree) == (3, 6, 2.0)


def test_stats_two_triangles_with_loops():
    st = graph_stats(build_graph(cliques(3, 2), add_self_loops=True))
    assert st.undirected_edges == 18


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_edgelist_round_trip_identical_csr(tmp_path, seed):
    el = random_gnp(50, 0.08, seed=seed, weight_choices=[0.5, 1.0, 1.5, 2.0])
    g = build_graph(el, add_self_loops=(seed % 2 == 0))
    path = tmp_path / f"g{seed}.txt"
    save_edgelist(graph_to_edgelist(g), str(path))
    with open(path) as fh:
        g2 = build_graph(parse_edgelist(fh))
    assert g2.n == g.n
    assert np.array_equal(g2.offsets, g.offsets)
    assert np.array_equal(g2.targets, g.targets)
    assert np.array_equal(g2.weights, g.weights)
    assert g2.total == g.total


def test_round_trip_keeps_trailing_isolated_vertex(tmp_path):
    g = build_graph(EdgeList(5, [(0, 1, 1.0)]))
    path = tmp_path / "iso.txt"
    save_edgelist(graph_to_edgelist(g), str(path))
    with open(path) as fh:
        g2 = build_graph(parse_edgelist(fh))
    assert g2.n == 5


def test_two_triangles_shape(triangles):
    assert triangles.n == 6
    assert triangles.n_arcs == 12
    assert graph_stats(triangles).avg_degree == 2.0
