"""Array-native ingest: EdgeList conversion, exact round trips, and the
memory per arc of ingest and local moving."""

import tracemalloc

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from commdet.community import singleton_assignment
from commdet.graph import (
    EDGE_DTYPE,
    EdgeList,
    build_graph,
    edge_array,
    load_graph_file,
    parse_edgelist,
    save_edgelist,
)
from commdet.louvain import local_moving

# ---------------------------------------------------------------------------
# EdgeList
# ---------------------------------------------------------------------------


def test_edgelist_converts_tuples_to_edge_array():
    el = EdgeList(3, [(0, 1, 1), (2, 2, 0.5)])
    assert el.entries.dtype == EDGE_DTYPE
    assert el.entries.tolist() == [(0, 1, 1.0), (2, 2, 0.5)]
    assert EdgeList(3).entries.dtype == EDGE_DTYPE
    assert EdgeList(3).entries.size == 0


def test_edgelist_keeps_an_edge_array_as_is():
    entries = edge_array([0, 1], [1, 2], 2.0)
    assert EdgeList(3, entries).entries is entries


def test_build_graph_leaves_entries_unchanged():
    el = EdgeList(4, [(3, 1, 1.0), (0, 2, 2.0), (1, 3, 0.5), (2, 2, 4.0)])
    before = el.entries.copy()
    build_graph(el, add_self_loops=True)
    build_graph(el)
    assert el.entries.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# Round trips (hypothesis)
# ---------------------------------------------------------------------------

WEIGHTS = st.one_of(
    st.sampled_from([5e-324, 1e308, 0.1, 1.0, 2.5]),
    st.floats(min_value=5e-324, max_value=1e308),
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


def _csr_bytes(g):
    return (g.n, g.offsets.tobytes(), g.targets.tobytes(), g.weights.tobytes(),
            g.degrees.tobytes(), repr(g.total))


@settings(max_examples=150, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=edge_tuples(), loops=st.booleans())
def test_save_parse_round_trip_and_build_identity(tmp_path, case, loops):
    n, tuples = case
    path = tmp_path / "edges.txt"
    save_edgelist(EdgeList(n, tuples), str(path))
    with open(path, encoding="utf-8") as fh:
        parsed = parse_edgelist(fh)
    assert parsed.n == n
    assert parsed.entries.tolist() == tuples
    # merging weights near 1e308 can overflow float64; both paths must then
    # raise the same error, and otherwise build the same bytes
    outcomes = []
    for el in (parsed, EdgeList(n, tuples)):
        try:
            outcomes.append(_csr_bytes(build_graph(el, add_self_loops=loops)))
        except ValueError as exc:
            assert "is not finite (float64 overflow)" in str(exc)
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_saved_weights_are_builtin_float_reprs(tmp_path):
    path = tmp_path / "w.txt"
    save_edgelist(EdgeList(2, [(0, 1, 5e-324), (1, 1, 1e308), (0, 0, 0.1)]), str(path))
    assert path.read_text() == "# n 2\n0 1 5e-324\n1 1 1e+308\n0 0 0.1\n"


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

# tracemalloc peak of load_graph_file per arc of the finished graph: 62 B
# measured with array columns (numpy 2.4), 188 B when entries were a list
# of tuples; the bound leaves 24% headroom
MAX_LOAD_BYTES_PER_ARC = 77

# tracemalloc peak of pass-0 local moving per arc: 41.5 B measured with
# kernel lists that share one int per vertex id and one float per distinct
# weight (numpy 2.4), 79 B when tolist() boxed a fresh int and float per
# arc; the bound leaves 25% headroom
MAX_MOVE_BYTES_PER_ARC = 52


def _planted_edgelist(path, seed=0, blocks=25, size=200, deg_in=16, deg_out=2):
    """Seeded planted partition in O(m): endpoint pairs drawn inside a block
    or anywhere, loops dropped, repeated pairs left for build_graph to merge."""
    rng = np.random.default_rng(seed)
    n = blocks * size
    e_in, e_out = n * deg_in // 2, n * deg_out // 2
    block = rng.integers(blocks, size=e_in) * size
    us = np.concatenate([block + rng.integers(size, size=e_in), rng.integers(n, size=e_out)])
    vs = np.concatenate([block + rng.integers(size, size=e_in), rng.integers(n, size=e_out)])
    keep = us != vs
    save_edgelist(EdgeList(n, edge_array(us[keep], vs[keep], 1.0)), str(path))


def test_load_peak_memory_per_arc(tmp_path):
    path = tmp_path / "planted.txt"
    _planted_edgelist(path)
    tracemalloc.start()
    try:
        g = load_graph_file(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 85_000 <= g.n_arcs <= 90_000
    assert peak / g.n_arcs <= MAX_LOAD_BYTES_PER_ARC


def test_local_moving_peak_memory_per_arc(tmp_path):
    path = tmp_path / "planted.txt"
    _planted_edgelist(path)
    g = load_graph_file(str(path))
    tracemalloc.start()
    try:
        local_moving(g, singleton_assignment(g.n), 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.n_arcs <= MAX_MOVE_BYTES_PER_ARC
