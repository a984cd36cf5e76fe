import importlib
import struct
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from commdet.community import (
    community_aggregates,
    flatten,
    modularity,
    modularity_bruteforce,
    neighbor_community_weights,
    normalize_labels,
    singleton_assignment,
)
from commdet.fixtures import gnp_graph
from commdet.graph import ARC_CHUNK, EdgeList, Graph, _row_slices, build_graph
from commdet.louvain import (
    Config,
    _move_phase,
    aggregate_graph,
    best_move,
    local_moving,
    louvain,
    sweep_tolerance,
)

from conftest import (
    ASYMMETRIC,
    InlinePool,
    arc_sources,
    bridged_triangles,
    fixture_suite,
    graph_bytes,
    hub_graph,
    lexsort_aggregate,
    list_move_phase,
    neighbors,
    oracle_graphs,
    oracle_labelings,
    sbm_graph,
    single_edge,
    two_triangles,
    weighted_chunk_graph,
)

TRIANGLE_SPLIT = np.array([0, 0, 0, 1, 1, 1])

# the package re-exports the louvain function under the module's name
LOUVAIN_MODULE = importlib.import_module("commdet.louvain")
GRAPH_MODULE = importlib.import_module("commdet.graph")


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = Config()
    assert cfg.tolerance_initial == 0.01
    assert cfg.tolerance_decline_factor == 10.0
    assert cfg.pass_tolerance == 0.0
    assert cfg.mode == "async"
    assert cfg.threads == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tolerance_initial": 0.0},
        {"tolerance_initial": -1.0},
        {"tolerance_decline_factor": 0.5},
        {"pass_tolerance": -0.1},
        {"max_passes": 0},
        {"max_iterations_per_pass": 0},
        {"mode": "banana"},
        {"tolerance_decline_factor": float("nan")},
        {"pass_tolerance": float("nan")},
        {"tolerance_initial": float("nan")},
        {"threads": 0},
        {"threads": float("nan")},
        {"threads": 1.7},
        {"threads": float("inf")},
        {"threads": 65},
        {"mode": "sync", "threads": 2},
        {"max_passes": 2.5},
        {"max_passes": float("inf")},
        {"max_iterations_per_pass": 2.5},
        {"max_iterations_per_pass": float("nan")},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        Config(**kwargs)


def test_config_integral_float_threads_become_int():
    for name in ("max_passes", "max_iterations_per_pass", "threads"):
        value = getattr(Config(**{name: 2.0}), name)
        assert value == 2 and type(value) is int, name
    # the cap is checked on the converted count
    with pytest.raises(ValueError, match=r"^threads must be at most 64, got 65$"):
        Config(threads=65.0)


# ---------------------------------------------------------------------------
# neighbor_community_weights
# ---------------------------------------------------------------------------


def test_scan_isolated_self_loop_vertex():
    g = build_graph(EdgeList(3, [(0, 0, 2.0), (1, 2, 1.0)]))
    scan = neighbor_community_weights(g, singleton_assignment(3), 0)[0]
    assert scan == {0: 0.0}


def test_scan_returns_loop_weight_as_builtin_numbers():
    g = build_graph(EdgeList(3, [(0, 0, 2.5), (0, 1, 1.0), (0, 2, 0.5)]))
    k_map, loop_w = neighbor_community_weights(g, np.array([0, 1, 1]), 0)
    assert k_map == {0: 0.0, 1: 1.5}
    assert loop_w == 2.5
    assert all(type(c) is int and type(w) is float for c, w in k_map.items())
    assert type(loop_w) is float


def test_scan_bridge_vertex():
    g = bridged_triangles()
    scan = neighbor_community_weights(g, TRIANGLE_SPLIT, 2)[0]
    assert scan == {0: 2.0, 1: 1.0}


def test_scan_all_neighbors_in_own_community():
    g = build_graph(EdgeList(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]))
    scan = neighbor_community_weights(g, np.zeros(3, dtype=np.int64), 1)[0]
    assert scan == {0: 2.0}


# ---------------------------------------------------------------------------
# best_move
# ---------------------------------------------------------------------------


def test_best_move_stays_when_no_gain():
    g = two_triangles()
    agg = community_aggregates(g, TRIANGLE_SPLIT)
    scan = neighbor_community_weights(g, TRIANGLE_SPLIT, 0)[0]
    to_c, dq = best_move(scan, agg.sigma_tot, float(g.degrees[0]), 0, g.total / 2)
    assert (to_c, dq) == (0, 0.0)


def test_best_move_single_edge():
    g = single_edge()
    a = np.array([0, 1])
    agg = community_aggregates(g, a)
    scan = neighbor_community_weights(g, a, 0)[0]
    to_c, dq = best_move(scan, agg.sigma_tot, 1.0, 0, g.total / 2)
    assert to_c == 1
    assert dq == pytest.approx(0.5, abs=1e-12)


def test_best_move_tie_breaks_to_lower_id():
    # path 0-1-2 with singleton communities is symmetric around vertex 1
    g = build_graph(EdgeList(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    a = singleton_assignment(3)
    agg = community_aggregates(g, a)
    scan = neighbor_community_weights(g, a, 1)[0]
    assert scan == {1: 0.0, 0: 1.0, 2: 1.0}
    to_c, dq = best_move(scan, agg.sigma_tot, 2.0, 1, g.total / 2)
    assert to_c == 0
    assert dq > 0


# ---------------------------------------------------------------------------
# local_moving
# ---------------------------------------------------------------------------


def test_local_moving_fixpoint_makes_no_moves():
    g = two_triangles()
    labels = TRIANGLE_SPLIT.copy()
    iters, gain, moves = local_moving(g, labels, 0.01)
    assert iters == 1
    assert gain == 0.0
    assert moves == 0
    assert labels.tolist() == TRIANGLE_SPLIT.tolist()


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_local_moving_single_edge_merges(mode):
    g = single_edge()
    labels = singleton_assignment(2)
    local_moving(g, labels, 0.01, mode=mode)
    assert labels[0] == labels[1]
    assert modularity(g, labels) == pytest.approx(0.0, abs=1e-15)


def test_local_moving_two_triangles_async():
    g = two_triangles()
    labels = singleton_assignment(6)
    iters, gain, moves = local_moving(g, labels, 0.01)
    norm, n_comm = normalize_labels(labels)
    assert n_comm == 2
    assert norm.tolist() == TRIANGLE_SPLIT.tolist()
    assert modularity(g, norm) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_async_gain_matches_realized_q(seed):
    g = gnp_graph(80, 0.08, seed=seed)
    labels = singleton_assignment(g.n)
    q0 = modularity(g, labels)
    _, gain, _ = local_moving(g, labels, 1e-6)
    q1 = modularity(g, labels)
    assert abs((q1 - q0) - gain) <= 1e-6


def test_local_moving_respects_iteration_cap():
    g = gnp_graph(60, 0.1, seed=1)
    labels = singleton_assignment(g.n)
    iters, _, _ = local_moving(g, labels, 1e-12, max_iterations=1)
    assert iters == 1


def test_local_moving_rejects_unknown_mode():
    g = single_edge()
    with pytest.raises(ValueError):
        local_moving(g, singleton_assignment(2), 0.01, mode="jacobian")


@pytest.mark.parametrize("tolerance", [float("nan"), -1.0], ids=["nan", "negative"])
def test_local_moving_rejects_a_tolerance_no_gain_can_meet(tolerance):
    """A NaN or negative tolerance would run every one of max_iterations
    sweeps; 0 stays valid."""
    g = single_edge()
    labels = singleton_assignment(2)
    with pytest.raises(ValueError, match=rf"^tolerance must be >= 0, got {tolerance!r}$"):
        local_moving(g, labels, tolerance)
    assert labels.tolist() == [0, 1]
    assert local_moving(g, labels, 0.0)[0] >= 1


def _run_engine(engine, g, labels):
    if engine == "threads2":
        return _move_phase(g, labels, 0.01, Config(threads=2))
    return local_moving(g, labels, 0.01, mode=engine)


@pytest.mark.parametrize("engine", ["async", "sync", "threads2"])
@pytest.mark.parametrize("bad", [6, -1], ids=["at-least-n", "negative"])
def test_local_moving_rejects_labels_outside_range(engine, bad):
    interval = sys.getswitchinterval()
    labels = np.array([0, 0, 0, bad, bad, bad])
    with pytest.raises(ValueError, match=r"^labels must lie in \[0, n\)$"):
        _run_engine(engine, two_triangles(), labels)
    assert labels.tolist() == [0, 0, 0, bad, bad, bad]
    assert sys.getswitchinterval() == interval


@pytest.mark.parametrize("engine", ["async", "sync", "threads2"])
@pytest.mark.parametrize("shape", [(5,), (7,), (6, 1)], ids=["short", "long", "column"])
def test_local_moving_rejects_labels_of_another_shape(engine, shape):
    with pytest.raises(ValueError, match=rf"^labels must have length 6, got \({shape[0]},"):
        _run_engine(engine, two_triangles(), np.zeros(shape, dtype=np.int64))


@pytest.mark.parametrize("engine", ["async", "sync", "threads2"])
def test_local_moving_updates_int32_and_strided_labels_in_place(engine, inline_pool):
    g = gnp_graph(60, 0.1, seed=3)
    want_labels = singleton_assignment(g.n)
    want = _run_engine(engine, g, want_labels)
    assert want[2] > 0
    base = np.repeat(np.arange(g.n), 2)
    int32 = np.arange(g.n, dtype=np.int32)
    for labels in (int32, base[::2]):
        assert repr(_run_engine(engine, g, labels)) == repr(want)
        assert labels.tolist() == want_labels.tolist()
    assert int32.dtype == np.int32
    assert base[1::2].tolist() == list(range(g.n))


@pytest.mark.parametrize("engine", ["async", "sync", "threads2"])
def test_local_moving_rejects_read_only_labels(engine, inline_pool, monkeypatch):
    """Refused before the first sweep, whether or not the dtype converts."""
    swept = []
    for name in ("_sweep_range", "_sync_iteration"):
        sweep = getattr(LOUVAIN_MODULE, name)
        monkeypatch.setattr(LOUVAIN_MODULE, name,
                            lambda *args, sweep=sweep: swept.append(1) or sweep(*args))
    for dtype in (np.int64, np.int32):
        labels = np.arange(6, dtype=dtype)
        labels.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            _run_engine(engine, two_triangles(), labels)
        assert labels.tolist() == list(range(6))
    assert swept == []


def test_async_every_accepted_move_improves_q():
    # replay the ascending sweep with the shared primitives and check Q
    # after every accepted move
    for seed in (0, 1, 2):
        g = gnp_graph(25, 0.2, seed=seed)
        labels = singleton_assignment(g.n)
        sigma_tot = community_aggregates(g, labels).sigma_tot
        q = modularity(g, labels)
        for _ in range(3):
            for u in range(g.n):
                scan = neighbor_community_weights(g, labels, u)[0]
                own = int(labels[u])
                k_u = float(g.degrees[u])
                to_c, dq = best_move(scan, sigma_tot, k_u, own, g.total / 2)
                if dq > 0 and to_c != own:
                    sigma_tot[own] -= k_u
                    sigma_tot[to_c] += k_u
                    labels[u] = to_c
                    q_new = modularity(g, labels)
                    assert q_new > q - 1e-12
                    assert abs((q_new - q) - dq) <= 1e-9
                    q = q_new


def _kernel_cases():
    """The fixture suite plus weights that repeat at both ends of the
    float64 range (1e308 only once, as a loop, so the total stays finite),
    self-loops, and a graph with many distinct weights."""
    repeated = build_graph(EdgeList(6, [
        (0, 1, 5e-324), (1, 2, 0.1), (2, 3, 5e-324), (3, 4, 0.1), (4, 5, 0.1),
        (5, 0, 5e-324), (0, 3, 0.1), (1, 1, 0.1), (2, 2, 5e-324), (4, 4, 1e308),
    ]))
    rng = np.random.default_rng(8)
    us, vs = rng.integers(50, size=400), rng.integers(50, size=400)
    distinct = build_graph(EdgeList(50, np.column_stack([us, vs]), rng.random(400)))
    return fixture_suite() + [("repeated_weights", repeated), ("distinct_weights", distinct)]


def _bits(floats):
    return [struct.pack("d", x) for x in floats]


def _assert_views_equal_tolist(views, g, labels, name):
    """Each memoryview a sweep receives gives, at every index, what
    tolist() holds there: the same value, builtin type and float bits.
    int64 labels are the caller's own array."""
    offs, tgt, wts, degs, labs, sigma_tot = views
    assert labs.obj is labels, name
    refs = (g.offsets, g.targets, g.weights, g.degrees, labels, sigma_tot.obj)
    for view, ref, kind in zip(views, refs, (int, int, float, float, int, float)):
        got, want = [view[k] for k in range(len(view))], ref.tolist()
        assert got == want and all(type(x) is kind for x in got), name
        if kind is float:
            assert _bits(got) == _bits(want), name


def test_kernel_inputs_equal_tolist(inline_pool, monkeypatch):
    """What every sweep reads is what tolist() holds, in async, sync and
    threaded local moving, on weights that repeat at both ends of the
    float64 range, many distinct weights, several ARC_CHUNKs of weighted
    arcs and a unit-weight graph whose weights are a zero-stride view."""
    run = {}

    def recorder(sweep):
        def recorded(*args):
            views = [a for a in args if isinstance(a, memoryview)]
            _assert_views_equal_tolist(views, *run["case"])
            run["calls"] += 1
            return sweep(*args)
        return recorded

    for name in ("_sweep_range", "_sync_iteration"):
        monkeypatch.setattr(LOUVAIN_MODULE, name, recorder(getattr(LOUVAIN_MODULE, name)))
    view = sbm_graph(4, 30, 0.3, 0.02, seed=1)
    assert view.weights.strides == (0,)
    rng = np.random.default_rng(2)
    cases = _kernel_cases() + [("weighted_chunks", weighted_chunk_graph()), ("unit_view", view)]
    for name, g in cases:
        engines = [Config(), Config(mode="sync"), Config(threads=2)]
        for labels in (singleton_assignment(g.n), rng.integers(g.n, size=g.n)):
            for cfg in engines:
                run.update(case=(g, labels, (name, cfg)), calls=0)
                _move_phase(g, labels, 0.01, replace(cfg, max_iterations_per_pass=2))
                assert run["calls"] >= 1, (name, cfg)


# every engine through _move_phase; threads > 1 runs on an InlinePool
ENGINES = [
    ("async", Config()),
    ("sync", Config(mode="sync")),
    ("threads1", Config(threads=1)),
    ("threads2", Config(threads=2)),
]


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(LOUVAIN_MODULE, "ThreadPoolExecutor", InlinePool)


def _phase_outcome(move_phase, g, labels, tolerance, cfg):
    """Everything a local-moving phase returns, floats as repr, and the
    labels it leaves."""
    iters, gain, moves, conflicts, drift = move_phase(g, labels, tolerance, cfg)
    return iters, repr(gain), moves, conflicts, repr(drift), labels.tolist()


def _assert_engines_match_list_oracle(g, labels, tolerance, name, cap=500):
    for engine, cfg in ENGINES:
        cfg = replace(cfg, max_iterations_per_pass=cap)
        got = _phase_outcome(_move_phase, g, labels.copy(), tolerance, cfg)
        want = _phase_outcome(list_move_phase, g, labels.copy(), tolerance, cfg)
        assert got == want, (name, engine)


def test_kernel_lists_leave_engine_results_unchanged(inline_pool, monkeypatch):
    """Array state gives what list state gives, in every engine and in
    whole runs."""
    rng = np.random.default_rng(4)
    for name, g in _kernel_cases():
        for labels in (singleton_assignment(g.n), rng.integers(g.n, size=g.n)):
            _assert_engines_match_list_oracle(g, labels, 1e-6, name)
    # the larger graphs' sync passes run for over a hundred iterations at
    # this tolerance; six cover every path, the truncated stop included
    for name, g in (("weighted_chunks", weighted_chunk_graph()), ("hub", hub_graph())):
        _assert_engines_match_list_oracle(g, singleton_assignment(g.n), 1e-6, name, cap=6)
    for name, g in _kernel_cases():
        results = []
        for move_phase in (_move_phase, list_move_phase):
            monkeypatch.setattr(LOUVAIN_MODULE, "_move_phase", move_phase)
            runs = []
            for _, cfg in ENGINES:
                d, rep = louvain(g, cfg)
                runs.append((
                    [level.tolist() for level in d.levels],
                    d.per_level_q,
                    [(p.vertices, p.iterations, p.q_after, p.conflicts) for p in rep.passes],
                    rep.final_q,
                    rep.max_sigma_drift,
                ))
            results.append(runs)
        assert results[0] == results[1], name


@st.composite
def small_weighted_graphs(draw):
    """A weighted graph of at most 12 vertices with self-loops, and labels."""
    n = draw(st.integers(1, 12))
    ids = st.integers(0, n - 1)
    weight = st.one_of(st.sampled_from([0.1, 1.0, 2.5]), st.floats(1e-3, 1e3))
    edges = draw(st.lists(st.tuples(ids, ids, weight), min_size=1, max_size=40))
    labels = draw(st.lists(ids, min_size=n, max_size=n))
    return build_graph(EdgeList(n, edges)), np.array(labels, dtype=np.int64)


@settings(max_examples=150, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=small_weighted_graphs(), tolerance=st.sampled_from([0.0, 1e-6, 0.01]))
def test_engines_equal_list_oracle_on_small_weighted_graphs(inline_pool, case, tolerance):
    g, labels = case
    _assert_engines_match_list_oracle(g, labels, tolerance, "drawn")
    _assert_engines_match_list_oracle(g, singleton_assignment(g.n), tolerance, "drawn")


def test_engines_equal_on_a_weights_view_and_a_weight_column(inline_pool):
    """A unit-weight graph whose weights are a zero-stride view and the
    same graph with a materialized weight column give the same labels,
    gain and Q bits, coarse graph bytes and whole runs in every engine."""
    g = sbm_graph(8, 150, 0.1, 0.004, seed=3)
    assert g.weights.strides == (0,) and g.n_arcs > ARC_CHUNK
    full = replace(g, weights=np.ascontiguousarray(g.weights))
    assert full.weights.strides == (8,)
    for engine, cfg in ENGINES:
        outcomes = []
        for h in (g, full):
            labels = singleton_assignment(h.n)
            phase = _phase_outcome(_move_phase, h, labels, 1e-6, cfg)
            mapping, n_comm = normalize_labels(labels)
            coarse = graph_bytes(GRAPH_MODULE._coarsen(h, mapping, n_comm))
            d, rep = louvain(h, cfg)
            runs = ([level.tolist() for level in d.levels], d.per_level_q, rep.final_q)
            outcomes.append((phase, repr(modularity(h, mapping)), coarse, runs))
        assert outcomes[0] == outcomes[1], engine


def test_a_weights_view_is_read_only_as_a_weight_column_is():
    view, column = sbm_graph(2, 10, 0.5, 0.1, seed=1).weights, weighted_chunk_graph().weights
    assert view.strides == (0,) and column.strides == (8,)
    for weights in (view, column):
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 2.0


# ---------------------------------------------------------------------------
# aggregate_graph
# ---------------------------------------------------------------------------


def test_aggregate_identity_collapse():
    g = bridged_triangles()
    g2, mapping = aggregate_graph(g, singleton_assignment(g.n))
    assert mapping.tolist() == list(range(g.n))
    assert np.array_equal(g2.offsets, g.offsets)
    assert np.array_equal(g2.targets, g.targets)
    assert np.array_equal(g2.weights, g.weights)


def test_aggregate_two_triangles_to_isolated_supers():
    g2, _ = aggregate_graph(two_triangles(), TRIANGLE_SPLIT)
    assert g2.n == 2
    assert g2.targets.tolist() == [0, 1]
    assert g2.weights.tolist() == [6.0, 6.0]
    assert g2.total == 12.0


def test_aggregate_bridged_triangles():
    g2, _ = aggregate_graph(bridged_triangles(), TRIANGLE_SPLIT)
    assert g2.n == 2
    # each super-vertex has a weight-6 self-loop and a weight-1 cross arc
    assert neighbors(g2, 0)[0].tolist() == [0, 1]
    assert neighbors(g2, 0)[1].tolist() == [6.0, 1.0]
    assert g2.total == 14.0


@pytest.mark.parametrize("seed", range(20))
def test_aggregate_q_invariance_and_total_conservation(seed):
    rng = np.random.default_rng(seed)
    g = gnp_graph(40, 0.12, seed=seed, weight_choices=[0.5, 1.0, 1.5])
    a = rng.integers(0, 8, g.n)
    g2, mapping = aggregate_graph(g, a)
    assert abs(g2.total - g.total) <= 1e-9 * g.total
    q_fine = modularity(g, a)
    q_coarse = modularity(g2, singleton_assignment(g2.n))
    assert abs(q_fine - q_coarse) <= 1e-12


def test_aggregate_equals_lexsort_oracle():
    for name, g in oracle_graphs():
        moved = singleton_assignment(g.n)
        local_moving(g, moved, 0.01)
        for lname, labels in oracle_labelings(g) + [("moved", moved)]:
            g2, mapping = aggregate_graph(g, labels)
            ref, ref_mapping = lexsort_aggregate(g, labels)
            assert graph_bytes(g2) == graph_bytes(ref), (name, lname)
            assert mapping.tobytes() == ref_mapping.tobytes(), (name, lname)
    # the runs here are thousands of arcs long, where adding them one by
    # one gives other bits than reduceat's pairwise sums
    g = weighted_chunk_graph()
    ref, mapping = lexsort_aggregate(g, dict(oracle_labelings(g))["four"])
    sequential = np.zeros((4, 4))
    np.add.at(sequential, (mapping[arc_sources(g)], mapping[g.targets]), g.weights)
    assert sequential[arc_sources(ref), ref.targets].tobytes() != ref.weights.tobytes()


@pytest.mark.parametrize("shape", [(5,), (7,), (6, 1)], ids=["short", "long", "column"])
def test_aggregate_rejects_labels_of_another_shape(shape):
    message = rf"^labels must have length 6, got \({shape[0]},"
    with pytest.raises(ValueError, match=message):
        aggregate_graph(two_triangles(), np.zeros(shape, dtype=np.int64))


def test_aggregate_merges_each_block_once(monkeypatch):
    g = weighted_chunk_graph()
    labels = dict(oracle_labelings(g))["scattered"]
    want = aggregate_graph(g, labels)
    mapping, n_comm = normalize_labels(labels)
    # where each community's arcs end in the grouped arc order
    comm_arcs = np.cumsum(np.bincount(mapping, np.diff(g.offsets), n_comm), dtype=np.int64)
    blocks = len(list(_row_slices(np.concatenate([[0], comm_arcs]))))
    assert blocks > 4
    merged = []
    merge_rows = GRAPH_MODULE._merge_rows

    def counted(offsets, vs, ws, n):
        merged.append(offsets.size - 1)
        return merge_rows(offsets, vs, ws, n)

    monkeypatch.setattr(GRAPH_MODULE, "_merge_rows", counted)
    got = aggregate_graph(g, labels)
    assert len(merged) == blocks and sum(merged) == n_comm
    assert graph_bytes(got[0]) == graph_bytes(want[0])


def _unchecked_graph(n, arcs):
    """A Graph straight from (u, v, w) arcs in CSR order, without
    build_graph's checks, so aggregation meets the input itself."""
    us, vs, ws = (np.array(col) for col in zip(*arcs))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(us, minlength=n), out=offsets[1:])
    return Graph(n, offsets, vs, ws, np.bincount(us, weights=ws, minlength=n), 1.0)


@pytest.mark.parametrize("arcs, labels, message", [
    # a one-sided arc
    ([(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)], [0, 1, 2], ASYMMETRIC),
    # the two arcs from community 0 into vertex 2 merge past float64
    ([(0, 2, 1e308), (1, 2, 1e308), (2, 0, 1e308), (2, 1, 1e308)], [0, 0, 1],
     "merged arc weight is not finite (float64 overflow)"),
    # every merged weight is finite, the total is not
    ([(0, 1, 1e308), (1, 0, 1e308)], [0, 1], "total arc weight is not finite (float64 overflow)"),
])
def test_aggregate_errors_match_lexsort_oracle(arcs, labels, message):
    g = _unchecked_graph(len(labels), arcs)
    for aggregate in (aggregate_graph, lexsort_aggregate):
        with pytest.raises(ValueError) as err:
            aggregate(g, np.array(labels))
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# louvain pass loop
# ---------------------------------------------------------------------------


def test_louvain_two_triangles():
    d, rep = louvain(two_triangles())
    assert rep.final_q == pytest.approx(0.5, abs=1e-9)
    assert rep.n_passes <= 2
    flat, n_comm = normalize_labels(flatten(d))
    assert n_comm == 2
    assert flat.tolist() == TRIANGLE_SPLIT.tolist()


@pytest.mark.parametrize(
    "cfg", [Config(), Config(mode="sync"), Config(threads=4)],
    ids=["async", "sync", "threads4"],
)
def test_flattened_dendrogram_is_already_normalized(cfg):
    """Every level is a first-occurrence mapping, and composing such maps
    keeps first-occurrence order, so detect writes flatten(d) as it is."""
    for name, g in fixture_suite():
        flat = flatten(louvain(g, cfg)[0])
        assert flat.tolist() == normalize_labels(flat)[0].tolist(), name


@pytest.mark.parametrize("scale", [1e-200, 1e154, 1e300])
@pytest.mark.parametrize("cfg", [cfg for _, cfg in ENGINES], ids=[name for name, _ in ENGINES])
def test_louvain_does_not_depend_on_the_weight_scale(cfg, scale):
    """Modularity has no weight scale, and neither has the partition: at
    these scales 2m^2 underflows to 0 or overflows float64."""
    want_d, want = louvain(bridged_triangles(), cfg)
    d, rep = louvain(bridged_triangles(scale), cfg)
    assert [lev.tolist() for lev in d.levels] == [lev.tolist() for lev in want_d.levels]
    assert rep.final_q == pytest.approx(want.final_q, abs=1e-12)


def test_louvain_self_loops_only_graph():
    g = build_graph(EdgeList(4, []), add_self_loops=True)
    d, rep = louvain(g)
    assert rep.n_passes == 1
    assert flatten(d).tolist() == [0, 1, 2, 3]


def test_louvain_per_level_q_non_decreasing_on_suite():
    for name, g in fixture_suite():
        d, rep = louvain(g, Config(pass_tolerance=0.0))
        qs = d.per_level_q
        for a, b in zip(qs, qs[1:]):
            assert b >= a - 1e-9, f"{name}: per-level Q decreased"


def test_louvain_final_q_matches_bruteforce_of_flattening():
    for name, g in fixture_suite():
        d, rep = louvain(g)
        assert abs(rep.final_q - modularity_bruteforce(g, flatten(d))) <= 1e-9, name


def test_louvain_deterministic():
    g = gnp_graph(120, 0.06, seed=4)
    d1, r1 = louvain(g)
    d2, r2 = louvain(g)
    assert len(d1.levels) == len(d2.levels)
    for a, b in zip(d1.levels, d2.levels):
        assert np.array_equal(a, b)
    assert d1.per_level_q == d2.per_level_q
    assert r1.total_iterations == r2.total_iterations


def test_louvain_truncation_flag_on_pass_cap():
    g = gnp_graph(100, 0.08, seed=2)
    _, rep = louvain(g, Config(max_passes=1))
    assert rep.truncated
    assert rep.n_passes == 1


def test_mass_drift_equals_the_whole_array_drift():
    """_mass_drift, over ranges of communities and slices of vertices,
    gives the bits of the largest |bincount(labels, degrees) - sigma_tot|,
    with one range and with several."""
    rng = np.random.default_rng(21)
    for n in (7, ARC_CHUNK + 1, 3 * ARC_CHUNK + 7):
        labels = rng.integers(0, n, n)
        labels[: n // 2] = rng.integers(0, max(n // 50, 1), n // 2)
        degrees = rng.uniform(0.1, 10.0, n)
        sigma = np.bincount(labels, weights=degrees, minlength=n)
        sigma[rng.integers(0, n, 5)] *= 1.0 + rng.uniform(-1e-12, 1e-12, 5)
        want = float(np.max(np.abs(np.bincount(labels, weights=degrees, minlength=n) - sigma)))
        assert repr(LOUVAIN_MODULE._mass_drift(labels, degrees, sigma)) == repr(want)


def test_louvain_normalizes_each_pass_once(monkeypatch):
    """Each pass relabels its labels in place, once; _relabel gives
    normalize_labels' mapping."""
    calls = []
    relabel = LOUVAIN_MODULE._relabel

    def counted(labels):
        calls.append(len(labels))
        want = normalize_labels(labels)
        assert relabel(labels) == want[1]
        assert labels.tobytes() == want[0].tobytes()
        return want[1]

    monkeypatch.setattr(LOUVAIN_MODULE, "_relabel", counted)
    g = weighted_chunk_graph()
    _, rep = louvain(g)
    assert rep.n_passes > 2
    assert calls == [p.vertices for p in rep.passes]


def test_louvain_report_counts():
    g = gnp_graph(60, 0.1, seed=9)
    _, rep = louvain(g)
    assert rep.total_iterations == sum(p.iterations for p in rep.passes)
    assert all(p.iterations <= 500 for p in rep.passes)
    assert rep.n_passes <= 20
    assert rep.passes[0].vertices == g.n


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_tolerance_grid_shape_and_order():
    g = two_triangles()
    rows = sweep_tolerance(g, [1.0, 0.1, 0.01], [10.0, 100.0])
    assert len(rows) == 6
    assert [r.params["tolerance"] for r in rows] == [1.0, 1.0, 0.1, 0.1, 0.01, 0.01]
    assert [r.params["decline_factor"] for r in rows] == [10.0, 100.0] * 3


def test_sweep_single_cell_matches_direct_run():
    g = bridged_triangles()
    cfg = Config(tolerance_initial=0.01, tolerance_decline_factor=10.0)
    _, rep = louvain(g, cfg)
    (row,) = sweep_tolerance(g, [0.01], [10.0], cfg)
    assert row.report.final_q == rep.final_q
    assert row.report.n_passes == rep.n_passes
    assert row.report.total_iterations == rep.total_iterations


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep_tolerance(two_triangles(), [], [10.0])


# ---------------------------------------------------------------------------
# sync mode
# ---------------------------------------------------------------------------


def test_sync_two_triangles_recovers_planted():
    d, rep = louvain(two_triangles(), Config(mode="sync"))
    assert rep.final_q == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_sync_quality_close_to_async(seed):
    g = gnp_graph(200, 0.05, seed=seed)
    _, ra = louvain(g, Config())
    _, rs = louvain(g, Config(mode="sync"))
    assert abs(ra.final_q - rs.final_q) <= 0.05
    assert not rs.truncated
