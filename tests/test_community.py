import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commdet.community import (
    Aggregates,
    Dendrogram,
    _check_labels,
    _relabel,
    community_aggregates,
    delta_modularity,
    flatten,
    modularity,
    modularity_bruteforce,
    neighbor_community_weights,
    normalize_labels,
    read_membership,
    singleton_assignment,
    write_membership,
)
from commdet.fixtures import gnp_graph
from commdet.graph import ARC_CHUNK, EdgeList, Graph, build_graph
from commdet.louvain import aggregate_graph, local_moving

from conftest import (
    arc_sources,
    bincount_sigma_in,
    bridged_triangles,
    dict_normalize_labels,
    oracle_graphs,
    oracle_labelings,
    single_edge,
    two_triangles,
    unique_normalize_labels,
    weighted_chunk_graph,
)

TRIANGLE_SPLIT = np.array([0, 0, 0, 1, 1, 1])


# ---------------------------------------------------------------------------
# Closed-form modularity values
# ---------------------------------------------------------------------------


def test_two_triangles_planted_is_half():
    assert modularity(two_triangles(), TRIANGLE_SPLIT) == pytest.approx(0.5, abs=1e-15)


def test_all_in_one_is_zero(triangles):
    assert modularity(triangles, np.zeros(6, dtype=np.int64)) == pytest.approx(0.0, abs=1e-15)


def test_single_edge_singletons_attains_lower_bound():
    assert modularity(single_edge(), np.array([0, 1])) == pytest.approx(-0.5, abs=1e-15)


def test_bridged_triangles_value():
    q = modularity(bridged_triangles(), TRIANGLE_SPLIT)
    assert q == pytest.approx(5.0 / 14.0, abs=1e-12)


def test_zero_labels_on_weighted_graph_still_zero():
    g = build_graph(EdgeList(3, [(0, 1, 2.5), (1, 2, 0.5)]))
    assert modularity(g, np.zeros(3, dtype=np.int64)) == pytest.approx(0.0, abs=1e-15)


def test_singleton_assignment_identity():
    assert singleton_assignment(3).tolist() == [0, 1, 2]
    assert singleton_assignment(1).tolist() == [0]
    with pytest.raises(ValueError):
        singleton_assignment(0)


def test_singleton_q_negative_without_self_loops():
    for seed in range(5):
        g = gnp_graph(24, 0.2, seed=seed)
        assert modularity(g, singleton_assignment(g.n)) < 0.0


# ---------------------------------------------------------------------------
# Oracle agreement and range
# ---------------------------------------------------------------------------


def test_bruteforce_matches_on_examples():
    cases = [
        (two_triangles(), TRIANGLE_SPLIT),
        (two_triangles(), np.zeros(6, dtype=np.int64)),
        (single_edge(), np.array([0, 1])),
        (bridged_triangles(), TRIANGLE_SPLIT),
    ]
    for g, a in cases:
        assert abs(modularity(g, a) - modularity_bruteforce(g, a)) <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_bruteforce_matches_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 33))
    g = gnp_graph(n, 0.2, seed=seed, weight_choices=[0.5, 1.0, 1.5, 2.0])
    a = rng.integers(0, n, n)
    assert abs(modularity(g, a) - modularity_bruteforce(g, a)) <= 1e-12
    # single relabeling keeps them agreeing
    a2 = a.copy()
    a2[int(rng.integers(0, n))] = int(rng.integers(0, n))
    assert abs(modularity(g, a2) - modularity_bruteforce(g, a2)) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_q_stays_in_range(seed):
    rng = np.random.default_rng(100 + seed)
    g = gnp_graph(30, 0.15, seed=seed)
    for _ in range(10):
        a = rng.integers(0, g.n, g.n)
        q = modularity(g, a)
        assert -0.5 - 1e-12 <= q <= 1.0 + 1e-12


def test_relabeling_invariance_is_exact():
    rng = np.random.default_rng(7)
    g = gnp_graph(40, 0.12, seed=3, weight_choices=[0.5, 1.0, 2.5])
    for _ in range(20):
        a = rng.integers(0, g.n, g.n)
        norm, _ = normalize_labels(a)
        assert modularity(g, a) == modularity(g, norm)


def test_relabel_in_place_equals_the_dict_loop_oracle():
    """_relabel writes the first-occurrence mapping over labels in [0, n)
    and returns its count: few and many distinct labels, singletons, and
    more labels than one slice of ARC_CHUNK."""
    rng = np.random.default_rng(8)
    cases = [rng.integers(0, int(rng.integers(1, n + 1)), n) for n in (1, 2, 7, 40, 300)]
    cases += [np.arange(50)[::-1].copy(), rng.integers(0, 30, 3 * ARC_CHUNK + 5),
              rng.permutation(2 * ARC_CHUNK)]
    for labels in cases:
        labels = labels.astype(np.int64)
        want, count = dict_normalize_labels(labels)
        assert _relabel(labels) == count
        assert labels.tobytes() == want.tobytes()


@pytest.mark.parametrize("score", [modularity, modularity_bruteforce])
def test_modularity_of_a_zero_total_graph_is_refused(score):
    empty = np.zeros(0)
    g = Graph(2, np.zeros(3, dtype=np.int64), empty.astype(np.int32), empty, np.zeros(2), 0.0)
    with pytest.raises(ValueError) as info:
        score(g, np.zeros(2, dtype=np.int64))
    assert str(info.value) == "modularity undefined for zero-total graph"


def test_modularity_rejects_bad_labels(triangles):
    with pytest.raises(ValueError):
        modularity(triangles, np.zeros(5, dtype=np.int64))
    with pytest.raises(ValueError):
        modularity(triangles, np.array([0, 0, 0, 0, 0, 9]))


@pytest.mark.parametrize("labels", [
    [0.2, 0.9, 0.5, 1.1, 1.7, 1.3],
    [np.nan, 0, 0, 1, 1, 1],
    [np.inf, 0, 0, 1, 1, 1],
    [1e30, 0, 0, 1, 1, 1],
], ids=["fractions", "nan", "inf", "past-int64"])
def test_labels_that_are_not_integers_are_refused(tmp_path, labels):
    """No label is truncated to an integer or made a community of NaN."""
    g = two_triangles()
    uses = [
        lambda: modularity(g, labels),
        lambda: community_aggregates(g, labels),
        lambda: normalize_labels(labels),
        lambda: aggregate_graph(g, labels),
        lambda: local_moving(g, np.array(labels), 1e-6),
        lambda: flatten(Dendrogram([np.array(labels)])),
        lambda: write_membership(str(tmp_path / "members.txt"), labels),
    ]
    for use in uses:
        with pytest.raises(ValueError, match="must be integers$"):
            use()


@pytest.mark.parametrize("labels", [
    np.array([0, 0, 0, 1, 1, 1], dtype=np.int32),
    np.array([0, 0, 0, 1, 1, 1], dtype=np.uint8),
    np.array([False, False, False, True, True, True]),
    [0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
    [0, 0, 0, 1, 1, 1],
], ids=["int32", "uint8", "bool", "integral-floats", "list"])
def test_integer_labels_of_any_dtype_read_as_int64(labels):
    g = two_triangles()
    assert _check_labels(g, labels).dtype == np.int64
    assert modularity(g, labels) == modularity(g, TRIANGLE_SPLIT)
    assert normalize_labels(labels)[0].tolist() == TRIANGLE_SPLIT.tolist()


def test_int64_labels_are_checked_without_a_copy():
    labels = TRIANGLE_SPLIT.astype(np.int64)
    assert _check_labels(two_triangles(), labels) is labels


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


def test_aggregates_two_triangles():
    agg = community_aggregates(two_triangles(), TRIANGLE_SPLIT)
    assert agg.sigma_tot.tolist() == [6.0, 6.0]
    assert agg.sigma_in.tolist() == [6.0, 6.0]
    assert agg.sizes.tolist() == [3, 3]


def test_aggregates_reject_fewer_slots_than_labels():
    with pytest.raises(ValueError, match=r"^n_communities smaller than max label \+ 1$"):
        community_aggregates(two_triangles(), TRIANGLE_SPLIT, n_communities=1)


def test_aggregates_bridged_triangles():
    agg = community_aggregates(bridged_triangles(), TRIANGLE_SPLIT)
    assert agg.sigma_tot.tolist() == [7.0, 7.0]
    assert agg.sigma_in.tolist() == [6.0, 6.0]


def test_aggregates_singletons_match_definitions():
    g = build_graph(EdgeList(3, [(0, 1, 2.0), (1, 2, 1.0), (0, 0, 4.0)]))
    agg = community_aggregates(g, singleton_assignment(3))
    assert agg.sigma_tot.tolist() == g.degrees.tolist()
    assert agg.sigma_in.tolist() == [4.0, 0.0, 0.0]


@pytest.mark.parametrize("seed", range(8))
def test_aggregates_invariants(seed):
    rng = np.random.default_rng(seed)
    g = gnp_graph(40, 0.1, seed=seed, weight_choices=[0.5, 1.0, 1.5])
    a = rng.integers(0, g.n, g.n)
    agg = community_aggregates(g, a)
    assert abs(float(np.sum(agg.sigma_tot)) - g.total) <= 1e-9 * g.total
    assert int(np.sum(agg.sizes)) == g.n
    assert np.all(agg.sigma_in >= -1e-12)
    assert np.all(agg.sigma_in <= agg.sigma_tot + 1e-12)
    # modularity computed from the aggregates equals the oracle
    assert abs(modularity(g, a) - modularity_bruteforce(g, a)) <= 1e-12


def test_sigma_in_equals_one_bincount_over_all_arcs():
    for name, g in oracle_graphs():
        for lname, labels in oracle_labelings(g):
            sigma_in = community_aggregates(g, labels).sigma_in
            assert sigma_in.tobytes() == bincount_sigma_in(g, labels).tobytes(), (name, lname)
    # the check can tell summation orders apart: a bincount per ARC_CHUNK
    # slice, the slices added up afterwards, gives other bits
    g = weighted_chunk_graph()
    labels = dict(oracle_labelings(g))["four"]
    lab_src = labels[arc_sources(g)]
    internal = lab_src == labels[g.targets]
    per_slice = sum(
        np.bincount(lab_src[lo : lo + ARC_CHUNK][internal[lo : lo + ARC_CHUNK]],
                    weights=g.weights[lo : lo + ARC_CHUNK][internal[lo : lo + ARC_CHUNK]],
                    minlength=4)
        for lo in range(0, g.n_arcs, ARC_CHUNK)
    )
    assert per_slice.tobytes() != bincount_sigma_in(g, labels).tobytes()


# ---------------------------------------------------------------------------
# Delta modularity
# ---------------------------------------------------------------------------


def test_delta_zero_for_staying():
    g = two_triangles()
    agg = community_aggregates(g, TRIANGLE_SPLIT)
    k_map, _ = neighbor_community_weights(g, TRIANGLE_SPLIT, 0)
    assert delta_modularity(g, agg, 0, k_map, 0, 0) == 0.0


def test_delta_single_edge_merge_is_half():
    g = single_edge()
    a = np.array([0, 1])
    agg = community_aggregates(g, a)
    k_map, _ = neighbor_community_weights(g, a, 0)
    assert delta_modularity(g, agg, 0, k_map, 0, 1) == pytest.approx(0.5, abs=1e-12)


def test_delta_into_fresh_empty_community_matches_oracle():
    g = bridged_triangles()
    a = np.zeros(6, dtype=np.int64)
    agg = community_aggregates(g, a, n_communities=2)
    k_map, _ = neighbor_community_weights(g, a, 2)
    dq = delta_modularity(g, agg, 2, k_map, 0, 1)
    before = modularity_bruteforce(g, a)
    a2 = a.copy()
    a2[2] = 1
    after = modularity_bruteforce(g, a2)
    assert dq == pytest.approx(after - before, abs=1e-9)


def test_delta_requires_nonempty_source():
    g = two_triangles()
    agg = community_aggregates(g, TRIANGLE_SPLIT, n_communities=3)
    with pytest.raises(ValueError, match="empty"):
        delta_modularity(g, agg, 0, {2: 0.0}, 2, 0)


@pytest.mark.parametrize("scale", [1e-200, 1e154, 1e300])
def test_delta_does_not_depend_on_the_weight_scale(scale):
    """At these scales 2m^2 underflows to 0 or overflows float64, so the
    gain's terms are scaled by m first."""
    a = np.array([0, 0, 0, 1, 1, 1])
    for u in range(6):
        dqs = []
        for g in (bridged_triangles(), bridged_triangles(scale)):
            k_map, _ = neighbor_community_weights(g, a, u)
            dqs.append(delta_modularity(g, community_aggregates(g, a), u, k_map, a[u], 1 - a[u]))
        assert dqs[1] == pytest.approx(dqs[0], abs=1e-12), u


@pytest.mark.parametrize("seed", range(10))
def test_delta_matches_recomputation_exhaustively(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 25))
    g = gnp_graph(n, 0.25, seed=seed)
    a = rng.integers(0, max(2, n // 3), n)
    a, n_comm = normalize_labels(a)
    agg = community_aggregates(g, a, n_communities=n_comm + 1)
    q0 = modularity(g, a)
    for u in range(n):
        k_map, _ = neighbor_community_weights(g, a, u)
        from_c = int(a[u])
        for to_c in list(k_map) + [n_comm]:
            dq = delta_modularity(g, agg, u, k_map, from_c, to_c)
            trial = a.copy()
            trial[u] = to_c
            assert abs(dq - (modularity(g, trial) - q0)) <= 1e-9


# ---------------------------------------------------------------------------
# normalize / flatten
# ---------------------------------------------------------------------------


def test_normalize_first_occurrence_order():
    out, n_comm = normalize_labels(np.array([5, 5, 2]))
    assert out.tolist() == [0, 0, 1]
    assert n_comm == 2


def test_normalize_equals_dict_loop_oracle():
    """Random labelings, with negative labels, labels near the int64
    limits, long runs and an empty one: the same ids, dtype and count."""
    rng = np.random.default_rng(17)
    extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 2**40])
    cases = [np.array([], dtype=np.int64), extremes, extremes[::-1]]
    for _ in range(300):
        size = int(rng.integers(1, 400))
        span = int(rng.choice([2, 10, 1000, 2**62]))
        a = rng.integers(-span, span, size=size)
        if rng.random() < 0.3:
            a[rng.integers(size, size=size // 2)] = rng.choice(extremes)
        if rng.random() < 0.3:
            a = np.sort(a)
        cases.append(a)
    for a in cases:
        got, n_comm = normalize_labels(a)
        want, want_n = dict_normalize_labels(a)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert n_comm == want_n


@st.composite
def label_arrays(draw):
    """Labels drawn with repeats from a pool of distinct values: small
    ones around zero, negatives, and values far apart near the int64
    limits, so the labels have gaps."""
    values = st.one_of(st.integers(-20, 20), st.integers(-(2**63), 2**63 - 1))
    pool = draw(st.lists(values, min_size=1, max_size=40, unique=True))
    return np.array(draw(st.lists(st.sampled_from(pool), max_size=300)), dtype=np.int64)


@settings(max_examples=300, database=None, deadline=None)
@given(labels=label_arrays())
@example(labels=np.array([], dtype=np.int64))
@example(labels=np.array([7, -3, 7, 2**62, -3, -(2**63)], dtype=np.int64))
def test_normalize_equals_the_unique_oracle(labels):
    got, n_comm = normalize_labels(labels)
    want, want_n = unique_normalize_labels(labels)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert n_comm == want_n


def test_normalize_idempotent():
    a = np.array([0, 1, 1, 2])
    out, n_comm = normalize_labels(a)
    assert out.tolist() == a.tolist()
    again, _ = normalize_labels(out)
    assert again.tolist() == out.tolist()


def test_normalize_singletons_unchanged():
    a = singleton_assignment(6)
    out, n_comm = normalize_labels(a)
    assert out.tolist() == a.tolist()
    assert n_comm == 6


def test_flatten_single_level_is_itself():
    lev = np.array([0, 0, 1, 1])
    assert flatten(Dendrogram(levels=[lev])).tolist() == lev.tolist()


def test_flatten_composes():
    d = Dendrogram(levels=[np.array([0, 0, 1, 1]), np.array([0, 0])])
    assert flatten(d).tolist() == [0, 0, 0, 0]


def test_flatten_rejects_empty_and_inconsistent():
    with pytest.raises(ValueError):
        flatten(Dendrogram())
    with pytest.raises(ValueError, match="level 1"):
        flatten(Dendrogram(levels=[np.array([0, 0, 1]), np.array([0])]))


@pytest.mark.parametrize("levels, k", [
    ([[0, 0, -1], [7]], 0),
    ([[0, 0, 1], [0, -1]], 1),
    ([[0, 1], [0, 1], [0, -5]], 2),
], ids=["first", "second", "last"])
def test_flatten_rejects_a_negative_label_on_any_level(levels, k):
    """A negative label would index from the end of the next level."""
    with pytest.raises(ValueError, match=rf"^level {k} has a negative label$"):
        flatten(Dendrogram(levels=[np.array(lev) for lev in levels]))


def test_flatten_matches_per_vertex_walk():
    rng = np.random.default_rng(12)
    n = 30
    lev0, c0 = normalize_labels(rng.integers(0, 12, n))
    lev1, c1 = normalize_labels(rng.integers(0, 5, c0))
    lev2, _ = normalize_labels(rng.integers(0, 3, c1))
    d = Dendrogram(levels=[lev0, lev1, lev2])
    flat = flatten(d)
    for u in range(n):
        walked = int(lev2[int(lev1[int(lev0[u])])])
        assert flat[u] == walked


# ---------------------------------------------------------------------------
# Membership files
# ---------------------------------------------------------------------------


def test_membership_round_trip(tmp_path):
    labels = np.array([0, 0, 1, 2, 1])
    path = tmp_path / "members.txt"
    write_membership(str(path), labels)
    assert read_membership(str(path)).tolist() == labels.tolist()
    assert path.read_text().splitlines()[0] == "0 0"


def test_membership_rejects_gaps(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0\n2 1\n")
    with pytest.raises(ValueError, match="0..n-1"):
        read_membership(str(path))


@pytest.mark.parametrize("text, message", [
    ("0 0\n1 1 1\n", "line 2: expected 'vertex community'"),
    ("# only\n\n# comments\n", "empty membership file"),
])
def test_membership_refusals_name_their_fault(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_membership(str(path))
    assert str(info.value) == message


def test_membership_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("0 0\n0 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_membership(str(path))


@pytest.mark.parametrize("text, line", [
    ("x 2\n", 1), ("0 0\n# c\n1 2.5\n", 3),
    pytest.param("0 0\n1 " + "x" * (1 << 20) + "\n", 2, id="a-1-MB-line"),
])
def test_membership_names_the_line_of_a_non_integer(tmp_path, text, line):
    """The message quotes the line, cut to its first 80 characters and
    the count of the rest when it is longer."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_membership(str(path))
    bad = text.splitlines()[line - 1]
    quoted = repr(bad) if len(bad) <= 80 else f"{bad[:80]!r} and {len(bad) - 80} more characters"
    assert str(err.value) == f"line {line}: non-integer vertex or community: {quoted}"
    assert len(str(err.value).encode()) < 300
