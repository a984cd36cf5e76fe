"""End-to-end acceptance suite.

Each test implements one numbered criterion at its stated tolerance and
prints a single status line; run with ``pytest tests/test_acceptance.py -v -s``
to see them.  The whole module is budgeted to finish in a few minutes on a
laptop.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from commdet.cli import main
from commdet.community import (
    community_aggregates,
    delta_modularity,
    flatten,
    modularity,
    modularity_bruteforce,
    neighbor_community_weights,
    normalize_labels,
    read_membership,
    singleton_assignment,
)
from commdet.fixtures import cliques, gnp_graph, ring_of_cliques
from commdet.graph import build_graph, save_edgelist
from commdet.louvain import Config, aggregate_graph, louvain, sweep_tolerance
from commdet.louvain import Config as ParallelConfig, louvain as parallel_louvain

from conftest import fixture_suite, read_sweep_csv, sbm_graph, single_edge, two_triangles

TRIANGLE_SPLIT = np.array([0, 0, 0, 1, 1, 1])


def criterion(num: int):
    """Print one PASS/FAIL line per acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs) or ""
            except BaseException:
                print(f"[criterion {num:2d}] FAIL  {fn.__name__}")
                raise
            print(f"[criterion {num:2d}] PASS  {detail}")

        return wrapper

    return deco


@criterion(1)
def test_c1_oracle_equivalence():
    """modularity == modularity_bruteforce within 1e-12 on 100x5 random cases."""
    worst = 0.0
    for seed in range(100):
        n = 4 + seed % 61
        weights = [0.5, 1.0, 1.5, 2.0] if seed % 2 else None
        g = gnp_graph(n, 0.15, seed=seed, weight_choices=weights)
        arng = np.random.default_rng(10_000 + seed)
        for _ in range(5):
            a = arng.integers(0, g.n, g.n)
            diff = abs(modularity(g, a) - modularity_bruteforce(g, a))
            worst = max(worst, diff)
            assert diff <= 1e-12
    return f"500 cases, worst |fast - brute| = {worst:.2e}"


@criterion(2)
def test_c2_delta_modularity_exactness():
    """delta_modularity equals Q_after - Q_before within 1e-9, exhaustively."""
    checked = 0
    worst = 0.0
    for seed in range(100):
        n = 4 + seed % 21
        g = gnp_graph(n, 0.25, seed=200 + seed)
        arng = np.random.default_rng(20_000 + seed)
        if seed % 3 == 0:
            a = singleton_assignment(g.n)
        else:
            a = arng.integers(0, max(2, g.n // 3), g.n)
        a, n_comm = normalize_labels(a)
        agg = community_aggregates(g, a, n_communities=min(n_comm + 1, g.n))
        q0 = modularity(g, a)
        for u in range(g.n):
            k_map, _ = neighbor_community_weights(g, a, u)
            from_c = int(a[u])
            # a fresh empty community exists only when some id is unused
            fresh = [n_comm] if n_comm < g.n else []
            for to_c in list(k_map) + fresh:
                dq = delta_modularity(g, agg, u, k_map, from_c, to_c)
                trial = a.copy()
                trial[u] = to_c
                diff = abs(dq - (modularity(g, trial) - q0))
                worst = max(worst, diff)
                checked += 1
                assert diff <= 1e-9
    return f"{checked} single moves, worst error = {worst:.2e}"


@criterion(3)
def test_c3_closed_form_fixtures():
    """Known fixtures hit their exact modularity values."""
    d, rep = louvain(two_triangles())
    assert rep.final_q == pytest.approx(0.5, abs=1e-9)
    flat, n_comm = normalize_labels(flatten(d))
    assert n_comm == 2 and flat.tolist() == TRIANGLE_SPLIT.tolist()

    q_edge = modularity(single_edge(), np.array([0, 1]))
    assert q_edge == pytest.approx(-0.5, abs=1e-12)

    for g in (two_triangles(), single_edge(), gnp_graph(40, 0.1, seed=77)):
        assert modularity(g, np.zeros(g.n, dtype=np.int64)) == pytest.approx(0.0, abs=1e-12)
    return "two triangles Q=0.5, single edge Q=-0.5, all-in-one Q=0"


@criterion(4)
def test_c4_aggregation_invariance():
    """Coarse graph under singletons scores exactly the fine assignment."""
    worst_q = 0.0
    worst_t = 0.0
    for seed in range(100):
        rng = np.random.default_rng(30_000 + seed)
        g = gnp_graph(8 + seed % 50, 0.15, seed=300 + seed,
                      weight_choices=[0.5, 1.0, 1.5] if seed % 2 else None)
        a = rng.integers(0, max(2, g.n // 2), g.n)
        g2, _ = aggregate_graph(g, a)
        dq = abs(modularity(g, a) - modularity(g2, singleton_assignment(g2.n)))
        dt = abs(g2.total - g.total) / g.total
        worst_q = max(worst_q, dq)
        worst_t = max(worst_t, dt)
        assert dq <= 1e-12
        assert dt <= 1e-9

    # and at every pass of every engine run on the fixture suite
    for name, g in fixture_suite():
        d, _ = louvain(g)
        g_cur = g
        for lev, q_lev in zip(d.levels, d.per_level_q):
            g_next, _ = aggregate_graph(g_cur, lev)
            assert abs(modularity(g_next, singleton_assignment(g_next.n)) - q_lev) <= 1e-12
            assert abs(g_next.total - g.total) <= 1e-9 * g.total
            g_cur = g_next
    return f"100 pairs + per-pass replay; worst dQ={worst_q:.2e}, dTotal={worst_t:.2e}"


@criterion(5)
def test_c5_monotonic_per_level_q():
    """Async per-level Q never decreases when pass_tolerance is 0."""
    graphs = fixture_suite() + [
        (f"gnp_{seed}", gnp_graph(120, 0.05, seed=400 + seed)) for seed in range(5)
    ]
    for name, g in graphs:
        d, _ = louvain(g, Config(pass_tolerance=0.0, mode="async"))
        for a, b in zip(d.per_level_q, d.per_level_q[1:]):
            assert b >= a - 1e-9, name
    return f"{len(graphs)} graphs, all per-level Q sequences non-decreasing"


@criterion(6)
def test_c6_ring_of_cliques_recovery():
    """ring-of-cliques(5, 8) is recovered exactly with Q >= 0.7 in <= 3 passes."""
    g = build_graph(ring_of_cliques(5, 8))
    planted = np.repeat(np.arange(8), 5)
    d, rep = louvain(g)
    flat, n_comm = normalize_labels(flatten(d))
    assert n_comm == 8
    assert flat.tolist() == normalize_labels(planted)[0].tolist()
    assert rep.final_q >= 0.7
    assert rep.n_passes <= 3
    planted_q = modularity_bruteforce(g, planted)
    assert rep.final_q >= planted_q - 1e-9
    return f"Q={rep.final_q:.4f} (planted {planted_q:.4f}) in {rep.n_passes} passes"


@criterion(7)
def test_c7_sync_vs_async():
    """Async converges in fewer iterations at equivalent quality."""
    wins = 0
    diffs = []
    for seed in range(20):
        g = gnp_graph(500, 0.02, seed=500 + seed)
        _, ra = louvain(g, Config(mode="async"))
        _, rs = louvain(g, Config(mode="sync"))
        wins += ra.total_iterations <= rs.total_iterations
        diffs.append(abs(ra.final_q - rs.final_q))
    mean_dq = float(np.mean(diffs))
    assert wins >= 16, f"async won only {wins}/20"
    assert mean_dq <= 0.02, f"mean |dQ| = {mean_dq}"
    return f"async <= sync iterations in {wins}/20 runs, mean |dQ| = {mean_dq:.4f}"


@criterion(8)
def test_c8_threshold_scaling():
    """Initial tolerance 0.01 is near-optimal; decline 1e4 costs iterations."""
    initial_grid = [10.0 ** (-i) for i in range(13)]
    it_fast, it_slow = [], []
    for name, g in fixture_suite():
        rows = sweep_tolerance(g, initial_grid, [10.0, 1e4])
        best = max(r.report.final_q for r in rows)
        q_ref = next(
            r.report.final_q for r in rows
            if r.params["tolerance"] == 0.01 and r.params["decline_factor"] == 10.0
        )
        assert q_ref >= best - 0.01, f"{name}: Q(0.01,10)={q_ref} vs best {best}"
        it_fast += [r.report.total_iterations for r in rows
                    if r.params["decline_factor"] == 10.0]
        it_slow += [r.report.total_iterations for r in rows
                    if r.params["decline_factor"] == 1e4]
    mean_fast = float(np.mean(it_fast))
    mean_slow = float(np.mean(it_slow))
    assert mean_slow >= mean_fast
    return (
        f"Q(0.01, 10) within 0.01 of best on all fixtures; "
        f"mean iterations {mean_slow:.2f} (decline 1e4) >= {mean_fast:.2f} (decline 10)"
    )


@criterion(9)
def test_c9_parallel_correctness():
    """threads=1 bit-identical; racing threads keep quality and bookkeeping."""
    for seed in (0, 1, 2):
        g = gnp_graph(150, 0.05, seed=600 + seed)
        d_seq, r_seq = louvain(g, Config())
        d_par, r_par = parallel_louvain(g, ParallelConfig(threads=1))
        assert len(d_seq.levels) == len(d_par.levels)
        for a, b in zip(d_seq.levels, d_par.levels):
            assert np.array_equal(a, b)
        assert d_seq.per_level_q == d_par.per_level_q
        assert r_seq.final_q == r_par.final_q

    worst_dq = 0.0
    for seed in range(20):
        g = sbm_graph(16, 25, 0.30, 0.004, seed=700 + seed)
        _, r_seq = louvain(g, Config())
        for threads in (2, 4, 8):
            d, rep = parallel_louvain(g, ParallelConfig(threads=threads))
            dq = abs(rep.final_q - r_seq.final_q)
            worst_dq = max(worst_dq, dq)
            assert dq <= 0.02
            for a, b in zip(d.per_level_q, d.per_level_q[1:]):
                assert b >= a - 1e-6
            assert rep.max_sigma_drift <= 1e-6
    return f"threads=1 bit-identical; 60 racing runs, worst |dQ| = {worst_dq:.4f}, no lost updates"


@criterion(10)
def test_c10_parallel_iteration_inflation():
    """More threads need at least as many local-moving iterations on average."""
    i1, i8 = [], []
    for seed in range(20):
        g = gnp_graph(500, 0.02, seed=800 + seed)
        _, r1 = parallel_louvain(g, ParallelConfig(threads=1))
        _, r8 = parallel_louvain(g, ParallelConfig(threads=8))
        i1.append(r1.total_iterations)
        i8.append(r8.total_iterations)
    mean1, mean8 = float(np.mean(i1)), float(np.mean(i8))
    assert mean8 >= mean1, f"mean iterations {mean8} at 8 threads < {mean1} at 1"
    return f"mean iterations: {mean8:.2f} at 8 threads >= {mean1:.2f} at 1 thread"


@criterion(11)
def test_c11_cli_contract(tmp_path, capsys):
    """CLI detect/sweep/stats behave per contract on the fixtures."""
    fixture = str(tmp_path / "two_triangles.txt")
    save_edgelist(cliques(3, 2), fixture)

    members = str(tmp_path / "members.txt")
    assert main(["detect", "--input", fixture, "--mode", "async",
                 "--out-membership", members]) == 0
    out = capsys.readouterr().out
    assert "Q=0.5000" in out

    labels = read_membership(members)
    assert labels.tolist() == normalize_labels(labels)[0].tolist()
    assert len(labels) == 6

    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate pattern general\n3 3 9\n1 2\n")
    assert main(["detect", "--input", str(bad)]) == 1
    capsys.readouterr()

    sweep_csv = str(tmp_path / "sweep.csv")
    assert main(["sweep", "tolerance", "--grid", "1:1e-12:10",
                 "--input", fixture, "--out-report", sweep_csv]) == 0
    assert len(read_sweep_csv(sweep_csv)) == 13

    threads_csv = str(tmp_path / "threads.csv")
    assert main(["sweep", "threads", "--grid", "1,2,4",
                 "--input", fixture, "--out-report", threads_csv]) == 0
    assert len(read_sweep_csv(threads_csv)) == 3
    capsys.readouterr()
    return "detect prints Q=0.5000, exit codes and sweep row counts as specified"
