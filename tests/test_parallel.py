import importlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from commdet.community import flatten, modularity, singleton_assignment
from commdet.fixtures import gnp_graph
from commdet.louvain import Config, _move_phase, local_moving, louvain, sweep_threads

from conftest import InlinePool, sbm_graph, two_triangles

LOUVAIN_MODULE = importlib.import_module("commdet.louvain")


def test_parallel_config_validation():
    with pytest.raises(ValueError, match="threads"):
        Config(threads=0)
    with pytest.raises(ValueError, match=r"^threads must be at most 64, got 65$"):
        Config(threads=65)
    with pytest.raises(ValueError, match="tolerance"):
        Config(tolerance_initial=0.0)


def test_parallel_rejects_sync_mode():
    with pytest.raises(ValueError, match="async"):
        louvain(two_triangles(), Config(mode="sync", threads=2))


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_single_thread_bit_identical_to_sequential(seed):
    g = gnp_graph(150, 0.05, seed=seed)
    d_seq, r_seq = louvain(g, Config())
    d_par, r_par = louvain(g, Config(threads=1))
    assert len(d_seq.levels) == len(d_par.levels)
    for a, b in zip(d_seq.levels, d_par.levels):
        assert np.array_equal(a, b)
    assert d_seq.per_level_q == d_par.per_level_q
    assert r_seq.final_q == r_par.final_q
    assert r_seq.total_iterations == r_par.total_iterations
    assert r_par.threads == 1


def test_single_thread_local_moving_matches_sequential_phase():
    g = gnp_graph(90, 0.08, seed=5)
    a1 = singleton_assignment(g.n)
    a2 = singleton_assignment(g.n)
    it1, gain1, mv1 = local_moving(g, a1, 0.01)
    it2, gain2, mv2, conflicts, drift = _move_phase(g, a2, 0.01, Config(threads=1))
    assert a1.tolist() == a2.tolist()
    assert (it1, gain1, mv1) == (it2, gain2, mv2)
    assert conflicts == [0] * it2
    assert drift == 0.0


def test_four_threads_recover_two_triangles():
    d, rep = louvain(two_triangles(), Config(threads=4))
    assert rep.final_q == pytest.approx(0.5, abs=1e-9)
    flat = flatten(d)
    assert flat[0] == flat[1] == flat[2]
    assert flat[3] == flat[4] == flat[5]
    assert flat[0] != flat[3]


@pytest.mark.parametrize("engine", ["async", "sync", 1, 2, 4, 8])
def test_threaded_quality_and_bookkeeping(engine):
    # every engine keeps the same per-iteration record; an int engine is
    # a thread count
    if isinstance(engine, str):
        cfg = Config(mode=engine)
    else:
        cfg = Config(threads=engine)
    for seed in range(4):
        g = sbm_graph(16, 20, 0.35, 0.005, seed=seed)
        _, r_seq = louvain(g, Config())
        d, rep = louvain(g, cfg)
        assert abs(rep.final_q - r_seq.final_q) <= 0.02
        assert rep.max_sigma_drift <= 1e-6
        assert rep.threads == cfg.threads
        qs = d.per_level_q
        for a, b in zip(qs, qs[1:]):
            assert b >= a - 1e-6
        # conflicts recorded once per iteration of each pass, and only
        # racing threads can have any
        for p in rep.passes:
            assert len(p.conflicts) == p.iterations
            assert cfg.threads > 1 or not any(p.conflicts)
        assert abs(rep.final_q - modularity(g, flatten(d))) <= 1e-9


def test_parallel_iteration_cap_respected():
    g = gnp_graph(80, 0.1, seed=6)
    labels = singleton_assignment(g.n)
    iters, _, _, _, _ = _move_phase(
        g, labels, 1e-12, Config(threads=4, max_iterations_per_pass=2)
    )
    assert iters == 2


def test_sweep_threads_rows_and_single_thread_row():
    g = sbm_graph(16, 20, 0.35, 0.005, seed=21)
    _, r_seq = louvain(g, Config())
    rows = sweep_threads(g, [1, 2, 4])
    assert [r.params["threads"] for r in rows] == [1, 2, 4]
    assert rows[0].report.final_q == r_seq.final_q
    assert rows[0].report.total_iterations == r_seq.total_iterations
    qs = [r.report.final_q for r in rows]
    assert max(qs) - min(qs) <= 0.02


def test_sweep_threads_rejects_empty():
    with pytest.raises(ValueError):
        sweep_threads(two_triangles(), [])


@pytest.mark.parametrize("graph, threads, workers", [
    (two_triangles, 32, 6),  # more threads than vertices: one worker per vertex
    (two_triangles, 8, 6),
    (two_triangles, 2, 2),   # three ids each
    (lambda: gnp_graph(500, 0.02, seed=800), 8, 8),  # c10's first graph
], ids=["32-6", "8-6", "2-2", "c10-8-8"])
def test_pool_starts_a_worker_per_nonempty_share(graph, threads, workers, monkeypatch):
    # a pool that records its size and runs each share in the calling
    # thread, so the test starts no thread at all
    sizes, submits = [], []

    class SpyPool(InlinePool):
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            submits.append(args)
            return super().submit(fn, *args)

    monkeypatch.setattr(sys.modules["commdet.louvain"], "ThreadPoolExecutor", SpyPool)
    g = graph()
    iterations = _move_phase(g, singleton_assignment(g.n), 0.01, Config(threads=threads))[0]
    assert sizes == [workers]
    assert len(submits) == workers * iterations
    # worker w sweeps every threads-th id from w
    assert [ids for (ids,) in submits[:workers]] == [range(w, g.n, threads) for w in range(workers)]


def test_threaded_phases_take_turns_and_restore_switch_interval(monkeypatch):
    # A holds its pool until B has had time to enter one too; B may enter
    # only after A's pool has exited, and each pool runs at the worker
    # switch interval
    a_in, b_in = threading.Event(), threading.Event()
    events = []

    class SpyPool(ThreadPoolExecutor):
        def __enter__(self):
            name = threading.current_thread().name
            events.append((name, sys.getswitchinterval()))
            (a_in if name == "A" else b_in).set()
            return super().__enter__()

        def __exit__(self, *exc):
            name = threading.current_thread().name
            if name == "A":
                b_in.wait(timeout=0.5)
            events.append((name, sys.getswitchinterval()))
            return super().__exit__(*exc)

    monkeypatch.setattr(LOUVAIN_MODULE, "ThreadPoolExecutor", SpyPool)
    g = gnp_graph(40, 0.1, seed=1)
    errors = []

    def run():
        try:
            _move_phase(g, singleton_assignment(g.n), 0.01, Config(threads=2))
        except Exception as exc:  # surfaced in the main thread below
            errors.append(exc)

    original = sys.getswitchinterval()
    runners = [threading.Thread(target=run, name=name) for name in "AB"]
    runners[0].start()
    assert a_in.wait(timeout=10)
    runners[1].start()
    for t in runners:
        t.join(timeout=30)
        assert not t.is_alive()
    assert not errors
    interval = pytest.approx(LOUVAIN_MODULE.WORKER_SWITCH_INTERVAL)
    assert events == [("A", interval), ("A", interval), ("B", interval), ("B", interval)]
    assert sys.getswitchinterval() == original


def test_no_worker_begins_its_share_before_the_last_submit(monkeypatch):
    # a real pool; each submit is recorded once it returns, and each
    # chunk sweep as it begins in its worker
    events = []
    sweep_range = LOUVAIN_MODULE._sweep_range

    class SpyPool(ThreadPoolExecutor):
        def submit(self, fn, *args):
            future = super().submit(fn, *args)
            events.append("submit")
            return future

    def spy_range(*args):
        events.append("begin")
        return sweep_range(*args)

    monkeypatch.setattr(LOUVAIN_MODULE, "ThreadPoolExecutor", SpyPool)
    monkeypatch.setattr(LOUVAIN_MODULE, "_sweep_range", spy_range)
    g = sbm_graph(8, 40, 0.3, 0.01, seed=5)
    iterations = _move_phase(g, singleton_assignment(g.n), 0.01,
                             Config(threads=4))[0]
    assert events.count("submit") == 4 * iterations
    submitted = 0
    for event in events:
        if event == "submit":
            submitted += 1
        else:
            # every share of the iteration is submitted before any begins
            assert submitted and submitted % 4 == 0
