"""Tests of the benchmark itself: generators, correctness gate, metric names.

Run from the root of a checkout: ``PYTHONPATH=src python -m pytest bench``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re

import numpy as np
import pytest

import run
from commdet import modularity
from commdet.cli import main as commdet_main
from commdet.graph import load_graph_file
from generators import hub_partition, planted_modularity, planted_partition
from workloads import WORKLOADS, check_detect, check_stats, check_sweep

SMALL = {
    "planted": (planted_partition, dict(n=600, blocks=12, deg_in=10, deg_out=1)),
    "hubs": (hub_partition, dict(n=600, blocks=12, mixing=0.3, gamma=2.5,
                                 min_degree=3.0, max_degree=40.0)),
}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_generators_deterministic_per_seed(kind):
    gen, params = SMALL[kind]
    a, b, c = gen(7, **params), gen(7, **params), gen(8, **params)
    for f in ("u", "v", "w", "labels"):
        assert np.array_equal(getattr(a, f), getattr(b, f))
    assert not (np.array_equal(a.u, c.u) and np.array_equal(a.v, c.v))


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_generators_loop_free_and_deduplicated(kind):
    gen, params = SMALL[kind]
    g = gen(3, **params)
    assert np.all(g.u > g.v)
    assert np.unique(g.u * g.n + g.v).size == g.edges
    assert g.labels.shape == (g.n,)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_written_file_reads_back_as_generated(kind, tmp_path):
    gen, params = SMALL[kind]
    w = WORKLOADS["hubs-sync" if kind == "hubs" else "planted-detect"]
    g = gen(5, **params)
    path = str(tmp_path / w.input_name)
    w.write(path, g)
    graph = load_graph_file(path)
    assert (graph.n, graph.n_arcs) == (g.n, 2 * g.edges)
    assert modularity(graph, g.labels) == pytest.approx(planted_modularity(g, g.labels), abs=1e-12)


def _detect(tmp_path, capsys):
    gen, params = SMALL["planted"]
    g = gen(1, **params)
    path = str(tmp_path / "g.txt")
    WORKLOADS["planted-detect"].write(path, g)
    member = str(tmp_path / "m.txt")
    assert commdet_main(["detect", "--input", path, "--out-membership", member]) == 0
    stdout = capsys.readouterr().out
    return g, load_graph_file(path), stdout, member


def test_gate_passes_a_correct_detect(tmp_path, capsys):
    g, graph, stdout, member = _detect(tmp_path, capsys)
    failed, labels, q = check_detect(0, stdout, member, graph, g.n,
                                     planted_modularity(g, g.labels))
    assert failed == [] and labels.shape == (g.n,) and q > 0.5


def test_gate_fails_a_dropped_vertex(tmp_path, capsys):
    g, graph, stdout, member = _detect(tmp_path, capsys)
    with open(member) as fh:
        lines = fh.readlines()
    with open(member, "w") as fh:
        fh.writelines(lines[:-1])
    failed, _, _ = check_detect(0, stdout, member, graph, g.n, planted_modularity(g, g.labels))
    assert failed == ["membership"]


def test_gate_fails_a_misprinted_q(tmp_path, capsys):
    g, graph, stdout, member = _detect(tmp_path, capsys)
    q = float(stdout[2:8])
    wrong = stdout.replace(f"Q={q:.4f}", f"Q={q + 0.0001:.4f}", 1)
    failed, _, _ = check_detect(0, wrong, member, graph, g.n, planted_modularity(g, g.labels))
    assert failed == ["printed_q"]


def test_gate_fails_exit_code_q_floor_and_sizes(tmp_path, capsys):
    g, graph, stdout, member = _detect(tmp_path, capsys)
    assert check_detect(1, stdout, member, graph, g.n, 0.0)[0] == ["exit_code"]
    assert check_detect(0, stdout, member, graph, g.n, 0.99)[0] == ["q_floor"]
    assert check_stats(0, f"|V|={g.n} |E|={2 * g.edges} Davg=1.00\n", g.n, 2 * g.edges) == []
    assert check_stats(0, f"|V|={g.n} |E|={2 * g.edges} Davg=1.00\n", g.n, 2 * g.edges + 1) == ["sizes"]
    table = "threads,final_q,passes,total_iterations,wall_time_ms\n1,0.8,3,9,1.0\n2,0.7,3,9,1.0\n"
    assert check_sweep(0, table, 0.705) == ([], 0.7)
    assert check_sweep(0, table, 0.9)[0] == ["q_floor"]
    assert check_sweep(0, table.replace("\n2,", "\n3,"), 0.5)[0] == ["sweep_table"]


def test_metric_names_and_units():
    for table in (run.UNBOUNDED, run.END_TO_END, run.PER_LAYER):
        for name, (unit, meaning) in table.items():
            assert NAME_RE.match(name), name
            assert UNIT_RE.match(unit), (name, unit)
            assert meaning


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v[0] for k, v in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[0] for k, v in run.PER_LAYER.items()}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_run_end_to_end(name, trace, tmp_path, monkeypatch):
    """A whole run on a small input of each workload shape passes its gate."""
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    gen, params = SMALL["hubs" if WORKLOADS[name].fmt == "mtx" else "planted"]
    w = dataclasses.replace(WORKLOADS[name], generate=gen, params=params)
    with run.Launcher() as launcher:
        result = run.Run(launcher, w, seed=2, seconds=0, trace=trace).execute()
    assert result["correct"], result["failed_checks"]
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(table)
    if trace:
        assert result["metrics"]["bench.span_coverage"] >= 0.9
    else:
        assert all(result["metrics"][m] > 0 for m in table)
