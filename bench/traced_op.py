"""One workload operation run in-process, with a span around every layer call.

Usage: python3 bench/traced_op.py KIND FMT MODE SELF_LOOPS INPUT MEMBERSHIP SPANS_JSON LEVELS_NPZ

KIND, FMT, MODE and SELF_LOOPS (0 or 1) are the fields of the same name
of a ``workloads.Workload``.  Does what its ``commdet`` command does, through
the public functions of each module, and prints the same standard output,
so the benchmark gates it like a CLI operation.  The spans go to SPANS_JSON when
the operation ends; for detect workloads the dendrogram levels go to
LEVELS_NPZ so the benchmark can replay the passes.  Needs ``src`` on
PYTHONPATH.
"""

from __future__ import annotations

import sys

import numpy as np

from commdet import (
    Config,
    ParallelConfig,
    build_graph,
    flatten,
    graph_stats,
    louvain,
    normalize_labels,
    parse_edgelist,
    parse_matrix_market,
    sweep_threads,
)
from commdet.cli import write_sweep_csv
from commdet.community import write_membership
from spans import Tracer
from workloads import SWEEP_THREADS

# the benchmark sets the operation id when it adopts these spans
OP = "traced"


def run(tracer: Tracer, kind: str, fmt: str, mode: str, self_loops: bool,
        input_path: str, membership_path: str):
    """The operation; returns the dendrogram for detect workloads."""
    with tracer.span("graph.parse", OP) as a:
        with open(input_path, "r", encoding="utf-8") as fh:
            edges = (parse_matrix_market if fmt == "mtx" else parse_edgelist)(fh)
        a["entries"] = len(edges.entries)
    with tracer.span("graph.build", OP) as a:
        g = build_graph(edges, add_self_loops=self_loops)
        a["arcs"] = g.n_arcs
    del edges

    if kind == "stats":
        with tracer.span("graph.stats", OP):
            st = graph_stats(g)
            print(f"|V|={st.vertices} |E|={st.undirected_edges} Davg={st.avg_degree:.2f}")
        return None

    if kind == "sweep":
        rows = []
        for t in SWEEP_THREADS:
            # sweep_threads over one count is one parallel_louvain run
            with tracer.span("parallel.run", OP, threads=t) as a:
                (row,) = sweep_threads(g, [t], ParallelConfig(threads=1, mode=mode))
                rep = row.report
                a.update(iterations=rep.total_iterations,
                         conflicts=sum(sum(p.conflicts) for p in rep.passes),
                         max_sigma_drift=rep.max_sigma_drift)
            rows.append(row)
        with tracer.span("cli.write_sweep", OP):
            write_sweep_csv(sys.stdout, rows)
        return None

    with tracer.span("louvain.run", OP) as a:
        dend, report = louvain(g, Config(mode=mode))
        a["passes"] = [[p.vertices, p.iterations, p.local_ms, p.agg_ms] for p in report.passes]
    with tracer.span("community.flatten", OP):
        flat = flatten(dend)
    with tracer.span("community.normalize", OP) as a:
        labels, a["communities"] = normalize_labels(flat)
    with tracer.span("cli.print", OP):
        print(f"Q={report.final_q:.4f} passes={report.n_passes} "
              f"iterations={report.total_iterations} wall_ms={report.wall_ms:.1f}")
    with tracer.span("community.write_membership", OP):
        write_membership(membership_path, labels)
    return dend


def main(argv: list[str]) -> int:
    kind, fmt, mode, self_loops, input_path, membership_path, spans_path, levels_path = argv
    tracer = Tracer()
    with tracer.span("op.inproc", OP):
        dend = run(tracer, kind, fmt, mode, self_loops == "1", input_path, membership_path)
    sys.stdout.flush()
    tracer.dump(spans_path)
    if dend is not None:
        np.savez(levels_path, *dend.levels)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
