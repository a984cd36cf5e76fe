"""The four benchmark workloads and the correctness gate every operation passes.

Each workload is one ``commdet`` command line on one generated input.  The
program only ever sees the written file; the generator's arrays stay in
the benchmark, where they give the expected sizes and the planted
partition's modularity for the gate.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from commdet import modularity
from commdet.community import read_membership

from generators import (
    Planted,
    hub_partition,
    planted_partition,
    write_edgelist,
    write_matrix_market,
)

# the engine may land below the planted partition by at most this much Q
Q_SLACK = 0.01
SWEEP_THREADS = (1, 2)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` names the CLI subcommand shape: ``detect`` writes a membership
    file, ``sweep`` prints a thread-sweep table, ``stats`` prints sizes.
    """

    name: str
    why: str
    kind: str
    fmt: str
    params: dict
    generate: Callable[..., Planted]
    mode: str = "async"
    self_loops: bool = False
    # one line per parameter choice, recorded beside the numbers
    reasons: dict = field(default_factory=dict)

    def make(self, seed: int) -> Planted:
        # any integer seed, negative ones included, names a distinct input
        return self.generate(seed % 2**64, **self.params)

    def write(self, path: str, g: Planted) -> None:
        (write_matrix_market if self.fmt == "mtx" else write_edgelist)(path, g)

    @property
    def input_name(self) -> str:
        return "input.mtx" if self.fmt == "mtx" else "input.txt"

    def argv(self, input_path: str, membership_path: str) -> list[str]:
        """The ``commdet`` arguments of one operation."""
        opts = ["--input", input_path, "--mode", self.mode]
        if self.self_loops:
            opts.append("--add-self-loops")
        if self.kind == "detect":
            return ["detect", *opts, "--out-membership", membership_path]
        if self.kind == "sweep":
            return ["sweep", "threads", "--grid", ",".join(map(str, SWEEP_THREADS)), *opts]
        return ["stats", *opts]

    def arcs(self, g: Planted) -> int:
        """Arcs the program builds: two per edge, plus one loop per vertex
        when self-loops are inserted."""
        return 2 * g.edges + (g.n if self.self_loops else 0)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="planted-detect",
            why="async detect on a 50k-vertex planted partition: local moving and "
                "edge-list ingest both weigh; the ROADMAP baseline graph",
            kind="detect",
            fmt="edgelist",
            generate=planted_partition,
            params=dict(n=50_000, blocks=500, deg_in=16, deg_out=3),
            reasons=dict(
                n="the ROADMAP baseline size: ~441k edges, 882k arcs, 5 MB of text",
                blocks="blocks of 100 keep every community far below the resolution limit",
                deg_in="16 inside vs 3 outside is strong structure: Louvain "
                       "recovers the planted Q, so the Q gate is meaningful",
                deg_out="mixing ~0.16 keeps pass 0 at 6-7 async iterations",
            ),
        ),
        Workload(
            name="hubs-sync",
            why="sync detect on a power-law hub graph: the Jacobi local-moving loop "
                "is ~90% of the time, ingest under 5%",
            kind="detect",
            fmt="mtx",
            generate=hub_partition,
            params=dict(n=10_000, blocks=100, mixing=0.35, gamma=2.5,
                        min_degree=4.0, max_degree=250.0),
            mode="sync",
            reasons=dict(
                n="~47k edges: ~110 sync iterations over 5-6 passes take ~3 s",
                blocks="blocks of 100: with blocks of 50 the pass-0 stop point "
                       "swung between 14 and 31 iterations across seeds and the "
                       "work per operation by +-25%; with 100 every seed runs "
                       "2 + ~60 iterations in passes 0-1",
                gamma="power-law expected degrees put hubs next to leaves, which "
                      "stresses the neighbour scan and the local-maximum filter",
                max_degree="expected degrees are clipped at 250; realised hub "
                           "degree is ~165",
                mixing="0.35 is weak structure, so sync needs many iterations",
            ),
        ),
        Workload(
            name="mtx-ingest",
            why="stats with self-loops on a 60k-vertex MatrixMarket file: parse, "
                "mirror and build only, no local moving",
            kind="stats",
            fmt="mtx",
            generate=hub_partition,
            params=dict(n=60_000, blocks=600, mixing=0.35, gamma=2.5,
                        min_degree=6.2, max_degree=250.0),
            self_loops=True,
            reasons=dict(
                n="~425k weighted edges, ~7.5 MB: parse and build dominate each "
                  "operation and peak RSS is ~200 MB",
                min_degree="sets the edge count; hubs give uneven CSR rows",
                self_loops="--add-self-loops exercises loop insertion after mirroring",
            ),
        ),
        Workload(
            name="threads-sweep",
            why="thread sweep 1,2 on a 20k-vertex planted partition: the only "
                "workload running the threaded engine and its locked moves",
            kind="sweep",
            fmt="edgelist",
            generate=planted_partition,
            params=dict(n=20_000, blocks=200, deg_in=16, deg_out=3),
            reasons=dict(
                n="~353k arcs keeps one sweep of both thread counts near 3 s",
                threads="1 and 2 threads: no more than the 2 cores of the "
                        "reference machine; 1 is bit-identical to the sequential engine",
            ),
        ),
    ]
}


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

_Q_RE = re.compile(r"^Q=(-?\d+\.\d{4}) ")
_STATS_RE = re.compile(r"^\|V\|=(\d+) \|E\|=(\d+) ")


def check_detect(returncode: int, stdout: str, membership_path: str, graph,
                 n: int, planted_q: float) -> tuple[list[str], np.ndarray | None, float | None]:
    """Gate one detect operation.

    Returns (failed check names, labels, Q).  ``graph`` is the commdet
    Graph of the input, used to score the written membership.
    """
    if returncode != 0:
        return ["exit_code"], None, None
    try:
        labels = read_membership(membership_path)
    except (OSError, ValueError):
        return ["membership"], None, None
    if labels.shape != (n,):
        return ["membership"], None, None
    failed = []
    q = modularity(graph, labels)
    match = _Q_RE.match(stdout)
    if match is None or match.group(1) != f"{q:.4f}":
        failed.append("printed_q")
    if q < planted_q - Q_SLACK:
        failed.append("q_floor")
    return failed, labels, q


def check_sweep(returncode: int, stdout: str, planted_q: float) -> tuple[list[str], float | None]:
    """Gate one thread sweep; returns (failed checks, lowest row Q)."""
    if returncode != 0:
        return ["exit_code"], None
    try:
        rows = list(csv.DictReader(io.StringIO(stdout)))
        threads = tuple(int(r["threads"]) for r in rows)
        qs = [float(r["final_q"]) for r in rows]
    except (KeyError, TypeError, ValueError):
        return ["sweep_table"], None
    if threads != SWEEP_THREADS:
        return ["sweep_table"], None
    low = min(qs)
    return (["q_floor"] if low < planted_q - Q_SLACK else []), low


def check_stats(returncode: int, stdout: str, n: int, arcs: int) -> list[str]:
    """Gate one stats operation against the generator's sizes."""
    if returncode != 0:
        return ["exit_code"]
    match = _STATS_RE.match(stdout)
    if match is None or (int(match.group(1)), int(match.group(2))) != (n, arcs):
        return ["sizes"]
    return []
