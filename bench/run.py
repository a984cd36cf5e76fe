"""Benchmark harness for commdet.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Each operation runs the ``commdet`` CLI from ``src/`` in a fresh child
process, in a closed loop (the next operation starts when the previous
one has exited and been checked) until S seconds have passed, and at
least MIN_OPS times.  Every operation passes the correctness gate of
``workloads.py``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced CLI operations with in-process traced
ones (``traced_op.py``) and prints the per-layer metrics.  ``all`` runs
every workload both ways and prints everything.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, spans and
full results are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import networkx as nx
import numpy as np

from generators import planted_modularity
from spans import Tracer, children, duration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# the checkout's own commdet, never an installed copy; main() reports a
# checkout without one
sys.path.insert(0, SRC)
try:
    from commdet import (
        Config,
        aggregate_graph,
        build_graph,
        local_moving,
        modularity,
        parse_edgelist,
        parse_matrix_market,
        singleton_assignment,
    )
    from commdet.louvain import TOLERANCE_FLOOR
    from workloads import WORKLOADS, check_detect, check_stats, check_sweep
except ImportError:
    WORKLOADS = None

# set-up is repeated until both limits are reached; setup_s is the median
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
MIN_OPS = 3
MIN_OPS_TRACED = 4
STARTUP_PROBES = 5
OP_TIMEOUT_S = 60.0
NX_TOLERANCE = 1e-9

# name -> (unit, one-line meaning); the order is the print order.
# END_TO_END and PER_LAYER are the metrics of BENCHMARK.json.  The host's
# speed drifts too much for a bound on wall time (see README.md), so
# wall_s is printed and stored beside them, unbounded, with failed_frac.
UNBOUNDED = {
    "wall_s": ("s", "median wall time of one CLI operation, spawn to exit"),
    "failed_frac": ("ratio", "failed operations / operations attempted"),
}
END_TO_END = {
    "final_q": ("Q", "median modularity of the output (see README for mtx-ingest "
                     "and threads-sweep)"),
    "peak_rss_mb": ("MB", "median peak RSS of the operation's child process"),
    "setup_s": ("s", "median time to generate and write the input files"),
    "ok_frac": ("ratio", "operations passing every check / operations attempted"),
}
PER_LAYER = {
    "graph.parse_s": ("s", "parse_edgelist / parse_matrix_market"),
    "graph.build_s": ("s", "build_graph"),
    "graph.parse_ns_per_entry": ("ns", "parse time per file entry"),
    "graph.build_ns_per_arc": ("ns", "build time per CSR arc"),
    "graph.arcs": ("count", "arcs of the built graph"),
    "graph.input_mb": ("MB", "input file size"),
    "louvain.run_s": ("s", "louvain()"),
    "louvain.local_s": ("s", "sum of PassStats.local_ms"),
    "louvain.agg_s": ("s", "sum of PassStats.agg_ms"),
    "louvain.loop_other_s": ("s", "run - local - agg"),
    "louvain.passes": ("count", "passes"),
    "louvain.iterations": ("count", "local-moving iterations, all passes"),
    "louvain.arc_iters": ("count", "sum over passes of arcs x iterations"),
    "louvain.local_ns_per_arc_iter": ("ns", "local_s / arc_iters"),
    "louvain.moves": ("count", "accepted moves, from the replay"),
    "louvain.move_ratio": ("ratio", "moves / sum of vertices x iterations"),
    "community.modularity_s": ("s", "modularity() of the output on the input graph"),
    "community.flatten_s": ("s", "flatten()"),
    "community.normalize_s": ("s", "normalize_labels()"),
    "community.write_membership_s": ("s", "write_membership()"),
    "community.communities": ("count", "communities in the output"),
    "parallel.t1_run_s": ("s", "parallel_louvain, 1 thread"),
    "parallel.t2_run_s": ("s", "parallel_louvain, 2 threads"),
    "parallel.t1_iterations": ("count", "iterations, 1 thread"),
    "parallel.t2_iterations": ("count", "iterations, 2 threads"),
    "parallel.iter_inflation": ("ratio", "t2_iterations / t1_iterations"),
    "parallel.speedup": ("ratio", "t1_run_s / t2_run_s"),
    "parallel.conflicts": ("count", "conflicting moves, 2 threads"),
    "parallel.max_sigma_drift": ("abs", "largest community-mass drift, 2 threads"),
    "cli.startup_s": ("s", "child that imports commdet.cli and exits"),
    "bench.trace_overhead_s": ("s", "traced minus untraced operation wall time"),
    "bench.span_coverage": ("ratio", "layer spans / in-process operation time"),
}


def med(values) -> float:
    """Median, or 0.0 when every operation failed (the run is then
    reported as incorrect)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    # the CLI would switch detect to the threaded engine
    env.pop("COMMDET_THREADS", None)
    return env


class Launcher:
    """Client of ``launcher.py``, which spawns every child process (see
    there for why the benchmark process does not)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, argv: list[str], stdout_path: str) -> dict:
        """Run argv to completion; wall time from spawn to exit, rusage
        and standard output."""
        req = {"argv": argv, "env": child_env(), "cwd": ROOT, "stdout": stdout_path,
               "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SetupError("the launcher process died")
        res = json.loads(reply)
        with open(stdout_path, encoding="utf-8") as fh:
            res["stdout"] = fh.read()
        return res

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self.proc.wait(timeout=OP_TIMEOUT_S)
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Stamps
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": git_commit(), "seed": seed}


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------


class Run:
    """State of one benchmark run: inputs, reference values and operations."""

    def __init__(self, launcher: Launcher, workload, seed: int, seconds: float, trace: bool):
        self.launcher = launcher
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer()
        self.dir = os.path.join(OUT, f"{workload.name}-{seed}-trace{int(trace)}")
        self.ops: list[dict] = []
        # checks made once per run, outside any operation
        self.run_failed: list[str] = []
        self.shares: list[tuple[str, float, float]] | None = None

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.input = os.path.join(self.dir, self.w.input_name)
        self.setup_times = []
        while True:
            t0 = time.perf_counter()
            g = self.w.make(self.seed)
            self.w.write(self.input, g)
            self.setup_times.append(time.perf_counter() - t0)
            # the traced run does not report setup_s
            if self.trace or (len(self.setup_times) >= SETUP_REPEATS
                              and sum(self.setup_times) >= SETUP_MIN_S):
                break
        self.planted = g
        self.sizes = {"vertices": g.n, "edges": g.edges, "arcs": self.w.arcs(g),
                      "input_bytes": os.path.getsize(self.input)}

    def load_reference(self) -> None:
        """The input as commdet reads it, loop-free, plus reference Qs."""
        with open(self.input, encoding="utf-8") as fh:
            edges = (parse_matrix_market if self.w.fmt == "mtx" else parse_edgelist)(fh)
        self.graph = build_graph(edges)
        self.loop_graph = build_graph(edges, add_self_loops=True) if self.w.self_loops else None
        del edges
        self.planted_q = planted_modularity(self.planted, self.planted.labels)
        # a third modularity, from the generator's arrays, for the loaded graph
        if abs(modularity(self.graph, self.planted.labels) - self.planted_q) > NX_TOLERANCE:
            self.run_failed.append("planted_q")

    # -- operations --------------------------------------------------------

    def run_op(self, i: int, traced: bool) -> dict:
        op_id = f"{self.w.name}/{self.seed}/{i}"
        membership = os.path.join(self.dir, f"membership-{i}.txt")
        spans_path = os.path.join(self.dir, f"spans-{i}.json")
        levels_path = os.path.join(self.dir, f"levels-{i}.npz")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced_op.py"), self.w.kind, self.w.fmt,
                    self.w.mode, str(int(self.w.self_loops)), self.input, membership,
                    spans_path, levels_path]
        else:
            argv = [sys.executable, "-m", "commdet.cli", *self.w.argv(self.input, membership)]
        span_id = len(self.tracer.spans)
        with self.tracer.span("op", op_id, traced=traced) as attrs:
            res = self.launcher.spawn(argv, os.path.join(self.dir, f"stdout-{i}.txt"))
        op = dict(res, id=op_id, traced=traced, failed=[], q=None, labels=None)
        attrs.update(wall_s=res["wall_s"], peak_rss_mb=res["peak_rss_mb"])
        if self.w.kind == "detect":
            op["failed"], op["labels"], op["q"] = check_detect(
                res["returncode"], res["stdout"], membership, self.graph,
                self.planted.n, self.planted_q)
        elif self.w.kind == "sweep":
            op["failed"], op["q"] = check_sweep(res["returncode"], res["stdout"], self.planted_q)
        else:
            op["failed"] = check_stats(res["returncode"], res["stdout"],
                                       self.sizes["vertices"], self.sizes["arcs"])
        if traced and res["returncode"] == 0:
            with open(spans_path, encoding="utf-8") as fh:
                self.tracer.adopt(json.load(fh), parent=span_id, op=op_id)
            if os.path.exists(levels_path):
                with np.load(levels_path) as z:
                    op["levels"] = [z[k] for k in sorted(z.files, key=lambda s: int(s[4:]))]
        if traced and op["labels"] is not None:
            with self.tracer.span("community.modularity", op_id):
                modularity(self.graph, op["labels"])
        if os.path.exists(membership):
            os.remove(membership)
        return op

    def measure(self) -> None:
        min_ops = MIN_OPS_TRACED if self.trace else MIN_OPS
        deadline = time.perf_counter() + self.seconds
        i = 0
        while i < min_ops or time.perf_counter() < deadline:
            op = self.run_op(i, traced=self.trace and i % 2 == 1)
            # only the last detect output is kept, for the networkx oracle
            for prev in self.ops:
                prev["labels"] = None
            self.ops.append(op)
            i += 1

    # -- checks outside the timed loop --------------------------------------

    def oracle_check(self) -> None:
        """networkx modularity agrees with commdet on one labelling."""
        last = self.ops[-1]
        if last["returncode"] != 0:
            return
        labels = last["labels"] if last["labels"] is not None else self.planted.labels
        g = self.planted
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_weighted_edges_from(zip(g.u.tolist(), g.v.tolist(), g.w.tolist()))
        groups: dict[int, set] = {}
        for u, c in enumerate(labels.tolist()):
            groups.setdefault(c, set()).add(u)
        q_nx = nx.community.modularity(nxg, groups.values(), weight="weight")
        del nxg
        if abs(q_nx - modularity(self.graph, labels)) > NX_TOLERANCE:
            last["failed"].append("nx_oracle")

    def replay(self, op: dict) -> dict:
        """Re-run each pass's local moving on its graph, rebuilt from the
        dendrogram with aggregate_graph; returns per-pass arcs and moves."""
        cfg = Config(mode=self.w.mode)
        passes = self.layer_span(op, "louvain.run")["attrs"]["passes"]
        levels = op["levels"]
        g, tol = self.graph, cfg.tolerance_initial
        with self.tracer.span("bench.replay", op["id"], arcs=[], moves=[]) as replayed:
            match = True
            for k, (vertices, iterations, _, _) in enumerate(passes):
                labels = singleton_assignment(g.n)
                iters, _, mv = local_moving(g, labels, tol, mode=cfg.mode,
                                            max_iterations=cfg.max_iterations_per_pass)
                match &= (g.n, iters) == (vertices, iterations)
                replayed["arcs"].append(g.n_arcs)
                replayed["moves"].append(mv)
                if k + 1 < len(passes):
                    g, _ = aggregate_graph(g, levels[k])
                tol = max(tol / cfg.tolerance_decline_factor, TOLERANCE_FLOOR)
        if not match:
            op["failed"].append("replay")
        return replayed

    # -- metrics -----------------------------------------------------------

    def layer_span(self, op: dict, name: str) -> dict | None:
        for s in self.tracer.spans:
            if s["name"] == name and s["op"] == op["id"]:
                return s
        return None

    def end_to_end(self) -> dict:
        ok = [op for op in self.ops if not op["failed"]]
        if self.w.kind == "stats":
            qs = [modularity(self.loop_graph, self.planted.labels)]
        else:
            qs = [op["q"] for op in ok]
        return {
            "final_q": med(qs),
            "peak_rss_mb": med([op["peak_rss_mb"] for op in ok]),
            "setup_s": statistics.median(self.setup_times),
            "ok_frac": len(ok) / len(self.ops),
        }

    def per_layer(self) -> dict:
        traced = [op for op in self.ops if op["traced"] and not op["failed"]]
        plain = [op for op in self.ops if not op["traced"] and not op["failed"]]
        if not traced or not plain:
            return dict.fromkeys(PER_LAYER, 0.0)
        replayed = self.replay(traced[0]) if self.w.kind == "detect" else None
        per_op = [self.op_layers(op, replayed) for op in traced]
        out = {name: statistics.median(d[name] for d in per_op) for name in PER_LAYER
               if name not in ("cli.startup_s", "bench.trace_overhead_s")}
        probes = []
        for k in range(STARTUP_PROBES):
            with self.tracer.span("cli.startup", f"{self.w.name}/{self.seed}/startup{k}"):
                probes.append(self.launcher.spawn([sys.executable, "-c", "import commdet.cli"],
                                                  os.path.join(self.dir, "startup.txt")))
        out["cli.startup_s"] = statistics.median(p["wall_s"] for p in probes)
        out["bench.trace_overhead_s"] = (statistics.median(op["wall_s"] for op in traced)
                                         - statistics.median(op["wall_s"] for op in plain))
        self.shares = self.share_table(traced, out["cli.startup_s"])
        return {name: out[name] for name in PER_LAYER}

    def op_layers(self, op: dict, replayed: dict | None) -> dict:
        """Per-layer values of one traced operation; 0 for layers the
        workload does not run."""
        def span_s(name):
            s = self.layer_span(op, name)
            return duration(s) if s else 0.0

        d = dict.fromkeys(PER_LAYER, 0.0)
        parse, build = self.layer_span(op, "graph.parse"), self.layer_span(op, "graph.build")
        d["graph.parse_s"], d["graph.build_s"] = duration(parse), duration(build)
        d["graph.parse_ns_per_entry"] = d["graph.parse_s"] / parse["attrs"]["entries"] * 1e9
        d["graph.arcs"] = build["attrs"]["arcs"]
        d["graph.build_ns_per_arc"] = d["graph.build_s"] / d["graph.arcs"] * 1e9
        d["graph.input_mb"] = self.sizes["input_bytes"] / 1e6

        run = self.layer_span(op, "louvain.run")
        if run is not None:
            passes = run["attrs"]["passes"]
            d["louvain.run_s"] = duration(run)
            d["louvain.local_s"] = sum(p[2] for p in passes) / 1e3
            d["louvain.agg_s"] = sum(p[3] for p in passes) / 1e3
            d["louvain.loop_other_s"] = d["louvain.run_s"] - d["louvain.local_s"] - d["louvain.agg_s"]
            d["louvain.passes"] = len(passes)
            d["louvain.iterations"] = sum(p[1] for p in passes)
            arc_iters = sum(a * p[1] for a, p in zip(replayed["arcs"], passes))
            d["louvain.arc_iters"] = arc_iters
            d["louvain.local_ns_per_arc_iter"] = d["louvain.local_s"] / arc_iters * 1e9
            d["louvain.moves"] = sum(replayed["moves"])
            d["louvain.move_ratio"] = d["louvain.moves"] / sum(p[0] * p[1] for p in passes)
            d["community.flatten_s"] = span_s("community.flatten")
            d["community.normalize_s"] = span_s("community.normalize")
            d["community.write_membership_s"] = span_s("community.write_membership")
            d["community.communities"] = self.layer_span(op, "community.normalize")["attrs"]["communities"]
        d["community.modularity_s"] = span_s("community.modularity")

        par = {s["attrs"]["threads"]: s for s in self.tracer.spans
               if s["name"] == "parallel.run" and s["op"] == op["id"]}
        if par:
            t1, t2 = par[1], par[2]
            d["parallel.t1_run_s"], d["parallel.t2_run_s"] = duration(t1), duration(t2)
            d["parallel.t1_iterations"] = t1["attrs"]["iterations"]
            d["parallel.t2_iterations"] = t2["attrs"]["iterations"]
            d["parallel.iter_inflation"] = d["parallel.t2_iterations"] / d["parallel.t1_iterations"]
            d["parallel.speedup"] = d["parallel.t1_run_s"] / d["parallel.t2_run_s"]
            d["parallel.conflicts"] = t2["attrs"]["conflicts"]
            d["parallel.max_sigma_drift"] = t2["attrs"]["max_sigma_drift"]

        root = self.layer_span(op, "op.inproc")
        layers = children(self.tracer.spans, root["id"])
        d["bench.span_coverage"] = sum(duration(s) for s in layers) / duration(root)
        return d

    def share_table(self, traced: list[dict], startup_s: float) -> list[tuple[str, float, float]]:
        """(layer, median seconds, share of traced wall) rows."""
        rows: dict[str, list[float]] = {}
        walls = []
        for op in traced:
            root = self.layer_span(op, "op.inproc")
            wall = op["wall_s"]
            walls.append(wall)
            layers = {}
            for s in children(self.tracer.spans, root["id"]):
                layers[s["name"]] = layers.get(s["name"], 0.0) + duration(s)
            run = self.layer_span(op, "louvain.run")
            if run is not None:
                passes = run["attrs"]["passes"]
                layers["louvain.run:local"] = sum(p[2] for p in passes) / 1e3
                layers["louvain.run:agg"] = sum(p[3] for p in passes) / 1e3
                layers["louvain.run:other"] = layers.pop("louvain.run") - \
                    layers["louvain.run:local"] - layers["louvain.run:agg"]
            layers["cli.startup (probe)"] = startup_s
            layers["rest (exit, trace writes)"] = wall - startup_s - duration(root)
            for name, sec in layers.items():
                rows.setdefault(name, []).append(sec)
        wall = statistics.median(walls)
        return [(name, statistics.median(v), statistics.median(v) / wall)
                for name, v in rows.items()]

    # -- driver ------------------------------------------------------------

    def execute(self) -> dict:
        self.setup()
        self.load_reference()
        self.measure()
        self.oracle_check()
        metrics = self.per_layer() if self.trace else self.end_to_end()
        self.tracer.dump(os.path.join(OUT, f"spans-{self.w.name}-{self.seed}-trace{int(self.trace)}.json"))
        shutil.rmtree(self.dir, ignore_errors=True)
        failed = sum(1 for op in self.ops if op["failed"])
        return {
            "workload": self.w.name,
            "stamp": stamp(self.seed),
            "sizes": self.sizes,
            "params": self.w.params,
            "reasons": self.w.reasons,
            "planted_q": self.planted_q,
            "correct": failed == 0 and not self.run_failed,
            "attempted": len(self.ops),
            "failed": failed,
            "failed_checks": sorted({c for op in self.ops for c in op["failed"]}
                                    | set(self.run_failed)),
            "metrics": metrics,
            "unbounded": {"wall_s": med([op["wall_s"] for op in self.ops if not op["failed"]]),
                          "failed_frac": failed / len(self.ops)},
            "samples": [{k: op[k] for k in ("id", "traced", "wall_s", "peak_rss_mb",
                                            "cpu_s", "q", "failed")} for op in self.ops],
            "setup_samples": self.setup_times,
            "shares": self.shares,
        }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def report(result: dict, trace: bool) -> None:
    table = PER_LAYER if trace else END_TO_END
    st, sz = result["stamp"], result["sizes"]
    print(f"# {result['workload']} seed={st['seed']} trace={int(trace)} commit={st['commit']}")
    print(f"# nproc={st['nproc']} cpu={st['cpu']!r} python={st['python']} numpy={st['numpy']}")
    print(f"# |V|={sz['vertices']} edges={sz['edges']} arcs={sz['arcs']} "
          f"input_bytes={sz['input_bytes']} planted_q={result['planted_q']:.6f}")
    print(f"# operations={result['attempted']} failed={result['failed']} "
          f"checks_failed={','.join(result['failed_checks']) or '-'}")
    rows = [(name, result["metrics"][name], unit, meaning) for name, (unit, meaning) in table.items()]
    if not trace:
        rows = [(name, result["unbounded"][name], unit, meaning + " (unbounded)")
                for name, (unit, meaning) in UNBOUNDED.items()] + rows
    for name, value, unit, meaning in rows:
        print(f"{result['workload']:>15} {name:<30} {value:>14.6g} {unit:<6} {meaning}")
    if result["shares"]:
        print(f"# layer shares of traced wall time, {result['workload']}")
        for name, sec, share in sorted(result["shares"], key=lambda r: -r[1]):
            print(f"#   {name:<32} {sec:9.4f} s {100 * share:6.1f} %")


def check_checkout() -> None:
    if WORKLOADS is None or not os.path.isfile(os.path.join(SRC, "commdet", "cli.py")):
        raise SetupError(f"no src/commdet/cli.py under {ROOT}; run from the root of a checkout")


def run_one(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool) -> dict:
    result = Run(launcher, WORKLOADS[name], seed, seconds, trace).execute()
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{name}-{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    report(result, trace)
    return result


def main(argv: list[str] | None = None) -> int:
    try:
        check_checkout()
        # started before any graph is loaded; see launcher.py
        with Launcher() as launcher:
            p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
            p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--seconds", type=float, required=True)
            p.add_argument("--trace", type=int, choices=[0, 1], default=0)
            args = p.parse_args(argv)
            runs = ([(args.workload, bool(args.trace))] if args.workload != "all"
                    else [(name, trace) for name in WORKLOADS for trace in (False, True)])
            line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name, trace in runs:
                r = run_one(launcher, name, args.seed, args.seconds, trace)
                line["correct"] &= r["correct"]
                line["attempted"] += r["attempted"]
                line["failed"] += r["failed"]
                table = PER_LAYER if trace else END_TO_END
                prefix = "" if args.workload != "all" else f"{name}."
                line["metrics"].update({prefix + m: {"value": r["metrics"][m], "unit": table[m][0]}
                                        for m in table})
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
