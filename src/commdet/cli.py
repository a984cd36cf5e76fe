"""Benchmark CLI: detect communities, sweep parameters, report graph stats.

Subcommands:
    detect  run the sequential or threaded engine on one graph
    sweep   run a tolerance / decline-factor / thread-count sweep
    stats   print vertex/edge counts and average degree after preprocessing
    gen     write a synthetic fixture graph

Exit codes: 0 success, 1 malformed input file, 2 invalid parameters.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

from .community import flatten, normalize_labels, write_membership
from .fixtures import cliques, random_gnp, ring_of_cliques
from .graph import GraphParseError, graph_stats, load_graph_file, save_edgelist
from .louvain import Config, PassStats, Report, SweepResult, louvain, sweep_tolerance
from .parallel import ParallelConfig, parallel_louvain, sweep_threads

__all__ = [
    "RunSpec",
    "main",
    "cmd_detect",
    "cmd_sweep",
    "cmd_stats",
    "cmd_gen",
    "parse_grid",
    "geometric_grid",
    "write_report_csv",
    "write_report_json",
    "read_report_csv",
    "read_report_json",
    "write_sweep_csv",
    "read_sweep_csv",
]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PARAMS = 2

# consulted only when --threads is absent
THREADS_ENV = "COMMDET_THREADS"

REPORT_CSV_COLUMNS = ["pass", "iterations", "q", "local_ms", "agg_ms", "vertices"]


@dataclass
class RunSpec:
    """Everything one detection run needs, as parsed from the command line."""

    input: str
    fmt: str | None = None
    symmetrize: bool = True
    self_loop_weight: float | None = None
    mode: str = "async"
    threads: int | None = None
    chunk_size: int = 1024
    tolerance: float = 0.01
    decline_factor: float = 10.0
    pass_tolerance: float = 0.0
    max_passes: int = 20
    max_iterations: int = 500
    out_membership: str | None = None
    out_report: str | None = None
    report_format: str = "csv"


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def _pass_row(p: PassStats) -> dict:
    return {
        "pass": p.index,
        "iterations": p.iterations,
        "q": p.q_after,
        "local_ms": p.local_ms,
        "agg_ms": p.agg_ms,
        "vertices": p.vertices,
    }


def write_report_csv(path: str, report: Report) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_CSV_COLUMNS)
        for p in report.passes:
            row = _pass_row(p)
            writer.writerow(
                [row["pass"], row["iterations"], repr(row["q"]),
                 repr(row["local_ms"]), repr(row["agg_ms"]), row["vertices"]]
            )


def read_report_csv(path: str) -> list[PassStats]:
    """Read back a per-pass CSV report; floats round-trip exactly."""
    out: list[PassStats] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != REPORT_CSV_COLUMNS:
            raise ValueError(f"unexpected report header: {reader.fieldnames}")
        for row in reader:
            out.append(
                PassStats(
                    index=int(row["pass"]),
                    vertices=int(row["vertices"]),
                    iterations=int(row["iterations"]),
                    q_after=float(row["q"]),
                    local_ms=float(row["local_ms"]),
                    agg_ms=float(row["agg_ms"]),
                )
            )
    return out


def write_report_json(path: str, report: Report) -> None:
    payload = {
        "passes": [dict(_pass_row(p), conflicts=p.conflicts) for p in report.passes],
        "totals": {
            "passes": report.n_passes,
            "total_iterations": report.total_iterations,
            "final_q": report.final_q,
            "wall_ms": report.wall_ms,
            "truncated": report.truncated,
            "threads": report.threads,
            "max_sigma_drift": report.max_sigma_drift,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_report_json(path: str) -> Report:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    passes = [
        PassStats(
            index=row["pass"],
            vertices=row["vertices"],
            iterations=row["iterations"],
            q_after=row["q"],
            local_ms=row["local_ms"],
            agg_ms=row["agg_ms"],
            conflicts=list(row.get("conflicts", [])),
        )
        for row in payload["passes"]
    ]
    t = payload["totals"]
    return Report(
        passes=passes,
        final_q=t["final_q"],
        total_iterations=t["total_iterations"],
        wall_ms=t["wall_ms"],
        truncated=t["truncated"],
        threads=t["threads"],
        max_sigma_drift=t["max_sigma_drift"],
    )


def write_sweep_csv(path_or_fh, rows: list[SweepResult]) -> None:
    """Sweep table: one row per grid cell, param columns first."""
    own = isinstance(path_or_fh, str)
    fh = open(path_or_fh, "w", encoding="utf-8", newline="") if own else path_or_fh
    try:
        param_names = list(rows[0].params) if rows else []
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(param_names + ["final_q", "passes", "total_iterations", "wall_time_ms"])
        for r in rows:
            writer.writerow(
                [repr(r.params[k]) if isinstance(r.params[k], float) else r.params[k]
                 for k in param_names]
                + [repr(r.final_q), r.passes, r.total_iterations, repr(r.wall_ms)]
            )
    finally:
        if own:
            fh.close()


def read_sweep_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for row in reader:
            parsed = {}
            for key, val in row.items():
                if key in ("passes", "total_iterations", "threads"):
                    parsed[key] = int(val)
                else:
                    parsed[key] = float(val)
            rows.append(parsed)
    return rows


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def geometric_grid(start: float, stop: float, factor: float) -> list[float]:
    """Geometric sequence from start toward stop, multiplying or dividing
    by factor; both endpoints included when exactly hit."""
    if start <= 0 or stop <= 0:
        raise ValueError("grid endpoints must be positive")
    if factor <= 1:
        raise ValueError("grid factor must be > 1")
    if start == stop:
        return [start]
    steps = int(math.floor(abs(math.log(stop / start) / math.log(factor)) + 1e-9))
    if stop > start:
        return [start * factor**i for i in range(steps + 1)]
    return [start / factor**i for i in range(steps + 1)]


def parse_grid(text: str) -> list[float]:
    """Grid syntax: comma-separated values or start:stop:factor geometric."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"geometric grid needs start:stop:factor, got {text!r}")
        return geometric_grid(float(parts[0]), float(parts[1]), float(parts[2]))
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty grid")
    return values


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _load(spec: RunSpec):
    return load_graph_file(
        spec.input,
        fmt=spec.fmt,
        symmetrize=spec.symmetrize,
        add_self_loops=spec.self_loop_weight is not None,
        default_weight=spec.self_loop_weight if spec.self_loop_weight is not None else 1.0,
    )


def _resolve_threads(spec: RunSpec) -> int | None:
    if spec.threads is not None:
        return spec.threads
    env = os.environ.get(THREADS_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {env!r}") from exc
    return None


def _make_config(spec: RunSpec, threads: int | None):
    common = dict(
        tolerance_initial=spec.tolerance,
        tolerance_decline_factor=spec.decline_factor,
        pass_tolerance=spec.pass_tolerance,
        max_passes=spec.max_passes,
        max_iterations_per_pass=spec.max_iterations,
        mode=spec.mode,
    )
    if threads is None:
        return Config(**common)
    if spec.mode == "sync":
        raise ValueError("cannot combine --mode sync with --threads; the threaded engine is async")
    return ParallelConfig(threads=threads, chunk_size=spec.chunk_size, **common)


def cmd_detect(spec: RunSpec) -> int:
    try:
        threads = _resolve_threads(spec)
        cfg = _make_config(spec, threads)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    try:
        g = _load(spec)
    except (GraphParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if isinstance(cfg, ParallelConfig):
        dend, report = parallel_louvain(g, cfg)
    else:
        dend, report = louvain(g, cfg)

    labels, _ = normalize_labels(flatten(dend))
    print(
        f"Q={report.final_q:.4f} passes={report.n_passes} "
        f"iterations={report.total_iterations} wall_ms={report.wall_ms:.1f}"
    )
    if spec.out_membership:
        write_membership(spec.out_membership, labels)
    if spec.out_report:
        if spec.report_format == "json":
            write_report_json(spec.out_report, report)
        else:
            write_report_csv(spec.out_report, report)
    return EXIT_OK


def cmd_sweep(spec: RunSpec, kind: str, grid_text: str) -> int:
    try:
        grid = parse_grid(grid_text)
        # thread sweeps always use the parallel engine; the grid overrides
        # the per-row thread count anyway
        cfg = _make_config(spec, 1 if kind == "threads" else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    try:
        g = _load(spec)
    except (GraphParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if kind == "tolerance":
        rows = sweep_tolerance(g, grid, [spec.decline_factor], cfg)
    elif kind == "decline":
        rows = sweep_tolerance(g, [spec.tolerance], grid, cfg)
    elif kind == "threads":
        counts = [int(v) for v in grid]
        if any(c < 1 for c in counts):
            print("error: thread counts must be >= 1", file=sys.stderr)
            return EXIT_PARAMS
        rows = sweep_threads(g, counts, cfg)
    else:
        print(f"error: unknown sweep kind {kind!r}", file=sys.stderr)
        return EXIT_PARAMS

    if spec.out_report:
        if spec.report_format == "json":
            payload = [
                dict(r.params, final_q=r.final_q, passes=r.passes,
                     total_iterations=r.total_iterations, wall_time_ms=r.wall_ms)
                for r in rows
            ]
            with open(spec.out_report, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        else:
            write_sweep_csv(spec.out_report, rows)
    else:
        write_sweep_csv(sys.stdout, rows)
    print(f"swept {len(rows)} cells", file=sys.stderr)
    return EXIT_OK


def cmd_stats(spec: RunSpec) -> int:
    try:
        g = _load(spec)
    except (GraphParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    st = graph_stats(g)
    print(f"|V|={st.vertices} |E|={st.undirected_edges} Davg={st.avg_degree:.2f}")
    return EXIT_OK


def cmd_gen(kind: str, out: str, k: int, count: int, bridges: int, n: int, p: float, seed: int) -> int:
    try:
        if kind == "cliques":
            edges = cliques(k, count, bridges)
        elif kind == "ring-of-cliques":
            edges = ring_of_cliques(k, count)
        elif kind == "random":
            edges = random_gnp(n, p, seed)
        else:
            raise ValueError(f"unknown fixture kind {kind!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    save_edgelist(edges, out)
    print(f"wrote {out}: n={edges.n} edges={len(edges.entries)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="graph file path")
    p.add_argument("--format", choices=["mtx", "edgelist"], default=None,
                   help="input format (default: by file extension)")
    p.add_argument("--mode", choices=["async", "sync"], default="async")
    p.add_argument("--threads", type=int, default=None,
                   help=f"thread count for the parallel engine (env {THREADS_ENV} "
                        "applies when absent)")
    p.add_argument("--chunk-size", type=int, default=1024)
    p.add_argument("--tolerance", type=float, default=0.01)
    p.add_argument("--decline-factor", type=float, default=10.0)
    p.add_argument("--pass-tolerance", type=float, default=0.0)
    p.add_argument("--max-passes", type=int, default=20)
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("--add-self-loops", nargs="?", const=1.0, type=float,
                   default=None, metavar="W",
                   help="insert weight-W self-loops on loop-free vertices (W defaults to 1)")
    p.add_argument("--no-symmetrize", action="store_true",
                   help="input already stores both arc directions")
    p.add_argument("--out-membership", default=None)
    p.add_argument("--out-report", default=None)
    p.add_argument("--report-format", choices=["csv", "json"], default="csv")


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    return RunSpec(
        input=args.input,
        fmt=args.format,
        symmetrize=not args.no_symmetrize,
        self_loop_weight=args.add_self_loops,
        mode=args.mode,
        threads=args.threads,
        chunk_size=args.chunk_size,
        tolerance=args.tolerance,
        decline_factor=args.decline_factor,
        pass_tolerance=args.pass_tolerance,
        max_passes=args.max_passes,
        max_iterations=args.max_iterations,
        out_membership=args.out_membership,
        out_report=args.out_report,
        report_format=args.report_format,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="commdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="detect communities in one graph")
    _add_run_options(p_detect)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("kind", choices=["tolerance", "decline", "threads"])
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated values or start:stop:factor")
    _add_run_options(p_sweep)

    p_stats = sub.add_parser("stats", help="print graph statistics")
    _add_run_options(p_stats)

    p_gen = sub.add_parser("gen", help="generate a fixture graph")
    p_gen.add_argument("kind", choices=["cliques", "ring-of-cliques", "random"])
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--k", type=int, default=5, help="clique size")
    p_gen.add_argument("--count", type=int, default=8, help="number of cliques")
    p_gen.add_argument("--bridges", type=int, default=0)
    p_gen.add_argument("--n", type=int, default=64, help="random graph order")
    p_gen.add_argument("--p", type=float, default=0.1, help="random edge probability")
    p_gen.add_argument("--seed", type=int, default=42)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "detect":
        return cmd_detect(_spec_from_args(args))
    if args.command == "sweep":
        return cmd_sweep(_spec_from_args(args), args.kind, args.grid)
    if args.command == "stats":
        return cmd_stats(_spec_from_args(args))
    if args.command == "gen":
        return cmd_gen(args.kind, args.out, args.k, args.count, args.bridges,
                       args.n, args.p, args.seed)
    return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
