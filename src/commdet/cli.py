"""Benchmark CLI: detect communities, sweep parameters, report graph stats.

Subcommands:
    detect  run Louvain on one graph, threaded with --threads N > 1
    sweep   run a tolerance / decline-factor / thread-count sweep
    stats   print vertex/edge counts and average degree after preprocessing
    gen     write a synthetic fixture graph

Exit codes: 0 success, 1 malformed input file, 2 invalid parameters
(an output file that cannot be written among them).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import TextIO

from .community import flatten, write_membership
from .fixtures import cliques, random_gnp, ring_of_cliques
from .graph import Graph, graph_stats, load_graph_file, save_edgelist
from .louvain import MODES, Config, PassStats, Report, SweepResult
from .louvain import louvain, sweep_threads, sweep_tolerance

__all__ = [
    "main",
    "parse_grid",
    "geometric_grid",
    "write_report_csv",
    "write_report_json",
    "write_sweep_csv",
]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PARAMS = 2

REPORT_CSV_COLUMNS = ["pass", "iterations", "q", "local_ms", "agg_ms", "vertices"]
SWEEP_STAT_COLUMNS = ["final_q", "passes", "total_iterations", "wall_time_ms"]


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def _pass_row(p: PassStats) -> dict:
    values = (p.index, p.iterations, p.q_after, p.local_ms, p.agg_ms, p.vertices)
    return dict(zip(REPORT_CSV_COLUMNS, values))


def _sweep_row(r: SweepResult) -> dict:
    """One sweep cell: its parameters, then SWEEP_STAT_COLUMNS."""
    rep = r.report
    values = (rep.final_q, rep.n_passes, rep.total_iterations, rep.wall_ms)
    return {**r.params, **dict(zip(SWEEP_STAT_COLUMNS, values))}


def _write_csv(fh: TextIO, header: list, rows) -> None:
    """The header, then each row's values; floats as repr, which round-trips exactly."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(v) if isinstance(v, float) else v for v in row.values()] for row in rows)


def write_report_csv(path: str, report: Report) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_csv(fh, REPORT_CSV_COLUMNS, map(_pass_row, report.passes))


def write_report_json(path: str, report: Report) -> None:
    _dump_json(path, {
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
    })


def _dump_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_sweep_csv(fh: TextIO, rows: list[SweepResult]) -> None:
    """Sweep table on an open text file: one row per grid cell, param columns first."""
    table = [_sweep_row(r) for r in rows]
    _write_csv(fh, list(table[0]) if table else SWEEP_STAT_COLUMNS, table)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


# the most cells a geometric grid may have: far more runs than a sweep
# needs, and a list small enough to build before the first run
MAX_GRID_CELLS = 10_000


def geometric_grid(start: float, stop: float, factor: float) -> list[float]:
    """Geometric sequence from start toward stop, multiplying or dividing
    by factor; both endpoints included when exactly hit.  A sequence of
    more than MAX_GRID_CELLS values is rejected before any is made, and
    one whose factor**i passes the float64 range when it is made."""
    if not (0 < start < math.inf and 0 < stop < math.inf):
        raise ValueError("grid endpoints must be positive and finite")
    if not 1 < factor < math.inf:
        raise ValueError("grid factor must be > 1 and finite")
    if start == stop:
        return [start]
    # the log of each endpoint is finite where their ratio may not be
    steps = math.floor(abs(math.log(stop) - math.log(start)) / math.log(factor) + 1e-9)
    if steps >= MAX_GRID_CELLS:
        raise ValueError(f"geometric grid has {steps + 1} cells, more than {MAX_GRID_CELLS}")
    try:
        if stop > start:
            return [start * factor**i for i in range(steps + 1)]
        return [start / factor**i for i in range(steps + 1)]
    except OverflowError as exc:
        raise ValueError(f"geometric grid factor**{steps} overflows float64") from exc


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


class _Failed(Exception):
    """Ends a command with (exit code, message); main prints the message."""


def _load(args: argparse.Namespace) -> Graph:
    """The preprocessed input graph; a bad input file exits 1."""
    try:
        return load_graph_file(
            args.input,
            fmt=args.format,
            symmetrize=not args.no_symmetrize,
            add_self_loops=args.add_self_loops is not None,
            default_weight=args.add_self_loops if args.add_self_loops is not None else 1.0,
        )
    except (OSError, ValueError) as exc:
        raise _Failed(EXIT_INPUT, exc) from exc


def _check_output(path: str) -> None:
    """Raise ValueError unless path can be opened for writing: it is no
    directory, nor a read-only file, and its directory exists and is
    writable.  Nothing is created."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ValueError(f"output path is a directory: {path}")
    if not os.path.isdir(folder):
        raise ValueError(f"output directory does not exist: {path}")
    if not os.access(folder, os.W_OK | os.X_OK) or (
        os.path.exists(path) and not os.access(path, os.W_OK)
    ):
        raise ValueError(f"output path is not writable: {path}")


def _prepare(
    args: argparse.Namespace, outputs: list[str | None], grid: str | None = None
) -> tuple[Config, list[float], Graph]:
    """A run's Config, made from the flags alone, parsed sweep grid and graph.
    The grid, the flags and the given output paths (empty or None where absent)
    are checked before the graph loads: a bad one exits 2, a bad input 1."""
    try:
        values = [] if grid is None else parse_grid(grid)
        cfg = Config(
            tolerance_initial=args.tolerance,
            tolerance_decline_factor=args.decline_factor,
            pass_tolerance=args.pass_tolerance,
            max_passes=args.max_passes,
            max_iterations_per_pass=args.max_iterations,
            mode=args.mode,
            threads=args.threads,
        )
        for path in filter(None, outputs):
            _check_output(path)
    except ValueError as exc:
        raise _Failed(EXIT_PARAMS, exc) from exc
    return cfg, values, _load(args)


def cmd_detect(args: argparse.Namespace) -> int:
    cfg, _, g = _prepare(args, [args.out_membership, args.out_report])
    dend, report = louvain(g, cfg)
    labels = flatten(dend)
    print(
        f"Q={report.final_q:.4f} passes={report.n_passes} "
        f"iterations={report.total_iterations} wall_ms={report.wall_ms:.1f}"
    )
    if args.out_membership:
        write_membership(args.out_membership, labels)
    if args.out_report:
        if args.report_format == "json":
            write_report_json(args.out_report, report)
        else:
            write_report_csv(args.out_report, report)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, grid, g = _prepare(args, [args.out_report], args.grid)
    try:
        # the sweeps check every cell's Config before the first run, and
        # a run on a loaded graph raises no ValueError, so only those can
        if args.kind == "tolerance":
            rows = sweep_tolerance(g, grid, [args.decline_factor], cfg)
        elif args.kind == "decline":
            rows = sweep_tolerance(g, [args.tolerance], grid, cfg)
        else:
            rows = sweep_threads(g, grid, cfg)
    except ValueError as exc:
        raise _Failed(EXIT_PARAMS, exc) from exc

    if not args.out_report:
        write_sweep_csv(sys.stdout, rows)
    elif args.report_format == "json":
        _dump_json(args.out_report, [_sweep_row(r) for r in rows])
    else:
        with open(args.out_report, "w", encoding="utf-8", newline="") as fh:
            write_sweep_csv(fh, rows)
    print(f"swept {len(rows)} cells", file=sys.stderr)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    st = graph_stats(_load(args))
    print(f"|V|={st.vertices} |E|={st.undirected_edges} Davg={st.avg_degree:.2f}")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        if args.kind == "cliques":
            edges = cliques(args.k, args.count, args.bridges)
        elif args.kind == "ring-of-cliques":
            edges = ring_of_cliques(args.k, args.count)
        else:
            edges = random_gnp(args.n, args.p, args.seed)
    except ValueError as exc:
        raise _Failed(EXIT_PARAMS, exc) from exc
    save_edgelist(edges, args.out)
    print(f"wrote {args.out}: n={edges.n} edges={len(edges.entries)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _loop_weight(text: str) -> float:
    """The --add-self-loops weight: a positive finite float."""
    try:
        w = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from exc
    if not (math.isfinite(w) and w > 0):
        raise argparse.ArgumentTypeError(
            f"self-loop weight must be positive and finite, got {text!r}"
        )
    return w


def _add_input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="graph file path")
    p.add_argument("--format", choices=["mtx", "edgelist"], default=None,
                   help="input format (default: by file extension)")
    p.add_argument("--add-self-loops", nargs="?", const=1.0, type=_loop_weight,
                   default=None, metavar="W",
                   help="insert weight-W self-loops on loop-free vertices (W defaults to 1)")
    p.add_argument("--no-symmetrize", action="store_true",
                   help="input already stores both arc directions")
    # stats ignores it: the benchmark passes --mode to every command
    p.add_argument("--mode", choices=MODES, default=Config.mode)


def _add_run_options(p: argparse.ArgumentParser) -> None:
    """Engine and report flags of detect and sweep; each default is Config's."""
    p.add_argument("--threads", type=int, default=Config.threads,
                   help="thread count (default %(default)s); 1 is the plain sequential sweep")
    p.add_argument("--tolerance", type=float, default=Config.tolerance_initial)
    p.add_argument("--decline-factor", type=float, default=Config.tolerance_decline_factor)
    p.add_argument("--pass-tolerance", type=float, default=Config.pass_tolerance)
    p.add_argument("--max-passes", type=int, default=Config.max_passes)
    p.add_argument("--max-iterations", type=int, default=Config.max_iterations_per_pass)
    p.add_argument("--out-report", default=None)
    p.add_argument("--report-format", choices=["csv", "json"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="commdet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="detect communities in one graph")
    _add_input_options(p_detect)
    _add_run_options(p_detect)
    p_detect.add_argument("--out-membership", default=None)
    p_detect.set_defaults(run=cmd_detect)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("kind", choices=["tolerance", "decline", "threads"])
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated values or start:stop:factor")
    _add_input_options(p_sweep)
    _add_run_options(p_sweep)
    p_sweep.set_defaults(run=cmd_sweep)

    p_stats = sub.add_parser("stats", help="print graph statistics")
    _add_input_options(p_stats)
    p_stats.set_defaults(run=cmd_stats)

    p_gen = sub.add_parser("gen", help="generate a fixture graph")
    p_gen.add_argument("kind", choices=["cliques", "ring-of-cliques", "random"])
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--k", type=int, default=5, help="clique size")
    p_gen.add_argument("--count", type=int, default=8, help="number of cliques")
    p_gen.add_argument("--bridges", type=int, default=0)
    p_gen.add_argument("--n", type=int, default=64, help="random graph order")
    p_gen.add_argument("--p", type=float, default=0.1, help="random edge probability")
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.set_defaults(run=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _Failed as exc:
        code, message = exc.args
    except OSError as exc:
        # _load turns an unreadable input into exit 1, so this is an output
        # file that cannot be written: an invalid parameter
        code, message = EXIT_PARAMS, exc
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
