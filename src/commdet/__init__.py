"""Community detection via the Louvain method, with a benchmark CLI.

Core pieces: CSR graphs (:mod:`commdet.graph`), modularity scoring and
move bookkeeping (:mod:`commdet.community`), the Louvain engine with
async/sync local moving, threaded async local moving
(``Config.threads``) and threshold scaling (:mod:`commdet.louvain`), and
synthetic fixtures (:mod:`commdet.fixtures`).  ``commdet.cli`` wires
them into the ``commdet`` command.
"""

from .community import (
    Dendrogram,
    flatten,
    modularity,
    modularity_bruteforce,
    normalize_labels,
    singleton_assignment,
)
from .graph import (
    EdgeList,
    Graph,
    GraphParseError,
    GraphStats,
    build_graph,
    graph_stats,
    load_graph_file,
    parse_edgelist,
    parse_matrix_market,
)
from .louvain import (Config, Report, aggregate_graph, local_moving, louvain, sweep_threads,
                      sweep_tolerance)

# the benchmark's traced runs import Config under this name
ParallelConfig = Config

__version__ = "0.1.0"

__all__ = [
    "Config",
    "Dendrogram",
    "EdgeList",
    "Graph",
    "GraphParseError",
    "GraphStats",
    "ParallelConfig",
    "Report",
    "aggregate_graph",
    "build_graph",
    "flatten",
    "graph_stats",
    "load_graph_file",
    "local_moving",
    "louvain",
    "modularity",
    "modularity_bruteforce",
    "normalize_labels",
    "parse_edgelist",
    "parse_matrix_market",
    "singleton_assignment",
    "sweep_threads",
    "sweep_tolerance",
]
