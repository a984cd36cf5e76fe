"""Every name the benchmark and the acceptance tests import from commdet,
and every name a module exports, exists; every benchmark command line
parses; every private helper and module constant in commdet is used."""

import ast
import importlib
import re
from pathlib import Path

import pytest

from commdet.cli import build_parser


ROOT = Path(__file__).resolve().parent.parent
MODULES = [f"commdet.{p.stem}" for p in sorted((ROOT / "src" / "commdet").glob("*.py"))
           if p.stem != "__init__"]


def _commdet_imports():
    """(file, module, name) for each ``from commdet... import name`` in the
    benchmark scripts and the acceptance tests, once however many aliases
    import it."""
    files = sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "commdet":
                for alias in node.names:
                    yield f"{path.parent.name}/{path.name}", node.module, alias.name


IMPORTS = list(dict.fromkeys(_commdet_imports()))


def test_the_scan_finds_the_bench_imports():
    files = {f for f, _, _ in IMPORTS}
    assert {"bench/run.py", "bench/traced_op.py", "tests/test_acceptance.py"} <= files
    assert ("bench/traced_op.py", "commdet.cli", "write_sweep_csv") in IMPORTS


@pytest.mark.parametrize("path, module, name", IMPORTS,
                         ids=[f"{f}:{m}.{n}" for f, m, n in IMPORTS])
def test_imported_name_resolves(path, module, name):
    assert hasattr(importlib.import_module(module), name), f"{path} imports {module}.{name}"


@pytest.mark.parametrize("module", ["commdet", *MODULES])
def test_all_entries_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_every_bench_argv_parses(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS
    parser = build_parser()
    for w in workloads.WORKLOADS.values():
        args = parser.parse_args(w.argv("in", "m"))
        assert (args.command, args.input) == (w.kind, "in"), w.name


def _definitions_and_uses():
    """(module, name) of each module-level private function or class and
    of each module-level UPPER_CASE constant under src/commdet, and every
    name the top-level statements refer to, less each definition's
    references to itself."""
    helpers, constants, used = [], [], set()
    for path in sorted((ROOT / "src" / "commdet").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            names |= {a.name for n in ast.walk(stmt) if isinstance(n, ast.ImportFrom)
                      for a in n.names}
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    helpers.append((path.stem, stmt.name))
                names.discard(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id):
                        constants.append((path.stem, target.id))
                        names.discard(target.id)
            used |= names
    return helpers, constants, used


def test_every_private_helper_is_referenced():
    """A helper folded into its caller leaves no definition behind."""
    helpers, _, used = _definitions_and_uses()
    assert len(helpers) >= 20
    assert [f"{m}.{name}" for m, name in helpers if name not in used] == []


def test_every_module_constant_is_referenced():
    """A constant whose last user is gone leaves no assignment behind."""
    _, constants, used = _definitions_and_uses()
    assert len(constants) >= 15
    assert [f"{m}.{name}" for m, name in constants if name not in used] == []


def test_process_global_state_has_one_owner():
    """Only louvain._threaded_phase sets the switch interval, and no
    module rebinds a global of its own."""
    setters, globals_ = [], []
    for path in sorted((ROOT / "src" / "commdet").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr == "setswitchinterval":
                    setters.append(f"{path.stem}.{func.name}")
        globals_ += [path.stem for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert sorted(set(setters)) == ["louvain._threaded_phase"]
    assert globals_ == []


def test_the_build_has_one_budget_check_and_every_resize_skips_the_refcheck():
    """graph._build makes one _check_fits call, after the count pass, for
    every source; and every resize passes refcheck=False, as its caller
    owns the array and holds no view of it, so no copy fallback exists."""
    checks, resizes = None, []
    for path in sorted((ROOT / "src" / "commdet").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and f"{path.stem}.{node.name}" == "graph._build":
                checks = [call for call in ast.walk(node) if isinstance(call, ast.Call)
                          and isinstance(call.func, ast.Name) and call.func.id == "_check_fits"]
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "resize"):
                refcheck = [ast.unparse(k.value) for k in node.keywords if k.arg == "refcheck"]
                resizes.append((f"{path.stem}:{node.lineno}", refcheck))
    assert checks is not None and len(checks) == 1
    assert resizes and all(refcheck == ["False"] for _, refcheck in resizes), resizes


def test_the_readers_have_one_entry_rule_and_graph_alone_decides_the_id_width():
    """No module defines or reads an int64_ids flag or a reader comment
    attribute (the bulk path needs no pre-scan), only graph.py assigns
    _INT32_MAX, and each entry error message is written once, in
    formats._entry_error, which _split_entries and the build share."""
    flags, widths, text = [], [], ""
    for path in sorted((ROOT / "src" / "commdet").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text += source
        for node in ast.walk(ast.parse(source)):
            # a class attribute's definition is a Name, its reads Attributes
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if isinstance(node, (ast.Attribute, ast.Name)) and name in ("int64_ids", "comment"):
                flags.append(f"{path.stem}:{node.lineno}")
            if isinstance(node, ast.Assign):
                widths += [path.stem for t in node.targets
                           if isinstance(t, ast.Name) and t.id == "_INT32_MAX"]
    assert flags == []
    assert widths == ["graph"]
    for message in ("edge endpoint outside declared vertex range", "non-finite edge weight",
                    "non-positive edge weight"):
        assert text.count(message) == 1, message


def test_the_build_reads_any_source_as_it_is_and_nothing_pre_sizes_the_counts():
    """graph._build calls no isinstance and checks no argument, for each
    entry point checks its own; no class defines a bound and no
    expression reads one (the bound parameters of the entry rule are id
    bounds); and the move gain's 2m^2 is written once, in the one rule
    that scales it."""
    build_calls, bounds, text = None, [], ""
    for path in sorted((ROOT / "src" / "commdet").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text += source
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and f"{path.stem}.{node.name}" == "graph._build":
                build_calls = {call.func.id for call in ast.walk(node)
                               if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
            if isinstance(node, ast.ClassDef):
                # a method or property, or a class attribute; an instance
                # attribute is an Attribute, found below
                for stmt in node.body:
                    targets = getattr(stmt, "targets", []) + [getattr(stmt, "target", None)]
                    if getattr(stmt, "name", None) == "bound" or any(
                            isinstance(t, ast.Name) and t.id == "bound" for t in targets):
                        bounds.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.Attribute) and node.attr == "bound":
                bounds.append(f"{path.stem}:{node.lineno}")
    assert build_calls is not None and "_check_fits" in build_calls
    assert build_calls & {"isinstance", "_check_loop_weight", "_entry_error"} == set()
    assert bounds == []
    assert text.count("2.0 * m * m") == 1


def _tree(module: str) -> ast.Module:
    return ast.parse((ROOT / "src" / "commdet" / f"{module}.py").read_text(encoding="utf-8"))


def _function(module: str, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(_tree(module))
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_each_per_item_step_is_written_once():
    """_sweep_range applies every move in one block under its lock, which
    is never None; the readers keep their line rules in entry and share
    formats._parse_lines; cli.py builds one csv.writer; and _finish_graph
    tests no weight for <= 0, as every entry was refused unless positive."""
    sweep = _function("louvain", "_sweep_range")
    assert len([n for n in ast.walk(sweep) if isinstance(n, ast.With)]) == 1
    assert not [n for n in ast.walk(sweep) if isinstance(n, ast.Compare)
                and any(isinstance(c, ast.Constant) and c.value is None for c in n.comparators)]
    methods = {node.name: {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
               for node in _tree("formats").body if isinstance(node, ast.ClassDef)}
    assert not [c for c, names in methods.items() if "parse_lines" in names]
    assert all("entry" in methods[c] for c in ("_EdgeListReader", "_MatrixMarketReader"))
    writers = [n for n in ast.walk(_tree("cli")) if isinstance(n, ast.Call)
               and ast.unparse(n.func) == "csv.writer"]
    assert len(writers) == 1
    finish = _function("graph", "_finish_graph")
    weight_tests = [ast.unparse(n) for n in ast.walk(finish) if isinstance(n, ast.Compare)
                    and "ws" in {x.id for x in ast.walk(n.left) if isinstance(x, ast.Name)}
                    and any(isinstance(op, ast.LtE) for op in n.ops)]
    assert weight_tests == []


def _method(module: str, cls: str, name: str) -> ast.FunctionDef:
    klass = next(node for node in _tree(module).body
                 if isinstance(node, ast.ClassDef) and node.name == cls)
    return next(f for f in klass.body if isinstance(f, ast.FunctionDef) and f.name == name)


def test_every_block_carries_its_weights_and_no_message_quotes_a_whole_line():
    """A block of entries is always int64 pairs and float64 weights: no
    reader or source takes a weights flag, no step that reads a block
    tests a weight for None, and _place takes arrays only; and every
    message quotes a line through formats._quote, never whole by !r."""
    readers = [_function("formats", "_split_entries"), _function("formats", "_read_blocks"),
               _method("formats", "_EdgeListReader", "bulk"),
               _method("formats", "_MatrixMarketReader", "bulk"),
               _method("graph", "EdgeList", "blocks"), _method("graph", "_FileBlocks", "blocks")]
    flagged = [f.name for f in readers
               if "weights" in {a.arg for a in f.args.args + f.args.kwonlyargs}]
    assert flagged == []
    steps = [_function("formats", "_entry_error"), _function("graph", "_parse"),
             _method("graph", "_RowCounts", "add"), _function("graph", "_place_blocks")]
    none_tests = [ast.unparse(n) for f in steps for n in ast.walk(f) if isinstance(n, ast.Compare)
                  and isinstance(n.left, ast.Name) and n.left.id in ("w", "ws", "weights")
                  and any(isinstance(c, ast.Constant) and c.value is None for c in n.comparators)]
    assert none_tests == []
    place = _function("graph", "_place")
    assert [n for n in ast.walk(place) if isinstance(n, ast.Call)
            and ast.unparse(n.func) == "np.ndim"] == []
    whole = [f"{module}:{n.lineno}" for module in ("formats", "community")
             for n in ast.walk(_tree(module)) if isinstance(n, ast.FormattedValue)
             and n.conversion == ord("r") and isinstance(n.value, ast.Name)
             and n.value.id in ("line", "stripped")]
    assert whole == []


RUN_FLAGS = ["--threads", "--tolerance", "--decline-factor", "--pass-tolerance",
             "--max-passes", "--max-iterations", "--mode"]


def test_run_settings_come_from_the_command_line_and_their_defaults_from_config():
    """No module reads the environment; cli.py declares --mode once, with
    louvain.MODES as its choices; and every run flag's default, like each
    of local_moving's, is an attribute of Config, where it is stated once."""
    environ = []
    for path in sorted((ROOT / "src" / "commdet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and ast.unparse(node) in ("os.environ", "os.getenv"):
                environ.append(f"{path.stem}:{node.lineno}")
    assert environ == []
    flags = {}
    for node in ast.walk(_tree("cli")):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument" and node.args
                and isinstance(node.args[0], ast.Constant)):
            keywords = {k.arg: ast.unparse(k.value) for k in node.keywords}
            flags.setdefault(node.args[0].value, []).append(keywords)
    assert len(flags["--mode"]) == 1 and flags["--mode"][0]["choices"] == "MODES"
    defaults = {flag: [kw.get("default", "") for kw in flags[flag]] for flag in RUN_FLAGS}
    assert all(len(d) == 1 and d[0].startswith("Config.") for d in defaults.values()), defaults
    local = _function("louvain", "local_moving").args.defaults
    assert local and all(ast.unparse(d).startswith("Config.") for d in local)


RUN_SETTINGS = ("tolerance_initial", "tolerance_decline_factor", "pass_tolerance", "max_passes",
                "max_iterations_per_pass", "mode", "threads")


def _fields(module: str, cls: str) -> tuple[str, ...]:
    klass = next(node for node in _tree(module).body
                 if isinstance(node, ast.ClassDef) and node.name == cls)
    return tuple(s.target.id for s in klass.body if isinstance(s, ast.AnnAssign))


def test_threads_stride_the_ids_and_a_sweep_cell_is_its_report():
    """Config holds the seven run settings and checks threads against
    MAX_THREADS; no chunk size is left in commdet, as worker w of T
    sweeps range(w, n, T) and _sweep_range takes those ids first; and a
    SweepResult is its parameters and its report, with no copy of either."""
    assert _fields("louvain", "Config") == RUN_SETTINGS
    assert _fields("louvain", "SweepResult") == ("params", "report")
    chunk = [p.stem for p in sorted((ROOT / "src" / "commdet").glob("*.py"))
             if "chunk_size" in p.read_text(encoding="utf-8")]
    assert chunk == []
    assert _function("louvain", "_sweep_range").args.args[0].arg == "ids"
    post_init = _method("louvain", "Config", "__post_init__")
    assert "MAX_THREADS" in {n.id for n in ast.walk(post_init) if isinstance(n, ast.Name)}
