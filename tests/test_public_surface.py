"""Every name the benchmark and the acceptance tests import from commdet,
and every name a module exports, exists; every benchmark command line parses."""

import ast
import importlib
from pathlib import Path

import pytest

from commdet.cli import build_parser


ROOT = Path(__file__).resolve().parent.parent
MODULES = ["commdet.cli", "commdet.community", "commdet.fixtures", "commdet.graph",
           "commdet.louvain", "commdet.parallel"]


def _commdet_imports():
    """(file, module, name) for each ``from commdet... import name`` in the
    benchmark scripts and the acceptance tests."""
    files = sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "commdet":
                for alias in node.names:
                    yield f"{path.parent.name}/{path.name}", node.module, alias.name


IMPORTS = list(_commdet_imports())


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


def test_parallel_names_are_louvain_objects():
    # commdet.parallel only renames the engine; it defines nothing itself
    parallel = importlib.import_module("commdet.parallel")
    engine = importlib.import_module("commdet.louvain")
    for name in parallel.__all__:
        obj = getattr(parallel, name)
        assert obj.__module__ == "commdet.louvain"
        assert getattr(engine, obj.__name__) is obj, name


def test_every_bench_argv_parses(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    assert workloads.WORKLOADS
    parser = build_parser()
    for w in workloads.WORKLOADS.values():
        args = parser.parse_args(w.argv("in", "m"))
        assert (args.command, args.input) == (w.kind, "in"), w.name
