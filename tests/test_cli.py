import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import commdet
import commdet.graph
from commdet.cli import (
    geometric_grid,
    main,
    parse_grid,
    write_report_csv,
    write_report_json,
)
from commdet.community import read_membership
from commdet.fixtures import cliques, gnp_graph, random_gnp, ring_of_cliques
from commdet.graph import (
    GraphParseError,
    load_graph_file,
    parse_edgelist,
    parse_matrix_market,
    save_edgelist,
)
from commdet.louvain import Config, louvain, sweep_tolerance

from conftest import read_sweep_csv, widest_within_rtol


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "two_triangles.txt"
    save_edgelist(cliques(3, 2), str(path))
    return str(path)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def test_geometric_grid_descending_tolerances():
    grid = geometric_grid(1.0, 1e-12, 10.0)
    assert len(grid) == 13
    assert grid[0] == 1.0
    assert grid[2] == pytest.approx(0.01)
    assert grid[-1] == pytest.approx(1e-12)


def test_geometric_grid_ascending_threads():
    assert geometric_grid(2, 48, 2) == [2, 4, 8, 16, 32]


@pytest.mark.parametrize("start, stop, factor, message", [
    (1.0, float("inf"), 10.0, "endpoints must be positive and finite"),
    (float("nan"), 1.0, 10.0, "endpoints must be positive and finite"),
    (1e-3, 1.0, float("inf"), "factor must be > 1 and finite"),
    (1.0, 2.0, float("nan"), "factor must be > 1 and finite"),
], ids=["inf-stop", "nan-start", "inf-factor", "nan-factor"])
def test_geometric_grid_rejects_non_finite_values(start, stop, factor, message):
    with pytest.raises(ValueError, match=message):
        geometric_grid(start, stop, factor)


def test_geometric_grid_of_equal_endpoints_is_one_cell():
    assert geometric_grid(0.5, 0.5, 10) == [0.5]


def test_geometric_grid_rejects_more_cells_than_the_cap():
    """1..1e6 by 1.0001 has about 138k cells; the cap rejects it before
    building the list, and a grid at the cap is still built."""
    with pytest.raises(ValueError, match="138163 cells, more than 10000"):
        geometric_grid(1, 1e6, 1.0001)
    assert len(geometric_grid(1.0, 1.01**9999, 1.01)) == 10_000
    with pytest.raises(ValueError, match="10001 cells"):
        geometric_grid(1.0, 1.01**10000, 1.01)


def test_geometric_grid_spans_past_the_float64_ratio():
    """stop / start overflows or underflows float64 here; the difference
    of the logs does not, and a factor**i past float64 is a ValueError."""
    assert geometric_grid(1e-300, 1e300, 1e301) == [1e-300, 1e-300 * 1e301]
    assert geometric_grid(1e300, 1e-300, 1e301) == [1e300, 1e300 / 1e301]
    with pytest.raises(ValueError, match=r"factor\*\*6 overflows float64"):
        geometric_grid(1e-300, 1e300, 1e100)


@pytest.mark.parametrize("grid, message", [
    ("1:inf:10", "grid endpoints must be positive and finite"),
    ("1:1e6:1.0001", "more than 10000"),
    ("1e-300:1e300:1e100", "overflows float64"),
])
def test_sweep_bad_geometric_grid_exits_2(grid, message, triangle_file, capsys):
    assert main(["sweep", "tolerance", "--grid", grid, "--input", triangle_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_parse_grid_comma_list():
    assert parse_grid("1,2,4") == [1.0, 2.0, 4.0]


def test_parse_grid_rejects_garbage():
    with pytest.raises(ValueError):
        parse_grid("1:2")
    with pytest.raises(ValueError):
        parse_grid("")
    with pytest.raises(ValueError):
        parse_grid("0:1:10")


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------


def test_detect_two_triangles_prints_q(triangle_file, tmp_path, capsys):
    members = str(tmp_path / "members.txt")
    rc = main(["detect", "--input", triangle_file, "--mode", "async",
               "--out-membership", members])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Q=0.5000" in out
    labels = read_membership(members)
    assert labels.tolist() == [0, 0, 0, 1, 1, 1]


@pytest.mark.parametrize("text", ["0 1 5e-324\n", "0 0 5e-324\n"], ids=["edge", "loop"])
@pytest.mark.parametrize("engine", [["--mode", "async"], ["--mode", "sync"], ["--threads", "2"]],
                         ids=["async", "sync", "threads2"])
def test_detect_on_the_least_denormal_weight_exits_0(tmp_path, capsys, text, engine):
    """A loop of weight 5e-324 halves to m = 0, which leaves no move to score."""
    path = tmp_path / "g.txt"
    path.write_text(text)
    rc = main(["detect", "--input", str(path), *engine,
               "--out-membership", str(tmp_path / "members.txt")])
    assert (rc, capsys.readouterr().err) == (0, "")


def test_detect_zero_tolerance_exits_2(triangle_file, capsys):
    rc = main(["detect", "--input", triangle_file, "--tolerance", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "tolerance must be > 0" in err


def test_detect_malformed_mtx_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n")
    rc = main(["detect", "--input", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "truncated" in err


MM_REAL = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("name, text, message", [
    ("array.mtx", "%%MatrixMarket matrix array real general\n3 3\n",
     "line 1: unsupported format 'array' (need coordinate)"),
    ("skew.mtx", "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 1\n1 2 1\n",
     "line 1: unsupported symmetry 'skew-symmetric'"),
    ("size.mtx", MM_REAL + "3 x 1\n1 2 1\n", "line 2: malformed size line: '3 x 1'"),
    ("empty.mtx", MM_REAL + "0 0 0\n", "line 2: invalid size line: '0 0 0'"),
    ("count.mtx", MM_REAL + "3 3 -1\n", "line 2: invalid size line: '3 3 -1'"),
    ("weight.mtx", MM_REAL + "3 3 1\n1 2 abc\n", "line 3: bad weight in '1 2 abc'"),
    ("n.txt", "# n x\n0 1\n", "line 1: bad n directive: '# n x'"),
    ("80.txt", "0 " + "x" * 78 + "\n", "line 1: bad entry: '0 " + "x" * 78 + "'"),
    ("81.txt", "0 " + "x" * 79 + "\n",
     "line 1: bad entry: '0 " + "x" * 78 + "' and 1 more characters"),
], ids=["array", "skew-symmetric", "size-token", "no-vertices", "negative-count", "weight",
        "n-directive", "80-characters", "81-characters"])
def test_a_malformed_file_fails_with_its_message(tmp_path, capsys, name, text, message):
    """The parse and the load raise the same GraphParseError, and stats
    exits 1 with it as its one stderr line, no traceback."""
    path = tmp_path / name
    path.write_text(text)
    parse = parse_matrix_market if name.endswith(".mtx") else parse_edgelist
    for read in (lambda: parse(io.StringIO(text)), lambda: load_graph_file(str(path))):
        with pytest.raises(GraphParseError) as err:
            read()
        assert str(err.value) == message
    assert main(["stats", "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# about 1 MB of digits, so that a message quoting its line whole is as long
LONG = "1" * (1 << 20)


@pytest.mark.parametrize("name, text, line", [
    ("entry.txt", f"0 1\n0 {LONG}\n", 2),
    ("n.txt", f"0 1\n# n {LONG}x\n", 2),
    ("header.mtx", f"%%MatrixMarket {LONG} coordinate real general\n3 3 0\n", 1),
    ("format.mtx", f"%%MatrixMarket matrix x{LONG} real general\n3 3 0\n", 1),
    ("size.mtx", f"{MM_REAL}3 3 {LONG}\n", 2),
    ("entry.mtx", f"{MM_REAL}3 3 1\n1 2 {LONG}\n", 3),
], ids=["edgelist-entry", "n-directive", "mtx-header", "mtx-format", "mtx-size", "mtx-entry"])
def test_a_long_bad_line_fails_with_a_short_message(tmp_path, capsys, name, text, line):
    """stats exits 1 with one stderr line under 300 bytes that names the
    line: a message quotes at most 80 characters of a line."""
    path = tmp_path / name
    path.write_text(text)
    assert main(["stats", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1
    assert len(err.encode()) < 300, err[:300]


@pytest.mark.parametrize("name, text, message", [
    ("netted.txt", "0 1 -1\n0 1 2\n", "line 1: non-positive weight: '0 1 -1'"),
    ("zero.txt", "0 1 0\n", "line 1: non-positive weight: '0 1 0'"),
    ("negative.txt", "0 1 -1\n", "line 1: non-positive weight: '0 1 -1'"),
    ("negative.mtx", MM_REAL + "3 3 1\n1 2 -3\n", "line 3: non-positive weight in '1 2 -3'"),
], ids=["netted-positive", "zero", "negative", "mtx-negative"])
def test_a_non_positive_weight_exits_1_naming_its_line(tmp_path, capsys, name, text, message):
    """From a file and from a pipe, even when a repeated pair would net
    the weight positive."""
    path = tmp_path / name
    path.write_text(text)
    assert main(["stats", "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    fifo = tmp_path / f"pipe-{name}"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,))
    writer.start()
    try:
        code = main(["stats", "--input", str(fifo)])
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")


@pytest.mark.parametrize(
    "name, text",
    [
        ("ids.txt", "0 1\n1 99999999999999999999\n"),
        ("n.txt", "0 1\n# n 99999999999999999999\n"),
        ("size.mtx", "%%MatrixMarket matrix coordinate pattern general\n"
                     "99999999999999999999 99999999999999999999 1\n1 2\n"),
    ],
    ids=["edgelist-id", "edgelist-n", "mtx-size"],
)
def test_ids_beyond_int64_exit_1_naming_the_line(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["stats", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2:")
    assert "int64" in err


@pytest.mark.parametrize("text, message", [
    ("0 5\n# n 3\n1 2\n", "error: line 2: n directive below vertex id 5 read before it: '# n 3'\n"),
    ("0 2\n# n 2\n", "error: line 2: n directive below vertex id 2 read before it: '# n 2'\n"),
    ("# n -4\n0 1\n", "error: line 1: negative n directive: '# n -4'\n"),
], ids=["below-an-id", "equal-to-an-id", "negative"])
def test_bad_n_directive_exits_1_naming_its_line(tmp_path, capsys, text, message):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    assert main(["detect", "--input", str(path)]) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("command", ["detect", "stats"])
def test_weight_overflow_exits_1(tmp_path, capsys, command):
    path = tmp_path / "overflow.txt"
    path.write_text("0 1 1e308\n0 1 1e308\n")
    assert main([command, "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: merged arc weight is not finite (float64 overflow)\n"


@pytest.mark.parametrize("command", [["detect"], ["stats"], ["sweep", "tolerance", "--grid", "0.1"]])
def test_graph_too_large_to_allocate_exits_1(tmp_path, command):
    # ids up to 2e12 imply 2e12 + 1 vertices: 14.6 TiB of int64 offsets,
    # which numpy refuses up front; the address-space cap makes sure of
    # that on hosts that overcommit memory
    path = tmp_path / "huge.txt"
    path.write_text("0 1\n1 2000000000000\n")
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
        "from commdet.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(commdet.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", script, *command, "--input", str(path)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 1
    assert res.stderr.startswith("error: a graph with 2000000000001 vertices does not fit")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("fmt", ["txt", "mtx"])
@pytest.mark.parametrize("command", ["detect", "stats"])
def test_graph_over_physical_memory_exits_1_before_allocating(tmp_path, capsys, monkeypatch,
                                                               command, fmt):
    # 64 MiB of physical memory: the build's estimate for a million
    # vertices is 122 MiB, for a thousand well under one
    sysconf = os.sysconf
    fake = {"SC_PHYS_PAGES": 1 << 14, "SC_PAGE_SIZE": 1 << 12}
    monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))
    out = ["--out-membership", str(tmp_path / "m.txt")] if command == "detect" else []
    for n in (1_000_000, 1000):
        path = tmp_path / f"graph{n}.{fmt}"
        path.write_text(f"%%MatrixMarket matrix coordinate pattern general\n{n} {n} 1\n1 2\n"
                        if fmt == "mtx" else f"# n {n}\n0 1\n")
        tracemalloc.start()
        try:
            code = main([command, "--input", str(path), *out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        if n == 1000:
            assert (code, err) == (0, "")
        else:
            # refused before its first n-length array, 8 MB as int64
            assert peak < 4 << 20
            assert code == 1
            assert err == ("error: a graph with 1000000 vertices does not fit in memory: "
                           "an estimated 122 MiB exceeds physical memory\n")


@pytest.mark.parametrize("cgroup, physical, named", [
    (64 << 20, None, "the cgroup memory limit"),
    (1 << 30, 64 << 20, "physical memory"),
], ids=["cgroup-smaller", "physical-smaller"])
def test_memory_refusal_takes_the_smaller_of_physical_memory_and_the_cgroup_limit(
    tmp_path, capsys, monkeypatch, cgroup, physical, named
):
    """The refusal compares the estimate with the smaller of the two limits
    and names it; a thousand vertices still load under either."""
    monkeypatch.setattr(commdet.graph, "_cgroup_memory_limit", lambda: cgroup)
    if physical is not None:
        sysconf = os.sysconf
        fake = {"SC_PHYS_PAGES": physical >> 12, "SC_PAGE_SIZE": 1 << 12}
        monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))
    for n in (1_000_000, 1000):
        path = tmp_path / f"graph{n}.txt"
        path.write_text(f"# n {n}\n0 1\n")
        code = main(["stats", "--input", str(path)])
        err = capsys.readouterr().err
        if n == 1000:
            assert (code, err) == (0, "")
        else:
            assert code == 1
            assert err == ("error: a graph with 1000000 vertices does not fit in memory: "
                           f"an estimated 122 MiB exceeds {named}\n")


def _crossing_entries(monkeypatch):
    """64 MiB of physical memory and an edge list whose entries push the
    build's estimate past it partway through the count pass: n sits 100
    vertices under the limit's vertex count, three blocks of 4096 entries
    hold ids below 1000, and the last ten targets are n - 1 ... n - 10."""
    monkeypatch.setattr(commdet.graph, "_cgroup_memory_limit", lambda: None)
    sysconf = os.sysconf
    fake = {"SC_PHYS_PAGES": 1 << 14, "SC_PAGE_SIZE": 1 << 12}
    monkeypatch.setattr(os, "sysconf", lambda name: fake.get(name) or sysconf(name))
    n = (64 << 20) // commdet.graph.RUN_BYTES_PER_VERTEX - 100
    pairs = np.random.default_rng(0).integers(1000, size=(3 * 4096, 2))
    pairs[-10:, 1] = n - 1 - np.arange(10)
    return n, pairs


CROSSING_REFUSAL = ("a graph with 524188 vertices does not fit in memory: "
                    "an estimated 64 MiB exceeds physical memory")


def test_an_edgelist_that_crosses_the_budget_while_counted_is_refused(monkeypatch):
    """The refusal follows the count pass for an EdgeList as for a file,
    so rows the stopped count pass never sized are not placed into."""
    n, pairs = _crossing_entries(monkeypatch)
    edges = commdet.graph.EdgeList(n, pairs, np.ones(len(pairs)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            commdet.graph.build_graph(edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == CROSSING_REFUSAL
    # refused before its first n-length array, 4 MB as int64
    assert peak < 4 << 20


def test_a_pipe_that_crosses_the_budget_while_counted_exits_1(tmp_path, capsys, monkeypatch):
    n, pairs = _crossing_entries(monkeypatch)
    text = f"# n {n}\n" + "".join(f"{u} {v}\n" for u, v in pairs.tolist())
    fifo = tmp_path / "pipe.txt"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,))
    writer.start()
    try:
        code = main(["stats", "--input", str(fifo)])
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert (code, capsys.readouterr().err) == (1, f"error: {CROSSING_REFUSAL}\n")


def test_a_memory_error_in_the_count_pass_is_refused_without_a_vertex_count(
    tmp_path, capsys, monkeypatch
):
    """A file's source has no n until its count pass ends, so the refusal
    of a MemoryError raised in that pass names no vertex count."""
    def refuse(self, pairs, ws):
        raise MemoryError("Unable to allocate 9 GiB")

    monkeypatch.setattr(commdet.graph._RowCounts, "add", refuse)
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    edges = commdet.graph.EdgeList(3, np.array([[0, 1], [1, 2]]), np.ones(2))
    for build in (lambda: load_graph_file(str(path)), lambda: commdet.graph.build_graph(edges)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == "the graph does not fit in memory: Unable to allocate 9 GiB"
    assert main(["stats", "--input", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: the graph does not fit in memory: Unable to allocate 9 GiB\n"
    )


@pytest.mark.parametrize("v2, v1, limit", [
    ("max\n", "1073741824\n", None),
    (None, "9223372036854771712\n", None),
    ("67108864\n", "1073741824\n", 64 << 20),
    (None, "1073741824\n", 1 << 30),
    (None, None, None),
    ("garbage\n", None, None),
], ids=["v2-max", "v1-sentinel", "v2", "v1", "none", "unreadable"])
def test_cgroup_memory_limit_reads_the_first_cgroup_file(tmp_path, monkeypatch, v2, v1, limit):
    """v2's memory.max, else v1's memory.limit_in_bytes; "max" and v1's
    value near 2**63 mean no limit."""
    paths = []
    for name, text in (("memory.max", v2), ("memory.limit_in_bytes", v1)):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        paths.append(str(path))
    monkeypatch.setattr(commdet.graph, "_CGROUP_MEMORY_FILES", tuple(paths))
    assert commdet.graph._cgroup_memory_limit() == limit


def test_detect_missing_file_exits_1(capsys):
    rc = main(["detect", "--input", "/nonexistent/graph.mtx"])
    assert rc == 1


@pytest.mark.parametrize("name, data, message", [
    ("bad.txt", b"0 1\n1 2\n2 \xff0\n", "line 3: bad entry: '2 \ufffd0'"),
    ("bad.mtx", b"%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n\xff 3\n",
     "line 4: bad vertex id in '\ufffd 3'"),
], ids=["edgelist", "mtx"])
def test_undecodable_byte_exits_1_naming_its_line(tmp_path, capsys, name, data, message):
    path = tmp_path / name
    path.write_bytes(data)
    assert main(["stats", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_undecodable_byte_in_a_comment_is_ignored(tmp_path, capsys):
    path = tmp_path / "comment.txt"
    path.write_bytes(b"# caf\xe9\n0 1\n")
    assert main(["stats", "--input", str(path)]) == 0


def test_detect_sync_plus_threads_exits_2(triangle_file, capsys):
    rc = main(["detect", "--input", triangle_file, "--mode", "sync", "--threads", "2"])
    assert rc == 2
    assert "sync" in capsys.readouterr().err


def test_detect_threads1_matches_sequential_membership(triangle_file, tmp_path, capsys):
    m_seq = str(tmp_path / "seq.txt")
    m_par = str(tmp_path / "par.txt")
    assert main(["detect", "--input", triangle_file, "--mode", "async",
                 "--out-membership", m_seq]) == 0
    assert main(["detect", "--input", triangle_file, "--threads", "1",
                 "--out-membership", m_par]) == 0
    capsys.readouterr()
    assert open(m_seq).read() == open(m_par).read()


def test_detect_sync_on_one_thread_matches_sync_membership(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    save_edgelist(random_gnp(80, 0.08, seed=3), str(graph))
    m_sync, m_one = str(tmp_path / "sync.txt"), str(tmp_path / "one.txt")
    assert main(["detect", "--input", str(graph), "--mode", "sync",
                 "--out-membership", m_sync]) == 0
    assert main(["detect", "--mode", "sync", "--threads", "1", "--input", str(graph),
                 "--out-membership", m_one]) == 0
    capsys.readouterr()
    assert open(m_one, "rb").read() == open(m_sync, "rb").read()


@pytest.mark.parametrize("argv", [
    ["detect", "--threads", "2"],
    ["sweep", "tolerance", "--grid", "0.1", "--threads", "2"],
    ["sweep", "threads", "--grid", "1,2"],
], ids=["detect-flag", "tolerance-flag", "threads-grid"])
def test_sync_above_one_thread_exits_2_before_any_run(argv, triangle_file, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(sys.modules["commdet.louvain"], "louvain",
                        lambda *args: runs.append(args))
    monkeypatch.setattr(sys.modules["commdet.cli"], "louvain",
                        lambda *args: runs.append(args))
    assert main([*argv, "--mode", "sync", "--input", triangle_file]) == 2
    assert capsys.readouterr().err == "error: the threaded engine only supports async mode\n"
    assert runs == []


def test_detect_deterministic_membership_bytes(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    save_edgelist(random_gnp(80, 0.08, seed=3), str(graph))
    m1, m2 = str(tmp_path / "m1.txt"), str(tmp_path / "m2.txt")
    assert main(["detect", "--input", str(graph), "--out-membership", m1]) == 0
    assert main(["detect", "--input", str(graph), "--out-membership", m2]) == 0
    capsys.readouterr()
    assert open(m1, "rb").read() == open(m2, "rb").read()


def test_detect_max_iterations_truncates(triangle_file, tmp_path, capsys):
    rep = str(tmp_path / "rep.json")
    assert main(["detect", "--input", triangle_file, "--max-iterations", "1",
                 "--out-report", rep, "--report-format", "json"]) == 0
    capsys.readouterr()
    totals = _read_json(rep)["totals"]
    assert totals["truncated"] is True
    assert totals["total_iterations"] == totals["passes"]


def test_detect_max_passes_caps_the_report(triangle_file, tmp_path, capsys):
    full, capped = str(tmp_path / "full.json"), str(tmp_path / "capped.json")
    assert main(["detect", "--input", triangle_file, "--out-report", full,
                 "--report-format", "json"]) == 0
    assert main(["detect", "--input", triangle_file, "--max-passes", "1",
                 "--out-report", capped, "--report-format", "json"]) == 0
    capsys.readouterr()
    assert len(_read_json(full)["passes"]) > 1
    assert len(_read_json(capped)["passes"]) == 1
    assert _read_json(capped)["totals"]["passes"] == 1


def test_no_symmetrize_rejects_one_sided_edge_list(tmp_path, capsys):
    path = tmp_path / "one_sided.txt"
    path.write_text("0 1\n1 2\n")
    assert main(["detect", "--input", str(path)]) == 0
    capsys.readouterr()
    assert main(["detect", "--input", str(path), "--no-symmetrize"]) == 1
    assert "not symmetric" in capsys.readouterr().err


def test_detect_without_symmetrizing_pairs_within_tolerance_exits_0(tmp_path, capsys):
    """Two 5-cliques joined by arcs i -> 5 + i whose reverse weighs the
    most the load accepts: pass-0 aggregation sums those pairs into one
    coarse pair each way, and rounding once put the two sums past the
    tolerance, so detect ended in a traceback where stats exited 0."""
    lines = [f"{b + i} {b + j} 10.0" for b in (0, 5) for i in range(5) for j in range(5) if i != j]
    a = np.random.default_rng(2).uniform(0.5, 2.0, 5)
    for i, (w, w_rev) in enumerate(zip(a.tolist(), widest_within_rtol(a).tolist())):
        lines += [f"{i} {5 + i} {w!r}", f"{5 + i} {i} {w_rev!r}"]
    path = tmp_path / "near_symmetric.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["stats", "--input", str(path), "--no-symmetrize"]) == 0
    assert main(["detect", "--input", str(path), "--no-symmetrize"]) == 0
    assert "Q=" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_csv_round_trip(tmp_path):
    g = gnp_graph(60, 0.1, seed=4)
    _, rep = louvain(g)
    path = str(tmp_path / "report.csv")
    write_report_csv(path, rep)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == rep.n_passes
    for got, want in zip(rows, rep.passes):
        assert int(got["pass"]) == want.index
        assert int(got["iterations"]) == want.iterations
        assert float(got["q"]) == want.q_after
        assert float(got["local_ms"]) == want.local_ms
        assert float(got["agg_ms"]) == want.agg_ms
        assert int(got["vertices"]) == want.vertices


def test_report_json_round_trip(tmp_path):
    g = gnp_graph(60, 0.1, seed=4)
    _, rep = louvain(g, Config(threads=2))
    path = str(tmp_path / "report.json")
    write_report_json(path, rep)
    back = _read_json(path)
    assert len(back["passes"]) == rep.n_passes
    for got, want in zip(back["passes"], rep.passes):
        assert got == {"pass": want.index, "iterations": want.iterations, "q": want.q_after,
                       "local_ms": want.local_ms, "agg_ms": want.agg_ms,
                       "vertices": want.vertices, "conflicts": want.conflicts}
    assert back["totals"] == {
        "passes": rep.n_passes,
        "total_iterations": rep.total_iterations,
        "final_q": rep.final_q,
        "wall_ms": rep.wall_ms,
        "truncated": rep.truncated,
        "threads": rep.threads,
        "max_sigma_drift": rep.max_sigma_drift,
    }


def test_report_csv_header_is_fixed(tmp_path):
    g = gnp_graph(30, 0.2, seed=1)
    _, rep = louvain(g)
    path = str(tmp_path / "r.csv")
    write_report_csv(path, rep)
    assert open(path).readline().strip() == "pass,iterations,q,local_ms,agg_ms,vertices"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_tolerance_grid_row_count(triangle_file, tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    rc = main(["sweep", "tolerance", "--grid", "1:1e-12:10",
               "--input", triangle_file, "--out-report", out])
    capsys.readouterr()
    assert rc == 0
    rows = read_sweep_csv(out)
    assert len(rows) == 13
    assert rows[0]["tolerance"] == 1.0
    assert rows[-1]["tolerance"] == pytest.approx(1e-12)


def test_sweep_threads_grid_row_count(triangle_file, tmp_path, capsys):
    out = str(tmp_path / "threads.csv")
    rc = main(["sweep", "threads", "--grid", "2:48:2",
               "--input", triangle_file, "--out-report", out])
    capsys.readouterr()
    assert rc == 0
    rows = read_sweep_csv(out)
    assert [r["threads"] for r in rows] == [2, 4, 8, 16, 32]


def test_sweep_single_cell_matches_detect(triangle_file, tmp_path, capsys):
    out = str(tmp_path / "cell.csv")
    rep_path = str(tmp_path / "rep.json")
    assert main(["sweep", "tolerance", "--grid", "0.01",
                 "--input", triangle_file, "--out-report", out]) == 0
    assert main(["detect", "--input", triangle_file,
                 "--out-report", rep_path, "--report-format", "json"]) == 0
    capsys.readouterr()
    (row,) = read_sweep_csv(out)
    totals = _read_json(rep_path)["totals"]
    assert row["final_q"] == totals["final_q"]
    assert row["passes"] == totals["passes"]
    assert row["total_iterations"] == totals["total_iterations"]


def test_sweep_decline_kind(triangle_file, tmp_path, capsys):
    out = str(tmp_path / "decline.csv")
    assert main(["sweep", "decline", "--grid", "10,100,1000",
                 "--input", triangle_file, "--out-report", out]) == 0
    capsys.readouterr()
    rows = read_sweep_csv(out)
    assert [r["decline_factor"] for r in rows] == [10.0, 100.0, 1000.0]


@pytest.mark.parametrize("kind, grid, message", [
    ("tolerance", "0.1,0", "tolerance must be > 0"),
    ("decline", "10,0.5", "tolerance_decline_factor must be >= 1"),
    ("threads", "1,0", "threads must be an integer >= 1, got 0.0"),
    ("threads", "1.7", "threads must be an integer >= 1, got 1.7"),
    ("threads", "1,65", "threads must be at most 64, got 65"),
])
def test_sweep_invalid_cell_exits_2_before_any_run(kind, grid, message, triangle_file,
                                                    tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(sys.modules["commdet.louvain"], "louvain",
                        lambda *args: runs.append(args))
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", kind, "--grid", grid, "--input", triangle_file,
                 "--out-report", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert runs == []
    assert not os.path.exists(out)


def test_detect_above_max_threads_exits_2_before_the_load(triangle_file, tmp_path, capsys,
                                                         monkeypatch):
    loads, runs = [], []
    cli = sys.modules["commdet.cli"]
    monkeypatch.setattr(cli, "load_graph_file", lambda *args, **kw: loads.append(args))
    monkeypatch.setattr(cli, "louvain", lambda *args: runs.append(args))
    outs = [str(tmp_path / "m.txt"), str(tmp_path / "rep.csv")]
    assert main(["detect", "--threads", "65", "--input", triangle_file,
                 "--out-membership", outs[0], "--out-report", outs[1]]) == 2
    assert capsys.readouterr().err == "error: threads must be at most 64, got 65\n"
    assert loads == runs == []
    assert not any(map(os.path.exists, outs))


@pytest.mark.parametrize("kind, grid", [("tolerance", "0.1,0.01"), ("decline", "10,100")])
@pytest.mark.parametrize("flags, want", [(["--threads", "2"], 2), ([], 1)],
                         ids=["flag", "default"])
def test_sweep_tolerance_and_decline_take_the_thread_count(kind, grid, flags, want,
                                                           triangle_file, capsys, monkeypatch):
    louvain_mod = sys.modules["commdet.louvain"]
    real, threads = louvain_mod.louvain, []
    monkeypatch.setattr(louvain_mod, "louvain",
                        lambda g, cfg: threads.append(cfg.threads) or real(g, cfg))
    assert main(["sweep", kind, "--grid", grid, "--input", triangle_file, *flags]) == 0
    capsys.readouterr()
    assert threads == [want, want]


@pytest.mark.parametrize("value", ["3", "lots"])
def test_the_environment_sets_no_thread_count(value, tmp_path, capsys, monkeypatch):
    graph = tmp_path / "g.txt"
    save_edgelist(random_gnp(80, 0.08, seed=3), str(graph))
    rep = str(tmp_path / "rep.json")
    louvain_mod = sys.modules["commdet.louvain"]
    real, threads = louvain_mod.louvain, []
    monkeypatch.setattr(louvain_mod, "louvain",
                        lambda g, cfg: threads.append(cfg.threads) or real(g, cfg))
    monkeypatch.setenv("COMMDET_THREADS", value)
    assert main(["detect", "--input", str(graph), "--out-report", rep,
                 "--report-format", "json"]) == 0
    assert _read_json(rep)["totals"]["threads"] == 1
    assert main(["detect", "--mode", "sync", "--input", str(graph)]) == 0
    assert main(["sweep", "tolerance", "--grid", "0.1,0.01", "--input", str(graph)]) == 0
    capsys.readouterr()
    assert threads == [1, 1]


def test_sweep_threads_one_thread_runs_sync(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    save_edgelist(random_gnp(80, 0.08, seed=3), str(graph))
    rep = str(tmp_path / "rep.json")
    assert main(["sweep", "threads", "--grid", "1", "--mode", "sync", "--input", str(graph)]) == 0
    (row,) = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert main(["detect", "--mode", "sync", "--input", str(graph), "--out-report", rep,
                 "--report-format", "json"]) == 0
    capsys.readouterr()
    totals = _read_json(rep)["totals"]
    assert (float(row["final_q"]), int(row["total_iterations"])) == (
        totals["final_q"], totals["total_iterations"])


@pytest.mark.parametrize("flag", ["--tolerance", "--decline-factor", "--pass-tolerance"])
def test_detect_nan_parameter_exits_2(flag, triangle_file, capsys):
    assert main(["detect", "--input", triangle_file, flag, "nan"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_json_report_rows(triangle_file, tmp_path, capsys):
    out = str(tmp_path / "sweep.json")
    assert main(["sweep", "tolerance", "--grid", "0.1,0.01", "--input", triangle_file,
                 "--out-report", out, "--report-format", "json"]) == 0
    capsys.readouterr()
    rows = _read_json(out)
    want = sweep_tolerance(load_graph_file(triangle_file), [0.1, 0.01], [10.0])
    assert len(rows) == len(want) == 2
    for row, cell in zip(rows, want):
        assert list(row) == ["tolerance", "decline_factor", "final_q", "passes",
                             "total_iterations", "wall_time_ms"]
        assert (row["tolerance"], row["decline_factor"]) == (
            cell.params["tolerance"], cell.params["decline_factor"])
        assert row["final_q"] == cell.report.final_q
        assert row["passes"] == cell.report.n_passes
        assert row["total_iterations"] == cell.report.total_iterations


def test_sweep_stdout_when_no_report_path(triangle_file, capsys):
    assert main(["sweep", "tolerance", "--grid", "0.1,0.01",
                 "--input", triangle_file]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines[0].startswith("tolerance,decline_factor,final_q")
    assert len(lines) == 3


def test_sweep_bad_grid_exits_2(triangle_file, capsys):
    assert main(["sweep", "tolerance", "--grid", "nope",
                 "--input", triangle_file]) == 2


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_stats_two_triangles(triangle_file, capsys):
    assert main(["stats", "--input", triangle_file]) == 0
    assert capsys.readouterr().out.strip() == "|V|=6 |E|=12 Davg=2.00"


def test_stats_with_self_loops(triangle_file, capsys):
    assert main(["stats", "--input", triangle_file, "--add-self-loops"]) == 0
    assert "|E|=18" in capsys.readouterr().out


def test_stats_mtx_format(tmp_path, capsys):
    mtx = tmp_path / "k3.mtx"
    mtx.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 1\n3 2\n"
    )
    assert main(["stats", "--input", str(mtx)]) == 0
    assert capsys.readouterr().out.strip() == "|V|=3 |E|=6 Davg=2.00"


def test_format_flag_reads_matrix_market_named_txt(tmp_path, capsys):
    path = tmp_path / "k3.txt"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 1\n3 2\n"
    )
    assert main(["stats", "--input", str(path)]) == 1
    assert "expected 'u v [w]'" in capsys.readouterr().err
    assert main(["stats", "--input", str(path), "--format", "mtx"]) == 0
    assert capsys.readouterr().out.strip() == "|V|=3 |E|=6 Davg=2.00"


@pytest.mark.parametrize("argv", [
    ["stats", "--out-report", "{out}"],
    ["stats", "--threads", "2"],
    ["stats", "--tolerance", "-5", "--out-report", "{out}"],
    ["detect", "--chunk-size", "8", "--out-report", "{out}"],
    ["sweep", "tolerance", "--grid", "0.1", "--out-membership", "{out}"],
], ids=["stats-report", "stats-threads", "stats-tolerance", "detect-chunk-size",
        "sweep-membership"])
def test_flags_a_command_does_not_read_exit_2(argv, triangle_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    with pytest.raises(SystemExit) as exc:
        main([a.replace("{out}", out) for a in argv] + ["--input", triangle_file])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert os.listdir(tmp_path) == [os.path.basename(triangle_file)]


def test_detect_mtx_with_self_loop_weight(tmp_path, capsys):
    mtx = tmp_path / "pair.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n")
    assert main(["detect", "--input", str(mtx), "--add-self-loops=0.5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Q=")


@pytest.mark.parametrize("weight", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command", ["stats", "detect"])
def test_bad_self_loop_weight_exits_2_before_reading_the_input(command, weight, tmp_path, capsys):
    # the input does not exist, so reaching the load would exit 1
    missing = str(tmp_path / "missing.txt")
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", missing, "--add-self-loops", weight])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --add-self-loops: self-loop weight must be positive and finite" in err


def test_a_self_loop_weight_that_is_no_float_exits_2(triangle_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--input", triangle_file, "--add-self-loops", "abc"])
    assert exc.value.code == 2
    assert "argument --add-self-loops: invalid float value: 'abc'" in capsys.readouterr().err


def _forbid_the_run(monkeypatch):
    """Make loading the graph or running Louvain fail the test."""
    def reached(*args, **kwargs):
        raise AssertionError("the run started before its output paths were checked")

    for module in ("commdet.cli", "commdet.louvain"):
        monkeypatch.setattr(sys.modules[module], "louvain", reached)
    monkeypatch.setattr(sys.modules["commdet.cli"], "load_graph_file", reached)


@pytest.mark.parametrize("argv", [
    ["gen", "cliques", "--out", "{out}"],
    ["detect", "--input", "{input}", "--out-membership", "{out}"],
    ["detect", "--input", "{input}", "--out-report", "{out}"],
    ["sweep", "tolerance", "--grid", "0.1", "--input", "{input}", "--out-report", "{out}"],
], ids=["gen", "detect-membership", "detect-report", "sweep-report"])
def test_unwritable_output_path_exits_2(argv, triangle_file, tmp_path, capsys, monkeypatch):
    _forbid_the_run(monkeypatch)
    out = str(tmp_path / "missing" / "out.txt")
    rc = main([a.replace("{out}", out).replace("{input}", triangle_file) for a in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and out in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["detect", "--out-membership"],
    ["detect", "--out-report"],
    ["sweep", "threads", "--grid", "1", "--out-report"],
], ids=["detect-membership", "detect-report", "sweep-report"])
def test_output_path_that_is_a_directory_exits_2_before_the_load(
    argv, triangle_file, tmp_path, capsys, monkeypatch
):
    _forbid_the_run(monkeypatch)
    assert main([*argv, str(tmp_path), "--input", triangle_file]) == 2
    assert capsys.readouterr().err == f"error: output path is a directory: {tmp_path}\n"


def test_no_output_file_is_touched_when_one_cannot_be_written(triangle_file, tmp_path, capsys):
    kept, fresh = tmp_path / "kept.txt", tmp_path / "fresh.txt"
    kept.write_text("old\n")
    bad_report = str(tmp_path / "missing" / "report.csv")
    for membership in (kept, fresh):
        argv = ["detect", "--input", triangle_file, "--out-membership", str(membership),
                "--out-report", bad_report]
        assert main(argv) == 2
    assert capsys.readouterr().err.count(f"error: output directory does not exist: {bad_report}") == 2
    assert kept.read_text() == "old\n" and not fresh.exists()


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_cliques_gives_triangle_fixture(tmp_path, capsys):
    out = str(tmp_path / "tri.txt")
    assert main(["gen", "cliques", "--k", "3", "--count", "2", "--out", out]) == 0
    capsys.readouterr()
    assert main(["detect", "--input", out]) == 0
    assert "Q=0.5000" in capsys.readouterr().out


def test_gen_random_deterministic(tmp_path, capsys):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    assert main(["gen", "random", "--n", "64", "--p", "0.1", "--seed", "42", "--out", a]) == 0
    assert main(["gen", "random", "--n", "64", "--p", "0.1", "--seed", "42", "--out", b]) == 0
    capsys.readouterr()
    assert open(a, "rb").read() == open(b, "rb").read()


# sha256 of the files written before edge lists became arrays
GEN_DIGESTS = [
    (["cliques"], "bbfb13ff0c9d761ac8008cacc9ba7cfa0302680c08b39e7d922f4bc4b607f166"),
    (["cliques", "--k", "4", "--count", "5", "--bridges", "2"],
     "f713e423d19ab16782aa94101a426225527e1622fbd583a336dbdbefa058b9b5"),
    (["ring-of-cliques"], "e0cf3a88bb34c1778a1c8dc24584df6e34dfc3d5afb460907a0ed04a240dd2d2"),
    (["ring-of-cliques", "--k", "3", "--count", "1"],
     "76a2c2f56aaaffbecc20495887211b981901bf94354659c70139c8c454f20295"),
    (["random"], "bfaefbda11797426fb43a41c0c6f6c42146357c79e41e500b56d0d1ecf138867"),
    (["random", "--n", "200", "--p", "0.3", "--seed", "5"],
     "285637c2aafae8515c9918c6690b9dee163fe2a08372c54ad984929ec34a15b0"),
    (["random", "--n", "10", "--p", "0.0"],
     "1f10e7705de736e1b03a7ad67b6cd02f9bc6ede947575ec071606b6dd3b27c5b"),
]


@pytest.mark.parametrize("args, digest", GEN_DIGESTS)
def test_gen_output_bytes_unchanged(tmp_path, capsys, args, digest):
    out = tmp_path / "g.txt"
    assert main(["gen", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_gen_writes_builtin_numbers(tmp_path, capsys):
    out = tmp_path / "t.txt"
    assert main(["gen", "cliques", "--k", "3", "--count", "2", "--bridges", "1",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}: n=6 edges=7\n"
    assert out.read_text() == (
        "# n 6\n0 1 1.0\n0 2 1.0\n1 2 1.0\n3 4 1.0\n3 5 1.0\n4 5 1.0\n0 3 1.0\n"
    )


def test_gen_invalid_params_exit_2(tmp_path, capsys):
    out = tmp_path / "g.txt"
    for argv, message in [
        (["cliques", "--k", "1"], "clique size must be >= 2"),
        (["cliques", "--count", "0"], "clique count must be >= 1"),
        (["cliques", "--k", "5", "--bridges", "6"], "bridges must lie in [0, k]"),
        (["random", "--n", "0"], "n must be >= 1"),
        (["random", "--p", "1.5"], "p must lie in [0, 1]"),
    ]:
        assert main(["gen", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_ring_of_one_clique_is_the_clique():
    ring, clique = ring_of_cliques(4, 1), cliques(4, 1)
    assert ring.n == clique.n
    assert ring.entries.tolist() == clique.entries.tolist()
    assert ring.weights.tolist() == clique.weights.tolist()


@pytest.mark.parametrize("argv", [["random", "--n", "200000"],
                                  ["cliques", "--k", "100000", "--count", "2"]],
                         ids=["random", "cliques"])
def test_gen_over_memory_exits_2_before_allocating(tmp_path, argv):
    # the generators' arrays would take hundreds of GiB (37 GiB for the
    # first request alone); the address-space cap makes an allocation
    # fail rather than page on a host that overcommits memory
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
        "from commdet.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    out = tmp_path / "g.txt"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(commdet.__file__)))
    res = subprocess.run([sys.executable, "-c", script, "gen", *argv, "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 2
    assert res.stderr.startswith("error: a graph with 200000 vertices does not fit in memory: ")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr
    assert not out.exists()


def test_gen_ring_of_cliques_detectable(tmp_path, capsys):
    out = str(tmp_path / "ring.txt")
    assert main(["gen", "ring-of-cliques", "--k", "5", "--count", "8", "--out", out]) == 0
    assert main(["detect", "--input", out]) == 0
    printed = capsys.readouterr().out
    q = float([tok for tok in printed.split() if tok.startswith("Q=")][-1][2:])
    assert q >= 0.7
