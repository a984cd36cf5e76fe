"""The two text formats, read a block of lines at a time.

Each format has a reader: the state one block of lines leaves for the
next, an entry method that reads one stripped line under the format's
rules and is the only source of its GraphParseError, and a bulk path
that splits every block once and converts it with numpy, kept only when
_split_entries proves the line loop would read it without error, to the
same ids and weights.  One line loop, _parse_lines, serves both readers.
_read_blocks yields each block of a stream as int64 pairs and float64
weights; graph.py, which alone sets the ids' width, collects or places them.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

__all__ = ["GraphParseError"]


class GraphParseError(ValueError):
    """Raised when an input graph file cannot be parsed."""


# lines per block of a text file's parse: each block is split once and
# converted in bulk, and its temporaries, about 200 bytes per line of
# tokens and line strings (tracemalloc), sit beside the load's columns
BLOCK_LINES = 1536

_MM_FIELDS = ("pattern", "real", "integer")
_MM_SYMMETRIES = ("general", "symmetric")
# the largest vertex count whose n + 1 CSR offsets fit an int64
_MAX_VERTICES = int(np.iinfo(np.int64).max) - 1


def _quote(text: str) -> str:
    """repr(text); past 80 characters, that of the first 80 and the count left out."""
    return repr(text) if len(text) <= 80 else f"{text[:80]!r} and {len(text) - 80} more characters"


def _entry_error(pairs: np.ndarray, ws: np.ndarray, bound: int) -> str | None:
    """The message of the entry rule that pairs and ws break, or None: ids
    in [0, bound), then weights finite, then positive.  The min and max,
    NaN if any weight is, make no entry-length temporary."""
    if pairs.size and (pairs.min() < 0 or pairs.max() >= bound):
        return "edge endpoint outside declared vertex range"
    if not ws.size:
        return None
    least, most = ws.min(), ws.max()
    if not np.isfinite((least, most)).all():
        return "non-finite edge weight"
    return "non-positive edge weight" if least <= 0 else None


def _split_entries(toks: list, lines: int, k: int, base: int, bound: int):
    """The (pairs, weights) of a block of lines whose tokens, split from
    the lines joined by " ; ", are toks, if every (k + 1)-th token is a
    joint, ";", and numpy converts the others as int() and float() do to
    ids less base in [0, bound) and finite, positive weights, 1.0 if k is
    2; else None.  pairs is int64 of shape (lines, 2), the weights float64.

    _parse_lines then reads the same entries.  No token holding "#", "%"
    or ";" converts, and a comment line starts with one, so the joints
    are the only ";" tokens and each line holds k numbers.
    """
    if len(toks) != (k + 1) * lines - 1 or toks[k :: k + 1].count(";") != lines - 1:
        return None
    del toks[k :: k + 1]
    try:
        ws = np.array(toks[2::3], dtype=np.float64) if k == 3 else np.ones(lines)
        if k == 3:
            del toks[2::3]
        pairs = np.array(toks, dtype=np.int64).reshape(lines, 2)
    except (ValueError, OverflowError):
        return None
    pairs -= base
    return None if _entry_error(pairs, ws, bound) else (pairs, ws)


def _parse_lines(reader, lines: list, line_no: int):
    """The entries of lines, the first of them line line_no: each line is
    stripped, a blank one skipped, and reader.entry gives the (u, v, w) of
    any other, or None for a line that holds no entry."""
    ids, ws = [], []
    entry = reader.entry
    for line_no, raw in enumerate(lines, start=line_no):
        line = raw.strip()
        if line and (read := entry(line, line_no)) is not None:
            ids += read[:2]
            ws.append(read[2])
    return np.array(ids, dtype=np.int64).reshape(-1, 2), np.array(ws, dtype=np.float64)


class _EdgeListReader:
    """The edge-list parse: the state that one block of lines leaves for
    the next, the bulk path for a block and the entry rule for a line, the
    only source of the format's errors."""

    def __init__(self) -> None:
        self.declared_n: int | None = None
        self.max_id = -1
        self.n: int | None = None

    def bulk(self, toks: list, lines: int):
        """The block's entries as _parse_lines gives them, or None when the
        block might not parse cleanly; the state moves only on success."""
        k = (len(toks) + 1) // lines - 1
        bound = _MAX_VERTICES if self.declared_n is None else self.declared_n
        block = _split_entries(toks, lines, k, 0, bound) if k in (2, 3) else None
        if block is not None:
            self.max_id = max(self.max_id, int(block[0].max()))
        return block

    def entry(self, line: str, line_no: int):
        """The (u, v, w) of line line_no, or None for a comment."""
        if line.startswith("#"):
            toks = line[1:].split()
            if len(toks) == 2 and toks[0] == "n":
                try:
                    declared_n = int(toks[1])
                except ValueError as exc:
                    raise GraphParseError(
                        f"line {line_no}: bad n directive: {_quote(line)}"
                    ) from exc
                if declared_n > _MAX_VERTICES:
                    raise GraphParseError(
                        f"line {line_no}: n directive exceeds the int64 id range: {_quote(line)}"
                    )
                if declared_n < 0:
                    raise GraphParseError(f"line {line_no}: negative n directive: {_quote(line)}")
                if declared_n <= self.max_id:
                    raise GraphParseError(
                        f"line {line_no}: n directive below vertex id {self.max_id} read "
                        f"before it: {_quote(line)}"
                    )
                self.declared_n = declared_n
            return None
        toks = line.split()
        if len(toks) not in (2, 3):
            raise GraphParseError(f"line {line_no}: expected 'u v [w]', got {_quote(line)}")
        try:
            u, v = int(toks[0]), int(toks[1])
            w = float(toks[2]) if len(toks) == 3 else 1.0
        except ValueError as exc:
            raise GraphParseError(f"line {line_no}: bad entry: {_quote(line)}") from exc
        if u < 0 or v < 0:
            raise GraphParseError(f"line {line_no}: negative vertex id: {_quote(line)}")
        if not math.isfinite(w):
            raise GraphParseError(f"line {line_no}: non-finite weight: {_quote(line)}")
        if w <= 0:
            raise GraphParseError(f"line {line_no}: non-positive weight: {_quote(line)}")
        if self.declared_n is not None and (u >= self.declared_n or v >= self.declared_n):
            raise GraphParseError(f"line {line_no}: index beyond declared n={self.declared_n}")
        self.max_id = max(self.max_id, u, v)
        if self.max_id >= _MAX_VERTICES:
            raise GraphParseError(
                f"line {line_no}: vertex id exceeds the int64 range: {_quote(line)}"
            )
        return u, v, w

    def finish(self, line_no: int) -> None:
        """Set n once the last of line_no lines is read."""
        self.n = self.declared_n if self.declared_n is not None else self.max_id + 1
        if self.n < 1:
            raise GraphParseError("edge list declares no vertices")


class _MatrixMarketReader:
    """The MatrixMarket parse, in the shape of _EdgeListReader: the first
    non-blank line is the header, the first later line that is neither
    blank nor a % comment the size line, and each such line after it an
    entry."""

    def __init__(self) -> None:
        self.head: list | None = None
        self.n: int | None = None
        self.nnz: int | None = None
        self.entries = 0

    def bulk(self, toks: list, lines: int):
        """The block's entries as _parse_lines gives them, or None when the
        block might not parse cleanly; the state moves only on success."""
        if self.nnz is None or self.entries + lines > self.nnz:
            return None
        block = _split_entries(toks, lines, self.want, 1, self.n)
        if block is not None:
            self.entries += lines
        return block

    def entry(self, line: str, line_no: int):
        """The (u, v, w) of line line_no, or None for the header, a comment
        or the size line, which _header and _size read."""
        if self.head is None:
            return self._header(line, line_no)
        if line.startswith("%"):
            return None
        toks = line.split()
        if self.n is None:
            return self._size(toks, line, line_no)
        if self.entries == self.nnz:
            raise GraphParseError(
                f"line {line_no}: extra entry beyond declared count {self.nnz}: {_quote(line)}"
            )
        if len(toks) < self.want:
            raise GraphParseError(f"line {line_no}: truncated entry: {_quote(line)}")
        if len(toks) > self.want:
            raise GraphParseError(
                f"line {line_no}: extra field in {self.field} entry, expected {self.want}: "
                f"{_quote(line)}"
            )
        try:
            u, v = int(toks[0]) - 1, int(toks[1]) - 1
        except ValueError as exc:
            raise GraphParseError(f"line {line_no}: bad vertex id in {_quote(line)}") from exc
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphParseError(f"line {line_no}: index out of range 1..{self.n}: {_quote(line)}")
        w = 1.0
        if self.want == 3:
            try:
                w = float(toks[2])
            except ValueError as exc:
                raise GraphParseError(f"line {line_no}: bad weight in {_quote(line)}") from exc
            if not math.isfinite(w):
                raise GraphParseError(f"line {line_no}: non-finite weight in {_quote(line)}")
            if w <= 0:
                raise GraphParseError(f"line {line_no}: non-positive weight in {_quote(line)}")
        self.entries += 1
        return u, v, w

    def _header(self, line: str, line_no: int) -> None:
        head = line.split()
        if len(head) < 4 or head[0] != "%%MatrixMarket" or head[1].lower() != "matrix":
            raise GraphParseError(f"line {line_no}: malformed MatrixMarket header: {_quote(line)}")
        fmt, fld = head[2].lower(), head[3].lower()
        sym = head[4].lower() if len(head) > 4 else "general"
        if fmt != "coordinate":
            raise GraphParseError(
                f"line {line_no}: unsupported format {_quote(fmt)} (need coordinate)"
            )
        if fld not in _MM_FIELDS:
            raise GraphParseError(f"line {line_no}: unsupported field {_quote(fld)}")
        if sym not in _MM_SYMMETRIES:
            raise GraphParseError(f"line {line_no}: unsupported symmetry {_quote(sym)}")
        self.head, self.field = head, fld
        self.want = 2 if fld == "pattern" else 3

    def _size(self, toks: list, line: str, line_no: int) -> None:
        if len(toks) != 3:
            raise GraphParseError(f"line {line_no}: malformed size line: {_quote(line)}")
        try:
            n, cols, nnz = int(toks[0]), int(toks[1]), int(toks[2])
        except ValueError as exc:
            raise GraphParseError(f"line {line_no}: malformed size line: {_quote(line)}") from exc
        if n != cols:
            raise GraphParseError(f"line {line_no}: non-square matrix {n}x{cols}")
        if n < 1 or nnz < 0:
            raise GraphParseError(f"line {line_no}: invalid size line: {_quote(line)}")
        if n > _MAX_VERTICES:
            raise GraphParseError(
                f"line {line_no}: size line declares more vertices than int64 ids allow: "
                f"{_quote(line)}"
            )
        self.n, self.nnz = n, nnz

    def finish(self, line_no: int) -> None:
        """Check the end of the file, once the last of line_no lines is read."""
        if self.head is None:
            raise GraphParseError("line 1: missing MatrixMarket header")
        if self.n is None:
            raise GraphParseError(f"line {line_no + 1}: missing size line")
        if self.entries < self.nnz:
            raise GraphParseError(
                f"line {line_no + 1}: truncated file: expected {self.nnz} entries, "
                f"found {self.entries}"
            )


def _read_blocks(stream, reader, digests: list | None = None, expect: list | None = None):
    """Yield the (pairs, weights), int64 and float64 arrays, of each block
    of BLOCK_LINES lines of stream, then call reader.finish.

    The lines are joined by " ; " and split once, and every block is
    offered to the reader's bulk path, which converts it only if
    _split_entries proves it clean; any other block goes through the line
    loop, _parse_lines over reader.entry, which raises the format's
    errors, so a block either gives what the loop gives or fails as the
    loop does.  Each block's digest, the hash of its joined text, is
    appended to digests; with expect, the digests of an earlier read, a
    block that differs from its counterpart, or a different block count,
    raises GraphParseError before the block is parsed.
    """
    line_no = 0
    while lines := list(islice(stream, BLOCK_LINES)):
        text = " ; ".join(lines)
        if digests is not None:
            digests.append(hash(text))
            i = len(digests) - 1
            if expect is not None and (i >= len(expect) or expect[i] != digests[i]):
                raise GraphParseError(f"line {line_no + 1}: the file changed while it was read")
        toks = text.split()
        del text
        block = reader.bulk(toks, len(lines))
        del toks
        yield block if block is not None else _parse_lines(reader, lines, line_no + 1)
        line_no += len(lines)
        # free the lines before the next block's are read
        del lines, block
    if expect is not None and len(digests) != len(expect):
        raise GraphParseError(f"line {line_no + 1}: the file changed while it was read")
    reader.finish(line_no)
