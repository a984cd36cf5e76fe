"""In-memory spans: name, start, end, parent and operation id.

Spans are kept in a list while the benchmark runs and written out once,
when it ends, so recording one costs two clock reads and an append.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects nested spans; ``span`` is a context manager yielding the
    span's attribute dict, so a caller can attach counts to it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str, **attrs):
        idx = len(self.spans)
        record = {"id": idx, "name": name, "op": op,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(record)
        self._open.append(idx)
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def adopt(self, spans: list[dict], parent: int, op: str) -> None:
        """Graft spans recorded by another process under span ``parent``.

        Ids are renumbered and the operation id set to ``op``; the other
        process's roots become children of ``parent``.  Their clock has its own origin, so only durations
        are compared across processes.
        """
        base = len(self.spans)
        for s in spans:
            self.spans.append(dict(s, id=s["id"] + base, op=op,
                                   parent=parent if s["parent"] is None else s["parent"] + base))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
            fh.write("\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def children(spans: list[dict], parent_id: int) -> list[dict]:
    return [s for s in spans if s["parent"] == parent_id]

