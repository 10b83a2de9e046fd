"""In-memory spans around the benchmark's calls into each layer."""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records (name, start, end, parent, op) spans; written out by `write`.

    `parent` is the index of the enclosing span, `op` the operation id the
    span belongs to. Times are `time.perf_counter()` seconds.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None, "op": self.op}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def totals(self, op: int) -> dict[str, float]:
        """Total seconds per span name within operation `op`."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s["op"] == op:
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n")
