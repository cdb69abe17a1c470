"""In-memory spans around the benchmark's calls into each layer.

A span records name, layer, start, end, parent span, workload, seed and the
pass it belongs to, plus any counts the caller attaches.  Spans stay in a
list until ``write`` dumps them as JSON lines when the run ends.  A layer's
self time is the summed duration of its spans minus the part covered by
their child spans, each span weighted so that a call repeated n times within
a pass counts once (weight 1/n).
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str, pass_index: int, weight: float = 1.0):
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "seed": self.seed,
            "pass": pass_index,
            "weight": weight,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, pass_index: int | None = None) -> dict[str, float]:
        """Seconds of self time per layer, over one pass or all of them."""
        spans = [
            s for s in self.spans if pass_index is None or s["pass"] == pass_index
        ]
        child_time: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]
                )
        out: dict[str, float] = {}
        for s in spans:
            own = (s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
            out[s["layer"]] = out.get(s["layer"], 0.0) + own * s["weight"]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
