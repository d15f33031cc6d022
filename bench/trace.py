"""Spans recorded from the benchmark's own files.

A span is ``{name, start, end, parent, cycle}``: ``name`` is the layer's
module path plus the public function the benchmark called, ``parent``
the name of the span that caused it, and the spans of one cycle share
its ``cycle`` label.  Spans stay in memory and are written out once,
when the run ends.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(
        self, name: str, start: float, end: float, parent: str | None,
        cycle: int, **counts,
    ) -> None:
        span = {
            "name": name, "start": start, "end": end, "parent": parent,
            "cycle": cycle,
        }
        if counts:
            span.update(counts)
        self.spans.append(span)

    def durations_ms(self, prefix: str) -> dict[int, float]:
        """Per cycle, the summed duration (ms) of the spans whose name
        starts with ``prefix``."""
        out: dict[int, float] = {}
        for span in self.spans:
            if span["name"].startswith(prefix):
                out[span["cycle"]] = (
                    out.get(span["cycle"], 0.0)
                    + (span["end"] - span["start"]) * 1e3
                )
        return out

    def median_ms(self, prefix: str) -> float:
        values = self.durations_ms(prefix)
        return median(values.values()) if values else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)
