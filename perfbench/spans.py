"""In-memory span recorder for the traced benchmark mode.

A span is one call into a layer, recorded by the benchmark around the
public function it calls: ``name`` (``<layer>:<function>``), start and end
(``time.perf_counter`` seconds), the id of the enclosing span and the pass
it belongs to.  Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.pass_id = 0

    @contextlib.contextmanager
    def span(self, layer: str, func: str, **attrs):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": f"{layer}:{func}",
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it its children cover."""
        covered: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                covered.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            out[s["id"]] = (s["end"] - s["start"]) - _union_length(
                covered.get(s["id"], []), s["start"], s["end"])
        return out

    def layer_self_times(self, pass_id: int | None = None) -> dict[str, float]:
        """Layer -> summed self time of its spans (optionally one pass)."""
        st = self.self_times()
        out: dict[str, float] = {}
        for s in self.spans:
            if pass_id is None or s["pass"] == pass_id:
                out[s["layer"]] = out.get(s["layer"], 0.0) + st[s["id"]]
        return out

    def dump(self, path: str, extra: dict | None = None) -> None:
        st = self.self_times()
        spans = [{**s, "self_s": st[s["id"]]} for s in self.spans]
        with open(path, "w") as f:
            json.dump({"spans": spans, **(extra or {})}, f, indent=1, default=float)


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total
