"""In-memory spans around the benchmark's calls into jpegkit.

A span records its name, start, end, parent span and the item it belongs
to. Spans are kept in a list while the run measures and written out once
at the end, so tracing does no I/O inside the timed region. The untraced
runs use :class:`NullTracer`, which calls straight through.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns


class NullTracer:
    """Same interface as :class:`Tracer`; records nothing."""

    enabled = False

    def begin_item(self, item_id):
        pass

    def end_item(self):
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, amount=1):
        pass


class Tracer:
    """Spans and counters for one traced run.

    Each span is a tuple (span_id, item_id, name, start_ns, end_ns,
    parent_id); an item's own span has parent -1 and the layer calls made
    while it runs have the item span as parent.
    """

    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._item = None  # (span_id, item_id, start_ns) of the open item;
        # layer calls are only made while an item is open

    def begin_item(self, item_id):
        self._item = (len(self.spans), item_id, perf_counter_ns())
        self.spans.append(None)  # reserved; end_item fills it in

    def end_item(self):
        span_id, item_id, start = self._item
        self.spans[span_id] = (span_id, item_id, "item", start, perf_counter_ns(), -1)
        self._item = None

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter_ns()
        out = fn(*args, **kwargs)
        end = perf_counter_ns()
        span_id, item_id, _ = self._item
        self.spans.append((len(self.spans), item_id, name, start, end, span_id))
        return out

    def count(self, name, amount=1):
        self.counts[name] += amount

    def durations_by_name(self) -> dict:
        """name -> list of span durations in seconds."""
        out = defaultdict(list)
        for _, _, name, start, end, _ in self.spans:
            out[name].append((end - start) * 1e-9)
        return out

    def item_self_times(self) -> list:
        """Each item's self time in seconds: its span's duration minus the
        time its child spans cover. Layer calls are flat children of the
        item span, made one after another, so they never overlap and the
        time they cover is the sum of their durations."""
        covered = defaultdict(int)
        for _, _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            (end - start - covered[span_id]) * 1e-9
            for span_id, _, name, start, end, _ in self.spans
            if name == "item"
        ]

    def write_jsonl(self, path):
        """One JSON object per span, times in nanoseconds."""
        with open(path, "w") as fh:
            for span_id, item_id, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "item": item_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
