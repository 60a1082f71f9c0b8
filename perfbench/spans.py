"""Spans recorded from outside the program, around each call the benchmark
makes into a thinset layer, plus the counters measured at those calls."""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Recorder:
    """Keeps spans, (layer, name, seconds), in memory while `traced`;
    counters are kept either way.  No benchmark call nests inside another,
    so a layer's busy time is the sum of its spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[tuple[str, str, float]] = []
        self.counters: dict = defaultdict(int)

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        if not self.traced:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((layer, name, perf_counter() - start))

    def add(self, key: str, amount=1) -> None:
        self.counters[key] += amount

    def peak(self, key: str, value) -> None:
        if value > self.counters[key]:
            self.counters[key] = value


def layer_times(spans: list) -> tuple[dict, dict, dict]:
    """Per layer: busy seconds and call count; per (layer, name): seconds."""
    busy: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    named: dict = defaultdict(float)
    for layer, name, seconds in spans:
        busy[layer] += seconds
        calls[layer] += 1
        named[layer, name] += seconds
    return busy, calls, named
