"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side only: around the calls it makes
into gcs2d's public functions, and, through :func:`patched_cli`, around the
same functions as ``gcs2d.cli`` calls them.  No file under ``src/`` changes.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

import gcs2d.cli


class Tracer:
    """Spans as [sketch id, name, start, end, parent index] rows.

    The parent is the innermost span open when a span starts (-1 for none);
    spans of one sketch share the sketch id set through :attr:`sketch`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.sketch = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        row = [self.sketch, name, perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self.spans.append(row)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            row[3] = perf_counter()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__name__ = fn.__name__
        return traced

    def durations(self) -> dict[str, list[float]]:
        """Inclusive duration per call, in seconds, grouped by span name."""
        out: dict[str, list[float]] = defaultdict(list)
        for _, name, start, end, _ in self.spans:
            out[name].append(end - start)
        return out

    def self_time_by_layer(self) -> dict[str, float]:
        """Seconds each layer (the span-name prefix) was busy, minus the time
        its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (_, name, start, end, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sketch, name, start, end, parent in self.spans:
                handle.write(json.dumps({"sketch": sketch, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def p90_ms(values: list[float]) -> float:
    if len(values) < 2:
        return median_ms(values)
    return statistics.quantiles(values, n=10)[8] * 1000.0


# Names gcs2d.cli imports from the layers, with the span each call records.
CLI_LAYER_CALLS = {
    "parse": "graph.parse",
    "graph_to_dict": "graph.graph_to_dict",
    "diagnose_pebble": "rigidity.diagnose_pebble",
    "decompose": "decompose.decompose",
    "extract_plan": "decompose.extract_plan",
    "decomposition_to_dict": "decompose.decomposition_to_dict",
    "plan_to_dict": "decompose.plan_to_dict",
    "enumerate_solutions": "solve.enumerate_solutions",
    "execute": "solve.execute",
    "verify": "solve.verify",
    "solution_to_dict": "solve.solution_to_dict",
    "solution_from_dict": "solve.solution_from_dict",
    "random_laman": "henneberg.random_laman",
    "fixture": "henneberg.fixture",
    "to_dot": "render.to_dot",
    "to_svg": "render.to_svg",
}


@contextmanager
def patched_cli(tracer: Tracer):
    """Route gcs2d.cli's calls into the layers through ``tracer`` while open."""
    saved = {name: getattr(gcs2d.cli, name) for name in CLI_LAYER_CALLS}
    try:
        for name, span in CLI_LAYER_CALLS.items():
            setattr(gcs2d.cli, name, tracer.wrap(span, saved[name]))
        yield
    finally:
        for name, fn in saved.items():
            setattr(gcs2d.cli, name, fn)


def layer_api() -> SimpleNamespace:
    """The layer functions as gcs2d.cli binds them now, so calls through the
    result are traced exactly while :func:`patched_cli` is open."""
    return SimpleNamespace(**{name: getattr(gcs2d.cli, name) for name in CLI_LAYER_CALLS})
