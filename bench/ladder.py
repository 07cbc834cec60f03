"""One-shot ladder report: the per-layer timings of the ROADMAP Baseline table.

    python3 bench/ladder.py

Each row times one layer once on one generated input, under its own time
cap; a row that reaches its cap prints as ``>cap``.  Input preparation is not
timed.  The ladder is not a benchmark workload and is not part of the
repeated runs.  The table goes to stdout and, as JSON, to
``bench/out/ladder.json``.
"""

from __future__ import annotations

import json
import random
from time import perf_counter

import run  # sets the import path to src/ and provides the in-process deadline
import sketches
from gcs2d.decompose import decompose, extract_plan
from gcs2d.graph import graph_to_dict, parse
from gcs2d.henneberg import random_laman
from gcs2d.rigidity import diagnose_counting, diagnose_pebble
from gcs2d.solve import enumerate_solutions


def _pebble(n):
    g = random_laman(n, 1, 0.3)
    return lambda: diagnose_pebble(g)


def _counting(n):
    g = random_laman(n, 1, 0.3)
    return lambda: diagnose_counting(g)


def _decompose(p_h2):
    def prepare(n):
        g = random_laman(n, 1, p_h2)
        return lambda: decompose(g)
    return prepare


def _search(n):
    """Branch search, limit 16, on random_laman(n, 5, 0.0) with values measured
    from the generic embedding of seed 0."""
    doc = graph_to_dict(random_laman(n, 5, 0.0))
    g = parse(json.dumps(sketches.measure(doc, sketches.generic_embedding(doc, random.Random(0)))))
    plan = extract_plan(decompose(g), g)
    return lambda: enumerate_solutions(plan, g, limit=16, tol=1e-9)


# (layer and input, n values, cap in seconds, prepare(n) -> timed call)
LADDER = [
    ("diagnose_pebble, random_laman(n, 1, 0.3)", (1000, 3000), 10.0, _pebble),
    ("diagnose_counting, random_laman(n, 1, 0.3)", (16, 20), 30.0, _counting),
    ("decompose, random_laman(n, 1, 0.5)", (80, 120, 200), 60.0, _decompose(0.5)),
    ("decompose, random_laman(n, 1, 0.0)", (200,), 60.0, _decompose(0.0)),
    ("enumerate_solutions limit 16, random_laman(n, 5, 0.0) measured", (40, 60), 60.0, _search),
]


def main() -> int:
    rows = []
    print("| layer / input | n | time |\n|---|---|---|")
    for label, sizes, cap, prepare in LADDER:
        for n in sizes:
            call = prepare(n)
            t0 = perf_counter()
            try:
                with run.deadline(cap):
                    call()
                seconds = perf_counter() - t0
                shown = f"{seconds:.3f} s"
            except run.DeadlineMiss:
                seconds, shown = None, f">{cap:g} s"
            rows.append({"layer": label, "n": n, "cap_s": cap, "seconds": seconds})
            print(f"| {label} | {n} | {shown} |", flush=True)
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "ladder.json").write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
