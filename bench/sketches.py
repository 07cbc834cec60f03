"""Seeded sketch generators for the three benchmark workloads.

Every sketch reaches the program as JSON text in the graph file format.
Measured values come from :func:`generic_embedding`, so every re-valued
sketch has at least one real solution: the embedding it was measured from.
The same (workload, seed, count) always yields the same sketches.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from gcs2d.graph import graph_to_dict
from gcs2d.henneberg import fixture, fixture_names, random_laman

# Fixtures made only of points and lines with at most two incident points per
# line: the embedding sampler can re-value exactly these.
POINT_LINE_FIXTURES = (
    "degenerate-triangle", "k33", "k4", "moser-spindle", "path3",
    "quad-angle", "quad-angle-aux", "three-angle-triangle", "three-prism",
    "triangle",
)

# Their catalog items run about ten solve --branch requests each, five times
# the cost of the others.  One re-valued copy per round (not three) keeps
# them under a tenth of the catalog, so its p90 falls among the many small
# sketches instead of on the edge of a gap.
MANY_BRANCHES = ("moser-spindle", "quad-angle-aux")

SEARCH_SIZES = tuple(range(16, 21))
DECOMPOSE_SIZES = tuple(range(16, 31))
DECOMPOSE_H2 = (0.3, 0.375, 0.45, 0.525, 0.6)


@dataclass
class Sketch:
    """One unit of closed-loop work: a graph document plus what the
    benchmark knows about it in advance (``expect``)."""

    id: str
    kind: str
    n: int
    text: str
    expect: dict = field(default_factory=dict)


# ------------------------------------------------------------------ embedding


def generic_embedding(doc: dict, rng: random.Random) -> dict[str, tuple]:
    """Generic placements for the points and lines of a graph document.

    Points take distinct cells of a ceil(sqrt(2n))-square unit grid, one each,
    jittered inside the middle 60% of their cell.  Any two points are then at
    least 0.4 apart and the sampler never rejects, at any n.  A line runs
    through its first two incident points, through its one incident point at
    a random direction, or is fully random.  Returns ("point", x, y) and
    ("line", theta, c) tuples, lines in normal form x cos t + y sin t = c.
    """
    points = [e["id"] for e in doc["entities"] if e["kind"] == "point"]
    lines = [e["id"] for e in doc["entities"] if e["kind"] == "line"]
    if len(points) + len(lines) != len(doc["entities"]):
        raise ValueError("the embedding sampler places points and lines only")
    side = max(1, math.ceil(math.sqrt(2 * len(points))))
    cells = rng.sample(range(side * side), len(points))
    out: dict[str, tuple] = {}
    for pid, cell in zip(points, cells):
        i, j = divmod(cell, side)
        out[pid] = ("point", i + rng.uniform(0.2, 0.8), j + rng.uniform(0.2, 0.8))

    incident: dict[str, list[str]] = {lid: [] for lid in lines}
    for c in doc["constraints"]:
        a, b = c["between"]
        if c["kind"] == "incidence" and a in incident and b in out:
            incident[a].append(b)
        elif c["kind"] == "incidence" and b in incident and a in out:
            incident[b].append(a)
    for lid in lines:
        anchors = incident[lid]
        if len(anchors) > 2:
            raise ValueError(f"line {lid!r} has more than two incident points")
        if len(anchors) == 2:
            (_, x0, y0), (_, x1, y1) = out[anchors[0]], out[anchors[1]]
            theta = math.atan2(x1 - x0, -(y1 - y0))
        else:
            theta = rng.uniform(0.0, math.pi)
            if anchors:
                _, x0, y0 = out[anchors[0]]
            else:
                x0, y0 = rng.uniform(0, side), rng.uniform(0, side)
        theta %= math.pi
        out[lid] = ("line", theta, x0 * math.cos(theta) + y0 * math.sin(theta))
    return out


def measure(doc: dict, placed: dict[str, tuple], scale: float = 1.0) -> dict:
    """Copy of ``doc`` whose valued constraints are measured from ``placed``;
    lengths are multiplied by ``scale``, angles are scale-free."""
    constraints = []
    for c in doc["constraints"]:
        c = dict(c)
        a, b = (placed[x] for x in c["between"])
        if c["kind"] == "distance":
            c["value"] = math.hypot(a[1] - b[1], a[2] - b[2]) * scale
        elif c["kind"] == "angle":
            d = abs(a[1] - b[1]) % math.pi
            c["value"] = min(d, math.pi - d)
        elif c["kind"] == "point_line_distance":
            p, l = (a, b) if a[0] == "point" else (b, a)
            c["value"] = abs(p[1] * math.cos(l[1]) + p[2] * math.sin(l[1]) - l[2]) * scale
        constraints.append(c)
    return {"entities": doc["entities"], "constraints": constraints}


def _text(doc: dict) -> str:
    return json.dumps(doc, indent=2)


# ------------------------------------------------------------------ workloads


def search_laman(seed: int, count: int) -> list[Sketch]:
    """Fully reducible Henneberg-I graphs with measured values.

    Sizes cycle through SEARCH_SIZES so every seed has the same size mix;
    branch search dominates, and its time is heavy-tailed in n.  ``expect``
    holds the embedding the values were measured from.
    """
    rng = random.Random(f"search-laman/{seed}")
    out = []
    for i in range(count):
        n = SEARCH_SIZES[i % len(SEARCH_SIZES)]
        doc = graph_to_dict(random_laman(n, rng.randrange(2**31), 0.0))
        placed = generic_embedding(doc, rng)
        out.append(Sketch(f"s{i:05d}", "laman", n, _text(measure(doc, placed)),
                          {"embedding": {k: [x, y] for k, (_, x, y) in placed.items()}}))
    return out


def decompose_laman(seed: int, count: int) -> list[Sketch]:
    """Henneberg graphs rich in edge splits (p_h2 in [0.3, 0.6]), which are
    mostly partially reducible: the decomposition fixpoint dominates and
    search never runs.  Sizes and p_h2 cycle through fixed values, so every
    seed has the same mix and the seed picks only the graphs.  Values stay
    at the generator's placeholder, since classification reads structure
    only."""
    rng = random.Random(f"decompose-laman/{seed}")
    out = []
    for i in range(count):
        n = DECOMPOSE_SIZES[i % len(DECOMPOSE_SIZES)]
        p_h2 = DECOMPOSE_H2[i // len(DECOMPOSE_SIZES) % len(DECOMPOSE_H2)]
        g = random_laman(n, rng.randrange(2**31), p_h2)
        out.append(Sketch(f"d{i:05d}", "laman", n, _text(graph_to_dict(g))))
    return out


def _perturbed(rng: random.Random) -> dict:
    """A small measured Laman graph with one constraint added, duplicated or
    removed, so the verdict is over- or under-constrained."""
    doc = graph_to_dict(random_laman(rng.randint(4, 8), rng.randrange(2**31), rng.random()))
    doc = measure(doc, generic_embedding(doc, rng))
    cons = doc["constraints"]
    move = rng.randrange(3)
    if move == 0:
        del cons[rng.randrange(len(cons))]
    elif move == 1:
        cons.append(dict(cons[rng.randrange(len(cons))]))
    else:
        ids = [e["id"] for e in doc["entities"]]
        a, b = rng.sample(ids, 2)
        cons.append({"kind": "distance", "between": [a, b], "value": rng.uniform(0.5, 3.0)})
    return doc


def _mixed(rng: random.Random) -> dict:
    """A small random sketch over points, lines and circles with random values."""
    ents = [{"id": f"P{i}", "kind": "point"} for i in range(rng.randint(2, 5))]
    ents += [{"id": f"L{i}", "kind": "line"} for i in range(rng.randint(0, 3))]
    for i in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            ents.append({"id": f"K{i}", "kind": "circle", "radius_known": True,
                         "radius": rng.uniform(0.5, 3.0)})
        else:
            ents.append({"id": f"K{i}", "kind": "circle", "radius_known": False})
    pts = [e["id"] for e in ents if e["kind"] == "point"]
    lns = [e["id"] for e in ents if e["kind"] == "line"]
    cir = [e["id"] for e in ents if e["kind"] == "circle"]
    cons = []
    for _ in range(rng.randint(1, 2 * len(ents))):
        roll = rng.random()
        if roll < 0.4:
            a, b = rng.sample(pts, 2)
            cons.append({"kind": "distance", "between": [a, b], "value": rng.uniform(0.5, 4.0)})
        elif roll < 0.55 and lns:
            cons.append({"kind": "point_line_distance",
                         "between": [rng.choice(pts), rng.choice(lns)],
                         "value": rng.uniform(0.0, 2.0)})
        elif roll < 0.7 and lns:
            cons.append({"kind": "incidence", "between": [rng.choice(pts), rng.choice(lns)]})
        elif roll < 0.8 and cir:
            cons.append({"kind": "incidence", "between": [rng.choice(pts), rng.choice(cir)]})
        elif roll < 0.9 and len(lns) >= 2:
            a, b = rng.sample(lns, 2)
            cons.append({"kind": "angle", "between": [a, b],
                         "value": rng.uniform(0.1, math.pi - 0.1)})
        elif len(cir) >= 2:
            a, b = rng.sample(cir, 2)
            cons.append({"kind": "tangency", "between": [a, b]})
        elif cir and lns:
            cons.append({"kind": "tangency", "between": [rng.choice(lns), rng.choice(cir)]})
    return {"entities": ents, "constraints": cons}


def cli_catalog(seed: int, rounds: int) -> list[Sketch]:
    """Small mixed sketches for the in-process CLI, ``rounds`` times over.

    One round holds the 12 fixtures as published, three re-valued copies of
    each point/line fixture (one of MANY_BRANCHES), each at k = 0, -10, 10
    and three more k in [-9, 9] with lengths scaled by 10^k, ten perturbed
    Laman graphs, ten random mixed sketches, and a ``generate`` request
    after every fourth sketch.
    The k = 0 copy of each group comes first, so later copies can be checked
    against its solution count.
    """
    rng = random.Random(f"cli-catalog/{seed}")
    items: list[Sketch] = []
    for r in range(rounds):
        batch: list[Sketch] = []
        for name in fixture_names():
            doc = graph_to_dict(fixture(name))
            batch.append(Sketch("", "fixture", len(doc["entities"]), _text(doc),
                                {"fixture": name, "tol": 1e-9}))
        for name in POINT_LINE_FIXTURES:
            base = graph_to_dict(fixture(name))
            for copy in range(1 if name in MANY_BRANCHES else 3):
                placed = generic_embedding(base, rng)
                group = f"{r}/{name}/{copy}"
                for k in [0, -10, 10] + rng.sample(range(-9, 10), 3):
                    doc = measure(base, placed, 10.0 ** k)
                    batch.append(Sketch("", "scaled", len(doc["entities"]), _text(doc),
                                        {"fixture": name, "group": group, "k": k,
                                         "tol": 1e-9 * 10.0 ** k}))
        for _ in range(10):
            doc = _perturbed(rng)
            batch.append(Sketch("", "perturbed", len(doc["entities"]), _text(doc), {"tol": 1e-9}))
        for _ in range(10):
            doc = _mixed(rng)
            batch.append(Sketch("", "mixed", len(doc["entities"]), _text(doc), {"tol": 1e-9}))
        for i, sketch in enumerate(batch):
            items.append(sketch)
            if i % 4 == 3:
                n = rng.randint(4, 10)
                argv = ["generate", "--n", str(n), "--seed", str(rng.randrange(10**6)),
                        "--p-h2", f"{rng.random():.3f}"]
                items.append(Sketch("", "generate", n, "", {"argv": argv}))
    for i, item in enumerate(items):
        item.id = f"c{i:05d}"
    return items
