"""Independent output checks.

Nothing here calls into gcs2d: every check reads the sketch and the
program's output as plain JSON and recomputes what it needs.  A check
returns None when the output passes, or a short reason when it does not.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import combinations


def _dof(entity: dict) -> int:
    """Degrees of freedom of an entity, as the graph format defines them."""
    if entity["kind"] == "circle" and not entity.get("radius_known"):
        return 3
    return 2


# Known answers for the published fixtures, taken from the acceptance suite
# and the paper's classification corpus, not recorded from program output.
# solve: a solution count, SOME for "at least one", or the failure reason.
SOME = "some"
KNOWN = {
    "triangle": {"verdict": "well", "class": "fully_reducible", "solve": 2},
    "k4": {"verdict": "over", "solve": "over_constrained"},
    "path3": {"verdict": "under", "deficit": 1, "solve": "under_constrained"},
    "moser-spindle": {"verdict": "well", "class": "fully_reducible", "solve": 8},
    "three-prism": {"verdict": "well", "class": "partially_reducible",
                    "nontrivial": 2, "solve": "not_reducible"},
    "k33": {"verdict": "well", "class": "irreducible", "solve": "not_reducible"},
    "three-angle-triangle": {"verdict": "well", "class": "fully_reducible",
                             "solve": "under_determined"},
    "degenerate-triangle": {"verdict": "well", "class": "fully_reducible", "solve": 1,
                            "degenerate": True},
    "quad-angle": {"verdict": "well", "class": "partially_reducible", "solve": "not_reducible"},
    "quad-angle-aux": {"verdict": "well", "class": "fully_reducible", "solve": SOME},
    "cramer-castillon": {"class": "partially_reducible", "solve": "not_reducible"},
    "malfatti": {"class": "partially_reducible", "solve": "not_reducible"},
}

# Failure reasons a well-constrained sketch with arbitrary values may get.
NUMERIC_REASONS = frozenset({
    "not_reducible", "empty_intersection", "under_determined",
    "unsupported_step", "verification_failed",
})


# ------------------------------------------------------------------ recount


def recount(doc: dict) -> dict:
    """Brute-force structural verdict by subset counting.

    A subset S of at least two entities violates when it induces more
    constraints than dof(S) - 3.  Any violation makes the sketch "over";
    otherwise it is "under" by dof - 3 - m, or "well".  Exponential in the
    entity count, so meant for sketches of up to about 12 entities.
    """
    ents = doc["entities"]
    index = {e["id"]: i for i, e in enumerate(ents)}
    dofs = [_dof(e) for e in ents]
    edges = [(1 << index[a]) | (1 << index[b]) for a, b in (c["between"] for c in doc["constraints"])]
    n = len(ents)
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            continue
        budget = sum(d for i, d in enumerate(dofs) if mask >> i & 1) - 3
        if sum(1 for e in edges if e & mask == e) > budget:
            return {"verdict": "over"}
    missing = sum(dofs) - 3 - len(edges)
    if missing > 0:
        return {"verdict": "under", "deficit": missing}
    return {"verdict": "well"}


def violates(doc: dict, subset) -> bool:
    """True when ``subset`` induces more constraints than its DOF budget."""
    chosen = set(subset)
    dofs = {e["id"]: _dof(e) for e in doc["entities"]}
    induced = sum(1 for c in doc["constraints"] if set(c["between"]) <= chosen)
    return len(chosen) >= 2 and induced > sum(dofs[v] for v in chosen) - 3


def check_analysis(doc: dict, out: dict, truth: dict) -> str | None:
    """An ``analyze`` payload against the recount ``truth``."""
    if out.get("diagnosis") != truth["verdict"]:
        return f"verdict {out.get('diagnosis')} != {truth['verdict']}"
    if truth["verdict"] == "under" and out.get("deficit") != truth["deficit"]:
        return f"deficit {out.get('deficit')} != {truth['deficit']}"
    if truth["verdict"] == "over" and not violates(doc, out.get("witness", ())):
        return "witness does not violate the count"
    return None


# ------------------------------------------------------------ decomposition


def check_decomposition(doc: dict, out: dict, over: bool) -> str | None:
    """A ``classify`` payload: the final clusters partition the constraints,
    every merged point-only cluster of k points owns 2k - 3 of them (at least
    that many when the sketch is over-constrained), and the class agrees with
    the clusters."""
    ents = {e["id"]: e for e in doc["entities"]}
    m = len(doc["constraints"])
    owned = sorted(i for c in out["final_clusters"] for i in c["constraints"])
    if owned != list(range(m)):
        return "final clusters do not partition the constraints"
    for c in out["final_clusters"]:
        for i in c["constraints"]:
            if not set(doc["constraints"][i]["between"]) <= set(c["entities"]):
                return f"cluster {c['id']} owns constraint {i} without its endpoints"
        if c["seed"] or any(ents[e]["kind"] != "point" for e in c["entities"]):
            continue
        need = 2 * len(c["entities"]) - 3
        have = len(c["constraints"])
        if have < need or (have != need and not over):
            return f"point cluster {c['id']} owns {have} constraints, expected {need}"
    final = out["final_clusters"]
    if len(final) == 1 and set(final[0]["entities"]) == set(ents):
        klass = "fully_reducible"
    elif not out["merge_log"] and len(final) > 1:
        klass = "irreducible"
    else:
        klass = "partially_reducible"
    if out["class"] != klass:
        return f"class {out['class']} contradicts the clusters ({klass})"
    if out["nontrivial_cluster_count"] != sum(1 for c in final if not c["seed"]):
        return "nontrivial cluster count does not match the clusters"
    return check_fixpoint(doc, out)


def check_fixpoint(doc: dict, out: dict) -> str | None:
    """The final clusters are a fixpoint of the two merge rules: no two share
    two or more entities, and no three pairwise share single, distinct two-DOF
    entities.  A decomposition that stopped merging early fails here."""
    dofs = {e["id"]: _dof(e) for e in doc["entities"]}
    final = [(c["id"], set(c["entities"])) for c in out["final_clusters"]]
    hinge: dict[tuple[int, int], str] = {}  # the one two-DOF entity two clusters share
    for (a, ea), (b, eb) in combinations(final, 2):
        shared = ea & eb
        if len(shared) >= 2:
            return f"final clusters {a} and {b} share {len(shared)} entities"
        if len(shared) == 1 and dofs[next(iter(shared))] == 2:
            hinge[a, b] = next(iter(shared))
    later = defaultdict(list)
    for a, b in hinge:
        later[a].append(b)
    for (a, b), x in hinge.items():
        for c in later[b]:
            if (a, c) in hinge and len({x, hinge[b, c], hinge[a, c]}) == 3:
                return f"final clusters {a}, {b} and {c} pairwise share single entities"
    return None


# ---------------------------------------------------------------- residuals


def _unsigned_angle(t1: float, t2: float) -> float:
    d = abs(t1 - t2) % math.pi
    return min(d, math.pi - d)


def residual(c: dict, placements: dict) -> float:
    """|measured - specified| of one constraint under raw JSON placements."""
    a, b = (placements[x] for x in c["between"])
    kind = c["kind"]
    if kind == "distance":
        (ax, ay), (bx, by) = a["point"], b["point"]
        return abs(math.hypot(ax - bx, ay - by) - c["value"])
    if kind == "angle":
        return abs(_unsigned_angle(a["line"]["theta"], b["line"]["theta"])
                   - _unsigned_angle(c["value"], 0.0))

    def offset(point: dict, line: dict) -> float:
        x, y = point["point"]
        t = line["line"]["theta"]
        return x * math.cos(t) + y * math.sin(t) - line["line"]["c"]

    def centre_gap(point: dict, circle: dict) -> float:
        x, y = point["point"]
        (cx, cy), r = circle["circle"]["center"], circle["circle"]["r"]
        return math.hypot(x - cx, y - cy) - r

    if kind == "point_line_distance":
        p, l = (a, b) if "point" in a else (b, a)
        return abs(abs(offset(p, l)) - c["value"])
    if kind == "incidence":
        p, other = (a, b) if "point" in a else (b, a)
        return abs(offset(p, other) if "line" in other else centre_gap(p, other))
    # Tangency, line-circle or circle-circle (external or internal).
    if "line" in a or "line" in b:
        l, k = (a, b) if "line" in a else (b, a)
        centre = {"point": k["circle"]["center"]}
        return abs(abs(offset(centre, l)) - k["circle"]["r"])
    (ax, ay), (bx, by) = a["circle"]["center"], b["circle"]["center"]
    d = math.hypot(ax - bx, ay - by)
    ra, rb = a["circle"]["r"], b["circle"]["r"]
    return min(abs(d - ra - rb), abs(d - abs(ra - rb)))


def _satisfies(doc: dict, placements: dict, tol: float) -> bool:
    # 2 * tol allows for last-digit differences from another order of operations.
    if set(placements) != {e["id"] for e in doc["entities"]}:
        return False
    return all(residual(c, placements) <= 2 * tol for c in doc["constraints"])


def valid_solutions(doc: dict, solutions: list, tol: float) -> int:
    """How many returned solutions place every entity and meet every
    constraint within tolerance."""
    return sum(_satisfies(doc, sol["placements"], tol) for sol in solutions)


def check_solutions(doc: dict, solutions: list, tol: float) -> str | None:
    """Every returned solution is valid and branch selectors are distinct."""
    seen = set()
    for sol in solutions:
        if not _satisfies(doc, sol["placements"], tol):
            worst = max((residual(c, sol["placements"]) for c in doc["constraints"]
                         if set(c["between"]) <= set(sol["placements"])), default=0.0)
            return f"solution misses an entity or has residual {worst:.3g} > {tol:.3g}"
        selector = tuple(sol["branches"])
        if selector in seen:
            return f"selector {selector} returned twice"
        seen.add(selector)
    return None


def check_realizations(embedding: dict, solutions: list, limit: int) -> str | None:
    """Point-only solutions against ``embedding``, the point placements the
    sketch's values were measured from.  No two solutions are the same
    realization (congruent under a rotation and translation); and when fewer
    than ``limit`` came back, so that the search claims to have found them
    all, one of them is congruent to ``embedding``: every pairwise distance
    matches.  Coordinates are of order 1 to 10, hence the absolute tolerance."""
    ids = sorted(embedding)
    a, b = ids[0], ids[1]

    def shape(placed: dict) -> tuple:
        (ax, ay), (bx, by) = placed[a], placed[b]
        return tuple((round(math.hypot(x - ax, y - ay), 6), round(math.hypot(x - bx, y - by), 6),
                      (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0)
                     for x, y in (placed[k] for k in ids[2:]))

    placements = [{k: sol["placements"][k]["point"] for k in ids} for sol in solutions]
    if len({shape(p) for p in placements}) != len(placements):
        return "two solutions are the same realization"
    if len(solutions) >= limit:
        return None
    pairs = list(combinations(ids, 2))
    for placed in placements:
        if all(abs(math.dist(placed[p], placed[q]) - math.dist(embedding[p], embedding[q])) <= 1e-6
               for p, q in pairs):
            return None
    return f"{len(solutions)} solutions, fewer than {limit}, and none is the measured embedding"


def check_solve_answer(known, solutions: list | None, reason: str | None) -> str | None:
    """A solve outcome against a known answer (count, SOME or a reason)."""
    if isinstance(known, str) and known != SOME:
        return None if reason == known else f"expected {known}, got {reason or 'solutions'}"
    if solutions is None:
        return f"expected solutions, got {reason}"
    if known != SOME and len(solutions) != known:
        return f"expected {known} solutions, got {len(solutions)}"
    return None
