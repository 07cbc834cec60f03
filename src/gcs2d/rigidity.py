"""Structural constrainedness diagnosis.

Two interchangeable analyses are provided: an exhaustive subset-counting
oracle (exponential, intended for graphs of up to roughly 20 entities) and a
pebble game that scales to large graphs.  Both return the same verdict class
on every input; witness sets for over-constrained graphs may differ but are
always genuine count violations.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import NamedTuple

from .errors import KindMismatchError, TooSmallError
from .graph import ConstraintGraph, ConstraintKind, EntityKind, deficiency, dof


class Verdict(Enum):
    WELL_CONSTRAINED = "well"
    UNDER_CONSTRAINED = "under"
    OVER_CONSTRAINED = "over"


class Diagnosis(NamedTuple):
    """Outcome of a structural analysis.

    ``deficit`` is set for under-constrained graphs (missing equation count);
    ``witness`` is set for over-constrained graphs and names an entity subset
    whose induced edge count exceeds its degree-of-freedom budget.
    """

    verdict: Verdict
    deficit: int | None = None
    witness: frozenset[str] | None = None


def _well() -> Diagnosis:
    return Diagnosis(Verdict.WELL_CONSTRAINED)


def _under(deficit: int) -> Diagnosis:
    return Diagnosis(Verdict.UNDER_CONSTRAINED, deficit=deficit)


def _over(witness: frozenset[str]) -> Diagnosis:
    return Diagnosis(Verdict.OVER_CONSTRAINED, witness=witness)


def _require_size(g: ConstraintGraph) -> None:
    if g.n < 2:
        raise TooSmallError(f"analysis needs at least 2 entities, got {g.n}")


def diagnose_counting(g: ConstraintGraph) -> Diagnosis:
    """Exhaustive counting oracle.

    Enumerates every entity subset of size >= 2 in (size, lexicographic)
    order and reports the first subset whose induced constraint count exceeds
    its DOF budget (sum of entity DOF minus 3).  That ordering makes the
    returned witness a minimum-cardinality violator with deterministic tie
    breaking.  Without a violation the verdict falls back to the global count.
    """
    _require_size(g)
    ids = sorted(g.entity_ids)
    dofs = {e.id: dof(e.kind) for e in g.entities}
    edges = [c.between for c in g.constraints]
    for size in range(2, len(ids) + 1):
        for subset in combinations(ids, size):
            chosen = set(subset)
            m_sub = sum(1 for a, b in edges if a in chosen and b in chosen)
            cap = sum(dofs[v] for v in subset) - 3
            if m_sub > cap:
                return _over(frozenset(subset))
    missing = deficiency(g)
    if missing > 0:
        return _under(missing)
    return _well()


def _pebble_run(
    ids: list[str], dofs: dict[str, int], edges: list[tuple[str, str]]
) -> tuple[str, frozenset[str] | None, int]:
    """Core pebble game over plain structures.

    Each vertex starts with as many pebbles as it has degrees of freedom.
    Inserting an edge (u, v) requires 4 free pebbles across {u, v}; pebbles
    are gathered by reversing directed paths.  Returns a
    ("over", witness, 0) triple on the first rejected edge, where the witness
    is the set of vertices reachable from {u, v} in the directed graph, or
    ("ok", None, leftover) with the free pebbles beyond the 3 rigid motions.
    """
    pebbles = dict(dofs)
    out: dict[str, list[str]] = {v: [] for v in ids}

    def find_pebble(start: str, avoid: tuple[str, str]) -> bool:
        # Depth-first search along directed edges for a free pebble outside
        # the inserted pair; on success the path is reversed and the pebble
        # moves to ``start``.
        parent: dict[str, str] = {start: start}
        stack = [start]
        while stack:
            vertex = stack.pop()
            for nxt in out[vertex]:
                if nxt in parent:
                    continue
                parent[nxt] = vertex
                if pebbles[nxt] > 0 and nxt not in avoid:
                    pebbles[nxt] -= 1
                    pebbles[start] += 1
                    node = nxt
                    while node != start:
                        prev = parent[node]
                        out[prev].remove(node)
                        out[node].append(prev)
                        node = prev
                    return True
                stack.append(nxt)
        return False

    def reachable(u: str, v: str) -> frozenset[str]:
        seen = {u, v}
        stack = [u, v]
        while stack:
            vertex = stack.pop()
            for nxt in out[vertex]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    for u, v in edges:
        while pebbles[u] + pebbles[v] < 4:
            if not (find_pebble(u, (u, v)) or find_pebble(v, (u, v))):
                return "over", reachable(u, v), 0
        out[u].append(v)
        pebbles[u] -= 1
    return "ok", None, sum(pebbles.values()) - 3


def diagnose_pebble(g: ConstraintGraph) -> Diagnosis:
    """Pebble-game analysis; verdict-equivalent to :func:`diagnose_counting`.

    The diagnosis is kept with ``g``'s structure, so later calls on ``g`` or
    on a re-valued copy (such as the one :func:`gcs2d.decompose.extract_plan`
    makes) play no second game."""
    _require_size(g)
    kept = g._analyses
    if "pebble" not in kept:
        kept["pebble"] = _pebble_diagnosis(g)
    return kept["pebble"]


def _pebble_diagnosis(g: ConstraintGraph) -> Diagnosis:
    ids = list(g.entity_ids)
    dofs = {e.id: dof(e.kind) for e in g.entities}
    edges = [c.between for c in g.constraints]
    state, witness, leftover = _pebble_run(ids, dofs, edges)
    if state == "over":
        assert witness is not None
        return _over(witness)
    if leftover > 0:
        return _under(leftover)
    return _well()


def is_laman(g: ConstraintGraph) -> bool:
    """True iff a point-distance graph is minimally rigid in the plane."""
    for e in g.entities:
        if e.kind is not EntityKind.POINT:
            raise KindMismatchError(f"entity {e.id!r} is not a point")
    for c in g.constraints:
        if c.kind is not ConstraintKind.DISTANCE:
            raise KindMismatchError(f"constraint {c.between} is not a distance")
    _require_size(g)
    return is_laman_edges(list(g.entity_ids), [c.between for c in g.constraints])


def is_laman_edges(vertices: list[str], edges: list[tuple[str, str]]) -> bool:
    """True iff ``edges`` (pairs of ``vertices``, repeats allowed) make a
    minimally rigid bar framework on ``vertices`` in the plane: exactly
    2|V| - 3 edges and no subset of k >= 2 vertices spanning more than
    2k - 3 of them."""
    if len(edges) != 2 * len(vertices) - 3:
        return False
    state, _, leftover = _pebble_run(vertices, {v: 2 for v in vertices}, edges)
    return state == "ok" and leftover == 0
