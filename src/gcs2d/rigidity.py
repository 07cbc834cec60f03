"""Structural constrainedness diagnosis.

Two interchangeable analyses are provided: an exhaustive subset-counting
oracle (exponential, intended for graphs of up to roughly 20 entities) and a
pebble game that scales to large graphs.  Both return the same verdict class
on every input; witness sets for over-constrained graphs may differ but are
always genuine count violations.

The pebble game (Jacobs & Hendrickson 1997) plays on dense entity indices;
the tests keep the same game played on dicts keyed by id as
``reference_pebble_run`` and check that both return the same verdict, witness
and leftover pebbles.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import KindMismatchError, TooSmallError
from .graph import ConstraintGraph, deficiency, dof


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
                return Diagnosis(Verdict.OVER_CONSTRAINED, witness=frozenset(subset))
    missing = deficiency(g)
    if missing > 0:
        return Diagnosis(Verdict.UNDER_CONSTRAINED, deficit=missing)
    return Diagnosis(Verdict.WELL_CONSTRAINED)


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

    Ids are numbered once, pebble counts and out-arcs live in lists, and a
    search marks the vertices it visits with its own stamp.  Searches and arc
    reversals follow the order of the dict-based ``reference_pebble_run`` in
    the tests, so both return the same triple.
    """
    index = {v: i for i, v in enumerate(ids)}
    pebbles = [dofs[v] for v in ids]
    out: list[list[int]] = [[] for _ in ids]
    stamps = [0] * len(ids)  # the search that last visited each vertex
    parent = [0] * len(ids)  # the vertex it was reached from in that search
    stamp = 0
    for a, b in edges:
        u, v = index[a], index[b]
        while pebbles[u] + pebbles[v] < 4:
            # Depth-first search along directed edges, from u and then from
            # v, for a free pebble outside {u, v}; on success the path is
            # reversed and the pebble moves to the start.  A start with no
            # out-arcs reaches nothing, so its search is skipped.
            for start in (u, v):
                if not out[start]:
                    continue
                stamp += 1
                stamps[start] = stamp
                stack = [start]
                found = -1
                while stack and found < 0:
                    vertex = stack.pop()
                    for nxt in out[vertex]:
                        if stamps[nxt] != stamp:
                            stamps[nxt] = stamp
                            parent[nxt] = vertex
                            if pebbles[nxt] > 0 and nxt != u and nxt != v:
                                found = nxt
                                break
                            stack.append(nxt)
                if found >= 0:
                    pebbles[found] -= 1
                    pebbles[start] += 1
                    while found != start:
                        prev = parent[found]
                        out[prev].remove(found)
                        out[found].append(prev)
                        found = prev
                    break
            else:
                # No pebble anywhere: the vertices reachable from {u, v}
                # span more edges than their degrees of freedom allow.
                stamp += 1
                stamps[u] = stamps[v] = stamp
                seen = [u, v]
                for vertex in seen:
                    for nxt in out[vertex]:
                        if stamps[nxt] != stamp:
                            stamps[nxt] = stamp
                            seen.append(nxt)
                return "over", frozenset([ids[k] for k in seen]), 0
        out[u].append(v)
        pebbles[u] -= 1
    return "ok", None, sum(pebbles) - 3


def diagnose_pebble(g: ConstraintGraph) -> Diagnosis:
    """Pebble-game analysis; verdict-equivalent to :func:`diagnose_counting`.

    The diagnosis is kept with ``g``'s structure, so later calls on ``g`` or
    on a re-valued copy of it play no second game."""
    _require_size(g)
    return g._kept("pebble", None, lambda: _pebble_diagnosis(g))


def _pebble_diagnosis(g: ConstraintGraph) -> Diagnosis:
    ids = list(g.entity_ids)
    dofs = {e.id: dof(e.kind) for e in g.entities}
    edges = [c.between for c in g.constraints]
    state, witness, leftover = _pebble_run(ids, dofs, edges)
    if state == "over":
        assert witness is not None
        return Diagnosis(Verdict.OVER_CONSTRAINED, witness=witness)
    if leftover > 0:
        return Diagnosis(Verdict.UNDER_CONSTRAINED, deficit=leftover)
    return Diagnosis(Verdict.WELL_CONSTRAINED)


def _require_points(g: ConstraintGraph) -> None:
    """Raise KindMismatchError unless ``g`` has only points and distances."""
    for e in g.entities:
        if e.kind._value_ != "point":
            raise KindMismatchError(f"entity {e.id!r} is not a point")
    for c in g.constraints:
        if c.kind._value_ != "distance":
            raise KindMismatchError(f"constraint {c.between} is not a distance")


def is_laman(g: ConstraintGraph) -> bool:
    """True iff a point-distance graph is minimally rigid in the plane."""
    _require_points(g)
    _require_size(g)
    return is_laman_edges(list(g.entity_ids), [c.between for c in g.constraints])


def is_laman_edges(vertices: list[str], edges: Sequence[Iterable[str]]) -> bool:
    """True iff ``edges`` (pairs of ``vertices``, repeats allowed) make a
    minimally rigid bar framework on ``vertices`` in the plane: exactly
    2|V| - 3 edges and no subset of k >= 2 vertices spanning more than
    2k - 3 of them.  An edge may be any two-element iterable, a tuple or a
    frozenset, in either order: the verdict does not depend on it."""
    if len(edges) != 2 * len(vertices) - 3:
        return False
    state, _, leftover = _pebble_run(vertices, {v: 2 for v in vertices}, edges)
    return state == "ok" and leftover == 0
