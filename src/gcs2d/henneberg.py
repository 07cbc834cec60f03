"""Vertex-addition construction of minimally rigid graphs, plus named fixtures.

Two growth operations are supported: attaching a new vertex by two edges, and
splitting an existing edge while attaching by three.  Starting from a single
edge, these generate exactly the minimally rigid point-distance graphs, which
also gives a randomized generator and a reduction search that peels
vertices off without backtracking.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Callable, Container, NamedTuple, Union

from .errors import (
    BadValueError,
    DuplicateIdError,
    MissingEdgeError,
    UnknownEndpointError,
    UnknownFixtureError,
)
from .graph import (
    ConstraintGraph,
    angle,
    build_graph,
    distance,
    fixed_circle,
    free_circle,
    incidence,
    line,
    point,
    tangency,
)
from .rigidity import _require_points, is_laman_edges

PLACEHOLDER_DISTANCE = 1.0


class H1(NamedTuple):
    """Attach ``new`` to two existing vertices."""

    new: str
    attach: tuple[str, str]


class H2(NamedTuple):
    """Attach ``new`` to both ends of ``split_edge`` plus ``third``, deleting
    the split edge."""

    new: str
    split_edge: tuple[str, str]
    third: str


HennebergStep = Union[H1, H2]


class HennebergSequence(NamedTuple):
    """A base edge plus steps that replay, in order, to a target graph."""

    base_edge: tuple[str, str]
    steps: tuple[HennebergStep, ...]


def extend_h1(g: ConstraintGraph, new_id: str, u: str, w: str) -> ConstraintGraph:
    """Add ``new_id`` joined to ``u`` and ``w`` by placeholder distances."""
    return _extend(g, H1(new_id, (u, w)))


def extend_h2(g: ConstraintGraph, new_id: str, split_edge: tuple[str, str], z: str) -> ConstraintGraph:
    """Split the edge (u, w): delete it and join ``new_id`` to u, w and ``z``."""
    return _extend(g, H2(new_id, split_edge, z))


def _extend(g: ConstraintGraph, step: HennebergStep) -> ConstraintGraph:
    """``g`` grown by ``step``: an edge split first deletes the first edge
    on its split pair, then placeholder distances join the new point to
    each vertex the step attaches it to."""
    _require_points(g)
    attach = _attachments(set(g.entity_ids), step)
    constraints = list(g.constraints)
    if isinstance(step, H2):
        u, w = step.split_edge
        split = next((i for i, c in enumerate(constraints) if set(c.between) == {u, w}), None)
        if split is None:
            raise MissingEdgeError(f"no distance edge between {u!r} and {w!r}")
        del constraints[split]
    constraints += [distance(step.new, v, PLACEHOLDER_DISTANCE) for v in attach]
    return build_graph(list(g.entities) + [point(step.new)], constraints)


def random_laman(n: int, seed: int, p_h2: float = 0.3) -> ConstraintGraph:
    """Random minimally rigid point graph on ``n`` vertices.

    Deterministic for a fixed (n, seed, p_h2) triple.  Edge-split steps are
    chosen with probability ``p_h2`` once three vertices exist.
    """
    if n < 2:
        raise BadValueError(f"need at least 2 vertices, got {n}")
    if not 0.0 <= p_h2 <= 1.0:
        raise BadValueError(f"p_h2 must lie in [0, 1], got {p_h2}")
    rng = random.Random(seed)
    vertices = [f"p{i}" for i in range(1, n + 1)]
    edges: list[tuple[str, str]] = [(vertices[0], vertices[1])]
    for i in range(2, n):
        v = vertices[i]
        existing = vertices[:i]
        if i >= 3 and rng.random() < p_h2:
            u, w = edges[rng.randrange(len(edges))]
            z = rng.choice([x for x in existing if x not in (u, w)])
            edges.remove((u, w))
            edges += [(v, u), (v, w), (v, z)]
        else:
            u, w = rng.sample(existing, 2)
            edges += [(v, u), (v, w)]
    return build_graph(
        [point(v) for v in vertices],
        [distance(a, b, PLACEHOLDER_DISTANCE) for a, b in edges],
    )


def reduction_sequence(g: ConstraintGraph) -> HennebergSequence | None:
    """Find a vertex-addition history of a point-distance graph.

    Returns a base edge and construction-order steps whose replay reproduces
    the vertex set and edge multiset exactly, or None when the graph is not
    minimally rigid.  Vertices are peeled off one at a time (see
    :func:`_peel`) until one edge is left.  No choice is ever taken back:
    removing a degree-2 vertex keeps a graph minimally rigid, a degree-3
    removal is only taken once its re-inserted edge is checked, and every
    minimally rigid graph on three or more vertices has a removable vertex.
    """
    _require_points(g)
    vertices = sorted(g.entity_ids)
    edges = [frozenset(c.between) for c in g.constraints]
    if not is_laman_edges(vertices, edges):
        return None
    removed: list[HennebergStep] = []
    while len(vertices) > 2:
        step, edges = _peel(vertices, edges)
        vertices.remove(step.new)
        removed.append(step)
    return HennebergSequence((vertices[0], vertices[1]), tuple(reversed(removed)))


def _peel(
    vertices: list[str], edges: list[frozenset[str]]
) -> tuple[HennebergStep, list[frozenset[str]]]:
    """The step that removes the first removable vertex, and the edges left.

    The first degree-2 vertex in sorted order goes directly; failing that,
    the first degree-3 vertex with a neighbour pair whose new edge keeps the
    rest minimally rigid goes by that pair (pairs tried in sorted order).
    """
    degree = Counter(v for e in edges for v in e)
    for v in vertices:
        if degree[v] == 2:
            a, b = sorted(x for e in edges if v in e for x in e if x != v)
            return H1(v, (a, b)), [e for e in edges if v not in e]
    for v in vertices:
        if degree[v] != 3:
            continue
        n0, n1, n2 = sorted(x for e in edges if v in e for x in e if x != v)
        rest = [e for e in edges if v not in e]
        others = [x for x in vertices if x != v]
        for a, b, third in ((n0, n1, n2), (n0, n2, n1), (n1, n2, n0)):
            trial = rest + [frozenset((a, b))]
            if is_laman_edges(others, trial):
                return H2(v, (a, b), third), trial
    raise AssertionError("a minimally rigid graph on 3+ vertices has a removable vertex")


def replay_sequence(seq: HennebergSequence) -> ConstraintGraph:
    """Rebuild a graph from a base edge by applying the recorded steps.

    Each step gets the checks :func:`extend_h1` and :func:`extend_h2` make,
    but on a vertex map and an edge map, and the graph is built once at the
    end, so a long sequence replays in linear time.  Every edge a step adds
    joins its new vertex, so no two edges join the same pair, and the edge
    map keeps the order those functions give the constraints.
    """
    a, b = seq.base_edge
    build_graph([point(a), point(b)], [distance(a, b, PLACEHOLDER_DISTANCE)])  # checks the base
    vertices = dict.fromkeys((a, b))
    edges = {frozenset((a, b)): (a, b)}
    for step in seq.steps:
        attach = _attachments(vertices, step)
        if isinstance(step, H2):
            u, w = step.split_edge
            if edges.pop(frozenset((u, w)), None) is None:
                raise MissingEdgeError(f"no distance edge between {u!r} and {w!r}")
        vertices[step.new] = None
        edges.update((frozenset((step.new, v)), (step.new, v)) for v in attach)
    return build_graph(
        [point(v) for v in vertices],
        [distance(x, y, PLACEHOLDER_DISTANCE) for x, y in edges.values()],
    )


def _attachments(present: Container[str], step: HennebergStep) -> tuple[str, ...]:
    """The vertices a step joins its new vertex to, once checked: the new id
    is fresh, the attachment vertices are present, none is attached twice."""
    attach = step.attach if isinstance(step, H1) else (*step.split_edge, step.third)
    if step.new in present:
        raise DuplicateIdError(f"entity id {step.new!r} already present")
    for v in attach:
        if v not in present:
            raise UnknownEndpointError(f"no entity with id {v!r}")
    if isinstance(step, H1) and attach[0] == attach[1]:
        raise BadValueError("attachment vertices must be distinct")
    if isinstance(step, H2) and step.third in step.split_edge:
        raise BadValueError("third attachment vertex must differ from the split edge")
    return attach


# -------------------------------------------------------------------- fixtures


def _triangle() -> ConstraintGraph:
    return build_graph(
        [point("A"), point("B"), point("C")],
        [distance("A", "B", 1.0), distance("B", "C", 1.0), distance("C", "A", 1.0)],
    )


def _k4() -> ConstraintGraph:
    ids = ["A", "B", "C", "D"]
    cons = [
        distance(a, b, 1.0) for i, a in enumerate(ids) for b in ids[i + 1 :]
    ]
    return build_graph([point(v) for v in ids], cons)


def _path3() -> ConstraintGraph:
    return build_graph(
        [point("A"), point("B"), point("C")],
        [distance("A", "B", 1.0), distance("B", "C", 1.0)],
    )


def _moser_spindle() -> ConstraintGraph:
    # Two unit rhombi sharing the apex O, tips C and F joined by a unit edge.
    ids = ["O", "A", "B", "C", "D", "E", "F"]
    pairs = [
        ("O", "A"), ("O", "B"), ("A", "B"), ("A", "C"), ("B", "C"),
        ("O", "D"), ("O", "E"), ("D", "E"), ("D", "F"), ("E", "F"),
        ("C", "F"),
    ]
    return build_graph([point(v) for v in ids], [distance(a, b, 1.0) for a, b in pairs])


def _three_prism() -> ConstraintGraph:
    ids = ["A", "B", "C", "D", "E", "F"]
    pairs = [
        ("A", "B"), ("B", "C"), ("C", "A"),
        ("D", "E"), ("E", "F"), ("F", "D"),
        ("A", "D"), ("B", "E"), ("C", "F"),
    ]
    return build_graph([point(v) for v in ids], [distance(a, b, 1.0) for a, b in pairs])


def _k33() -> ConstraintGraph:
    left, right = ["A", "B", "C"], ["D", "E", "F"]
    return build_graph(
        [point(v) for v in left + right],
        [distance(a, b, 1.0) for a in left for b in right],
    )


def _three_angle_triangle() -> ConstraintGraph:
    third = math.pi / 3.0
    return build_graph(
        [line("L1"), line("L2"), line("L3")],
        [angle("L1", "L2", third), angle("L2", "L3", third), angle("L3", "L1", third)],
    )


def _degenerate_triangle() -> ConstraintGraph:
    return build_graph(
        [point("A"), point("B"), point("C")],
        [distance("A", "B", 1.0), distance("B", "C", 1.0), distance("C", "A", 2.0)],
    )


def _quad_angle() -> ConstraintGraph:
    # Quadrilateral ABCD by four side lengths plus the angle between the
    # carrier lines of AD and BC.
    entities = [point("A"), point("B"), point("C"), point("D"), line("LAD"), line("LBC")]
    cons = [
        incidence("A", "LAD"),
        incidence("D", "LAD"),
        incidence("B", "LBC"),
        incidence("C", "LBC"),
        distance("A", "B", 1.0),
        distance("B", "C", 1.0),
        distance("C", "D", 1.0),
        distance("D", "A", 2.0),
        angle("LAD", "LBC", math.pi / 3.0),
    ]
    return build_graph(entities, cons)


def _quad_angle_aux() -> ConstraintGraph:
    # Same quadrilateral with the auxiliary point E: AE runs parallel to CB
    # with |AE| = |CB| and |EC| = |AB|, which restores decomposability.
    entities = [point("A"), point("B"), point("C"), point("D"), point("E"),
                line("LAD"), line("LAE")]
    cons = [
        incidence("A", "LAD"),
        incidence("D", "LAD"),
        incidence("A", "LAE"),
        incidence("E", "LAE"),
        distance("D", "A", 2.0),
        distance("A", "E", 1.0),
        distance("E", "C", 1.0),
        distance("C", "D", 1.0),
        distance("C", "B", 1.0),
        distance("A", "B", 1.0),
        angle("LAD", "LAE", math.pi / 3.0),
    ]
    return build_graph(entities, cons)


def _cramer_castillon() -> ConstraintGraph:
    # Triangle MNP inscribed in a fixed-radius circle, each side through one
    # of the pinned points A, B, C; the circle centre is tied down through O.
    entities = [
        point("O"), point("A"), point("B"), point("C"),
        point("M"), point("N"), point("P"),
        fixed_circle("G", 2.0),
        line("LMN"), line("LNP"), line("LPM"),
    ]
    cons = [
        distance("A", "B", 1.0),
        distance("B", "C", 1.0),
        distance("O", "A", 1.0),
        distance("O", "B", 1.0),
        distance("O", "M", 2.0),
        distance("O", "N", 2.0),
        distance("O", "P", 2.0),
        incidence("M", "G"),
        incidence("N", "G"),
        incidence("P", "G"),
        incidence("M", "LMN"),
        incidence("N", "LMN"),
        incidence("N", "LNP"),
        incidence("P", "LNP"),
        incidence("P", "LPM"),
        incidence("M", "LPM"),
        incidence("C", "LMN"),
        incidence("A", "LNP"),
        incidence("B", "LPM"),
    ]
    return build_graph(entities, cons)


def _malfatti() -> ConstraintGraph:
    # Three mutually tangent free-radius circles, each tangent to two sides
    # of a triangle given by its three angles.
    third = math.pi / 3.0
    entities = [line("L1"), line("L2"), line("L3"),
                free_circle("K1"), free_circle("K2"), free_circle("K3")]
    cons = [
        angle("L1", "L2", third),
        angle("L2", "L3", third),
        angle("L3", "L1", third),
        tangency("K1", "L1"),
        tangency("K1", "L2"),
        tangency("K2", "L2"),
        tangency("K2", "L3"),
        tangency("K3", "L3"),
        tangency("K3", "L1"),
        tangency("K1", "K2"),
        tangency("K2", "K3"),
        tangency("K3", "K1"),
    ]
    return build_graph(entities, cons)


_FIXTURES: dict[str, Callable[[], ConstraintGraph]] = {
    "triangle": _triangle,
    "k4": _k4,
    "path3": _path3,
    "moser-spindle": _moser_spindle,
    "three-prism": _three_prism,
    "k33": _k33,
    "three-angle-triangle": _three_angle_triangle,
    "degenerate-triangle": _degenerate_triangle,
    "quad-angle": _quad_angle,
    "quad-angle-aux": _quad_angle_aux,
    "cramer-castillon": _cramer_castillon,
    "malfatti": _malfatti,
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


def fixture(name: str) -> ConstraintGraph:
    """Return a named graph from the fixture catalog."""
    try:
        builder = _FIXTURES[name]
    except KeyError:
        known = ", ".join(fixture_names())
        raise UnknownFixtureError(f"unknown fixture {name!r} (known: {known})") from None
    return builder()
