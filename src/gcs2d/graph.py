"""Constraint-graph data model: entities, scalar constraints, counting, JSON I/O.

A graph holds geometric entities (points, lines, circles) as vertices and
binary scalar constraints as edges.  Every constraint consumes exactly one
degree of freedom.  Duplicate edges are allowed; they surface later as
over-constraint evidence rather than being rejected at build time.
"""

from __future__ import annotations

import json
import math
import sys
from enum import Enum
from functools import cached_property, lru_cache, partial
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, NamedTuple

from .errors import (
    BadValueError,
    DuplicateIdError,
    KindMismatchError,
    ParseError,
    SelfLoopError,
    TooSmallError,
    UnknownEndpointError,
)


class EntityKind(Enum):
    """Kind of geometric entity, determining its degrees of freedom."""

    POINT = "point"
    LINE = "line"
    CIRCLE_FIXED_RADIUS = "circle_fixed_radius"
    CIRCLE_FREE_RADIUS = "circle_free_radius"

    @property
    def is_circle(self) -> bool:
        return self in (EntityKind.CIRCLE_FIXED_RADIUS, EntityKind.CIRCLE_FREE_RADIUS)


# Keyed by kind value: ``kind._value_`` is a plain attribute, where hashing an
# enum member runs Python code, and the structural layers ask per entity.
_DOF = {"point": 2, "line": 2, "circle_fixed_radius": 2, "circle_free_radius": 3}


def dof(kind: EntityKind) -> int:
    """Degrees of freedom of an entity kind (2, except 3 for a free-radius circle)."""
    return _DOF[kind._value_]


class Entity(NamedTuple):
    """A named geometric entity.  ``radius`` is set iff the kind fixes it."""

    id: str
    kind: EntityKind
    radius: float | None = None


def point(entity_id: str) -> Entity:
    return Entity(entity_id, EntityKind.POINT)


def line(entity_id: str) -> Entity:
    return Entity(entity_id, EntityKind.LINE)


def fixed_circle(entity_id: str, radius: float) -> Entity:
    return Entity(entity_id, EntityKind.CIRCLE_FIXED_RADIUS, radius=radius)


def free_circle(entity_id: str) -> Entity:
    return Entity(entity_id, EntityKind.CIRCLE_FREE_RADIUS)


class ConstraintKind(Enum):
    DISTANCE = "distance"
    POINT_LINE_DISTANCE = "point_line_distance"
    INCIDENCE = "incidence"
    ANGLE = "angle"
    TANGENCY = "tangency"


# Validation tables, keyed by kind values (``kind._value_``, a plain attribute,
# where an enum member's hash, ``.value`` and ``is_circle`` run Python code).
# Base shape of each entity kind: both circle kinds admit the same constraints.
_SHAPE = {"point": "point", "line": "line",
          "circle_fixed_radius": "circle", "circle_free_radius": "circle"}

# Admissible (constraint kind, shape, shape) triples, in either endpoint order.
_ADMISSIBLE = {
    (kind, *ends)
    for kind, s, t in (("distance", "point", "point"), ("point_line_distance", "point", "line"),
                       ("incidence", "point", "line"), ("incidence", "point", "circle"),
                       ("angle", "line", "line"), ("tangency", "line", "circle"),
                       ("tangency", "circle", "circle"))
    for ends in ((s, t), (t, s))
}

# Value check per constraint kind: a test that a (finite) value is out of
# range and the message for endpoints a, b and value v; None where the kind
# carries no value.
_VALUE_CHECK = {
    "distance": (lambda v: v <= 0, "distance {a!r},{b!r} must be > 0, got {v}"),
    "point_line_distance": (lambda v: v < 0, "point-line distance {a!r},{b!r} must be >= 0"),
    "angle": (lambda v: not 0 < v < math.pi, "angle {a!r},{b!r} must lie in (0, pi), got {v}"),
    "incidence": None,
    "tangency": None,
}


class Constraint(NamedTuple):
    """One scalar equation between two distinct entities."""

    kind: ConstraintKind
    between: tuple[str, str]
    value: float | None = None


def distance(a: str, b: str, value: float) -> Constraint:
    return Constraint(ConstraintKind.DISTANCE, (a, b), value)


def point_line_distance(p: str, l: str, value: float) -> Constraint:
    return Constraint(ConstraintKind.POINT_LINE_DISTANCE, (p, l), value)


def incidence(a: str, b: str) -> Constraint:
    return Constraint(ConstraintKind.INCIDENCE, (a, b))


def angle(a: str, b: str, value: float) -> Constraint:
    return Constraint(ConstraintKind.ANGLE, (a, b), value)


def tangency(a: str, b: str) -> Constraint:
    return Constraint(ConstraintKind.TANGENCY, (a, b))


class _Graph(NamedTuple):
    entities: tuple[Entity, ...]
    constraints: tuple[Constraint, ...]


class ConstraintGraph(_Graph):
    """An immutable constraint graph.  Build through :func:`build_graph`.
    A NamedTuple with an instance dict (no ``__slots__``) for the cached
    properties below; equality and hashing read the two fields only."""

    @cached_property
    def _entity_map(self) -> dict[str, Entity]:
        return {e.id: e for e in self.entities}

    @cached_property
    def _analyses(self) -> dict[str, object]:
        """Structural results :meth:`_kept` keeps, by name, for the graph's
        structure: its entity ids and kinds and constraint kinds and
        endpoints, in order.  No structural layer reads a value, so a
        re-valued or rescaled copy of a graph gets the same dict when no
        other structure was analysed in between (:func:`_structure_results`,
        an ``lru_cache`` of one entry).  The graph keeps the dict it got,
        whatever is analysed later."""
        return _structure_results((tuple((e.id, e.kind._value_) for e in self.entities),
                                   tuple((c.kind._value_, c.between) for c in self.constraints)))

    def _kept(self, name: str, key: object, build: Callable[[], object]) -> object:
        """The result kept under ``name`` if it was built from this ``key``
        object (``None``: from the structure alone), else ``build()``'s, kept
        from now on.  A build that raises keeps nothing."""
        kept = self._analyses
        made = kept.get(name)
        if made is None or made[0] is not key:
            made = kept[name] = (key, build())
        return made[1]

    @property
    def n(self) -> int:
        return len(self.entities)

    @property
    def m(self) -> int:
        return len(self.constraints)

    @property
    def entity_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.entities)

    def entity(self, entity_id: str) -> Entity:
        try:
            return self._entity_map[entity_id]
        except KeyError:
            raise UnknownEndpointError(f"no entity with id {entity_id!r}") from None

    def kind_of(self, entity_id: str) -> EntityKind:
        return self.entity(entity_id).kind

    def dof_total(self) -> int:
        return sum(dof(e.kind) for e in self.entities)


# The results of the structure analysed last, by its key: the analyses of one
# structure serve every graph of it until another structure is analysed.
# Kinds enter the key as their values, since hashing an enum member runs
# Python code.
@lru_cache(maxsize=1)
def _structure_results(key: tuple) -> dict[str, object]:
    return {}


def build_graph(entities: Iterable[Entity], constraints: Iterable[Constraint]) -> ConstraintGraph:
    """Validate and assemble a :class:`ConstraintGraph`.

    Raises DuplicateIdError, UnknownEndpointError, SelfLoopError,
    KindMismatchError or BadValueError on malformed input.  Duplicate
    constraints are accepted (multigraph).
    """
    ents = tuple(entities)
    cons = tuple(constraints)

    shapes: dict[str, str] = {}  # entity id -> base shape
    for entity_id, kind, radius in ents:
        if not entity_id or not isinstance(entity_id, str):
            raise BadValueError(f"entity id must be a nonempty string, got {entity_id!r}")
        if entity_id in shapes:
            raise DuplicateIdError(f"duplicate entity id {entity_id!r}")
        kind_name = kind._value_
        shapes[entity_id] = _SHAPE[kind_name]
        if kind_name == "circle_fixed_radius":
            if radius is None:
                raise BadValueError(f"circle {entity_id!r} has a fixed radius but no radius value")
            if not math.isfinite(radius) or radius <= 0:
                raise BadValueError(f"circle {entity_id!r} radius must be finite and > 0")
        elif radius is not None:
            raise BadValueError(f"entity {entity_id!r} of kind {kind_name} cannot carry a radius")

    for kind, (a, b), value in cons:
        if a not in shapes:
            raise UnknownEndpointError(f"constraint endpoint {a!r} is not an entity")
        if b not in shapes:
            raise UnknownEndpointError(f"constraint endpoint {b!r} is not an entity")
        if a == b:
            raise SelfLoopError(f"constraint joins {a!r} to itself")
        kind_name = kind._value_
        if (kind_name, shapes[a], shapes[b]) not in _ADMISSIBLE:
            kinds = {e.id: e.kind._value_ for e in ents}
            raise KindMismatchError(
                f"{kind_name} not admissible between {kinds[a]} and {kinds[b]}"
            )
        check = _VALUE_CHECK[kind_name]
        if check is None:
            if value is not None:
                raise BadValueError(f"{kind_name} constraint carries no value")
        elif value is None:
            raise BadValueError(f"{kind_name} constraint between {a!r},{b!r} needs a value")
        elif not math.isfinite(value):
            raise BadValueError(f"{kind_name} value must be finite")
        elif check[0](value):
            raise BadValueError(check[1].format(a=a, b=b, v=value))

    return ConstraintGraph(ents, cons)


def induced_subgraph(g: ConstraintGraph, ids: Iterable[str]) -> ConstraintGraph:
    """Subgraph on ``ids`` keeping exactly the constraints with both ends inside."""
    keep = set(ids)
    for entity_id in keep:
        if entity_id not in g._entity_map:
            raise UnknownEndpointError(f"no entity with id {entity_id!r}")
    ents = tuple(e for e in g.entities if e.id in keep)
    cons = tuple(c for c in g.constraints if c.between[0] in keep and c.between[1] in keep)
    return ConstraintGraph(ents, cons)


def deficiency(g: ConstraintGraph) -> int:
    """Missing-constraint count: sum of entity DOF minus 3, minus the edge count.

    Zero suggests a structurally exact count, positive means constraints are
    missing, negative means they are in excess somewhere.
    """
    if g.n < 2:
        raise TooSmallError("deficiency needs at least two entities")
    return g.dof_total() - 3 - g.m


# ------------------------------------------------------------------- JSON I/O


def _entity_to_dict(e: Entity) -> dict:
    if e.kind is EntityKind.POINT:
        return {"id": e.id, "kind": "point"}
    if e.kind is EntityKind.LINE:
        return {"id": e.id, "kind": "line"}
    out: dict = {"id": e.id, "kind": "circle", "radius_known": e.kind is EntityKind.CIRCLE_FIXED_RADIUS}
    if e.radius is not None:
        out["radius"] = e.radius
    return out


def _constraint_to_dict(c: Constraint) -> dict:
    out: dict = {"kind": c.kind.value, "between": list(c.between)}
    if c.value is not None:
        out["value"] = c.value
    return out


def graph_to_dict(g: ConstraintGraph) -> dict:
    return {
        "entities": [_entity_to_dict(e) for e in g.entities],
        "constraints": [_constraint_to_dict(c) for c in g.constraints],
    }


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(f: float) -> str:
    text = float.__repr__(f)
    return _NONFINITE.get(text, text)


# The text of each scalar type, by exact type: bool is not read as int.
_LEAF = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _pieces(o: object, nl: str, put: Callable[[str], None]) -> None:
    """Put the pieces of ``o``'s ``indent=2`` text, its lines indented past
    ``nl`` (a newline and the indent of the line ``o`` starts on)."""
    t = type(o)
    if t is dict:
        if not o:
            put("{}")
            return
        inner = nl + "  "
        sep, rest = "{" + inner, "," + inner
        for k, v in o.items():
            put(sep + encode_basestring_ascii(k) + ": ")  # TypeError: not a str
            leaf = _LEAF.get(type(v))
            if leaf is None:
                _pieces(v, inner, put)
            else:
                put(leaf(v))
            sep = rest
        put(nl + "}")
    elif t is list or t is tuple:
        if not o:
            put("[]")
            return
        inner = nl + "  "
        sep, rest = "[" + inner, "," + inner
        for v in o:
            leaf = _LEAF.get(type(v))
            if leaf is None:
                put(sep)
                _pieces(v, inner, put)
            else:
                put(sep + leaf(v))
            sep = rest
        put(nl + "]")
    else:
        put(_LEAF[t](o))  # KeyError: not an exact JSON type


def _indented_json_one_pass(doc: object) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, built as one list of
    pieces in one recursive pass instead of through the generators json
    runs whenever ``indent`` is set before Python 3.13.  Only the exact
    JSON types with str keys take that pass; any other document (a
    subclass, another key or value, a cycle) goes to json whole."""
    pieces: list[str] = []
    try:
        _pieces(doc, "\n", pieces.append)
    except (KeyError, TypeError, RecursionError):
        return json.dumps(doc, indent=2)
    return "".join(pieces)


# From Python 3.13 json encodes ``indent`` in C, in about 0.7x the time the
# one-pass writer takes on the documents the CLI writes; before it, json's
# generators take 2-3x as long as the writer (README, Performance notes).
indented_json: Callable[[object], str] = (
    partial(json.dumps, indent=2) if sys.version_info >= (3, 13) else _indented_json_one_pass
)


def serialize(g: ConstraintGraph) -> str:
    """Canonical JSON text; insertion order and full float precision preserved."""
    return indented_json(graph_to_dict(g))


def _float(raw: object, what: str) -> float | None:
    """A JSON number as a float, ``None`` kept; ParseError for any other
    value (a boolean too) and for an integer too large for a float."""
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParseError(f"{what} must be a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:
        raise ParseError(f"{what} is too large for a float") from None


_KIND_BY_NAME = {k.value: k for k in ConstraintKind}
# Bound once: on Python 3.11 each ``EntityKind.X`` lookup costs about an enum hash.
_POINT, _LINE = EntityKind.POINT, EntityKind.LINE
_CIRCLE = {True: EntityKind.CIRCLE_FIXED_RADIUS, False: EntityKind.CIRCLE_FREE_RADIUS}


def graph_from_dict(doc: object) -> ConstraintGraph:
    if not isinstance(doc, dict):
        raise ParseError("graph document must be a JSON object")
    raw_entities = doc.get("entities")
    raw_constraints = doc.get("constraints")
    if not isinstance(raw_entities, list) or not isinstance(raw_constraints, list):
        raise ParseError("graph document needs 'entities' and 'constraints' arrays")
    entities = []
    for raw in raw_entities:
        if not isinstance(raw, dict):
            raise ParseError(f"entity must be an object, got {type(raw).__name__}")
        entity_id = raw.get("id")
        if not isinstance(entity_id, str) or not entity_id:
            raise ParseError(f"entity id must be a nonempty string, got {entity_id!r}")
        kind = raw.get("kind")
        if kind == "point":
            entities.append(Entity(entity_id, _POINT))
        elif kind == "line":
            entities.append(Entity(entity_id, _LINE))
        elif kind == "circle":
            known = raw.get("radius_known")
            if not isinstance(known, bool):
                raise ParseError(f"circle {entity_id!r} needs a boolean radius_known")
            radius = _float(raw.get("radius"), f"circle {entity_id!r} radius")
            entities.append(Entity(entity_id, _CIRCLE[known], radius))
        else:
            raise ParseError(f"unknown entity kind {kind!r}")
    constraints = []
    for raw in raw_constraints:
        if not isinstance(raw, dict):
            raise ParseError(f"constraint must be an object, got {type(raw).__name__}")
        kind_name = raw.get("kind")
        if not isinstance(kind_name, str) or kind_name not in _KIND_BY_NAME:
            raise ParseError(f"unknown constraint kind {kind_name!r}")
        between = raw.get("between")
        if (not isinstance(between, list) or len(between) != 2
                or not isinstance(between[0], str) or not isinstance(between[1], str)):
            raise ParseError(f"constraint 'between' must list two entity ids, got {between!r}")
        value = raw.get("value")
        if type(value) is not float:
            value = _float(value, "constraint value")
        constraints.append(Constraint(_KIND_BY_NAME[kind_name], (between[0], between[1]), value))
    return build_graph(entities, constraints)


def parse(text: str) -> ConstraintGraph:
    """Inverse of :func:`serialize`.  Raises ParseError on malformed documents,
    then any of the build_graph errors on semantic problems."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ParseError(f"invalid JSON: {exc}") from exc
    return graph_from_dict(doc)
