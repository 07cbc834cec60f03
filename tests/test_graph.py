import enum
import json
import math
import random
import re
import sys
from collections import OrderedDict
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from gcs2d import (
    BadValueError,
    Constraint,
    ConstraintKind,
    DuplicateIdError,
    Entity,
    EntityKind,
    GcsError,
    KindMismatchError,
    ParseError,
    SelfLoopError,
    TooSmallError,
    UnknownEndpointError,
    build_graph,
    deficiency,
    distance,
    dof,
    fixed_circle,
    free_circle,
    incidence,
    line,
    parse,
    point,
    point_line_distance,
    serialize,
)
from gcs2d.graph import _indented_json_one_pass, angle, indented_json, tangency

from support import random_mixed_graph


def pythagorean_triangle():
    return build_graph(
        [point("A"), point("B"), point("C")],
        [distance("A", "B", 3.0), distance("B", "C", 4.0), distance("C", "A", 5.0)],
    )


class TestDof:
    def test_point_has_two(self):
        assert dof(EntityKind.POINT) == 2

    def test_line_has_two(self):
        assert dof(EntityKind.LINE) == 2

    def test_fixed_radius_circle_has_two(self):
        assert dof(EntityKind.CIRCLE_FIXED_RADIUS) == 2

    def test_free_radius_circle_has_three(self):
        assert dof(EntityKind.CIRCLE_FREE_RADIUS) == 3


class TestBuildGraph:
    def test_valid_triangle(self):
        g = pythagorean_triangle()
        assert g.n == 3
        assert g.m == 3

    def test_unknown_endpoint(self):
        with pytest.raises(UnknownEndpointError):
            build_graph([point("A")], [distance("A", "Z", 1.0)])

    def test_duplicate_id(self):
        with pytest.raises(DuplicateIdError):
            build_graph([point("A"), point("A")], [])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph([point("A"), point("B")], [distance("A", "A", 1.0)])

    def test_angle_between_points_is_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            build_graph([point("A"), point("B")], [angle("A", "B", 1.0)])

    def test_distance_between_point_and_line_is_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            build_graph([point("A"), line("L")], [distance("A", "L", 1.0)])

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(BadValueError):
            build_graph([point("A"), point("B")], [distance("A", "B", 0.0)])

    @pytest.mark.parametrize("value", [0.0, math.pi, -1.0])
    def test_angle_outside_open_interval_rejected(self, value):
        with pytest.raises(BadValueError):
            build_graph([line("L1"), line("L2")], [angle("L1", "L2", value)])

    def test_fixed_circle_needs_positive_radius(self):
        with pytest.raises(BadValueError):
            build_graph([fixed_circle("C", -2.0)], [])

    def test_free_circle_rejects_radius(self):
        from gcs2d import Entity

        with pytest.raises(BadValueError):
            build_graph([Entity("C", EntityKind.CIRCLE_FREE_RADIUS, radius=1.0)], [])

    def test_fixed_circle_requires_radius(self):
        from gcs2d import Entity

        with pytest.raises(BadValueError):
            build_graph([Entity("C", EntityKind.CIRCLE_FIXED_RADIUS)], [])

    def test_incidence_value_rejected(self):
        from gcs2d import Constraint, ConstraintKind

        bad = Constraint(ConstraintKind.INCIDENCE, ("A", "L"), 1.0)
        with pytest.raises(BadValueError):
            build_graph([point("A"), line("L")], [bad])

    def test_duplicate_constraints_allowed(self):
        g = build_graph(
            [point("A"), point("B")],
            [distance("A", "B", 1.0), distance("A", "B", 1.0)],
        )
        assert g.m == 2

    def test_tangency_pairs(self):
        g = build_graph(
            [line("L"), fixed_circle("C", 1.0), free_circle("K")],
            [tangency("L", "C"), tangency("C", "K")],
        )
        assert g.m == 2
        with pytest.raises(KindMismatchError):
            build_graph([point("A"), fixed_circle("C", 1.0)], [tangency("A", "C")])


class TestDeficiency:
    def test_triangle_is_exact(self):
        assert deficiency(pythagorean_triangle()) == 0

    def test_k4_is_negative_one(self):
        ids = ["A", "B", "C", "D"]
        g = build_graph(
            [point(v) for v in ids],
            [distance(a, b, 1.0) for i, a in enumerate(ids) for b in ids[i + 1 :]],
        )
        assert deficiency(g) == -1

    def test_three_lines_three_angles_is_exact(self):
        g = build_graph(
            [line("L1"), line("L2"), line("L3")],
            [angle("L1", "L2", 1.0), angle("L2", "L3", 1.0), angle("L3", "L1", 1.0)],
        )
        assert deficiency(g) == 0

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            deficiency(build_graph([point("A")], []))

    def test_matches_independent_recount(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_mixed_graph(rng)
            if g.n < 2:
                continue
            recount = sum(dof(e.kind) for e in g.entities) - 3 - len(g.constraints)
            assert deficiency(g) == recount


class TestSerialization:
    def test_round_trip_triangle(self):
        g = pythagorean_triangle()
        assert parse(serialize(g)) == g

    def test_order_preserved(self):
        g = build_graph(
            [point("B"), point("A")],
            [distance("B", "A", 2.0)],
        )
        back = parse(serialize(g))
        assert back.entity_ids == ("B", "A")

    def test_unknown_kind_is_parse_error(self):
        text = '{"entities": [{"id": "S", "kind": "sphere"}], "constraints": []}'
        with pytest.raises(ParseError):
            parse(text)

    def test_missing_entity_is_unknown_endpoint(self):
        text = (
            '{"entities": [], "constraints": '
            '[{"kind": "distance", "between": ["A", "B"], "value": 1.0}]}'
        )
        with pytest.raises(UnknownEndpointError):
            parse(text)

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse("{nope")

    def test_round_trip_mixed_graphs(self):
        rng = random.Random(3)
        for _ in range(100):
            g = random_mixed_graph(rng)
            assert parse(serialize(g)) == g

    @pytest.mark.parametrize("number", [True, False, "3"])
    @pytest.mark.parametrize("field", ["value", "radius"])
    def test_a_non_number_is_no_number(self, field, number):
        # JSON booleans are no numbers, though Python's bool is an int.
        doc = {"entities": [{"id": "A", "kind": "point"}, {"id": "B", "kind": "point"},
                            {"id": "C", "kind": "circle", "radius_known": True, "radius": 1.5}],
               "constraints": [{"kind": "distance", "between": ["A", "B"], "value": 2.0}]}
        if field == "value":
            doc["constraints"][0]["value"] = number
        else:
            doc["entities"][2]["radius"] = number
        with pytest.raises(ParseError, match="must be a number"):
            parse(json.dumps(doc))

    @given(
        st.lists(
            st.tuples(st.sampled_from("ABCDEF"), st.sampled_from("ABCDEF")),
            max_size=8,
        ),
        st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    )
    def test_round_trip_point_graphs(self, pairs, base_value):
        entities = [point(x) for x in "ABCDEF"]
        constraints = [
            distance(a, b, base_value + i) for i, (a, b) in enumerate(pairs) if a != b
        ]
        g = build_graph(entities, constraints)
        assert parse(serialize(g)) == g


# Text that json escapes or writes as is: quotes, backslashes, control
# characters, non-ASCII and lone surrogates, besides any code point.
_json_text = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'),
    st.characters(exclude_categories=()),
))
_json_leaves = st.one_of(
    _json_text,
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 5e-324]),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.booleans(),
    st.none(),
    st.sampled_from([[], {}, [[]], {"": {}}, [{}, []]]),
)
_json_trees = st.recursive(
    _json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_json_text, children, max_size=4),
    ),
    max_leaves=40,
)


class TestIndentedJson:
    """The one-pass writer against ``json.dumps(..., indent=2)``, called
    directly, so it is checked on interpreters that do not select it."""

    @given(_json_trees)
    def test_matches_json_dumps(self, doc):
        assert _indented_json_one_pass(doc) == json.dumps(doc, indent=2)

    def test_subclasses_and_keys_read_as_json_reads_them(self):
        class Kind(enum.IntEnum):
            A = 3

        class Pair(NamedTuple):
            x: float
            y: float

        class Text(str):
            def __str__(self):
                return "other"

        doc = {7: Kind.A, 2.5: Pair(1.0, math.inf), math.inf: Text("t"), False: [Text("u")],
               None: OrderedDict(b=[], a={}), Text("k"): (Kind.A, True, 1)}
        assert _indented_json_one_pass(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [{1}, b"x", 1j, object(), {(1, 2): 0}, [{"a": frozenset()}]],
                             ids=["set", "bytes", "complex", "object", "tuple-key", "nested"])
    def test_an_unsupported_value_raises_what_json_raises(self, doc):
        with pytest.raises(TypeError) as want:
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError, match=f"^{re.escape(str(want.value))}$"):
            _indented_json_one_pass(doc)

    @staticmethod
    def cyclic(kind):
        if kind == "list":
            doc = [1, {"a": []}]
            doc[1]["a"].append(doc)
        else:
            doc = {"a": [1, {}]}
            doc["a"][1]["b"] = doc
        return doc

    @pytest.mark.parametrize("kind", ["list", "dict"])
    def test_a_cycle_raises_what_json_raises(self, kind):
        with pytest.raises(ValueError) as want:
            json.dumps(self.cyclic(kind), indent=2)
        for write in (_indented_json_one_pass, indented_json):
            with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
                write(self.cyclic(kind))

    def test_the_writer_is_picked_by_the_interpreter(self):
        # Python 3.13 encodes indent in C, before it json runs generators.
        if sys.version_info >= (3, 13):
            assert (indented_json.func, indented_json.keywords) == (json.dumps, {"indent": 2})
        else:
            assert indented_json is _indented_json_one_pass


# ------------------------------------------------------- validation, pinned

# Every error branch of document parsing and graph building, with the exact
# error type and message, including inputs with two faults, where the table
# shows which check fires first: parse errors (entities, then constraints)
# before build errors; entity checks before constraint checks; within a
# constraint an unknown endpoint, then a self loop, then a kind mismatch,
# then its value.

_A, _B = ({"id": x, "kind": "point"} for x in "AB")
_L = {"id": "L", "kind": "line"}
_M = {"id": "M", "kind": "line"}
_K = {"id": "K", "kind": "circle", "radius_known": False}


def _con(kind, a, b, **value):
    return {"kind": kind, "between": [a, b], **value}


def _doc(entities, constraints=()):
    return {"entities": list(entities), "constraints": list(constraints)}


def _circle(**fields):
    return {"id": "C", "kind": "circle", **fields}


_DOCUMENT_ERRORS = [
    # graph_from_dict
    ("not an object", [], ParseError, "graph document must be a JSON object"),
    ("no constraints", {"entities": []}, ParseError,
     "graph document needs 'entities' and 'constraints' arrays"),
    ("entities not an array", {"entities": {}, "constraints": []}, ParseError,
     "graph document needs 'entities' and 'constraints' arrays"),
    # entities
    ("entity not an object", _doc([1]), ParseError, "entity must be an object, got int"),
    ("entity without id", _doc([{"kind": "point"}]), ParseError,
     "entity id must be a nonempty string, got None"),
    ("empty entity id", _doc([{"id": "", "kind": "point"}]), ParseError,
     "entity id must be a nonempty string, got ''"),
    ("numeric entity id", _doc([{"id": 3, "kind": "point"}]), ParseError,
     "entity id must be a nonempty string, got 3"),
    ("unknown entity kind", _doc([{"id": "S", "kind": "sphere"}]), ParseError,
     "unknown entity kind 'sphere'"),
    ("entity without kind", _doc([{"id": "S"}]), ParseError, "unknown entity kind None"),
    ("circle without radius_known", _doc([_circle(radius=1.0)]), ParseError,
     "circle 'C' needs a boolean radius_known"),
    ("numeric radius_known", _doc([_circle(radius_known=1, radius=1.0)]), ParseError,
     "circle 'C' needs a boolean radius_known"),
    ("string radius", _doc([_circle(radius_known=True, radius="1")]), ParseError,
     "circle 'C' radius must be a number, got '1'"),
    ("boolean radius", _doc([_circle(radius_known=True, radius=True)]), ParseError,
     "circle 'C' radius must be a number, got True"),
    ("huge integer radius", _doc([_circle(radius_known=True, radius=10**400)]), ParseError,
     "circle 'C' radius is too large for a float"),
    # constraints
    ("constraint not an object", _doc([_A, _B], ["AB"]), ParseError,
     "constraint must be an object, got str"),
    ("unknown constraint kind", _doc([_A, _B], [_con("parallel", "A", "B")]), ParseError,
     "unknown constraint kind 'parallel'"),
    ("numeric constraint kind", _doc([_A, _B], [_con(1, "A", "B")]), ParseError,
     "unknown constraint kind 1"),
    ("constraint without kind", _doc([_A, _B], [{"between": ["A", "B"]}]), ParseError,
     "unknown constraint kind None"),
    ("between a string", _doc([_A, _B], [{"kind": "incidence", "between": "AB"}]), ParseError,
     "constraint 'between' must list two entity ids, got 'AB'"),
    ("between three ids", _doc([_A, _B], [{"kind": "incidence", "between": ["A", "B", "A"]}]),
     ParseError, "constraint 'between' must list two entity ids, got ['A', 'B', 'A']"),
    ("between a number", _doc([_A, _B], [{"kind": "incidence", "between": ["A", 2]}]),
     ParseError, "constraint 'between' must list two entity ids, got ['A', 2]"),
    ("string value", _doc([_A, _B], [_con("distance", "A", "B", value="1")]), ParseError,
     "constraint value must be a number, got '1'"),
    ("boolean value", _doc([_A, _B], [_con("distance", "A", "B", value=False)]), ParseError,
     "constraint value must be a number, got False"),
    ("huge integer value", _doc([_A, _B], [_con("distance", "A", "B", value=10**400)]),
     ParseError, "constraint value is too large for a float"),
    # entity checks of build_graph
    ("duplicate id", _doc([_A, _B, {"id": "A", "kind": "line"}]), DuplicateIdError,
     "duplicate entity id 'A'"),
    ("fixed circle without radius", _doc([_circle(radius_known=True)]), BadValueError,
     "circle 'C' has a fixed radius but no radius value"),
    ("zero radius", _doc([_circle(radius_known=True, radius=0)]), BadValueError,
     "circle 'C' radius must be finite and > 0"),
    ("negative radius", _doc([_circle(radius_known=True, radius=-2.0)]), BadValueError,
     "circle 'C' radius must be finite and > 0"),
    ("nan radius", _doc([_circle(radius_known=True, radius=math.nan)]), BadValueError,
     "circle 'C' radius must be finite and > 0"),
    ("infinite radius", _doc([_circle(radius_known=True, radius=math.inf)]), BadValueError,
     "circle 'C' radius must be finite and > 0"),
    ("free circle with radius", _doc([_circle(radius_known=False, radius=1.0)]), BadValueError,
     "entity 'C' of kind circle_free_radius cannot carry a radius"),
    # constraint checks of build_graph
    ("unknown first endpoint", _doc([_A], [_con("distance", "Z", "A", value=1.0)]),
     UnknownEndpointError, "constraint endpoint 'Z' is not an entity"),
    ("unknown second endpoint", _doc([_A], [_con("distance", "A", "Z", value=1.0)]),
     UnknownEndpointError, "constraint endpoint 'Z' is not an entity"),
    ("self loop", _doc([_A], [_con("distance", "A", "A", value=1.0)]), SelfLoopError,
     "constraint joins 'A' to itself"),
    ("kind mismatch", _doc([_A, _L], [_con("distance", "A", "L", value=1.0)]),
     KindMismatchError, "distance not admissible between point and line"),
    ("distance without value", _doc([_A, _B], [_con("distance", "A", "B")]), BadValueError,
     "distance constraint between 'A','B' needs a value"),
    ("angle without value", _doc([_L, _M], [_con("angle", "L", "M")]), BadValueError,
     "angle constraint between 'L','M' needs a value"),
    ("nan distance", _doc([_A, _B], [_con("distance", "A", "B", value=math.nan)]),
     BadValueError, "distance value must be finite"),
    ("infinite point-line distance", _doc([_A, _L], [_con("point_line_distance", "A", "L",
                                                            value=-math.inf)]),
     BadValueError, "point_line_distance value must be finite"),
    ("zero distance", _doc([_A, _B], [_con("distance", "A", "B", value=0)]), BadValueError,
     "distance 'A','B' must be > 0, got 0.0"),
    ("negative distance", _doc([_A, _B], [_con("distance", "B", "A", value=-1.5)]),
     BadValueError, "distance 'B','A' must be > 0, got -1.5"),
    ("negative point-line distance", _doc([_A, _L], [_con("point_line_distance", "L", "A",
                                                          value=-0.5)]),
     BadValueError, "point-line distance 'L','A' must be >= 0"),
    ("zero angle", _doc([_L, _M], [_con("angle", "L", "M", value=0)]), BadValueError,
     "angle 'L','M' must lie in (0, pi), got 0.0"),
    ("straight angle", _doc([_L, _M], [_con("angle", "L", "M", value=math.pi)]),
     BadValueError, f"angle 'L','M' must lie in (0, pi), got {math.pi}"),
    ("reflex angle", _doc([_L, _M], [_con("angle", "M", "L", value=4)]), BadValueError,
     "angle 'M','L' must lie in (0, pi), got 4.0"),
    ("incidence with value", _doc([_A, _L], [_con("incidence", "A", "L", value=0.0)]),
     BadValueError, "incidence constraint carries no value"),
    ("tangency with value", _doc([_L, _K], [_con("tangency", "K", "L", value=1.0)]),
     BadValueError, "tangency constraint carries no value"),
    # two faults: the first check in order fires
    ("parse error in a later entity before a build error in an earlier one",
     _doc([_circle(radius_known=True, radius=-1.0), {"id": "", "kind": "point"}]),
     ParseError, "entity id must be a nonempty string, got ''"),
    ("constraint parse error before an entity build error",
     _doc([_A, _A], [_con("parallel", "A", "B")]), ParseError,
     "unknown constraint kind 'parallel'"),
    ("entity parse error before a constraint parse error",
     _doc([{"id": "S", "kind": "sphere"}], [_con("parallel", "A", "B")]), ParseError,
     "unknown entity kind 'sphere'"),
    ("duplicate id before a bad radius on the same entity",
     _doc([_circle(radius_known=False), _circle(radius_known=True, radius=-1.0)]),
     DuplicateIdError, "duplicate entity id 'C'"),
    ("an earlier entity's bad radius before a later duplicate",
     _doc([_circle(radius_known=True, radius=-1.0), _A, _A]), BadValueError,
     "circle 'C' radius must be finite and > 0"),
    ("entity error before constraint error",
     _doc([_A, _A], [_con("distance", "A", "Z", value=1.0)]), DuplicateIdError,
     "duplicate entity id 'A'"),
    ("both endpoints unknown: the first is named",
     _doc([_A], [_con("distance", "Y", "Z", value=1.0)]), UnknownEndpointError,
     "constraint endpoint 'Y' is not an entity"),
    ("unknown endpoint before self loop",
     _doc([_A], [_con("distance", "Z", "Z", value=1.0)]), UnknownEndpointError,
     "constraint endpoint 'Z' is not an entity"),
    ("unknown endpoint before kind mismatch",
     _doc([_A], [_con("angle", "A", "Z", value=1.0)]), UnknownEndpointError,
     "constraint endpoint 'Z' is not an entity"),
    ("self loop before kind mismatch",
     _doc([_A], [_con("angle", "A", "A", value=1.0)]), SelfLoopError,
     "constraint joins 'A' to itself"),
    ("self loop before value", _doc([_L], [_con("angle", "L", "L", value=0.0)]),
     SelfLoopError, "constraint joins 'L' to itself"),
    ("kind mismatch before bad value",
     _doc([_A, _B], [_con("angle", "A", "B", value=0.0)]), KindMismatchError,
     "angle not admissible between point and point"),
    ("kind mismatch before missing value",
     _doc([_A, _L], [_con("distance", "L", "A")]), KindMismatchError,
     "distance not admissible between line and point"),
    ("kind mismatch before a value where none belongs",
     _doc([_A, _B], [_con("tangency", "A", "B", value=1.0)]), KindMismatchError,
     "tangency not admissible between point and point"),
    ("an earlier constraint's value before a later unknown endpoint",
     _doc([_A, _B], [_con("distance", "A", "B", value=-1.0),
                     _con("distance", "A", "Z", value=1.0)]), BadValueError,
     "distance 'A','B' must be > 0, got -1.0"),
    ("an earlier constraint's unknown endpoint before a later self loop",
     _doc([_A, _B], [_con("distance", "A", "Z", value=1.0),
                     _con("distance", "B", "B", value=1.0)]), UnknownEndpointError,
     "constraint endpoint 'Z' is not an entity"),
]


@pytest.mark.parametrize("doc, error, message",
                         [case[1:] for case in _DOCUMENT_ERRORS],
                         ids=[case[0] for case in _DOCUMENT_ERRORS])
def test_document_error(doc, error, message):
    with pytest.raises(GcsError) as info:
        parse(json.dumps(doc))
    assert (type(info.value), str(info.value)) == (error, message)


_BUILD_ERRORS = [
    ("empty entity id", [point("")], [], BadValueError,
     "entity id must be a nonempty string, got ''"),
    ("numeric entity id", [point(5)], [], BadValueError,
     "entity id must be a nonempty string, got 5"),
    ("duplicate id", [point("A"), line("A")], [], DuplicateIdError,
     "duplicate entity id 'A'"),
    ("fixed circle without radius", [Entity("C", EntityKind.CIRCLE_FIXED_RADIUS)], [],
     BadValueError, "circle 'C' has a fixed radius but no radius value"),
    ("negative radius", [fixed_circle("C", -2.0)], [], BadValueError,
     "circle 'C' radius must be finite and > 0"),
    ("nan radius", [fixed_circle("C", math.nan)], [], BadValueError,
     "circle 'C' radius must be finite and > 0"),
    ("point with radius", [Entity("A", EntityKind.POINT, 1.0)], [], BadValueError,
     "entity 'A' of kind point cannot carry a radius"),
    ("line with radius", [Entity("L", EntityKind.LINE, 1.0)], [], BadValueError,
     "entity 'L' of kind line cannot carry a radius"),
    ("free circle with radius", [Entity("C", EntityKind.CIRCLE_FREE_RADIUS, 1.0)], [],
     BadValueError, "entity 'C' of kind circle_free_radius cannot carry a radius"),
    ("unknown endpoint", [point("A")], [distance("A", "Z", 1.0)], UnknownEndpointError,
     "constraint endpoint 'Z' is not an entity"),
    ("self loop", [point("A")], [distance("A", "A", 1.0)], SelfLoopError,
     "constraint joins 'A' to itself"),
    ("kind mismatch", [point("A"), fixed_circle("C", 1.0)], [tangency("A", "C")],
     KindMismatchError, "tangency not admissible between point and circle_fixed_radius"),
    ("missing value", [line("L"), line("M")], [Constraint(ConstraintKind.ANGLE, ("L", "M"))],
     BadValueError, "angle constraint between 'L','M' needs a value"),
    ("nan value", [point("A"), line("L")], [point_line_distance("A", "L", math.nan)],
     BadValueError, "point_line_distance value must be finite"),
    ("zero distance", [point("A"), point("B")], [distance("A", "B", 0)], BadValueError,
     "distance 'A','B' must be > 0, got 0"),
    ("negative point-line distance", [point("A"), line("L")],
     [point_line_distance("A", "L", -1e-300)], BadValueError,
     "point-line distance 'A','L' must be >= 0"),
    ("angle past pi", [line("L"), line("M")], [angle("L", "M", 3.5)], BadValueError,
     "angle 'L','M' must lie in (0, pi), got 3.5"),
    ("incidence with value", [point("A"), free_circle("K")],
     [Constraint(ConstraintKind.INCIDENCE, ("A", "K"), 0.0)], BadValueError,
     "incidence constraint carries no value"),
    ("entity error before constraint error", [point(""), point("A")],
     [distance("A", "Z", 1.0)], BadValueError, "entity id must be a nonempty string, got ''"),
    ("self loop before kind mismatch", [point("A")], [angle("A", "A", 1.0)], SelfLoopError,
     "constraint joins 'A' to itself"),
    ("kind mismatch before value", [line("L"), point("A")], [distance("L", "A", -1.0)],
     KindMismatchError, "distance not admissible between line and point"),
]


@pytest.mark.parametrize("entities, constraints, error, message",
                         [case[1:] for case in _BUILD_ERRORS],
                         ids=[case[0] for case in _BUILD_ERRORS])
def test_build_error(entities, constraints, error, message):
    with pytest.raises(GcsError) as info:
        build_graph(entities, constraints)
    assert (type(info.value), str(info.value)) == (error, message)


# Which constraint kinds may join which entity kinds, in either order.
_ADMISSIBLE_KINDS = {
    ("distance", "point", "point"),
    ("point_line_distance", "point", "line"),
    ("point_line_distance", "line", "point"),
    ("incidence", "point", "line"),
    ("incidence", "line", "point"),
    ("incidence", "point", "circle_fixed_radius"),
    ("incidence", "circle_fixed_radius", "point"),
    ("incidence", "point", "circle_free_radius"),
    ("incidence", "circle_free_radius", "point"),
    ("angle", "line", "line"),
    ("tangency", "line", "circle_fixed_radius"),
    ("tangency", "circle_fixed_radius", "line"),
    ("tangency", "line", "circle_free_radius"),
    ("tangency", "circle_free_radius", "line"),
    ("tangency", "circle_fixed_radius", "circle_fixed_radius"),
    ("tangency", "circle_fixed_radius", "circle_free_radius"),
    ("tangency", "circle_free_radius", "circle_fixed_radius"),
    ("tangency", "circle_free_radius", "circle_free_radius"),
}
_ENTITY_DOCS = {
    "point": {"kind": "point"},
    "line": {"kind": "line"},
    "circle_fixed_radius": {"kind": "circle", "radius_known": True, "radius": 1.5},
    "circle_free_radius": {"kind": "circle", "radius_known": False},
}
_VALUES = {"distance": 1.0, "point_line_distance": 1.0, "angle": 1.0}


@pytest.mark.parametrize("kind_b", list(_ENTITY_DOCS))
@pytest.mark.parametrize("kind_a", list(_ENTITY_DOCS))
@pytest.mark.parametrize("constraint_kind",
                         ["distance", "point_line_distance", "incidence", "angle", "tangency"])
def test_admissible_kinds(constraint_kind, kind_a, kind_b):
    constraint = _con(constraint_kind, "U", "V")
    if constraint_kind in _VALUES:
        constraint["value"] = _VALUES[constraint_kind]
    doc = _doc([{"id": "U", **_ENTITY_DOCS[kind_a]}, {"id": "V", **_ENTITY_DOCS[kind_b]}],
               [constraint])
    text = json.dumps(doc)
    if (constraint_kind, kind_a, kind_b) in _ADMISSIBLE_KINDS:
        g = parse(text)
        assert [e.kind.value for e in g.entities] == [kind_a, kind_b]
        assert g.constraints[0].kind.value == constraint_kind
        assert parse(serialize(g)) == g
    else:
        with pytest.raises(KindMismatchError) as info:
            parse(text)
        assert str(info.value) == f"{constraint_kind} not admissible between {kind_a} and {kind_b}"
