import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from gcs2d import (
    BadValueError,
    DuplicateIdError,
    EntityKind,
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
    induced_subgraph,
    line,
    parse,
    point,
    serialize,
)
from gcs2d.graph import angle, tangency

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


class TestInducedSubgraph:
    def test_triangle_pair(self):
        g = pythagorean_triangle()
        sub = induced_subgraph(g, {"A", "B"})
        assert sub.n == 2
        assert sub.m == 1
        assert sub.constraints[0].between == ("A", "B")

    def test_identity(self):
        g = pythagorean_triangle()
        assert induced_subgraph(g, set(g.entity_ids)) == g

    def test_k4_triangle_slice(self):
        ids = ["A", "B", "C", "D"]
        g = build_graph(
            [point(v) for v in ids],
            [distance(a, b, 1.0) for i, a in enumerate(ids) for b in ids[i + 1 :]],
        )
        sub = induced_subgraph(g, {"A", "B", "C"})
        assert sub.m == 3  # direct enumeration of K4 edges inside {A,B,C}

    def test_unknown_id(self):
        with pytest.raises(UnknownEndpointError):
            induced_subgraph(pythagorean_triangle(), {"A", "Z"})


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

    def test_full_induced_subgraph_preserves_deficiency(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_mixed_graph(rng)
            assert deficiency(induced_subgraph(g, set(g.entity_ids))) == deficiency(g)


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
