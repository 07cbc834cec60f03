import gc
import json
import math
import random
import re
import sys
import threading
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import example, given, strategies as st

from gcs2d import (
    AlignCluster,
    BadBranchError,
    BadValueError,
    CircleRep,
    Constraint,
    ConstraintGraph,
    ConstraintKind,
    EmptyIntersectionError,
    Entity,
    GcsError,
    MissingPlacementError,
    Motion,
    ParseError,
    Point2,
    Solution,
    TriangleMerge,
    UnderDeterminedError,
    UnknownEndpointError,
    UnsupportedStepError,
    VerificationError,
    angle,
    build_graph,
    decompose,
    diagnose_pebble,
    distance,
    enumerate_solutions,
    execute,
    extract_plan,
    fixture,
    fixed_circle,
    fixture_names,
    free_circle,
    incidence,
    line,
    line_through_points,
    LineRep,
    parse,
    point,
    point_line_distance,
    random_laman,
    serialize,
    solution_from_dict,
    solution_to_dict,
    tangency,
    unsigned_line_angle,
    verify,
)

import gcs2d.graph
import gcs2d.solve as solve_module
from gcs2d.decompose import Plan, PlaceByTwoLoci
from gcs2d.geometry import EPS, circle_circle_roots

from support import (
    count_structural_work,
    grid_embedding,
    measured_graph,
    nested_triangles,
    placements_close,
    random_mixed_graph,
    recombination_chain,
    reference_congruence_signature,
    reference_is_generic,
    reference_walk,
    same_solutions,
    sample_embedding,
    solution_matches_sample,
    triangle_graph,
)


# The plans of the 3-4-5 triangle's three edges, one cluster each.
EDGES = tuple(Plan(i, i, (), frozenset({i})) for i in range(3))


def plan_for(g):
    return extract_plan(decompose(g), g)


def recombines(plan):
    return any(isinstance(step, (TriangleMerge, AlignCluster)) for step in plan.steps)


def count_evaluations(monkeypatch) -> Counter:
    """Count the runs of every step kernel compiled from now on, by the id
    of the plan step, so that every step evaluation is seen."""
    evaluations: Counter = Counter()
    compile_step = solve_module._compile_step

    def counted_compile_step(step, *args):
        kernel, *rest = compile_step(step, *args)

        def counted(*walked):
            evaluations[id(step)] += 1
            return kernel(*walked)

        return (counted, *rest)

    monkeypatch.setattr(solve_module, "_compile_step", counted_compile_step)
    return evaluations


class TestTriangle:
    def test_345_branch_zero(self):
        g = triangle_graph(3, 4, 5)
        sol = execute(plan_for(g), g, (0,))
        assert sol.placements["A"] == Point2(0.0, 0.0)
        assert sol.placements["B"] == Point2(3.0, 0.0)
        assert sol.placements["C"].close_to(Point2(0.0, 4.0), 1e-12)

    def test_345_branch_one_is_mirror(self):
        g = triangle_graph(3, 4, 5)
        sol = execute(plan_for(g), g, (1,))
        assert sol.placements["C"].close_to(Point2(0.0, -4.0), 1e-12)

    def test_exactly_two_solutions(self):
        g = triangle_graph(3, 4, 5)
        found = enumerate_solutions(plan_for(g), g)
        assert [sel for sel, _ in found] == [(0,), (1,)]

    def test_solutions_are_reflections_across_base(self):
        g = triangle_graph(3, 4, 5)
        found = enumerate_solutions(plan_for(g), g)
        mirror = Motion(reflect=True, rotation=0.0, translation=(0.0, 0.0))
        first, second = found[0][1], found[1][1]
        for name, placement in first.placements.items():
            assert mirror.apply(placement).close_to(second.placements[name], 1e-9)

    def test_violating_triangle_inequality_is_empty(self):
        g = triangle_graph(1, 1, 3)
        with pytest.raises(EmptyIntersectionError):
            enumerate_solutions(plan_for(g), g)

    def test_collinear_triangle_single_degenerate_solution(self):
        g = fixture("degenerate-triangle")
        found = enumerate_solutions(plan_for(g), g)
        assert len(found) == 1
        sol = found[0][1]
        assert sol.degenerate
        assert sol.degenerate_steps == (0,)

    def test_bad_branch_index(self):
        g = triangle_graph(3, 4, 5)
        with pytest.raises(BadBranchError):
            execute(plan_for(g), g, (5,))

    def test_selector_longer_than_branching_steps(self):
        g = triangle_graph(3, 4, 5)
        with pytest.raises(BadBranchError):
            execute(plan_for(g), g, (0, 1))

    @pytest.mark.parametrize("walk", [solve_module._walk, reference_walk],
                             ids=["walker", "reference"])
    @pytest.mark.parametrize("entry", [1.0, "1", True, None])
    def test_selector_entry_that_is_not_an_integer(self, monkeypatch, walk, entry):
        # A float or a string used to escape as TypeError, and True to come
        # back as a branch, which solution_to_dict wrote as JSON true.
        monkeypatch.setattr(solve_module, "_walk", walk)
        g = triangle_graph(3, 4, 5)
        with pytest.raises(BadBranchError, match=rf"^branch {entry!r} is not an integer$"):
            execute(plan_for(g), g, (entry,))

    def test_gauge_is_bit_identical_across_runs(self):
        g = triangle_graph(3, 4, 5)
        a = execute(plan_for(g), g, (0,))
        b = execute(plan_for(g), g, (0,))
        assert a.placements["A"] == b.placements["A"]
        assert a.placements["B"] == b.placements["B"]


class TestFailureModes:
    def test_three_angle_triangle_under_determined(self):
        g = fixture("three-angle-triangle")
        with pytest.raises(UnderDeterminedError) as err:
            execute(plan_for(g), g)
        assert err.value.entity == "L3"

    def test_duplicate_anchor_distances_leave_target_free(self):
        g = build_graph(
            [point("A"), point("B"), point("C")],
            [
                distance("A", "B", 1.0),
                distance("A", "C", 2.0),
                distance("A", "C", 2.0),
            ],
        )
        # Structurally over-constrained on {A,C}; drive the executor directly
        # to check coincident loci are reported as under-determination.
        from gcs2d.decompose import Plan, PlaceByTwoLoci

        plan = Plan(0, 0, (PlaceByTwoLoci("C", (1, 2)),))
        with pytest.raises(UnderDeterminedError):
            execute(plan, g)

    @staticmethod
    def align_onto(ab):
        """Execute a hand-built plan that places A, B at distance ``ab`` and
        aligns onto them the triangle ABC solved with |AB| = 1."""
        from gcs2d.decompose import Plan, PlaceByTwoLoci

        g = build_graph(
            [point("A"), point("B"), point("C")],
            [distance("A", "B", ab), distance("A", "B", 1.0),
             distance("A", "C", 1.0), distance("B", "C", 1.0)],
        )
        triangle = Plan(1, 1, (PlaceByTwoLoci("C", (2, 3)),), frozenset({1, 2, 3}))
        execute(Plan(0, 0, (AlignCluster(4, ("A", "B"), triangle),)), g)

    def test_alignment_length_mismatch_is_an_empty_intersection(self):
        with pytest.raises(EmptyIntersectionError, match="segment lengths differ"):
            self.align_onto(0.5)

    def test_alignment_onto_coincident_pair_is_under_determined(self):
        with pytest.raises(UnderDeterminedError) as err:
            self.align_onto(1e-10)
        assert err.value.entity == "C"

    def test_coincident_virtual_circles_are_under_determined(self):
        from gcs2d.decompose import Plan

        g = build_graph(
            [point("A"), point("B"), point("C")],
            [distance("A", "B", 1e-10), distance("C", "A", 1.0), distance("B", "C", 1.0)],
        )
        edges = tuple(Plan(i, i, (), frozenset({i})) for i in range(3))
        merge = TriangleMerge(("A", "B", "C"), (0, 1, 2), edges[1:])
        with pytest.raises(UnderDeterminedError) as err:
            execute(Plan(0, 0, (merge,)), g)
        assert err.value.entity == "C"

    def test_a_line_through_coincident_points_is_under_determined(self):
        # P and Q are both 1.5 from A and from B, so on mixed roots they
        # coincide and leave L free.
        g = build_graph(
            [point("A"), point("B"), point("P"), point("Q"), line("L")],
            [distance("A", "B", 2.0), distance("A", "P", 1.5), distance("B", "P", 1.5),
             distance("A", "Q", 1.5), distance("B", "Q", 1.5), incidence("P", "L"),
             incidence("Q", "L")],
        )
        plan = plan_for(g)
        assert [type(s).__name__ for s in plan.steps] == ["PlaceByTwoLoci"] * 3
        assert [selector for selector, _ in enumerate_solutions(plan, g)] == [(0, 1), (1, 0)]
        with pytest.raises(UnderDeterminedError, match="both incident points coincide") as err:
            execute(plan, g, (0, 0))
        assert err.value.entity == "L"

    @pytest.mark.parametrize("walk, shared, cluster, error", [
        pytest.param(walk, *case, id=name + suffix)
        for walk, suffix in ((solve_module._walk, ""), (reference_walk, "-reference"))
        for name, case in {
            # The cluster's plan places A and D, not C.
            "unplaced": (("A", "C"), (5, frozenset({5, 6})),
                         (MissingPlacementError, "entity 'C' has no placement")),
            # It places L, as a line.
            "not a point": (("A", "L"), (3, frozenset({3, 5})),
                            (UnsupportedStepError, "entity 'L' is not placed as a point")),
        }.items()
    ])
    def test_an_alignment_refuses_a_shared_entity_its_cluster_lacks(self, monkeypatch, walk,
                                                                     shared, cluster, error):
        # The reference checks the shared pair where compiling does: before
        # an owned endpoint the cluster lacks (D), also under the leaf
        # check that enumeration runs.
        from gcs2d.decompose import Plan, PlaceByTwoLoci

        monkeypatch.setattr(solve_module, "_walk", walk)

        g = build_graph(
            [point("A"), point("B"), point("C"), point("D"), line("L")],
            [distance("A", "B", 1.0), distance("A", "C", 1.0), distance("B", "C", 1.0),
             incidence("A", "L"), incidence("B", "L"), distance("A", "D", 1.0),
             distance("C", "D", 1.0)],
        )
        base, owned = cluster
        align = AlignCluster(7, shared, Plan(base, base, (), owned))  # D is left to place
        plan = Plan(0, 0, (PlaceByTwoLoci("C", (1, 2)), PlaceByTwoLoci("L", (3, 4)), align))
        with pytest.raises(error[0], match=error[1]):
            execute(plan, g)
        with pytest.raises(error[0], match=error[1]):
            enumerate_solutions(plan, g)

    @pytest.mark.parametrize("plan, message", [
        pytest.param(Plan(0, 7, (PlaceByTwoLoci("C", (1, 2)),)), "plan names constraint 7",
                     id="base-past-the-end"),
        pytest.param(Plan(0, 0, (PlaceByTwoLoci("C", (1, 99)),)), "plan names constraint 99",
                     id="step-past-the-end"),
        pytest.param(Plan(0, 0, (PlaceByTwoLoci("C", (-1, 1)),)), "plan names constraint -1",
                     id="step-negative"),
        pytest.param(Plan(0, 0, (PlaceByTwoLoci("C", (True, 2)),)), "plan names constraint True",
                     id="step-bool"),
        pytest.param(Plan(0, 0, (PlaceByTwoLoci("C", (1,)),)), "two loci need two constraints",
                     id="step-one-locus"),
    ])
    def test_a_constraint_the_graph_cannot_give_is_refused(self, monkeypatch, plan, message):
        # Neither read as another constraint nor escaping as an IndexError
        # or ValueError.
        g = fixture("triangle")
        evaluations = count_evaluations(monkeypatch)
        for run in (lambda: execute(plan, g), lambda: enumerate_solutions(plan, g)):
            with pytest.raises(UnsupportedStepError, match=f"^{message}"):
                run()
        assert bool(evaluations) is (plan.base_constraint == 0)  # a bad base before any walk

    def test_merge_with_a_base_plan_is_refused(self):
        g = triangle_graph(3, 4, 5)
        merge = TriangleMerge(("A", "B", "C"), (0, 1, 2), EDGES)  # base, first, second
        with pytest.raises(UnsupportedStepError,
                           match="^triangle merge needs 3 points, 3 clusters and 2 plans,"
                                 " got 3, 3 and 3$"):
            execute(Plan(0, 0, (merge,)), g)

    @pytest.mark.parametrize("walk", [solve_module._walk, reference_walk],
                             ids=["walker", "reference"])
    @pytest.mark.parametrize("step, got", [
        (TriangleMerge(("A", "C"), (0, 1, 2), EDGES[1:]), "2, 3 and 2"),
        (TriangleMerge(("A", "B", "C", "A"), (0, 1, 2), EDGES[1:]), "4, 3 and 2"),
        (TriangleMerge(("A", "B", "C"), (0, 1), EDGES[1:]), "3, 2 and 2"),
        (TriangleMerge(("A", "B", "C"), (0, 1, 2, 0), EDGES[1:]), "3, 4 and 2"),
        (TriangleMerge(("A", "B", "C"), (0, 1, 2), EDGES[1:2]), "3, 3 and 1"),
        (AlignCluster(1, ("A",), EDGES[1]), "('A',)"),
        (AlignCluster(1, ("A", "B", "C"), EDGES[1]), "('A', 'B', 'C')"),
    ], ids=["two-points", "four-points", "two-clusters", "four-clusters", "one-plan",
            "one-shared", "three-shared"])
    def test_a_recombination_of_another_shape_is_refused(self, monkeypatch, walk, step, got):
        # Each once escaped as a bare ValueError from unpacking or zip().
        monkeypatch.setattr(solve_module, "_walk", walk)
        g = triangle_graph(3, 4, 5)
        plan = Plan(0, 0, (step,))
        shape = ("triangle merge needs 3 points, 3 clusters and 2 plans"
                 if isinstance(step, TriangleMerge) else "alignment needs 2 shared points")
        for run in (lambda: execute(plan, g), lambda: enumerate_solutions(plan, g)):
            with pytest.raises(UnsupportedStepError, match=f"^{re.escape(f'{shape}, got {got}')}$"):
                run()


    @pytest.mark.parametrize("step, message", [
        (TriangleMerge(None, (0, 1, 2), EDGES[1:]),
         "TriangleMerge points must be of type tuple or list, got None"),
        (AlignCluster(1, None, EDGES[1]), "AlignCluster shared must be of type tuple or list, got None"),
        (TriangleMerge(("A", "B", "C"), (0, 1, 2), (None, None)),
         "a recombined cluster needs an int id and a Plan, got 1 and a NoneType"),
        (PlaceByTwoLoci("C", None), "PlaceByTwoLoci constraints must be of type tuple or list, got None"),
        (PlaceByTwoLoci(["C"], (1, 2)), "PlaceByTwoLoci target must be of type str, got ['C']"),
    ], ids=["merge-points", "align-shared", "merge-plans", "place-constraints", "place-target"])
    def test_a_step_field_of_the_wrong_type_is_refused(self, step, message):
        # Each once escaped as a bare TypeError or AttributeError.
        g = triangle_graph(3, 4, 5)
        plan = Plan(0, 0, (step,))
        for run in (lambda: execute(plan, g), lambda: enumerate_solutions(plan, g)):
            with pytest.raises(UnsupportedStepError, match=f"^{re.escape(message)}$"):
                run()


class TestMoserSpindle:
    def test_eight_verified_solutions(self):
        g = fixture("moser-spindle")
        found = enumerate_solutions(plan_for(g), g)
        assert len(found) == 8
        for _, sol in found:
            assert verify(g, sol).max_abs <= 1e-9

    def test_unit_embedding(self):
        g = fixture("moser-spindle")
        sol = enumerate_solutions(plan_for(g), g)[0][1]
        for c in g.constraints:
            a, b = c.between
            assert sol.placements[a].distance_to(sol.placements[b]) == pytest.approx(1.0, abs=1e-9)

    def test_reflection_closure(self):
        g = fixture("moser-spindle")
        sol = enumerate_solutions(plan_for(g), g)[0][1]
        mirror = Motion(reflect=True, rotation=0.0, translation=(0.0, 0.0))
        reflected = Solution(
            {name: mirror.apply(p) for name, p in sol.placements.items()}, (), ()
        )
        assert verify(g, reflected).max_abs <= 1e-9

    def test_branches_replay_to_the_same_solution(self):
        g = fixture("moser-spindle")
        plan = plan_for(g)
        for sel, sol in enumerate_solutions(plan, g):
            again = execute(plan, g, sel)
            assert again == sol

    def test_enumeration_is_deterministic(self):
        g = fixture("moser-spindle")
        plan = plan_for(g)
        assert enumerate_solutions(plan, g) == enumerate_solutions(plan, g)

    def test_limit_truncates(self):
        g = fixture("moser-spindle")
        found = enumerate_solutions(plan_for(g), g, limit=3)
        assert len(found) == 3


class TestQuadAngleAux:
    def test_solves_with_parallel_auxiliary_segment(self):
        g = fixture("quad-angle-aux")
        found = enumerate_solutions(plan_for(g), g, limit=32)
        assert found
        beta = math.pi / 3.0
        witnessed = False
        for _, sol in found:
            assert verify(g, sol).max_abs <= 1e-9
            cb = line_through_points(sol.placements["C"], sol.placements["B"])
            if abs(unsigned_line_angle(sol.placements["LAD"], cb) - beta) <= 1e-9:
                witnessed = True
        assert witnessed  # the auxiliary segment AE runs parallel to CB


class TestForwardSimulation:
    @pytest.mark.parametrize("name", ["triangle", "moser-spindle", "quad-angle-aux"])
    def test_round_trip_recovers_sampled_embedding(self, name):
        rng = random.Random(hash(name) % 10**6)
        g = fixture(name)
        sample = sample_embedding(g, rng)
        measured = measured_graph(g, sample)
        plan = plan_for(measured)
        found = enumerate_solutions(plan, measured, limit=64, tol=1e-9)
        for _, sol in found:
            assert verify(measured, sol).max_abs <= 1e-9
        base = measured.constraints[plan.base_constraint].between
        assert solution_matches_sample(measured, base, sample, found, tol=1e-7)


class TestOtherLoci:
    def test_point_line_distance_gives_four_roots(self):
        from gcs2d import incidence, point_line_distance
        from gcs2d.graph import line as line_entity

        g = build_graph(
            [line_entity("L"), point("A"), point("P")],
            [
                incidence("A", "L"),
                point_line_distance("P", "L", 1.0),
                distance("A", "P", 2.0),
            ],
        )
        found = enumerate_solutions(plan_for(g), g)
        assert len(found) == 4  # two offset lines, two circle roots each
        for _, sol in found:
            assert verify(g, sol).max_abs <= 1e-9
            assert abs(abs(sol.placements["P"].y) - 1.0) <= 1e-9

    def test_zero_offset_puts_point_on_the_line(self):
        from gcs2d import incidence, point_line_distance
        from gcs2d.graph import line as line_entity

        g = build_graph(
            [line_entity("L"), point("A"), point("P")],
            [
                incidence("A", "L"),
                point_line_distance("P", "L", 0.0),
                distance("A", "P", 2.0),
            ],
        )
        found = enumerate_solutions(plan_for(g), g)
        assert len(found) == 2
        for _, sol in found:
            assert abs(sol.placements["P"].y) <= 1e-9

    def test_point_on_fixed_circle(self):
        from gcs2d import incidence
        from gcs2d.graph import fixed_circle

        g = build_graph(
            [fixed_circle("K", 2.0), point("P"), point("Q")],
            [incidence("P", "K"), incidence("Q", "K"), distance("P", "Q", 2.0)],
        )
        found = enumerate_solutions(plan_for(g), g)
        assert len(found) == 2
        for _, sol in found:
            assert verify(g, sol).max_abs <= 1e-9
            center = sol.placements["K"].center
            assert sol.placements["Q"].distance_to(center) == pytest.approx(2.0, abs=1e-9)


class TestVerify:
    def test_exact_solution_passes(self):
        g = triangle_graph(3, 4, 5)
        sol = execute(plan_for(g), g)
        report = verify(g, sol, tol=1e-9)
        assert report.passed
        assert report.max_abs <= 1e-9

    def test_perturbation_fails_with_expected_residual(self):
        g = triangle_graph(3, 4, 5)
        sol = execute(plan_for(g), g, (0,))
        moved = dict(sol.placements)
        moved["C"] = Point2(moved["C"].x, moved["C"].y + 0.1)
        report = verify(g, Solution(moved, (), ()), tol=1e-9)
        assert not report.passed
        # |AC'| = 4.1 exactly: C moved radially away from A along the y axis.
        assert report.residuals[1] == pytest.approx(0.1, abs=1e-12)

    def test_missing_placement(self):
        g = triangle_graph(3, 4, 5)
        sol = execute(plan_for(g), g)
        partial = {k: v for k, v in sol.placements.items() if k != "C"}
        with pytest.raises(MissingPlacementError):
            verify(g, Solution(partial, (), ()))

    def test_unknown_placement(self):
        g = triangle_graph(3, 4, 5)
        sol = execute(plan_for(g), g)
        extra = {**sol.placements, "GHOST": Point2(50.0, 50.0)}
        with pytest.raises(UnknownEndpointError, match="GHOST"):
            verify(g, Solution(extra, (), ()))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_residual_fails_every_tolerance(self, value):
        # C's residuals come after the finite one of AB, where max() would drop a NaN.
        g = triangle_graph(3, 4, 5)
        placements = {"A": Point2(0.0, 0.0), "B": Point2(3.0, 0.0), "C": Point2(value, value)}
        report = verify(g, Solution(placements, ()), tol=math.inf)
        assert math.isnan(report.max_abs)
        assert not report.passed
        # A walker frame's measure of the constraints its step owns keeps the
        # NaN too: here C's residual comes before the finite one of AB.
        owns = [("distance", 0, 2, 1), ("distance", 0, 1, 0)]
        placed = [placements["A"], placements["B"], placements["C"]]
        values = [c.value for c in g.constraints]
        assert math.isnan(solve_module._owned_worst(owns, placed, values))


class TestRandomRigidGraphs:
    def test_fully_reducible_graphs_solve_or_fail_honestly(self):
        # Unit placeholder distances occasionally coincide two anchors, which
        # genuinely leaves a vertex on a one-parameter circle; the executor
        # must report that rather than fabricate a placement.
        from gcs2d import EmptyIntersectionError, random_laman
        from gcs2d.decompose import ReducibilityClass

        rng = random.Random(77)
        solved = 0
        for _ in range(120):
            g = random_laman(rng.randint(3, 9), rng.randrange(10**9), rng.random())
            result = decompose(g)
            if result.reducibility is not ReducibilityClass.FULLY_REDUCIBLE:
                continue
            plan = extract_plan(result, g)
            try:
                found = enumerate_solutions(plan, g, limit=64)
            except (UnderDeterminedError, EmptyIntersectionError):
                continue
            assert found
            for _, sol in found:
                assert verify(g, sol).max_abs <= 1e-9
            solved += 1
        assert solved >= 100


class TestPlanReuse:
    """Plans hold no values: a plan extracted from one valuation of a graph
    solves every other valuation exactly as that valuation's own plan does."""

    @staticmethod
    def revalued_pairs():
        rng = random.Random(31)
        spindle = fixture("moser-spindle")
        pairs = [(spindle, measured_graph(spindle, sample_embedding(spindle, rng)))]
        while len(pairs) < 5:
            g = random_laman(rng.randint(6, 11), rng.randrange(10**6), 0.5)
            try:
                plan = plan_for(g)
            except GcsError:
                continue
            if any(isinstance(s, (TriangleMerge, AlignCluster)) for s in plan.steps):
                pairs.append(tuple(measured_graph(g, sample_embedding(g, rng)) for _ in "ab"))
        return pairs

    def test_one_plan_serves_new_values(self):
        for g, g2 in self.revalued_pairs():
            plan, own = plan_for(g), plan_for(g2)
            assert plan == own
            found = enumerate_solutions(plan, g2)
            assert found == enumerate_solutions(own, g2)
            for selector, sol in found:
                assert execute(plan, g2, selector) == sol

    @staticmethod
    def structural_outcomes(g):
        """What the three structural layers return on ``g``, or the type and
        message of the error each raises.  Nothing analysed before is
        reused: a copy would otherwise get the kept results of ``g``."""
        gcs2d.graph._structure_results.cache_clear()
        out = []
        for layer in (diagnose_pebble, decompose, plan_for):
            try:
                out.append(layer(g))
            except GcsError as exc:
                out.append((type(exc), str(exc)))
        return out

    @staticmethod
    def with_values(g, value, radius):
        """``g`` with each constraint value replaced by ``value(constraint)``
        and each fixed radius ``r`` by ``radius(r)``."""
        return build_graph(
            [Entity(e.id, e.kind, None if e.radius is None else radius(e.radius))
             for e in g.entities],
            [Constraint(c.kind, c.between, None if c.value is None else value(c))
             for c in g.constraints])

    def test_structural_layers_read_no_values(self):
        # Diagnosis, decomposition and plan (or the error each raises) are
        # the same for every valuation of a structure, so one analysis may
        # serve them all.
        rng = random.Random(37)
        graphs = [fixture(name) for name in fixture_names()]
        while len(graphs) < 24:
            g = random_laman(rng.randint(4, 14), rng.randrange(10**6), rng.random())
            graphs.append(measured_graph(g, grid_embedding(g, rng)))

        def fresh(c):
            if c.kind is ConstraintKind.ANGLE:
                return rng.uniform(0.1, math.pi - 0.1)
            return rng.uniform(0.5, 3.0)

        def scaled(factor):
            return lambda c: c.value if c.kind is ConstraintKind.ANGLE else c.value * factor

        for g in graphs:
            expected = self.structural_outcomes(g)
            copies = [self.with_values(g, fresh, lambda r: rng.uniform(0.5, 3.0))]
            copies += [self.with_values(g, scaled(f), lambda r, f=f: r * f) for f in (1e-10, 1e10)]
            for copy in copies:
                assert self.structural_outcomes(copy) == expected

    def test_threads_get_their_own_structures_results(self):
        # Threads that analyse graphs of two structures at once, with the
        # same entity ids, each get their own structure's diagnosis,
        # decomposition and plan (a plan for one, NotReducibleError for the
        # other), never the other's, though the structure analysed last
        # changes under them all the time.
        structures = [random_laman(9, seed, 0.5) for seed in (3, 4)]
        expected = [self.structural_outcomes(g) for g in structures]
        assert expected[0] != expected[1]
        start, wrong = threading.Barrier(4, timeout=60), []

        def outcomes(g):
            out = []
            for layer in (diagnose_pebble, decompose, plan_for):
                try:
                    out.append(layer(g))
                except GcsError as exc:
                    out.append((type(exc), str(exc)))
            return out

        def analyse(first):
            start.wait()
            for i in range(300):
                s = (first + i) % 2
                try:
                    got = outcomes(ConstraintGraph(*structures[s]))  # nothing kept on it yet
                except Exception as exc:  # a thread's error would not fail the test
                    got = exc
                if got != expected[s]:
                    wrong.append((first, i, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter lets
        try:
            threads = [threading.Thread(target=analyse, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong


@st.composite
def circle_pairs(draw):
    """Two circles, a center and a radius each: crossing or apart, tangent
    within about EPS outside or inside, concentric, coincident, with a
    radius no circle has, and with lengths past 1e150."""
    coord, radius = st.floats(-10.0, 10.0), st.floats(1e-3, 20.0)
    jitter = draw(st.floats(-2 * EPS, 2 * EPS))
    turn = draw(st.floats(0.0, 2 * math.pi))
    x1, y1, ra, rb = draw(coord), draw(coord), draw(radius), draw(radius)
    shape = draw(st.sampled_from(["any", "outer", "inner", "concentric", "coincident"]))
    if shape == "any":
        x2, y2 = draw(coord), draw(coord)
    else:
        d = {"outer": ra + rb, "inner": abs(ra - rb)}.get(shape, 0.0) + jitter
        x2, y2 = x1 + d * math.cos(turn), y1 + d * math.sin(turn)
        if shape == "coincident":
            rb = ra + draw(st.floats(-2 * EPS, 2 * EPS))
    bad = st.sampled_from([0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])
    if draw(st.integers(0, 5)) == 0:
        ra = draw(bad)
    if draw(st.integers(0, 5)) == 0:
        rb = draw(bad)
    scale = draw(st.sampled_from([1.0, 1.0, 1e151, 1e160, 1e300]))
    return (Point2(x1 * scale, y1 * scale), ra * scale, Point2(x2 * scale, y2 * scale), rb * scale)


class TestTwoDistanceFastPath:
    """A point at two distances is placed from coordinates
    (``_circle_roots``), not through the loci of the general point step
    (``_point_loci``, ``_intersect_loci`` and ``_loci_roots``' dedupe and
    order); the two must agree on every input."""

    @staticmethod
    def outcome(place, *args):
        try:
            roots, tangent = place(*args)
        except GcsError as exc:
            return type(exc), str(exc)
        assert all(type(p) is Point2 for (p,) in roots)
        return repr(roots), tangent

    # Near-tangent pairs, inside and outside, at lengths 1e5 to 1e11, whose
    # roots rounding brings within EPS although no gap is within EPS: the
    # two-distance step merges them as the general one does.  The strategy
    # draws such a pair only by chance.
    @example((Point2(-816360.0645591769, -288461.0872117217), 1621579.0050815158,
              Point2(-655553.7879893158, -1891649.1563205896), 10346.357846089764))
    @example((Point2(47744.36732028278, -445509.6625920387), 1165354.1125952727,
              Point2(-282489.9888774695, -1573237.2580446796), 9730.67564715914))
    @example((Point2(-13809286593.477505, -40566197233.17434), 186431150724.44534,
              Point2(-114529819336.51138, 91370974356.88327), 20443069937.827248))
    @given(circle_pairs())
    def test_the_same_roots_in_the_same_order_and_the_same_errors(self, pair):
        p, ra, q, rb = pair
        fast = self.outcome(solve_module._circle_roots, "T", p, ra, q, rb)
        general = self.outcome(
            lambda: solve_module._loci_roots("T", solve_module._point_loci("distance", p, ra),
                                             solve_module._point_loci("distance", q, rb)))
        assert fast == general

    @pytest.mark.parametrize("p, ra, q, rb", [
        # Mirrored across the horizontal line through their centroid, then
        # the vertical one, each with the centers either way round.
        (Point2(-1.0, 2.0), 3.0, Point2(3.0, 2.0), 2.5),
        (Point2(3.0, 2.0), 2.5, Point2(-1.0, 2.0), 3.0),
        (Point2(1.5, -4.0), 3.0, Point2(1.5, 0.5), 2.0),
        (Point2(1.5, 0.5), 2.0, Point2(1.5, -4.0), 3.0),
        # Near-tangent: the roots lie 2e-4 apart.
        (Point2(0.0, 0.0), 1.0, Point2(math.cos(1.0) * 2, math.sin(1.0) * 2), 1.0 + 1e-8),
        # Centers past 1e308 apart from the origin, where the centroid's x
        # is inf: both roots lie at angle pi, and their coordinates decide.
        (Point2(1.5e308, 1e307), 1e307, Point2(1.5e308, 0.0), 1e307),
        (Point2(1.5e308, 0.0), 1e307, Point2(1.5e308, 1e307), 1e307),
    ])
    def test_two_roots_come_by_angle_then_coordinates(self, p, ra, q, rb):
        raw, tangent = circle_circle_roots(p.x, p.y, ra, q.x, q.y, rb)
        assert not tangent
        (x1, y1), (x2, y2) = raw
        cx, cy = (0.0 + x1 + x2) / 2, (0.0 + y1 + y2) / 2
        expected = sorted(raw, key=lambda r: (math.atan2(r[1] - cy, r[0] - cx) % (2 * math.pi),
                                              *r))
        roots, tangent = solve_module._circle_roots("T", p, ra, q, rb)
        assert [tuple(root) for (root,) in roots] == expected
        assert not tangent


class TestWalkerEquivalence:
    """Backjumping and compiled step kernels change which subtrees the walker
    visits and how a step is evaluated, never what it returns: selectors,
    placements, degenerate steps and errors equal those of the chronological
    reference walker, which resolves every step afresh, for enumeration and
    for replays.  A plan that recombines clusters is walked through its
    clusters' own steps, where the reference glues each cluster's
    conformations under both motions, so there the selectors are the
    walker's own: the solutions match up to order, a failure matches by
    type, and each selector replays its own solution."""

    @staticmethod
    def outcomes(plan, g, tol):
        def run(call):
            try:
                found = call()
            except GcsError as exc:
                return type(exc), str(exc)
            if isinstance(found, Solution):
                return found.branches, repr(found.placements), found.degenerate_steps
            return [(sel, repr(sol.placements), sol.degenerate_steps) for sel, sol in found]

        out = [run(lambda: enumerate_solutions(plan, g, limit, tol)) for limit in (1, 16, 64)]
        found = [sel for sel, _, _ in out[-1]] if isinstance(out[-1], list) else []
        too_long = (found[0] if found else ()) + (0,) * (len(plan.steps) + 1)
        for selector in [(), *found, (7,), too_long]:
            out.append(run(lambda: execute(plan, g, selector)))
        return out

    @staticmethod
    def every_solution(plan, g, tol):
        try:
            return enumerate_solutions(plan, g, 10**6, tol)
        except GcsError as exc:
            return type(exc), str(exc)

    def assert_same(self, monkeypatch, g, plan=None, tol=solve_module.DEFAULT_TOL):
        """Compare on ``plan``, by default the graph's own, enumerating at
        ``tol``; returns the outcomes (for a plan that recombines, every
        solution or the error), or None for a graph without a plan."""
        if plan is None:
            try:
                plan = plan_for(g)
            except GcsError:
                return None
        outcomes = self.every_solution if recombines(plan) else self.outcomes
        walked = outcomes(plan, g, tol)
        with monkeypatch.context() as patch:
            patch.setattr(solve_module, "_walk", reference_walk)
            expected = outcomes(plan, g, tol)
        if not recombines(plan):
            assert walked == expected
        elif isinstance(walked, tuple):
            assert isinstance(expected, tuple) and walked[0] is expected[0], (walked, expected)
        else:
            assert isinstance(expected, list) and same_solutions(walked, expected)
            for selector, sol in walked:
                assert execute(plan, g, selector) == sol
        return walked

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixtures(self, monkeypatch, name):
        self.assert_same(monkeypatch, fixture(name))

    def test_measured_random_laman(self, monkeypatch):
        rng = random.Random(4242)
        planned = 0
        for n in range(4, 15):
            for _ in range(8):
                g = random_laman(n, rng.randrange(10**6), rng.random())
                g = measured_graph(g, grid_embedding(g, rng))
                planned += self.assert_same(monkeypatch, g) is not None
        assert planned >= 50

    @pytest.mark.parametrize("tol", [0.0, 1e-15])
    def test_residual_failures(self, monkeypatch, tol):
        # At these tolerances float error fails some or every leaf, so the
        # reported worst residual and the first failure are compared too.
        rng = random.Random(1)
        graphs = [fixture(name) for name in fixture_names()]
        for n in range(4, 14):
            for _ in range(8):
                g = random_laman(n, rng.randrange(10**6), 0.5)
                graphs.append(measured_graph(g, grid_embedding(g, rng)))
        # Fully reducible graphs with one value 0.1% off: the step that owns
        # it breaks it on every path, and its dead ends jump back.
        for n in range(6, 11):
            for _ in range(4):
                g = random_laman(n, rng.randrange(10**6), 0.0)
                constraints = list(measured_graph(g, grid_embedding(g, rng)).constraints)
                k = rng.randrange(len(constraints))
                constraints[k] = constraints[k]._replace(value=constraints[k].value * 1.001)
                graphs.append(build_graph(g.entities, constraints))
        fail_all = fail_some = 0
        for g in graphs:
            walked = self.assert_same(monkeypatch, g, tol=tol)
            if walked is not None and not recombines(plan_for(g)):
                found, passed = walked[2], self.outcomes(plan_for(g), g, 1e-9)[2]
                fail_all += isinstance(found, tuple) and found[0] is VerificationError
                fail_some += isinstance(found, list) and len(found) < len(passed)
        assert fail_all >= 3 and fail_some >= 3

    @pytest.mark.parametrize("n", range(16, 21))
    def test_measured_henneberg_one_graphs(self, monkeypatch, n):
        # The benchmark's solve workload: fully reducible, every step a
        # two-distance placement, values measured from a grid embedding.
        rng = random.Random(n)
        for _ in range(2):
            g = random_laman(n, rng.randrange(10**6), 0.0)
            g = measured_graph(g, grid_embedding(g, rng))
            assert len(self.assert_same(monkeypatch, g)[2]) >= 1

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_a_residual_blames_the_step_that_places_its_other_endpoint(self, monkeypatch,
                                                                        side):
        # C hangs off A and P, D off A and B, and D's step owns C-D too.  On
        # the side of AP where C is not, no root of D meets C-D, so D's dead
        # ends must blame C's step, which D's kernel does not read; one of
        # the two sides comes first in C's root order.
        a, p = Point2(0.0, 0.0), Point2(1.0, 3.0)
        c = Point2(2.5, 3.5) if side > 0 else reflect_across(Point2(2.5, 3.5), a, p)
        placed = {"A": a, "B": Point2(4.0, 0.0), "P": p, "C": c, "D": Point2(2.0, -1.5)}
        pairs = ["AB", "AP", "BP", "AC", "PC", "AD", "BD", "CD"]
        g = build_graph([point(v) for v in "ABPCD"],
                        [distance(u, v, placed[u].distance_to(placed[v])) for u, v in pairs])
        plan = Plan(0, 0, (PlaceByTwoLoci("P", (1, 2)), PlaceByTwoLoci("C", (3, 4)),
                           PlaceByTwoLoci("D", (5, 6))))
        assert len(self.assert_same(monkeypatch, g, plan)[2]) == 2  # the sketch and its mirror

    def test_tangent_root(self, monkeypatch):
        walked = self.assert_same(monkeypatch, fixture("degenerate-triangle"))
        assert walked[0][0][2] == (0,)  # step 0 met a double root

    def test_two_roots_closer_than_a_thousandth_stay_two(self, monkeypatch):
        # The base places C at (0, 1 - 1e-8); P lies on the x axis at
        # distance 1 from it.  The general point step finds P's two roots
        # 2.8e-4 apart, far past EPS, and keeps both.
        g = build_graph([line("L"), point("C"), point("P")],
                        [point_line_distance("C", "L", 1.0 - 1e-8), incidence("P", "L"),
                         distance("C", "P", 1.0)])
        found = enumerate_solutions(plan_for(g), g)
        assert [sel for sel, _ in found] == [(0,), (1,)]
        p, q = (sol.placements["P"] for _, sol in found)
        assert p.distance_to(q) == pytest.approx(2 * math.sqrt(2e-8), rel=1e-6)  # 2.8e-4
        assert len(self.assert_same(monkeypatch, g)[2]) == 2

    def test_coincident_loci(self, monkeypatch):
        g = build_graph(
            [point("A"), point("B"), point("C")],
            [distance("A", "B", 1.0), distance("A", "C", 2.0), distance("A", "C", 2.0)],
        )
        walked = self.assert_same(monkeypatch, g, Plan(0, 0, (PlaceByTwoLoci("C", (1, 2)),)))
        assert walked[0] == (UnderDeterminedError, "coincident loci leave the target free")

    def test_a_second_constraint_on_the_base_pair(self, monkeypatch):
        # The base places A and B, so it owns the second AB distance, which
        # the base placement misses by 0.5 at every leaf.
        g = build_graph(
            [point("A"), point("B"), point("C")],
            [distance("A", "B", 1.0), distance("A", "B", 1.5), distance("A", "C", 1.0),
             distance("B", "C", 1.0)],
        )
        walked = self.assert_same(monkeypatch, g, Plan(0, 0, (PlaceByTwoLoci("C", (2, 3)),)))
        assert walked[0] == (VerificationError, "residual 0.5 exceeds 1e-09")

    def test_an_entity_no_step_places(self, monkeypatch):
        # D has constraints but no step: a replay leaves it out, while the
        # check at a leaf measures a constraint on it and fails.
        walked = self.assert_same(monkeypatch, cannot_close(),
                                  Plan(0, 0, (PlaceByTwoLoci("C", (1, 2)),)))
        assert walked[0] == (MissingPlacementError, "entity 'D' has no placement yet")
        assert walked[3][0] == (0,)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_a_distance_no_circle_has(self, monkeypatch, value):
        # Only a graph built past build_graph's checks holds such a value.
        # The two-distance kernel raises what the general one raises, after
        # checking the anchor before it: C is missing when D is placed.
        g = cannot_close()
        for bad, step, error in [(1, PlaceByTwoLoci("C", (1, 2)), BadValueError),
                                 (2, PlaceByTwoLoci("C", (1, 2)), BadValueError),
                                 (3, PlaceByTwoLoci("D", (3, 4)), MissingPlacementError)]:
            constraints = list(g.constraints)
            constraints[bad] = constraints[bad]._replace(value=value)
            unchecked = ConstraintGraph(g.entities, tuple(constraints))
            walked = self.assert_same(monkeypatch, unchecked, Plan(0, 0, (step,)))
            assert walked[0][0] is error

    @pytest.mark.parametrize("steps, error", [
        ((TriangleMerge(("A", "C", "B"), (0, 1, 2),
                        (Plan(1, 1, (), frozenset({1, 3})), Plan(2, 2, (), frozenset({2})))),),
         (UnsupportedStepError, "triangle merge expects exactly the third shared point unplaced")),
        ((AlignCluster(1, ("A", "D"), Plan(1, 1, (), frozenset({1, 3}))),),
         (MissingPlacementError, "entity 'D' has no placement yet")),
        # Nothing left to place: C's step places the merge's third point, and
        # the aligned cluster owns no constraint.
        ((PlaceByTwoLoci("C", (1, 2)),
          TriangleMerge(("A", "B", "C"), (0, 1, 2),
                        (Plan(1, 1, (), frozenset({1})), Plan(2, 2, (), frozenset({2}))))),
         (UnsupportedStepError, "triangle merge expects exactly the third shared point unplaced")),
        ((PlaceByTwoLoci("C", (1, 2)), AlignCluster(1, ("A", "C"), Plan(1, 1, (), frozenset()))),
         (UnsupportedStepError, "alignment of cluster 1 has nothing left to place")),
    ], ids=["merge", "alignment", "merge-nothing-left", "alignment-nothing-left"])
    def test_a_malformed_recombination_fails_with_its_own_fault(self, monkeypatch, steps, error):
        # Each step is malformed (C, not the third point B, is unplaced; no
        # step places D; C is placed before the step), and its fault ends the
        # walk before any leaf checks the cluster that holds both AC
        # distances, which no leaf satisfies.  Where C's step comes first,
        # the graph has one AC distance, so the walk reaches the step.
        g = build_graph(
            [point(v) for v in "ABCD"],
            [distance("A", "B", 1.0), distance("A", "C", 1.0), distance("B", "C", 1.0),
             distance("A", "C", 2.0), distance("C", "D", 1.0)],
        )
        if len(steps) > 1:
            g = build_graph(g.entities, g.constraints[:3] + g.constraints[4:])
        assert self.assert_same(monkeypatch, g, Plan(0, 0, steps)) == error

    @pytest.mark.parametrize("ab", [1e-12, 1.0])
    def test_an_alignment_whose_cluster_does_not_place_what_it_owns(self, monkeypatch, ab):
        # The aligned cluster owns A-E, but its plan places only A and B.
        # With a near-coincident local pair (AB 1e-12) the kernel once found
        # no unplaced entity to blame and failed with IndexError; with AB 1 a
        # replay left E out.  Compiling refuses the step, and the reference
        # refuses it once it has solved the cluster.
        g = build_graph(
            [point(v) for v in "ABCE"],
            [distance("A", "B", 1.0), distance("A", "B", ab), distance("A", "C", 1.0),
             distance("B", "C", 1.0), distance("A", "E", 1.0)],
        )
        plan = Plan(0, 0, (PlaceByTwoLoci("C", (2, 3)),
                           AlignCluster(5, ("A", "B"), Plan(1, 1, (), frozenset({1, 4})))))
        missing = (MissingPlacementError, "entity 'E' has no placement yet")
        assert self.assert_same(monkeypatch, g, plan) == missing
        for walk in (solve_module._walk, reference_walk):
            with monkeypatch.context() as patch:
                patch.setattr(solve_module, "_walk", walk)
                with pytest.raises(missing[0], match=f"^{missing[1]}$"):
                    execute(plan, g)

    @pytest.mark.parametrize("offset", [0.0, 1.0])
    def test_point_line_steps(self, monkeypatch, offset):
        g = build_graph(
            [line("L"), point("A"), point("P"), line("M")],
            [incidence("A", "L"), point_line_distance("P", "L", offset), distance("A", "P", 2.0),
             incidence("P", "M"), angle("L", "M", 1.0)],
        )
        plan = Plan(0, 0, (PlaceByTwoLoci("P", (1, 2)), PlaceByTwoLoci("M", (3, 4))))
        walked = self.assert_same(monkeypatch, g, plan)
        assert len(walked[2]) == (4 if offset else 2) * 2  # loci roots, then two lines each

    def test_point_on_fixed_circle(self, monkeypatch):
        g = build_graph(
            [fixed_circle("K", 2.0), point("P"), point("Q")],
            [incidence("P", "K"), incidence("Q", "K"), distance("P", "Q", 2.0)],
        )
        assert len(self.assert_same(monkeypatch, g)[2]) == 2

    @pytest.mark.parametrize("g", [
        # Tangency bases: circle-circle and line-circle, and their residuals.
        build_graph([fixed_circle("K1", 1.0), fixed_circle("K2", 2.0)], [tangency("K1", "K2")]),
        build_graph([line("L"), fixed_circle("K", 1.5)], [tangency("L", "K")]),
        # A line through two incident points; a point on two crossing lines.
        build_graph([point("A"), point("B"), line("L")],
                    [distance("A", "B", 2.0), incidence("A", "L"), incidence("B", "L")]),
        build_graph([line("L1"), line("L2"), point("P")],
                    [angle("L1", "L2", 1.0), incidence("P", "L1"), incidence("P", "L2")]),
    ])
    def test_tangency_bases_and_line_steps(self, monkeypatch, g):
        assert len(self.assert_same(monkeypatch, g)[2]) == 1
        [(_, sol)] = enumerate_solutions(plan_for(g), g)
        assert verify(g, sol).passed
        # Moving the entity placed last breaks a constraint on it.
        *kept, (last, placed) = sol.placements.items()
        shift = Motion(reflect=False, rotation=0.0, translation=(0.0, 0.5))
        moved = sol._replace(placements=dict(kept) | {last: shift.apply(placed)})
        assert verify(g, moved).max_abs >= 0.04

    def test_lengths_past_1e154(self, monkeypatch):
        # Squared lengths overflow, so the roots are found in units of the
        # largest length; the third point once landed at (nan, nan).
        walked = self.assert_same(monkeypatch, triangle_graph(1e300, 1e300, 1e300))
        assert [branches for branches, _, _ in walked[1]] == [(0,), (1,)]

    def test_malformed_steps_fail_when_reached(self, monkeypatch):
        # A broken step after or before a sound one: the walk fails with the
        # error that evaluating the steps in order meets first, although a
        # kernel resolves its constraints before the walk starts.
        g = build_graph(
            [point("A"), point("B"), point("C"), point("D"), fixed_circle("K", 1.0)],
            [distance("A", "B", 1.0), distance("A", "C", 1.0), distance("B", "C", 1.0),
             distance("C", "D", 1.0), distance("B", "D", 1.0), incidence("D", "K")],
        )
        place_c = PlaceByTwoLoci("C", (1, 2))
        for second in [PlaceByTwoLoci("D", (3, 1)), PlaceByTwoLoci("D", (5, 3)),
                       PlaceByTwoLoci("K", (5, 3)), PlaceByTwoLoci("E", (3, 4)), "not a step"]:
            for steps in [(place_c, second), (second, place_c)]:
                walked = self.assert_same(monkeypatch, g, Plan(0, 0, steps))
                assert isinstance(walked[0], tuple) and issubclass(walked[0][0], GcsError)
        # Constraints 6-9 join C to an entity the base (D and K) places, of a
        # shape their kind does not take: only a graph built past
        # build_graph's checks holds them.
        unchecked = ConstraintGraph(g.entities, g.constraints + (
            distance("C", "K", 1.0), incidence("C", "D"), point_line_distance("C", "K", 1.0),
            tangency("C", "D")))
        for ci in range(6, 10):
            walked = self.assert_same(monkeypatch, unchecked,
                                      Plan(0, 5, (PlaceByTwoLoci("C", (3, ci)),)))
            assert walked[0][0] is UnsupportedStepError

    def test_malformed_merges_fail_when_reached(self, monkeypatch):
        # A merge's third point must be a point its second and first
        # clusters both place: one places L, a line; the other never places C.
        g = build_graph(
            [point("A"), point("B"), point("C"), line("L")],
            [distance("A", "B", 1.0), distance("A", "C", 1.0), distance("B", "C", 1.0),
             incidence("A", "L"), incidence("B", "L")],
        )
        first, second = (Plan(i, i, (), frozenset({i})) for i in (3, 4))
        for third, error in [("L", UnsupportedStepError), ("C", MissingPlacementError)]:
            merge = TriangleMerge(("A", "B", third), (0, 1, 2), (first, second))
            walked = self.assert_same(monkeypatch, g, Plan(0, 0, (merge,)))
            assert walked[0] is error

    def test_random_mixed_graphs(self, monkeypatch):
        rng = random.Random(9)
        # Few random mixed graphs are fully reducible; 3000 give a handful.
        planned = sum(self.assert_same(monkeypatch, random_mixed_graph(rng)) is not None
                      for _ in range(3000))
        assert planned >= 5

    def test_recombination_plans(self, monkeypatch):
        for pair in TestPlanReuse.revalued_pairs():
            for g in pair:
                assert self.assert_same(monkeypatch, g) is not None

    @pytest.mark.parametrize("kind", ["line", "circle"])
    def test_recombination_over_a_cluster_with_a(self, monkeypatch, kind):
        g, sample = recombination_over(kind)
        plan = plan_for(g)
        assert Counter(type(s) for s in plan.steps) == {
            PlaceByTwoLoci: 2, TriangleMerge: 1, AlignCluster: 2}
        walked = self.assert_same(monkeypatch, g)
        assert len(walked) == 64
        assert solution_matches_sample(g, ("p", "q"), sample, walked)

    def test_every_cluster_leaf_within_tolerance_is_glued(self, monkeypatch):
        # The strip cluster's walk has 256 leaves; A-D fails the first 64,
        # all under D's wrong root, and 128 pass.  C's step keeps one of
        # each mirror pair, and both motions glue each of the 64 kept.
        g, plan = aligned_strip(random.Random(0))
        assert len(self.assert_same(monkeypatch, g, plan)) == 128

    def test_a_degenerate_cluster_leaf_is_glued_once(self, monkeypatch):
        # The cluster has a degenerate leaf (D on A) and a generic one, and
        # their mirror images: each gives one solution.
        g, plan = aligned_kite()
        walked = self.assert_same(monkeypatch, g, plan)
        on_a = [sol.placements["D"].close_to(sol.placements["A"]) for _, sol in walked]
        assert sorted(on_a) == [False, False, True, True]

    def test_dead_ends_jump_over_unrelated_steps(self, monkeypatch):
        # Chronological backtracking evaluates 678,069 steps on this graph.
        g = random_laman(40, 5, 0.0)
        g = measured_graph(g, grid_embedding(g, random.Random(0)))
        plan = plan_for(g)
        evaluations = count_evaluations(monkeypatch)
        assert len(enumerate_solutions(plan, g, limit=16)) == 16
        assert 0 < evaluations.total() < 10_000


class TestResidualRule:
    """With a tolerance, a root that breaks a constraint its step owns is a
    dead end where it is placed, and a leaf checks only the base's."""

    @staticmethod
    def solutions(plan, g, limit, tol):
        try:
            return enumerate_solutions(plan, g, limit, tol)
        except GcsError:
            return []

    @pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-15, 0.0])
    def test_pruning_removes_no_solution(self, tol):
        # The oracle takes the first 2000 leaves of a walk that prunes
        # nothing finite (math.inf) and checks them afterwards with verify.
        # The pruned walk must yield the passing ones, in order, and then
        # only leaves past that prefix.  All but the two recombination
        # graphs, which have at least 10**6 leaves, have fewer than 2000, so
        # there the oracle is the whole walk.
        rng = random.Random(7)
        graphs = [fixture(name) for name in fixture_names()]
        for n in range(4, 15):
            for _ in range(6):
                g = random_laman(n, rng.randrange(10**6), rng.random())
                graphs.append(measured_graph(g, grid_embedding(g, rng)))
        graphs += [nested_triangles(2), recombination_chain(5)]
        planned = fewer = 0
        for g in graphs:
            try:
                plan = plan_for(g)
            except GcsError:
                continue
            every = self.solutions(plan, g, 2000, math.inf)
            passing = [(sel, sol) for sel, sol in every if verify(g, sol, tol).passed]
            pruned = self.solutions(plan, g, len(passing) + 1, tol)
            assert pruned[:len(passing)] == passing
            assert not {sel for sel, _ in pruned[len(passing):]} & {sel for sel, _ in every}
            planned += 1
            fewer += len(passing) < len(every)
        assert planned >= 40
        if tol <= 1e-15:
            assert fewer >= 3

    @pytest.mark.parametrize("n", [20, 24, 28, 40])
    def test_a_walk_whose_roots_all_break_a_constraint_ends_early(self, monkeypatch, n):
        # At tol=0.0 float error breaks a constraint on the roots of the
        # first steps that branch, so no leaf below them is reached (a walk
        # checking only leaves visits every one: 11 s at n = 28).
        g = random_laman(n, 5, 0.0)
        g = measured_graph(g, grid_embedding(g, random.Random(0)))
        plan = plan_for(g)
        evaluations = count_evaluations(monkeypatch)
        with pytest.raises(VerificationError, match="^residual .* exceeds 0.0$"):
            enumerate_solutions(plan, g, 16, tol=0.0)
        assert 0 < evaluations.total() <= 4

    def test_a_residual_dead_end_jumps_back_to_the_steps_it_blames(self, monkeypatch):
        # At tol=1e-15 rounding breaks a constraint that a late recombination
        # step owns on every path.  The dead end blames the steps that place
        # its endpoints; backtracking chronologically from it instead took
        # 86,501 step evaluations to reach the same error.
        gcs2d.graph._structure_results.cache_clear()  # compile afresh
        g = recombination_chain(5)
        plan = plan_for(g)
        evaluations = count_evaluations(monkeypatch)
        with pytest.raises(VerificationError, match="^residual .* exceeds 1e-15$"):
            enumerate_solutions(plan, g, 16, tol=1e-15)
        assert 0 < evaluations.total() <= 1000

    def test_the_base_is_checked_at_the_leaf(self):
        # The base places L1 and L2 at their angle up to rounding, which
        # tol=0.0 does not forgive; L3's step, reached first, names the
        # verdict.
        g = fixture("three-angle-triangle")
        with pytest.raises(UnderDeterminedError) as err:
            enumerate_solutions(plan_for(g), g, tol=0.0)
        assert err.value.entity == "L3"


class TestDeepPlans:
    def test_long_triangle_strip(self):
        # Each point hangs off the two before it, so the merge tree nests one
        # triangle merge per point and the plan has 1498 steps.
        n = 1500
        constraints = [distance("p0", "p1", 1.0)]
        for i in range(2, n):
            constraints += [distance(f"p{i - 2}", f"p{i}", 1.0),
                            distance(f"p{i - 1}", f"p{i}", 1.0)]
        g = build_graph([point(f"p{i}") for i in range(n)], constraints)
        plan = plan_for(g)
        assert len(plan.steps) == n - 2
        assert verify(g, execute(plan, g)).passed
        ((_, sol),) = enumerate_solutions(plan, g, limit=1)
        assert verify(g, sol).passed


def broken_chain(length):
    """:func:`recombination_chain` with one distance of its last level's
    strips stretched fifty-fold, so that strip cannot close."""
    g = recombination_chain(length)
    constraints = list(g.constraints)
    k = next(k for k, c in enumerate(constraints) if f"x{length}" in c.between)
    constraints[k] = distance(*constraints[k].between, 50 * constraints[k].value)
    return build_graph(g.entities, constraints)


def recombination_over(kind):
    """A triangle recombination whose first cluster holds a line or a circle,
    with the sample its values are measured from.

    The base strip p, q, a, b and the second strip q, s1, s2, r (each point
    joined to the two before it) are shared.  The first cluster holds p, r
    and t at measured distances with p and r on a line L (``kind`` "line"),
    or p and r on a fixed circle K and |pr|, with the incidence p-K listed
    first so that it is the cluster's base ("circle")."""
    sample = {"p": Point2(0.3, 0.2), "q": Point2(2.9, 0.6), "a": Point2(1.4, -1.1),
              "b": Point2(2.6, -1.9), "s1": Point2(3.7, 1.8), "s2": Point2(2.4, 2.2),
              "r": Point2(0.6, 2.5)}
    entities = [point(v) for v in sample]
    strips = [distance(p, q, 1.0) for p, q in [
        ("p", "q"), ("p", "a"), ("q", "a"), ("q", "b"), ("a", "b"),
        ("q", "s1"), ("q", "s2"), ("s1", "s2"), ("s1", "r"), ("s2", "r")]]
    if kind == "line":
        sample |= {"t": Point2(-0.6, 2.4), "L": line_through_points(sample["p"], sample["r"])}
        entities += [point("t"), line("L")]
        constraints = strips + [distance("p", "r", 1.0), distance("p", "t", 1.0),
                                distance("r", "t", 1.0), incidence("p", "L"), incidence("r", "L")]
    else:
        # r is p turned a quarter about K's centre.
        sample["K"] = CircleRep(Point2(1.6, 1.2), math.hypot(1.3, 1.0))
        entities.append(fixed_circle("K", sample["K"].r))
        constraints = [incidence("p", "K"), *strips, incidence("r", "K"), distance("p", "r", 1.0)]
    return measured_graph(build_graph(entities, constraints), sample), sample


class TestGluing:
    """The isometries that fix a cluster's base map its leaves onto each
    other.  Each step of the cluster keeps one root of each set that those
    fixing the roots before it map onto each other, and an alignment glues
    each leaf by both motions, once if they place it alike: every solution
    comes once, and none is missed."""

    @staticmethod
    def alike(found):
        """The pairs of solutions in ``found`` whose placements coincide."""
        return [(a, b) for a, (_, x) in enumerate(found) for b, (_, y) in enumerate(found)
                if a < b and all(placements_close(p, y.placements[e], 1e-9)
                                 for e, p in x.placements.items())]

    @pytest.mark.parametrize("alpha, count", [(1.0, 4), (math.pi / 2, 2)])
    def test_an_angle_base(self, monkeypatch, alpha, count):
        # The half turn fixes two crossing lines, and a mirror does only at
        # a right angle.  At 1 rad the four leaves are two half-turn pairs,
        # each giving two mirror images, which proper motions alone miss.
        g, plan = aligned_on_lines(alpha)
        found = TestWalkerEquivalence().assert_same(monkeypatch, g, plan)
        assert len(found) == count and not self.alike(found)
        assert all(verify(g, sol).passed for _, sol in found)

    def test_a_point_on_a_line_base(self, monkeypatch):
        # Both mirrors and the half turn fix a point on a line: the four
        # leaves are one orbit, which gives a solution and its mirror image.
        g, plan = aligned_on_a_line()
        found = TestWalkerEquivalence().assert_same(monkeypatch, g, plan)
        assert len(found) == 2 and not self.alike(found)

    def test_a_first_root_on_the_mirror_axis(self, monkeypatch):
        # C lies on the base AB, so y -> -y fixes C's one root, and D's two
        # roots are mirror images across AB: D's step keeps one, and both
        # motions onto the placed AB glue D on either side, once each.
        g, plan = aligned_past_a_collinear_point(1.2)
        found = TestWalkerEquivalence().assert_same(monkeypatch, g, plan)
        assert len(found) == 2 and not self.alike(found)
        assert sorted(sol.placements["D"].y > 0 for _, sol in found) == [False, True]

    def test_a_cluster_its_own_mirror_image(self, monkeypatch):
        # C and D lie on AB too: both motions place the cluster alike.
        g, plan = aligned_past_a_collinear_point(0.5)
        ((_, sol),) = TestWalkerEquivalence().assert_same(monkeypatch, g, plan)
        assert verify(g, sol).passed

    @pytest.mark.parametrize("kind", ["line", "circle"])
    def test_a_distance_base_and_a_point_on_a_fixed_circle(self, kind):
        # The mirror y -> -y fixes both bases (the circle's cluster is based
        # on p-K): every leaf is glued once, and no two solutions coincide.
        g, _ = recombination_over(kind)
        found = enumerate_solutions(plan_for(g), g, 1000)
        assert len(found) == 64 and not self.alike(found)

    def test_the_measured_spindle_at_every_scale(self):
        # A generic Moser spindle has 32 solutions at every scale down to
        # 1e-8 (tol scaled to match); rounding the conformations'
        # coordinates to 7 places once merged half of them at 1e-8.
        sample = {"O": (0.7373452367848952, 3.783951354225837),
                  "A": (0.5004798200865415, 2.7803261641656176),
                  "B": (2.5046303503067895, 2.746111035363252),
                  "C": (2.313909837469616, 3.370495620016369),
                  "D": (1.784070842932816, 0.49961723467497865),
                  "E": (0.7645480878887347, 1.4360121738419038),
                  "F": (1.711972770249214, 1.4881361838105618)}
        spindle = fixture("moser-spindle")
        for k in range(9):
            scale = 10.0**-k
            g = measured_graph(spindle, {e: Point2(x * scale, y * scale)
                                         for e, (x, y) in sample.items()})
            found = enumerate_solutions(plan_for(g), g, 64, tol=1e-9 * scale)
            assert len(found) == 32 and not self.alike(found), k


class TestConformationIdentity:
    """The reference walker, the oracle for recombination, keeps one
    conformation of a cluster per fingerprint of rounded pairwise
    measurements, which every isometry keeps, and tells genericity by
    comparing placements of one kind pair by pair."""

    conformation = {"A": Point2(0.0, 0.0), "B": Point2(2.0, 0.0), "C": Point2(0.7, 1.3),
                    "K": CircleRep(Point2(-0.4, 0.9), 0.5), "L": LineRep(0.6, 1.1),
                    "M": LineRep(2.0, -0.3), "N": LineRep(0.4, 0.0)}

    @staticmethod
    def flipped(placements, sx, sy):
        """The image of ``placements`` under (x, y) -> (sx x, sy y)."""
        def flip(p):
            if isinstance(p, Point2):
                return Point2(sx * p.x, sy * p.y)
            if isinstance(p, CircleRep):
                return CircleRep(flip(p.center), p.r)
            nx, ny = p.normal
            return LineRep(math.atan2(sy * ny, sx * nx), p.c)
        return {name: flip(p) for name, p in placements.items()}

    def test_mirrors_and_the_half_turn_share_the_fingerprint(self):
        sign = reference_congruence_signature(self.conformation)
        for sx, sy in [(-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)]:
            flipped = self.flipped(self.conformation, sx, sy)
            assert reference_congruence_signature(flipped) == sign

    @pytest.mark.parametrize("moved", [
        {"C": Point2(0.7 + 1e-5, 1.3)},
        {"K": CircleRep(Point2(-0.4, 0.9), 0.5 + 1e-5)},
        {"L": LineRep(0.6 + 1e-5, 1.1)},
        {"M": LineRep(2.0, -0.3 + 1e-5)},
        # Lines through the origin that only sin 2t or only cos 2t tells apart.
        {"N": LineRep(math.pi - 0.4, 0.0)},
        {"N": LineRep(math.pi / 2 - 0.4, 0.0)},
    ])
    def test_a_moved_placement_changes_the_fingerprint(self, moved):
        assert (reference_congruence_signature(self.conformation | moved)
                != reference_congruence_signature(self.conformation))

    def test_a_line_folded_across_zero_keeps_the_fingerprint(self):
        # The same line with its normal just above and just below theta = 0,
        # which the normal form folds to theta near pi and -c.
        above, below = LineRep(1e-12, 1.1), LineRep(-1e-12, 1.1)
        assert below.theta > 3.0 and below.c == -1.1
        assert (reference_congruence_signature(self.conformation | {"L": above})
                == reference_congruence_signature(self.conformation | {"L": below}))

    @pytest.mark.parametrize("placements", [
        # Coincident points, with a point between them in x far off in y.
        {"A": Point2(0.0, 0.0), "B": Point2(0.0, 5.0), "C": Point2(1e-10, 1e-10)},
        {"A": Point2(1e160, 1e160), "B": Point2(-1e160, 0.0), "C": Point2(1e160, 1e160)},
        {"K1": CircleRep(Point2(1.0, 2.0), 1.0), "K2": CircleRep(Point2(1.0, 2.0 + 1e-10), 1.0)},
        # The same line on either side of the fold.
        {"L": LineRep(1e-12, 1.0), "M": LineRep(math.pi - 1e-12, -1.0)},
    ])
    def test_coincident_placements_are_not_generic(self, placements):
        assert not reference_is_generic(placements)

    @pytest.mark.parametrize("placements", [
        {"A": Point2(0.0, 0.0), "B": Point2(0.0, 5.0), "C": Point2(1e-8, 0.0)},
        {"A": Point2(1e160, 1e160), "B": Point2(1e160, -1e160), "C": Point2(-1e160, 0.0)},
        {"K1": CircleRep(Point2(1.0, 2.0), 1.0), "K2": CircleRep(Point2(1.0, 2.0), 1.5)},
        # A point exactly on a circle's centre is no coincidence.
        {"P": Point2(1.0, 2.0), "K": CircleRep(Point2(1.0, 2.0), 3.0)},
        {"P": Point2(1.0, 2.0), "K": CircleRep(Point2(1.0, 2.0), 1e-10)},
        {"L": LineRep(1e-12, 1.0), "M": LineRep(math.pi - 1e-12, 1.0)},
    ])
    def test_distinct_placements_are_generic(self, placements):
        assert reference_is_generic(placements)


class TestRecombinationReads:
    """A plan's program walks each cluster its recombination steps read as
    steps of its own, once, just before the first step that reads it, so a
    walk solves no cluster outside it."""

    @staticmethod
    def compiled(monkeypatch):
        """Count from now on how often each plan step is compiled, by id."""
        counts: Counter = Counter()
        compile_step = solve_module._compile_step

        def counted(step, *args):
            counts[id(step)] += 1
            return compile_step(step, *args)

        monkeypatch.setattr(solve_module, "_compile_step", counted)
        return counts

    @staticmethod
    def read_steps(plan):
        """The steps of ``plan`` and of every cluster plan it reads, nested."""
        steps = list(plan.steps)
        for step in plan.steps:
            subs = step.plans if isinstance(step, TriangleMerge) else (
                (step.plan,) if isinstance(step, AlignCluster) else ())
            for sub in subs:
                steps += [s for s in TestRecombinationReads.read_steps(sub) if s not in steps]
        return steps

    def test_chain_solves_first_and_second_clusters_once_and_never_a_base(self, monkeypatch):
        length = 30
        gcs2d.graph._structure_results.cache_clear()  # compile afresh
        g = recombination_chain(length)
        plan = plan_for(g)
        merges = [s for s in plan.steps if isinstance(s, TriangleMerge)]
        aligns = [s for s in plan.steps if isinstance(s, AlignCluster)]
        assert len(merges) == length and len(aligns) == 2 * length
        compiled = self.compiled(monkeypatch)
        work = count_structural_work(monkeypatch)
        ((_, sol),) = enumerate_solutions(plan, g, limit=1)
        assert verify(g, sol).passed
        assert work["programs"] == 1
        assert sorted(compiled) == sorted(map(id, self.read_steps(plan)))
        assert set(compiled.values()) == {1}
        # Each read cluster is one 7-constraint strip of three placements.
        _, program = g._analyses["program"]
        assert len(program.steps) == len(plan.steps) + 2 * length * 3
        assert sum(e is None for e in program.ids) == 2 * length * (5 + 1)

    @pytest.mark.parametrize("strip, most", [(5, 10_000), (4, 5_000)])
    def test_nested_clusters(self, monkeypatch, strip, most):
        # A merge reads each virtual distance off the strip whose steps
        # choose it, so a merge that fails jumps back to those steps alone.
        # Blaming every step of the clusters it reads took 88,793 step
        # evaluations to the first solution on 5-point strips, and more than
        # 300 s on the 204 points of 4-point strips, where capped cluster
        # conformation lists found no solution at all.
        g = nested_triangles(4, strip)
        plan = plan_for(g)
        evaluations = count_evaluations(monkeypatch)
        assert len(enumerate_solutions(plan, g, limit=1)) == 1
        assert evaluations.total() < most
        found = enumerate_solutions(plan, g, limit=16)
        assert len(found) == 16 and not TestGluing.alike(found)
        for selector, sol in found:
            assert verify(g, sol).passed
            assert execute(plan, g, selector) == sol

    def test_replays_of_one_graph_solve_each_read_cluster_once(self, monkeypatch):
        # A replay walks one path, each step of each read cluster on it once,
        # on the graph and on a re-valued copy of its structure alike.
        g = nested_triangles(2)
        plan = plan_for(g)
        copy = build_graph(g.entities, [Constraint(c.kind, c.between, 2.0 * c.value)
                                        for c in g.constraints])
        for graph in (g, copy):
            found = enumerate_solutions(plan, graph, limit=16)
            assert len(found) == 16
            for selector, sol in found:
                evaluations = count_evaluations(monkeypatch)
                fresh = Plan(*plan)  # an equal plan object, compiled anew through the count
                assert execute(fresh, graph, selector) == sol
                steps = graph._analyses["program"][1].steps
                assert Counter(evaluations.values()) == {1: len(steps)}
                monkeypatch.undo()

    def test_walks_keep_nothing_on_the_graph(self):
        # An equal plan object compiles a new program; every walk gives the
        # same solutions and leaves the graph object as it was.
        g = fixture("moser-spindle")
        plan = plan_for(g)
        plans = [plan, Plan(*plan)]
        assert plans[0] == plans[1] and plans[0] is not plans[1]
        first = enumerate_solutions(plan, g)
        kept = dict(vars(g))
        for k in range(6):
            assert enumerate_solutions(plans[k % 2], g) == first
            assert vars(g).keys() == kept.keys() and len(first) == 8

    def test_a_cluster_that_cannot_close_fails_every_walk_alike(self):
        # No walk keeps anything: each names the first failure it meets in
        # branch order, the same every time.
        g = broken_chain(3)
        plan = plan_for(g)
        for walk in (lambda: enumerate_solutions(plan, g, limit=16), lambda: execute(plan, g)):
            errors = []
            for _ in range(2):
                with pytest.raises(EmptyIntersectionError) as raised:
                    walk()
                errors.append(str(raised.value))
            assert errors[0] == errors[1] and errors[0].startswith("no locus intersection places")

    def test_a_cluster_is_pruned_at_the_step_owning_its_failing_residual(self, monkeypatch):
        # A-D is off on every branch, and D's inlined step owns it: the walk
        # ends after C's one root up to mirror image and both roots of D,
        # where one running to the cluster's leaves would visit 2^21 of them.
        names = [chr(ord("A") + k) for k in range(24)]
        g, plan = aligned_strip(random.Random(0), names, error=0.5)
        evaluations = count_evaluations(monkeypatch)
        with pytest.raises(VerificationError, match="^residual 0.57.* exceeds 1e-09$"):
            enumerate_solutions(plan, g, limit=16)
        cluster = plan.steps[0].plan
        assert [evaluations[id(step)] for step in cluster.steps[:3]] == [1, 1, 0]
        assert evaluations.total() == 2

    def test_an_inlined_step_owns_what_the_cluster_owns(self, monkeypatch):
        # The test above on an 8-point strip: D's inlined step, not the
        # alignment that places the cluster's copies, owns A-D, so the walk
        # ends at D's roots, where one that checked A-D only at the
        # alignment would glue each of the cluster's 32 leaves.
        g, plan = aligned_strip(random.Random(0), "ABCDEFGH", error=0.5)
        evaluations = count_evaluations(monkeypatch)
        with pytest.raises(VerificationError, match="^residual 0.57.* exceeds 1e-09$"):
            enumerate_solutions(plan, g, limit=16)
        assert evaluations.total() == 2

    def test_a_cluster_reports_the_first_failure_its_walk_meets(self, monkeypatch):
        # C's and D's first roots leave E no intersection; the other leaves
        # fail B-E.  The kernel error comes first, so it names the verdict,
        # and the reference walker names it too.
        rng = random.Random(6)
        at = {v: Point2(rng.uniform(0, 10), rng.uniform(0, 10)) for v in "ABCDE"}
        pairs = ["AB", "AC", "BC", "BD", "CD", "AE", "DE", "BE"]
        values = [at[a].distance_to(at[b]) for a, b in pairs]
        values[5] *= 0.6
        values[7] += 0.5
        g = build_graph([point(v) for v in "ABCDE"],
                        [distance(a, b, value) for (a, b), value in zip(pairs, values)])
        cluster = Plan(1, 0, (PlaceByTwoLoci("C", (1, 2)), PlaceByTwoLoci("D", (3, 4)),
                              PlaceByTwoLoci("E", (5, 6))), frozenset(range(8)))
        plan = Plan(0, 0, (AlignCluster(1, ("A", "B"), cluster),))
        with pytest.raises(EmptyIntersectionError, match="'E'") as raised:
            enumerate_solutions(plan, g)
        with monkeypatch.context() as patch:
            patch.setattr(solve_module, "_walk", reference_walk)
            with pytest.raises(EmptyIntersectionError) as expected:
                enumerate_solutions(plan, g)
        assert str(raised.value) == str(expected.value)
        raw = solve_module._run(solve_module._compile(cluster, g), g, values, None, None)
        assert [sol.branches for sol in raw] == [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]

    def test_a_measured_sketch_is_among_its_solutions(self):
        # Two strips of 10 points from S0 and a triangle on their ends: the
        # plan aligns the second strip as a cluster of 10 points.  Its first
        # 64 leaves, all a capped walk kept, lacked the sketch's shape, so
        # none of the 97,216 solutions found then was the sketch; the
        # sketch is the 8,299th of the uncapped walk.
        g, sample = two_strips(3, 9, 9)
        plan = plan_for(g)
        assert [type(step) for step in plan.steps[-3:]] == [TriangleMerge, AlignCluster,
                                                            AlignCluster]
        found = enumerate_solutions(plan, g, limit=10_000)
        base = g.constraints[plan.base_constraint].between
        assert solution_matches_sample(g, base, sample, found, tol=1e-6)

    def test_cluster_without_conformations_ends_the_walk(self, monkeypatch):
        # One strip of the last level cannot close, so the cluster has no
        # conformation, and its steps blame no step outside it: the walk
        # ends the first time it reaches them.
        length = 10
        g = broken_chain(length)
        plan = plan_for(g)
        broken = next(sub for step in plan.steps if isinstance(step, TriangleMerge)
                      for sub in step.plans
                      if any(f"x{length}" in g.constraints[ci].between
                             for ci in sub.owned_constraints))
        evaluations = count_evaluations(monkeypatch)
        with pytest.raises(EmptyIntersectionError):
            enumerate_solutions(plan, g, limit=16)
        assert evaluations[id(broken.steps[0])] == 1


def two_strips(seed, b, s):
    """Points drawn in [0, 10]² from ``random.Random(seed)``, x then y, in
    the order S0, B1..Bb, S1..Ss, Y: a strip S0, B1..Bb and a strip S0,
    S1..Ss (each point joined to the two before it) and the triangle Bb, Ss,
    Y, with every distance measured; returns the graph and the points."""
    rng = random.Random(seed)
    first = ["S0"] + [f"B{k}" for k in range(1, b + 1)]
    second = ["S0"] + [f"S{k}" for k in range(1, s + 1)]
    at = {v: Point2(rng.uniform(0, 10), rng.uniform(0, 10)) for v in first + second[1:] + ["Y"]}
    pairs = [(strip[k - d], strip[k]) for strip in (first, second)
             for k in range(1, len(strip)) for d in (1, 2) if k >= d]
    pairs += [(first[-1], second[-1]), (first[-1], "Y"), (second[-1], "Y")]
    g = build_graph([point(v) for v in at], [distance(u, v, at[u].distance_to(at[v]))
                                             for u, v in pairs])
    return g, at


def aligned_strip(rng, names="ABCDEFGHIJ", error=0.0):
    """A strip A…J (or ``names``), each point joined to the two before it,
    plus A-D, with values measured from points drawn from ``rng`` in
    [0, 10]² (A-D then lengthened by ``error``), and a plan that aligns it,
    as one cluster that owns every constraint, onto AB."""
    at = {v: Point2(rng.uniform(0, 10), rng.uniform(0, 10)) for v in names}
    pairs, steps = [("A", "B")], []
    for k in range(2, len(names)):
        steps.append(PlaceByTwoLoci(names[k], (len(pairs), len(pairs) + 1)))
        pairs += [(names[k - 2], names[k]), (names[k - 1], names[k])]
    pairs.append(("A", "D"))
    values = [at[a].distance_to(at[b]) for a, b in pairs]
    values[-1] += error
    g = build_graph([point(v) for v in names],
                    [distance(a, b, value) for (a, b), value in zip(pairs, values)])
    cluster = Plan(1, 0, tuple(steps), frozenset(range(len(pairs))))
    return g, Plan(0, 0, (AlignCluster(1, ("A", "B"), cluster),))


def aligned_kite():
    """A, B, C and D placed from B and C, with values measured at A (0, 0),
    B (4, 0), C (6, 3) and D on A, and a plan that aligns them, as one cluster, onto AB: the cluster
    has a degenerate conformation (D on A) and a generic one."""
    g = build_graph(
        [point(v) for v in "ABCD"],
        [distance("A", "B", 4.0), distance("A", "C", math.sqrt(45)),
         distance("B", "C", math.sqrt(13)), distance("B", "D", 4.0),
         distance("C", "D", math.sqrt(45))],
    )
    cluster = Plan(1, 0, (PlaceByTwoLoci("C", (1, 2)), PlaceByTwoLoci("D", (3, 4))),
                   frozenset(range(5)))
    return g, Plan(0, 0, (AlignCluster(1, ("A", "B"), cluster),))


def aligned_on_lines(alpha):
    """Lines L1 and L2 at angle ``alpha``, A on L1 at 2 sin(alpha) from L2,
    B on L2 at 2.5 from A, and a plan that places A and B by a second AB
    distance and aligns onto them the cluster based on the angle."""
    g = build_graph([line("L1"), line("L2"), point("A"), point("B")],
                    [angle("L1", "L2", alpha), incidence("A", "L1"),
                     point_line_distance("A", "L2", 2.0 * math.sin(alpha)), incidence("B", "L2"),
                     distance("A", "B", 2.5), distance("A", "B", 2.5)])
    cluster = Plan(1, 0, (PlaceByTwoLoci("A", (1, 2)), PlaceByTwoLoci("B", (3, 4))),
                   frozenset(range(5)))
    return g, Plan(0, 5, (AlignCluster(1, ("A", "B"), cluster),))


def aligned_past_a_collinear_point(cd):
    """A cluster with base AB = 2, C at 1 from A and from B (on AB), and D at
    1.5 from A and ``cd`` from C, and a plan that places A and B by a second
    AB distance and aligns the cluster onto them."""
    g = build_graph([point(v) for v in "ABCD"],
                    [distance("A", "B", 2.0), distance("A", "C", 1.0), distance("C", "B", 1.0),
                     distance("A", "D", 1.5), distance("C", "D", cd), distance("A", "B", 2.0)])
    cluster = Plan(1, 0, (PlaceByTwoLoci("C", (1, 2)), PlaceByTwoLoci("D", (3, 4))),
                   frozenset(range(5)))
    return g, Plan(0, 5, (AlignCluster(1, ("A", "B"), cluster),))


def aligned_on_a_line():
    """P on a line L, A on L at 2 from P, B at 1.5 from P and 2.5 from A,
    and a plan that places A and B by a second AB distance and aligns onto
    them the cluster based on P's incidence."""
    g = build_graph([point("P"), line("L"), point("A"), point("B")],
                    [incidence("P", "L"), incidence("A", "L"), distance("P", "A", 2.0),
                     distance("P", "B", 1.5), distance("A", "B", 2.5), distance("A", "B", 2.5)])
    cluster = Plan(1, 0, (PlaceByTwoLoci("A", (1, 2)), PlaceByTwoLoci("B", (3, 4))),
                   frozenset(range(5)))
    return g, Plan(0, 5, (AlignCluster(1, ("A", "B"), cluster),))


def reflect_across(q, a, b):
    """``q`` mirrored across the line through ``a`` and ``b``."""
    dx, dy = b.x - a.x, b.y - a.y
    t = ((q.x - a.x) * dx + (q.y - a.y) * dy) / (dx * dx + dy * dy)
    return Point2(2 * (a.x + t * dx) - q.x, 2 * (a.y + t * dy) - q.y)


def measured_laman_40():
    g = random_laman(40, 5, 0.0)
    return measured_graph(g, grid_embedding(g, random.Random(0)))


def cannot_close():
    """A triangle ABC of side 1 and D at 1 from C but 9 from B: no branch
    places D."""
    return build_graph(
        [point(v) for v in "ABCD"],
        [distance("A", "B", 1.0), distance("A", "C", 1.0), distance("B", "C", 1.0),
         distance("C", "D", 1.0), distance("B", "D", 9.0)],
    )


class Mystery(NamedTuple):
    """A plan step of a type the walker does not know."""

    target: str


def circle_on_triangle():
    """The 3-4-5 triangle ABC with C on a fixed circle K."""
    return build_graph(
        [point("A"), point("B"), point("C"), fixed_circle("K", 1.0)],
        [distance("A", "B", 3.0), distance("A", "C", 4.0), distance("B", "C", 5.0),
         incidence("C", "K")],
    )


@pytest.mark.parametrize("g, broken, error", [
    (circle_on_triangle(), Mystery("K"), UnsupportedStepError),
    (circle_on_triangle(), PlaceByTwoLoci("K", (3, 1)), UnsupportedStepError),
    # B again, from C and from D, which no step places.
    (cannot_close(), PlaceByTwoLoci("B", (2, 4)), MissingPlacementError),
    # A line at an offset from C: an offset places a point, never a line.
    (build_graph([point("A"), point("B"), point("C"), line("L")],
                 [distance("A", "B", 3.0), distance("A", "C", 4.0), distance("B", "C", 5.0),
                  point_line_distance("C", "L", 1.0), incidence("A", "L")]),
     PlaceByTwoLoci("L", (3, 4)), UnsupportedStepError),
    # C where the base lines L and M cross, then N at an angle to each.
    (build_graph([line("L"), line("M"), point("C"), line("N")],
                 [angle("L", "M", 1.0), incidence("C", "L"), incidence("C", "M"),
                  angle("L", "N", 0.5), angle("M", "N", 1.5)]),
     PlaceByTwoLoci("N", (3, 4)), UnderDeterminedError),
], ids=["unknown step type", "circle target", "unplaced anchor", "line at an offset",
        "line from two angles"])
def test_step_bound_to_raise_ends_the_walk(monkeypatch, g, broken, error):
    # The step fails on every path, so the walk ends where it first reaches
    # it, with the reference walker's error, instead of taking another root
    # of C and trying again.
    place_c = PlaceByTwoLoci("C", (1, 2))
    plan = Plan(0, 0, (place_c, broken))
    with monkeypatch.context() as patch:
        patch.setattr(solve_module, "_walk", reference_walk)
        with pytest.raises(error) as expected:
            enumerate_solutions(plan, g)
    evaluations = count_evaluations(monkeypatch)
    with pytest.raises(error) as raised:
        enumerate_solutions(plan, g)
    assert (type(raised.value), str(raised.value)) == (type(expected.value), str(expected.value))
    assert evaluations == Counter({id(place_c): 1, id(broken): 1})


def test_an_unplaced_anchor_comes_before_a_bad_value(monkeypatch):
    # Only a graph built past build_graph's checks holds such a value.  The
    # step's first distance is negative, and its second reads D, which no
    # step places.  Compiling finds D unplaced before any value is read; the
    # reference walker, resolving the constraints in turn, meets the value
    # first.
    g = cannot_close()
    constraints = list(g.constraints)
    constraints[1] = constraints[1]._replace(value=-1.0)
    unchecked = ConstraintGraph(g.entities, tuple(constraints))
    plan = Plan(0, 0, (PlaceByTwoLoci("C", (1, 3)),))
    for walk in (lambda: enumerate_solutions(plan, unchecked), lambda: execute(plan, unchecked)):
        with pytest.raises(MissingPlacementError, match="'D'"):
            walk()
        with monkeypatch.context() as patch:
            patch.setattr(solve_module, "_walk", reference_walk)
            with pytest.raises(BadValueError):
                walk()


class TestLazyWalk:
    """The walker yields each solution when it reaches its leaf, so a caller
    stops the search where it stops taking solutions, and a walk frees its
    state however it ends."""

    @pytest.mark.parametrize("limit", [0, -3, True, 2.5, "3", None])
    def test_limit_below_one_is_refused(self, monkeypatch, limit):
        g = triangle_graph(3, 4, 5)
        plan = plan_for(g)
        evaluations = count_evaluations(monkeypatch)
        message = (f"limit must be >= 1, got {limit}" if type(limit) is int
                   else f"limit {limit!r} is not an integer")
        with pytest.raises(BadBranchError, match=rf"^{re.escape(message)}$"):
            enumerate_solutions(plan, g, limit=limit)
        assert not evaluations

    @pytest.mark.parametrize("walk", [solve_module._walk, reference_walk],
                             ids=["walker", "reference"])
    @pytest.mark.parametrize("tol", ["x", True, None, -1.0, math.nan], ids=repr)
    def test_a_bad_tolerance_is_refused_before_any_work(self, monkeypatch, walk, tol):
        g = triangle_graph(3, 4, 5)
        plan = plan_for(g)
        sol = execute(plan, g)
        walks = []
        monkeypatch.setattr(solve_module, "_walk", lambda *args: walks.append(args) or walk(*args))
        message = rf"^tol must be a non-negative number, got {re.escape(repr(tol))}$"
        with pytest.raises(BadValueError, match=message):
            enumerate_solutions(plan, g, tol=tol)
        with pytest.raises(BadValueError, match=message):
            verify(g, sol, tol)
        assert not walks

    @pytest.mark.parametrize("limit", [2**63 - 1, 2**63, 10**20])
    def test_a_limit_past_every_walk_takes_every_solution(self, limit):
        g = triangle_graph(3, 4, 5)
        assert [sel for sel, _ in enumerate_solutions(plan_for(g), g, limit)] == [(0,), (1,)]

    def test_first_solution_evaluates_only_the_steps_up_to_its_leaf(self, monkeypatch):
        g = measured_laman_40()
        plan = plan_for(g)
        evaluations = count_evaluations(monkeypatch)
        walk = solve_module._walk(plan, g, None, solve_module.DEFAULT_TOL)
        # A leaf is a root of the last step, whose owned constraints are
        # checked where it is placed: one check per leaf reached.
        last = g._analyses["program"][1].steps[-1].owns
        leaves = []
        owned_worst = solve_module._owned_worst

        def counted(owns, *args):
            if owns is last:
                leaves.append(1)
            return owned_worst(owns, *args)

        monkeypatch.setattr(solve_module, "_owned_worst", counted)
        assert not evaluations  # nothing runs before the first solution is asked for
        first = next(walk)
        up_to_first_leaf = evaluations.copy()
        walk.close()
        assert len(leaves) == 1

        evaluations.clear()
        leaves.clear()
        assert enumerate_solutions(plan, g, limit=1) == [(first.branches, first)]
        assert evaluations == up_to_first_leaf and len(leaves) == 1
        evaluations.clear()
        assert len(enumerate_solutions(plan, g, limit=16)) == 16
        assert evaluations.total() > up_to_first_leaf.total()

        # A replay follows one path: each step once up to the leaf, or up
        # to the first step without roots.
        evaluations.clear()
        assert execute(plan, g, first.branches) == first
        assert evaluations == Counter(id(step) for step in plan.steps)
        evaluations.clear()
        with pytest.raises(EmptyIntersectionError):
            execute(plan, g)
        reached = [evaluations[id(step)] for step in plan.steps]
        assert reached == sorted(reached, reverse=True) and set(reached) == {0, 1}

    @staticmethod
    def leaves_no_cycle(call):
        gc.collect()
        gc.disable()
        try:
            try:
                call()
            except GcsError:
                pass
            return gc.collect() == 0
        finally:
            gc.enable()

    def test_every_walk_frees_its_state(self):
        laman, closing, chain = measured_laman_40(), cannot_close(), recombination_chain(3)
        broken = broken_chain(10)
        laman_plan, closing_plan, chain_plan, broken_plan = map(
            plan_for, (laman, closing, chain, broken))
        ((selector, _),) = enumerate_solutions(laman_plan, laman, limit=1)
        triangle = triangle_graph(3, 4, 5)
        unknown_step = Plan(0, 0, (PlaceByTwoLoci("C", (1, 2)), Mystery("C")))
        calls = {
            "first of many": lambda: enumerate_solutions(laman_plan, laman, limit=1),
            "stops at limit": lambda: enumerate_solutions(laman_plan, laman, limit=16),
            "replay": lambda: execute(laman_plan, laman, selector),
            "replay into a dead end": lambda: execute(laman_plan, laman),
            "selector out of range": lambda: execute(laman_plan, laman, (9,)),
            "no branch closes": lambda: enumerate_solutions(closing_plan, closing),
            "no replay closes": lambda: execute(closing_plan, closing),
            "recombination": lambda: enumerate_solutions(chain_plan, chain),
            "recombination replay": lambda: execute(chain_plan, chain),
            "cluster without conformations": lambda: enumerate_solutions(broken_plan, broken),
            "replay into such a cluster": lambda: execute(broken_plan, broken),
            "unknown step type": lambda: enumerate_solutions(unknown_step, triangle),
            "replay of an unknown step type": lambda: execute(unknown_step, triangle),
        }
        assert [name for name, call in calls.items() if not self.leaves_no_cycle(call)] == []


@pytest.mark.parametrize("g", [
    build_graph([point("P"), free_circle("K")], [incidence("P", "K")]),
    build_graph([line("L"), free_circle("K")], [tangency("L", "K")]),
], ids=["incidence", "tangency"])
def test_a_free_radius_circle_cannot_anchor_the_base(g):
    plan = Plan(0, 0, ())
    for walk in (lambda: execute(plan, g), lambda: enumerate_solutions(plan, g)):
        with pytest.raises(UnderDeterminedError,
                           match="^a free-radius circle cannot anchor a base placement$") as err:
            walk()
        assert err.value.entity == "K"


class TestSolutionSerialization:
    @pytest.mark.parametrize("doc, message", [
        ({"placements": {"A": [0.0, 1.0]}}, "placement must be a one-key object, got [0.0, 1.0]"),
        ({"placements": {"A": {"point": [0.0, 1.0], "line": {"theta": 0.0, "c": 0.0}}}},
         "placement must be a one-key object"),
        ({"placements": {"A": {"square": 1.0}}}, "unknown placement shape ['square']"),
        ({"branches": [0]}, "solution document needs a 'placements' object"),
        ({"placements": []}, "solution document needs a 'placements' object"),
        ([], "solution document needs a 'placements' object"),
    ], ids=["not-an-object", "two-keys", "unknown-shape", "no-placements", "placements-list",
            "not-a-document"])
    def test_malformed_documents(self, doc, message):
        with pytest.raises(ParseError) as err:
            solution_from_dict(doc)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("change", [
        {"placements": {"A": {"point": [True, False]}}},
        {"placements": {"L": {"line": {"theta": True, "c": 0.0}}}},
        {"placements": {"L": {"line": {"theta": 0.5, "c": False}}}},
        {"placements": {"O": {"circle": {"center": [0.0, True], "r": 1.0}}}},
        {"placements": {"O": {"circle": {"center": [0.0, 0.0], "r": True}}}},
        {"placements": {"A": {"point": ["1", 0.0]}}},
        {"branches": [True]},
        {"branches": [1.0]},
        {"branches": "10"},
        {"degenerate_steps": [False]},
    ], ids=["point", "theta", "c", "center", "r", "string-coordinate", "branch", "float-branch",
            "string-branches", "degenerate-step"])
    def test_only_json_numbers_parse(self, change):
        # JSON booleans (and strings) are no numbers, though Python's bool is an int.
        doc = {"placements": {"A": {"point": [0.0, 1.0]}, "L": {"line": {"theta": 0.5, "c": 1.0}},
                              "O": {"circle": {"center": [0.0, 0.0], "r": 1.0}}},
               "branches": [0, 1], "degenerate_steps": [1]}
        solution_from_dict(doc)
        doc["placements"].update(change.get("placements", {}))
        doc.update({key: value for key, value in change.items() if key != "placements"})
        with pytest.raises(ParseError):
            solution_from_dict(json.loads(json.dumps(doc)))

    def test_round_trip(self):
        g = fixture("quad-angle-aux")
        sol = enumerate_solutions(plan_for(g), g, limit=1)[0][1]
        back = solution_from_dict(solution_to_dict(sol))
        assert back.branches == sol.branches
        for name, placement in sol.placements.items():
            assert type(back.placements[name]) is type(placement)
        assert verify(g, back).max_abs <= 1e-9

    def test_graph_survives_solution_pipeline(self):
        g = fixture("moser-spindle")
        assert parse(serialize(g)) == g
