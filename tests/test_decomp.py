import ast
import importlib.util
import random
import sys
import threading
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gcs2d import (
    AlignCluster,
    BadValueError,
    Constraint,
    EntityKind,
    MergeRecord,
    NotReducibleError,
    PlaceByTwoLoci,
    Plan,
    ReducibilityClass,
    TooSmallError,
    TriangleMerge,
    UnsupportedStepError,
    Verdict,
    build_graph,
    classify,
    decompose,
    diagnose_counting,
    diagnose_pebble,
    distance,
    dof,
    enumerate_solutions,
    extract_plan,
    fixture,
    fixture_names,
    line,
    point,
    random_laman,
    seed_clusters,
)
from gcs2d.decompose import _build_plan, _fixpoint
from gcs2d.graph import fixed_circle, free_circle, incidence, tangency
from support import (
    count_structural_work,
    materialised,
    measured_graph,
    nested_triangles,
    random_mixed_graph,
    recombination_chain,
    reference_build_plan,
    reference_decompose,
    sample_embedding,
)

# The incremental decomposition and the exhaustive reference must agree.
DECOMPOSERS = (decompose, reference_decompose)


class TestSeeds:
    def test_triangle_has_three_seeds(self):
        assert len(seed_clusters(fixture("triangle"))) == 3

    def test_moser_spindle_has_eleven_seeds(self):
        assert len(seed_clusters(fixture("moser-spindle"))) == 11

    def test_empty_constraints(self):
        g = build_graph([point("A"), point("B")], [])
        assert seed_clusters(g) == []


class TestMergeStep:
    def test_pair_rule_on_duplicate_edges(self):
        g = build_graph(
            [point("A"), point("B")],
            [distance("A", "B", 1.0), distance("A", "B", 1.0)],
        )
        for run in DECOMPOSERS:
            result = run(g)
            assert result.merge_log == (MergeRecord("R2", 2, (0, 1), ("A", "B")),)
            assert len(result.final_clusters) == 1

    def test_triangle_rule_on_seed_edges(self):
        g = fixture("triangle")
        for run in DECOMPOSERS:
            result = run(g)
            (record,) = result.merge_log
            assert record.rule == "R1"
            assert record.parents == (0, 1, 2)
            assert set(record.shared) == {"A", "B", "C"}
            assert len(result.final_clusters) == 1

    def test_k33_is_a_fixpoint(self):
        g = fixture("k33")
        for run in DECOMPOSERS:
            assert run(g).merge_log == ()

    def test_triangle_rule_skips_free_circle_hinges(self):
        # Two tangencies and one mutual tangency meet pairwise in single
        # entities, but a free-radius circle hinge must not merge.
        g = build_graph(
            [free_circle("K1"), free_circle("K2"), free_circle("K3")],
            [tangency("K1", "K2"), tangency("K2", "K3"), tangency("K3", "K1")],
        )
        for run in DECOMPOSERS:
            assert run(g).merge_log == ()


class TestReferenceEquivalence:
    """Full-result equality with the exhaustive reference: same merge order,
    ids, clusters and class."""

    def test_fixtures(self):
        for name in fixture_names():
            g = fixture(name)
            assert materialised(decompose(g)) == reference_decompose(g), name

    def test_random_laman(self):
        # Every n in 3-40 once, then sizes leaning small, because the
        # reference rescans every pair of clusters after each merge.
        rng = random.Random(2024)
        sizes = list(range(3, 41))
        sizes += [rng.randint(3, rng.randint(3, 40)) for _ in range(500 - len(sizes))]
        for n in sizes:
            g = random_laman(n, rng.randrange(10**6), rng.random())
            assert materialised(decompose(g)) == reference_decompose(g)

    @pytest.mark.parametrize("n", [60, 90, 120, 160])
    def test_long_growth(self, n):
        # Past n = 40: one cluster grows a point per merge over many
        # merges (p_h2 = 0), or a few clusters do among edge splits.
        for p_h2 in (0.0, 0.3):
            for seed in (1, 2):
                g = random_laman(n, seed, p_h2)
                assert materialised(decompose(g)) == reference_decompose(g), (p_h2, seed)

    @settings(deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_mixed_graphs(self, rng):
        g = random_mixed_graph(rng)
        assert materialised(decompose(g)) == reference_decompose(g)

    def test_random_mixed_graph_sweep(self):
        for seed in range(2000):
            g = random_mixed_graph(random.Random(seed))
            assert materialised(decompose(g)) == reference_decompose(g), seed

    def test_reversed_and_repeated_parallel_constraints(self):
        # Constraints on the same two entities, in either order, pair up
        # whichever way round they were written.
        g = build_graph(
            [point("P0"), fixed_circle("C0", 1.0), point("P1"), fixed_circle("C1", 2.0),
             point("P2")],
            [tangency("C0", "C1"), tangency("C1", "C0")] * 3
            + [distance("P0", "P1", 1.0), distance("P2", "P1", 1.0)],
        )
        result = decompose(g)
        assert materialised(result) == reference_decompose(g)
        assert [r.parents for r in result.merge_log] == [(0, 1), (2, 3), (4, 5), (8, 9),
                                                         (10, 11)]

    def test_parallel_seeds_inside_a_triangle(self):
        g = build_graph(
            [point("A"), point("B"), point("C"), point("D")],
            [distance("A", "B", 3.0), distance("B", "C", 4.0), distance("B", "A", 3.0),
             distance("C", "A", 5.0), distance("A", "C", 5.0), distance("C", "D", 1.0),
             distance("D", "B", 1.0), distance("D", "C", 1.0)],
        )
        result = decompose(g)
        assert materialised(result) == reference_decompose(g)
        assert result.reducibility is ReducibilityClass.FULLY_REDUCIBLE

    @pytest.mark.parametrize("hinge", [free_circle("K"), fixed_circle("K", 1.0)])
    def test_circle_hinges_of_a_merged_cluster(self, hinge):
        # The merged triangle ABC meets the incidences A-K and B-K in A and
        # B, and they meet each other in K: a triangle only if K has two
        # degrees of freedom.
        g = build_graph(
            [point("A"), point("B"), point("C"), hinge, point("D")],
            [distance("A", "B", 3.0), distance("B", "C", 4.0), distance("C", "A", 5.0),
             incidence("A", "K"), incidence("K", "B"), incidence("D", "K"),
             distance("D", "A", 1.0)],
        )
        result = decompose(g)
        assert materialised(result) == reference_decompose(g)
        rules = [r.rule for r in result.merge_log]
        assert rules == (["R1"] if hinge.kind is EntityKind.CIRCLE_FREE_RADIUS
                         else ["R1", "R1", "R1"])

    def test_a_cluster_of_three_or_more_entities_holds_only_two_dof_ones(self):
        # The fixpoint's hinge test leans on this: a merged cluster that
        # brings in entities holds three or more, so its hinges are two-DOF.
        graphs = [fixture(name) for name in fixture_names()]
        graphs += [random_mixed_graph(random.Random(seed)) for seed in range(3000)]
        checked = beside_a_free_circle = 0
        for g in graphs:
            dofs = {e.id: dof(e.kind) for e in g.entities}
            result = decompose(g)
            for c in (*result.final_clusters, *result.all_clusters):
                if c.entity_ids is not None and len(c.entity_ids) >= 3:
                    assert {dofs[e] for e in c.entity_ids} == {2}, (g, c)
                    checked += 1
                    beside_a_free_circle += 3 in dofs.values()
        assert checked > 800 and beside_a_free_circle > 100, (checked, beside_a_free_circle)


class TestLargeFixpoint:
    """Graphs beyond the reference's reach: check the fixpoint directly."""

    def test_partially_reducible_fixpoint(self):
        g = random_laman(400, 1, 0.5)
        result = decompose(g)
        final = result.final_clusters
        owned = sorted(i for c in final for i in c.owned_constraints)
        assert owned == list(range(g.m))
        # No pair shares two entities; collect the single-entity hinges.
        hinge: dict[tuple[int, int], str] = {}
        holders: dict[str, list[int]] = {}
        for k, c in enumerate(final):
            for e in c.entity_ids:
                holders.setdefault(e, []).append(k)
        for ks in holders.values():
            for a, b in combinations(ks, 2):
                shared = final[a].entity_ids & final[b].entity_ids
                assert len(shared) == 1
                (hinge[a, b],) = shared
        # No triangle of two-DOF hinges on three distinct entities.
        two_dof = {e.id for e in g.entities if dof(e.kind) == 2}
        neighbours: dict[int, set[int]] = {}
        for a, b in hinge:
            neighbours.setdefault(a, set()).add(b)
            neighbours.setdefault(b, set()).add(a)
        for (a, b), x in hinge.items():
            for c in neighbours[a] & neighbours[b]:
                if c > b:
                    y, z = hinge[b, c], hinge[a, c]
                    assert not (len({x, y, z}) == 3 and {x, y, z} <= two_dof)
        assert result.reducibility is ReducibilityClass.PARTIALLY_REDUCIBLE

    def test_fully_reducible(self):
        g = random_laman(1000, 1, 0.0)
        result = decompose(g)
        assert result.reducibility is ReducibilityClass.FULLY_REDUCIBLE
        assert len(result.merge_log) == 998
        clusters = materialised(result).all_clusters
        merged: set[int] = set()
        for record in result.merge_log:
            assert record.rule == "R1"
            assert all(p < record.new_cluster for p in record.parents)
            assert merged.isdisjoint(record.parents)
            merged.update(record.parents)
            c = clusters[record.new_cluster]
            parents = [clusters[p] for p in record.parents]
            assert c.merge is record
            assert c.entity_ids == frozenset().union(*[p.entity_ids for p in parents])
            assert c.owned_constraints == frozenset().union(
                *[p.owned_constraints for p in parents])
        # Its plan places every point but the base's in turn, each from two
        # constraints no other step or the base uses.
        plan = extract_plan(result, g)
        assert len(plan.steps) == 998
        assert all(isinstance(step, PlaceByTwoLoci) for step in plan.steps)
        base = g.constraints[plan.base_constraint].between
        targets = [step.target for step in plan.steps]
        assert len(set(targets)) == 998 and set(targets) == set(g.entity_ids) - set(base)
        used = [plan.base_constraint] + [i for step in plan.steps for i in step.constraints]
        assert len(used) == len(set(used)) == 1997


    def test_a_result_holds_linear_sets(self):
        # A merge grows its heir's sets in place, and the heir keeps none,
        # so a result holds O(n + m) set entries in all: seeds, final
        # clusters, growth records and the clusters that still own sets.
        # A copy per merge held about 6.0 M entries here.
        g = random_laman(2000, 1, 0.0)
        result = decompose(g)
        held = {id(s): len(s) for c in result.final_clusters + result.all_clusters
                for s in (c.entity_ids, c.owned_constraints) if s is not None}
        held |= {id(added): len(added) for _, added in result.growth}
        assert sum(held.values()) < 10 * (g.n + g.m)
        assert result.reducibility is ReducibilityClass.FULLY_REDUCIBLE

    def test_merged_heirs_carry_no_sets_and_every_other_cluster_frozensets(self):
        # README's contract on a result's cluster sets.  A set compares
        # equal to a frozenset, so the reference equivalence tests do not
        # see a cluster left unfrozen.
        rng = random.Random(40)
        graphs = [fixture(name) for name in fixture_names()]
        graphs += [random_laman(rng.randint(3, 40), seed, rng.random()) for seed in range(100)]
        graphs += [random_laman(200, 1, p_h2) for p_h2 in (0.0, 0.5)]
        graphs += [random_mixed_graph(random.Random(seed)) for seed in range(300)]
        for g in graphs:
            result = decompose(g)
            heirs = {k for k, _ in result.growth if k >= g.m}
            for c in result.all_clusters + result.final_clusters:
                sets = (c.entity_ids, c.owned_constraints)
                if c.id in heirs:
                    assert sets == (None, None), c.id
                else:
                    assert [type(s) for s in sets] == [frozenset, frozenset], c.id


class TestDecompose:
    def test_classification_corpus(self):
        expected = {
            "triangle": ReducibilityClass.FULLY_REDUCIBLE,
            "moser-spindle": ReducibilityClass.FULLY_REDUCIBLE,
            "quad-angle-aux": ReducibilityClass.FULLY_REDUCIBLE,
            "three-angle-triangle": ReducibilityClass.FULLY_REDUCIBLE,
            "three-prism": ReducibilityClass.PARTIALLY_REDUCIBLE,
            "quad-angle": ReducibilityClass.PARTIALLY_REDUCIBLE,
            "cramer-castillon": ReducibilityClass.PARTIALLY_REDUCIBLE,
            "malfatti": ReducibilityClass.PARTIALLY_REDUCIBLE,
            "k33": ReducibilityClass.IRREDUCIBLE,
        }
        for name, klass in expected.items():
            assert classify(fixture(name)) is klass, name

    def test_three_prism_detects_both_triangles(self):
        result = decompose(fixture("three-prism"))
        assert result.nontrivial_cluster_count == 2
        triangles = sorted(
            sorted(c.entity_ids) for c in result.final_clusters if not c.is_seed
        )
        assert triangles == [["A", "B", "C"], ["D", "E", "F"]]

    def test_coverage_partitions_constraints(self):
        for name in ("moser-spindle", "three-prism", "quad-angle", "malfatti"):
            g = fixture(name)
            result = decompose(g)
            owned = [i for c in result.final_clusters for i in c.owned_constraints]
            assert sorted(owned) == list(range(g.m))

    def test_deterministic(self):
        g = fixture("moser-spindle")
        assert decompose(g) == decompose(g)

    def test_merge_count_bounded(self):
        for name in ("moser-spindle", "quad-angle-aux"):
            g = fixture(name)
            result = decompose(g)
            assert len(result.merge_log) <= g.m - 1

    def test_cluster_rigidity_in_graphs_without_over_part(self):
        names = ("triangle", "moser-spindle", "three-prism", "quad-angle", "quad-angle-aux")
        graphs = [fixture(n) for n in names]
        graphs += [random_laman(n, seed) for n in (4, 6, 8) for seed in range(5)]
        for g in graphs:
            result = decompose(g)
            for cluster in materialised(result).all_clusters:
                if cluster.is_seed:
                    continue
                ents = [e for e in g.entities if e.id in cluster.entity_ids]
                kept = tuple(g.constraints[i] for i in sorted(cluster.owned_constraints))
                sub = build_graph(ents, kept)
                assert diagnose_counting(sub).verdict is Verdict.WELL_CONSTRAINED

    def test_pair_merges_join_clusters_on_the_same_entities(self):
        """Without an over-constrained subset, both parents of a pair (R2)
        merge hold the same entities, so plan extraction never recombines a
        pair merge.  A cluster's slack, its entities' DOF - 3 - its
        constraints, is never negative in such a graph.  A seed on two
        two-DOF entities has slack 0, a triangle merge (hinged on three
        distinct two-DOF entities) the sum of its parents' and a pair merge
        sharing d >= 4 DOF s1 + s2 + 3 - d: clusters of two-DOF entities
        cannot pair-merge.  A cluster holding a free-radius circle stays on
        two entities: as a triangle part it lacks a second two-DOF hinge,
        and a pair partner must hold both of its entities."""
        rng = random.Random(3)
        graphs = [random_mixed_graph(random.Random(seed)) for seed in range(2000)]
        for n in range(4, 12):
            g = random_laman(n, rng.randrange(10**6), rng.random())
            a, b = rng.sample(g.entity_ids, 2)
            graphs += [g, build_graph(g.entities, g.constraints + (distance(a, b, 1.0),))]
        seen = Counter()
        for g in graphs:
            over = diagnose_pebble(g).verdict is Verdict.OVER_CONSTRAINED
            result = decompose(g)
            by_id = {c.id: c.entity_ids for c in materialised(result).all_clusters}
            for record in result.merge_log:
                if record.rule == "R2":
                    p, q = (by_id[k] for k in record.parents)
                    assert over or p == q
                    seen[over, p == q] += 1
        assert seen[False, True] >= 20 and seen[True, False] >= 5

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            decompose(build_graph([point("A")], []))


def sketch(*pairs):
    """A graph over points (lower-case ids) and lines (upper-case ids), in
    order of first use, with one constraint per ``"a b"`` pair, in order: a
    distance of 1 between two points, else an incidence."""
    ids = list(dict.fromkeys(e for pair in pairs for e in pair.split()))
    entities = [line(e) if e.isupper() else point(e) for e in ids]
    constraints = [distance(a, b, 1.0) if a.islower() and b.islower() else incidence(a, b)
                   for a, b in map(str.split, pairs)]
    return build_graph(entities, constraints)


# The fixpoint merges these last by the triangle rule over {u, v, b1, B},
# the base, {u, a1, a2, L} and the seed v-L, which share u, v and the line
# L; no entity outside the base holds two constraints into it.
HINGED = ("u v", "u b1", "v b1", "u B", "b1 B", "u a1", "u a2", "a1 a2", "a1 L", "a2 L", "v L")
# A triangle strip of eight points from a1, a larger cluster than HINGED's.
STRIP = ("a1 t", "a1 x1", "t x1", "t x2", "x1 x2", "x1 x3", "x2 x3", "x2 x4", "x3 x4", "x3 x5",
         "x4 x5", "x4 x6", "x5 x6")


# Fully reducible sketches whose plan is refused over a shared line.
REFUSED = [
    HINGED,
    # The merge's base is HINGED's cluster, which is read before the merge
    # checks its own shared entities, b1, a2 and the line N.
    HINGED + ("b1 c1", "b1 c2", "c1 c2", "c1 N", "c2 N", "a2 N"),
    # The merge's base is the strip, and HINGED's cluster shares the line B
    # with the seed t-B: the merge checks B before it reads HINGED's cluster.
    HINGED + STRIP + ("t B",),
]


class TestExtractPlan:
    @pytest.mark.parametrize("pairs, shared", zip(REFUSED, ["L", "L", "B"]),
                             ids=["hinged", "base-first", "own-check-first"])
    def test_recombination_over_a_shared_line_is_refused(self, pairs, shared):
        g = sketch(*pairs)
        result = decompose(g)
        assert result.reducibility is ReducibilityClass.FULLY_REDUCIBLE
        assert diagnose_pebble(g).verdict is Verdict.WELL_CONSTRAINED
        with pytest.raises(UnsupportedStepError, match=rf"^triangle recombination needs "
                                                       rf"shared points, got line '{shared}'$"):
            extract_plan(result, g)

    def test_a_refused_cluster_the_plan_does_not_read(self):
        # The root merge's base is the strip, from which every other entity
        # is placed in turn (a2 from a1 and t, then L, u, v, b1, B), so the
        # plan never reads the plan of its child that is HINGED's cluster.
        g = sketch(*HINGED, *STRIP, "t a2")
        result = decompose(g)
        assert diagnose_pebble(g).verdict is Verdict.WELL_CONSTRAINED
        children = [result.all_clusters[p] for p in result.final_clusters[0].merge.parents]
        assert set(sketch(*HINGED).entity_ids) in [c.entity_ids for c in children]
        plan = extract_plan(result, g)
        assert all(isinstance(s, PlaceByTwoLoci) for s in plan.steps)
        assert len(plan.steps) == g.n - 2

    def test_plans_match_the_reference_builder(self):
        # The builder assembles plans only where read; the reference builds
        # one for every cluster.  Plans must be equal, and refusals of the
        # same class with the same message.
        def built(build, result, g):
            try:
                return build(result, g)
            except UnsupportedStepError as exc:
                return type(exc), str(exc)

        graphs = [fixture(name) for name in fixture_names()]
        graphs += [random_laman(n, 100 * n + k, p_h2 / 10)
                   for n in range(4, 41) for p_h2 in range(7) for k in range(3)]
        graphs += [recombination_chain(k) for k in range(1, 6)]
        graphs += [nested_triangles(k) for k in range(1, 4)]
        graphs += [random_mixed_graph(random.Random(seed)) for seed in range(2000)]
        graphs += [sketch(*pairs) for pairs in REFUSED + [HINGED + STRIP + ("t a2",)]]
        compared = refused = 0
        for g in graphs:
            if g.n < 2:
                continue
            result = decompose(g)
            if result.reducibility is not ReducibilityClass.FULLY_REDUCIBLE:
                continue
            got = built(_build_plan, result, g)
            assert got == built(reference_build_plan, result, g)
            compared += 1
            refused += not isinstance(got, Plan)
        assert compared >= 400 and refused >= len(REFUSED)

    @pytest.mark.parametrize("g", [fixture("triangle"), random_laman(12, 1, 0.0)],
                             ids=["triangle", "laman-12"])
    def test_a_decomposition_of_another_graph_is_refused(self, g):
        spindle = fixture("moser-spindle")
        result = _fixpoint(spindle)  # not the one kept for the spindle's structure
        with pytest.raises(BadValueError,
                           match="^the decomposition is not one of this graph$") as err:
            extract_plan(result, g)
        assert err.value.reason is None
        assert extract_plan(result, spindle) == extract_plan(decompose(spindle), spindle)

    def test_triangle_plan_is_base_plus_one_placement(self):
        g = fixture("triangle")
        plan = extract_plan(decompose(g), g)
        assert len(plan.steps) == 1
        assert isinstance(plan.steps[0], PlaceByTwoLoci)
        assert plan.steps[0].target == "C"

    def test_moser_spindle_plan_shape(self):
        g = fixture("moser-spindle")
        plan = extract_plan(decompose(g), g)
        kinds = [type(s) for s in plan.steps]
        assert kinds == [PlaceByTwoLoci, PlaceByTwoLoci, TriangleMerge, AlignCluster]
        merge = plan.steps[2]
        assert set(merge.points) == {"O", "C", "F"}

    def test_quad_angle_aux_plan_is_sequential(self):
        g = fixture("quad-angle-aux")
        plan = extract_plan(decompose(g), g)
        assert all(isinstance(s, PlaceByTwoLoci) for s in plan.steps)
        assert len(plan.steps) == 5

    def test_three_prism_not_reducible(self):
        g = fixture("three-prism")
        with pytest.raises(NotReducibleError):
            extract_plan(decompose(g), g)

    def test_quad_angle_not_reducible(self):
        g = fixture("quad-angle")
        with pytest.raises(NotReducibleError):
            extract_plan(decompose(g), g)

    def test_over_constrained_graph_rejected(self):
        g = fixture("k4")
        with pytest.raises(NotReducibleError):
            extract_plan(decompose(g), g)

    def test_one_pebble_game_per_graph(self, monkeypatch):
        import gcs2d.rigidity

        games = []
        pebble_run = gcs2d.rigidity._pebble_run

        def counted(*args):
            games.append(args)
            return pebble_run(*args)

        monkeypatch.setattr(gcs2d.rigidity, "_pebble_run", counted)
        g = fixture("moser-spindle")
        assert diagnose_pebble(g).verdict is Verdict.WELL_CONSTRAINED
        extract_plan(decompose(g), g)
        assert len(games) == 1
        # An over-constrained graph that decomposes fully, never diagnosed
        # before: extract_plan plays the game itself and refuses the graph.
        k4 = fixture("k4")
        assert decompose(k4).reducibility is ReducibilityClass.FULLY_REDUCIBLE
        with pytest.raises(NotReducibleError, match="well-constrained"):
            extract_plan(decompose(k4), k4)
        assert len(games) == 2
        assert diagnose_pebble(k4).verdict is Verdict.OVER_CONSTRAINED
        assert len(games) == 2

    def test_plan_references_each_constraint_at_most_once(self):
        # Base + placement steps + aligned clusters must not share constraint
        # indices; whatever is left over is verification-only residual.
        rng = random.Random(9)
        graphs = [fixture(n) for n in ("triangle", "moser-spindle", "quad-angle-aux")]
        graphs += [random_laman(rng.randint(3, 9), rng.randrange(10**6)) for _ in range(10)]
        for g in graphs:
            result = decompose(g)
            if result.reducibility is not ReducibilityClass.FULLY_REDUCIBLE:
                continue
            owned_by_id = {c.id: c.owned_constraints for c in result.all_clusters}
            plan = extract_plan(result, g)
            seen = [plan.base_constraint]
            for step in plan.steps:
                if isinstance(step, PlaceByTwoLoci):
                    seen.extend(step.constraints)
                elif isinstance(step, AlignCluster):
                    seen.extend(owned_by_id[step.cluster])
            assert len(seen) == len(set(seen))
            assert set(seen) <= set(range(g.m))

    def test_fully_reducible_laman_graphs_extract(self):
        # Classification consistency: fully reducible well-constrained graphs
        # must yield a plan (or an explicit unsupported-step error; none of
        # these random point graphs should hit one).
        rng = random.Random(1)
        graphs = [fixture("moser-spindle")]
        graphs += [random_laman(rng.randint(3, 9), rng.randrange(10**6), rng.random())
                   for _ in range(20)]
        aligned = 0
        for g in graphs:
            result = decompose(g)
            if result.reducibility is not ReducibilityClass.FULLY_REDUCIBLE:
                continue
            plan = extract_plan(result, g)
            placed = set(g.constraints[plan.base_constraint].between)
            for step in plan.steps:
                if isinstance(step, PlaceByTwoLoci):
                    placed.add(step.target)
                elif isinstance(step, TriangleMerge):
                    placed.update(step.points)
                else:
                    owned = step.plan.owned_constraints
                    placed.update(e for i in owned for e in g.constraints[i].between)
                    aligned += 1
            assert placed == set(g.entity_ids)
        assert aligned


class TestStructureMemo:
    """Graphs of one structure share one diagnosis, decomposition and plan
    through the library API alone; another structure in between starts
    afresh, and a caller's own decomposition gets its own plan."""

    @staticmethod
    def analyse(g):
        result = decompose(g)
        return diagnose_pebble(g), result, extract_plan(result, g)

    @staticmethod
    def scaled(g, factor):
        return build_graph(g.entities, [Constraint(c.kind, c.between, c.value * factor)
                                        for c in g.constraints])

    def test_revalued_and_rescaled_copies_share_one_analysis(self, monkeypatch):
        spindle = fixture("moser-spindle")
        revalued = measured_graph(spindle, sample_embedding(spindle, random.Random(5)))
        assert revalued != spindle
        counts = count_structural_work(monkeypatch)
        first = self.analyse(spindle)
        for g in (revalued, self.scaled(spindle, 1e-10), self.scaled(spindle, 1e10)):
            assert all(got is kept for got, kept in zip(self.analyse(g), first))
        assert counts == {"games": 1, "fixpoints": 1, "plans": 1}

    def test_another_structure_in_between_is_analysed_afresh(self, monkeypatch):
        a, b = fixture("moser-spindle"), fixture("quad-angle-aux")
        counts = count_structural_work(monkeypatch)
        first = self.analyse(a)
        self.analyse(b)
        again = self.analyse(build_graph(a.entities, a.constraints))
        assert again == first and again[1] is not first[1] and again[2] is not first[2]
        assert counts == {"games": 3, "fixpoints": 3, "plans": 3}
        # A graph keeps the results it got, whatever was analysed since.
        assert all(got is kept for got, kept in zip(self.analyse(a), first))
        assert counts == {"games": 3, "fixpoints": 3, "plans": 3}

    def test_a_foreign_result_gets_its_own_plan(self, monkeypatch):
        g = fixture("moser-spindle")
        counts = count_structural_work(monkeypatch)
        kept = extract_plan(decompose(g), g)
        own = reference_decompose(g)
        assert own == materialised(decompose(g)) and own is not decompose(g)
        plan = extract_plan(own, g)
        assert plan == kept and plan is not kept and counts["plans"] == 2
        assert extract_plan(own, g) is plan and counts["plans"] == 2
        # A result whose root is an inner cluster gets that cluster's plan.
        inner = next(c for c in reversed(own.all_clusters[:-1]) if not c.is_seed)
        part = own._replace(final_clusters=(inner,))
        assert extract_plan(part, g).owned_constraints == inner.owned_constraints
        assert inner.owned_constraints != kept.owned_constraints and counts["plans"] == 3

    def test_a_root_merged_into_its_heir_is_refused(self):
        # Such a cluster keeps no sets, so no plan can own its constraints.
        g = fixture("moser-spindle")
        result = decompose(g)
        taken = [c for c in result.all_clusters if c.entity_ids is None]
        assert taken and all(c.owned_constraints is None for c in taken)
        with pytest.raises(BadValueError, match=f"^cluster {taken[0].id} was merged into its heir"):
            extract_plan(result._replace(final_clusters=(taken[0],)), g)

    def test_a_foreign_plan_gets_its_own_program(self, monkeypatch):
        g = fixture("moser-spindle")
        kept = extract_plan(decompose(g), g)
        counts = count_structural_work(monkeypatch)
        first = enumerate_solutions(kept, g)
        assert counts["programs"] == 1
        own = Plan(*kept)
        assert own == kept and own is not kept
        for _ in range(2):
            assert enumerate_solutions(own, g) == first and counts["programs"] == 2
        # The kept plan's program gave way to the foreign plan's.
        assert enumerate_solutions(kept, g) == first and counts["programs"] == 3

    def test_refusals_run_on_every_call(self, monkeypatch):
        g = fixture("moser-spindle")
        result = decompose(g)
        extract_plan(result, g)
        partial = result._replace(reducibility=ReducibilityClass.PARTIALLY_REDUCIBLE)
        for _ in range(2):
            with pytest.raises(NotReducibleError, match="partially_reducible"):
                extract_plan(partial, g)
        k4 = fixture("k4")
        counts = count_structural_work(monkeypatch)
        for _ in range(2):
            with pytest.raises(NotReducibleError, match="well-constrained"):
                extract_plan(decompose(k4), k4)
        assert counts == {"games": 1, "fixpoints": 1}

    def test_threads_alternating_two_structures_get_their_own(self):
        shapes = [fixture("moser-spindle"), fixture("quad-angle-aux")]
        expected = [self.analyse(g) for g in shapes]
        wrong: list[tuple] = []

        def worker(start: int) -> None:
            for i in range(300):
                k = (start + i) % 2
                g = build_graph(shapes[k].entities, shapes[k].constraints)
                try:
                    got = self.analyse(g)
                except Exception as exc:  # another structure's results may raise here
                    got = exc
                if got != expected[k]:
                    wrong.append((k, got))
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            threads = [threading.Thread(target=worker, args=(k % 2,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not wrong


def test_decompose_imports_nothing_from_solve():
    # Plans are structural: decomposition never calls into the numeric layer.
    source = Path(importlib.util.find_spec("gcs2d.decompose").origin)
    tree = ast.parse(source.read_text(encoding="utf-8"))
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.append(module)
            imported += [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported
    assert not [name for name in imported if "solve" in name.split(".")]
