import random

import pytest

import gcs2d.henneberg
from gcs2d import (
    ConstraintGraph,
    KindMismatchError,
    TooSmallError,
    Verdict,
    build_graph,
    diagnose_counting,
    diagnose_pebble,
    distance,
    dof,
    fixture,
    fixture_names,
    is_laman,
    line,
    point,
    random_laman,
    reduction_sequence,
)
from gcs2d.graph import angle, incidence
from gcs2d.rigidity import _pebble_run, is_laman_edges

from support import random_mixed_graph, reference_pebble_run, subset_violates, triangle_graph


def k4():
    ids = ["A", "B", "C", "D"]
    return build_graph(
        [point(v) for v in ids],
        [distance(a, b, 1.0) for i, a in enumerate(ids) for b in ids[i + 1 :]],
    )


def mutate_add_edge(g, rng):
    a, b = rng.sample(list(g.entity_ids), 2)
    return build_graph(g.entities, list(g.constraints) + [distance(a, b, 1.0)])


def mutate_remove_edge(g, rng):
    cons = list(g.constraints)
    del cons[rng.randrange(len(cons))]
    return build_graph(g.entities, cons)


class TestCounting:
    def test_triangle_well(self):
        assert diagnose_counting(triangle_graph(3, 4, 5)).verdict is Verdict.WELL_CONSTRAINED

    def test_k4_over_with_full_witness(self):
        d = diagnose_counting(k4())
        assert d.verdict is Verdict.OVER_CONSTRAINED
        assert d.witness == frozenset("ABCD")

    def test_path_under_deficit_one(self):
        g = build_graph(
            [point("A"), point("B"), point("C")],
            [distance("A", "B", 1.0), distance("B", "C", 1.0)],
        )
        d = diagnose_counting(g)
        assert d.verdict is Verdict.UNDER_CONSTRAINED
        assert d.deficit == 1

    def test_three_angle_lines_well(self):
        d = diagnose_counting(fixture("three-angle-triangle"))
        assert d.verdict is Verdict.WELL_CONSTRAINED

    def test_minimal_witness_for_k4_with_pendant(self):
        g = k4()
        g = build_graph(
            list(g.entities) + [point("E")],
            list(g.constraints) + [distance("D", "E", 1.0)],
        )
        d = diagnose_counting(g)
        assert d.witness == frozenset("ABCD")

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            diagnose_counting(build_graph([point("A")], []))


class TestPebble:
    def test_moser_spindle_well(self):
        g = fixture("moser-spindle")
        assert g.n == 7
        assert g.m == 2 * 7 - 3
        assert diagnose_pebble(g).verdict is Verdict.WELL_CONSTRAINED

    def test_duplicate_edge_over_with_pair_witness(self):
        g = build_graph(
            [point("A"), point("B"), point("C")],
            [
                distance("A", "B", 1.0),
                distance("B", "C", 1.0),
                distance("C", "A", 1.0),
                distance("A", "B", 1.0),
            ],
        )
        d = diagnose_pebble(g)
        assert d.verdict is Verdict.OVER_CONSTRAINED
        assert d.witness == frozenset("AB")

    def test_single_edge_well(self):
        g = build_graph([point("A"), point("B")], [distance("A", "B", 1.0)])
        assert diagnose_pebble(g).verdict is Verdict.WELL_CONSTRAINED

    def test_witnesses_are_genuine_violations(self):
        rng = random.Random(5)
        for _ in range(40):
            g = mutate_add_edge(random_laman(rng.randint(3, 8), rng.randrange(10**6)), rng)
            d = diagnose_pebble(g)
            if d.verdict is Verdict.OVER_CONSTRAINED:
                assert subset_violates(g, d.witness)

    def test_too_small(self):
        with pytest.raises(TooSmallError):
            diagnose_pebble(build_graph([point("A")], []))


class TestOracleEquivalence:
    def test_fixture_corpus(self):
        for name in (
            "triangle", "k4", "path3", "moser-spindle", "three-prism", "k33",
            "three-angle-triangle", "degenerate-triangle", "quad-angle",
            "quad-angle-aux", "cramer-castillon", "malfatti",
        ):
            g = fixture(name)
            assert diagnose_pebble(g).verdict is diagnose_counting(g).verdict, name

    def test_random_laman_and_perturbations(self):
        rng = random.Random(99)
        for _ in range(60):
            g = random_laman(rng.randint(2, 8), rng.randrange(10**6), rng.random())
            variants = [g]
            if g.n >= 3:
                variants.append(mutate_add_edge(g, rng))
                variants.append(mutate_remove_edge(g, rng))
            for variant in variants:
                assert diagnose_pebble(variant).verdict is diagnose_counting(variant).verdict

    def test_mixed_entity_graphs(self):
        from support import random_mixed_graph

        rng = random.Random(0)
        for _ in range(300):
            g = random_mixed_graph(rng)
            if g.n < 2:
                continue
            assert diagnose_pebble(g).verdict is diagnose_counting(g).verdict

    def test_edge_monotonicity(self):
        rng = random.Random(42)
        for _ in range(20):
            g = mutate_add_edge(random_laman(rng.randint(3, 7), rng.randrange(10**6)), rng)
            if diagnose_pebble(g).verdict is not Verdict.OVER_CONSTRAINED:
                continue
            again = mutate_add_edge(g, rng)
            assert diagnose_pebble(again).verdict is Verdict.OVER_CONSTRAINED

    def test_removing_any_edge_from_well_gives_deficit_one(self):
        rng = random.Random(17)
        for _ in range(10):
            g = random_laman(rng.randint(3, 8), rng.randrange(10**6))
            for i in range(g.m):
                cons = list(g.constraints)
                del cons[i]
                d = diagnose_pebble(build_graph(g.entities, cons))
                assert d.verdict is Verdict.UNDER_CONSTRAINED
                assert d.deficit == 1


class TestWitnessAndLaman:
    def test_witness_present_iff_over(self):
        assert diagnose_counting(k4()).witness == frozenset("ABCD")
        assert diagnose_counting(triangle_graph(3, 4, 5)).witness is None

    def test_is_laman_triangle(self):
        assert is_laman(triangle_graph(3, 4, 5))

    def test_is_laman_four_cycle_false(self):
        g = build_graph(
            [point(v) for v in "ABCD"],
            [distance(a, b, 1.0) for a, b in (("A", "B"), ("B", "C"), ("C", "D"), ("D", "A"))],
        )
        assert not is_laman(g)

    def test_is_laman_moser_spindle(self):
        assert is_laman(fixture("moser-spindle"))

    def test_is_laman_rejects_lines(self):
        g = build_graph([line("L1"), line("L2")], [angle("L1", "L2", 1.0)])
        with pytest.raises(KindMismatchError):
            is_laman(g)

    def test_is_laman_rejects_constraints_other_than_distances(self):
        # Only points, but build_graph refuses an incidence between two
        # points, so the graph is built directly.
        g = ConstraintGraph((point("A"), point("B")), (incidence("A", "B"),))
        with pytest.raises(KindMismatchError, match=r"^constraint \('A', 'B'\) is not a distance$"):
            is_laman(g)

    def test_raw_edge_check_matches_the_counting_oracle(self):
        # Laman graphs, and the same with one edge added, removed or repeated.
        rng = random.Random(17)
        for _ in range(60):
            g = random_laman(rng.randint(2, 9), rng.randrange(10**6), rng.random())
            for h in (g, mutate_add_edge(g, rng), mutate_remove_edge(g, rng),
                      build_graph(g.entities, list(g.constraints) + [g.constraints[0]])):
                expected = diagnose_counting(h).verdict is Verdict.WELL_CONSTRAINED
                edges = [c.between for c in h.constraints]
                assert is_laman_edges(list(h.entity_ids), edges) is expected
                assert is_laman(h) is expected


def game_input(g):
    """What ``_pebble_diagnosis`` hands the game: ids, DOF per id and edges."""
    dofs = {e.id: dof(e.kind) for e in g.entities}
    return list(g.entity_ids), dofs, [c.between for c in g.constraints]


class TestReferenceGame:
    """The game on indices returns the dict-based game's exact triple:
    verdict, witness and leftover pebbles."""

    @staticmethod
    def same_game(ids, dofs, edges):
        return _pebble_run(ids, dofs, edges) == reference_pebble_run(ids, dofs, edges)

    def test_fixtures(self):
        assert [name for name in fixture_names()
                if not self.same_game(*game_input(fixture(name)))] == []

    def test_mixed_entity_graphs(self):
        outcomes = []
        for seed in range(5000):
            args = game_input(random_mixed_graph(random.Random(seed)))
            assert self.same_game(*args), seed
            outcomes.append(_pebble_run(*args)[0])
        assert outcomes.count("over") == 1731  # so witnesses get compared

    def test_an_overloaded_edge_after_searches_from_arc_less_endpoints(self):
        # C-A gathers a pebble while C holds no out-arc yet: a search from
        # C reaches nothing and is not run.  D-C and D-B skip D so, and B-C
        # skips B; A-D, which overloads K4, skips A before its witness.
        ids = ["A", "B", "C", "D"]
        dofs = dict.fromkeys(ids, 2)
        edges = [("A", "B"), ("C", "A"), ("D", "C"), ("D", "B"), ("B", "C"), ("A", "D")]
        assert self.same_game(ids, dofs, edges)
        assert _pebble_run(ids, dofs, edges) == ("over", frozenset(ids), 0)
        assert _pebble_run(ids, dofs, edges[:-1]) == ("ok", None, 0)

    def test_laman_graphs_with_an_edge_removed_or_repeated(self):
        rng = random.Random(7)
        for n in range(3, 121):
            g = random_laman(n, n, (n % 4) / 4)
            ids, dofs, edges = game_input(g)
            removed = list(edges)
            del removed[rng.randrange(len(removed))]
            repeated = list(edges)
            repeated.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
            for variant in (edges, removed, repeated):
                assert self.same_game(ids, dofs, variant), n
            assert _pebble_run(ids, dofs, repeated)[0] == "over"

    def test_reduction_edge_lists(self, monkeypatch):
        checked = []
        is_laman_edges = gcs2d.henneberg.is_laman_edges

        def recorded(vertices, edges):
            checked.append((list(vertices), [tuple(e) for e in edges]))  # as the game unpacks them
            return is_laman_edges(vertices, edges)

        monkeypatch.setattr(gcs2d.henneberg, "is_laman_edges", recorded)
        rng = random.Random(3)
        for n in range(3, 40):
            g = random_laman(n, rng.randrange(10**6), rng.random())
            assert reduction_sequence(g) is not None
            assert reduction_sequence(mutate_add_edge(g, rng)) is None
        assert len(checked) > 200
        assert [k for k, (vertices, edges) in enumerate(checked)
                if not self.same_game(vertices, {v: 2 for v in vertices}, edges)] == []
