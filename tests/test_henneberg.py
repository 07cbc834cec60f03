import random
import re
from collections import Counter

import pytest

from gcs2d import (
    H1,
    H2,
    BadValueError,
    DuplicateIdError,
    GcsError,
    HennebergSequence,
    KindMismatchError,
    MissingEdgeError,
    UnknownFixtureError,
    Verdict,
    build_graph,
    diagnose_pebble,
    distance,
    extend_h1,
    extend_h2,
    fixture,
    fixture_names,
    is_laman,
    point,
    random_laman,
    reduction_sequence,
    replay_sequence,
)


def single_edge(a="A", b="B"):
    return build_graph([point(a), point(b)], [distance(a, b, 1.0)])


def extend(g, step):
    if isinstance(step, H1):
        return extend_h1(g, step.new, *step.attach)
    return extend_h2(g, step.new, step.split_edge, step.third)


def edge_multiset(g):
    return Counter(frozenset(c.between) for c in g.constraints)


class TestExtend:
    def test_h1_from_edge_gives_triangle(self):
        g = extend_h1(single_edge(), "C", "A", "B")
        assert g.n == 3
        assert g.m == 3
        assert is_laman(g)

    def test_h1_on_triangle(self):
        g = extend_h1(fixture("triangle"), "D", "A", "B")
        assert (g.n, g.m) == (4, 5)
        assert is_laman(g)

    def test_h1_duplicate_id(self):
        with pytest.raises(DuplicateIdError):
            extend_h1(single_edge(), "A", "A", "B")

    def test_h2_on_triangle(self):
        g = extend_h2(fixture("triangle"), "D", ("A", "B"), "C")
        assert (g.n, g.m) == (4, 5)
        assert is_laman(g)
        assert frozenset(("A", "B")) not in edge_multiset(g)

    def test_h2_then_h1_stays_laman(self):
        g = extend_h2(fixture("triangle"), "D", ("A", "B"), "C")
        g = extend_h1(g, "E", "A", "D")
        assert is_laman(g)

    def test_h2_missing_edge(self):
        g = fixture("path3")
        with pytest.raises(MissingEdgeError):
            extend_h2(g, "D", ("A", "C"), "B")

    def test_h2_third_must_differ(self):
        with pytest.raises(BadValueError):
            extend_h2(fixture("triangle"), "D", ("A", "B"), "A")

    def test_closure_under_random_legal_operations(self):
        rng = random.Random(0)
        g = single_edge()
        for i in range(12):
            new = f"v{i}"
            ids = list(g.entity_ids)
            if len(ids) >= 3 and rng.random() < 0.5:
                c = g.constraints[rng.randrange(g.m)]
                u, w = c.between
                z = rng.choice([x for x in ids if x not in (u, w)])
                g = extend_h2(g, new, (u, w), z)
            else:
                u, w = rng.sample(ids, 2)
                g = extend_h1(g, new, u, w)
            assert is_laman(g)


class TestRandomLaman:
    def test_base_case(self):
        g = random_laman(2, seed=0)
        assert (g.n, g.m) == (2, 1)

    def test_edge_count_and_rigidity(self):
        g = random_laman(7, seed=1)
        assert g.m == 11
        assert is_laman(g)

    def test_deterministic_per_seed(self):
        assert random_laman(9, 4, 0.4) == random_laman(9, 4, 0.4)
        assert random_laman(9, 4, 0.4) != random_laman(9, 5, 0.4)

    def test_bad_parameters(self):
        with pytest.raises(BadValueError):
            random_laman(1, 0)
        with pytest.raises(BadValueError):
            random_laman(5, 0, p_h2=1.5)

    def test_property_sweep(self):
        for seed in range(30):
            g = random_laman(10, seed, p_h2=0.5)
            assert g.m == 17
            assert is_laman(g)


class TestReduction:
    def test_triangle_reduces_in_one_step(self):
        seq = reduction_sequence(fixture("triangle"))
        assert seq is not None
        assert len(seq.steps) == 1

    def test_moser_spindle_reduces_and_replays(self):
        g = fixture("moser-spindle")
        seq = reduction_sequence(g)
        assert seq is not None
        assert len(seq.steps) == 5
        assert edge_multiset(replay_sequence(seq)) == edge_multiset(g)

    def test_four_cycle_has_no_reduction(self):
        g = build_graph(
            [point(v) for v in "ABCD"],
            [distance(a, b, 1.0) for a, b in (("A", "B"), ("B", "C"), ("C", "D"), ("D", "A"))],
        )
        assert reduction_sequence(g) is None

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            reduction_sequence(fixture("three-angle-triangle"))

    def test_random_graphs_replay_exactly(self):
        for seed in range(12):
            g = random_laman(8, seed, p_h2=0.6)
            seq = reduction_sequence(g)
            assert seq is not None
            replay = replay_sequence(seq)
            assert set(replay.entity_ids) == set(g.entity_ids)
            assert edge_multiset(replay) == edge_multiset(g)


    def test_replay_equals_extending_step_by_step(self):
        rng = random.Random(12)
        for _ in range(40):
            seq = reduction_sequence(random_laman(rng.randint(2, 30), rng.randrange(10**6),
                                                  rng.random()))
            g = single_edge(*seq.base_edge)
            for step in seq.steps:
                g = extend(g, step)
            assert replay_sequence(seq) == g

    @pytest.mark.parametrize(
        "bad",
        [H1("C", ("A", "B")), H1("E", ("A", "Z")), H1("E", ("A", "A")),
         H2("E", ("A", "D"), "A"), H2("E", ("A", "Z"), "C"), H2("E", ("A", "B"), "C")],
        ids=["duplicate-id", "unknown-vertex", "repeated-vertex", "third-on-split-edge",
             "unknown-split-vertex", "missing-split-edge"],
    )
    def test_replay_makes_the_checks_of_extend(self, bad):
        prefix = (H1("C", ("A", "B")), H2("D", ("A", "B"), "C"))
        with pytest.raises(GcsError) as expected:
            extend(replay_sequence(HennebergSequence(("A", "B"), prefix)), bad)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            replay_sequence(HennebergSequence(("A", "B"), prefix + (bad,)))

    def test_long_reduction_replays_without_recursion(self):
        # 1198 removals: deeper than the interpreter's default recursion limit.
        g = random_laman(1200, 1, 0.0)
        seq = reduction_sequence(g)
        assert seq is not None
        replay = replay_sequence(seq)
        assert set(replay.entity_ids) == set(g.entity_ids)
        assert edge_multiset(replay) == edge_multiset(g)


class TestFixtures:
    @pytest.mark.parametrize(
        "name,n,m",
        [
            ("triangle", 3, 3),
            ("k4", 4, 6),
            ("path3", 3, 2),
            ("moser-spindle", 7, 11),
            ("three-prism", 6, 9),
            ("k33", 6, 9),
            ("three-angle-triangle", 3, 3),
            ("degenerate-triangle", 3, 3),
            ("quad-angle", 6, 9),
            ("quad-angle-aux", 7, 11),
            ("cramer-castillon", 11, 19),
            ("malfatti", 6, 12),
        ],
    )
    def test_catalog_counts(self, name, n, m):
        g = fixture(name)
        assert (g.n, g.m) == (n, m)

    def test_catalog_is_complete(self):
        assert len(fixture_names()) == 12

    def test_unknown_name(self):
        with pytest.raises(UnknownFixtureError):
            fixture("dodecahedron")

    @pytest.mark.parametrize(
        "name,verdict",
        [
            ("triangle", Verdict.WELL_CONSTRAINED),
            ("k4", Verdict.OVER_CONSTRAINED),
            ("path3", Verdict.UNDER_CONSTRAINED),
            ("moser-spindle", Verdict.WELL_CONSTRAINED),
            ("three-angle-triangle", Verdict.WELL_CONSTRAINED),
            ("quad-angle", Verdict.WELL_CONSTRAINED),
            ("quad-angle-aux", Verdict.WELL_CONSTRAINED),
            ("cramer-castillon", Verdict.WELL_CONSTRAINED),
            ("malfatti", Verdict.WELL_CONSTRAINED),
        ],
    )
    def test_fixture_diagnoses(self, name, verdict):
        assert diagnose_pebble(fixture(name)).verdict is verdict
