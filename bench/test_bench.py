"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import math
import random
import time
from itertools import combinations

import pytest

import checks
import run
import sketches
import spans
from gcs2d.decompose import decompose, decomposition_to_dict
from gcs2d.graph import graph_to_dict
from gcs2d.henneberg import fixture, random_laman


def _corpus(workload, seed):
    small = {
        "search-laman": lambda: sketches.search_laman(seed, 14),
        "decompose-laman": lambda: sketches.decompose_laman(seed, 3),
        "cli-catalog": lambda: sketches.cli_catalog(seed, 1)[:60],
    }
    return small[workload]()


def _as_placements(placed):
    out = {}
    for name, (kind, a, b) in placed.items():
        out[name] = {"point": [a, b]} if kind == "point" else {"line": {"theta": a, "c": b}}
    return out


# ---------------------------------------------------------------- generators


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    def key(corpus):
        return [(s.id, s.kind, s.n, s.text, s.expect) for s in corpus]

    assert key(_corpus(workload, 3)) == key(_corpus(workload, 3))
    assert key(_corpus(workload, 3)) != key(_corpus(workload, 4))


@pytest.mark.parametrize("n", [3, 30, 40, 120])
def test_embedding_is_separated_and_measures_consistently(n):
    doc = graph_to_dict(random_laman(n, 9, 0.0))
    placed = sketches.generic_embedding(doc, random.Random(n))
    points = [(x, y) for _, x, y in placed.values()]
    assert min(math.dist(p, q) for p, q in combinations(points, 2)) >= 0.4
    for scale in (1e-10, 1.0, 1e10):
        measured = sketches.measure(doc, placed, scale)
        scaled = {k: ("point", x * scale, y * scale) for k, (_, x, y) in placed.items()}
        sol = {"placements": _as_placements(scaled), "branches": []}
        assert checks.check_solutions(measured, [sol], 1e-9 * scale) is None


def test_embedding_puts_lines_through_their_points():
    doc = graph_to_dict(fixture("quad-angle-aux"))
    placed = sketches.generic_embedding(doc, random.Random(1))
    measured = sketches.measure(doc, placed)
    sol = {"placements": _as_placements(placed), "branches": []}
    assert checks.check_solutions(measured, [sol], 1e-9) is None


# ------------------------------------------------------------------ checkers


def test_residual_check_rejects_a_moved_point_and_a_repeated_selector():
    doc = graph_to_dict(random_laman(6, 2, 0.0))
    placed = sketches.generic_embedding(doc, random.Random(2))
    doc = sketches.measure(doc, placed)
    good = {"placements": _as_placements(placed), "branches": [0]}
    assert checks.check_solutions(doc, [good], 1e-9) is None
    moved = json.loads(json.dumps(good))
    moved["placements"]["p3"]["point"][0] += 1e-6
    assert checks.check_solutions(doc, [moved], 1e-9) is not None
    assert checks.check_solutions(doc, [good, good], 1e-9) is not None
    partial = json.loads(json.dumps(good))
    del partial["placements"]["p1"]
    assert checks.check_solutions(doc, [partial], 1e-9) is not None


def test_recount_matches_the_fixture_table():
    for name, known in checks.KNOWN.items():
        truth = checks.recount(graph_to_dict(fixture(name)))
        if "verdict" in known:
            assert truth["verdict"] == known["verdict"], name
        if "deficit" in known:
            assert truth["deficit"] == known["deficit"], name


def test_analysis_check_rejects_wrong_verdicts():
    k4 = graph_to_dict(fixture("k4"))
    truth = checks.recount(k4)
    assert checks.check_analysis(k4, {"diagnosis": "over", "witness": ["A", "B", "C", "D"]}, truth) is None
    assert checks.check_analysis(k4, {"diagnosis": "over", "witness": ["A", "B"]}, truth) is not None
    assert checks.check_analysis(k4, {"diagnosis": "well"}, truth) is not None
    path3 = graph_to_dict(fixture("path3"))
    truth = checks.recount(path3)
    assert checks.check_analysis(path3, {"diagnosis": "under", "deficit": 1}, truth) is None
    assert checks.check_analysis(path3, {"diagnosis": "under", "deficit": 2}, truth) is not None


def test_decomposition_check_rejects_corruptions():
    g = fixture("moser-spindle")
    doc = graph_to_dict(g)
    good = decomposition_to_dict(decompose(g))
    assert checks.check_decomposition(doc, good, over=False) is None

    dropped = json.loads(json.dumps(good))
    dropped["final_clusters"][0]["constraints"].pop()
    assert checks.check_decomposition(doc, dropped, over=False) is not None

    prism = fixture("three-prism")
    split = decomposition_to_dict(decompose(prism))
    twice = json.loads(json.dumps(split))
    seed = next(c for c in twice["final_clusters"] if c["seed"])
    seed["constraints"] *= 2
    assert checks.check_decomposition(graph_to_dict(prism), twice, over=False) is not None

    relabelled = json.loads(json.dumps(good))
    relabelled["class"] = "partially_reducible"
    assert checks.check_decomposition(doc, relabelled, over=False) is not None

    assert checks.check_decomposition(graph_to_dict(prism), split, over=False) is None
    stolen = json.loads(json.dumps(split))
    merged = next(c for c in stolen["final_clusters"] if not c["seed"])
    seed = next(c for c in stolen["final_clusters"] if c["seed"])
    merged["constraints"].append(seed["constraints"].pop())
    merged["entities"] = sorted(set(merged["entities"]) | set(seed["entities"]))
    assert checks.check_decomposition(graph_to_dict(prism), stolen, over=False) is not None


def test_fixpoint_check_rejects_a_decomposition_that_stopped_early():
    def seeds_only(doc):
        final = [{"id": i, "entities": sorted(c["between"]), "constraints": [i], "seed": True}
                 for i, c in enumerate(doc["constraints"])]
        return {"class": "irreducible", "nontrivial_cluster_count": 0,
                "final_clusters": final, "merge_log": []}

    k33 = fixture("k33")
    assert checks.check_decomposition(graph_to_dict(k33), decomposition_to_dict(decompose(k33)),
                                      over=False) is None
    # Three edges pairwise sharing single points: the triangle rule applies.
    triangle = graph_to_dict(fixture("triangle"))
    assert checks.check_decomposition(triangle, seeds_only(triangle), over=False) is not None
    # Two edges between the same two points: the pair rule applies.
    a, b = triangle["constraints"][0]["between"]
    doubled = {"entities": [e for e in triangle["entities"] if e["id"] in (a, b)],
               "constraints": [triangle["constraints"][0]] * 2}
    assert checks.check_decomposition(doubled, seeds_only(doubled), over=True) is not None


def test_realization_check_rejects_repeats_and_a_lost_embedding():
    doc = graph_to_dict(random_laman(6, 2, 0.0))
    embedding = {k: [x, y] for k, (_, x, y) in
                 sketches.generic_embedding(doc, random.Random(2)).items()}

    def solution(points):
        return {"placements": {k: {"point": p} for k, p in points.items()}, "branches": []}

    moved = {k: [x + 1.0, y - 2.0] for k, (x, y) in embedding.items()}
    mirrored = {k: [-x, y] for k, (x, y) in embedding.items()}
    assert checks.check_realizations(embedding, [solution(moved), solution(mirrored)], 2) is None
    assert checks.check_realizations(embedding, [solution(embedding), solution(moved)], 2) is not None
    # Fewer than the limit: the embedding (here its mirror image) must be among them.
    assert checks.check_realizations(embedding, [solution(mirrored)], 16) is None
    bent = dict(embedding)
    last = sorted(bent)[-1]
    bent[last] = [bent[last][0] + 0.5, bent[last][1]]
    assert checks.check_realizations(embedding, [solution(bent)], 16) is not None
    assert checks.check_realizations(embedding, [solution(bent)], 1) is None


def test_known_answer_check_rejects_wrong_counts_and_reasons():
    two = [{"branches": [0]}, {"branches": [1]}]
    assert checks.check_solve_answer(2, two, None) is None
    assert checks.check_solve_answer(2, two[:1], None) is not None
    assert checks.check_solve_answer("under_determined", None, "under_determined") is None
    assert checks.check_solve_answer("under_determined", None, "empty_intersection") is not None
    assert checks.check_solve_answer("not_reducible", two, None) is not None


def test_scaled_copies_must_keep_the_k0_count():
    catalog = [s for s in sketches.cli_catalog(1, 1) if s.kind == "scaled"][:6]
    results = {s.id: run.Result(0.0, "ok", {"selectors": [[0], [1]]}) for s in catalog}
    results[catalog[3].id].facts["selectors"] = [[0]]
    run.check_scaled_groups(catalog, results)
    assert [r.outcome.startswith("scale") for r in results.values()] == [
        False, False, False, True, False, False]


# ------------------------------------------------------------------ the loop


def test_deadline_interrupts_a_slow_sketch():
    def slow(api, text, facts):
        time.sleep(2.0)
        return ""

    sketch = sketches.Sketch("x", "laman", 3, "{}")
    res = run.run_direct(slow, 0.05, sketch, None, None)
    assert res.outcome == "deadline"
    assert res.latency < 1.0


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_and_untraced_runs_agree(workload):
    corpus = _corpus(workload, 5)
    tracer = spans.Tracer()
    plain, traced, _ = run.run_pass(run.WORKLOADS[workload], corpus, check=True, tracer=tracer)
    assert not any(r.outcome.startswith("wrong") for r in plain.values())
    again, _, _ = run.run_pass(run.WORKLOADS[workload], corpus, check=False)
    for sketch in corpus:
        a, b = plain[sketch.id], traced[sketch.id]
        if "deadline" in (a.outcome, b.outcome):
            continue
        assert a.output == b.output == again[sketch.id].output, sketch.id
    names = {name for _, name, *_ in tracer.spans}
    assert {"graph.parse", "rigidity.diagnose_pebble", "decompose.decompose"} <= names
    assert all(end >= start for _, _, start, end, _ in tracer.spans)
    assert {sketch for sketch, *_ in tracer.spans} <= {s.id for s in corpus}


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["s", "cli.analyze", 0.0, 1.0, -1], ["s", "graph.parse", 0.2, 0.5, 0]]
    busy = tracer.self_time_by_layer()
    assert busy["cli"] == pytest.approx(0.7)
    assert busy["graph"] == pytest.approx(0.3)


def test_gauge_divides_out_machine_speed_only():
    slow = run.Result(0.010, gauge=2 * run.GAUGE_SECONDS)
    assert slow.normalised == pytest.approx(0.005)
    corpus = _corpus("decompose-laman", 1)
    results, _, wall = run.run_pass(run.WORKLOADS["decompose-laman"], corpus, check=False)
    assert wall > 0
    assert all(r.gauge != run.GAUGE_SECONDS and r.gauge > 0 for r in results.values())
