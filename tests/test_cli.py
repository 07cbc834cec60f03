import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gcs2d.cli
import gcs2d.errors
import gcs2d.graph
from gcs2d import (
    decompose,
    execute,
    extract_plan,
    fixture,
    serialize,
    solution_from_dict,
    solution_to_dict,
    verify,
)
from gcs2d.cli import main
from gcs2d.graph import (
    Constraint,
    build_graph,
    distance,
    fixed_circle,
    free_circle,
    incidence,
    line,
    point,
    point_line_distance,
    tangency,
)

from support import (
    count_structural_work,
    grid_embedding,
    measured_graph,
    sample_embedding,
    triangle_graph,
)

decompose_module = importlib.import_module("gcs2d.decompose")  # gcs2d.decompose is the function


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(serialize(triangle_graph(3, 4, 5)), encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_well(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "analyze", triangle_file)
        assert code == 0
        assert json.loads(out) == {"diagnosis": "well"}

    def test_over_with_witness(self, capsys, tmp_path):
        ids = ["A", "B", "C", "D"]
        g = build_graph(
            [point(v) for v in ids],
            [distance(a, b, 1.0) for i, a in enumerate(ids) for b in ids[i + 1 :]],
        )
        path = tmp_path / "k4.json"
        path.write_text(serialize(g), encoding="utf-8")
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 2
        doc = json.loads(out)
        assert doc["diagnosis"] == "over"
        assert doc["witness"] == ["A", "B", "C", "D"]

    def test_under_with_deficit(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, "fixture", "path3"
        )
        code, out, _ = run_cli(capsys, "analyze", "-", stdin=out, monkeypatch=monkeypatch)
        assert code == 2
        assert json.loads(out) == {"diagnosis": "under", "deficit": 1}

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 1
        assert out == ""
        assert err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/no/such/file.json")
        assert code == 1
        assert err


class TestClassify:
    @pytest.mark.parametrize(
        "name,klass",
        [
            ("triangle", "fully_reducible"),
            ("three-prism", "partially_reducible"),
            ("k33", "irreducible"),
        ],
    )
    def test_classes(self, capsys, monkeypatch, name, klass):
        _, graph_json, _ = run_cli(capsys, "fixture", name)
        code, out, _ = run_cli(capsys, "classify", "-", stdin=graph_json, monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["class"] == klass
        assert "merge_log" in doc and "final_clusters" in doc


class TestSolve:
    def test_all_yields_two_triangle_solutions(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "solve", triangle_file, "--all")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["solutions"]) == 2
        placements = doc["solutions"][0]["placements"]
        assert placements["A"]["point"] == [0.0, 0.0]

    def test_a_bare_solve_takes_the_first_solution_of_the_walk(self, capsys, tmp_path):
        # On most measured sketches root 0 at some step leads nowhere (here
        # the 6-point sketch of the CI step): a bare solve returns what
        # --all --limit 1 returns, and a replay of its branches gives it
        # again, where one path of roots 0 ends in an empty intersection.
        sketches = 0
        for n in range(6, 17):
            for seed in range(5):
                for p_h2 in (0.0, 0.5):
                    g = gcs2d.random_laman(n, seed, p_h2)
                    g = measured_graph(g, grid_embedding(g, random.Random(1000 * n + seed)))
                    path = tmp_path / "sketch.json"
                    path.write_text(serialize(g), encoding="utf-8")
                    code, out, _ = run_cli(capsys, "solve", str(path))
                    if json.loads(out).get("error", {}).get("reason") == "not_reducible":
                        continue
                    assert (code, out) == run_cli(capsys, "solve", str(path), "--all",
                                                  "--limit", "1")[:2]
                    [found] = json.loads(out)["solutions"]
                    selector = ",".join(map(str, found["branches"]))
                    assert run_cli(capsys, "solve", str(path), "--branch", selector)[:2] == (0, out)
                    if (n, seed, p_h2) == (6, 5, 0.5):
                        code, out, _ = run_cli(capsys, "solve", str(path), "--branch", "0")
                        assert code == 2 and found["branches"] == [0, 1, 0, 0]
                        assert json.loads(out)["error"]["reason"] == "empty_intersection"
                    sketches += 1
        assert sketches >= 60

    @pytest.mark.parametrize("limit", ["9223372036854775808", "100000000000000000000"])
    def test_a_limit_past_every_walk_takes_every_solution(self, capsys, triangle_file, limit):
        code, out, _ = run_cli(capsys, "solve", triangle_file, "--all", "--limit", limit)
        assert code == 0
        assert len(json.loads(out)["solutions"]) == 2

    def test_branch_flag_selects_root(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "solve", triangle_file, "--branch", "1")
        assert code == 0
        doc = json.loads(out)
        c = doc["solutions"][0]["placements"]["C"]["point"]
        assert c[1] == pytest.approx(-4.0)

    def test_emit_plan(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "solve", triangle_file, "--all", "--emit-plan")
        assert code == 0
        doc = json.loads(out)
        assert doc["plan"]["steps"][0]["type"] == "place_by_two_loci"

    def test_under_determined_reason(self, capsys, monkeypatch):
        _, graph_json, _ = run_cli(capsys, "fixture", "three-angle-triangle")
        code, out, _ = run_cli(capsys, "solve", "-", stdin=graph_json, monkeypatch=monkeypatch)
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "under_determined"

    def test_under_determined_reason_at_zero_tolerance(self, capsys, monkeypatch):
        # The base's angle holds only up to rounding, which --tol 0 does not
        # forgive, but the base is checked at the leaves: L3's step, reached
        # first, names the verdict.
        _, graph_json, _ = run_cli(capsys, "fixture", "three-angle-triangle")
        code, out, _ = run_cli(capsys, "solve", "-", "--all", "--tol", "0", stdin=graph_json,
                               monkeypatch=monkeypatch)
        assert code == 2
        error = json.loads(out)["error"]
        assert (error["reason"], error["entity"]) == ("under_determined", "L3")

    def test_not_reducible_reason(self, capsys, monkeypatch):
        _, graph_json, _ = run_cli(capsys, "fixture", "three-prism")
        code, out, _ = run_cli(capsys, "solve", "-", stdin=graph_json, monkeypatch=monkeypatch)
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "not_reducible"

    def test_empty_intersection_reason(self, capsys, tmp_path):
        path = tmp_path / "impossible.json"
        path.write_text(serialize(triangle_graph(1, 1, 3)), encoding="utf-8")
        code, out, _ = run_cli(capsys, "solve", str(path), "--all")
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "empty_intersection"

    def test_residual_failure_has_the_same_reason_with_and_without_all(self, capsys, tmp_path):
        # At a 1e10 length scale the spindle's residuals (~4e-6) exceed the
        # default tolerance: both modes report it as a negative verdict.
        g = fixture("moser-spindle")
        scaled = build_graph(
            g.entities, [Constraint(c.kind, c.between, c.value * 1.37e10) for c in g.constraints]
        )
        path = tmp_path / "spindle-1e10.json"
        path.write_text(serialize(scaled), encoding="utf-8")
        for extra in (("--all",), ()):
            code, out, _ = run_cli(capsys, "solve", str(path), *extra)
            assert code == 2
            assert json.loads(out)["error"]["reason"] == "verification_failed"

    def test_over_constrained_gate(self, capsys, monkeypatch):
        _, graph_json, _ = run_cli(capsys, "fixture", "k4")
        code, out, _ = run_cli(capsys, "solve", "-", stdin=graph_json, monkeypatch=monkeypatch)
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "over_constrained"

    def test_tolerance_env_override(self, capsys, triangle_file, monkeypatch):
        monkeypatch.setenv("GCS_TOL", "1e-1")
        code, _, _ = run_cli(capsys, "solve", triangle_file, "--all")
        assert code == 0

    @pytest.mark.parametrize("extra", [("--all",), ()])
    def test_lengths_past_1e154_solve(self, capsys, tmp_path, extra):
        # |AB|^2 overflows at this scale, so the roots are found in units of
        # the largest length; C once landed at (NaN, NaN).
        path = tmp_path / "triangle-1e160.json"
        path.write_text(serialize(triangle_graph(3e160, 4e160, 5e160)), encoding="utf-8")
        code, out, _ = run_cli(capsys, "solve", str(path), *extra)
        assert code == 0
        solutions = strict_json(out)["solutions"]
        assert [s["branches"] for s in solutions] == ([[0], [1]] if extra else [[0]])
        for s, y in zip(solutions, (4e160, -4e160)):
            x_c, y_c = s["placements"]["C"]["point"]
            assert abs(x_c) <= 1e-15 * 4e160 and y_c == pytest.approx(y, rel=1e-15)

    def test_line_and_circle_past_1e154_solve(self, capsys, tmp_path):
        # B lies on the circle of radius |AB| about A and on a parallel to L:
        # that step squared lengths near 1e321 and exited 2 with "residual nan".
        g = build_graph([line("L"), point("A"), point("B")],
                        [incidence("A", "L"), distance("A", "B", 5e160),
                         point_line_distance("B", "L", 3e160)])
        path = tmp_path / "line-circle-1e160.json"
        path.write_text(serialize(g), encoding="utf-8")
        code, out, _ = run_cli(capsys, "solve", str(path), "--all")
        assert code == 0
        solutions = strict_json(out)["solutions"]
        # A at the origin and L along the x axis: B at (+-4e160, +-3e160).
        assert [s["branches"] for s in solutions] == [[0], [1], [2], [3]]
        corners = sorted(tuple(s["placements"]["B"]["point"]) for s in solutions)
        assert [c for corner in corners for c in corner] == pytest.approx(
            [-4e160, -3e160, -4e160, 3e160, 4e160, -3e160, 4e160, 3e160], rel=1e-15)


class TestGenerateAndFixture:
    def test_generate_emits_laman_graph(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--n", "7", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entities"]) == 7
        assert len(doc["constraints"]) == 11

    def test_generate_rejects_tiny_n(self, capsys):
        code, out, err = run_cli(capsys, "generate", "--n", "1")
        assert code == 1
        assert err

    def test_fixture_round_trips_through_analyze(self, capsys, monkeypatch):
        _, graph_json, _ = run_cli(capsys, "fixture", "moser-spindle")
        doc = json.loads(graph_json)
        assert len(doc["entities"]) == 7
        assert len(doc["constraints"]) == 11
        code, out, _ = run_cli(capsys, "analyze", "-", stdin=graph_json, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out) == {"diagnosis": "well"}

    def test_unknown_fixture(self, capsys):
        code, _, err = run_cli(capsys, "fixture", "enneagon")
        assert code == 1
        assert "unknown fixture" in err


class TestRender:
    def test_dot_output(self, capsys, triangle_file):
        code, out, _ = run_cli(capsys, "render", triangle_file, "--format", "dot")
        assert code == 0
        assert out.startswith("graph")
        assert out.count("--") == 3

    def test_svg_with_solution(self, capsys, triangle_file, tmp_path):
        code, solved, _ = run_cli(capsys, "solve", triangle_file, "--all")
        sol_path = tmp_path / "sols.json"
        sol_path.write_text(solved, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "render", triangle_file, "--format", "svg", "--solution", str(sol_path)
        )
        assert code == 0
        assert out.startswith("<svg")

    def test_svg_of_solved_circles(self, capsys, tmp_path):
        path = tmp_path / "circles.json"
        g = build_graph([fixed_circle("K1", 1.0), fixed_circle("K2", 2.0)], [tangency("K1", "K2")])
        path.write_text(serialize(g), encoding="utf-8")
        code, solved, _ = run_cli(capsys, "solve", str(path))
        assert code == 0
        [solution] = json.loads(solved)["solutions"]
        assert solution["placements"]["K2"] == {"circle": {"center": [3.0, 0.0], "r": 2.0}}
        sol_path = tmp_path / "sols.json"
        sol_path.write_text(solved, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "render", str(path), "--format", "svg", "--solution", str(sol_path)
        )
        assert code == 0
        assert out.count('fill="none" stroke="darkseagreen"') == 2
        assert ">K1</text>" in out and ">K2</text>" in out

    def test_svg_requires_solution(self, capsys, triangle_file):
        code, _, err = run_cli(capsys, "render", triangle_file, "--format", "svg")
        assert code == 1

    def test_non_verifying_solution_rejected(self, capsys, triangle_file, tmp_path):
        bad = {
            "placements": {
                "A": {"point": [0.0, 0.0]},
                "B": {"point": [3.0, 0.0]},
                "C": {"point": [0.0, 4.5]},
            },
            "branches": [],
        }
        sol_path = tmp_path / "bad.json"
        sol_path.write_text(json.dumps(bad), encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "render", triangle_file, "--format", "svg", "--solution", str(sol_path)
        )
        assert code == 2
        assert json.loads(out)["error"]["reason"] == "verification_failed"

    def test_nan_solution_rejected(self, capsys, triangle_file, tmp_path):
        sol_path = tmp_path / "nan.json"
        sol_path.write_text(
            '{"placements": {"A": {"point": [0, 0]}, "B": {"point": [3, 0]},'
            ' "C": {"point": [NaN, NaN]}}}', encoding="utf-8"
        )
        code, out, _ = run_cli(
            capsys, "render", triangle_file, "--format", "svg", "--solution", str(sol_path)
        )
        assert code == 2
        assert strict_json(out)["error"] == {"reason": "verification_failed",
                                             "max_abs_residual": None}


def strict_json(text):
    """Parse JSON that holds no NaN or Infinity token."""
    def reject(token):
        raise AssertionError(f"stdout holds {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv, code", [
    (("analyze", "{triangle}"), 0),
    (("analyze", "{k4}"), 2),
    (("classify", "{moser}"), 0),
    (("solve", "{moser}", "--all", "--emit-plan"), 0),
    (("solve", "{moser}", "--branch", "1,1,0,1,0"), 0),
    (("generate", "--n", "12", "--seed", "1"), 0),
    (("fixture", "moser-spindle"), 0),
    (("render", "{triangle}", "--format", "svg", "--solution", "{nan}"), 2),
], ids=["analyze", "analyze-over", "classify", "solve-all-plan", "solve-branch", "generate",
        "fixture", "error-null-residual"])
def test_stdout_is_the_standard_indented_json(capsys, tmp_path, argv, code):
    # The CLI encodes JSON itself before Python 3.13 (graph.indented_json);
    # every command's stdout must be what json.dumps(..., indent=2) gives.
    files = {"triangle": serialize(triangle_graph(3, 4, 5)), "k4": serialize(fixture("k4")),
             "moser": serialize(fixture("moser-spindle")),
             "nan": '{"placements": {"A": {"point": [0, 0]}, "B": {"point": [3, 0]},'
                    ' "C": {"point": [NaN, NaN]}}}'}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    paths = {name: str(tmp_path / f"{name}.json") for name in files}
    got, out, _ = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert got == code
    assert out == json.dumps(strict_json(out), indent=2) + "\n"
    if argv[0] == "render":
        assert json.loads(out)["error"]["max_abs_residual"] is None


# cli-catalog sketch c00088 (seed 804): a moser-spindle at about 1e-8 scale
# whose measured lengths no conformation of one cluster fits.
SPINDLE_1E8 = {
    "entities": [{"id": v, "kind": "point"} for v in "OABCDEF"],
    "constraints": [
        {"kind": "distance", "between": list(pair), "value": value}
        for pair, value in (
            ("OA", 8.434051238987323e-09), ("OB", 1.4253902772658273e-08),
            ("AB", 8.134566253812927e-09), ("AC", 1.0628795158391376e-08),
            ("BC", 7.755339173950591e-09), ("OD", 1.5330342892356925e-08),
            ("OE", 8.379943365855547e-09), ("DE", 2.070916200017833e-08),
            ("DF", 7.908587998876984e-09), ("EF", 1.2982273443021738e-08),
            ("CF", 2.0772741820249455e-08),
        )
    ],
}


class TestErrorPath:
    @pytest.mark.parametrize("extra", [("--all",), ("--branch", "0")])
    def test_alignment_dead_end_is_an_empty_intersection(self, capsys, tmp_path, extra):
        # A replay of root 0 at every step checks no residual and ends at
        # the alignment.  Enumeration checks each root where it is placed:
        # at this scale the absolute EPS takes F's local copy, in the walk
        # of the cluster the alignment reads, at a tangent root that misses
        # D-F and E-F, which its step owns, by 1.1e-10, before the alignment
        # runs, so that residual is the first failure met.
        path = tmp_path / "spindle-1e-8.json"
        path.write_text(json.dumps(SPINDLE_1E8), encoding="utf-8")
        code, out, err = run_cli(capsys, "solve", str(path), "--tol", "1e-17", *extra)
        assert code == 2
        error = json.loads(out)["error"]
        if extra == ("--all",):
            assert error["reason"] == "verification_failed"
            assert error["message"].startswith("residual 1.1") and "e-10 exceeds 1e-17" in error["message"]
        else:
            assert error["reason"] == "empty_intersection"
        assert err == ""

    @pytest.mark.parametrize("sketch, error", [
        # L is 5 from P, so C on L is never 1 from P.
        ({"entities": [{"id": "P", "kind": "point"}, {"id": "L", "kind": "line"},
                       {"id": "C", "kind": "point"}],
          "constraints": [{"kind": "point_line_distance", "between": ["P", "L"], "value": 5.0},
                          {"kind": "incidence", "between": ["C", "L"]},
                          {"kind": "distance", "between": ["C", "P"], "value": 1.0}]},
         {"reason": "empty_intersection", "message": "no locus intersection places 'C'"}),
        # L and M both pass through P and Q, so C on both lies anywhere on them.
        ({"entities": [{"id": v, "kind": "point" if v in "PQC" else "line"} for v in "PLQMC"],
          "constraints": [{"kind": "incidence", "between": ["P", "L"]},
                          {"kind": "incidence", "between": ["Q", "L"]},
                          {"kind": "distance", "between": ["P", "Q"], "value": 2.0},
                          {"kind": "incidence", "between": ["P", "M"]},
                          {"kind": "incidence", "between": ["Q", "M"]},
                          {"kind": "incidence", "between": ["C", "L"]},
                          {"kind": "incidence", "between": ["C", "M"]}]},
         {"reason": "under_determined", "message": "coincident loci leave the target free",
          "entity": "C"}),
    ], ids=["line-and-circle-apart", "coincident-lines"])
    def test_a_point_on_two_loci_that_place_nothing(self, capsys, monkeypatch, sketch, error):
        for extra in (("--all",), ()):
            code, out, err = run_cli(capsys, "solve", "-", *extra, stdin=json.dumps(sketch),
                                     monkeypatch=monkeypatch)
            assert (code, json.loads(out), err) == (2, {"error": error}, "")

    def test_every_reason_is_documented(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"reasons\s+are(.*?)\.", readme, re.S).group(1)
        documented = set(re.findall(r"`([a-z_]+)`", listed))
        classes = [gcs2d.errors.GcsError]
        for klass in classes:
            classes.extend(klass.__subclasses__())
        reasons = {klass.reason for klass in classes if klass.reason is not None}
        assert len(documented) == 8 and len(reasons) == 6
        assert reasons <= documented


class TestMalformedInput:
    """Input errors exit 1 with one line on stderr and nothing on stdout."""

    def assert_input_error(self, code, out, err):
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")

    def render_svg(self, capsys, graph_file, tmp_path, solution_text):
        sol_path = tmp_path / "solution.json"
        sol_path.write_text(solution_text, encoding="utf-8")
        return run_cli(
            capsys, "render", graph_file, "--format", "svg", "--solution", str(sol_path)
        )

    @pytest.mark.parametrize(
        "change",
        [
            {"placements": {"C": {"point": ["x", 0]}}},
            {"branches": ["a"]},
            {"placements": {"L": {"line": {"theta": None, "c": 0}}}},
            {"placements": {"A": {"line": {"theta": 0.0, "c": 0.0}}}},
            {"placements": {"GHOST": {"point": [50, 50]}}},
        ],
        ids=["non-numeric-coordinate", "non-integer-branch", "null-line-parameter",
             "point-placed-as-a-line", "placement-the-graph-lacks"],
    )
    def test_bad_solution(self, capsys, triangle_file, tmp_path, change):
        doc = {"placements": {"A": {"point": [0, 0]}, "B": {"point": [3, 0]},
                              "C": {"point": [0, 4]}}, "branches": []}
        doc["placements"].update(change.get("placements", {}))
        doc["branches"] = change.get("branches", doc["branches"])
        self.assert_input_error(*self.render_svg(capsys, triangle_file, tmp_path,
                                                 json.dumps(doc)))

    def test_graph_and_solution_both_from_stdin(self, capsys, monkeypatch):
        # stdin holds one document, so a second read would find it empty:
        # the call is refused before anything is read.
        text = serialize(triangle_graph(3, 4, 5))
        code, out, err = run_cli(capsys, "render", "-", "--format", "svg", "--solution", "-",
                                 stdin=text, monkeypatch=monkeypatch)
        self.assert_input_error(code, out, err)
        assert "stdin" in err and "invalid solution JSON" not in err
        assert sys.stdin.read() == text

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"entities": [{"id": "\xe9"}]}')
        self.assert_input_error(*run_cli(capsys, "analyze", str(path)))

    def test_list_as_constraint_kind(self, capsys, tmp_path):
        doc = json.loads(serialize(triangle_graph(3, 4, 5)))
        doc["constraints"][0]["kind"] = ["distance"]
        path = tmp_path / "list-kind.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.assert_input_error(*run_cli(capsys, "analyze", str(path)))

    @pytest.mark.parametrize("field", ["value", "radius"])
    def test_integer_too_large_for_a_float(self, capsys, tmp_path, field):
        doc = json.loads(serialize(triangle_graph(3, 4, 5)))
        if field == "value":
            doc["constraints"][0]["value"] = 10**400
        else:
            doc["entities"].append(
                {"id": "K", "kind": "circle", "radius_known": True, "radius": 10**400}
            )
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        self.assert_input_error(*run_cli(capsys, "analyze", str(path)))

    def test_deeply_nested_graph(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        self.assert_input_error(*run_cli(capsys, "analyze", str(path)))

    def test_deeply_nested_solution(self, capsys, triangle_file, tmp_path):
        self.assert_input_error(*self.render_svg(capsys, triangle_file, tmp_path,
                                                 "[" * 100_000))

    @pytest.mark.parametrize("extra", [("--all", "--tol", "nan"), ("--tol", "-1"),
                                       ("--all", "--limit", "0"), ("--limit", "-3")])
    def test_malformed_tolerance_or_limit(self, capsys, triangle_file, extra):
        self.assert_input_error(*run_cli(capsys, "solve", triangle_file, *extra))

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_malformed_tolerance_from_the_environment(self, capsys, triangle_file, tmp_path,
                                                      monkeypatch, value):
        monkeypatch.setenv("GCS_TOL", value)
        self.assert_input_error(*run_cli(capsys, "solve", triangle_file))
        solution = {"placements": {"A": {"point": [0, 0]}, "B": {"point": [3, 0]},
                                   "C": {"point": [0, 4]}}}
        self.assert_input_error(*self.render_svg(capsys, triangle_file, tmp_path,
                                                 json.dumps(solution)))

    def test_tolerance_from_the_environment_that_is_no_number(self, capsys, triangle_file,
                                                              monkeypatch):
        monkeypatch.setenv("GCS_TOL", "abc")
        code, out, err = run_cli(capsys, "solve", triangle_file)
        self.assert_input_error(code, out, err)
        assert err == "GCS_TOL is not a number: 'abc'\n"

    def test_branch_that_is_no_integer_list(self, capsys, triangle_file):
        code, out, err = run_cli(capsys, "solve", triangle_file, "--branch", "1,x")
        self.assert_input_error(code, out, err)
        assert err == "--branch must be a comma-separated integer list\n"

    def test_solution_document_without_solutions(self, capsys, triangle_file, tmp_path):
        code, out, err = self.render_svg(capsys, triangle_file, tmp_path, '{"solutions": []}')
        self.assert_input_error(code, out, err)
        assert err == "solution document lists no solutions\n"


def test_usage_errors_exit_one(capsys):
    assert main(["solve"]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


SRC = Path(__file__).resolve().parents[1] / "src"


def gcs2d_process(*argv: str, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, **env: str):
    """``python -m gcs2d`` in a fresh interpreter, with the current
    environment plus ``env``."""
    return subprocess.Popen([sys.executable, "-m", "gcs2d", *argv], stdin=stdin,
                            stdout=stdout, stderr=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC), **env})


def test_closed_stdout_pipe_exits_one_with_one_stderr_line():
    proc = gcs2d_process("generate", "--n", "3000")
    assert proc.stdout.read(100)
    proc.stdout.close()  # the reader goes away while gcs2d is still writing
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_closed_stdout_pipe_under_render_exits_one(tmp_path):
    # Unbuffered stdout loses what a closed pipe did not take without an
    # error; the render must still notice the reader went away.
    big = tmp_path / "big.json"
    with big.open("w") as handle:
        gcs2d_process("generate", "--n", "3000", stdout=handle).communicate(timeout=60)
    proc = gcs2d_process("render", str(big), "--format", "dot", PYTHONUNBUFFERED="1")
    assert proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_render_shows_a_lone_surrogate_in_an_id_as_an_escape(tmp_path):
    # UTF-8 cannot encode the surrogate, so stdout would fail on it.
    path = tmp_path / "surrogate.json"
    path.write_text('{"entities": [{"id": "A\\ud800", "kind": "point"}], "constraints": []}',
                    encoding="utf-8")
    proc = gcs2d_process("render", str(path), "--format", "dot")
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, "")
    assert '"A\\ud800" [shape=circle, label="A\\ud800"];' in out  # one backslash


class TestOneProcess:
    """In-process ``main`` calls reuse one parser and behave like fresh processes."""

    def test_many_calls_build_one_parser(self, capsys, monkeypatch):
        real, built = gcs2d.cli.build_parser, []

        def counting_build_parser():
            built.append(real())
            return built[-1]

        monkeypatch.setattr(gcs2d.cli, "_parser", None)
        monkeypatch.setattr(gcs2d.cli, "build_parser", counting_build_parser)
        for argv in (["fixture", "triangle"], ["solve"], ["generate", "--n", "5"],
                     ["fixture", "k4"], ["--help"]):
            main(argv)
        capsys.readouterr()
        assert len(built) == 1
        assert real() is not real()

    def test_calls_match_fresh_processes(self, capsys, monkeypatch, tmp_path, triangle_file):
        spindle = fixture("moser-spindle")
        # At this length scale the spindle's residuals (~4e-6) fail the
        # default tolerance and pass 0.1, so a leaked --tol shows.
        scaled = build_graph(spindle.entities, [Constraint(c.kind, c.between, c.value * 1.37e10)
                                                for c in spindle.constraints])
        g = triangle_graph(3, 4, 5)
        solution = json.dumps(solution_to_dict(execute(extract_plan(decompose(g), g), g, ())))

        def write(name: str, text: str) -> str:
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            return str(path)

        tri = triangle_file
        sp = write("spindle.json", serialize(spindle))
        sc = write("scaled.json", serialize(scaled))
        prism = write("prism.json", serialize(fixture("three-prism")))
        sol = write("solution.json", solution)
        calls = [  # (argv, stdin, GCS_TOL)
            (["fixture", "moser-spindle"], "", None),
            (["analyze", sp], "", None),
            (["analyze", "-"], serialize(fixture("k4")), None),
            (["classify", prism], "", None),
            (["solve", sp, "--all", "--limit", "1"], "", None),
            (["solve", sp, "--all"], "", None),
            (["solve", sp, "--limit", "x"], "", None),
            (["solve", tri, "--branch", "9"], "", None),
            (["solve", tri, "--branch", "1", "--emit-plan"], "", None),
            (["solve", sc, "--tol", "0.1"], "", None),
            (["solve", sc], "", None),
            (["solve", sc, "--all", "--tol", "0.1"], "", "1e-12"),
            (["solve", sc, "--all"], "", "1e-12"),
            (["solve", sc], "", "0.1"),
            (["generate", "--n", "6", "--seed", "3"], "", None),
            (["generate", "--n", "6"], "", None),
            (["no-such-command"], "", None),
            (["render", tri], "", None),
            (["render", tri, "--format", "svg", "--solution", sol], "", None),
            (["render", tri, "--format", "svg"], "", None),
            (["render", tri, "--format", "png"], "", None),
            (["--help"], "", None),
            (["solve", "--help"], "", None),
            (["fixture", "triangle"], "", None),
        ]
        monkeypatch.setattr(gcs2d.cli, "_parser", None)
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width on both sides
        for argv, stdin, tol in calls:
            if tol is None:
                monkeypatch.delenv("GCS_TOL", raising=False)
            else:
                monkeypatch.setenv("GCS_TOL", tol)
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
            in_process = (main(argv), *capsys.readouterr())
            proc = gcs2d_process(*argv, stdin=subprocess.PIPE)
            out, err = proc.communicate(stdin, timeout=60)
            assert in_process == (proc.returncode, out, err), argv


class TestRepeatedCalls:
    """A call that repeats the one before gets the kept parse of its argv and
    of its document, and prints what a first call prints."""

    @staticmethod
    def twice(capsys, argv):
        return [(main(list(argv)), *capsys.readouterr()) for _ in range(2)]

    @pytest.mark.parametrize("argv", [["solve"], ["solve", "x", "--limit", "y"], ["--help"],
                                      ["solve", "--help"]])
    def test_usage_errors_and_help_print_every_time(self, capsys, argv):
        first, second = self.twice(capsys, argv)
        assert first == second
        code, out, err = first
        if "--help" in argv:
            assert code == 0 and out.startswith("usage:")
        else:
            assert code == 1 and out == "" and "error:" in err

    def test_each_call_gets_its_own_namespace(self, capsys, monkeypatch, triangle_file):
        seen, tolerance = [], gcs2d.cli._tolerance

        def spoiling_tolerance(args):
            seen.append(args)
            tol = tolerance(args)
            args.tol = -1.0  # a namespace shared with the next call would fail it
            return tol

        monkeypatch.setattr(gcs2d.cli, "_tolerance", spoiling_tolerance)
        argv = ["solve", triangle_file, "--all"]
        assert [main(argv) for _ in range(2)] == [0, 0]
        capsys.readouterr()
        kept = gcs2d.cli._parser.parsed(tuple(argv))
        assert seen[0] is not seen[1] and all(kept is not args for args in seen)
        assert kept.tol is None

    def test_a_new_parser_keeps_nothing(self, triangle_file):
        argv = ("solve", triangle_file, "--all")
        parser = gcs2d.cli.build_parser()
        assert parser.parsed(argv) is parser.parsed(argv)
        assert gcs2d.cli.build_parser().parsed(argv) is not parser.parsed(argv)

    def test_text_that_fails_to_parse_fails_every_time(self, capsys, tmp_path, triangle_file):
        bad = tmp_path / "bad.json"
        bad.write_text('{"entities": [], "constraints": 3}', encoding="utf-8")
        main(["analyze", triangle_file])  # a kept document that a failure must not replace
        capsys.readouterr()
        first, second = self.twice(capsys, ["analyze", str(bad)])
        assert first == second and first[0] == 1 and first[1] == ""
        assert self.twice(capsys, ["analyze", triangle_file])[0][0] == 0

    def test_a_rewritten_file_is_parsed_again(self, capsys, tmp_path):
        path = tmp_path / "sketch.json"
        path.write_text(serialize(triangle_graph(3, 4, 5)), encoding="utf-8")
        code, before, _ = run_cli(capsys, "solve", str(path))
        path.write_text(serialize(triangle_graph(5, 12, 13)), encoding="utf-8")
        code, after, _ = run_cli(capsys, "solve", str(path))
        assert code == 0 and before != after
        assert json.loads(after)["solutions"][0]["placements"]["B"] == {"point": [5.0, 0.0]}

    def test_one_text_is_parsed_once(self, capsys, monkeypatch, tmp_path):
        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return gcs2d.graph.parse(text)

        monkeypatch.setattr(gcs2d.cli, "parse", counting_parse)
        text = serialize(fixture("moser-spindle"))
        code, out, _ = run_cli(capsys, "solve", "-", "--all", stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        sol_path = tmp_path / "solutions.json"
        sol_path.write_text(out, encoding="utf-8")
        selectors = [",".join(map(str, s["branches"])) for s in json.loads(out)["solutions"]]
        for argv in (["analyze", "-"], ["classify", "-"],
                     *(["solve", "-", "--branch", b] for b in selectors),
                     ["render", "-"], ["render", "-", "--format", "svg", "--solution", str(sol_path)]):
            code, _, err = run_cli(capsys, *argv, stdin=text, monkeypatch=monkeypatch)
            assert code == 0, (argv, err)
        assert parsed == [text]


def scaled(g, factor):
    return build_graph(g.entities, [Constraint(c.kind, c.between, c.value * factor)
                                    for c in g.constraints])


def structure_variants():
    """Named graphs in the order the memo tests visit them: the Moser spindle
    and copies with new values or lengths scaled by 1e-10 and 1e10, with
    graphs of the same entity ids but another structure between them."""
    spindle = fixture("moser-spindle")
    cons = list(spindle.constraints)
    swapped = [cons[1], cons[0], *cons[2:]]
    moved = [*cons[:-1], distance("C", "E", 1.0)]  # C-F becomes C-E
    on_circle = [*cons, incidence("O", "G"), incidence("A", "G")]
    aux = fixture("quad-angle-aux")
    aux_cons = list(aux.constraints)
    assert aux_cons[0] == incidence("A", "LAD")
    return [
        ("spindle", spindle),
        ("revalued", measured_graph(spindle, sample_embedding(spindle, random.Random(5)))),
        ("fixed circle", build_graph([*spindle.entities, fixed_circle("G", 1.0)], on_circle)),
        ("free circle", build_graph([*spindle.entities, free_circle("G")], on_circle)),
        ("x1e-10", scaled(spindle, 1e-10)),
        ("swapped", build_graph(spindle.entities, swapped)),
        ("x1e10", scaled(spindle, 1e10)),
        ("moved", build_graph(spindle.entities, moved)),
        ("quad-angle-aux", aux),
        ("kind changed", build_graph(aux.entities,
                                     [point_line_distance("A", "LAD", 0.25), *aux_cons[1:]])),
        ("spindle again", spindle),
    ]


class TestStructureReuse:
    """Consecutive calls on one graph structure share one diagnosis,
    decomposition and plan, and no call's output depends on the call before."""

    @staticmethod
    def call(capsys, argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    def test_outputs_equal_those_of_a_fresh_memo(self, capsys, monkeypatch, tmp_path):
        calls, expected = [], []

        def fresh(argv):
            monkeypatch.setattr(gcs2d.graph, "_last_structure", (None, {}))
            monkeypatch.setattr(gcs2d.cli, "_last_document", (None, None))
            monkeypatch.setattr(gcs2d.cli, "_parser", None)
            calls.append(argv)
            expected.append(self.call(capsys, argv))
            return expected[-1]

        tolerance = {"x1e-10": "1e-19", "x1e10": "10"}  # 1e-9 at the copy's scale
        for name, g in structure_variants():
            path = tmp_path / f"{name}.json"
            path.write_text(serialize(g), encoding="utf-8")
            fresh(["analyze", str(path)])
            fresh(["classify", str(path)])
            solve = ["solve", str(path), "--tol", tolerance.get(name, "1e-9")]
            code, out, _ = fresh([*solve, "--all", "--emit-plan"])
            for sol in json.loads(out)["solutions"] if code == 0 else ():
                fresh([*solve, "--branch", ",".join(map(str, sol["branches"]))])
            fresh([*solve, "--branch", "7,7,7,7,7,7,7,7"])
        assert {code for code, _, _ in expected} == {0, 2}
        assert sum("--branch" in argv for argv in calls) > 100  # not only the bad ones

        monkeypatch.setattr(gcs2d.graph, "_last_structure", (None, {}))
        monkeypatch.setattr(gcs2d.cli, "_last_document", (None, None))
        for argv, want in zip(calls, expected):
            assert self.call(capsys, argv) == want, argv

    def test_each_run_of_one_structure_is_analysed_once(self, capsys, monkeypatch, tmp_path):
        variants = dict(structure_variants())
        runs = [["spindle", "revalued", "x1e-10", "x1e10"], ["swapped"], ["spindle again"],
                ["quad-angle-aux"], ["kind changed"], ["quad-angle-aux"]]
        # One program per plan: the clusters a spindle's recombination steps
        # read are walked inside it.
        programs = [1, 2, 3, 4, 5, 6]
        counts = count_structural_work(monkeypatch)
        for i, run in enumerate(runs, start=1):
            for name in run:
                path = tmp_path / f"{name}.json"
                path.write_text(serialize(variants[name]), encoding="utf-8")
                for argv in (["analyze"], ["classify"], ["solve", "--all", "--emit-plan"],
                             ["solve"], ["solve", "--branch", "1"]):
                    self.call(capsys, [argv[0], str(path), *argv[1:]])
            assert counts == {"games": i, "fixpoints": i, "plans": i,
                              "programs": programs[i - 1]}, run

    def test_one_program_serves_every_solve_of_a_structure(self, capsys, monkeypatch, tmp_path):
        spindle = fixture("moser-spindle")
        revalued = measured_graph(spindle, sample_embedding(spindle, random.Random(5)))
        counts = count_structural_work(monkeypatch)
        for name, g in (("spindle", spindle), ("revalued", revalued)):
            path = tmp_path / f"{name}.json"
            path.write_text(serialize(g), encoding="utf-8")
            code, out, _ = self.call(capsys, ["solve", str(path), "--all"])
            found = json.loads(out)["solutions"]
            assert code == 0 and len(found) == {"spindle": 8, "revalued": 16}[name]
            for doc in found:
                code, out, _ = self.call(
                    capsys, ["solve", str(path), "--branch", ",".join(map(str, doc["branches"]))])
                assert code == 0 and json.loads(out)["solutions"] == [doc]
                assert verify(g, solution_from_dict(doc)).passed
        # One program, which walks the two clusters the spindle's plan reads.
        assert counts == {"games": 1, "fixpoints": 1, "plans": 1, "programs": 1}

    def test_analyze_then_solve_plays_one_game(self, capsys, monkeypatch, tmp_path):
        # The plan extraction's own well-constrainedness check finds the
        # diagnosis ``analyze`` made on another graph object.
        counts = count_structural_work(monkeypatch)
        path = tmp_path / "spindle.json"
        path.write_text(serialize(fixture("moser-spindle")), encoding="utf-8")
        assert self.call(capsys, ["analyze", str(path)])[0] == 0
        assert self.call(capsys, ["solve", str(path), "--all"])[0] == 0
        assert counts == {"games": 1, "fixpoints": 1, "plans": 1, "programs": 1}

    def test_errors_are_not_kept(self, capsys, monkeypatch, tmp_path):
        counts = count_structural_work(monkeypatch)
        one_point = tmp_path / "one-point.json"
        one_point.write_text(serialize(build_graph([point("A")], [])), encoding="utf-8")
        prism = tmp_path / "prism.json"
        prism.write_text(serialize(fixture("three-prism")), encoding="utf-8")
        first = [self.call(capsys, ["analyze", str(one_point)]) for _ in range(3)]
        assert first[0][0] == 1 and "at least 2 entities" in first[0][2]
        assert first == [first[0]] * 3 and not counts
        second = [self.call(capsys, ["solve", str(prism)]) for _ in range(3)]
        assert json.loads(second[0][1])["error"]["reason"] == "not_reducible"
        assert second == [second[0]] * 3
        assert counts == {"games": 1, "fixpoints": 1}  # refused before any plan build

    def test_an_unsupported_step_is_not_kept(self, capsys, monkeypatch, tmp_path):
        def unsupported(*args):
            raise gcs2d.errors.UnsupportedStepError("no step for this pair")

        monkeypatch.setattr(decompose_module, "_build_plan", unsupported)
        counts = count_structural_work(monkeypatch)
        path = tmp_path / "triangle.json"
        path.write_text(serialize(triangle_graph(3, 4, 5)), encoding="utf-8")
        outs = [self.call(capsys, ["solve", str(path)]) for _ in range(2)]
        assert outs[0] == outs[1] and json.loads(outs[0][1])["error"] == {
            "reason": "unsupported_step", "message": "no step for this pair"}
        assert counts == {"games": 1, "fixpoints": 1, "plans": 2}
