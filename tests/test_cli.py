import io
import json

import pytest

from gcs2d import fixture, serialize
from gcs2d.cli import main
from gcs2d.graph import Constraint, build_graph, distance, point

from support import triangle_graph


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


def test_usage_errors_exit_one(capsys):
    assert main(["solve"]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
