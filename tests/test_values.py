"""Contracts of the value types (points, lines, circles, graph records,
clusters, plans and solutions), and what a cold import loads."""

import copy
import importlib.util
import math
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from gcs2d import errors
from gcs2d import (
    BadValueError,
    CircleRep,
    Cluster,
    LineRep,
    MergeRecord,
    Plan,
    Point2,
    Solution,
    decompose,
    diagnose_pebble,
    distance,
    enumerate_solutions,
    extract_plan,
    fixture,
    parse,
    serialize,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.mark.parametrize("theta, folds", [
    (0.25, 0), (math.pi, 1), (-math.pi / 2, -1), (2 * math.pi + 0.25, 2), (3 * math.pi + 0.25, 3),
])
def test_line_folds_theta_into_range_and_flips_c_on_odd_folds(theta, folds):
    l = LineRep(theta, 2.0)
    assert 0 <= l.theta < math.pi
    assert l.theta == pytest.approx(theta - folds * math.pi, abs=1e-12)
    assert l.c == (-2.0 if folds % 2 else 2.0)


@pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
def test_circle_rejects_a_radius_not_finite_and_positive(r):
    with pytest.raises(BadValueError):
        CircleRep(Point2(0.0, 0.0), r)


def test_replace_folds_and_checks_like_construction():
    l = LineRep(0.25, 2.0)._replace(theta=math.pi + 0.25)
    assert type(l) is LineRep and l == LineRep(math.pi + 0.25, 2.0) and l.c == -2.0
    with pytest.raises(BadValueError):
        CircleRep(Point2(0.0, 0.0), 1.0)._replace(r=-1.0)


def test_fields_are_read_only():
    values = [
        (Point2(1.0, 2.0), "x"),
        (distance("a", "b", 1.0), "value"),
        (Cluster(0, frozenset("ab"), frozenset({0})), "entity_ids"),
        (Plan(0, 0, ()), "steps"),
        (Solution({"a": Point2(0.0, 0.0)}, ()), "branches"),
        (fixture("triangle"), "constraints"),
    ]
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, None)


def solved_spindle():
    """The Moser spindle after every structural layer and a solve, which
    keep their results, a compiled program among them, with its structure."""
    g = parse(serialize(fixture("moser-spindle")))
    diagnose_pebble(g)
    enumerate_solutions(extract_plan(decompose(g), g), g)
    return g


@pytest.mark.parametrize("make", [lambda: LineRep(3 * math.pi + 0.25, 2.0),
                                  lambda: parse(serialize(fixture("moser-spindle"))),
                                  solved_spindle],
                         ids=["line", "graph", "solved-graph"])
def test_pickle_and_deepcopy_give_an_equal_object(make):
    value = make()
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied == value and type(copied) is type(value)
        assert hash(copied) == hash(value)


def error_instances():
    made = []
    for name, klass in sorted(vars(errors).items()):
        if isinstance(klass, type) and issubclass(klass, errors.GcsError):
            if klass is errors.UnderDeterminedError:
                made += [klass("p7", "coincident loci leave the target free"), klass("p7")]
            else:
                made.append(klass(f"a {name}"))
    return made


@pytest.mark.parametrize("error", error_instances(), ids=repr)
def test_errors_pickle_and_copy_with_their_message_and_entity(error):
    for copied in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
        assert type(copied) is type(error) and str(copied) == str(error)
        assert getattr(copied, "entity", None) == getattr(error, "entity", None)


def test_graph_copies_carry_no_kept_results_and_find_them_by_structure():
    g = solved_spindle()
    plan = extract_plan(decompose(g), g)
    for copied in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert "_analyses" not in vars(copied)
        assert extract_plan(decompose(copied), copied) is plan


def test_graph_copies_keep_their_cached_lookups():
    g = parse(serialize(fixture("moser-spindle")))
    last = g.entity(g.entities[-1].id)  # caches the id -> entity map
    for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert copied.entity(last.id) == last and copied.kind_of(last.id) is last.kind


def test_repr():
    assert repr(Point2(0.0, 4.0)) == "Point2(x=0.0, y=4.0)"
    record = MergeRecord("R1", 5, (1, 2, 3), ("a", "b", "c"))
    assert repr(record) == ("MergeRecord(rule='R1', new_cluster=5, parents=(1, 2, 3), "
                            "shared=('a', 'b', 'c'))")


def test_cold_import_loads_no_dataclasses_or_inspect():
    # -S keeps site-packages' start-up hooks out of the process, so only
    # what the package and its parser import is loaded.  The generator and
    # the renderer load on first use; what analyze, classify and solve run
    # loads with the CLI.
    absent = ["dataclasses", "inspect", "gcs2d.henneberg", "gcs2d.render"]
    present = ["gcs2d.graph", "gcs2d.rigidity", "gcs2d.decompose", "gcs2d.geometry", "gcs2d.solve"]
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import gcs2d, gcs2d.cli\n"
        "gcs2d.cli.build_parser()\n"
        f"print(sorted(set({absent!r}) & set(sys.modules)), sorted(set({present!r}) - set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.strip() == "[] []"


def test_names_loaded_on_first_use_keep_the_api():
    import gcs2d
    import gcs2d.cli
    import gcs2d.henneberg
    import gcs2d.render

    lazy = {
        gcs2d.henneberg: ["H1", "H2", "HennebergSequence", "extend_h1", "extend_h2", "fixture",
                          "fixture_names", "random_laman", "reduction_sequence",
                          "replay_sequence"],
        gcs2d.render: ["to_dot", "to_svg"],
    }
    for module, names in lazy.items():
        submodule = module.__name__.rsplit(".", 1)[1]
        assert getattr(gcs2d, submodule) is module and submodule in dir(gcs2d)
        for name in names:
            assert getattr(gcs2d, name) is getattr(module, name)
            assert name in dir(gcs2d) and name in gcs2d.__all__
    from gcs2d import random_laman, to_svg
    assert (random_laman, to_svg) == (gcs2d.henneberg.random_laman, gcs2d.render.to_svg)
    with pytest.raises(AttributeError, match="no_such_name"):
        gcs2d.no_such_name
    # The benchmark's spans read and patch these names on the CLI module.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert all(callable(getattr(gcs2d.cli, name)) for name in spans.CLI_LAYER_CALLS)
    assert gcs2d.cli.fixture("triangle") == gcs2d.henneberg.fixture("triangle")
