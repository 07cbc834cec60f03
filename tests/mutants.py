"""Mutation gate: each mutant listed here must make the tests it names fail.

Run from the repository root::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

The named tests first run on an unmutated copy of ``src/`` and ``tests/``,
all in one pytest process, where each must pass.  Then, for each mutant, a
fresh copy gets the mutant's exact-snippet replacements, and the tests the
mutant names run there in one pytest process, where each must fail; its
``-rA`` summary tells which passed.  Two mutants run at a time.  A snippet
that does not occur exactly once fails the script, so the list keeps up
with the code; a change that deletes the code a mutant targets deletes the
mutant too.  The copies and everything pytest writes stay in one temporary
directory, removed at the end.  The whole list takes about 45 s on two
cores.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
DECOMPOSE = "src/gcs2d/decompose.py"
RIGIDITY = "src/gcs2d/rigidity.py"
SOLVE = "src/gcs2d/solve.py"
EQUIVALENCE = "tests/test_decomp.py::TestReferenceEquivalence"
PLANS = "tests/test_decomp.py::TestExtractPlan::test_plans_match_the_reference_builder"
GAME = "tests/test_rigidity.py::TestReferenceGame"
RESIDUALS = "tests/test_solve.py::TestResidualRule"
WALKER = "tests/test_solve.py::TestWalkerEquivalence"
GLUING = "tests/test_solve.py::TestGluing"
READS = "tests/test_solve.py::TestRecombinationReads"
CLI_SOLVE = "tests/test_cli.py::TestSolve"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    edits: tuple[tuple[str, str], ...]  # (exact snippet, replacement)
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


MUTANTS = (
    # The decomposition fixpoint.
    Mutant("triangle keys sort before pair keys", DECOMPOSE, (
        ("heap += [(2, j, i) for j in ids]", "heap += [(4, j, i) for j in ids]"),
        ("heappush(heap, (2, k, c.id))", "heappush(heap, (4, k, c.id))"),
    ), (f"{EQUIVALENCE}::test_parallel_seeds_inside_a_triangle",
        f"{EQUIVALENCE}::test_random_mixed_graph_sweep")),
    Mutant("no re-key of stale candidates", DECOMPOSE, (
        ("                now.sort()\n                heappush(heap, (rule, *now))\n",
         "                pass\n"),
    ), (f"{EQUIVALENCE}::test_random_laman",
        "tests/test_decomp.py::TestLargeFixpoint::test_fully_reducible")),
    # The hinge k shares with b.  The fixpoint does not test c's hinges x
    # and z: a merged cluster that brings in entities holds only two-DOF
    # ones, as test_a_cluster_of_three_or_more_entities_holds_only_two_dof_ones
    # checks.
    Mutant("no two-DOF hinge check", DECOMPOSE, (
        ("                if y != x and y in two_dof:", "                if y != x:"),
    ), (f"{EQUIVALENCE}::test_fixtures",)),
    Mutant("heir taken as the smallest parent", DECOMPOSE, (
        ("if len(a) >= len(b) else (q, (p,), a)", "if len(a) <= len(b) else (q, (p,), a)"),
        ("if len(a) >= len(b) and len(a) >= len(c):", "if len(a) <= len(b) and len(a) <= len(c):"),
        ("elif len(b) >= len(c):", "elif len(b) <= len(c):"),
    ), (f"{EQUIVALENCE}::test_fixtures", PLANS)),
    Mutant("added computed after the growth", DECOMPOSE, (
        ("        added = frozenset(brought - heir.entity_ids)\n", ""),
        ("        record = tuple.__new__(MergeRecord,",
         "        added = frozenset(brought - heir.entity_ids)\n"
         "        record = tuple.__new__(MergeRecord,"),
    ), (f"{EQUIVALENCE}::test_random_laman",
        "tests/test_decomp.py::TestLargeFixpoint::test_fully_reducible")),
    Mutant("hinge test on z in added", DECOMPOSE, (
        ("(z not in added or k < b)", "(z in added or k < b)"),
    ), (f"{EQUIVALENCE}::test_random_laman",)),
    # A set compares equal to a frozenset, so only a type check sees this.
    Mutant("merged clusters left unfrozen", DECOMPOSE, (
        ("frozenset(c.entity_ids), frozenset(c.owned_constraints))",
         "c.entity_ids, c.owned_constraints)"),
    ), ("tests/test_decomp.py::TestLargeFixpoint"
        "::test_merged_heirs_carry_no_sets_and_every_other_cluster_frozensets",)),
    # The plan builder.
    Mutant("children's refusals before the merge's own shared points", DECOMPOSE, (
        ("            made[k] = refusals[0]\n", "            made[k] = refusals[-1]\n"),
    ), (PLANS,)),
    Mutant("an unsorted aligned pair", DECOMPOSE, (
        ("aligned = [(child.id, tuple(sorted(pair)))", "aligned = [(child.id, pair)"),
    ), (PLANS,)),
    Mutant("aligning a child that is already placed", DECOMPOSE, (
        ("                   if not child.entity_ids & added <= {w}]", "                   ]"),
    ), (PLANS, "tests/test_decomp.py::TestExtractPlan::test_moser_spindle_plan_shape")),
    # The pebble game.
    Mutant("no arc reversal along a pebble's path", RIGIDITY, (
        ("                        out[prev].remove(found)\n"
         "                        out[found].append(prev)\n", ""),
    ), (f"{GAME}::test_fixtures",)),
    Mutant("a search skipped from a start with one out-arc", RIGIDITY, (
        ("                if not out[start]:", "                if len(out[start]) < 2:"),
    ), (f"{GAME}::test_fixtures",
        f"{GAME}::test_an_overloaded_edge_after_searches_from_arc_less_endpoints")),
    # The branch walker.
    Mutant("a residual equal to the tolerance is a dead end", SOLVE, (
        ("worst := _owned_worst(steps[i - 1].owns, placed, values)) <= tol:",
         "worst := _owned_worst(steps[i - 1].owns, placed, values)) < tol:"),
    ), (f"{RESIDUALS}::test_pruning_removes_no_solution",)),
    Mutant("no residual pruning", SOLVE, (
        ("        if i and tol is not None and not (",
         "        if False and i and tol is not None and not ("),
    ), (f"{RESIDUALS}::test_a_residual_dead_end_jumps_back_to_the_steps_it_blames",
        "tests/test_solve.py::TestRecombinationReads"
        "::test_a_cluster_is_pruned_at_the_step_owning_its_failing_residual")),
    # _root_key orders every step's roots, the two-distance step's too.
    Mutant("roots ordered by angle only", SOLVE, (
        ("    return (math.atan2(y - cy, x - cx) % (2.0 * math.pi), x, y)",
         "    return (math.atan2(y - cy, x - cx) % (2.0 * math.pi),)"),
    ), ("tests/test_solve.py::TestTwoDistanceFastPath"
        "::test_two_roots_come_by_angle_then_coordinates",)),
    # The walk's blame, leaves and selector.
    Mutant("a solution that ends the walk", SOLVE, (
        ("if f.tangent]))))\n", "if f.tangent]))))\n                return\n"),
    ), ("tests/test_solve.py::TestTriangle::test_exactly_two_solutions",)),
    Mutant("no yield-time failure clear", SOLVE, (
        ("                yielded, failure = True, None", "                yielded = True"),
    ), ("tests/test_solve.py::TestLazyWalk::test_every_walk_frees_its_state",)),
    Mutant("a residual dead end that blames nothing", SOLVE, (
        ("            blame = steps[i - 1].blame", "            blame = frozenset()"),
    ), (f"{WALKER}::test_residual_failures[0.0]",)),
    Mutant("blaming only the owner", SOLVE, (
        ("                blame.update((p, q))", "                blame.add(last)"),
    ), (f"{WALKER}::test_a_residual_blames_the_step_that_places_its_other_endpoint[1.0]",)),
    Mutant("blame without the owned endpoints", SOLVE, (
        ("                blame.update((p, q))\n", ""),
    ), (f"{WALKER}::test_a_residual_blames_the_step_that_places_its_other_endpoint[1.0]",)),
    Mutant("the base's residual checked before the first step", SOLVE, (
        ("    base_worst = _owned_worst(program.owns, placed, values)\n",
         "    base_worst = _owned_worst(program.owns, placed, values)\n"
         "    if tol is not None and not base_worst <= tol:\n"
         "        raise VerificationError(f\"residual {base_worst} exceeds {tol}\")\n"),
    ), (f"{CLI_SOLVE}::test_under_determined_reason_at_zero_tolerance",)),
    Mutant("a selector entry read at a one-root step", SOLVE, (
        ("                if entries is not None and last:", "                if entries is not None:"),
    ), (f"{CLI_SOLVE}::test_a_bare_solve_takes_the_first_solution_of_the_walk",)),
    # The point steps' roots.
    Mutant("general-path root dedupe at 1e-3", SOLVE, (
        ("if not any(p.close_to(q) for q in points):",
         "if not any(p.close_to(q, 1e-3) for q in points):"),
    ), (f"{WALKER}::test_two_roots_closer_than_a_thousandth_stay_two",)),
    Mutant("no root merge in the two-distance step", SOLVE, (
        ("    if math.hypot(x2 - x1, y2 - y1) <= EPS:", "    if False:"),
    ), ("tests/test_solve.py::TestTwoDistanceFastPath"
        "::test_the_same_roots_in_the_same_order_and_the_same_errors",)),
    # Compiling a step checks its structure before any kernel runs; only a
    # graph built past build_graph's checks reaches this one.
    Mutant("a distance locus's point-anchor check dropped", SOLVE, (
        ("            if shape != \"point\":\n"
         "                raise UnsupportedStepError(\"distance locus needs a placed point anchor\")\n",
         "            pass\n"),
    ), (f"{WALKER}::test_malformed_steps_fail_when_reached",)),
    Mutant("a line-circle step that keeps one root", SOLVE, (
        ("            hit = intersect_line_circle(*((a, b) if isinstance(a, LineRep) else (b, a)))\n",
         "            hit = intersect_line_circle(*((a, b) if isinstance(a, LineRep) else (b, a)))\n"
         "            hit = hit._replace(points=hit.points[:1])\n"),
    ), ("tests/test_solve.py::TestOtherLoci::test_point_line_distance_gives_four_roots",)),
    # Recombination: walked clusters and gluing.
    Mutant("inlined cluster steps own nothing", SOLVE, (
        ("            self.own(sorted([_index(self.g, ci) for ci in sub.owned_constraints]), local)\n",
         ""),
    ), (f"{READS}::test_an_inlined_step_owns_what_the_cluster_owns",)),
    Mutant("a triangle merge that reads its distances off the clusters it reads", SOLVE, (
        ("(j1, j2), (k2, k0) = built.pair(second, p1, p2), built.pair(first, p2, p0)",
         "(j1, j2), (k2, k0) = (second[p1], second[p2]), (first[p2], first[p0])"),
    ), (f"{READS}::test_nested_clusters[5-10000]",)),
    Mutant("alignment by the proper motion only", SOLVE, (
        ("motions = [rigid_align(src, dst, False), rigid_align(src, dst, True)]",
         "motions = [rigid_align(src, dst, False)] * 2"),
    ), ("tests/test_solve.py::TestMoserSpindle::test_eight_verified_solutions",)),
    Mutant("a cluster that is its own mirror image, glued twice", SOLVE, (
        ("        if all(map(_alike, proper, reflected)):\n            return [proper], False\n", ""),
    ), (f"{GLUING}::test_a_cluster_its_own_mirror_image",)),
    Mutant("the orbit filter at a cluster's first step only", SOLVE, (
        ("            if flips is not None and places:",
         "            if flips is not None and places and not own:"),
    ), (f"{GLUING}::test_an_angle_base[1.5707963267948966-2]",)),
)


def copy_tree(into: Path) -> Path:
    """A copy of ``src/`` and ``tests/`` under ``into``, without caches."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=skip)
    return into


def passing(tree: Path, tests: list[str]) -> list[str]:
    """Those of the pytest node ids ``tests`` that pass when all run in
    ``tree`` in one process: each of its cases has a ``PASSED`` line in the
    ``-rA`` summary and none a ``FAILED`` or ``ERROR`` line.  An exit code
    other than 0 or 1 (no test collected, a collection error) stops the
    script, so a mutant that breaks the import is not counted killed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    if run.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {run.returncode} in {tree.name}:\n{run.stdout[-2000:]}")
    summary = [line.split(" - ")[0].split(" ", 1) for line in run.stdout.splitlines()
               if line.startswith(("PASSED ", "FAILED ", "ERROR "))]
    return [t for t in tests
            if {outcome for outcome, node in summary
                if node == t or node.startswith(t + "[")} == {"PASSED"}]


def survivors(into: Path, mutant: Mutant) -> list[str]:
    """The tests ``mutant`` names that pass on a copy under ``into`` that it
    mutates."""
    tree = copy_tree(into)
    apply(tree, mutant)
    return passing(tree, list(mutant.tests))


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text()
    for snippet, replacement in mutant.edits:
        if text.count(snippet) != 1:
            raise SystemExit(f"{mutant.name}: snippet found {text.count(snippet)} times in "
                             f"{mutant.path}: {snippet!r}")
        text = text.replace(snippet, replacement)
    path.write_text(text)


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if unknown := set(names) - {m.name for m in MUTANTS}:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    start = time.perf_counter()
    survived = []
    with tempfile.TemporaryDirectory(prefix="gcs2d-mutants-") as scratch:
        named = list(dict.fromkeys(t for m in chosen for t in m.tests))
        passed = passing(copy_tree(Path(scratch) / "clean"), named)
        if missing := [t for t in named if t not in passed]:
            raise SystemExit(f"named tests that do not pass without a mutant: {missing}")
        pool = ThreadPoolExecutor(2)  # each mutant's pytest is a process of its own
        try:
            runs = pool.map(survivors, [Path(scratch) / f"mutant-{k}" for k in range(len(chosen))],
                            chosen)
            for mutant, alive in zip(chosen, runs):
                print(("SURVIVED " if alive else "killed   ") + mutant.name
                      + (f" (passed: {', '.join(alive)})" if alive else ""), flush=True)
                if alive:
                    survived.append(mutant.name)
        finally:
            pool.shutdown(cancel_futures=True)
    print(f"{len(chosen) - len(survived)} of {len(chosen)} mutants killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
