"""Recombination at work: the Moser spindle, solved and round-tripped.

The spindle decomposes into two rhombi plus a tip edge.  Its plan places one
rhombus directly, pins the far tip through virtual distances measured in the
second rhombus's own frame, then glues that rhombus on with a rigid motion.
A forward simulation closes the loop: sample random coordinates, measure all
edge lengths from them, solve the measured graph, and find the sample again
among the enumerated branches, or exit with status 1.
"""

import random
import sys

from gcs2d import (
    Constraint,
    build_graph,
    decompose,
    enumerate_solutions,
    extract_plan,
    fixture,
    rigid_align,
    verify,
)


def main():
    g = fixture("moser-spindle")
    plan = extract_plan(decompose(g), g)
    print("plan steps:")
    for step in plan.steps:
        print("  ", type(step).__name__, getattr(step, "target", getattr(step, "points", "")))

    found = enumerate_solutions(plan, g)
    print(f"\n{len(found)} unit-distance embeddings; residuals all below 1e-9:",
          all(verify(g, s).max_abs <= 1e-9 for _, s in found))
    sol = found[0][1]
    lengths = [sol.placements[a].distance_to(sol.placements[b]) for a, b in
               (c.between for c in g.constraints)]
    print("edge lengths in the first embedding:", [round(v, 12) for v in lengths[:4]], "...")

    # Forward simulation with generic edge lengths.
    rng = random.Random(5)
    sample = {v: None for v in g.entity_ids}
    for v in sample:
        sample[v] = type(sol.placements["O"])(rng.uniform(-3, 3), rng.uniform(-3, 3))
    measured = build_graph(
        g.entities,
        [Constraint(c.kind, c.between, sample[c.between[0]].distance_to(sample[c.between[1]]))
         for c in g.constraints],
    )
    # Plans hold no values, so the unit spindle's plan solves the measured one.
    found = enumerate_solutions(plan, measured, limit=64)
    base = measured.constraints[plan.base_constraint].between

    hit = 0
    src = (sample[base[0]], sample[base[1]])
    for _, candidate in found:
        dst = (candidate.placements[base[0]], candidate.placements[base[1]])
        for reflect in (False, True):  # the base pair's direct and mirrored motion
            motion = rigid_align(src, dst, reflect)
            moved = {v: motion.apply(p) for v, p in sample.items()}
            if all(moved[v].close_to(candidate.placements[v], 1e-7) for v in moved):
                hit += 1
    print(f"\ngeneric spindle: {len(found)} embeddings enumerated,"
          f" {hit} match the random sample up to a motion")
    if not hit:
        sys.exit("the round trip failed: no embedding matches the random sample")


if __name__ == "__main__":
    main()
