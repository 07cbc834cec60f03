"""Shared helpers: independent recounts, the dict-based reference pebble game,
embedding sampling, congruence checks with the alignment oracle that moves a
sample onto a solution, the exhaustive reference decomposition with the
materialiser that gives a decomposition's taken-over clusters their sets,
and the chronological reference walker with its unbound step resolution,
mapping-based recombination and residuals, and pairwise conformation
identity."""

from __future__ import annotations

import importlib
import math
import random
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import combinations

from gcs2d import (
    BadBranchError,
    Cluster,
    Constraint,
    ConstraintGraph,
    ConstraintKind,
    DecompositionResult,
    EntityKind,
    GcsError,
    LineRep,
    MergeRecord,
    Motion,
    Placement,
    Point2,
    ReducibilityClass,
    Solution,
    TooSmallError,
    VerificationError,
    build_graph,
    distance,
    dof,
    fixed_circle,
    free_circle,
    incidence,
    line,
    lines_close,
    line_through_points,
    point,
    point_line_distance,
    rigid_align,
    seed_clusters,
    unsigned_line_angle,
)
from gcs2d.decompose import AlignCluster, PlaceByTwoLoci, Plan, PlanStep, TriangleMerge
from gcs2d.errors import (
    CoincidentError,
    CoincidentPointsError,
    EmptyIntersectionError,
    LengthMismatchError,
    MissingPlacementError,
    UnderDeterminedError,
    UnsupportedStepError,
)
from gcs2d.geometry import (
    EPS,
    CircleRep,
    fold_angle,
    intersect_circle_circle,
    line_through_point_angle,
)
from gcs2d.graph import angle as angle_constraint
from gcs2d.solve import (
    ResidualReport,
    _intersect_loci,
    _order_points,
    _worst,
    base_placements,
)


def triangle_graph(ab: float, ac: float, bc: float) -> ConstraintGraph:
    """Triangle with base AB; C sits on circle(A, ac) and circle(B, bc)."""
    return build_graph(
        [point("A"), point("B"), point("C")],
        [distance("A", "B", ab), distance("A", "C", ac), distance("B", "C", bc)],
    )


def subset_violates(g: ConstraintGraph, witness: frozenset[str]) -> bool:
    """Independent recount: induced edges exceed the DOF budget of the set."""
    m_sub = sum(1 for c in g.constraints if set(c.between) <= witness)
    cap = sum(dof(g.kind_of(v)) for v in witness) - 3
    return m_sub > cap


def reference_pebble_run(
    ids: list[str], dofs: dict[str, int], edges: list[tuple[str, str]]
) -> tuple[str, frozenset[str] | None, int]:
    """The pebble game on dicts keyed by id, with a fresh ``parent`` dict
    per search: the reference :func:`gcs2d.rigidity._pebble_run` must match
    triple for triple.

    Each vertex starts with as many pebbles as it has degrees of freedom.
    Inserting an edge (u, v) requires 4 free pebbles across {u, v}; pebbles
    are gathered by reversing directed paths.  Returns a
    ("over", witness, 0) triple on the first rejected edge, where the witness
    is the set of vertices reachable from {u, v} in the directed graph, or
    ("ok", None, leftover) with the free pebbles beyond the 3 rigid motions.
    """
    pebbles = dict(dofs)
    out: dict[str, list[str]] = {v: [] for v in ids}

    def find_pebble(start: str, avoid: tuple[str, str]) -> bool:
        # Depth-first search along directed edges for a free pebble outside
        # the inserted pair; on success the path is reversed and the pebble
        # moves to ``start``.
        parent: dict[str, str] = {start: start}
        stack = [start]
        while stack:
            vertex = stack.pop()
            for nxt in out[vertex]:
                if nxt in parent:
                    continue
                parent[nxt] = vertex
                if pebbles[nxt] > 0 and nxt not in avoid:
                    pebbles[nxt] -= 1
                    pebbles[start] += 1
                    node = nxt
                    while node != start:
                        prev = parent[node]
                        out[prev].remove(node)
                        out[node].append(prev)
                        node = prev
                    return True
                stack.append(nxt)
        return False

    def reachable(u: str, v: str) -> frozenset[str]:
        seen = {u, v}
        stack = [u, v]
        while stack:
            vertex = stack.pop()
            for nxt in out[vertex]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    for u, v in edges:
        while pebbles[u] + pebbles[v] < 4:
            if not (find_pebble(u, (u, v)) or find_pebble(v, (u, v))):
                return "over", reachable(u, v), 0
        out[u].append(v)
        pebbles[u] -= 1
    return "ok", None, sum(pebbles.values()) - 3


def random_mixed_graph(rng: random.Random) -> ConstraintGraph:
    """Arbitrary valid graph over points, lines and circles (for round trips)."""
    entities = []
    for i in range(rng.randint(2, 6)):
        entities.append(point(f"P{i}"))
    for i in range(rng.randint(0, 3)):
        entities.append(line(f"L{i}"))
    for i in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            entities.append(fixed_circle(f"C{i}", rng.uniform(0.5, 3.0)))
        else:
            entities.append(free_circle(f"C{i}"))
    by_kind = {"point": [], "line": [], "circle": []}
    for e in entities:
        key = "circle" if e.kind.is_circle else e.kind.value
        by_kind[key].append(e.id)

    constraints: list[Constraint] = []
    for _ in range(rng.randint(0, 8)):
        choice = rng.random()
        points_, lines_, circles = by_kind["point"], by_kind["line"], by_kind["circle"]
        if choice < 0.4 and len(points_) >= 2:
            a, b = rng.sample(points_, 2)
            constraints.append(distance(a, b, rng.uniform(0.1, 5.0)))
        elif choice < 0.55 and points_ and lines_:
            constraints.append(point_line_distance(rng.choice(points_), rng.choice(lines_),
                                                   rng.uniform(0.0, 2.0)))
        elif choice < 0.7 and points_ and lines_:
            constraints.append(incidence(rng.choice(points_), rng.choice(lines_)))
        elif choice < 0.8 and points_ and circles:
            constraints.append(incidence(rng.choice(points_), rng.choice(circles)))
        elif choice < 0.9 and len(lines_) >= 2:
            a, b = rng.sample(lines_, 2)
            constraints.append(angle_constraint(a, b, rng.uniform(0.1, math.pi - 0.1)))
        elif len(circles) >= 2:
            a, b = rng.sample(circles, 2)
            constraints.append(Constraint(ConstraintKind.TANGENCY, (a, b)))
    return build_graph(entities, constraints)


def sample_embedding(g: ConstraintGraph, rng: random.Random) -> dict[str, Placement]:
    """Generic placements: random points; lines through their incident points.

    Only point and line entities are supported, which covers the fixtures the
    forward-simulation oracle runs on.  Resamples until the configuration is
    comfortably non-degenerate.
    """
    point_ids = [e.id for e in g.entities if e.kind is EntityKind.POINT]
    line_ids = [e.id for e in g.entities if e.kind is EntityKind.LINE]
    assert len(point_ids) + len(line_ids) == g.n, "sampling supports points and lines only"

    incident: dict[str, list[str]] = {l: [] for l in line_ids}
    for c in g.constraints:
        if c.kind is ConstraintKind.INCIDENCE:
            a, b = c.between
            p, l = (a, b) if g.kind_of(a) is EntityKind.POINT else (b, a)
            if l in incident:
                incident[l].append(p)

    for _ in range(200):
        placements: dict[str, Placement] = {
            p: Point2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)) for p in point_ids
        }
        if any(
            placements[a].distance_to(placements[b]) < 0.4
            for a, b in combinations(point_ids, 2)
        ):
            continue
        ok = True
        for l in line_ids:
            anchors = incident[l]
            if len(anchors) >= 2:
                placements[l] = line_through_points(placements[anchors[0]], placements[anchors[1]])
            elif len(anchors) == 1:
                base = placements[anchors[0]]
                other = Point2(base.x + math.cos(rng.uniform(0, math.pi)),
                               base.y + math.sin(rng.uniform(0, math.pi)))
                placements[l] = line_through_points(base, other)
            else:
                placements[l] = LineRep(rng.uniform(0, math.pi), rng.uniform(-2, 2))
        for la, lb in combinations(line_ids, 2):
            if unsigned_line_angle(placements[la], placements[lb]) < 0.2:
                ok = False
        if ok:
            return placements
    raise AssertionError("could not sample a generic embedding")


def grid_embedding(g: ConstraintGraph, rng: random.Random) -> dict[str, Placement]:
    """Points on distinct cells of a ceil(sqrt(2n))-square unit grid, jittered
    inside the middle 60% of their cell, as the benchmark's sketch sampler
    places them: any two points end up at least 0.4 apart, at any n."""
    side = max(1, math.ceil(math.sqrt(2 * g.n)))
    cells = rng.sample(range(side * side), g.n)
    placements: dict[str, Placement] = {}
    for e, cell in zip(g.entities, cells):
        assert e.kind is EntityKind.POINT, "the grid sampler places points only"
        i, j = divmod(cell, side)
        placements[e.id] = Point2(i + rng.uniform(0.2, 0.8), j + rng.uniform(0.2, 0.8))
    return placements


def measured_graph(g: ConstraintGraph, placements: dict[str, Placement]) -> ConstraintGraph:
    """Same structure as ``g`` with values measured from the placements."""
    new_constraints = []
    for c in g.constraints:
        a, b = c.between
        if c.kind is ConstraintKind.DISTANCE:
            value = placements[a].distance_to(placements[b])
        elif c.kind is ConstraintKind.ANGLE:
            value = unsigned_line_angle(placements[a], placements[b])
        elif c.kind is ConstraintKind.POINT_LINE_DISTANCE:
            p, l = (a, b) if isinstance(placements[a], Point2) else (b, a)
            value = placements[l].distance_to_point(placements[p])
        else:
            new_constraints.append(c)
            continue
        new_constraints.append(Constraint(c.kind, c.between, value))
    return build_graph(g.entities, new_constraints)


def recombination_chain(length):
    """A triangle strip a, b, c1..cL (each point joined to the two before it)
    and, per level j, a fresh point x_j tied to the adjacent strip points
    s_j, s_j+1 through two rigid strips s, t1, t2, t3, x_j (each point joined
    to the two before it; t1 only to s).  Every level is a triangle
    recombination whose base is the strip grown so far.  Values are measured
    from the grid embedding with seed 0."""
    strip = ["a", "b"] + [f"c{k}" for k in range(1, length + 1)]
    pairs = [("a", "b")] + [(strip[k - d], strip[k]) for k in range(2, len(strip)) for d in (2, 1)]
    names = list(strip)
    for j in range(1, length + 1):
        x = f"x{j}"
        names.append(x)
        for end in strip[j : j + 2]:
            t1, t2, t3 = (f"{end}_{x}_{i}" for i in (1, 2, 3))
            names += [t1, t2, t3]
            pairs += [(end, t1), (end, t2), (t1, t2), (t1, t3), (t2, t3), (t2, x), (t3, x)]
    g = build_graph([point(v) for v in names], [distance(p, q, 1.0) for p, q in pairs])
    return measured_graph(g, grid_embedding(g, random.Random(0)))


def nested_triangles(levels, strip=5):
    """A cluster between points p and q: at level 0 a rigid strip of
    ``strip`` points p, t1, ..., q, each joined to the two before it; at
    level k a fresh point r and three level k - 1 clusters between p and r,
    r and q, p and q.  Each level nests one triangle recombination inside
    the first and second clusters of the next."""
    names, pairs = ["p", "q"], []

    def fresh():
        names.append(f"v{len(names)}")
        return names[-1]

    def cluster(p, q, level):
        if level == 0:
            chain = [p, *(fresh() for _ in range(strip - 2)), q]
            for k in range(1, strip):
                pairs.extend((chain[j], chain[k]) for j in (k - 2, k - 1) if j >= 0)
            return
        r = fresh()
        for a, b in ((p, r), (r, q), (p, q)):
            cluster(a, b, level - 1)

    cluster("p", "q", levels)
    g = build_graph([point(v) for v in names], [distance(p, q, 1.0) for p, q in pairs])
    return measured_graph(g, grid_embedding(g, random.Random(0)))


def placements_close(a: Placement, b: Placement, tol: float) -> bool:
    if isinstance(a, Point2) and isinstance(b, Point2):
        return a.close_to(b, tol)
    if isinstance(a, LineRep) and isinstance(b, LineRep):
        return lines_close(a, b, tol)
    return (
        a.center.close_to(b.center, tol) and abs(a.r - b.r) <= tol  # type: ignore[union-attr]
    )


def same_solutions(found, expected, tol: float = 1e-9) -> bool:
    """Whether two lists of (selector, solution) pairs hold the same
    solutions up to order: each solution of ``found`` pairs off with its own
    one of ``expected`` whose placements are all within ``tol``."""
    left = [sol.placements for _, sol in expected]
    for _, sol in found:
        match = next((k for k, other in enumerate(left) if other.keys() == sol.placements.keys()
                      and all(placements_close(p, other[e], tol)
                              for e, p in sol.placements.items())), None)
        if match is None:
            return False
        del left[match]
    return not left


def alignment_motions(
    src: tuple[Placement, Placement],
    dst: tuple[Placement, Placement],
    tol: float = EPS,
) -> list[Motion]:
    """All isometries mapping the source pair onto the destination pair: the
    oracle by which :func:`solution_matches_sample` moves a sample onto a
    solution.

    Supports (point, point) pairs, which admit a direct and a reflected
    motion, and (point, line) pairs, the base pairs of mixed sketches, which
    admit two motions generically and four when the point lies on the line.
    Candidates come back in a fixed order (direct motions before reflected
    ones).  Raises LengthMismatchError for pairs that no motion maps onto
    each other.
    """
    if isinstance(src[0], Point2) and isinstance(src[1], Point2):
        if not (isinstance(dst[0], Point2) and isinstance(dst[1], Point2)):
            raise LengthMismatchError("pair kinds differ between source and destination")
        return [rigid_align(src, dst, reflect=False), rigid_align(src, dst, reflect=True)]

    # Normalise to (point, line) order on both sides.
    def split(pair):
        a, b = pair
        if isinstance(a, Point2) and isinstance(b, LineRep):
            return a, b
        if isinstance(a, LineRep) and isinstance(b, Point2):
            return b, a
        raise LengthMismatchError("alignment supports (point,point) and (point,line) pairs only")

    ps, ls = split(src)
    pd, ld = split(dst)
    offs, offd = abs(ls.signed_offset(ps)), abs(ld.signed_offset(pd))
    if abs(offs - offd) > max(tol, EPS * max(1.0, offd)):
        raise LengthMismatchError(f"point-line distances differ: {offs} vs {offd}")

    candidates: list[Motion] = []
    for reflect in (False, True):
        theta_s = -ls.theta if reflect else ls.theta
        for phi in (ld.theta - theta_s, ld.theta - theta_s + math.pi):
            cos_r, sin_r = math.cos(phi), math.sin(phi)
            px, py = ps.x, (-ps.y if reflect else ps.y)
            tx = pd.x - (cos_r * px - sin_r * py)
            ty = pd.y - (sin_r * px + cos_r * py)
            motion = Motion(reflect=reflect, rotation=phi, translation=(tx, ty))
            if lines_close(motion.apply_line(ls), ld, max(tol, 1e-7)):
                candidates.append(motion)
    if not candidates:
        raise LengthMismatchError("no motion maps the source pair onto the destination pair")
    return candidates


def solution_matches_sample(
    g: ConstraintGraph,
    base_pair: tuple[str, str],
    sample: dict[str, Placement],
    solutions,
    tol: float = 1e-7,
) -> bool:
    """True when some enumerated solution equals the sample up to a motion
    aligning the base pair."""
    src = (sample[base_pair[0]], sample[base_pair[1]])
    for _, sol in solutions:
        dst = (sol.placements[base_pair[0]], sol.placements[base_pair[1]])
        try:
            motions = alignment_motions(src, dst, tol)
        except GcsError:
            continue
        for motion in motions:
            moved = {name: motion.apply(p) for name, p in sample.items()}
            if all(placements_close(moved[name], sol.placements[name], tol) for name in moved):
                return True
    return False


def merge_step(
    g: ConstraintGraph, clusters: list[Cluster]
) -> tuple[MergeRecord, list[Cluster]] | None:
    """Apply the first applicable merge rule, or return None at the fixpoint.

    Exhaustive reference for :func:`gcs2d.decompose`: every live pair, then
    every live triple, is tried in lexicographic order of sorted cluster ids
    after each merge.  Triples are skipped a pair (a, b) at a time when a and
    b do not share exactly one entity, which changes nothing but the time.
    """
    ordered = sorted(clusters, key=lambda c: c.id)
    fresh = max((c.id for c in clusters), default=-1) + 1

    for a, b in combinations(ordered, 2):
        shared = a.entity_ids & b.entity_ids
        if len(shared) >= 2:
            record = MergeRecord("R2", fresh, (a.id, b.id), tuple(sorted(shared)))
            merged = Cluster(
                fresh,
                a.entity_ids | b.entity_ids,
                a.owned_constraints | b.owned_constraints,
                record,
            )
            rest = [c for c in ordered if c.id not in (a.id, b.id)]
            return record, rest + [merged]

    for i, a in enumerate(ordered):
        for j in range(i + 1, len(ordered)):
            b = ordered[j]
            sab = a.entity_ids & b.entity_ids
            if len(sab) != 1:
                continue  # no triple (a, b, c) qualifies; the order stays lexicographic
            for c in ordered[j + 1:]:
                sbc = b.entity_ids & c.entity_ids
                sca = c.entity_ids & a.entity_ids
                if not (len(sbc) == len(sca) == 1):
                    continue
                (x,), (y,), (z,) = sab, sbc, sca
                if len({x, y, z}) != 3:
                    continue
                if any(dof(g.kind_of(v)) != 2 for v in (x, y, z)):
                    continue  # a 3-DOF hinge entity would leave the union non-rigid
                record = MergeRecord("R1", fresh, (a.id, b.id, c.id), (x, y, z))
                merged = Cluster(
                    fresh,
                    a.entity_ids | b.entity_ids | c.entity_ids,
                    a.owned_constraints | b.owned_constraints | c.owned_constraints,
                    record,
                )
                rest = [k for k in ordered if k.id not in (a.id, b.id, c.id)]
                return record, rest + [merged]

    return None


def reference_decompose(g: ConstraintGraph) -> DecompositionResult:
    """:func:`gcs2d.decompose` by rerunning :func:`merge_step` to the fixpoint."""
    if g.n < 2:
        raise TooSmallError(f"decomposition needs at least 2 entities, got {g.n}")
    clusters = seed_clusters(g)
    everything = list(clusters)
    log: list[MergeRecord] = []
    while True:
        step = merge_step(g, clusters)
        if step is None:
            break
        record, clusters = step
        everything.append(clusters[-1])
        log.append(record)

    final = tuple(sorted(clusters, key=lambda c: c.id))
    nontrivial = sum(1 for c in final if not c.is_seed)
    if len(final) == 1 and final[0].entity_ids == set(g.entity_ids):
        klass = ReducibilityClass.FULLY_REDUCIBLE
    elif not log and len(final) > 1:
        klass = ReducibilityClass.IRREDUCIBLE
    else:
        klass = ReducibilityClass.PARTIALLY_REDUCIBLE
    # Per merge: its first largest parent, and what the others add to it.
    growth = []
    for record in log:
        children = [everything[p] for p in record.parents]
        base = min(children, key=lambda c: (-len(c.entity_ids), c.id))
        brought = frozenset().union(*[c.entity_ids for c in children if c is not base])
        growth.append((base.id, brought - base.entity_ids))
    return DecompositionResult(final, tuple(log), klass, nontrivial, tuple(everything),
                               tuple(growth))


def materialised(result: DecompositionResult) -> DecompositionResult:
    """``result`` with every cluster's sets: one that a merge took over as
    its heir carries none, and gets the union of its parents' here, in id
    order.  Quadratic in n, for tests only."""
    clusters: list[Cluster] = []
    for c in result.all_clusters:
        if c.entity_ids is None:
            parents = [clusters[p] for p in c.merge.parents]
            c = Cluster(c.id, frozenset().union(*[p.entity_ids for p in parents]),
                        frozenset().union(*[p.owned_constraints for p in parents]), c.merge)
        clusters.append(c)
    return result._replace(all_clusters=tuple(clusters))


def reference_build_plan(result: DecompositionResult, g: ConstraintGraph) -> Plan:
    """:func:`gcs2d.decompose._build_plan` by building a plan for every
    cluster, in id order, each a copy of its base child's steps plus those
    its merge adds: quadratic in n, kept as the reference."""
    # A cluster's id is its index and every merge comes after its parents,
    # so one pass in id order finds each child's plan built.  A cluster that
    # cannot be recombined holds its refusal in place of a plan, which counts
    # only where a plan reads it: a merge reads its base child, then checks
    # its own shared entities, then reads its first and second child.  It
    # reads every cluster's sets, and none of the result's growth records.
    clusters = materialised(result).all_clusters
    root = result.final_clusters[0].id
    plans: list[Plan | UnsupportedStepError] = []
    for cluster in clusters[: root + 1]:
        if cluster.merge is None:
            (constraint,) = cluster.owned_constraints
            plans.append(Plan(cluster.id, constraint, (), cluster.owned_constraints))
            continue
        children = [clusters[p] for p in cluster.merge.parents]
        base_child = min(children, key=lambda c: (-len(c.entity_ids), c.id))
        base_plan = plans[base_child.id]
        if not isinstance(base_plan, Plan):
            plans.append(base_plan)
            continue
        # What the merge adds is read off its other children, not off the
        # cluster: a strip's base child holds all of it but one point.
        others = [c for c in children if c is not base_child]
        pool = sorted(set().union(*[c.owned_constraints for c in others]))
        unplaced = set().union(*[c.entity_ids for c in others]) - base_child.entity_ids

        # Sequential extension: place entities one at a time from two
        # constraints whose other endpoints are already placed.
        steps: list[PlanStep] = []
        while unplaced:
            for target in sorted(unplaced):
                ready = [i for i in pool if target in (ends := g.constraints[i].between)
                         and next(e for e in ends if e != target) not in unplaced]
                if len(ready) >= 2:
                    steps.append(PlaceByTwoLoci(target, (ready[0], ready[1])))
                    unplaced.remove(target)
                    break
            else:
                break

        if unplaced:
            # Recombination of independently solved clusters.  Only a
            # triangle merge gets here: in a graph with no over-constrained
            # subset, the parents of a pair merge hold the same entities, so
            # the base child places them all.
            placed = set(base_child.entity_ids)
            steps = []
            first, second = sorted(others, key=lambda c: c.id)
            (u,), (v,), (w,) = (base_child.entity_ids & first.entity_ids,
                                base_child.entity_ids & second.entity_ids,
                                first.entity_ids & second.entity_ids)
            refusals = [UnsupportedStepError(
                f"triangle recombination needs shared points, got "
                f"{g.kind_of(e).value} {e!r}") for e in (u, v, w)
                if g.kind_of(e) is not EntityKind.POINT]
            refusals += [p for p in (plans[first.id], plans[second.id]) if not isinstance(p, Plan)]
            if refusals:
                plans.append(refusals[0])
                continue
            steps.append(TriangleMerge((u, v, w), (base_child.id, first.id, second.id),
                                       (plans[first.id], plans[second.id])))
            placed.add(w)
            for child, pair in ((first, (u, w)), (second, (v, w))):
                if child.entity_ids <= placed:
                    continue
                steps.append(AlignCluster(child.id, tuple(sorted(pair)), plans[child.id]))
                placed |= child.entity_ids

        plans.append(Plan(base_plan.base_cluster, base_plan.base_constraint,
                          base_plan.steps + tuple(steps), cluster.owned_constraints))
    plan = plans[root]
    if not isinstance(plan, Plan):
        raise plan
    return plan


def count_structural_work(monkeypatch) -> Counter:
    """Count from now on the structural computations the library runs, not
    the calls that find a kept result: pebble games (``games``),
    decomposition fixpoints (``fixpoints``), plan builds (``plans``) and
    program compiles (``programs``, one per plan: the cluster plans its
    recombination steps read are compiled into the same program)."""
    counts: Counter = Counter()
    for module, name, label in (("rigidity", "_pebble_diagnosis", "games"),
                                ("decompose", "_fixpoint", "fixpoints"),
                                ("decompose", "_build_plan", "plans"),
                                ("solve", "_compile", "programs")):
        # The package exports a function named decompose, so the module is
        # looked up by its full name.
        module = importlib.import_module(f"gcs2d.{module}")

        def counted(*args, real=getattr(module, name), label=label):
            counts[label] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    return counts


# The unbound step resolution the walker's kernels replace: every evaluation
# looks up the step's constraints, their other endpoints and the locus kinds
# again.  Kept here as the reference the kernels are checked against.


def _placed(placements: dict[str, Placement], entity_id: str) -> Placement:
    try:
        return placements[entity_id]
    except KeyError:
        raise MissingPlacementError(f"entity {entity_id!r} has no placement yet") from None


def _other_endpoint(c: Constraint, target: str) -> str:
    a, b = c.between
    if target == a:
        return b
    if target == b:
        return a
    raise UnsupportedStepError(f"constraint {c.between} does not touch {target!r}")


# The mapping-based recombination options and residuals the compiled
# program's kernels replace, kept so that the reference walker resolves every
# step as the walker did before plans were compiled.


def _triangle_options(
    step: TriangleMerge, g: ConstraintGraph, tol: float | None,
    placements: Mapping[str, Placement],
) -> tuple[list[dict[str, Placement]], bool]:
    """Place the one unplaced shared point from two virtual-distance circles.

    The first and second clusters may admit several internal conformations
    with different virtual distances, so the options run over every
    candidate distance pair and every intersection root; infeasible
    combinations are simply absent.  The clusters are solved once the
    step's own shape is checked."""
    if (len(step.points), len(step.clusters), len(step.plans)) != (3, 3, 2):
        raise UnsupportedStepError(
            f"triangle merge needs 3 points, 3 clusters and 2 plans, got {len(step.points)},"
            f" {len(step.clusters)} and {len(step.plans)}")
    p0, p1, p2 = points = step.points
    if [p for p in points if p not in placements] != [p2]:
        raise UnsupportedStepError(
            "triangle merge expects exactly the third shared point unplaced"
        )
    anchor1 = _as_point(placements, p0)
    anchor2 = _as_point(placements, p1)
    first, second = (reference_local_solutions(sub, g, tol) for sub in step.plans)
    options: list[dict[str, Placement]] = []
    tangent = False
    failure: GcsError | None = None
    for d12 in _pair_distances(second, p1, p2):  # |p1 p2| candidates
        for d20 in _pair_distances(first, p2, p0):  # |p2 p0| candidates
            if d12 <= 1e-9 or d20 <= 1e-9:
                continue
            try:
                hit = intersect_circle_circle(
                    CircleRep(anchor1, d20), CircleRep(anchor2, d12)
                )
            except EmptyIntersectionError as exc:
                failure = failure or exc
                continue
            except CoincidentError:
                failure = failure or UnderDeterminedError(
                    p2, "coincident virtual-distance circles leave the target free"
                )
                continue
            tangent = tangent or hit.tangent
            for p in _order_points(list(hit.points)):
                if not any(p.close_to(existing[p2]) for existing in options):
                    options.append({p2: p})
    try:
        if not options:
            raise failure or EmptyIntersectionError(
                f"no virtual-distance circles intersect to place {p2!r}"
            )
        return options, tangent
    finally:
        failure = None  # a caught failure's traceback holds this frame


def _pair_distances(
    conformers: list[dict[str, Placement]], a: str, b: str
) -> tuple[float, ...]:
    """Distinct |ab| values across conformations, in conformer order."""
    values: list[float] = []
    for conformer in conformers:
        d = _as_point(conformer, a).distance_to(_as_point(conformer, b))
        if not any(abs(d - seen) <= 1e-9 for seen in values):
            values.append(d)
    return tuple(values)


def _as_point(placements: Mapping[str, Placement], entity_id: str) -> Point2:
    placement = _placed(placements, entity_id)
    if not isinstance(placement, Point2):
        raise UnsupportedStepError(f"entity {entity_id!r} is not placed as a point")
    return placement


def _align_options(
    step: AlignCluster, g: ConstraintGraph, tol: float | None,
    placements: Mapping[str, Placement],
) -> tuple[list[dict[str, Placement]], bool]:
    """Glue a locally solved cluster onto its placed shared pair.

    Runs over the cluster's conformations and, per conformation, the motions
    mapping the local pair onto the placed pair (once when a conformation
    is its own mirror image across the pair); conformations whose pair
    geometry cannot match are skipped.  When none is left, the first to fail
    names the verdict: a pair of another size is an empty intersection, a
    coincident pair leaves the cluster under-determined.  A cluster whose
    owned constraints' entities are all placed leaves nothing to place and
    is refused before it is solved; once it is solved, one whose plan does
    not place the shared pair as points, or an endpoint of a constraint it
    owns, is refused, in that order."""
    if len(step.shared) != 2:
        raise UnsupportedStepError(f"alignment needs 2 shared points, got {step.shared!r}")
    dst = (
        _placed(placements, step.shared[0]),
        _placed(placements, step.shared[1]),
    )
    owned = step.plan.owned_constraints
    if {e for ci in owned for e in g.constraints[ci].between} <= placements.keys():
        raise UnsupportedStepError(f"alignment of cluster {step.cluster} has nothing left to place")
    try:
        conformations = reference_local_solutions(step.plan, g, tol)
    except MissingPlacementError:
        if tol is None:
            raise
        # A leaf check met an owned endpoint the cluster does not place;
        # the shared pair is checked first, on a leaf that is not checked.
        _shared_points(step, reference_local_solutions(step.plan, g, None)[0])
        raise
    _shared_points(step, conformations[0])
    for e in (e for ci in sorted(owned) for e in g.constraints[ci].between):
        _placed(conformations[0], e)
    outcomes: list[dict[str, Placement]] = []
    failure: GcsError | None = None
    for local in conformations:
        unplaced = [e for e in local if e not in placements]
        src = (local[step.shared[0]], local[step.shared[1]])
        try:
            motions = [rigid_align(src, dst, False), rigid_align(src, dst, True)]
        except LengthMismatchError as exc:
            failure = failure or EmptyIntersectionError(
                f"no conformation of cluster {step.cluster} fits the placed pair: {exc}"
            )
            continue
        except CoincidentPointsError:
            failure = failure or UnderDeterminedError(
                unplaced[0], "a coincident shared pair leaves the cluster free to turn"
            )
            continue
        images = [{e: motion.apply(local[e]) for e in unplaced} for motion in motions]
        if len(images) == 2 and all(placements_close(p, images[1][e], EPS)
                                    for e, p in images[0].items()):
            images.pop()  # the conformation is its own mirror image across the pair
        outcomes += images
    try:
        if not outcomes:
            raise failure or EmptyIntersectionError(
                f"no conformation of cluster {step.cluster} fits the placed pair"
            )
        return outcomes, False
    finally:
        failure = None  # a raised failure's traceback holds this frame


def _shared_points(step: AlignCluster, local: Mapping[str, Placement]) -> None:
    """Refuse a conformation lacking the shared pair, or holding one of it
    as another shape than a point: each entity in turn, as compiling does."""
    for e in step.shared:
        if not isinstance(_placed(local, e), Point2):
            raise UnsupportedStepError(f"entity {e!r} is not placed as a point")


def _constraint_residual(c: Constraint, placements: Mapping[str, Placement]) -> float:
    a = _placed(placements, c.between[0])
    b = _placed(placements, c.between[1])
    kind = c.kind._value_
    if kind == "distance":
        return a.distance_to(b) - c.value
    if kind == "angle":
        return unsigned_line_angle(a, b) - fold_angle(c.value)
    if kind == "point_line_distance":
        p, l = (a, b) if isinstance(a, Point2) else (b, a)
        return l.distance_to_point(p) - c.value
    if kind == "incidence":
        p, locus = (a, b) if isinstance(a, Point2) else (b, a)
        if isinstance(locus, LineRep):
            return locus.signed_offset(p)
        return locus.center.distance_to(p) - locus.r
    # Tangency: signed distance to the nearest tangency configuration.
    if isinstance(a, LineRep) or isinstance(b, LineRep):
        l, k = (a, b) if isinstance(a, LineRep) else (b, a)
        return l.distance_to_point(k.center) - k.r
    d = a.center.distance_to(b.center)
    external = d - (a.r + b.r)
    internal = d - abs(a.r - b.r)
    return external if abs(external) <= abs(internal) else internal


def _report(constraints: list[Constraint], placements: Mapping[str, Placement],
            tol: float) -> ResidualReport:
    """:func:`verify` without the kind check, of ``constraints`` only."""
    residuals = tuple(_constraint_residual(c, placements) for c in constraints)
    max_abs = _worst(residuals)
    return ResidualReport(residuals, max_abs, tol, max_abs <= tol)


def _point_loci(c: Constraint, target: str, placements: dict[str, Placement]) -> list[Placement]:
    anchor = _placed(placements, _other_endpoint(c, target))
    if c.kind is ConstraintKind.DISTANCE:
        if not isinstance(anchor, Point2):
            raise UnsupportedStepError("distance locus needs a placed point anchor")
        return [CircleRep(anchor, c.value)]
    if c.kind is ConstraintKind.INCIDENCE:
        if isinstance(anchor, (LineRep, CircleRep)):
            return [anchor]
        raise UnsupportedStepError("incidence locus needs a placed line or circle")
    if c.kind is ConstraintKind.POINT_LINE_DISTANCE:
        if not isinstance(anchor, LineRep):
            raise UnsupportedStepError("offset locus needs a placed line anchor")
        if c.value == 0.0:
            return [anchor]
        return [LineRep(anchor.theta, anchor.c + c.value), LineRep(anchor.theta, anchor.c - c.value)]
    raise UnsupportedStepError(f"no point locus for a {c.kind.value} constraint")


def _place_point(
    step: PlaceByTwoLoci, placements: dict[str, Placement], g: ConstraintGraph
) -> tuple[list[dict[str, Placement]], bool]:
    group_a = _point_loci(g.constraints[step.constraints[0]], step.target, placements)
    group_b = _point_loci(g.constraints[step.constraints[1]], step.target, placements)
    points: list[Point2] = []
    tangent = False
    coincident = False
    for la in group_a:
        for lb in group_b:
            pts, tan, coin = _intersect_loci(la, lb)
            tangent = tangent or tan
            coincident = coincident or coin
            for p in pts:
                if not any(p.close_to(q) for q in points):
                    points.append(p)
    if not points:
        if coincident:
            raise UnderDeterminedError(step.target, "coincident loci leave the target free")
        raise EmptyIntersectionError(f"no locus intersection places {step.target!r}")
    ordered = _order_points(points)
    return [{step.target: p} for p in ordered], tangent


def _place_line(
    step: PlaceByTwoLoci, placements: dict[str, Placement], g: ConstraintGraph
) -> tuple[list[dict[str, Placement]], bool]:
    anchors: list[tuple[str, Placement, float | None]] = []
    for idx in step.constraints:
        c = g.constraints[idx]
        anchor = _placed(placements, _other_endpoint(c, step.target))
        if c.kind is ConstraintKind.INCIDENCE and isinstance(anchor, Point2):
            anchors.append(("point", anchor, None))
        elif c.kind is ConstraintKind.ANGLE and isinstance(anchor, LineRep):
            anchors.append(("angle", anchor, c.value))
        else:
            raise UnsupportedStepError(
                f"cannot place line {step.target!r} from a {c.kind.value} constraint"
            )
    anchors.sort(key=lambda item: item[0] != "point")
    tags = tuple(tag for tag, _, _ in anchors)
    if tags == ("point", "point"):
        p, q = anchors[0][1], anchors[1][1]
        try:
            result = line_through_points(p, q)
        except CoincidentPointsError:
            raise UnderDeterminedError(step.target, "both incident points coincide") from None
        return [{step.target: result}], False
    if tags == ("point", "angle"):
        p = anchors[0][1]
        ref, alpha = anchors[1][1], anchors[1][2]
        first = line_through_point_angle(p, ref, alpha, branch=0)
        second = line_through_point_angle(p, ref, alpha, branch=1)
        lines = [first] if lines_close(first, second) else [first, second]
        lines.sort(key=lambda l: (l.theta, l.c))
        return [{step.target: l} for l in lines], False
    raise UnderDeterminedError(step.target, "angles fix the direction but not the offset")


def _options_for_step(
    step, placements: dict[str, Placement], g: ConstraintGraph, tol: float | None
) -> tuple[list[dict[str, Placement]], bool]:
    if isinstance(step, PlaceByTwoLoci):
        kind = g.kind_of(step.target)
        if kind is EntityKind.POINT:
            return _place_point(step, placements, g)
        if kind is EntityKind.LINE:
            return _place_line(step, placements, g)
        raise UnsupportedStepError(f"cannot place a {kind.value} by two loci")
    if isinstance(step, TriangleMerge):
        return _triangle_options(step, g, tol, placements)
    if isinstance(step, AlignCluster):
        return _align_options(step, g, tol, placements)
    raise UnsupportedStepError(f"unknown plan step {type(step).__name__}")


def reference_local_solutions(plan: Plan, g: ConstraintGraph,
                              tol: float | None) -> list[dict[str, Placement]]:
    """The conformations of a cluster, for the reference walker's
    recombination, which glues each under both motions: every leaf of the
    cluster's :func:`reference_walk` within ``tol`` of the constraints the
    cluster owns (every leaf for ``tol`` None), sorted generic first, and
    of those congruent by their rounded pairwise measurements the first.
    Unlike the walker, which walks a cluster's steps inline and keeps one
    leaf of those its base's symmetries map onto each other, this solves
    the cluster anew for each evaluation of a step that reads it."""
    valid = reference_walk(plan, g, None, tol, sorted(plan.owned_constraints))
    firsts: dict[tuple, Solution] = {}  # congruence signature -> its first solution
    for sol in sorted(valid, key=lambda s: not reference_is_generic(s.placements)):
        firsts.setdefault(reference_congruence_signature(sol.placements), sol)
    return [dict(sorted(sol.placements.items())) for sol in firsts.values()]


def reference_congruence_signature(placements: dict[str, Placement]) -> tuple:
    """Isometry-invariant fingerprint: rounded pairwise measurements."""
    values: list[float] = []
    items = sorted(placements.items())
    for i, (_, a) in enumerate(items):
        if isinstance(a, CircleRep):
            values.append(a.r)
        for _, b in items[i + 1 :]:
            values.append(_pairwise_invariant(a, b))
    return tuple(round(v, 7) for v in values)


def _pairwise_invariant(a: Placement, b: Placement) -> float:
    if isinstance(a, Point2) and isinstance(b, Point2):
        return a.distance_to(b)
    if isinstance(a, LineRep) and isinstance(b, LineRep):
        return unsigned_line_angle(a, b)
    if isinstance(a, LineRep) and isinstance(b, (Point2, CircleRep)):
        return a.distance_to_point(b if isinstance(b, Point2) else b.center)
    if isinstance(b, LineRep):
        return b.distance_to_point(a if isinstance(a, Point2) else a.center)
    ca = a if isinstance(a, Point2) else a.center
    cb = b if isinstance(b, Point2) else b.center
    return ca.distance_to(cb)


def reference_is_generic(placements: dict[str, Placement]) -> bool:
    """Whether no two placements of one kind coincide, pair by pair."""
    items = list(placements.items())
    for i, (_, a) in enumerate(items):
        for _, b in items[i + 1 :]:
            if isinstance(a, Point2) and isinstance(b, Point2) and a.close_to(b):
                return False
            if isinstance(a, LineRep) and isinstance(b, LineRep) and lines_close(a, b):
                return False
            if (
                isinstance(a, CircleRep)
                and isinstance(b, CircleRep)
                and a.center.close_to(b.center)
                and abs(a.r - b.r) <= 1e-9
            ):
                return False
    return True


@dataclass(slots=True)
class _ChronoFrame:
    options: list[dict[str, Placement]]
    pick: int
    last: int
    tangent: bool


def reference_walk(
    plan: Plan,
    g: ConstraintGraph,
    selector: tuple[int, ...] | None,
    tol: float | None,
    measured: list[int] | None = None,
) -> Iterator[Solution]:
    """:func:`gcs2d.solve._walk` with chronological backtracking only, and
    every step resolved afresh on each evaluation by :func:`_options_for_step`,
    which solves the clusters a recombination step reads each time through
    :func:`reference_local_solutions`.

    Exhaustive reference for the walker and its compiled step kernels: every
    dead end takes back the previous step's root, so every subtree that the
    residual rule keeps is visited.  With ``tol`` set, each root is checked
    where it is placed against the constraints of ``measured`` (by default
    all of the graph's) whose endpoints it completes, found from the
    placements, and a root that breaks one is a dead end; the leaf check is
    :func:`gcs2d.solve.verify`'s on ``measured``, which also checks the
    constraints the base completes.  Same arguments, solutions (yielded one
    at a time) and errors.
    """
    constraints = [g.constraints[i] for i in
                   (range(len(g.constraints)) if measured is None else measured)]
    placements = dict(base_placements(g, plan.base_constraint))
    yielded = False
    failure: GcsError | None = None  # the first one recorded
    frames: list[_ChronoFrame] = []
    cursor = 0  # branching steps on the path, i.e. the next selector entry
    while True:
        i = len(frames)
        worst = 0.0  # over the constraints the root last placed completes
        if frames and tol is not None:
            root = frames[-1].options[frames[-1].pick]
            worst = _worst(_constraint_residual(c, placements) for c in constraints
                           if any(e in root for e in c.between)
                           and all(e in placements for e in c.between))
        if tol is not None and not worst <= tol:
            failure = failure or VerificationError(f"residual {worst} exceeds {tol}")
        elif i < len(plan.steps):
            try:
                options, tangent = _options_for_step(plan.steps[i], placements, g, tol)
                first, last = 0, len(options) - 1
                if selector is not None and last:
                    first = last = selector[cursor] if cursor < len(selector) else 0
                    if not 0 <= first < len(options):
                        raise BadBranchError(
                            f"branch {first} out of range for step {i} with {len(options)} roots"
                        )
            except GcsError as exc:
                failure = failure or exc
            else:
                frames.append(_ChronoFrame(options, first, last, tangent))
                cursor += len(options) > 1
                placements.update(options[first])
                continue
        elif selector is not None and cursor < len(selector):
            failure = failure or BadBranchError(
                f"selector has {len(selector)} entries but only {cursor} steps branch"
            )
        else:
            sol = Solution(
                dict(placements),
                tuple(f.pick for f in frames if len(f.options) > 1),
                tuple(k for k, f in enumerate(frames) if f.tangent),
            )
            report = _report(constraints, sol.placements, tol) if tol is not None else None
            if report is None or report.passed:
                yielded = True
                yield sol
            else:
                failure = failure or VerificationError(
                    f"residual {report.max_abs} exceeds {tol}"
                )
        # Take back roots, deepest first, until a step has one left to try.
        while frames:
            top = frames[-1]
            for e in top.options[top.pick]:
                del placements[e]
            if top.pick < top.last:
                break
            frames.pop()
            cursor -= len(top.options) > 1
        if not frames:
            break
        top.pick += 1
        placements.update(top.options[top.pick])
    if not yielded:
        raise failure or VerificationError("no branch produced a solution")
