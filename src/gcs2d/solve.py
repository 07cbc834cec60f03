"""Numeric execution of construction plans: branch enumeration and residuals.

The executor fixes the gauge through the plan's base constraint (first entity
at the origin, second along the positive x axis, or the line equal to the x
axis for incidence-style bases).  Each subsequent step resolves to line and
circle intersections; steps with two or more roots consume one entry of the
branch selector.  Roots are ordered by angle around their centroid and then
lexicographically by coordinates, so selectors are stable across runs.

One depth-first walker yields each solution at its leaf: :func:`execute`
takes the first on a selector's path, :func:`enumerate_solutions` up to
``limit``.  It walks a program, compiled once per plan and kept next to it
with the graph's structure, so every valuation of the structure reuses it.
Compiling numbers the entities in the order the plan places them and turns
each step into one record: a kernel from the placements (a list by entity
index) and the walk's constraint values to the step's roots, as tuples
aligned with the entities it places; the steps that place what it reads;
and the constraints it owns, those whose last endpoint it places.
Compiling settles each step's structure and reads no value: each anchor's
slot, that the base or an earlier step places it as the shape its
constraint needs, and the case a line is placed by; a kernel checks values
only.  A point at two distances, the common step, gets its roots straight
from the anchors' coordinates (:func:`circle_circle_roots`).  A
recombination step's cluster plans compile into sub-programs that measure
the constraints each cluster owns.  A walk of one keeps its first 64
leaves within tolerance, whose congruence-distinct ones are the cluster's
conformations, solved once per graph object, which keeps them (they depend
on values, so they are not kept with the structure); a walk binds them into
the kernels that read them.  With a tolerance, a root that breaks a
constraint its step owns is a dead end where it is placed, and a leaf checks
only the base's, which hold by construction up to rounding.

A dead end, a step without roots or a root that breaks a constraint, jumps
back to the latest step that placed what the step reads or an endpoint of a
constraint it owns (conflict-directed backjumping), as no choice made in
between changes its outcome; the step it lands on keeps that blame and, once
out of roots itself, jumps on by it.  A step with a structural fault, or that
reads a cluster without conformations, blames nothing and raises that error
whenever it runs, so the walk ends where it first reaches it, as at a leaf
that fails.  After a solution, the steps on its path take back roots one at
a time again, so the solutions, their order and the reported failure (the
first met in branch order) are those of chronological backtracking, which the
reference walker in ``tests/support.py`` does, resolving every step afresh.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence

from .decompose import AlignCluster, Plan, PlaceByTwoLoci, TriangleMerge
from .errors import (
    BadBranchError,
    CoincidentError,
    CoincidentPointsError,
    EmptyIntersectionError,
    GcsError,
    KindMismatchError,
    LengthMismatchError,
    MissingPlacementError,
    ParallelError,
    ParseError,
    UnderDeterminedError,
    UnsupportedStepError,
    VerificationError,
)
from .geometry import (
    EPS,
    CircleRep,
    LineRep,
    Placement,
    Point2,
    alignment_motions,
    circle_circle_roots,
    fold_angle,
    intersect_circle_circle,
    intersect_line_circle,
    intersect_line_line,
    line_through_point_angle,
    line_through_points,
    lines_close,
    unsigned_line_angle,
)
from .graph import _SHAPE, Constraint, ConstraintGraph, EntityKind

DEFAULT_TOL = 1e-9

X_AXIS = LineRep(math.pi / 2.0, 0.0)


class Solution(NamedTuple):
    """Placements for every entity, plus the branch choices that produced
    them and the indices of steps that hit a tangent (double) root."""

    placements: dict[str, Placement]
    branches: tuple[int, ...]
    degenerate_steps: tuple[int, ...] = ()

    @property
    def degenerate(self) -> bool:
        return bool(self.degenerate_steps)


class ResidualReport(NamedTuple):
    """Signed residual (measured minus specified) per constraint; ``max_abs``
    is NaN when one is not finite."""

    residuals: tuple[float, ...]
    max_abs: float
    tol: float
    passed: bool


# ------------------------------------------------------------ base placements


def base_placements(g: ConstraintGraph, constraint_index: int) -> dict[str, Placement]:
    """Canonical gauge-fixing placement for one seed constraint."""
    c = g.constraints[constraint_index]
    a, b = c.between
    ka, kb = g.kind_of(a)._value_, g.kind_of(b)._value_
    kind = c.kind._value_

    if kind == "distance":
        return {a: Point2(0.0, 0.0), b: Point2(c.value, 0.0)}

    if kind == "angle":
        return {a: X_AXIS, b: LineRep(math.pi / 2.0 + c.value, 0.0)}

    if kind == "incidence":
        p, other, other_kind = (a, b, kb) if ka == "point" else (b, a, ka)
        if other_kind == "line":
            return {p: Point2(0.0, 0.0), other: X_AXIS}
        if other_kind == "circle_fixed_radius":
            r = g.entity(other).radius
            return {p: Point2(0.0, 0.0), other: CircleRep(Point2(r, 0.0), r)}
        raise UnderDeterminedError(other, "a free-radius circle cannot anchor a base placement")

    if kind == "point_line_distance":
        p, l = (a, b) if ka == "point" else (b, a)
        return {l: X_AXIS, p: Point2(0.0, c.value)}

    # Tangency base: canonical external tangency along the x axis.
    for name, entity_kind in ((a, ka), (b, kb)):
        if entity_kind == "circle_free_radius":
            raise UnderDeterminedError(name, "a free-radius circle cannot anchor a base placement")
    if ka == "line" or kb == "line":
        l, k = (a, b) if ka == "line" else (b, a)
        r = g.entity(k).radius
        return {l: X_AXIS, k: CircleRep(Point2(0.0, r), r)}
    r1, r2 = g.entity(a).radius, g.entity(b).radius
    return {a: CircleRep(Point2(0.0, 0.0), r1), b: CircleRep(Point2(r1 + r2, 0.0), r2)}


# ---------------------------------------------------------------- step kernels

# A step kernel: from the placements by entity index and the constraint
# values, its roots (each a tuple aligned with the entities the step places)
# and whether it met a tangent (double) root.  Compiling has settled what it
# reads, so a kernel checks values only: each anchor it reads is placed, as
# the shape its constraint needs.  A recombination kernel takes the
# conformations of the clusters it reads first; each walk binds them.
Kernel = Callable[[list, Sequence[float]], tuple[list[tuple[Placement, ...]], bool]]


def _missing(entity_id: str) -> MissingPlacementError:
    return MissingPlacementError(f"entity {entity_id!r} has no placement yet")


def _other_endpoint(c: Constraint, target: str) -> str:
    a, b = c.between
    if target == a:
        return b
    if target == b:
        return a
    raise UnsupportedStepError(f"constraint {c.between} does not touch {target!r}")


def _raising(exc: GcsError) -> Callable[..., NoReturn]:
    """A compiled step, or part of one, that raises a copy of ``exc``
    whenever it runs."""
    kept = _fresh(exc)

    def fail(*args: object) -> NoReturn:
        raise _fresh(kept)

    return fail


def _fresh(exc: GcsError) -> GcsError:
    """A copy of ``exc``, built as ``copy.copy`` builds it, without its
    traceback, cause or context.  An error that is kept to be raised again
    is kept and raised as such copies: a raised error's traceback holds the
    frames it passed, and through them whatever keeps the error."""
    made, args, *state = exc.__reduce__()
    fresh = made(*args)
    for attributes in state:
        fresh.__dict__.update(attributes)
    return fresh


def _order_points(points: list[Point2]) -> list[Point2]:
    if len(points) < 2:
        return points
    cx = sum(p.x for p in points) / len(points)
    cy = sum(p.y for p in points) / len(points)
    return sorted(points, key=lambda p: _root_key(p.x, p.y, cx, cy))


def _root_key(x: float, y: float, cx: float, cy: float) -> tuple[float, float, float]:
    """Roots sort by their angle around the centroid (cx, cy) of all of a
    step's roots, then by their coordinates."""
    return (math.atan2(y - cy, x - cx) % (2.0 * math.pi), x, y)


class _Step(NamedTuple):
    """A compiled plan step: its kernel, its blame (the steps, -1 the base,
    that place what it reads or an endpoint of a constraint it owns), the
    slice of entity indices it places, and the constraints it owns."""

    kernel: Kernel
    blame: frozenset[int]
    places: slice
    owns: list[tuple[str, int, int, int]]  # (kind, endpoint indices, constraint index)


class _Program(NamedTuple):
    """A compiled plan: the ids of the entities it places by index (the base
    constraint's endpoints, then in step order), its steps, the constraints
    the base owns, an endpoint no step places (of the first constraint with
    one, else None), and each recombination step's index with the programs
    of the clusters it reads."""

    plan: Plan
    ids: tuple[str, ...]
    steps: tuple[_Step, ...]
    owns: list[tuple[str, int, int, int]]
    unplaced: str | None
    clusters: tuple[tuple[int, tuple[_Program, ...]], ...]


def _compile(plan: Plan, g: ConstraintGraph, measured: Iterable[int]) -> _Program:
    """Compile ``plan`` against ``g``'s structure, and each cluster plan its
    recombination steps read, once per cluster id, into that cluster's
    program, which measures the constraints the cluster owns.  The frames
    measure the constraints ``measured`` lists, or a leaf's check raises for
    the first of them with an endpoint no step places."""
    ids = list(g.constraints[plan.base_constraint].between)
    index = {e: i for i, e in enumerate(ids)}  # of the entities placed so far
    placer = [-1, -1]  # by entity index: the step that places it
    steps, clusters, subs = [], [], {}  # steps: each _Step's fields, its blame still growing
    for k, step in enumerate(plan.steps):
        kernel, reads, places, read = _compile_step(step, g, index, subs)
        steps.append((kernel, {placer[index[e]] for e in reads if e in index},
                      slice(len(ids), len(ids) + len(places)), []))
        for e in places:
            index[e] = len(ids)
            ids.append(e)
            placer.append(k)
        if read:
            clusters.append((k, read))
    base: list[tuple[str, int, int, int]] = []
    unplaced = None
    for ci in measured:
        c = g.constraints[ci]
        a, b = c.between
        if a in index and b in index:
            ends = placer[index[a]], placer[index[b]]
            last = max(ends)  # the step that owns it
            _, blame, _, owns = steps[last] if last >= 0 else (None, set(), None, base)
            blame.update(ends)
            owns.append((c.kind._value_, index[a], index[b], ci))
        elif unplaced is None:
            unplaced = b if a in index else a
    steps = [_Step(kernel, frozenset(blame), at, owns) for kernel, blame, at, owns in steps]
    return _Program(plan, tuple(ids), tuple(steps), base, unplaced, tuple(clusters))


def _compile_step(
    step, g: ConstraintGraph, index: Mapping[str, int], subs: dict[int, _Program]
) -> tuple[Kernel, Sequence[str], Sequence[str], tuple[_Program, ...]]:
    """A plan step's kernel, the entities its roots depend on, those it
    places and the programs of the clusters it reads, given the indices
    of the entities placed before it.  A structural fault, such as an anchor
    not placed before it as the shape (``graph._SHAPE``) its constraint
    needs, makes a step that raises it whenever it runs and reads and places
    nothing; only a cluster it reads without conformations fails it first."""
    read: tuple[_Program, ...] = ()
    try:
        if isinstance(step, PlaceByTwoLoci):
            reads = [e for ci in step.constraints for e in g.constraints[ci].between
                     if e != step.target]
            kind = g.kind_of(step.target)._value_
            if kind not in ("point", "line"):
                raise UnsupportedStepError(f"cannot place a {kind} by two loci")
            make = _point_kernel if kind == "point" else _line_kernel
            return make(step.target, step.constraints, g, index), reads, (step.target,), ()
        if isinstance(step, TriangleMerge):
            read = _sub_programs(zip(step.clusters[1:], step.plans, strict=True), g, subs)
            return (*_triangle_kernel(step.points, read, g, index), read)
        if isinstance(step, AlignCluster):
            read = _sub_programs([(step.cluster, step.plan)], g, subs)
            return (*_align_kernel(step, read, index), read)
        raise UnsupportedStepError(f"unknown plan step {type(step).__name__}")
    except GcsError as exc:
        return _raising(exc), (), (), read


def _sub_programs(clusters: Iterable[tuple[int, Plan]], g: ConstraintGraph,
                  subs: dict[int, _Program]) -> tuple[_Program, ...]:
    """The program of each cluster's plan, compiled once per cluster id."""
    return tuple(subs[c] if c in subs else
                 subs.setdefault(c, _compile(plan, g, sorted(plan.owned_constraints)))
                 for c, plan in clusters)


def _endpoint(g: ConstraintGraph, ci: int, target: str,
              index: Mapping[str, int]) -> tuple[str, int, str]:
    """The kind of constraint ``ci``, and the index and shape of its
    endpoint other than ``target``, which must be placed before the step."""
    c = g.constraints[ci]
    anchor = _other_endpoint(c, target)
    if anchor not in index:
        raise _missing(anchor)
    return c.kind._value_, index[anchor], _SHAPE[g.kind_of(anchor)._value_]


def _nothing_left(*args: object) -> tuple[list[tuple[()]], bool]:
    """The kernel of a recombination step whose entities are all placed."""
    return [()], False


def _point_kernel(target: str, constraints: tuple[int, int], g: ConstraintGraph,
                  index: Mapping[str, int]) -> Kernel:
    """A point on two loci, each a circle about a point (distance), the line
    or circle it lies on (incidence) or the lines at an offset from a line
    (point_line_distance)."""
    loci = []  # per constraint: its kind, its anchor's index and its own
    for ci in constraints:
        kind, i, shape = _endpoint(g, ci, target, index)
        if kind == "distance":
            if shape != "point":
                raise UnsupportedStepError("distance locus needs a placed point anchor")
        elif kind == "incidence":
            if shape == "point":
                raise UnsupportedStepError("incidence locus needs a placed line or circle")
        elif kind != "point_line_distance":
            raise UnsupportedStepError(f"no point locus for a {kind} constraint")
        elif shape != "line":
            raise UnsupportedStepError("offset locus needs a placed line anchor")
        loci.append((kind, i, ci))
    (ka, ia, ca), (kb, ib, cb) = loci
    if ka == kb == "distance":
        return _two_distances(target, ia, ca, ib, cb)

    def place(placed: list, values: Sequence[float]):
        group_a = _point_loci(ka, placed[ia], values[ca])
        group_b = _point_loci(kb, placed[ib], values[cb])
        points: list[Point2] = []
        tangent = coincident = False
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
                raise UnderDeterminedError(target, "coincident loci leave the target free")
            raise EmptyIntersectionError(f"no locus intersection places {target!r}")
        return [(p,) for p in _order_points(points)], tangent

    return place


def _two_distances(target: str, ia: int, ca: int, ib: int, cb: int) -> Kernel:
    """A point at the distances of constraints ``ca`` from the point at index
    ``ia`` and ``cb`` from the one at ``ib``: the circle-circle case of
    :func:`_point_kernel`, computed from coordinates.  A distance no circle
    can have raises BadValueError from CircleRep where that case would."""

    def place(placed: list, values: Sequence[float]):
        p, ra, q, rb = placed[ia], values[ca], placed[ib], values[cb]
        if not (0 < ra < math.inf and 0 < rb < math.inf):
            CircleRep(p, ra), CircleRep(q, rb)
        try:
            roots, tangent = circle_circle_roots(p.x, p.y, ra, q.x, q.y, rb)
        except EmptyIntersectionError:
            raise EmptyIntersectionError(f"no locus intersection places {target!r}") from None
        except CoincidentError:
            raise UnderDeterminedError(target, "coincident loci leave the target free") from None
        if tangent:
            return [(Point2(*roots[0]),)], True
        (x1, y1), (x2, y2) = roots
        if math.hypot(x2 - x1, y2 - y1) <= EPS:  # one root, as _point_kernel merges them
            return [(Point2(x1, y1),)], False
        # The centroid as _order_points sums it, from 0.
        cx, cy = (0.0 + x1 + x2) / 2, (0.0 + y1 + y2) / 2
        if _root_key(x2, y2, cx, cy) < _root_key(x1, y1, cx, cy):
            x1, y1, x2, y2 = x2, y2, x1, y1
        return [(Point2(x1, y1),), (Point2(x2, y2),)], False

    return place


def _point_loci(kind: str, anchor: Placement, value: float) -> list[Placement]:
    """The loci a constraint of ``kind`` and ``value`` on ``anchor`` leaves
    a point on."""
    if kind == "distance":
        return [CircleRep(anchor, value)]
    if kind == "incidence" or value == 0.0:
        return [anchor]
    return [LineRep(anchor.theta, anchor.c + value), LineRep(anchor.theta, anchor.c - value)]


def _intersect_loci(a: Placement, b: Placement) -> tuple[list[Point2], bool, bool]:
    """Intersect two loci, lines or circles; returns (points, tangent, coincident)."""
    try:
        if isinstance(a, LineRep) and isinstance(b, LineRep):
            return [intersect_line_line(a, b)], False, False
        if isinstance(a, LineRep) or isinstance(b, LineRep):
            hit = intersect_line_circle(*((a, b) if isinstance(a, LineRep) else (b, a)))
        else:
            hit = intersect_circle_circle(a, b)
    except ParallelError:
        return [], False, lines_close(a, b)
    except EmptyIntersectionError:
        return [], False, False
    except CoincidentError:
        return [], False, True
    return list(hit.points), hit.tangent, False


def _line_kernel(target: str, constraints: tuple[int, int], g: ConstraintGraph,
                 index: Mapping[str, int]) -> Kernel:
    """A line through two points, or through a point at an angle to a line
    (two lines, or one where they agree).  Two angles fix its direction but
    never its offset."""
    anchors = []  # per constraint: whether it is an angle, its anchor's index and its own
    for ci in constraints:
        kind, i, shape = _endpoint(g, ci, target, index)
        if (kind, shape) not in (("incidence", "point"), ("angle", "line")):
            raise UnsupportedStepError(f"cannot place line {target!r} from a {kind} constraint")
        anchors.append((kind == "angle", i, ci))
    (angles, ip, _), (angle, iq, ci) = sorted(anchors, key=lambda a: a[0])  # points first
    if angles:
        raise UnderDeterminedError(target, "angles fix the direction but not the offset")
    if not angle:
        def through_points(placed: list, values: Sequence[float]):
            try:
                return [(line_through_points(placed[ip], placed[iq]),)], False
            except CoincidentPointsError:
                raise UnderDeterminedError(target, "both incident points coincide") from None

        return through_points

    def at_angle(placed: list, values: Sequence[float]):
        p, ref, alpha = placed[ip], placed[iq], values[ci]
        first = line_through_point_angle(p, ref, alpha, branch=0)
        second = line_through_point_angle(p, ref, alpha, branch=1)
        lines = [first] if lines_close(first, second) else [first, second]
        lines.sort(key=lambda l: (l.theta, l.c))
        return [(l,) for l in lines], False

    return at_angle


def _triangle_kernel(
    points: tuple[str, str, str], read: tuple, g: ConstraintGraph, index: Mapping[str, int]
) -> tuple[Kernel, Sequence[str], Sequence[str]]:
    """A triangle merge's kernel, reads and places: it places the one
    unplaced shared point from two virtual-distance circles, whose radii
    the conformations of the first and second clusters give.

    Those clusters may admit several internal conformations with different
    virtual distances, so the options run over every candidate distance
    pair and every intersection root; infeasible combinations are simply
    absent."""
    p0, p1, p2 = points
    unplaced = [p for p in points if p not in index]
    if not unplaced:
        return _nothing_left, points, ()
    if unplaced != [p2]:
        raise UnsupportedStepError(
            "triangle merge expects exactly the third shared point unplaced")
    first_sub, second_sub = read
    for ids, p in ((index, p0), (index, p1), (second_sub.ids, p1), (second_sub.ids, p2),
                   (first_sub.ids, p2), (first_sub.ids, p0)):  # anchors, then pairs as measured
        if p not in ids:
            raise _missing(p)
        if _SHAPE[g.kind_of(p)._value_] != "point":
            raise UnsupportedStepError(f"entity {p!r} is not placed as a point")
    i0, i1 = index[p0], index[p1]

    def kernel(first: list, second: list, placed: list, values: Sequence[float]):
        anchor1, anchor2 = placed[i0], placed[i1]
        options: list[tuple[Point2]] = []
        tangent = False
        failure: GcsError | None = None
        for d12 in _pair_distances(second, p1, p2):  # |p1 p2| candidates
            for d20 in _pair_distances(first, p2, p0):  # |p2 p0| candidates
                if d12 <= 1e-9 or d20 <= 1e-9:
                    continue
                try:
                    hit = intersect_circle_circle(CircleRep(anchor1, d20), CircleRep(anchor2, d12))
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
                    if not any(p.close_to(q) for q, in options):
                        options.append((p,))
        try:
            if not options:
                raise failure or EmptyIntersectionError(
                    f"no virtual-distance circles intersect to place {p2!r}"
                )
            return options, tangent
        finally:
            failure = None  # a caught failure's traceback holds this frame

    return kernel, points, unplaced


def _pair_distances(
    conformers: list[dict[str, Placement]], a: str, b: str
) -> tuple[float, ...]:
    """Distinct |ab| values across conformations, in conformer order."""
    values: list[float] = []
    for conformer in conformers:
        d = conformer[a].distance_to(conformer[b])
        if not any(abs(d - seen) <= 1e-9 for seen in values):
            values.append(d)
    return tuple(values)


def _align_kernel(
    step: AlignCluster, read: tuple, index: Mapping[str, int]
) -> tuple[Kernel, Sequence[str], Sequence[str]]:
    """An alignment's kernel, reads and places: it glues a locally solved
    cluster onto its placed shared pair.

    Runs over the cluster's conformations and, per conformation, the motions
    mapping the local pair onto the placed pair; conformations whose pair
    geometry cannot match are skipped.  When none is left, the first to fail
    names the verdict: a pair of another size is an empty intersection, a
    coincident pair leaves the cluster under-determined."""
    (s0, s1), local = step.shared, sorted(read[0].ids)  # a conformation's entities, in order
    if missing := [s for s in step.shared if s not in index]:
        raise _missing(missing[0])
    unplaced = [e for e in local if e not in index]
    if not unplaced:
        return _nothing_left, step.shared, ()
    i0, i1 = index[s0], index[s1]

    def kernel(conformations: list, placed: list, values: Sequence[float]):
        dst = (placed[i0], placed[i1])
        outcomes: list[tuple[Placement, ...]] = []
        failure: GcsError | None = None
        for conformation in conformations:
            try:
                motions = alignment_motions((conformation[s0], conformation[s1]), dst)
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
            for motion in motions:
                outcomes.append(tuple(motion.apply(conformation[e]) for e in unplaced))
        try:
            if not outcomes:
                raise failure or EmptyIntersectionError(
                    f"no conformation of cluster {step.cluster} fits the placed pair"
                )
            return outcomes, False
        finally:
            failure = None  # a raised failure's traceback holds this frame

    return kernel, step.shared, unplaced


# ------------------------------------------------------------------- execution


def execute(plan: Plan, g: ConstraintGraph, branches: Sequence[int] = ()) -> Solution:
    """Run a plan under one branch assignment.

    Selector entries pair up, in order, with the steps that expose two or more
    roots; missing entries default to 0.  Raises BadBranchError for an entry
    out of range or a selector longer than the number of branching steps.
    """
    return next(_walk(plan, g, tuple(branches), None))


def enumerate_solutions(
    plan: Plan, g: ConstraintGraph, limit: int = 16, tol: float = DEFAULT_TOL
) -> list[tuple[tuple[int, ...], Solution]]:
    """All verifying solutions (up to ``limit``) in deterministic branch order."""
    if limit < 1:
        raise BadBranchError(f"limit must be >= 1, got {limit}")
    walk = islice(_walk(plan, g, None, tol), min(limit, sys.maxsize))  # no walk yields more
    return [(sol.branches, sol) for sol in walk]


class _Frame:
    """One step on the walker's path: its roots, the root taken and the last
    one to try, whether the step hit a tangent root, and the frames it
    blames for running out of roots (``None`` once a solution below it has
    sent it back chronologically)."""

    __slots__ = ("options", "pick", "last", "tangent", "conflicts")

    def __init__(self, options: list[tuple[Placement, ...]], pick: int, last: int,
                 tangent: bool, conflicts: frozenset[int] | None):
        self.options, self.pick, self.last = options, pick, last
        self.tangent, self.conflicts = tangent, conflicts


def _walk(
    plan: Plan, g: ConstraintGraph, selector: tuple[int, ...] | None, tol: float | None
) -> Iterator[Solution]:
    """:func:`_run` of ``plan``'s program, compiled on first use and kept
    next to ``plan`` with ``g``'s structure, over ``g``'s values."""
    kept = g._analyses
    program = kept.get("program")
    if program is None or program.plan is not plan:
        program = kept["program"] = _compile(plan, g, range(len(g.constraints)))
        g._conformations.clear()  # no walk reads the replaced programs' entries again
    return _run(program, g, [c.value for c in g.constraints], selector, tol)


def _run(
    program: _Program, g: ConstraintGraph, values: Sequence[float],
    selector: tuple[int, ...] | None, tol: float | None,
) -> Iterator[Solution]:
    """Depth-first branch walk over ``program`` that yields each solution at
    its leaf; the rest of the tree waits for the next pull.

    With a ``selector`` only the roots it names are followed (see
    :func:`execute`); without one every root is tried.  With ``tol`` set, a
    root whose step's owned constraints are not within ``tol`` (NaN if one
    is not finite) is a dead end where it is placed, and a leaf is yielded
    only if the base's owned constraints are within it.  Raises the first
    recorded failure if it ends without having yielded anything.  The path
    is an explicit stack of frames over one list of placements, so a plan
    may be longer than the interpreter's recursion limit; a root is written
    over the slice its step places, and no step reads what a later one
    places.  Dead ends backjump as the module describes (Prosser 1993): a
    step's roots and owned residuals depend only on what the steps it blames
    place, and its blame only on the plan, so a skipped subtree holds no leaf.
    """
    base = base_placements(g, program.plan.base_constraint)
    steps = _solve_reads(program, g, values)
    placed: list[Placement | None] = [None] * len(program.ids)
    placed[0], placed[1] = base[program.ids[0]], base[program.ids[1]]
    base_worst = _owned_worst(program.owns, placed, values)
    yielded = False
    failure: GcsError | None = None  # the first one recorded
    frames: list[_Frame] = []
    cursor = 0  # branching steps on the path, i.e. the next selector entry
    while True:
        i = len(frames)  # the top frame's root, if any, is placed and not yet checked
        if i and tol is not None and not (
                worst := _owned_worst(steps[i - 1].owns, placed, values)) <= tol:
            failure = failure or VerificationError(f"residual {worst} exceeds {tol}")
            blame = steps[i - 1].blame  # which holds i - 1, the step that owns what broke
        elif i < len(steps):
            kernel, blame, places, _ = steps[i]
            try:
                options, tangent = kernel(placed, values)
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
                placed[places] = options[first]
                frames.append(_Frame(options, first, last, tangent, blame))
                cursor += len(options) > 1
                continue
        else:  # a leaf: one that fails ends the walk, as every leaf fails alike
            blame = frozenset()  # (and a selector's walk has no other)
            if selector is not None and cursor < len(selector):
                failure = failure or BadBranchError(
                    f"selector has {len(selector)} entries but only {cursor} steps branch"
                )
            elif tol is not None and program.unplaced is not None:
                raise _missing(program.unplaced)  # a constraint on it is measured at each leaf
            elif tol is None or base_worst <= tol:
                blame = None  # after a solution, each step backtracks chronologically
                yielded, failure = True, None  # a failure is raised only if none is yielded
                placements = dict(base)
                placements.update(zip(program.ids, placed))
                yield Solution(placements, tuple([f.pick for f in frames if len(f.options) > 1]),
                               tuple([k for k, f in enumerate(frames) if f.tangent]))
            else:
                failure = failure or VerificationError(f"residual {base_worst} exceeds {tol}")
        # Take back roots, deepest first, up to the latest blamed frame (each
        # one after a solution, which it keeps blaming), until a step has one
        # left to try.
        while frames:
            k = len(frames) - 1
            top = frames[k]
            if blame is None or k in blame:
                if blame is None:
                    top.conflicts = None
                elif top.conflicts is not None:
                    top.conflicts = (top.conflicts | blame) - {k}
                if top.pick < top.last:
                    break
                blame = top.conflicts
            frames.pop()
            cursor -= len(top.options) > 1
        if not frames:
            break
        top.pick += 1
        placed[steps[k].places] = top.options[top.pick]
    try:
        if not yielded:
            raise failure or VerificationError("no branch produced a solution")
    finally:
        failure = None  # its traceback holds this frame: drop it to free the walk's state


def _solve_reads(program: _Program, g: ConstraintGraph, values: Sequence[float]) -> list[_Step]:
    """The program's steps as this walk runs them: each recombination kernel
    bound to the conformations of the clusters it reads, solved in step
    order once per graph object (``g._conformations``, over ``g``'s own
    ``values``), so every walk of one graph shares them.  A step that reads
    a cluster without conformations reads nothing in this walk, and raises
    the error solving it raised."""
    steps = list(program.steps)
    if not program.clusters:
        return steps
    solved = g._conformations
    for k, read in program.clusters:
        found = []
        for sub in read:
            if id(sub) not in solved:
                try:
                    solved[id(sub)] = (sub, _local_solutions(sub, g, values))
                except GcsError as exc:
                    solved[id(sub)] = (sub, _fresh(exc))
            conformations = solved[id(sub)][1]
            if isinstance(conformations, GcsError):
                steps[k] = steps[k]._replace(kernel=_raising(conformations), blame=frozenset())
                break
            found.append(conformations)
        else:
            steps[k] = steps[k]._replace(kernel=partial(steps[k].kernel, *found))
    return steps


def _owned_worst(owns: list[tuple[str, int, int, int]], placed: list,
                 values: Sequence[float]) -> float:
    """:func:`_worst` of the residuals of the constraints ``owns`` lists."""
    worst = 0.0
    for kind, a, b, ci in owns:
        r = abs(_residual(kind, placed[a], placed[b], values[ci]))
        if not r <= worst:
            if not r < math.inf:
                return math.nan
            worst = r
    return worst


def _local_solutions(
    program: _Program, g: ConstraintGraph, values: Sequence[float]
) -> list[dict[str, Placement]]:
    """Congruence-distinct local solutions of a cluster, for recombination.

    The first 64 leaves of the cluster's program within tolerance of the
    constraints it owns are deduplicated up to isometry by
    :func:`_congruence_signature` (alignment later supplies the motion and
    the reflection anyway), each keeping its first leaf.  Non-degenerate
    conformations come first, and each maps entities in sorted order.  With
    none, the first failure of its walk names the verdict.
    """
    firsts: dict[tuple, Solution] = {}  # congruence signature -> its first generic leaf
    held: dict[tuple, Solution] = {}  # the same for degenerate leaves, kept until the end
    try:
        for sol in islice(_run(program, g, values, None, DEFAULT_TOL), 64):
            kept = firsts if _is_generic(sol.placements) else held
            kept.setdefault(_congruence_signature(sol.placements), sol)
    except VerificationError:  # a residual failure came first
        raise VerificationError("no branch satisfies the cluster constraints") from None
    for signature, sol in held.items():
        firsts.setdefault(signature, sol)
    return [dict(sorted(sol.placements.items())) for sol in firsts.values()]


def _congruence_signature(placements: Mapping[str, Placement]) -> tuple:
    """Isometry-invariant fingerprint: the least image of the rounded
    coordinates under x -> -x, y -> -y and the half turn.  Conformations of
    a cluster share their base placement, and for every base that
    :func:`base_placements` makes, these and the identity are the isometries
    that fix it.  A circle adds its radius; a line gives its normal's foot
    (c cos t, c sin t) and its (cos 2t, sin 2t), which no fold changes."""
    xs, ys, turns, fixed = [], [], [], []  # turns: sin 2t, negated by mirrors; fixed: by no flip
    for _, p in sorted(placements.items()):
        if isinstance(p, LineRep):
            x, y = p.c * math.cos(p.theta), p.c * math.sin(p.theta)
            turns.append(round(math.sin(2.0 * p.theta), 7))
            fixed.append(round(math.cos(2.0 * p.theta), 7))
        else:
            x, y = p if isinstance(p, Point2) else p.center
            if isinstance(p, CircleRep):
                fixed.append(round(p.r, 7))
        xs.append(round(x, 7))
        ys.append(round(y, 7))
    mxs, mys, mturns = [-v for v in xs], [-v for v in ys], [-v for v in turns]  # negated
    image = min((xs, ys, turns), (mxs, ys, mturns), (xs, mys, mturns), (mxs, mys, turns))
    return (tuple(fixed), *map(tuple, image))


def _is_generic(placements: Mapping[str, Placement]) -> bool:
    """Whether no two placements of one kind coincide: points within EPS,
    circles in centre and within 1e-9 in radius, lines by :func:`lines_close`.
    In order of x, a point or circle meets only those within EPS further on."""
    lines = [p for p in placements.values() if isinstance(p, LineRep)]
    if any(lines_close(a, b) for i, a in enumerate(lines) for b in lines[i + 1 :]):
        return False
    shapes = sorted(((Point2, p, 0.0) if isinstance(p, Point2) else (CircleRep, *p)
                     for p in placements.values() if not isinstance(p, LineRep)),
                    key=lambda shape: shape[1].x)
    for i, (kind, centre, r) in enumerate(shapes):
        for j in range(i + 1, len(shapes)):
            other_kind, other, other_r = shapes[j]
            if other.x - centre.x > EPS:
                break
            if kind is other_kind and centre.close_to(other) and abs(r - other_r) <= 1e-9:
                return False
    return True


# ------------------------------------------------------------------ residuals


def _residual(kind: str, a: Placement, b: Placement, value: float | None) -> float:
    """Measured minus specified, for a constraint of ``kind`` on ``a``, ``b``."""
    if kind == "distance":
        return math.hypot(a.x - b.x, a.y - b.y) - value
    if kind == "angle":
        return unsigned_line_angle(a, b) - fold_angle(value)
    if kind == "point_line_distance":
        p, l = (a, b) if isinstance(a, Point2) else (b, a)
        return l.distance_to_point(p) - value
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


def _worst(residuals: Iterable[float]) -> float:
    """The largest |residual|, or NaN when one is not finite, so that it
    fails every tolerance."""
    magnitudes = list(map(abs, residuals))
    return max(magnitudes, default=0.0) if all(map(math.isfinite, magnitudes)) else math.nan


_PLACEMENT_TYPES = {EntityKind.POINT: Point2, EntityKind.LINE: LineRep}  # else CircleRep


def verify(g: ConstraintGraph, s: Solution, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Measure every constraint against a solution's placements.  Raises
    UnknownEndpointError for a placement of an id the graph lacks and
    KindMismatchError for an entity placed as another kind."""
    for entity_id, placed in s.placements.items():
        kind = g.kind_of(entity_id)  # UnknownEndpointError for an id the graph lacks
        if not isinstance(placed, _PLACEMENT_TYPES.get(kind, CircleRep)):
            raise KindMismatchError(f"{kind.value} {entity_id!r} placed as {type(placed).__name__}")
    return _report(g, s.placements, tol)


def _report(g: ConstraintGraph, placements: Mapping[str, Placement], tol: float) -> ResidualReport:
    """:func:`verify` without the kind check."""
    try:
        residuals = tuple(_residual(c.kind._value_, placements[c.between[0]],
                                    placements[c.between[1]], c.value) for c in g.constraints)
    except KeyError as exc:  # an endpoint without a placement
        raise _missing(exc.args[0]) from None
    max_abs = _worst(residuals)
    return ResidualReport(residuals, max_abs, tol, max_abs <= tol)


# ------------------------------------------------------------------- JSON I/O


def placement_to_dict(p: Placement) -> dict:
    if isinstance(p, Point2):
        return {"point": [p.x, p.y]}
    if isinstance(p, LineRep):
        return {"line": {"theta": p.theta, "c": p.c}}
    return {"circle": {"center": [p.center.x, p.center.y], "r": p.r}}


_SHAPES = {"point": "[x, y]", "line": "theta and c", "circle": "center and r"}


def _number(raw: object) -> float:
    """A JSON number as a float; TypeError for any other value, a boolean too."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TypeError(f"{raw!r} is not a number")
    return float(raw)


def _integer(raw: object) -> int:
    """A JSON integer; TypeError for any other value, a boolean too."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise TypeError(f"{raw!r} is not an integer")
    return raw


def placement_from_dict(raw: object) -> Placement:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ParseError(f"placement must be a one-key object, got {raw!r}")
    [(shape, body)] = raw.items()
    if shape not in _SHAPES:
        raise ParseError(f"unknown placement shape {sorted(raw)!r}")
    try:
        if shape == "point":
            x, y = body if isinstance(body, list) else ()  # a JSON array only
            return Point2(_number(x), _number(y))
        if shape == "line":
            return LineRep(_number(body["theta"]), _number(body["c"]))
        cx, cy = body["center"]
        return CircleRep(Point2(_number(cx), _number(cy)), _number(body["r"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{shape} placement needs {_SHAPES[shape]}, got {body!r}") from exc


def solution_to_dict(s: Solution) -> dict:
    return {
        "placements": {name: placement_to_dict(p) for name, p in s.placements.items()},
        "branches": list(s.branches),
        "degenerate_steps": list(s.degenerate_steps),
    }


def solution_from_dict(doc: object) -> Solution:
    if not isinstance(doc, dict) or not isinstance(doc.get("placements"), dict):
        raise ParseError("solution document needs a 'placements' object")
    placements = {
        str(name): placement_from_dict(raw) for name, raw in doc["placements"].items()
    }
    try:
        branches = tuple(_integer(b) for b in doc.get("branches", ()))
        degenerate = tuple(_integer(i) for i in doc.get("degenerate_steps", ()))
    except TypeError as exc:
        raise ParseError("'branches' and 'degenerate_steps' must list integers") from exc
    return Solution(placements, branches, degenerate)
