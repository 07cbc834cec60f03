"""Numeric execution of construction plans: branch enumeration and residuals.

The executor fixes the gauge through the plan's base constraint (first entity
at the origin, second along the positive x axis, or the line equal to the x
axis for incidence-style bases).  Each subsequent step resolves to line and
circle intersections; steps with two or more roots consume one entry of the
branch selector.  Roots are ordered by angle around their centroid and then
lexicographically by coordinates, so selectors are stable across runs.

One depth-first walker yields each solution at its leaf: :func:`execute`
takes the first on a selector's path, :func:`enumerate_solutions` up to
``limit``.

A walk binds each step once, before it starts, into one record: a kernel, a
function of the placements made so far that returns the step's roots, and
the entities the step reads.  Only binding looks at a step's type, so the
walker treats every step alike.  Binding resolves the step's constraints,
their other endpoints and values, the target's kind and each locus's kind,
so a kernel only reads anchors and intersects.  A point placed at two
distances, the common step, gets its roots straight from the anchors'
coordinates through :func:`circle_circle_roots`, the arithmetic of
:func:`intersect_circle_circle`.  Plans hold no values, so binding a
recombination step solves the cluster plans it reads, each in its own frame
and once per walk, and the kernel runs over their conformations; a
triangle's base is placed already and never solved.  Each constraint's
residual is bound the same way for the check at a leaf.

Every step reads a fixed set of placed entities: the other endpoints of a
two-loci step's constraints, a triangle merge's three points, an alignment's
shared pair.  When a step has no roots, the walker jumps back to the latest
step that placed one of them (conflict-directed backjumping), since no choice
made in between can give the step roots; the step it lands on keeps that
blame and, once out of roots itself, jumps on by it.  A step whose binding
fails, such as one that reads a cluster without conformations, reads nothing
and raises that error whenever it runs: it blames no step, so the walk ends
where it first reaches it.  Once a solution or a residual failure is
reached, the steps on its path take back roots one at a time again, so the
solutions, their order and the reported failure are those of plain
chronological backtracking, which the reference walker in
``tests/support.py`` still does, resolving every step afresh at each
evaluation.
"""

from __future__ import annotations

import math
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
from .graph import Constraint, ConstraintGraph, EntityKind

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

# A step kernel: from the placements made so far, its roots (each a map of the
# entities the step places) and whether it met a tangent (double) root.
Kernel = Callable[[Mapping[str, Placement]], tuple[list[dict[str, Placement]], bool]]


def _placed(placements: Mapping[str, Placement], entity_id: str) -> Placement:
    try:
        return placements[entity_id]
    except KeyError:
        raise _missing(entity_id) from None


def _missing(entity_id: str) -> MissingPlacementError:
    return MissingPlacementError(f"entity {entity_id!r} has no placement yet")


def _other_endpoint(c: Constraint, target: str) -> str:
    a, b = c.between
    if target == a:
        return b
    if target == b:
        return a
    raise UnsupportedStepError(f"constraint {c.between} does not touch {target!r}")


def _raising(exc: GcsError) -> Callable[[Mapping[str, Placement]], NoReturn]:
    """A bound step, or part of one, that raises a copy of ``exc`` whenever
    it runs."""
    kept = _fresh(exc)

    def fail(placements: Mapping[str, Placement]) -> NoReturn:
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


def _bind(
    step, g: ConstraintGraph, solved: dict[int, list[dict[str, Placement]]]
) -> tuple[Kernel, tuple[str, ...]]:
    """Resolve a plan step against the graph once, into what the walker
    reads of it: its kernel and the entities whose placements its roots
    depend on.  Binding resolves the step's constraints, their other
    endpoints and values, the target's kind and each locus's kind; a
    recombination step's kernel runs over the conformations of the clusters
    it reads, solved here unless ``solved`` (cluster id -> conformations,
    kept for one walk) holds them.  A step whose binding raises is bound to
    raise that error each time it runs, and reads nothing: its failure does
    not depend on the path."""
    try:
        if isinstance(step, PlaceByTwoLoci):
            reads = tuple(e for idx in step.constraints for e in g.constraints[idx].between
                          if e != step.target)
            kind = g.kind_of(step.target)._value_
            if kind == "point":
                return _bind_point(step, g), reads
            if kind == "line":
                return _bind_line(step, g), reads
            raise UnsupportedStepError(f"cannot place a {kind} by two loci")
        if isinstance(step, TriangleMerge):
            for cluster, plan in zip(step.clusters[1:], step.plans, strict=True):
                if cluster not in solved:
                    solved[cluster] = _local_solutions(plan, g)
            _, first, second = step.clusters
            kernel = partial(_triangle_options, step.points, solved[first], solved[second])
            return kernel, step.points
        if isinstance(step, AlignCluster):
            if step.cluster not in solved:
                solved[step.cluster] = _local_solutions(step.plan, g)
            return partial(_align_options, step, solved[step.cluster]), step.shared
        raise UnsupportedStepError(f"unknown plan step {type(step).__name__}")
    except GcsError as exc:
        return _raising(exc), ()


def _bind_point(step: PlaceByTwoLoci, g: ConstraintGraph) -> Kernel:
    target = step.target
    first, second = g.constraints[step.constraints[0]], g.constraints[step.constraints[1]]
    # A distance no circle can have takes the general way, whose CircleRep
    # raises BadValueError after the anchors before it are checked.
    if all(c.kind._value_ == "distance" and target in c.between and 0 < c.value < math.inf
           for c in (first, second)):
        return _bind_two_distances(target, _other_endpoint(first, target), first.value,
                                   _other_endpoint(second, target), second.value)
    loci_a, loci_b = _bind_point_loci(first, target), _bind_point_loci(second, target)

    def place(placements: Mapping[str, Placement]) -> tuple[list[dict[str, Placement]], bool]:
        group_a, group_b = loci_a(placements), loci_b(placements)
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
                raise UnderDeterminedError(target, "coincident loci leave the target free")
            raise EmptyIntersectionError(f"no locus intersection places {target!r}")
        return [{target: p} for p in _order_points(points)], tangent

    return place


def _bind_two_distances(target: str, a: str, ra: float, b: str, rb: float) -> Kernel:
    """A point at distance ``ra`` from ``a`` and ``rb`` from ``b``: the
    circle-circle case of :func:`_bind_point`, computed from coordinates."""

    def place(placements: Mapping[str, Placement]) -> tuple[list[dict[str, Placement]], bool]:
        p = _placed(placements, a)
        if not isinstance(p, Point2):
            raise UnsupportedStepError("distance locus needs a placed point anchor")
        q = _placed(placements, b)
        if not isinstance(q, Point2):
            raise UnsupportedStepError("distance locus needs a placed point anchor")
        try:
            roots, tangent = circle_circle_roots(p.x, p.y, ra, q.x, q.y, rb)
        except EmptyIntersectionError:
            raise EmptyIntersectionError(f"no locus intersection places {target!r}") from None
        except CoincidentError:
            raise UnderDeterminedError(target, "coincident loci leave the target free") from None
        if tangent:
            return [{target: Point2(*roots[0])}], True
        (x1, y1), (x2, y2) = roots
        if math.hypot(x2 - x1, y2 - y1) <= EPS:  # one root, as _bind_point merges them
            return [{target: Point2(x1, y1)}], False
        # The centroid as _order_points sums it, from 0.
        cx, cy = (0.0 + x1 + x2) / 2, (0.0 + y1 + y2) / 2
        if _root_key(x2, y2, cx, cy) < _root_key(x1, y1, cx, cy):
            x1, y1, x2, y2 = x2, y2, x1, y1
        return [{target: Point2(x1, y1)}, {target: Point2(x2, y2)}], False

    return place


def _bind_point_loci(
    c: Constraint, target: str
) -> Callable[[Mapping[str, Placement]], list[Placement]]:
    """The loci ``c`` leaves a point ``target`` on, given the placements."""
    try:
        anchor_id = _other_endpoint(c, target)
    except UnsupportedStepError as exc:
        return _raising(exc)
    kind, value = c.kind._value_, c.value

    def loci(placements: Mapping[str, Placement]) -> list[Placement]:
        anchor = _placed(placements, anchor_id)
        if kind == "distance":
            if not isinstance(anchor, Point2):
                raise UnsupportedStepError("distance locus needs a placed point anchor")
            return [CircleRep(anchor, value)]
        if kind == "incidence":
            if isinstance(anchor, (LineRep, CircleRep)):
                return [anchor]
            raise UnsupportedStepError("incidence locus needs a placed line or circle")
        if kind == "point_line_distance":
            if not isinstance(anchor, LineRep):
                raise UnsupportedStepError("offset locus needs a placed line anchor")
            if value == 0.0:
                return [anchor]
            return [LineRep(anchor.theta, anchor.c + value), LineRep(anchor.theta, anchor.c - value)]
        raise UnsupportedStepError(f"no point locus for a {kind} constraint")

    return loci


def _intersect_loci(a: Placement, b: Placement) -> tuple[list[Point2], bool, bool]:
    """Intersect two loci; returns (points, tangent, coincident)."""
    try:
        if isinstance(a, LineRep) and isinstance(b, LineRep):
            return [intersect_line_line(a, b)], False, False
        if isinstance(a, LineRep) and isinstance(b, CircleRep):
            hit = intersect_line_circle(a, b)
            return list(hit.points), hit.tangent, False
        if isinstance(a, CircleRep) and isinstance(b, LineRep):
            hit = intersect_line_circle(b, a)
            return list(hit.points), hit.tangent, False
        if isinstance(a, CircleRep) and isinstance(b, CircleRep):
            hit = intersect_circle_circle(a, b)
            return list(hit.points), hit.tangent, False
    except ParallelError:
        assert isinstance(a, LineRep) and isinstance(b, LineRep)
        return [], False, lines_close(a, b)
    except EmptyIntersectionError:
        return [], False, False
    except CoincidentError:
        return [], False, True
    raise UnsupportedStepError("loci must be lines or circles")


def _bind_line(step: PlaceByTwoLoci, g: ConstraintGraph) -> Kernel:
    target = step.target
    sources = [_bind_line_anchor(g.constraints[idx], target) for idx in step.constraints]

    def place(placements: Mapping[str, Placement]) -> tuple[list[dict[str, Placement]], bool]:
        anchors = [source(placements) for source in sources]
        anchors.sort(key=lambda item: item[0] != "point")
        tags = tuple(tag for tag, _, _ in anchors)
        if tags == ("point", "point"):
            p, q = anchors[0][1], anchors[1][1]
            try:
                result = line_through_points(p, q)
            except CoincidentPointsError:
                raise UnderDeterminedError(target, "both incident points coincide") from None
            return [{target: result}], False
        if tags == ("point", "angle"):
            p = anchors[0][1]
            ref, alpha = anchors[1][1], anchors[1][2]
            first = line_through_point_angle(p, ref, alpha, branch=0)
            second = line_through_point_angle(p, ref, alpha, branch=1)
            lines = [first] if lines_close(first, second) else [first, second]
            lines.sort(key=lambda l: (l.theta, l.c))
            return [{target: l} for l in lines], False
        # Two angle constraints fix the direction twice but never the offset.
        raise UnderDeterminedError(target, "angles fix the direction but not the offset")

    return place


def _bind_line_anchor(
    c: Constraint, target: str
) -> Callable[[Mapping[str, Placement]], tuple[str, Placement, float | None]]:
    """What ``c`` pins a line ``target`` to, given the placements: a point
    it passes through, or a line and the angle it meets it at."""
    try:
        anchor_id = _other_endpoint(c, target)
    except UnsupportedStepError as exc:
        return _raising(exc)
    kind = c.kind._value_
    tag, shape, value = {
        "incidence": ("point", Point2, None),
        "angle": ("angle", LineRep, c.value),
    }.get(kind, ("", (), None))

    def anchor(placements: Mapping[str, Placement]) -> tuple[str, Placement, float | None]:
        placed = _placed(placements, anchor_id)
        if not isinstance(placed, shape):
            raise UnsupportedStepError(
                f"cannot place line {target!r} from a {kind} constraint"
            )
        return tag, placed, value

    return anchor


def _triangle_options(
    points: tuple[str, str, str], first: list[dict[str, Placement]],
    second: list[dict[str, Placement]], placements: Mapping[str, Placement],
) -> tuple[list[dict[str, Placement]], bool]:
    """Place the one unplaced shared point from two virtual-distance circles.

    The first and second clusters may admit several internal conformations
    with different virtual distances, so the options run over every
    candidate distance pair and every intersection root; infeasible
    combinations are simply absent."""
    p0, p1, p2 = points
    missing = [p for p in points if p not in placements]
    if not missing:
        return [{}], False
    if missing != [p2]:
        raise UnsupportedStepError(
            "triangle merge expects exactly the third shared point unplaced"
        )
    anchor1 = _as_point(placements, p0)
    anchor2 = _as_point(placements, p1)
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
    step: AlignCluster, conformations: list[dict[str, Placement]],
    placements: Mapping[str, Placement],
) -> tuple[list[dict[str, Placement]], bool]:
    """Glue a locally solved cluster onto its placed shared pair.

    Runs over the cluster's conformations and, per conformation, the motions
    mapping the local pair onto the placed pair; conformations whose pair
    geometry cannot match are skipped.  When none is left, the first to fail
    names the verdict: a pair of another size is an empty intersection, a
    coincident pair leaves the cluster under-determined."""
    dst = (
        _placed(placements, step.shared[0]),
        _placed(placements, step.shared[1]),
    )
    outcomes: list[dict[str, Placement]] = []
    failure: GcsError | None = None
    for local in conformations:
        unplaced = [e for e in local if e not in placements]
        if not unplaced:
            return [{}], False
        try:
            motions = alignment_motions((local[step.shared[0]], local[step.shared[1]]), dst)
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
            outcomes.append({e: motion.apply(local[e]) for e in unplaced})
    try:
        if not outcomes:
            raise failure or EmptyIntersectionError(
                f"no conformation of cluster {step.cluster} fits the placed pair"
            )
        return outcomes, False
    finally:
        failure = None  # a raised failure's traceback holds this frame


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
    return [(sol.branches, sol) for sol in islice(_walk(plan, g, None, tol), limit)]


class _Frame:
    """One step on the walker's path: its roots, the root taken and the last
    one to try, whether the step hit a tangent root, and the earlier frames
    it blames for running out of roots (``None`` once it must backtrack
    chronologically)."""

    __slots__ = ("options", "pick", "last", "tangent", "conflicts")

    def __init__(self, options: list[dict[str, Placement]], pick: int, last: int,
                 tangent: bool, conflicts: set[int] | None):
        self.options, self.pick, self.last = options, pick, last
        self.tangent, self.conflicts = tangent, conflicts


def _walk(
    plan: Plan,
    g: ConstraintGraph,
    selector: tuple[int, ...] | None,
    tol: float | None,
) -> Iterator[Solution]:
    """Depth-first branch walk, pruning failed prefixes, that yields each
    solution at its leaf; the rest of the tree waits for the next pull.

    With a ``selector`` only the roots it names are followed (see
    :func:`execute`); without one every root is tried.  With ``tol`` set,
    only solutions whose residual check passes are yielded.  Raises the
    first recorded failure if it ends without having yielded anything.  The
    path is an explicit stack of frames over one placement map, so a plan
    may be longer than the interpreter's recursion limit; backtracking
    deletes what a root placed, as every step places only unplaced entities.
    Each step is read through the record :func:`_bind` makes of it, never
    through its type.

    Dead ends backjump (conflict-directed backjumping, Prosser 1993).  A
    step's roots depend only on the placements of its reads, and which
    entities are placed before it only on the plan, so a step without roots
    stays so until a frame that placed one of its reads takes another root.
    The walk jumps back to the latest such frame and adds those placers to
    the frames it blames; a frame starts out blaming the placers of its own
    reads, and once out of roots it jumps on by what it blames.  A skipped
    subtree holds no leaf, so the solutions, their order and the first
    failure are those of chronological backtracking.  Every dead end, a
    missing placement too, blames the placers of its step's reads; a step
    bound to raise reads nothing, so it blames no frame and ends the walk.
    Once a leaf (a solution or a residual failure) is reached, every frame
    on its path backtracks chronologically.
    """
    placements = dict(base_placements(g, plan.base_constraint))
    solved: dict[int, list[dict[str, Placement]]] = {}  # clusters read, for _bind
    steps = [_bind(step, g, solved) for step in plan.steps]
    residuals = None if tol is None else [_bind_residual(c) for c in g.constraints]
    placer = dict.fromkeys(placements, -1)  # entity -> frame that placed it, -1: the base
    yielded = False
    failure: GcsError | None = None  # the first one recorded
    frames: list[_Frame] = []
    cursor = 0  # branching steps on the path, i.e. the next selector entry
    while True:
        i = len(frames)
        if i < len(steps):
            kernel, reads = steps[i]
            # The frames to blame for a dead end here; None: chronological.
            blame: set[int] | None = {placer[e] for e in reads if e in placements}
            try:
                options, tangent = kernel(placements)
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
                frames.append(_Frame(options, first, last, tangent, blame))
                cursor += len(options) > 1
                placements.update(options[first])
                for e in options[first]:  # every root of a step places the same entities
                    placer[e] = i
                continue
        else:  # a leaf: no frame on its path may jump past another any more
            blame = None
            for f in frames:
                f.conflicts = None
            if selector is not None and cursor < len(selector):
                failure = failure or BadBranchError(
                    f"selector has {len(selector)} entries but only {cursor} steps branch"
                )
            elif residuals is None or (worst := _worst([r(placements) for r in residuals])) <= tol:
                yielded, failure = True, None  # a failure is raised only if none is yielded
                yield Solution(
                    dict(placements),
                    tuple(f.pick for f in frames if len(f.options) > 1),
                    tuple(k for k, f in enumerate(frames) if f.tangent),
                )
            else:
                failure = failure or VerificationError(f"residual {worst} exceeds {tol}")
        # Take back roots, deepest first, up to the latest blamed frame (the
        # previous one when backtracking chronologically), until a step has
        # one left to try.
        while frames:
            k = len(frames) - 1
            top = frames[k]
            for e in top.options[top.pick]:
                del placements[e]
            if blame is None or k in blame:
                if blame is None:
                    top.conflicts = None
                elif top.conflicts is not None:
                    top.conflicts |= blame
                    top.conflicts.discard(k)
                if top.pick < top.last:
                    break
                blame = top.conflicts
            frames.pop()
            cursor -= len(top.options) > 1
        if not frames:
            break
        top.pick += 1
        placements.update(top.options[top.pick])
    try:
        if not yielded:
            raise failure or VerificationError("no branch produced a solution")
    finally:
        failure = None  # its traceback holds this frame: drop it to free the walk's state


def _local_solutions(plan: Plan, g: ConstraintGraph) -> list[dict[str, Placement]]:
    """Congruence-distinct local solutions of a cluster, for recombination.

    Every branch assignment satisfying the cluster's own constraints is
    collected, then deduplicated up to isometry by :func:`_congruence_signature`
    (alignment later supplies the motion and the reflection anyway).
    Non-degenerate conformations come first, and each maps entities in sorted order.
    """
    valid = [
        s for s in islice(_walk(plan, g, None, None), 64)
        if _worst(_constraint_residual(g.constraints[i], s.placements)
                  for i in plan.owned_constraints) <= DEFAULT_TOL
    ]
    if not valid:
        raise VerificationError("no branch satisfies the cluster constraints")
    firsts: dict[tuple, Solution] = {}  # congruence signature -> its first solution
    for sol in sorted(valid, key=lambda s: not _is_generic(s.placements)):
        firsts.setdefault(_congruence_signature(sol.placements), sol)
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


def _bind_residual(c: Constraint) -> Callable[[Mapping[str, Placement]], float]:
    """:func:`_constraint_residual` of ``c`` as a function of the
    placements; a distance's endpoints and value are resolved once."""
    if c.kind._value_ != "distance":
        return partial(_constraint_residual, c)
    (a, b), value = c.between, c.value

    def distance_residual(placements: Mapping[str, Placement]) -> float:
        try:
            pa, pb = placements[a], placements[b]
        except KeyError as exc:  # the first of a, b without a placement
            raise _missing(exc.args[0]) from None
        return math.hypot(pa.x - pb.x, pa.y - pb.y) - value

    return distance_residual


def _worst(residuals: Iterable[float]) -> float:
    """The largest |residual|, or NaN when one is not finite, so that it
    fails every tolerance."""
    magnitudes = list(map(abs, residuals))
    return max(magnitudes, default=0.0) if all(map(math.isfinite, magnitudes)) else math.nan


_PLACEMENT_TYPES = {EntityKind.POINT: Point2, EntityKind.LINE: LineRep}  # else CircleRep


def verify(g: ConstraintGraph, s: Solution, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Measure every constraint against a solution's placements.  Raises
    KindMismatchError for an entity placed as another kind."""
    for e in g.entities:
        placed = s.placements.get(e.id)
        if placed is not None and not isinstance(placed, _PLACEMENT_TYPES.get(e.kind, CircleRep)):
            raise KindMismatchError(f"{e.kind.value} {e.id!r} placed as {type(placed).__name__}")
    return _report(g, s.placements, tol)


def _report(g: ConstraintGraph, placements: Mapping[str, Placement], tol: float) -> ResidualReport:
    """:func:`verify` without the kind check."""
    residuals = tuple(_constraint_residual(c, placements) for c in g.constraints)
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
