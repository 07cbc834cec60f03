"""Numeric execution of construction plans: branch enumeration and residuals.

The executor fixes the gauge through the plan's base constraint (first entity
at the origin, second along the positive x axis, or the line equal to the x
axis for incidence-style bases).  Each subsequent step resolves to line and
circle intersections; steps with two or more roots consume one entry of the
branch selector.  Roots placing a point are ordered by angle around their
centroid, then by coordinates; roots placing a line by ``(theta, c)``; an
alignment's by the proper motion first, so selectors are stable across runs.

One depth-first walker yields each solution at its leaf: :func:`execute`
takes the first on a selector's path, :func:`enumerate_solutions` up to
``limit``.  It walks a program, compiled once per plan and kept next to it
with the graph's structure, so every valuation of the structure reuses it.
Compiling numbers the entities in the order the plan places them and turns
each step into one record: a kernel from the placements (a list by slot)
and the walk's constraint values to the step's roots, as tuples aligned
with the entities it places; the steps that place what it reads; and the
constraints it owns, those whose last endpoint it places.  Compiling
settles each step's structure and reads no value: each anchor's slot, that
the base or an earlier step places it as the shape its constraint needs,
and the case a line is placed by; a kernel checks values only.  A point at
two distances, the common step, gets its roots straight from the anchors'
coordinates (:func:`circle_circle_roots`).

A recombination step reads clusters, each solved in its own gauge (Fudos &
Hoffmann 1997).  Compiling walks each such cluster inline, once: its plan's
steps, recursively, go just before the first step that reads it and place
local copies of its entities, from its own base, in slots that never reach
a solution; they own the constraints the cluster owns.  So a triangle merge
reads the virtual distances of one path through each cluster's steps, and
an alignment maps one leaf onto the placed pair, by both motions.  A
triangle merge reads each distance where a copy was first given it, in the
innermost cluster, so it blames only the steps that choose that distance.
The isometries that fix a cluster's base (the mirrors and the half turn,
found per walk) map its leaves onto each other: each step of the cluster
keeps one root of each set that those fixing its earlier steps' roots map
onto each other, so gluing each leaf by both motions gives every solution
once.  With a tolerance, a root that breaks a constraint its step owns is a
dead end where it is placed, and a leaf checks only the bases', which hold
by construction up to rounding.

A dead end, a step without roots or a root that breaks a constraint, jumps
back to the latest step that placed what the step reads or an endpoint of a
constraint it owns (conflict-directed backjumping, Prosser 1993), as no
choice made in between changes its outcome; the step it lands on keeps that
blame and, once out of roots itself, jumps on by it.  A step with a
structural fault blames nothing and raises that error whenever it runs, so
the walk ends where it first reaches it, as at a leaf that fails.  A
recombination step with nothing left to place, a triangle merge whose
three points or an alignment whose cluster's entities are all placed, is
malformed: no extracted plan holds one, and compiling refuses it as it
refuses a merge with a point other than its third unplaced, a merge
without three points, three clusters and two plans, and an alignment
without two shared points.  A walked cluster must place what it owns:
compiling refuses an alignment whose cluster's plan leaves an endpoint of
an owned constraint unplaced, with MissingPlacementError, as it refuses a
shared point the cluster lacks.  After a solution, the steps on its path
take back roots one at a time again, so the solutions, their order and the
reported failure (the first met in branch order) are those of chronological
backtracking, which the reference walker in ``tests/support.py`` does,
resolving every step afresh.
"""

from __future__ import annotations

import math
import sys
from itertools import islice
from typing import Callable, Container, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence

from .decompose import AlignCluster, Plan, PlaceByTwoLoci, TriangleMerge
from .errors import (
    BadBranchError,
    BadValueError,
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
    circle_circle_roots,
    fold_angle,
    intersect_circle_circle,
    intersect_line_circle,
    intersect_line_line,
    line_through_point_angle,
    line_through_points,
    lines_close,
    rigid_align,
    unsigned_line_angle,
)
from .graph import _SHAPE, ConstraintGraph, EntityKind

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
    if "circle_free_radius" in (ka, kb):
        raise UnderDeterminedError(a if ka == "circle_free_radius" else b,
                                   "a free-radius circle cannot anchor a base placement")

    if kind == "distance":
        return {a: Point2(0.0, 0.0), b: Point2(c.value, 0.0)}

    if kind == "angle":
        return {a: X_AXIS, b: LineRep(math.pi / 2.0 + c.value, 0.0)}

    if kind == "incidence":
        p, other, other_kind = (a, b, kb) if ka == "point" else (b, a, ka)
        if other_kind == "line":
            return {p: Point2(0.0, 0.0), other: X_AXIS}
        r = g.entity(other).radius
        return {p: Point2(0.0, 0.0), other: CircleRep(Point2(r, 0.0), r)}

    if kind == "point_line_distance":
        p, l = (a, b) if ka == "point" else (b, a)
        return {l: X_AXIS, p: Point2(0.0, c.value)}

    # Tangency base: canonical external tangency along the x axis.
    if ka == "line" or kb == "line":
        l, k = (a, b) if ka == "line" else (b, a)
        r = g.entity(k).radius
        return {l: X_AXIS, k: CircleRep(Point2(0.0, r), r)}
    r1, r2 = g.entity(a).radius, g.entity(b).radius
    return {a: CircleRep(Point2(0.0, 0.0), r1), b: CircleRep(Point2(r1 + r2, 0.0), r2)}


# ---------------------------------------------------------------- step kernels

# A step kernel: from the placements by slot and the constraint
# values, its roots (each a tuple aligned with the entities the step places)
# and whether it met a tangent (double) root.  Compiling has settled what it
# reads, so a kernel checks values only: each anchor it reads is placed, as
# the shape its constraint needs.
Kernel = Callable[[list, Sequence[float]], tuple[list[tuple[Placement, ...]], bool]]


def _missing(entity_id: str) -> MissingPlacementError:
    return MissingPlacementError(f"entity {entity_id!r} has no placement yet")


def _index(g: ConstraintGraph, ci: object) -> int:
    """``ci``, a constraint index a plan gives, checked: UnsupportedStepError
    for a bool, any other non-int or an index outside ``range(g.m)``."""
    if isinstance(ci, bool) or not isinstance(ci, int) or not 0 <= ci < g.m:
        raise UnsupportedStepError(f"plan names constraint {ci!r}, not one of the graph's {g.m}")
    return ci


def _raising(exc: GcsError) -> Callable[..., NoReturn]:
    """A compiled step, or part of one, that raises a copy of ``exc``
    whenever it runs.  ``copy.copy`` copies an error without its
    traceback, cause or context, so an error kept to be raised again is
    kept and raised as such copies: a raised error's traceback holds the
    frames it passed, and through them whatever keeps the error."""
    import copy  # only a failing compile needs it, not a cold start

    kept = copy.copy(exc)

    def fail(*args: object) -> NoReturn:
        raise copy.copy(kept)

    return fail


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
    """A compiled step: its kernel, its blame (the steps, -1 a base, that
    place what it reads or an endpoint of a constraint it owns), the slice
    of slots it places, the constraints it owns, and the index of the plan
    step it is, or before which it walks a cluster that step reads."""

    kernel: Kernel
    blame: set[int]
    places: slice
    owns: list[tuple[str, int, int, int]]  # (kind, endpoint slots, constraint index)
    at: int


class _Program(NamedTuple):
    """A compiled plan, kept under its plan object (:func:`_walk`): its base
    constraint, the id of the entity in each slot (the base constraint's
    endpoints, then in step order; None for a cluster's local copy), its
    steps, the constraints the bases own, an endpoint no step places (of the
    first constraint with one, else None), and each walked cluster's base
    constraint with the first of its three base slots: its two endpoints,
    then the flips that fix them (:func:`_symmetries`)."""

    base_constraint: int
    ids: tuple[str | None, ...]
    steps: tuple[_Step, ...]
    owns: list[tuple[str, int, int, int]]
    unplaced: str | None
    bases: tuple[tuple[int, int], ...]


def _compile(plan: Plan, g: ConstraintGraph) -> _Program:
    """Compile ``plan`` against ``g``'s structure.  Each cluster plan that a
    recombination step reads is walked inline, once per cluster id: its
    steps, recursively, go just before the first step that reads it, place
    local copies of the cluster's entities in the cluster's own gauge and
    own the constraints the cluster owns.  The plan's own steps measure
    every constraint of ``g``, or a leaf's check raises for the first with
    an endpoint no step places.  A base constraint that is not one of
    ``g``'s is refused here; a step's bad index, when the walk reaches it."""
    built = _Builder(g, plan.base_constraint)
    index = {e: i for i, e in enumerate(built.ids)}  # of the plan's entities placed so far
    built.emit(plan.steps, index, None)
    built.own(range(g.m), index)
    return _Program(plan.base_constraint, tuple(built.ids), tuple(built.steps), built.owns,
                    built.unplaced, tuple(built.bases))


class _Builder:
    """A program as :func:`_compile` builds it: the id in each slot, the
    step that places each (-1 a base), the steps (each one's blame still
    growing), the constraints the bases own, each walked cluster's base
    and, by cluster id, its local slots, the walked clusters each copy a
    recombination step places is moved from, and the first endpoint found
    unplaced.  Steps read ``g`` through tables made once: each entity's kind
    value by id, each constraint's ends and kind value."""

    def __init__(self, g: ConstraintGraph, base: int):
        self.g, self.entity_kind = g, {e.id: e.kind._value_ for e in g.entities}
        self.ends = [c.between for c in g.constraints]
        self.constraint_kind = [c.kind._value_ for c in g.constraints]
        self.ids: list[str | None] = list(self.ends[_index(g, base)])
        self.placer = [-1, -1]
        self.steps, self.owns, self.bases, self.clusters = [], [], [], {}
        self.moved: dict[int, list[tuple[Mapping[str, int], Container[str]]]] = {}
        self.unplaced: str | None = None

    def emit(self, steps: Sequence, index: dict[str, int], at: int | None,
             flips: int | None = None) -> None:
        """Compile ``steps`` over the slots ``index`` gives: those of a
        cluster walked before the plan step ``at``, whose base symmetries
        are in slot ``flips``, or the plan's own."""
        ids, placer = self.ids, self.placer
        own: list[int] = []  # the slots the cluster's steps place
        for k, step in enumerate(steps):
            here = k if at is None else at
            kernel, reads, places = _compile_step(step, self, index, here)
            if flips is not None and places:
                kernel = _one_per_orbit(kernel, flips, tuple(own))
                own.extend(range(len(ids), len(ids) + len(places)))
            # Built with ``tuple.__new__``: a NamedTuple's own ``__new__`` is Python code.
            self.steps.append(tuple.__new__(_Step, (
                kernel, {placer[s] for s in reads}, slice(len(ids), len(ids) + len(places)),
                [], here)))
            for e in places:
                index[e] = len(ids)
                ids.append(e if at is None else None)
                placer.append(len(self.steps) - 1)

    def walk(self, cluster: int, sub: Plan, at: int) -> dict[str, int]:
        """The local slots of ``cluster``, whose plan ``sub`` is compiled
        here the first time it is read.  A cluster id that is not an int, or
        a plan that is not a Plan, is refused."""
        if isinstance(cluster, bool) or not isinstance(cluster, int) or not isinstance(sub, Plan):
            raise UnsupportedStepError(
                f"a recombined cluster needs an int id and a Plan, got {cluster!r} and a "
                f"{type(sub).__name__}")
        if cluster not in self.clusters:
            base = len(self.ids)
            a, b = self.ends[_index(self.g, sub.base_constraint)]
            local = self.clusters[cluster] = {a: base, b: base + 1}
            self.bases.append((sub.base_constraint, base))
            self.ids.extend((None, None, None))
            self.placer.extend((-1, -1, -1))
            self.emit(sub.steps, local, at, base + 2)
            self.own(sorted([_index(self.g, ci) for ci in sub.owned_constraints]), local)
        return self.clusters[cluster]

    def copies(self, count: int, sources: list[tuple[Mapping[str, int], Container[str]]]) -> None:
        """Note that the next ``count`` slots hold copies moved out of
        walked clusters' slots (``sources``), each of which keeps their
        distances to the entities listed with it."""
        for k in range(count):
            self.moved[len(self.ids) + k] = sources

    def pair(self, local: Mapping[str, int], a: str, b: str) -> tuple[int, int]:
        """The slots of ``a`` and ``b`` in the innermost walked cluster
        whose copies of them give their distance in the slots ``local``.
        A step that reads the distance there blames only the steps that
        choose it, not those that place the rest of ``local``'s cluster."""
        for x, y in ((a, b), (b, a)):
            for source, keeps in self.moved.get(local[y], ()):
                if x in keeps:
                    return self.pair(source, a, b)
        return local[a], local[b]

    def own(self, constraints: Iterable[int], index: Mapping[str, int]) -> None:
        """Give each of ``constraints``, checked indices in increasing
        order, to the step that places its last endpoint in ``index``'s
        slots, or note an endpoint none places."""
        ends, kinds, placer = self.ends, self.constraint_kind, self.placer
        for ci in constraints:
            a, b = ends[ci]
            if a in index and b in index:
                i, j = index[a], index[b]
                p, q = placer[i], placer[j]
                last = p if p > q else q  # the step that owns it
                _, blame, _, owns, _ = self.steps[last] if last >= 0 else (
                    None, set(), None, self.owns, None)
                blame.update((p, q))
                owns.append((kinds[ci], i, j, ci))
            elif self.unplaced is None:
                self.unplaced = b if a in index else a


def _compile_step(
    step, built: _Builder, index: Mapping[str, int], at: int
) -> tuple[Kernel, Sequence[int], Sequence[str]]:
    """A plan step's kernel, the slots its roots depend on and the entities
    it places, given the slots of the entities placed before it; ``built``
    walks each cluster the step recombines before the plan step ``at``.  A
    structural fault, such as an anchor not placed before it as the shape
    (``graph._SHAPE``) its constraint needs, makes a step that raises it
    whenever it runs and reads and places nothing.  So does a step a field
    of which is not of its type."""
    try:
        if isinstance(step, PlaceByTwoLoci):
            _typed(step, (str, _SEQUENCE))
            if len(step.constraints) != 2:
                raise UnsupportedStepError(
                    f"two loci need two constraints, got {step.constraints!r}")
            # kind_of raises UnknownEndpointError for an id the graph lacks.
            kind = built.entity_kind.get(step.target) or built.g.kind_of(step.target)._value_
            if kind not in ("point", "line"):
                raise UnsupportedStepError(f"cannot place a {kind} by two loci")
            make = _point_kernel if kind == "point" else _line_kernel
            return (*make(step.target, step.constraints, built, index), (step.target,))
        if isinstance(step, TriangleMerge):
            _typed(step, (_SEQUENCE, _SEQUENCE, _SEQUENCE))
            return _triangle_kernel(step, built, index, at)
        if isinstance(step, AlignCluster):
            _typed(step, (int, _SEQUENCE, Plan))
            return _align_kernel(step, built, index, at)
        raise UnsupportedStepError(f"unknown plan step {type(step).__name__}")
    except GcsError as exc:
        return _raising(exc), (), ()


_SEQUENCE = (tuple, list)


def _typed(step: tuple, types: tuple) -> None:
    """Refuse ``step`` if a field is not of its type in ``types``, which
    its kernel would meet as a bare TypeError or AttributeError.  The
    entries of a sequence are checked where they are read."""
    if not all(map(isinstance, step, types)):
        name, value, kind = next(f for f in zip(step._fields, step, types)
                                 if not isinstance(f[1], f[2]))
        names = " or ".join(k.__name__ for k in kind) if isinstance(kind, tuple) else kind.__name__
        raise UnsupportedStepError(
            f"{type(step).__name__} {name} must be of type {names}, got {value!r}")


def _endpoint(built: _Builder, ci: int, target: str,
              index: Mapping[str, int]) -> tuple[str, int, str]:
    """The kind of constraint ``ci``, and the index and shape of its
    endpoint other than ``target``, which must be placed before the step."""
    between = built.ends[_index(built.g, ci)]
    if target not in between:
        raise UnsupportedStepError(f"constraint {between} does not touch {target!r}")
    anchor = between[1] if target == between[0] else between[0]
    if anchor not in index:
        raise _missing(anchor)
    return built.constraint_kind[ci], index[anchor], _SHAPE[built.entity_kind[anchor]]


def _point_kernel(target: str, constraints: tuple[int, int], built: _Builder,
                  index: Mapping[str, int]) -> tuple[Kernel, tuple[int, int]]:
    """A point on two loci, each a circle about a point (distance), the line
    or circle it lies on (incidence) or the lines at an offset from a line
    (point_line_distance); and the slots of the two anchors."""
    loci = []  # per constraint: its kind, its anchor's index and its own
    for ci in constraints:
        kind, i, shape = _endpoint(built, ci, target, index)
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
    # The common step, solved from coordinates in half the time of the loci.
    # It stays a path of its own: sending it through _loci_roots's shared
    # dedupe and order gave the same answers, but took the search-laman
    # benchmark's p50 from 1.77-1.80 to 2.03-2.05 ms, about 14% slower (3
    # alternating pairs of 10-s runs at seed 401, 2-core Xeon VM, Python 3.11.7).
    # A property test in tests/test_solve.py holds the two paths to the same
    # roots, tangent flags and errors.
    if ka == kb == "distance":
        return (lambda placed, values: _circle_roots(
            target, placed[ia], values[ca], placed[ib], values[cb])), (ia, ib)
    return (lambda placed, values: _loci_roots(
        target, _point_loci(ka, placed[ia], values[ca]), _point_loci(kb, placed[ib], values[cb])
    )), (ia, ib)


def _loci_roots(target: str, group_a: list[Placement], group_b: list[Placement]):
    """The roots of ``target`` on a locus of ``group_a`` and one of
    ``group_b``, each kept once and in root order, and whether a pair of
    loci touched."""
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


def _circle_roots(target: str, p: Point2, ra: float, q: Point2, rb: float):
    """The roots of ``target`` at distance ``ra`` from ``p`` and ``rb`` from
    ``q``, and whether they touch, as :func:`_loci_roots` finds them on the
    two circles, but computed from coordinates.  A distance no circle can
    have raises BadValueError from CircleRep where that case would."""
    if not (0 < ra < math.inf and 0 < rb < math.inf):
        CircleRep(p, ra), CircleRep(q, rb)
    try:
        roots, tangent = circle_circle_roots(p.x, p.y, ra, q.x, q.y, rb)
    except EmptyIntersectionError:
        raise EmptyIntersectionError(f"no locus intersection places {target!r}") from None
    except CoincidentError:
        raise UnderDeterminedError(target, "coincident loci leave the target free") from None
    # Points are built with ``tuple.__new__``: a NamedTuple's own
    # ``__new__`` is Python code, and this runs for most steps of a walk.
    if tangent:
        return [(tuple.__new__(Point2, roots[0]),)], True
    first, second = roots
    (x1, y1), (x2, y2) = roots
    if math.hypot(x2 - x1, y2 - y1) <= EPS:  # one root, as _point_kernel merges them
        return [(tuple.__new__(Point2, first),)], False
    # The centroid as _order_points sums it, from 0.
    cx, cy = (0.0 + x1 + x2) / 2, (0.0 + y1 + y2) / 2
    if _root_key(x2, y2, cx, cy) < _root_key(x1, y1, cx, cy):
        first, second = second, first
    return [(tuple.__new__(Point2, first),), (tuple.__new__(Point2, second),)], False


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


def _line_kernel(target: str, constraints: tuple[int, int], built: _Builder,
                 index: Mapping[str, int]) -> tuple[Kernel, tuple[int, int]]:
    """A line through two points, or through a point at an angle to a line
    (two lines, or one where they agree), and the slots of the two anchors.
    Two angles fix its direction but never its offset."""
    anchors = []  # per constraint: whether it is an angle, its anchor's index and its own
    for ci in constraints:
        kind, i, shape = _endpoint(built, ci, target, index)
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

        return through_points, (ip, iq)

    def at_angle(placed: list, values: Sequence[float]):
        p, ref, alpha = placed[ip], placed[iq], values[ci]
        first = line_through_point_angle(p, ref, alpha, branch=0)
        second = line_through_point_angle(p, ref, alpha, branch=1)
        lines = [first] if lines_close(first, second) else [first, second]
        lines.sort(key=lambda l: (l.theta, l.c))
        return [(l,) for l in lines], False

    return at_angle, (ip, iq)


def _triangle_kernel(
    step: TriangleMerge, built: _Builder, index: Mapping[str, int], at: int
) -> tuple[Kernel, Sequence[int], Sequence[str]]:
    """A triangle merge's kernel, read slots and placed entities: it places
    the one unplaced shared point p2 at the virtual distances |p2 p0| and
    |p1 p2| of the walked first and second clusters' local copies, which
    each path through those clusters' steps sets anew.  Each distance is
    read where a copy was first given it (:meth:`_Builder.pair`)."""
    if (len(step.points), len(step.clusters), len(step.plans)) != (3, 3, 2):
        raise UnsupportedStepError(
            f"triangle merge needs 3 points, 3 clusters and 2 plans, got {len(step.points)},"
            f" {len(step.clusters)} and {len(step.plans)}")
    p0, p1, p2 = step.points
    if [p for p in step.points if p not in index] != [p2]:
        raise UnsupportedStepError(
            "triangle merge expects exactly the third shared point unplaced")
    first, second = (built.walk(cluster, sub, at) for cluster, sub in
                     zip(step.clusters[1:], step.plans))
    i0, i1 = _point_slots(built, index, (p0, p1))  # anchors, then pairs as measured
    _point_slots(built, second, (p1, p2))
    _point_slots(built, first, (p2, p0))
    (j1, j2), (k2, k0) = built.pair(second, p1, p2), built.pair(first, p2, p0)
    built.copies(1, [(first, (p0,)), (second, (p1,))])

    def place(placed: list, values: Sequence[float]):
        d12, d20 = placed[j1].distance_to(placed[j2]), placed[k2].distance_to(placed[k0])
        if d12 <= EPS or d20 <= EPS:
            raise EmptyIntersectionError(f"no virtual-distance circles intersect to place {p2!r}")
        return _circle_roots(p2, placed[i0], d20, placed[i1], d12)

    return place, (i0, i1, j1, j2, k2, k0), (p2,)


def _align_kernel(
    step: AlignCluster, built: _Builder, index: Mapping[str, int], at: int
) -> tuple[Kernel, Sequence[int], Sequence[str]]:
    """An alignment's kernel, read slots and placed entities: it maps the
    walked cluster's local copy of the shared pair onto the placed pair by
    the proper and by the reflected motion, and its local copies of the
    cluster's unplaced entities with them, once if both place them alike (a
    cluster its own mirror image across the pair).  A pair of another size
    is an empty intersection, a coincident pair leaves the cluster
    under-determined.  Compiling refuses a cluster whose plan does not place
    the shared pair or an endpoint of a constraint the cluster owns."""
    if len(step.shared) != 2:
        raise UnsupportedStepError(f"alignment needs 2 shared points, got {step.shared!r}")
    s0, s1 = step.shared
    if missing := [s for s in step.shared if s not in index]:
        raise _missing(missing[0])
    owned = sorted([_index(built.g, ci) for ci in step.plan.owned_constraints])
    ends = [e for ci in owned for e in built.ends[ci]]
    if all(e in index for e in ends):
        raise UnsupportedStepError(f"alignment of cluster {step.cluster} has nothing left to place")
    local = built.walk(step.cluster, step.plan, at)
    j0, j1 = _point_slots(built, local, step.shared)
    if lacking := [e for e in ends if e not in local]:
        raise _missing(lacking[0])
    unplaced = [e for e in sorted(local) if e not in index]
    i0, i1 = index[s0], index[s1]
    copies = [local[e] for e in unplaced]
    built.copies(len(unplaced), [(local, {s0, s1, *unplaced})])

    def kernel(placed: list, values: Sequence[float]):
        src, dst = (placed[j0], placed[j1]), (placed[i0], placed[i1])
        try:
            motions = [rigid_align(src, dst, False), rigid_align(src, dst, True)]
        except LengthMismatchError as exc:
            raise EmptyIntersectionError(
                f"cluster {step.cluster} does not fit the placed pair: {exc}") from None
        except CoincidentPointsError:
            raise UnderDeterminedError(
                unplaced[0], "a coincident shared pair leaves the cluster free to turn") from None
        proper, reflected = [tuple([m.apply(placed[j]) for j in copies]) for m in motions]
        if all(map(_alike, proper, reflected)):
            return [proper], False
        return [proper, reflected], False

    return kernel, [i0, i1, j0, j1, *copies], unplaced


def _point_slots(built: _Builder, slots: Mapping[str, int], points: Sequence[str]) -> list[int]:
    """The slots of ``points`` in ``slots``, each of which must hold it,
    placed as a point."""
    for p in points:
        if p not in slots:
            raise _missing(p)
        if _SHAPE[built.entity_kind[p]] != "point":
            raise UnsupportedStepError(f"entity {p!r} is not placed as a point")
    return [slots[p] for p in points]


def _symmetries(base: tuple[Placement, Placement]) -> list[tuple[float, float]]:
    """The flips (x, y) -> (sx x, sy y) but the identity that map each base
    placement of a cluster onto itself (the mirrors y -> -y, x -> -x and the
    half turn), and so its leaves onto each other.  An angle base is fixed
    by a mirror only at a right angle, so each walk finds them."""
    return [(sx, sy) for sx, sy in ((1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
            if all(_alike(_flipped(p, sx, sy), p) for p in base)]


def _one_per_orbit(kernel: Kernel, flips: int, before: tuple[int, ...]) -> Kernel:
    """``kernel`` of a step of a cluster, keeping the first of each set of
    its roots that the base's symmetries (slot ``flips``) fixing every slot
    ``before`` it (those the cluster's earlier steps place) map onto each
    other.  Of two leaves that one of the symmetries maps onto each other,
    the first step where they part keeps one, so the cluster's leaves are
    one of each such set, and gluing each by both motions gives every
    solution once.  A dropped root's subtree is the image of a kept one's,
    with the same dead ends, so blame need not list ``before``."""

    def place(placed: list, values: Sequence[float]):
        options, tangent = kernel(placed, values)
        fixing = [(sx, sy) for sx, sy in placed[flips]
                  if all(_alike(_flipped(placed[j], sx, sy), placed[j]) for j in before)]
        if not fixing:
            return options, tangent
        kept = []
        for root in options:
            if not any(all(_alike(_flipped(p, sx, sy), q) for p, q in zip(other, root))
                       for other in kept for sx, sy in fixing):
                kept.append(root)
        return kept, tangent

    return place


def _alike(p: Placement, q: Placement) -> bool:
    """Whether two placements of one entity coincide, within EPS."""
    if isinstance(p, LineRep):
        return lines_close(p, q)
    return (p if isinstance(p, Point2) else p.center).close_to(
        q if isinstance(q, Point2) else q.center) and (isinstance(p, Point2) or p.r == q.r)


def _flipped(p: Placement, sx: float, sy: float) -> Placement:
    """The image of ``p`` under (x, y) -> (sx x, sy y), with sx, sy = ±1."""
    if isinstance(p, Point2):
        return Point2(sx * p.x, sy * p.y)
    if isinstance(p, CircleRep):
        return CircleRep(_flipped(p.center, sx, sy), p.r)
    nx, ny = p.normal
    return LineRep(math.atan2(sy * ny, sx * nx), p.c)


# ------------------------------------------------------------------- execution


def execute(plan: Plan, g: ConstraintGraph, branches: Sequence[int] = ()) -> Solution:
    """Run a plan under one branch assignment.

    Selector entries pair up, in order, with the steps that expose two or more
    roots; missing entries default to 0.  Raises BadBranchError for an entry
    that is not an ``int`` (a bool too), an entry out of range or a selector
    longer than the number of branching steps.
    """
    selector = tuple(branches)
    for entry in selector:
        if isinstance(entry, bool) or not isinstance(entry, int):
            raise BadBranchError(f"branch {entry!r} is not an integer")
    return next(_walk(plan, g, selector, None))


def enumerate_solutions(
    plan: Plan, g: ConstraintGraph, limit: int = 16, tol: float = DEFAULT_TOL
) -> list[tuple[tuple[int, ...], Solution]]:
    """All verifying solutions (up to ``limit``) in deterministic branch order.
    Raises BadBranchError for a ``limit`` that is not an ``int`` (a bool
    too) or is below 1, and BadValueError for a bad ``tol`` (:func:`_check_tol`)."""
    if isinstance(limit, bool) or not isinstance(limit, int):
        raise BadBranchError(f"limit {limit!r} is not an integer")
    if limit < 1:
        raise BadBranchError(f"limit must be >= 1, got {limit}")
    _check_tol(tol)
    walk = islice(_walk(plan, g, None, tol), min(limit, sys.maxsize))  # no walk yields more
    return [(sol.branches, sol) for sol in walk]


def _check_tol(tol: object) -> None:
    """Refuse, with BadValueError, a tolerance that is not an ``int`` or
    ``float`` (a bool or None too), or is NaN or negative."""
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not tol >= 0:
        raise BadValueError(f"tol must be a non-negative number, got {tol!r}")


class _Frame:
    """One step on the walker's path: its roots, the root taken and the last
    one to try, whether the step hit a tangent root, and the frames it
    blames for running out of roots (``None`` once a solution below it has
    sent it back chronologically)."""

    __slots__ = ("options", "pick", "last", "tangent", "conflicts")

    def __init__(self, options: list[tuple[Placement, ...]], pick: int, last: int,
                 tangent: bool, conflicts: set[int] | None):
        self.options, self.pick, self.last = options, pick, last
        self.tangent, self.conflicts = tangent, conflicts


def _walk(
    plan: Plan, g: ConstraintGraph, selector: tuple[int, ...] | None, tol: float | None
) -> Iterator[Solution]:
    """:func:`_run` of ``plan``'s program over ``g``'s values, compiled on
    first use and kept with ``g``'s structure under that ``plan`` object."""
    program = g._kept("program", plan, lambda: _compile(plan, g))
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
    places.  Every base, the plan's and each walked cluster's, is placed
    before the first step, so a leaf checks the constraints they all own.
    Dead ends backjump as the module describes (Prosser 1993): a step's roots
    and owned residuals depend only on what the steps it blames place, and
    its blame only on the plan, so a skipped subtree holds no leaf.
    """
    base = base_placements(g, program.base_constraint)
    steps = program.steps
    placed: list = [None] * len(program.ids)
    placed[0], placed[1] = base[program.ids[0]], base[program.ids[1]]
    # Each walked cluster's base, in its own gauge, and the flips that fix
    # it, found once per walk: at each of its steps they cost a third more.
    for ci, at in program.bases:
        local = base_placements(g, ci)
        ends = tuple([local[e] for e in g.constraints[ci].between])
        placed[at : at + 3] = *ends, _symmetries(ends)
    base_worst = _owned_worst(program.owns, placed, values)
    yielded = False
    failure: GcsError | None = None  # the first one recorded
    frames: list[_Frame] = []
    entries = None if selector is None else iter(selector)  # a selector's walk is one path
    while True:
        i = len(frames)  # the top frame's root, if any, is placed and not yet checked
        if i and tol is not None and not (
                worst := _owned_worst(steps[i - 1].owns, placed, values)) <= tol:
            failure = failure or VerificationError(f"residual {worst} exceeds {tol}")
            blame = steps[i - 1].blame  # which holds i - 1, the step that owns what broke
        elif i < len(steps):
            kernel, blame, places, _, at = steps[i]
            try:
                options, tangent = kernel(placed, values)
                first, last = 0, len(options) - 1
                if entries is not None and last:
                    first = last = next(entries, 0)
                    if not 0 <= first < len(options):
                        raise BadBranchError(
                            f"branch {first} out of range for step {at} with {len(options)} roots"
                        )
            except GcsError as exc:
                failure = failure or exc
            else:
                placed[places] = options[first]
                frames.append(_Frame(options, first, last, tangent, blame))
                continue
        else:  # a leaf: one that fails ends the walk, as every leaf fails alike
            blame = frozenset()  # (and a selector's walk has no other)
            if entries is not None and next(entries, None) is not None:
                failure = failure or BadBranchError(
                    f"selector has {len(selector)} entries but only "
                    f"{sum([len(f.options) > 1 for f in frames])} steps branch")
            elif tol is not None and program.unplaced is not None:
                raise _missing(program.unplaced)  # a constraint on it is measured at each leaf
            elif tol is None or base_worst <= tol:
                blame = None  # after a solution, each step backtracks chronologically
                yielded, failure = True, None  # a failure is raised only if none is yielded
                placements = dict(base)
                placements.update(zip(program.ids, placed))
                placements.pop(None, None)  # the walked clusters' local copies
                yield tuple.__new__(Solution, (
                    placements, tuple([f.pick for f in frames if len(f.options) > 1]),
                    tuple(dict.fromkeys([steps[k].at for k, f in enumerate(frames) if f.tangent]))))
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
        if not frames:
            break
        top.pick += 1
        placed[steps[k].places] = top.options[top.pick]
    try:
        if not yielded:
            raise failure or VerificationError("no branch produced a solution")
    finally:
        failure = None  # its traceback holds this frame: drop it to free the walk's state


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
    BadValueError for a bad ``tol`` (:func:`_check_tol`), UnknownEndpointError
    for a placement of an id the graph lacks and KindMismatchError for an
    entity placed as another kind."""
    _check_tol(tol)
    placements = s.placements
    for entity_id, placed in placements.items():
        kind = g.kind_of(entity_id)  # UnknownEndpointError for an id the graph lacks
        if not isinstance(placed, _PLACEMENT_TYPES.get(kind, CircleRep)):
            raise KindMismatchError(f"{kind.value} {entity_id!r} placed as {type(placed).__name__}")
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
