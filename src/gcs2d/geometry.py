"""Ruler-and-compass primitives: the three intersection cases plus rigid motions.

Lines use the normal form {p : p . (cos t, sin t) = c} with t in [0, pi).
Two tolerance tiers apply throughout: EPS (1e-9) separates tangent, empty and
transversal configurations, while returned points satisfy their defining
equations to roughly 1e-12 relative.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

from .errors import (
    BadValueError,
    CoincidentError,
    CoincidentPointsError,
    EmptyIntersectionError,
    LengthMismatchError,
    ParallelError,
)

EPS = 1e-9


class Point2(NamedTuple):
    x: float
    y: float

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def close_to(self, other: "Point2", tol: float = EPS) -> bool:
        return self.distance_to(other) <= tol


def _checked_make(cls, fields):
    """``_make`` (which ``_replace`` calls) through the class's ``__new__``."""
    return cls(*fields)


class _Line(NamedTuple):
    theta: float
    c: float


class LineRep(_Line):
    """Line in normal form, a NamedTuple whose ``__new__`` folds theta into
    [0, pi), negating ``c`` on odd folds; ``_replace`` and unpickling fold too."""

    __slots__ = ()

    def __new__(cls, theta: float, c: float):
        k = math.floor(theta / math.pi)
        theta -= k * math.pi
        if theta >= math.pi:  # guard against rounding at the fold boundary
            theta -= math.pi
            k += 1
        return tuple.__new__(cls, (theta, -c if k % 2 else c))

    _make = classmethod(_checked_make)

    @property
    def normal(self) -> tuple[float, float]:
        return (math.cos(self.theta), math.sin(self.theta))

    @property
    def direction(self) -> tuple[float, float]:
        return (-math.sin(self.theta), math.cos(self.theta))

    def signed_offset(self, p: Point2) -> float:
        nx, ny = self.normal
        return nx * p.x + ny * p.y - self.c

    def distance_to_point(self, p: Point2) -> float:
        return abs(self.signed_offset(p))

    def foot_of(self, p: Point2) -> Point2:
        s = self.signed_offset(p)
        nx, ny = self.normal
        return Point2(p.x - s * nx, p.y - s * ny)


class _Circle(NamedTuple):
    center: Point2
    r: float


class CircleRep(_Circle):
    """Circle about ``center``; ``__new__`` checks ``r`` is finite and > 0."""

    __slots__ = ()

    def __new__(cls, center: Point2, r: float):
        if not math.isfinite(r) or r <= 0:
            raise BadValueError(f"circle radius must be finite and > 0, got {r}")
        return tuple.__new__(cls, (center, r))

    _make = classmethod(_checked_make)


Placement = Union[Point2, LineRep, CircleRep]


class Motion(NamedTuple):
    """Isometry applied as reflection (across the x axis, if set), then
    rotation, then translation."""

    reflect: bool
    rotation: float
    translation: tuple[float, float]

    def apply_point(self, p: Point2) -> Point2:
        x, y = p.x, p.y
        if self.reflect:
            y = -y
        cos_r, sin_r = math.cos(self.rotation), math.sin(self.rotation)
        tx, ty = self.translation
        return Point2(cos_r * x - sin_r * y + tx, sin_r * x + cos_r * y + ty)

    def apply_line(self, l: LineRep) -> LineRep:
        nx, ny = l.normal
        if self.reflect:
            ny = -ny
        cos_r, sin_r = math.cos(self.rotation), math.sin(self.rotation)
        mx = cos_r * nx - sin_r * ny
        my = sin_r * nx + cos_r * ny
        tx, ty = self.translation
        c = l.c + tx * mx + ty * my
        return LineRep(math.atan2(my, mx), c)

    def apply_circle(self, k: CircleRep) -> CircleRep:
        return CircleRep(self.apply_point(k.center), k.r)

    def apply(self, placement: Placement) -> Placement:
        if isinstance(placement, Point2):
            return self.apply_point(placement)
        if isinstance(placement, LineRep):
            return self.apply_line(placement)
        return self.apply_circle(placement)


class Intersection(NamedTuple):
    """Result of a quadratic intersection; ``tangent`` marks a double root."""

    points: tuple[Point2, ...]
    tangent: bool = False


def unsigned_line_angle(l1: LineRep, l2: LineRep) -> float:
    """Unsigned angle between two lines, folded into [0, pi/2]."""
    d = abs(l1.theta - l2.theta)
    return min(d, math.pi - d)


def fold_angle(alpha: float) -> float:
    """Fold any angle to the unsigned line-angle convention in [0, pi/2]."""
    a = math.fmod(alpha, math.pi)
    if a < 0:
        a += math.pi
    return min(a, math.pi - a)


def lines_close(l1: LineRep, l2: LineRep, tol: float = EPS) -> bool:
    """True when the two normal forms describe the same line within ``tol``."""
    d = abs(l1.theta - l2.theta)
    if d <= tol:
        return abs(l1.c - l2.c) <= tol
    if math.pi - d <= tol:  # normals nearly opposite across the fold
        return abs(l1.c + l2.c) <= tol
    return False


def intersect_line_line(l1: LineRep, l2: LineRep) -> Point2:
    """Unique intersection of two non-parallel lines.

    Raises ParallelError when |sin(t1 - t2)| <= EPS (coincident included).
    """
    det = math.sin(l2.theta - l1.theta)
    if abs(det) <= EPS:
        raise ParallelError("lines are parallel within tolerance")
    n1x, n1y = l1.normal
    n2x, n2y = l2.normal
    x = (l1.c * n2y - l2.c * n1y) / det
    y = (l2.c * n1x - l1.c * n2x) / det
    return Point2(x, y)


def intersect_line_circle(l: LineRep, k: CircleRep) -> Intersection:
    """One (tangent) or two points common to a line and a circle."""
    s = l.signed_offset(k.center)
    gap = abs(s) - k.r
    foot = Point2(k.center.x - s * l.normal[0], k.center.y - s * l.normal[1])
    if abs(gap) <= EPS:
        return Intersection((foot,), tangent=True)
    if gap > 0:
        raise EmptyIntersectionError("line misses the circle")
    # Squares of lengths past about 1e154 overflow, so a huge circle is solved
    # in units of its radius (the largest length here); below 1e150 the unit is 1.
    unit = k.r if k.r > 1e150 else 1.0
    r, s = k.r / unit, s / unit
    h = math.sqrt(r * r - s * s) * unit
    dx, dy = l.direction
    return Intersection(
        (Point2(foot.x + h * dx, foot.y + h * dy), Point2(foot.x - h * dx, foot.y - h * dy))
    )


def intersect_circle_circle(k1: CircleRep, k2: CircleRep) -> Intersection:
    """One (tangent) or two points common to two circles.

    Raises CoincidentError for identical circles and EmptyIntersectionError
    for disjoint or nested ones.
    """
    roots, tangent = circle_circle_roots(
        k1.center.x, k1.center.y, k1.r, k2.center.x, k2.center.y, k2.r
    )
    return Intersection(tuple(Point2(x, y) for x, y in roots), tangent)


def circle_circle_roots(
    x1: float, y1: float, r1: float, x2: float, y2: float, r2: float
) -> tuple[tuple[tuple[float, float], ...], bool]:
    """:func:`intersect_circle_circle` on coordinates: the (x, y) roots of
    the circles about (x1, y1) and (x2, y2), and whether they touch at a
    double root.  Raises the same errors."""
    d = math.hypot(x1 - x2, y1 - y2)
    if d <= EPS:
        if abs(r1 - r2) <= EPS:
            raise CoincidentError("circles coincide")
        raise EmptyIntersectionError("concentric circles with different radii")
    outer = d - (r1 + r2)
    inner = d - abs(r1 - r2)
    tangent = abs(outer) <= EPS or abs(inner) <= EPS
    if not tangent and (outer > 0 or inner < 0):
        raise EmptyIntersectionError("circles do not intersect")
    # Squares of lengths past about 1e154 overflow, so huge circles are
    # solved in units of their largest length; below 1e150 the unit is 1.
    s = max(d, r1, r2)
    s = s if s > 1e150 else 1.0
    ds, r1s, r2s = d / s, r1 / s, r2 / s
    a = (ds * ds + r1s * r1s - r2s * r2s) / (2.0 * ds)
    ux = (x2 - x1) / d
    uy = (y2 - y1) / d
    bx, by = x1 + a * s * ux, y1 + a * s * uy
    if tangent:
        return ((bx, by),), True
    h = math.sqrt(max(r1s * r1s - a * a, 0.0)) * s
    return ((bx - h * uy, by + h * ux), (bx + h * uy, by - h * ux)), False


def line_through_points(p: Point2, q: Point2) -> LineRep:
    """The line through two distinct points."""
    if p.distance_to(q) <= EPS:
        raise CoincidentPointsError("cannot draw a line through coincident points")
    dx, dy = q.x - p.x, q.y - p.y
    theta = math.atan2(dx, -dy)  # normal is the direction rotated by -90 degrees
    l = LineRep(theta, 0.0)
    nx, ny = l.normal
    return LineRep(l.theta, nx * p.x + ny * p.y)


def line_through_point_angle(p: Point2, ref: LineRep, alpha: float, branch: int = 0) -> LineRep:
    """Line through ``p`` meeting ``ref`` at unsigned angle ``alpha``.

    ``branch`` 0 rotates the reference direction by +alpha, 1 by -alpha.
    """
    if not 0 < alpha < math.pi:
        raise BadValueError(f"angle must lie in (0, pi), got {alpha}")
    if branch not in (0, 1):
        raise BadValueError(f"branch must be 0 or 1, got {branch}")
    theta = ref.theta + alpha if branch == 0 else ref.theta - alpha
    l = LineRep(theta, 0.0)
    nx, ny = l.normal
    return LineRep(l.theta, nx * p.x + ny * p.y)


def rigid_align(
    src: tuple[Point2, Point2], dst: tuple[Point2, Point2], reflect: bool = False
) -> Motion:
    """Motion mapping src[0] -> dst[0] and src[1] -> dst[1].

    The two segments must have equal length within EPS times the destination
    length, or EPS below length 1; orientation is flipped iff ``reflect``.
    """
    s1, s2 = src
    d1, d2 = dst
    ls = s1.distance_to(s2)
    ld = d1.distance_to(d2)
    if ls <= EPS or ld <= EPS:
        raise CoincidentPointsError("alignment needs two distinct points on each side")
    if abs(ls - ld) > EPS * max(1.0, ld):
        raise LengthMismatchError(f"segment lengths differ: {ls} vs {ld}")
    sx, sy = s1.x, s1.y
    vx, vy = s2.x - s1.x, s2.y - s1.y
    if reflect:
        sy, vy = -sy, -vy
    rotation = math.atan2(d2.y - d1.y, d2.x - d1.x) - math.atan2(vy, vx)
    cos_r, sin_r = math.cos(rotation), math.sin(rotation)
    tx = d1.x - (cos_r * sx - sin_r * sy)
    ty = d1.y - (sin_r * sx + cos_r * sy)
    return Motion(reflect=reflect, rotation=rotation, translation=(tx, ty))

