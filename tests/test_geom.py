import math

import pytest
from hypothesis import given, strategies as st

from gcs2d import (
    BadValueError,
    CircleRep,
    CoincidentError,
    CoincidentPointsError,
    EmptyIntersectionError,
    LengthMismatchError,
    LineRep,
    Motion,
    ParallelError,
    Point2,
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

from support import alignment_motions

X_AXIS = LineRep(math.pi / 2, 0.0)
Y_AXIS = LineRep(0.0, 0.0)

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def on_line(l: LineRep, p: Point2, scale: float = 1.0) -> bool:
    return abs(l.signed_offset(p)) <= 1e-12 * max(1.0, scale)


def on_circle(k: CircleRep, p: Point2) -> bool:
    return abs(p.distance_to(k.center) - k.r) <= 1e-12 * max(1.0, k.r)


class TestLineRep:
    def test_theta_folds_into_range(self):
        l = LineRep(math.pi, 2.0)
        assert l.theta == pytest.approx(0.0)
        assert l.c == pytest.approx(-2.0)

    def test_negative_theta_folds(self):
        l = LineRep(-math.pi / 2, 1.0)
        assert 0 <= l.theta < math.pi
        assert lines_close(l, LineRep(math.pi / 2, -1.0))

    def test_theta_rounding_to_pi_folds_to_zero(self):
        # -1e-17 + pi rounds to pi itself, which the guard folds once more.
        assert LineRep(-1e-17, 1.0) == (0.0, 1.0)

    def test_lines_close_across_the_fold(self):
        # Normals nearly opposite: the same line when the offsets are opposite too.
        assert lines_close(LineRep(0.0, 1.0), LineRep(math.pi - 1e-12, -1.0))
        assert not lines_close(LineRep(0.0, 1.0), LineRep(math.pi - 1e-12, 1.0))


class TestLineLine:
    def test_axes_cross_at_origin(self):
        p = intersect_line_line(X_AXIS, Y_AXIS)
        assert p.close_to(Point2(0.0, 0.0), 1e-12)

    def test_offset_axes(self):
        p = intersect_line_line(LineRep(0.0, 2.0), LineRep(math.pi / 2, 3.0))
        assert p.close_to(Point2(2.0, 3.0), 1e-12)

    def test_parallel(self):
        with pytest.raises(ParallelError):
            intersect_line_line(LineRep(math.pi / 2, 0.0), LineRep(math.pi / 2, 1.0))

    @given(coords, coords, st.floats(min_value=0.2, max_value=math.pi - 0.2, allow_nan=False))
    def test_result_lies_on_both_lines(self, c1, c2, dtheta):
        l1 = LineRep(0.3, c1)
        l2 = LineRep(0.3 + dtheta, c2)
        p = intersect_line_line(l1, l2)
        scale = max(abs(p.x), abs(p.y), 1.0)
        assert on_line(l1, p, scale)
        assert on_line(l2, p, scale)


class TestLineCircle:
    def test_two_roots(self):
        hit = intersect_line_circle(X_AXIS, CircleRep(Point2(0, 0), 2.0))
        got = sorted(hit.points, key=lambda p: p.x)
        assert got[0].close_to(Point2(-2.0, 0.0), 1e-12)
        assert got[1].close_to(Point2(2.0, 0.0), 1e-12)
        assert not hit.tangent

    def test_tangent_flagged(self):
        hit = intersect_line_circle(LineRep(math.pi / 2, 2.0), CircleRep(Point2(0, 0), 2.0))
        assert hit.tangent
        assert len(hit.points) == 1
        assert hit.points[0].close_to(Point2(0.0, 2.0), 1e-12)

    def test_empty(self):
        with pytest.raises(EmptyIntersectionError):
            intersect_line_circle(LineRep(math.pi / 2, 3.0), CircleRep(Point2(0, 0), 2.0))

    @given(coords, coords, st.floats(min_value=0.5, max_value=20.0, allow_nan=False))
    def test_roots_satisfy_both_equations(self, cx, cy, r):
        k = CircleRep(Point2(cx, cy), r)
        l = LineRep(0.7, 0.3 * cx + 0.95 * cy)  # passes near the center region
        try:
            hit = intersect_line_circle(l, k)
        except EmptyIntersectionError:
            return
        scale = max(abs(cx), abs(cy), r, 1.0)
        for p in hit.points:
            assert abs(l.signed_offset(p)) <= 1e-9 * scale
            assert abs(p.distance_to(k.center) - k.r) <= 1e-9 * scale

    def test_lengths_past_1e154(self):
        # Their squares overflow, so the roots are found in units of the radius.
        l, k = LineRep(math.pi / 2, 0.0), CircleRep(Point2(0, 1e160), 2e160)
        hit = intersect_line_circle(l, k)
        assert sorted(p.x / 1e160 for p in hit.points) == pytest.approx([-3**0.5, 3**0.5],
                                                                       rel=1e-15)
        for p in hit.points:
            assert math.isfinite(p.x) and math.isfinite(p.y)
            assert abs(l.signed_offset(p)) <= 1e-15 * k.r
            assert p.distance_to(k.center) == pytest.approx(k.r, rel=1e-15)


class TestCircleCircle:
    def test_two_roots(self):
        hit = intersect_circle_circle(CircleRep(Point2(0, 0), 5.0), CircleRep(Point2(6, 0), 5.0))
        assert {(round(p.x, 12), round(p.y, 12)) for p in hit.points} == {(3.0, 4.0), (3.0, -4.0)}

    def test_disjoint(self):
        with pytest.raises(EmptyIntersectionError):
            intersect_circle_circle(CircleRep(Point2(0, 0), 1.0), CircleRep(Point2(3, 0), 1.0))

    def test_external_tangency(self):
        hit = intersect_circle_circle(CircleRep(Point2(0, 0), 1.0), CircleRep(Point2(2, 0), 1.0))
        assert hit.tangent
        assert hit.points[0].close_to(Point2(1.0, 0.0), 1e-12)

    def test_coincident(self):
        with pytest.raises(CoincidentError):
            intersect_circle_circle(CircleRep(Point2(0, 0), 1.0), CircleRep(Point2(0, 0), 1.0))

    def test_nested_empty(self):
        with pytest.raises(EmptyIntersectionError):
            intersect_circle_circle(CircleRep(Point2(0, 0), 5.0), CircleRep(Point2(1, 0), 1.0))

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_lengths_past_1e154(self, scale):
        # Their squares overflow, so the roots are found in units of the largest length.
        hit = intersect_circle_circle(CircleRep(Point2(0, 0), 5 * scale),
                                      CircleRep(Point2(6 * scale, 0), 5 * scale))
        roots = sorted(c / scale for p in hit.points for c in p)
        assert roots == pytest.approx([-4.0, 3.0, 3.0, 4.0], rel=1e-15)
        hit = intersect_circle_circle(CircleRep(Point2(0, 0), scale),
                                      CircleRep(Point2(2 * scale, 0), scale))
        assert hit.tangent and hit.points == (Point2(scale, 0.0),)

    def test_symmetry(self):
        a = CircleRep(Point2(0, 0), 5.0)
        b = CircleRep(Point2(6, 0), 5.0)
        first = {(p.x, p.y) for p in intersect_circle_circle(a, b).points}
        second = {(p.x, p.y) for p in intersect_circle_circle(b, a).points}
        assert first == second


class TestLineConstruction:
    def test_through_points_horizontal(self):
        l = line_through_points(Point2(0, 0), Point2(1, 0))
        assert l.theta == pytest.approx(math.pi / 2)
        assert l.c == pytest.approx(0.0)

    def test_through_points_vertical(self):
        l = line_through_points(Point2(0, 0), Point2(0, 1))
        assert l.theta == pytest.approx(0.0)
        assert l.c == pytest.approx(0.0)

    def test_coincident_points(self):
        with pytest.raises(CoincidentPointsError):
            line_through_points(Point2(1, 1), Point2(1, 1))

    def test_right_angle_branches_coincide(self):
        a = line_through_point_angle(Point2(0, 0), X_AXIS, math.pi / 2, branch=0)
        b = line_through_point_angle(Point2(0, 0), X_AXIS, math.pi / 2, branch=1)
        assert lines_close(a, b)
        assert lines_close(a, Y_AXIS)

    def test_diagonals(self):
        a = line_through_point_angle(Point2(0, 0), X_AXIS, math.pi / 4, branch=0)
        b = line_through_point_angle(Point2(0, 0), X_AXIS, math.pi / 4, branch=1)
        assert not lines_close(a, b)
        for l in (a, b):
            assert unsigned_line_angle(l, X_AXIS) == pytest.approx(math.pi / 4)

    def test_zero_angle_rejected(self):
        with pytest.raises(BadValueError):
            line_through_point_angle(Point2(0, 0), X_AXIS, 0.0)

    def test_unknown_branch_rejected(self):
        with pytest.raises(BadValueError, match="branch must be 0 or 1"):
            line_through_point_angle(Point2(0, 0), X_AXIS, 1.0, branch=2)

    def test_fold_angle_of_a_negative_angle(self):
        assert fold_angle(-math.pi / 6) == pytest.approx(math.pi / 6)
        assert fold_angle(-2 * math.pi / 3) == pytest.approx(math.pi / 3)

    @given(
        coords,
        coords,
        st.floats(min_value=0.05, max_value=math.pi - 0.05, allow_nan=False),
        st.sampled_from([0, 1]),
    )
    def test_angle_measures_back_folded(self, x, y, alpha, branch):
        p = Point2(x, y)
        l = line_through_point_angle(p, X_AXIS, alpha, branch)
        assert on_line(l, p, max(abs(x), abs(y), 1.0))
        assert unsigned_line_angle(l, X_AXIS) == pytest.approx(fold_angle(alpha), abs=1e-12)


class TestMotions:
    def test_quarter_turn_alignment(self):
        motion = rigid_align(
            (Point2(0, 0), Point2(1, 0)), (Point2(5, 5), Point2(5, 6)), reflect=False
        )
        assert motion.rotation == pytest.approx(math.pi / 2)
        assert motion.translation == (pytest.approx(5.0), pytest.approx(5.0))

    def test_identity(self):
        motion = rigid_align((Point2(0, 0), Point2(1, 0)), (Point2(0, 0), Point2(1, 0)))
        assert motion.apply_point(Point2(0.25, 0.5)).close_to(Point2(0.25, 0.5), 1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            rigid_align((Point2(0, 0), Point2(1, 0)), (Point2(0, 0), Point2(3, 0)))

    def test_endpoints_map_exactly(self):
        src = (Point2(1.5, -2.0), Point2(4.0, 1.0))
        dst = (Point2(-3.0, 0.5), Point2(-3.0 + math.hypot(2.5, 3.0), 0.5))
        for reflect in (False, True):
            motion = rigid_align(src, dst, reflect)
            assert motion.apply_point(src[0]).close_to(dst[0], 1e-12)
            assert motion.apply_point(src[1]).close_to(dst[1], 1e-9)

    @given(coords, coords, coords, coords, st.booleans())
    def test_motions_preserve_distances(self, x1, y1, x2, y2, reflect):
        motion = Motion(reflect=reflect, rotation=0.7, translation=(3.0, -2.0))
        p, q = Point2(x1, y1), Point2(x2, y2)
        original = p.distance_to(q)
        assert motion.apply(p).distance_to(motion.apply(q)) == pytest.approx(
            original, abs=1e-12 * max(1.0, original)
        )

    def test_motion_preserves_incidence(self):
        motion = Motion(reflect=True, rotation=1.1, translation=(0.5, 2.5))
        p = Point2(2.0, 3.0)
        q = Point2(-1.0, 0.5)
        l = line_through_points(p, q)
        assert abs(motion.apply_line(l).signed_offset(motion.apply_point(p))) <= 1e-12

    # The alignment tests below test the oracle tests/support.py keeps for
    # matching a sample to a solution by its base pair.

    def test_point_point_alignment_has_two_motions(self):
        motions = alignment_motions(
            (Point2(0, 0), Point2(2, 0)), (Point2(1, 1), Point2(3, 1))
        )
        assert len(motions) == 2
        assert [m.reflect for m in motions] == [False, True]

    def test_point_line_alignment_generic_has_two_motions(self):
        src = (Point2(0, 1.0), X_AXIS)
        dst = (Point2(5, 1.0), X_AXIS)
        motions = alignment_motions(src, dst)
        assert len(motions) == 2
        for motion in motions:
            assert motion.apply_point(src[0]).close_to(dst[0], 1e-9)
            assert lines_close(motion.apply_line(src[1]), dst[1], 1e-9)
        assert alignment_motions(src[::-1], dst[::-1]) == motions  # the line first

    @pytest.mark.parametrize("src, dst, message", [
        ((Point2(0, 0), Point2(2, 0)), (Point2(0, 0), X_AXIS), "pair kinds differ"),
        ((X_AXIS, Y_AXIS), (X_AXIS, Y_AXIS), "pairs only"),
        ((Point2(0, 1.0), X_AXIS), (Point2(0, 2.0), X_AXIS), "point-line distances differ"),
    ], ids=["mixed kinds", "line-line", "offsets differ"])
    def test_alignment_refusals(self, src, dst, message):
        with pytest.raises(LengthMismatchError, match=message):
            alignment_motions(src, dst)

    def test_point_on_line_alignment_has_four_motions(self):
        src = (Point2(0, 0), X_AXIS)
        dst = (Point2(2, 0), X_AXIS)
        assert len(alignment_motions(src, dst)) == 4
        assert alignment_motions(src[::-1], dst[::-1]) == alignment_motions(src, dst)
