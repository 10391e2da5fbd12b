"""Numeric concurrency certificates for rectangles erected on an acute triangle.

On each side of an acute triangle ABC a rectangle is erected outward:
BCC1B2 on BC with height h_a, CAA1C2 on CA with height h_b, ABB1A2 on AB
with height h_c.  The angle subtended by a side from its rectangle's far
corner is arctan(side / height), and the configuration constraint is

    arctan(|BC|/h_a) + arctan(|CA|/h_b) + arctan(|AB|/h_c) = pi.

Given h_a and h_b the third height is solved in closed form, which hits the
measure-zero constraint surface exactly instead of sampling and filtering.
Under the constraint the three lines B1C2, C1A2, A1B2 meet in one point P,
the foot of the altitude from A to B1C2, and P lies on all three rectangle
circumcircles.  certify_concurrency measures how well a configuration
satisfies these conclusions (distances to the other two lines, circle
membership residuals), relative to the triangle's diameter so the
certificate is scale invariant.  This module is deliberately numeric: the
constraint involves arctangents, so verdicts are certified by residual
thresholds rather than exact arithmetic.

The arithmetic is straight-line float code on unpacked coordinates, in
three private kernels over one flat tuple of floats (the vertices, the side
lengths, the heights and the six corners): _draw samples a configuration,
_erect puts up the rectangles and _certify measures the certificate.
random_config, build_config_with_heights and certify_concurrency wrap them
in the objects: TriangleABC, a __slots__ class that checks its vertices and
computes its three side lengths once, in __init__, and the NamedTuples
RectangleConfig and ConcurrencyReport.  certify_batch runs _draw and
_certify alone, row after row, and builds none of them.  Each float
expression is evaluated in one fixed operand order, so a seed gives the same
configurations, residuals and random state bit for bit on either route.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, NamedTuple

Pt = tuple[float, float]

DEFAULT_REL_TOL = 1e-9
# rect batch refuses larger counts: each row costs 7-9 us to draw, certify
# and record, 5-7 us more to print, and about 1 KB with its text until the
# envelope is printed, so a batch at the bound takes 1.4-1.5 s and 112 MB
# (2-vCPU Xeon VM, Python 3.11).
MAX_BATCH_COUNT = 10**5

# random_config draws each target angle as rng.uniform(lo, hi) would:
# lo + (hi - lo) * rng.random(), the same value from the same state
_ANGLE_LO = 0.35 * math.pi
_ANGLE_SPAN = 0.45 * math.pi - _ANGLE_LO


class InfeasibleHeights(ValueError):
    """No positive third height can complete the angle constraint."""


class TriangleABC:
    """Strictly acute triangle ABC with its side lengths, checked when built."""

    __slots__ = ("a_pt", "b_pt", "c_pt", "_sides")

    def __init__(self, a_pt: Pt, b_pt: Pt, c_pt: Pt):
        (ax, ay), (bx, by), (cx, cy) = a_pt, b_pt, c_pt
        sa = (cx - bx) * (cx - bx) + (cy - by) * (cy - by)  # |BC|^2
        sb = (ax - cx) * (ax - cx) + (ay - cy) * (ay - cy)  # |CA|^2
        sc = (bx - ax) * (bx - ax) + (by - ay) * (by - ay)  # |AB|^2
        if min(sa, sb, sc) == 0:
            raise ValueError("degenerate triangle: coincident vertices")
        if not (sa < sb + sc and sb < sc + sa and sc < sa + sb):
            raise ValueError("triangle must be strictly acute")
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) == 0:
            raise ValueError("degenerate triangle: collinear vertices")
        self.a_pt, self.b_pt, self.c_pt = a_pt, b_pt, c_pt
        self._sides = (  # |BC|, |CA|, |AB|
            math.hypot(bx - cx, by - cy),
            math.hypot(cx - ax, cy - ay),
            math.hypot(ax - bx, ay - by),
        )


class RectangleConfig(NamedTuple):
    """The triangle with its three outward rectangles fully materialized."""

    triangle: TriangleABC
    h_a: float
    h_b: float
    h_c: float
    c1: Pt  # BCC1B2, on BC's outward side
    b2: Pt
    a1: Pt  # CAA1C2
    c2: Pt
    b1: Pt  # ABB1A2
    a2: Pt

    @property
    def scale(self) -> float:
        """The triangle's diameter, its longest side."""
        return max(self.triangle._sides)

    def angle_sum_defect(self) -> float:
        """Absolute deviation of the three arctangents from pi."""
        bc, ca, ab = self.triangle._sides
        total = math.atan2(bc, self.h_a) + math.atan2(ca, self.h_b) + math.atan2(ab, self.h_c)
        return abs(total - math.pi)


class ConcurrencyReport(NamedTuple):
    p_point: Pt
    line_defect: float              # max distance from P to lines C1A2 and A1B2
    circle_residuals: tuple[float, float, float]
    scale: float

    def passes(self, rel_tol: float = DEFAULT_REL_TOL) -> bool:
        bound = rel_tol * self.scale
        return self.line_defect <= bound and max(self.circle_residuals) <= bound


def solve_third_height(triangle: TriangleABC, h_a: float, h_b: float) -> float:
    """The unique h_c completing the angle constraint, if one exists.

    The two given angles must leave a residual strictly inside (0, pi/2);
    otherwise no positive height works and InfeasibleHeights is raised.
    """
    if h_a <= 0 or h_b <= 0:
        raise ValueError("heights must be positive")
    bc, ca, ab = triangle._sides
    alpha = math.atan2(bc, h_a)
    beta = math.atan2(ca, h_b)
    residual = math.pi - alpha - beta
    if residual >= math.pi / 2:
        raise InfeasibleHeights(
            f"arctan sum {alpha + beta:.6f} <= pi/2: no positive third height"
        )
    return ab / math.tan(residual)


def _erect(ax, ay, bx, by, cx, cy, bc, ca, ab, h_a, h_b, h_c) -> tuple:
    """The flat configuration of a triangle (its vertices and the side
    lengths |BC|, |CA|, |AB|) and its three heights: those twelve values,
    then the corners c1, b2, a1, c2, b1, a2 as x, y pairs, in the order of
    RectangleConfig's fields.

    Outward orientation is decided by a sign test against the third vertex,
    never by assumptions on input winding.
    """
    # each side d = to - from has unit normal (-d_y, d_x) / |d|, negated when
    # it points toward the third vertex
    ux, uy = -(cy - by) / bc, (cx - bx) / bc            # BC, away from A
    if ux * (ax - bx) + uy * (ay - by) > 0:
        ux, uy = -ux, -uy
    vx, vy = -(ay - cy) / ca, (ax - cx) / ca            # CA, away from B
    if vx * (bx - cx) + vy * (by - cy) > 0:
        vx, vy = -vx, -vy
    wx, wy = -(by - ay) / ab, (bx - ax) / ab            # AB, away from C
    if wx * (cx - ax) + wy * (cy - ay) > 0:
        wx, wy = -wx, -wy
    return (
        ax, ay, bx, by, cx, cy, bc, ca, ab, h_a, h_b, h_c,
        cx + ux * h_a, cy + uy * h_a,  # c1
        bx + ux * h_a, by + uy * h_a,  # b2
        ax + vx * h_b, ay + vy * h_b,  # a1
        cx + vx * h_b, cy + vy * h_b,  # c2
        bx + wx * h_c, by + wy * h_c,  # b1
        ax + wx * h_c, ay + wy * h_c,  # a2
    )


def _config(triangle: TriangleABC, flat: tuple) -> RectangleConfig:
    return RectangleConfig(triangle, *flat[9:12], *zip(flat[12::2], flat[13::2]))


def build_config_with_heights(
    triangle: TriangleABC, h_a: float, h_b: float, h_c: float
) -> RectangleConfig:
    """Erect all three rectangles outward with explicitly given heights.

    Does not solve or verify the angle constraint; used for perturbation
    studies.
    """
    if min(h_a, h_b, h_c) <= 0:
        raise ValueError("heights must be positive")
    (ax, ay), (bx, by), (cx, cy) = triangle.a_pt, triangle.b_pt, triangle.c_pt
    return _config(triangle, _erect(ax, ay, bx, by, cx, cy, *triangle._sides, h_a, h_b, h_c))


def build_config(triangle: TriangleABC, h_a: float, h_b: float) -> RectangleConfig:
    """Configuration with the third height solved from the angle constraint."""
    h_c = solve_third_height(triangle, h_a, h_b)
    return build_config_with_heights(triangle, h_a, h_b, h_c)


def foot_of_perpendicular(point: Pt, line_a: Pt, line_b: Pt) -> Pt:
    (px, py), (ax, ay), (bx, by) = point, line_a, line_b
    dx, dy = bx - ax, by - ay
    t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
    return (ax + dx * t, ay + dy * t)


def circumcircles(config: RectangleConfig) -> tuple[tuple[Pt, float], ...]:
    """Centers and radii for the rectangles on BC, CA, AB (in that order).

    A rectangle's circumcircle is centered at the diagonal midpoint with
    radius half the diagonal; it passes through the base side's endpoints
    and both outer corners.
    """
    t = config.triangle
    (ax, ay), (bx, by), (cx, cy) = t.a_pt, t.b_pt, t.c_pt
    (c1x, c1y), (a1x, a1y), (b1x, b1y) = config.c1, config.a1, config.b1
    return (
        (((bx + c1x) / 2, (by + c1y) / 2), math.hypot(bx - c1x, by - c1y) / 2),
        (((cx + a1x) / 2, (cy + a1y) / 2), math.hypot(cx - a1x, cy - a1y) / 2),
        (((ax + b1x) / 2, (ay + b1y) / 2), math.hypot(ax - b1x, ay - b1y) / 2),
    )


def _certify(ax, ay, bx, by, cx, cy, bc, ca, ab, h_a, h_b, h_c,
             c1x, c1y, b2x, b2y, a1x, a1y, c2x, c2y, b1x, b1y, a2x, a2y) -> tuple:
    """((line_defect, r_bc, r_ca, r_ab, scale), P) of a flat configuration;
    the heights are not read."""
    # P, the foot of the altitude from A to line B1C2
    dx, dy = c2x - b1x, c2y - b1y
    t = ((ax - b1x) * dx + (ay - b1y) * dy) / (dx * dx + dy * dy)
    px, py = b1x + dx * t, b1y + dy * t
    # its distances to lines C1A2 and A1B2
    dx, dy = a2x - c1x, a2y - c1y
    to_c1a2 = abs(dx * (py - c1y) - dy * (px - c1x)) / math.hypot(dx, dy)
    dx, dy = b2x - a1x, b2y - a1y
    to_a1b2 = abs(dx * (py - a1y) - dy * (px - a1x)) / math.hypot(dx, dy)
    # and its distances to the circumcircles, as in circumcircles()
    return (
        max(to_c1a2, to_a1b2),
        abs(math.hypot(px - (bx + c1x) / 2, py - (by + c1y) / 2)
            - math.hypot(bx - c1x, by - c1y) / 2),
        abs(math.hypot(px - (cx + a1x) / 2, py - (cy + a1y) / 2)
            - math.hypot(cx - a1x, cy - a1y) / 2),
        abs(math.hypot(px - (ax + b1x) / 2, py - (ay + b1y) / 2)
            - math.hypot(ax - b1x, ay - b1y) / 2),
        max(bc, ca, ab),
    ), (px, py)


def certify_concurrency(config: RectangleConfig) -> ConcurrencyReport:
    """Residual certificate that the three cross lines meet on all circles.

    P is the foot of the altitude from A to line B1C2 (so it lies on that
    line by construction); the report measures its distance to the other
    two lines and its membership residual on each circumcircle.
    """
    t = config.triangle
    (defect, r_bc, r_ca, r_ab, scale), p = _certify(
        *t.a_pt, *t.b_pt, *t.c_pt, *t._sides, config.h_a, config.h_b, config.h_c,
        *config.c1, *config.b2, *config.a1, *config.c2, *config.b1, *config.a2)
    return ConcurrencyReport(p, defect, (r_bc, r_ca, r_ab), scale)


def angle_at(vertex: Pt, toward_1: Pt, toward_2: Pt) -> float:
    """Unsigned angle at a vertex between two rays, in [0, pi]."""
    (x, y), (x1, y1), (x2, y2) = vertex, toward_1, toward_2
    ux, uy, vx, vy = x1 - x, y1 - y, x2 - x, y2 - y
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)


def altitude_feet(config: RectangleConfig) -> tuple[Pt, Pt, Pt]:
    """Feet of the altitudes from A, B, C to their opposite cross lines."""
    t = config.triangle
    return (
        foot_of_perpendicular(t.a_pt, config.b1, config.c2),
        foot_of_perpendicular(t.b_pt, config.c1, config.a2),
        foot_of_perpendicular(t.c_pt, config.a1, config.b2),
    )


def _draw(rng: random.Random, perturb: float) -> tuple:
    """The flat configuration (see _erect) that random_config draws."""
    rand = rng.random
    while True:  # a strictly acute triangle with a modest flatness margin
        ax, ay, bx, by, cx, cy = rand(), rand(), rand(), rand(), rand(), rand()
        bcx, bcy, cax, cay, abx, aby = cx - bx, cy - by, ax - cx, ay - cy, bx - ax, by - ay
        sa, sb, sc = bcx * bcx + bcy * bcy, cax * cax + cay * cay, abx * abx + aby * aby
        # strictness margin keeps the acuteness robust under later rounding;
        # most draws fail it, so it is tested before the side lengths
        if (sa < 0.98 * (sb + sc) and sb < 0.98 * (sc + sa) and sc < 0.98 * (sa + sb)
                and sa >= 1e-3 and sb >= 1e-3 and sc >= 1e-3):
            break
    # the side lengths as TriangleABC has them: hypot ignores the signs
    bc, ca, ab = math.hypot(bcx, bcy), math.hypot(cax, cay), math.hypot(abx, aby)
    h_a = bc / math.tan(_ANGLE_LO + _ANGLE_SPAN * rand())
    h_b = ca / math.tan(_ANGLE_LO + _ANGLE_SPAN * rand())
    # solve_third_height, whose residual the two draws keep in (0.1*pi, 0.3*pi)
    h_c = ab / math.tan(math.pi - math.atan2(bc, h_a) - math.atan2(ca, h_b)) * perturb
    if h_c <= 0:
        raise ValueError("heights must be positive")
    return _erect(ax, ay, bx, by, cx, cy, bc, ca, ab, h_a, h_b, h_c)


def random_config(rng: random.Random, perturb: float = 1.0) -> RectangleConfig:
    """Random certified-solvable configuration: sample two target angles.

    Each coordinate of an acute triangle is rng.random(), which is what
    rng.uniform(0, 1) returns from the same state.  The two sampled
    arctangent values stay in (0.35*pi, 0.45*pi), so their residual lies in
    (0.1*pi, 0.3*pi) and the solved third height is always positive and
    well scaled.  The rectangles are erected once, with the solved third
    height times perturb; at 1.0 the constraint holds.
    """
    flat = _draw(rng, perturb)
    return _config(TriangleABC(flat[0:2], flat[2:4], flat[4:6]), flat)


def certify_batch(rng: random.Random, count: int, perturb: float = 1.0) -> Iterator[tuple]:
    """(line_defect, r_bc, r_ca, r_ab, scale) of count configurations drawn
    in turn from rng, one at a time, building no TriangleABC,
    RectangleConfig or report.

    Row i holds the bits of certify_concurrency(random_config(rng, perturb))
    for the i-th draw, and after the last row rng is in the same state.  A
    row whose third height times perturb rounds to 0 raises ValueError when
    it is drawn.  Every drawn triangle passes TriangleABC's checks: each
    squared side is at least 1e-3 and below 0.98 times the sum of the other
    two, so the triangle is strictly acute, and a strictly acute triangle
    has no zero side and is not flat.
    """
    draw, certify = _draw, _certify
    return (certify(*draw(rng, perturb))[0] for _ in range(count))
