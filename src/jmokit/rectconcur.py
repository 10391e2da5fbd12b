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
circumcircles.  The certificate measures how well a configuration
satisfies these conclusions (distances to the other two lines, circle
membership residuals), relative to the triangle's diameter so that it is
scale invariant.  This module is deliberately numeric: the constraint
involves arctangents, so verdicts are certified by residual thresholds
rather than exact arithmetic.

A configuration is one flat tuple of 24 floats: the vertices A, B, C as
x, y pairs, the side lengths |BC|, |CA|, |AB|, the heights h_a, h_b, h_c,
and the corners c1, b2, a1, c2, b1, a2 as x, y pairs.  Three private
kernels do all the arithmetic, in straight-line float code: _draw samples
a configuration, _erect puts up its rectangles and _certify measures its
certificate.  certify_batch runs _draw and _certify row after row, and
circumcircles reads the circles off a configuration for drawing.  Each
float expression is evaluated in one fixed operand order, so a seed gives
the same configurations, residuals and random state bit for bit as a route
that draws with rng.uniform and computes on point tuples.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

Pt = tuple[float, float]

DEFAULT_REL_TOL = 1e-9
# rect batch refuses larger counts.  Without --json the rows stream, so a
# batch at the bound takes about 1.0 s and peaks at 14 MB; with --json every
# row stays in memory, about 1 KB with its text, until the envelope is
# printed, so it takes about 1.8 s and peaks at 109 MB (fresh process,
# ru_maxrss, 2-vCPU Xeon VM, Python 3.11).
MAX_BATCH_COUNT = 10**5

# _draw draws each target angle as rng.uniform(lo, hi) would:
# lo + (hi - lo) * rng.random(), the same value from the same state
_ANGLE_LO = 0.35 * math.pi
_ANGLE_SPAN = 0.45 * math.pi - _ANGLE_LO


def _erect(ax, ay, bx, by, cx, cy, bc, ca, ab, h_a, h_b, h_c) -> tuple:
    """The flat configuration of a triangle (its vertices and the side
    lengths |BC|, |CA|, |AB|) and its three heights: those twelve values,
    then the corners c1, b2, a1, c2, b1, a2 as x, y pairs.

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


def _draw(rng: random.Random, perturb: float) -> tuple:
    """A random flat configuration (see _erect), erected once with the
    solved third height times perturb; at 1.0 the constraint holds.

    Each coordinate of the triangle is rng.random(), which is what
    rng.uniform(0, 1) returns from the same state.  The two sampled
    arctangent values stay in (0.35*pi, 0.45*pi), so their residual lies in
    (0.1*pi, 0.3*pi) and the solved third height is positive and well
    scaled.  Every drawn triangle has each squared side at least 1e-3 and
    below 0.98 times the sum of the other two, so it is strictly acute,
    and a strictly acute triangle has no zero side and is not flat.
    """
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
    # |BC|, |CA|, |AB|: hypot ignores the signs of the differences
    bc, ca, ab = math.hypot(bcx, bcy), math.hypot(cax, cay), math.hypot(abx, aby)
    h_a = bc / math.tan(_ANGLE_LO + _ANGLE_SPAN * rand())
    h_b = ca / math.tan(_ANGLE_LO + _ANGLE_SPAN * rand())
    # the third height that completes the angle sum to pi, times perturb
    h_c = ab / math.tan(math.pi - math.atan2(bc, h_a) - math.atan2(ca, h_b)) * perturb
    if h_c <= 0:
        raise ValueError("heights must be positive")
    return _erect(ax, ay, bx, by, cx, cy, bc, ca, ab, h_a, h_b, h_c)


def certify_batch(rng: random.Random, count: int, perturb: float = 1.0) -> Iterator[tuple]:
    """(line_defect, r_bc, r_ca, r_ab, scale) of count configurations drawn
    in turn from rng by _draw(rng, perturb), one at a time.

    A row whose third height times perturb rounds to 0 raises ValueError
    when it is drawn.
    """
    draw, certify = _draw, _certify
    return (certify(*draw(rng, perturb))[0] for _ in range(count))


def circumcircles(flat: tuple) -> tuple[tuple[Pt, float], ...]:
    """Centers and radii of the rectangles on BC, CA, AB (in that order) of
    a flat configuration.

    A rectangle's circumcircle is centered at the diagonal midpoint with
    radius half the diagonal; it passes through the base side's endpoints
    and both outer corners.
    """
    ax, ay, bx, by, cx, cy = flat[:6]
    c1x, c1y, _, _, a1x, a1y, _, _, b1x, b1y = flat[12:22]
    return (
        (((bx + c1x) / 2, (by + c1y) / 2), math.hypot(bx - c1x, by - c1y) / 2),
        (((cx + a1x) / 2, (cy + a1y) / 2), math.hypot(cx - a1x, cy - a1y) / 2),
        (((ax + b1x) / 2, (ay + b1y) / 2), math.hypot(ax - b1x, ay - b1y) / 2),
    )
