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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

Pt = tuple[float, float]

DEFAULT_REL_TOL = 1e-9
# rect batch refuses larger counts: each certified row costs about 40-70 us
# and 2 KB until the envelope is printed, so a batch at the bound takes
# seconds and about 200 MB.
MAX_BATCH_COUNT = 10**5


class InfeasibleHeights(ValueError):
    """No positive third height can complete the angle constraint."""


def _sub(p: Pt, q: Pt) -> Pt:
    return (p[0] - q[0], p[1] - q[1])


def _add(p: Pt, q: Pt) -> Pt:
    return (p[0] + q[0], p[1] + q[1])


def _scale(p: Pt, s: float) -> Pt:
    return (p[0] * s, p[1] * s)


def _dot(p: Pt, q: Pt) -> float:
    return p[0] * q[0] + p[1] * q[1]


def _cross(p: Pt, q: Pt) -> float:
    return p[0] * q[1] - p[1] * q[0]


def _dist(p: Pt, q: Pt) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _midpoint(p: Pt, q: Pt) -> Pt:
    return ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)


@dataclass(frozen=True)
class TriangleABC:
    a_pt: Pt
    b_pt: Pt
    c_pt: Pt

    def __post_init__(self):
        sa = _dot(_sub(self.c_pt, self.b_pt), _sub(self.c_pt, self.b_pt))  # |BC|^2
        sb = _dot(_sub(self.a_pt, self.c_pt), _sub(self.a_pt, self.c_pt))  # |CA|^2
        sc = _dot(_sub(self.b_pt, self.a_pt), _sub(self.b_pt, self.a_pt))  # |AB|^2
        if min(sa, sb, sc) == 0:
            raise ValueError("degenerate triangle: coincident vertices")
        if not (sa < sb + sc and sb < sc + sa and sc < sa + sb):
            raise ValueError("triangle must be strictly acute")
        if _cross(_sub(self.b_pt, self.a_pt), _sub(self.c_pt, self.a_pt)) == 0:
            raise ValueError("degenerate triangle: collinear vertices")

    def side_bc(self) -> float:
        return _dist(self.b_pt, self.c_pt)

    def side_ca(self) -> float:
        return _dist(self.c_pt, self.a_pt)

    def side_ab(self) -> float:
        return _dist(self.a_pt, self.b_pt)

    @property
    def diameter(self) -> float:
        return max(self.side_bc(), self.side_ca(), self.side_ab())


@dataclass(frozen=True)
class RectangleConfig:
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
        return self.triangle.diameter

    def angle_sum_defect(self) -> float:
        """Absolute deviation of the three arctangents from pi."""
        t = self.triangle
        total = (
            math.atan2(t.side_bc(), self.h_a)
            + math.atan2(t.side_ca(), self.h_b)
            + math.atan2(t.side_ab(), self.h_c)
        )
        return abs(total - math.pi)


@dataclass(frozen=True)
class ConcurrencyReport:
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
    alpha = math.atan2(triangle.side_bc(), h_a)
    beta = math.atan2(triangle.side_ca(), h_b)
    residual = math.pi - alpha - beta
    if residual >= math.pi / 2:
        raise InfeasibleHeights(
            f"arctan sum {alpha + beta:.6f} <= pi/2: no positive third height"
        )
    return triangle.side_ab() / math.tan(residual)


def _outward_normal(base_from: Pt, base_to: Pt, opposite: Pt) -> Pt:
    """Unit normal to the base segment pointing away from the opposite vertex."""
    d = _sub(base_to, base_from)
    length = math.hypot(*d)
    n = (-d[1] / length, d[0] / length)
    if _dot(n, _sub(opposite, base_from)) > 0:
        n = (-n[0], -n[1])
    return n


def build_config_with_heights(
    triangle: TriangleABC, h_a: float, h_b: float, h_c: float
) -> RectangleConfig:
    """Erect all three rectangles outward with explicitly given heights.

    Does not solve or verify the angle constraint; used for perturbation
    studies.  Outward orientation is decided by a sign test against the
    third vertex, never by assumptions on input winding.
    """
    if min(h_a, h_b, h_c) <= 0:
        raise ValueError("heights must be positive")
    a, b, c = triangle.a_pt, triangle.b_pt, triangle.c_pt
    n_bc = _outward_normal(b, c, a)
    n_ca = _outward_normal(c, a, b)
    n_ab = _outward_normal(a, b, c)
    return RectangleConfig(
        triangle=triangle,
        h_a=h_a,
        h_b=h_b,
        h_c=h_c,
        c1=_add(c, _scale(n_bc, h_a)),
        b2=_add(b, _scale(n_bc, h_a)),
        a1=_add(a, _scale(n_ca, h_b)),
        c2=_add(c, _scale(n_ca, h_b)),
        b1=_add(b, _scale(n_ab, h_c)),
        a2=_add(a, _scale(n_ab, h_c)),
    )


def build_config(triangle: TriangleABC, h_a: float, h_b: float) -> RectangleConfig:
    """Configuration with the third height solved from the angle constraint."""
    h_c = solve_third_height(triangle, h_a, h_b)
    return build_config_with_heights(triangle, h_a, h_b, h_c)


def foot_of_perpendicular(point: Pt, line_a: Pt, line_b: Pt) -> Pt:
    d = _sub(line_b, line_a)
    t = _dot(_sub(point, line_a), d) / _dot(d, d)
    return _add(line_a, _scale(d, t))


def distance_to_line(point: Pt, line_a: Pt, line_b: Pt) -> float:
    d = _sub(line_b, line_a)
    return abs(_cross(d, _sub(point, line_a))) / math.hypot(*d)


def circumcircles(config: RectangleConfig) -> tuple[tuple[Pt, float], ...]:
    """Centers and radii for the rectangles on BC, CA, AB (in that order).

    A rectangle's circumcircle is centered at the diagonal midpoint with
    radius half the diagonal; it passes through the base side's endpoints
    and both outer corners.
    """
    t = config.triangle
    return (
        (_midpoint(t.b_pt, config.c1), _dist(t.b_pt, config.c1) / 2),
        (_midpoint(t.c_pt, config.a1), _dist(t.c_pt, config.a1) / 2),
        (_midpoint(t.a_pt, config.b1), _dist(t.a_pt, config.b1) / 2),
    )


def certify_concurrency(config: RectangleConfig) -> ConcurrencyReport:
    """Residual certificate that the three cross lines meet on all circles.

    P is the foot of the altitude from A to line B1C2 (so it lies on that
    line by construction); the report measures its distance to the other
    two lines and its membership residual on each circumcircle.
    """
    t = config.triangle
    p = foot_of_perpendicular(t.a_pt, config.b1, config.c2)
    defect = max(
        distance_to_line(p, config.c1, config.a2),
        distance_to_line(p, config.a1, config.b2),
    )
    circle_res = tuple(
        abs(_dist(p, center) - radius) for center, radius in circumcircles(config)
    )
    return ConcurrencyReport(
        p_point=p,
        line_defect=defect,
        circle_residuals=circle_res,
        scale=config.scale,
    )


def angle_at(vertex: Pt, toward_1: Pt, toward_2: Pt) -> float:
    """Unsigned angle at a vertex between two rays, in [0, pi]."""
    u = _sub(toward_1, vertex)
    v = _sub(toward_2, vertex)
    return math.atan2(abs(_cross(u, v)), _dot(u, v))


def altitude_feet(config: RectangleConfig) -> tuple[Pt, Pt, Pt]:
    """Feet of the altitudes from A, B, C to their opposite cross lines."""
    t = config.triangle
    return (
        foot_of_perpendicular(t.a_pt, config.b1, config.c2),
        foot_of_perpendicular(t.b_pt, config.c1, config.a2),
        foot_of_perpendicular(t.c_pt, config.a1, config.b2),
    )


def random_acute_triangle(rng: random.Random) -> TriangleABC:
    """Uniform-ish strictly acute triangle with a modest flatness margin."""
    while True:
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(3)]
        a, b, c = pts
        sa = _dot(_sub(c, b), _sub(c, b))
        sb = _dot(_sub(a, c), _sub(a, c))
        sc = _dot(_sub(b, a), _sub(b, a))
        if min(sa, sb, sc) < 1e-3:
            continue
        # strictness margin keeps the acuteness robust under later rounding
        if sa < 0.98 * (sb + sc) and sb < 0.98 * (sc + sa) and sc < 0.98 * (sa + sb):
            return TriangleABC(a, b, c)


def random_config(rng: random.Random) -> RectangleConfig:
    """Random certified-solvable configuration: sample two target angles.

    The two sampled arctangent values stay in (0.35*pi, 0.45*pi), so their
    residual lies in (0.1*pi, 0.3*pi) and the solved third height is always
    positive and well scaled.
    """
    triangle = random_acute_triangle(rng)
    alpha = rng.uniform(0.35 * math.pi, 0.45 * math.pi)
    beta = rng.uniform(0.35 * math.pi, 0.45 * math.pi)
    h_a = triangle.side_bc() / math.tan(alpha)
    h_b = triangle.side_ca() / math.tan(beta)
    return build_config(triangle, h_a, h_b)
