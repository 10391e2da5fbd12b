"""The Sqrt3 reference route for Problem 3, used only by the tests.

jmokit decides every packing verdict on integer anchor forms (see
jmokit.tripack).  This module keeps the route those verdicts are checked
against: exact arithmetic in Q(sqrt(3)) (Sqrt3), points with Sqrt3
coordinates, and the containment, separating-axis and hexagon-gauge
predicates on them.  The two routes are independent in geometry and share
arithmetic: Sqrt3 takes its signs, floors and floats from
jmokit.kernel._positive, _floor and _float, the functions the integer
verdicts use.

packing(L, points) builds a PackingInstance from points, through
tripack._integer_form, and points(instance) reads its forms back as Sqrt3
points.  Test files import this module by name: pytest puts tests/ on
sys.path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from jmokit.kernel import _float, _floor, _positive
from jmokit.tripack import PackingInstance, _integer_form

RationalLike = Union[int, Fraction]


class Sqrt3:
    """Element (p + q*sqrt(3))/d of the quadratic extension Q(sqrt(3)).

    p, q, d are integers with gcd(p, q, d) = 1 and d > 0, so every element
    has one form and +, -, * and comparisons are exact; sqrt(3) never
    becomes a float inside a geometric verdict.  Signs come from _positive,
    floors from _floor; a = p/d and b = q/d read as Fractions.  Operands
    must be int, Fraction or Sqrt3.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        if not (isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction))):
            raise TypeError(f"Sqrt3 parts must be int or Fraction, got {a!r}, {b!r}")
        self.d = math.lcm(a.denominator, b.denominator)  # gives gcd(p, q, d) = 1
        self.p = a.numerator * (self.d // a.denominator)
        self.q = b.numerator * (self.d // b.denominator)

    @staticmethod
    def of(value: "Sqrt3 | RationalLike") -> "Sqrt3":
        return value if isinstance(value, Sqrt3) else Sqrt3(value)

    a = property(lambda self: Fraction(self.p, self.d))
    b = property(lambda self: Fraction(self.q, self.d))

    # -- arithmetic ----------------------------------------------------

    def _minus(self, other) -> tuple[int, int]:
        """(u, v) with self - other = (u + v*sqrt(3)) / (self.d * other.d)."""
        o = Sqrt3.of(other)
        return self.p * o.d - o.p * self.d, self.q * o.d - o.q * self.d

    def __add__(self, other):
        o = Sqrt3.of(other)
        return _reduced(self.p * o.d + o.p * self.d, self.q * o.d + o.q * self.d, self.d * o.d)

    __radd__ = __add__

    def __sub__(self, other):
        return _reduced(*self._minus(other), self.d * Sqrt3.of(other).d)

    def __rsub__(self, other):
        return Sqrt3.of(other) - self

    def __mul__(self, other):
        o = Sqrt3.of(other)
        return _reduced(self.p * o.p + 3 * self.q * o.q, self.p * o.q + self.q * o.p, self.d * o.d)

    __rmul__ = __mul__

    def __neg__(self):
        return _reduced(-self.p, -self.q, self.d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- ordering ------------------------------------------------------

    def sign(self) -> int:
        return _positive(self.p, self.q) - _positive(-self.p, -self.q)

    def __eq__(self, other):
        if isinstance(other, (Sqrt3, int, Fraction)):
            return self._minus(other) == (0, 0)
        return NotImplemented

    def __gt__(self, other):
        return _positive(*self._minus(other))

    def __lt__(self, other):
        return _positive(*Sqrt3.of(other)._minus(self))

    def __ge__(self, other):
        return not self < other

    def __le__(self, other):
        return not self > other

    def __hash__(self):
        # a rational element must hash like the Fraction it equals
        return hash(self.a) if self.q == 0 else hash((self.p, self.q, self.d))

    # -- conversion ----------------------------------------------------

    def __float__(self) -> float:
        return _float(self.p, self.q, self.d)

    def floor(self) -> int:
        return _floor(self.p, self.q, self.d)

    def __repr__(self):
        return f"Sqrt3({self.a})" if self.q == 0 else f"Sqrt3({self.a}, {self.b})"


def _reduced(p: int, q: int, d: int) -> Sqrt3:
    """(p + q*sqrt(3))/d in lowest terms, for d > 0."""
    g = math.gcd(p, q, d)
    x = object.__new__(Sqrt3)
    x.p, x.q, x.d = p // g, q // g, d // g
    return x


SQRT3 = Sqrt3(0, 1)

Point = tuple[Sqrt3, Sqrt3]

HALF = Fraction(1, 2)
HALF_SQRT3 = Sqrt3(0, HALF)           # sqrt(3)/2
INV_SQRT3 = Sqrt3(0, Fraction(1, 3))  # 1/sqrt(3) = sqrt(3)/3


# -- packings from points and back ------------------------------------------


def packing(side_len, anchors) -> PackingInstance:
    """PackingInstance of side L whose anchors are the given points.

    Points are pairs of rationals or Sqrt3s; each becomes its integer form
    through tripack._integer_form.
    """
    side = Fraction(side_len)
    return PackingInstance(
        side, [_integer_form((x.a, x.b, y.a, y.b), side) for x, y in map(as_point, anchors)])


def points(instance: PackingInstance) -> list[Point]:
    """The anchors of a PackingInstance as Sqrt3 points, built anew on each call."""
    return [(_reduced(x, x3, d), _reduced(y, y3, d)) for d, x, x3, y, y3 in instance.forms]


def as_point(xy) -> Point:
    x, y = xy
    return (Sqrt3.of(x), Sqrt3.of(y))


def triangle_vertices(anchor: Point) -> tuple[Point, Point, Point]:
    """Vertices of the inverted unit triangle with the given anchor."""
    x, y = anchor
    return ((x - HALF, y), (x + HALF, y), (x, y - HALF_SQRT3))


# -- containment in Delta ----------------------------------------------


def point_inside_delta(p: Point, side_len: Fraction, margin: Fraction = Fraction(0)) -> bool:
    """Closed containment in Delta, optionally inset by a rational margin.

    The three facet distances of Delta are y, (sqrt(3)x - y)/2 and
    (sqrt(3)(L-x) - y)/2, so insetting by m keeps the test in Q(sqrt(3)).
    """
    x, y = p
    two_m = 2 * margin
    if y < margin:
        return False
    if Sqrt3(0, 1) * x - y < two_m:
        return False
    if Sqrt3(0, 1) * (side_len - x) - y < two_m:
        return False
    return True


def triangle_inside_delta(anchor: Point, side_len: Fraction, margin: Fraction = Fraction(0)) -> bool:
    """A triangle is inside Delta iff all three of its vertices are."""
    return all(point_inside_delta(v, side_len, margin) for v in triangle_vertices(anchor))


# -- overlap predicates (two independent routes) ------------------------


def _dot(p: Point, q: Point) -> Sqrt3:
    return p[0] * q[0] + p[1] * q[1]


def _edge_normals(vertices: tuple[Point, ...]) -> list[Point]:
    normals = []
    for i in range(len(vertices)):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % len(vertices)]
        normals.append((ay - by, bx - ax))
    return normals


def _project(vertices: tuple[Point, ...], axis: Point) -> tuple[Sqrt3, Sqrt3]:
    values = [_dot(v, axis) for v in vertices]
    return min(values), max(values)


def triangles_overlap_exact(a1, a2) -> bool:
    """True iff the open interiors of T(a1) and T(a2) intersect.

    Separating-axis test over the triangles' edge normals (the two triangles
    are translates, so three axes cover both).  Shared boundary alone does
    not count as overlap: projections must overlap strictly on every axis.
    """
    t1 = triangle_vertices(as_point(a1))
    t2 = triangle_vertices(as_point(a2))
    for axis in _edge_normals(t1):
        lo1, hi1 = _project(t1, axis)
        lo2, hi2 = _project(t2, axis)
        if not (lo1 < hi2 and lo2 < hi1):
            return False
    return True


def hex_gauge(p) -> Sqrt3:
    """Gauge whose unit ball is the side-1 hexagon, evaluated exactly.

    The hexagon's three facet pairs give the functionals |x + y/sqrt(3)|,
    |x - y/sqrt(3)| and |2y/sqrt(3)|; the gauge is their maximum.  It is
    symmetric and positively homogeneous.
    """
    x, y = as_point(p)
    t = y * INV_SQRT3
    return max(abs(x + t), abs(x - t), abs(t + t))


def hex_gauge_overlap(a1, a2) -> bool:
    """True iff the anchor difference has gauge < 1 (boundary contact allowed)."""
    x1, y1 = as_point(a1)
    x2, y2 = as_point(a2)
    return hex_gauge((x2 - x1, y2 - y1)) < 1


# -- hexagons ------------------------------------------------------------


def hexagon_vertices(center: Point, radius: Fraction) -> tuple[Point, ...]:
    """Regular hexagon with vertices at angles k*60 degrees from the center.

    radius is the circumradius, equal to the side length.
    """
    cx, cy = center
    rh = radius * HALF
    rh3 = Sqrt3(0, rh)  # radius*sqrt(3)/2
    return (
        (cx + radius, cy),
        (cx + rh, cy + rh3),
        (cx - rh, cy + rh3),
        (cx - radius, cy),
        (cx - rh, cy - rh3),
        (cx + rh, cy - rh3),
    )


def hexagon_inside_delta(instance: PackingInstance, anchor) -> bool:
    """Whether the side-1/2 hexagon centered at the anchor lies inside Delta.

    Requires the anchor's triangle to be inside Delta (that is the lemma's
    hypothesis); raises ValueError otherwise.
    """
    a = as_point(anchor)
    if not triangle_inside_delta(a, instance.side_len):
        raise ValueError("anchor's triangle is not inside Delta")
    return all(point_inside_delta(v, instance.side_len) for v in hexagon_vertices(a, HALF))
