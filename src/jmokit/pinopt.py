"""Fewest unit moves for three pins to span a lattice triangle of given area.

Three pins start at the origin; a move shifts one pin to an adjacent lattice
point, so reaching a configuration costs the sum of the pins' L1 norms.  The
problem is parameterized by the doubled area D (lattice triangles realize
exactly the positive integers as doubled areas; the contest instance, area
2021, is D = 4042).

Lower bound: a triangle's area is at most half the area of its axis-parallel
bounding box, and n moves can grow the box's width plus height to at most n,
so D <= 2 * area_bound = (l*w) <= ((l+w)/2)^2 <= n^2/4; hence n >= ceil of
the square root of 4D.

The bound is always met, by the four-parameter family A = (-p, -q),
B = (x, 0), C = (0, y) with doubled area x*y + q*x + p*y and cost
p + q + x + y.  With n = ceil(sqrt(4D)), X = floor(n/2), Y = ceil(n/2) and
s = X*Y - D, the lower bound gives 0 <= s < Y, so (p, q, x, y) =
(1, s, X - 1, Y - s), or (0, 0, X, Y) when s = 0, is a family member of cost
n and doubled area D.  min_moves therefore reports the first family member
at the lower bound, which is certified optimal; the search for it needs only
the rows p = 0 and p = 1 of the family.
Axis reflections of the family change neither value, so enumerating the
base family covers them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .kernel import LatticePoint, isqrt_ceil_of_sqrt, shoelace_doubled

CERTIFIED_OPTIMAL = "certified_optimal"
# oracle_min_moves refuses larger radii and doubled areas; the doubled-area
# bound is the contest instance, D = 4042 (cost 128).  The scan's time grows
# with the doubled area, about as D^2 between 2000 and 4042, and hardly with
# the radius: the cost bound stops the shell walk near half the minimum
# cost, so at D = 2000 (cost 90) the scan walks the shells up to cost 45,
# 4,141 points, at any radius from 45 to 1000.  A fresh call takes about
# 0.6 s at D = 2000 and 2.4-2.6 s at D = 4042, at radius 127 or 1000, in a
# 15 MB process (2-vCPU Xeon VM, Python 3.11).
MAX_ORACLE_RADIUS = 1000
MAX_ORACLE_DOUBLED_AREA = 4042


class PinState(NamedTuple):
    a_pin: LatticePoint
    b_pin: LatticePoint
    c_pin: LatticePoint

    @property
    def move_cost(self) -> int:
        """Minimum number of moves from the all-origin start."""
        return self.a_pin.l1() + self.b_pin.l1() + self.c_pin.l1()

    @property
    def doubled_area(self) -> int:
        return shoelace_doubled(self.a_pin, self.b_pin, self.c_pin)


class SolveCertificate(NamedTuple):
    lower_bound: int
    witness: PinState
    status: str  # always CERTIFIED_OPTIMAL; the envelope and bench checks read it


def lower_bound(doubled_area: int) -> int:
    """Least n with n^2 >= 4*D: no cheaper configuration can reach area D/2."""
    if doubled_area < 1:
        raise ValueError("doubled_area must be >= 1")
    return isqrt_ceil_of_sqrt(4 * doubled_area)


def family_state(p: int, q: int, x: int, y: int) -> PinState:
    return PinState(LatticePoint(-p, -q), LatticePoint(x, 0), LatticePoint(0, y))


def family_search(doubled_area: int) -> PinState:
    """First family member of cost n = lower_bound(D) and doubled area D.

    Members are ordered by p, then q, then x (y = n - p - q - x).  For fixed
    (p, q) the x with x*y + q*x + p*y = D are the integer roots of
    x^2 - (n - 2p)x + (D - p*(n - p - q)) = 0, whose discriminant is
    c - 4pq with c = n^2 - 4D.  Row p = 0 has the discriminant c for every
    q, and it holds a member exactly when c is a square r^2: then q = 0
    already gives (0, 0, (n - r)/2, (n + r)/2).  Otherwise row p = 1 walks
    the roots r of its square discriminants downward from isqrt(c), which
    visits q = (c - r^2)/4 in ascending order, and tries the roots
    x = (n - 2 - r)/2, then (n - 2 + r)/2.  Rows p >= 2 are never reached:
    the closed form (1, s, X - 1, Y - s) of the module docstring is a row-1
    member, so the walk returns by its q = s at the latest.
    """
    n = lower_bound(doubled_area)
    c = n * n - 4 * doubled_area
    top = math.isqrt(c)
    if top * top == c:
        return family_state(0, 0, (n - top) // 2, (n + top) // 2)
    for r in range(top, -1, -1):
        q, rem = divmod(c - r * r, 4)
        if rem:
            continue
        rest = n - 1 - q  # x + y
        for t in (n - 2 - r, n - 2 + r):
            if t >= 0 and t % 2 == 0 and t // 2 <= rest:
                return family_state(1, q, t // 2, rest - t // 2)


def oracle_min_moves(doubled_area: int, radius: int) -> int:
    """Exhaustive minimum cost over all triangles near the origin.

    Enumerates every triple of lattice points with per-pin L1 norm at most
    radius and total cost at most 2*radius; independent of the family
    construction.  Requires 4*D <= (2*radius)^2 so that the radius is not
    trivially too small for the lower bound, D <= MAX_ORACLE_DOUBLED_AREA and
    radius <= MAX_ORACLE_RADIUS.
    Raises if no triangle with the target doubled area exists in range.
    """
    if doubled_area < 1:
        raise ValueError("doubled_area must be >= 1")
    if doubled_area > MAX_ORACLE_DOUBLED_AREA:
        raise ValueError(f"doubled area {doubled_area} is above the bound "
                         f"MAX_ORACLE_DOUBLED_AREA = {MAX_ORACLE_DOUBLED_AREA}")
    if radius > MAX_ORACLE_RADIUS:
        raise ValueError(f"radius {radius} is above the bound "
                         f"MAX_ORACLE_RADIUS = {MAX_ORACLE_RADIUS}")
    if 4 * doubled_area > (2 * radius) ** 2:
        raise ValueError(
            f"radius {radius} too small for doubled area {doubled_area}: "
            "the search would be incomplete"
        )
    from . import scan

    hit = scan.min_cost_triangle(doubled_area, radius, cost_cap=2 * radius)
    if hit is None:
        raise ValueError(
            f"no triangle with doubled area {doubled_area} within radius {radius}"
        )
    return hit[0]


def min_moves(doubled_area: int) -> SolveCertificate:
    """Minimum move count, certified by the first family witness at the bound."""
    bound = lower_bound(doubled_area)
    return SolveCertificate(bound, family_search(doubled_area), CERTIFIED_OPTIMAL)
