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
n and doubled area D.  min_moves therefore runs one family search at the
lower bound and reports its first member, which is certified optimal.
Axis reflections of the family change neither value, so enumerating the
base family covers them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from . import scan
from .kernel import LatticePoint, isqrt_ceil_of_sqrt, shoelace_doubled

CERTIFIED_OPTIMAL = "certified_optimal"


@dataclass(frozen=True)
class PinState:
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


@dataclass(frozen=True)
class SolveCertificate:
    lower_bound: int
    witness: PinState
    status: str  # always CERTIFIED_OPTIMAL; kept with gap for the envelope
    gap: int  # witness cost minus the lower bound, always 0


def lower_bound(doubled_area: int) -> int:
    """Least n with n^2 >= 4*D: no cheaper configuration can reach area D/2."""
    if doubled_area < 1:
        raise ValueError("doubled_area must be >= 1")
    return isqrt_ceil_of_sqrt(4 * doubled_area)


def family_state(p: int, q: int, x: int, y: int) -> PinState:
    return PinState(LatticePoint(-p, -q), LatticePoint(x, 0), LatticePoint(0, y))


def family_search(doubled_area: int, budget: int) -> Optional[PinState]:
    """First family member with the exact doubled area at the exact budget.

    Enumerates p ascending, then q, then x (y = budget - p - q - x).  For
    fixed (p, q) the x satisfying x*y + q*x + p*y = D are the integer roots
    of x^2 - (budget - 2p)x + (D - p*s) = 0 with s = budget - p - q, whose
    discriminant is c - 4pq with c = budget^2 - 4D.  Row p = 0 has the
    discriminant c for every q, and when c is a square q = 0 already holds a
    member (x = (budget - sqrt(c))/2), so only q = 0 is checked there.  Row
    p > 0 walks the roots r of its square discriminants downward from
    isqrt(c), which visits q = (c - r^2)/(4p) in ascending order, so each
    row costs at most isqrt(c) + 1 steps.
    """
    if doubled_area < 1:
        raise ValueError("doubled_area must be >= 1")
    c = budget * budget - 4 * doubled_area
    if budget < 0 or c < 0:
        return None
    top = math.isqrt(c)
    for p in range(budget + 1):
        b = budget - 2 * p
        for q, r in _square_discriminants(c, top, p, budget - p):
            s = budget - p - q
            for t in (b - r, b + r):
                if t < 0 or t % 2 or t // 2 > s:
                    continue
                x = t // 2
                y = s - x
                if x * y + q * x + p * y == doubled_area:
                    return family_state(p, q, x, y)
                if r == 0:
                    break
    return None


def _square_discriminants(c: int, top: int, p: int, q_max: int) -> Iterator[tuple[int, int]]:
    """(q, r) in ascending q with r*r = c - 4pq, r >= 0 and 0 <= q <= q_max.

    For p = 0 only q = 0 is yielded; family_search's docstring says why that
    loses no member.
    """
    if p == 0:
        if top * top == c:
            yield 0, top
        return
    for r in range(top, -1, -1):
        q, rem = divmod(c - r * r, 4 * p)
        if q > q_max:
            return
        if rem == 0:
            yield q, r


def oracle_min_moves(doubled_area: int, radius: int) -> int:
    """Exhaustive minimum cost over all triangles near the origin.

    Enumerates every triple of lattice points with per-pin L1 norm at most
    radius and total cost at most 2*radius; independent of the family
    construction.  Requires 4*D <= (2*radius)^2 so that the radius is not
    trivially too small for the lower bound.  Raises if no triangle with
    the target doubled area exists in range.
    """
    if doubled_area < 1:
        raise ValueError("doubled_area must be >= 1")
    if 4 * doubled_area > (2 * radius) ** 2:
        raise ValueError(
            f"radius {radius} too small for doubled area {doubled_area}: "
            "the search would be incomplete"
        )
    hit = scan.min_cost_triangle(doubled_area, radius, cost_cap=2 * radius)
    if hit is None:
        raise ValueError(
            f"no triangle with doubled area {doubled_area} within radius {radius}"
        )
    return hit[0]


def min_moves(doubled_area: int, budget_cap: Optional[int] = None) -> SolveCertificate:
    """Certified minimum move count with the first family witness at the bound.

    The closed form in the module docstring guarantees a family member at
    the lower bound, so the only way to fail is a budget_cap below it.
    """
    bound = lower_bound(doubled_area)
    if budget_cap is not None and budget_cap < bound:
        raise ValueError(
            f"budget cap exceeded: no family witness for doubled area "
            f"{doubled_area} within cost {budget_cap}"
        )
    witness = family_search(doubled_area, bound)
    return SolveCertificate(bound, witness, CERTIFIED_OPTIMAL, 0)
