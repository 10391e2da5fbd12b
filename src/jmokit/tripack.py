"""Packings of inverted unit triangles inside an equilateral triangle.

The container is the equilateral triangle Delta with vertices (0,0), (L,0),
(L/2, L*sqrt(3)/2).  Each packed triangle is an upside-down unit equilateral
triangle, identified by its anchor, the midpoint of its horizontal top side:
T(x,y) has vertices (x-1/2, y), (x+1/2, y), (x, y-sqrt(3)/2).

Two such triangles have disjoint interiors exactly when the difference of
their anchors has hexagon-gauge at least 1, where the gauge's unit ball is
the regular side-1 hexagon with vertices (+-1, 0), (+-1/2, +-sqrt(3)/2) --
the set of differences {p - q : p, q in T}.  Around every packed triangle's
anchor a side-1/2 hexagon (area 3*sqrt(3)/8) fits inside Delta whenever the
triangle does, and these hexagons are pairwise disjoint; comparing areas
gives the packing bound n <= (2/3) L^2.  tessellate builds near-optimal
packings from the lattice that tiles the plane by side-1/2 hexagons,
approaching that density from below as L grows.

All coordinates live in Q(sqrt(3)), and a PackingInstance holds each anchor
only in integer form (see _integer_form), so every containment and overlap
verdict, including boundary contact, is an exact integer sign test.
tessellate builds the forms, parse_packing reads them from the file's
rationals, dump_packing writes them back, validate_packing decides on them,
with one overlap search over a grid of unit cells, and float_vertices gives
pack render its floats.  The tests check these verdicts over all pairs
against an independent reference route, a separating-axis test and the
hexagon gauge on exact points of Q(sqrt(3)) (tests/sqrt3_reference.py).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .kernel import _float, _floor, _positive

FloatPoint = tuple[float, float]
Form = tuple[int, int, int, int, int]  # an anchor's integer form, see _integer_form

# tessellate refuses a side whose density bound (2/3) L^2 exceeds this many
# anchors: the largest integer side it builds is 1224.
MAX_PACK_ANCHORS = 10**6
# _rational refuses a field whose value as p/q needs more digits than this in
# either part, Python's default limit for int to str and back, so that
# dump_packing and the envelopes can write every value it reads.  A decimal
# exponent above it is refused before Fraction sees it: Fraction('1e10000000')
# builds 10**10000000 and takes 12 s, and the limit does not see exponents.
MAX_FIELD_DIGITS = 4300
_DIGITS_BOUND = 10**MAX_FIELD_DIGITS


class PackingInstance:
    """Side length L of Delta plus the anchors of the packed triangles.

    Anchors are held only as integer forms whose d is a multiple of 6 times
    L's denominator (see _integer_form); tessellate and parse_packing build
    them.  A side L <= 0 raises ValueError.
    """

    __slots__ = ("side_len", "forms")

    def __init__(self, side_len, forms: list[Form]):
        side = self.side_len = Fraction(side_len)
        if side <= 0:
            raise ValueError("side length must be positive")
        self.forms = forms

    @property
    def count(self) -> int:
        return len(self.forms)


class PackingReport(NamedTuple):
    count: int
    side_len: Fraction
    all_inside: bool
    first_outside: Optional[int]          # anchor index
    disjoint: bool
    first_overlap: Optional[tuple[int, int]]
    bound_ok: bool
    bound_is_warning: bool                # True when L < 2: bound reported, not enforced
    density: float                        # n / L^2

    @property
    def valid(self) -> bool:
        ok = self.all_inside and self.disjoint
        if not self.bound_is_warning:
            ok = ok and self.bound_ok
        return ok


# -- integer verdicts -------------------------------------------------------
#
# An anchor is held as its integer form (d, X, X3, Y, Y3), the point
# ((X + X3*sqrt(3))/d, (Y + Y3*sqrt(3))/d); d is 6 times the lcm of the
# denominators of the four rational parts and of the rationals that meet it
# (L, and the margin in tessellate), so d/2, L*d, m*d and Y/3 are integers.
# One d per anchor stays small, where one lcm over a file grows with every
# distinct denominator.  Signs and floors come from kernel._positive and
# kernel._floor, which the tests' reference route uses too: the two routes
# are independent in geometry, not arithmetic.


def _integer_form(parts, *rationals: Fraction) -> Form:
    """Integer form of the anchor (x + x3*sqrt(3), y + y3*sqrt(3)), parts = (x, x3, y, y3)."""
    d = 6 * math.lcm(*[f.denominator for f in (*parts, *rationals)])
    return (d, *[f.numerator * (d // f.denominator) for f in parts])


def _inside(d: int, x: int, x3: int, y: int, y3: int, side: Fraction, margin: Fraction) -> bool:
    """Whether the anchor's triangle lies in Delta inset by margin, on an integer form.

    Each facet of Delta is nearest to one vertex of the inverted triangle:
    the base to the bottom vertex, the left edge to the left vertex, the
    right edge to the right vertex.  So containment is three conditions,
    y - sqrt(3)/2 >= m, sqrt(3)(x - 1/2) - y >= 2m and
    sqrt(3)(L - x - 1/2) - y >= 2m, each scaled by d.
    """
    h = d // 2
    m = margin.numerator * (d // margin.denominator)
    side_d = side.numerator * (d // side.denominator)
    return not (
        _positive(m - y, h - y3)
        or _positive(y + 2 * m - 3 * x3, y3 + h - x)
        or _positive(3 * x3 + y + 2 * m, x + h + y3 - side_d)
    )


def _gauge_form(d: int, x: int, x3: int, y: int, y3: int) -> tuple[int, ...]:
    """d, then the integer pairs (u, v) of x + t, x - t and 2t over d.

    These are the hexagon gauge's three facet functionals |x + t|, |x - t|
    and |2t|, with t = y/sqrt(3) = (Y3 + (Y/3)*sqrt(3))/d.
    """
    t, t3 = y3, y // 3
    return (d, x + t, x3 + t3, x - t, x3 - t3, 2 * t, 2 * t3)


def _gauge_below_one(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    """Whether q - p has hexagon gauge below 1, on gauge forms: each functional in (-1, 1).

    Scaled by dp*dq, each test is |u + v*sqrt(3)| < dp*dq.
    """
    dp, dq = p[0], q[0]
    dd = dp * dq
    for k in (1, 3, 5):
        u = q[k] * dp - p[k] * dq
        v = q[k + 1] * dp - p[k + 1] * dq
        if not (_positive(dd - u, -v) and _positive(dd + u, v)):
            return False
    return True


def _overlapping_pairs(forms: list[tuple[int, ...]]) -> Iterator[tuple[int, int]]:
    """Overlapping index pairs (i, j), i < j, in all-pairs order: j, then i.

    Anchors are binned into unit cells by exact floors, and each is compared
    only with earlier anchors in the nine cells around its own.  Any
    overlapping pair has |dx| < 1 and |dy| < sqrt(3)/2, so none is missed.
    """
    gauges = [_gauge_form(*f) for f in forms]
    cells: dict[tuple[int, int], list[int]] = {}
    for j, (d, x, x3, y, y3) in enumerate(forms):
        key = (_floor(x, x3, d), _floor(y, y3, d))
        near = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                near.extend(cells.get((key[0] + dx, key[1] + dy), ()))
        for i in sorted(near):
            if _gauge_below_one(gauges[i], gauges[j]):
                yield (i, j)
        cells.setdefault(key, []).append(j)


def validate_packing(instance: PackingInstance) -> PackingReport:
    """Full packing check: containment, pairwise disjointness, density bound.

    first_overlap is the first overlapping pair in all-pairs order (j, then
    i < j).  The bound n <= (2/3) L^2 is enforced for L >= 2 and only
    reported as a warning below that (no unit triangle fits in Delta at all
    for L < 2, so a packing that passes containment there is necessarily
    empty).
    """
    n = instance.count
    side = instance.side_len
    forms = instance.forms

    zero = Fraction(0)
    first_outside = next((idx for idx, f in enumerate(forms) if not _inside(*f, side, zero)), None)
    first_overlap = next(_overlapping_pairs(forms), None)

    bound_ok = Fraction(n) <= Fraction(2, 3) * side * side
    try:
        density = n / float(side) ** 2
    except (OverflowError, ZeroDivisionError):  # L^2 is beyond the float range
        density = float(n / (side * side)) if side > 1 or not n else math.inf
    return PackingReport(
        count=n,
        side_len=side,
        all_inside=first_outside is None,
        first_outside=first_outside,
        disjoint=first_overlap is None,
        first_overlap=first_overlap,
        bound_ok=bound_ok,
        bound_is_warning=side < 2,
        density=density,
    )


# -- drawing --------------------------------------------------------------


def float_vertices(forms: list[Form]) -> Iterator[tuple[list[FloatPoint], list[FloatPoint]]]:
    """For each anchor form, float vertices of its triangle and its side-1/2 hexagon.

    The triangle's vertices are (x - 1/2, y), (x + 1/2, y), (x, y - sqrt(3)/2)
    and the hexagon's lie at angles k*60 degrees from the anchor, k = 0..5,
    in that order.  Over 4d each vertex is ((u + v*sqrt(3))/4d, ...) with
    integer u and v: the x parts are 4X + k*d, 4X3 for k in -2..2 and the y
    parts 4Y, 4Y3 + k*d for k in -2..1.  kernel._float rounds each equal
    rational to the same float, so the points equal the floats of the exact
    points of Q(sqrt(3)).
    """
    for d, x, x3, y, y3 in forms:
        e, x, x3, y, y3 = 4 * d, 4 * x, 4 * x3, 4 * y, 4 * y3
        left, left_in, mid, right_in, right = (_float(x + k * d, x3, e) for k in (-2, -1, 0, 1, 2))
        bottom, low, top, high = (_float(y, y3 + k * d, e) for k in (-2, -1, 0, 1))
        yield ([(left, top), (right, top), (mid, bottom)],
               [(right, top), (right_in, high), (left_in, high),
                (left, top), (left_in, low), (right_in, low)])


# -- tessellation ---------------------------------------------------------


def tessellate(side_len, margin=Fraction(0)) -> PackingInstance:
    """Near-optimal packing from the lattice that tiles by side-1/2 hexagons.

    Anchors sit on the lattice generated by (3/4, sqrt(3)/4) and
    (0, sqrt(3)/2), based at (1, sqrt(3)/2): one triangle per tiling hexagon,
    kept iff all three triangle vertices lie in Delta (inset by margin).
    Every pair of distinct lattice points differs by gauge >= 1, so the
    output always validates; the count is n(L) = (2/3 - eps(L)) L^2 with
    eps(L) a boundary-loss term that vanishes as L grows.  For every integer
    L from 4 to 200 and for L = 300, 400, 600 and 1000 (margin 0), the loss
    (2/3)L^2 - n(L) lies between (4/3)L and (5/3)L and tends to (5/3)L, so
    eps(L) is about 5/(3L).

    The anchors are held in integer form from the start.  A side with
    (2/3) L^2 > MAX_PACK_ANCHORS raises ValueError.
    """
    side = Fraction(side_len)
    margin = Fraction(margin)
    if side < 4:
        raise ValueError("tessellate requires L >= 4")
    if Fraction(2, 3) * side * side > MAX_PACK_ANCHORS:
        raise ValueError(f"side {side} is above the bound: (2/3)L^2 exceeds "
                         f"MAX_PACK_ANCHORS = {MAX_PACK_ANCHORS} anchors")
    if margin < 0:
        raise ValueError("margin must be nonnegative")

    forms: list[Form] = []
    # x = 1 + 3i/4, y = sqrt(3)(2 + m)/4 with m = i (mod 2); generous index
    # ranges, exact clipping.  Every candidate's components have denominators
    # dividing 4, so one integer form denominator d serves them all.
    i_hi = int(4 * (side - 2) / 3) + 2
    m_hi = int(2 * side) - 3
    d = 6 * math.lcm(4, side.denominator, margin.denominator)
    k = d // 4
    for m in range(0, m_hi + 1):
        y3 = k * (2 + m)
        for i in range(-(m % 2), i_hi + 1, 2):
            form = (d, k * (4 + 3 * i), 0, 0, y3)
            if _inside(*form, side, margin):
                forms.append(form)
    return PackingInstance(side, forms)


# -- file format ----------------------------------------------------------
#
# First line: L as an exact rational.  Then one anchor per line:
#     x  y  [y3]
# meaning the anchor (x, y + y3*sqrt(3)) with all fields exact rationals;
# the third field defaults to 0.  Anchor x-coordinates are rational in
# every packing this module produces.


def _rational(field: str, name: str) -> Fraction:
    """Fraction(field) for the field called name: packing-file fields, and
    pack build's --side and --margin.  A field out of MAX_FIELD_DIGITS's
    range, or with a zero denominator, raises ValueError naming it.
    """
    try:
        exponent = int(field.lower().partition("e")[2])
    except ValueError:
        exponent = 0  # no decimal exponent: Fraction refuses the literal
    if abs(exponent) > MAX_FIELD_DIGITS:
        raise ValueError(f"{name} has a decimal exponent above "
                         f"{MAX_FIELD_DIGITS} in absolute value")
    try:
        value = Fraction(field)
    except ZeroDivisionError:
        raise ValueError(f"{name} has a zero denominator") from None
    if value.denominator >= _DIGITS_BOUND or abs(value.numerator) >= _DIGITS_BOUND:
        raise ValueError(f"{name} needs more than {MAX_FIELD_DIGITS} digits as p/q")
    return value


def dump_packing(instance: PackingInstance) -> str:
    lines = [str(instance.side_len)]
    for d, x, x3, y, y3 in instance.forms:
        if x3:
            raise ValueError("packing file format requires rational x coordinates")
        xy = f"{Fraction(x, d)} {Fraction(y, d)}"
        lines.append(f"{xy} {Fraction(y3, d)}" if y3 else xy)
    return "\n".join(lines) + "\n"


def parse_packing(text: str) -> PackingInstance:
    """Parse a side line, then 'x y [y3]' anchor lines (blank lines and #-comments ignored)."""
    rows = [(lineno, raw.split("#", 1)[0].strip())
            for lineno, raw in enumerate(text.splitlines(), start=1)]
    rows = [(lineno, line) for lineno, line in rows if line]
    if not rows:
        raise ValueError("empty packing file")
    lineno, line = rows[0]
    forms: list[Form] = []
    try:  # every error below names the physical line it was read from
        side = _rational(line, "side")
        for lineno, line in rows[1:]:
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(f"expected 'x y [y3]', got {line!r}")
            if "e" in line or "E" in line or len(line) > MAX_FIELD_DIGITS:
                # only an exponent or a long field can leave _rational's
                # range, so only such lines pay for its checks
                parts = [_rational(f, name) for f, name in zip(parts, ("x", "y", "y3"))]
            try:
                x, y = Fraction(parts[0]), Fraction(parts[1])
                y3 = Fraction(parts[2]) if len(parts) == 3 else 0
            except ZeroDivisionError:  # a p/0 field: only this path pays to name it
                for field, name in zip(parts, ("x", "y", "y3")):
                    _rational(field, name)
            forms.append(_integer_form((x, 0, y, y3), side))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from exc
    return PackingInstance(side, forms)
