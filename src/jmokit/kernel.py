"""Exact arithmetic and lattice-geometry primitives shared by all problem modules.

Everything here is immutable and pure: rational scalars, points with integer
coordinates, prime factorizations, and the handful of integer formulas
(doubled triangle area, integer ceil-of-square-root) that the problem modules
lean on.  Verdict-producing geometry never touches floating point; the one
irrational the toolkit needs, sqrt(3), is carried symbolically by Sqrt3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

RationalLike = Union[int, Fraction]


class LatticePoint(NamedTuple):
    """Point with integer coordinates."""

    x: int
    y: int

    def l1(self) -> int:
        """Taxicab distance from the origin (number of unit pin moves)."""
        return abs(self.x) + abs(self.y)


def shoelace_doubled(a: LatticePoint, b: LatticePoint, c: LatticePoint) -> int:
    """Twice the area of triangle abc, as a nonnegative integer.

    Returns 0 exactly when the three points are collinear.  Doubling keeps
    the value integral for every lattice triangle.
    """
    return abs(
        a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y)
    )


@dataclass(frozen=True)
class Factorization:
    """Canonical prime factorization of a positive integer.

    prime_powers lists (prime, exponent) with strictly increasing primes and
    exponents >= 1; the empty list encodes 1 (the empty product).
    """

    value: int
    prime_powers: tuple[tuple[int, int], ...]

    @property
    def divisor_count(self) -> int:
        d = 1
        for _, e in self.prime_powers:
            d *= e + 1
        return d

    def divisors(self) -> list[int]:
        """All positive divisors, sorted ascending."""
        divs = [1]
        for p, e in self.prime_powers:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        return sorted(divs)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.prime_powers)


def factorize(n: int) -> Factorization:
    """Prime factorization by trial division up to sqrt(n).

    Inputs are desk-scale (<= 1e9 or so); no heavy factoring machinery.
    Raises ValueError for n < 1.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    powers: list[tuple[int, int]] = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            powers.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        powers.append((rest, 1))
    return Factorization(value=n, prime_powers=tuple(powers))


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n).prime_powers == ((n, 1),)


def isqrt_ceil_of_sqrt(m: int) -> int:
    """Least integer n with n*n >= m, in pure integer arithmetic.

    Raises ValueError for m < 1.
    """
    if m < 1:
        raise ValueError(f"isqrt_ceil_of_sqrt requires m >= 1, got {m}")
    s = math.isqrt(m)
    return s if s * s == m else s + 1


class Sqrt3:
    """Element a + b*sqrt(3) of the quadratic extension Q(sqrt(3)).

    a and b are exact rationals, so arithmetic and comparisons are exact;
    sqrt(3) never becomes a float inside a geometric verdict.  Sign tests
    reduce to comparing a^2 with 3*b^2 (a^2 = 3*b^2 has no rational solution
    besides a = b = 0, so ties cannot occur).
    """

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    # -- coercion ------------------------------------------------------

    @staticmethod
    def of(value: "Sqrt3 | RationalLike") -> "Sqrt3":
        if isinstance(value, Sqrt3):
            return value
        return Sqrt3(value)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = Sqrt3.of(other)
        return Sqrt3(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = Sqrt3.of(other)
        return Sqrt3(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return Sqrt3.of(other) - self

    def __mul__(self, other):
        o = Sqrt3.of(other)
        return Sqrt3(self.a * o.a + 3 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Sqrt3.of(other)
        norm = o.a * o.a - 3 * o.b * o.b  # zero only for o == 0
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(3))")
        return self * Sqrt3(o.a / norm, -o.b / norm)

    def __neg__(self):
        return Sqrt3(-self.a, -self.b)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- ordering ------------------------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # mixed signs: compare |a| with |b|*sqrt(3) via squares
        if a > 0:
            return 1 if a * a > 3 * b * b else -1
        return 1 if 3 * b * b > a * a else -1

    def __eq__(self, other):
        o = Sqrt3.of(other)
        return self.a == o.a and self.b == o.b

    def __lt__(self, other):
        return (self - Sqrt3.of(other)).sign() < 0

    def __le__(self, other):
        return (self - Sqrt3.of(other)).sign() <= 0

    def __gt__(self, other):
        return (self - Sqrt3.of(other)).sign() > 0

    def __ge__(self, other):
        return (self - Sqrt3.of(other)).sign() >= 0

    def __hash__(self):
        # a rational element must hash like the Fraction it equals
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    # -- conversion ----------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(3.0)

    def floor(self) -> int:
        """Exact floor, safe even when float rounding straddles an integer."""
        n = math.floor(float(self))
        while self < n:
            n -= 1
        while self >= n + 1:
            n += 1
        return n

    def __repr__(self):
        if self.b == 0:
            return f"Sqrt3({self.a})"
        return f"Sqrt3({self.a}, {self.b})"


SQRT3 = Sqrt3(0, 1)
