"""Exact arithmetic and lattice-geometry primitives shared by all problem modules.

Everything here is immutable and pure: rational scalars, points with integer
coordinates, prime factorizations, and the handful of integer formulas
(doubled triangle area, integer ceil-of-square-root) that the problem modules
lean on.  Verdict-producing geometry never touches floating point; the one
irrational the toolkit needs, sqrt(3), is carried symbolically by Sqrt3 in
integer form.  _positive and _floor, the one sign test and the one floor of
u + v*sqrt(3), serve Sqrt3 and the integer verdicts of tripack alike; _float,
the one float of (u + v*sqrt(3))/d, serves Sqrt3 and tripack's drawing.
"""

from __future__ import annotations

import math
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


class Factorization(NamedTuple):
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

    Callers keep n at most gcdperfect.MAX_CHECK_ELEMENT = 10^12 (GcdSet
    refuses larger elements), so every trial divisor stays below 10^6: about
    0.25 s for a prime near the bound.  No heavy factoring machinery.
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


def _positive(u: int, v: int) -> bool:
    """Whether u + v*sqrt(3) > 0; it is 0 only for u = v = 0."""
    # mixed signs compare u^2 with 3v^2, which are never equal for integers
    if v >= 0:
        return u > 0 or 3 * v * v > u * u
    return u > 0 and u * u > 3 * v * v


def _floor(u: int, v: int, d: int) -> int:
    """floor((u + v*sqrt(3)) / d) for d > 0."""
    r = math.isqrt(3 * v * v)  # floor(|v|*sqrt(3)), an exact root only for v = 0
    return (u + r if v >= 0 else u - r - 1) // d


def _float(u: int, v: int, d: int) -> float:
    """float((u + v*sqrt(3)) / d) for d > 0.

    int / int rounds correctly, as Fraction.__float__ does, so equal
    rationals u/d give equal floats whatever the denominator.
    """
    return u / d + v / d * math.sqrt(3.0)


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
