"""Exact arithmetic and lattice-geometry primitives shared by the problem modules.

Everything here is immutable and pure: points with integer coordinates,
prime factorizations, and the handful of integer formulas (doubled triangle
area, integer ceil-of-square-root) that the problem modules lean on.  The
one irrational the toolkit needs, sqrt(3), appears only as an integer pair
(u, v) standing for u + v*sqrt(3): _positive and _floor, the one sign test
and the one floor of it, decide tripack's verdicts exactly, and _float, the
one float of (u + v*sqrt(3))/d, serves tripack's drawing.  The tests'
exact reference route for Problem 3 (tests/sqrt3_reference.py) uses the
same three.
"""

from __future__ import annotations

import math
from typing import NamedTuple


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
