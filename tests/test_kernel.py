import random
from fractions import Fraction

import pytest

from jmokit.kernel import (
    LatticePoint,
    Sqrt3,
    factorize,
    is_prime,
    isqrt_ceil_of_sqrt,
    shoelace_doubled,
)


def test_shoelace_degenerate_coincident():
    p = LatticePoint(0, 0)
    assert shoelace_doubled(p, p, p) == 0


def test_shoelace_contest_triangle():
    # (61*46 + 18*61 + 3*46) = 4042, twice the area 2021
    a = LatticePoint(-3, -18)
    b = LatticePoint(61, 0)
    c = LatticePoint(0, 46)
    assert shoelace_doubled(a, b, c) == 4042


def test_shoelace_unit_right_triangle():
    assert shoelace_doubled(LatticePoint(0, 0), LatticePoint(1, 0), LatticePoint(0, 1)) == 1


def test_shoelace_zero_iff_collinear():
    # independent collinearity via cross product of difference vectors
    rng = random.Random(1)
    for _ in range(500):
        pts = [LatticePoint(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(3)]
        a, b, c = pts
        cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
        assert (shoelace_doubled(a, b, c) == 0) == (cross == 0)


def test_shoelace_permutation_and_translation_invariance():
    rng = random.Random(2)
    for _ in range(300):
        pts = [LatticePoint(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(3)]
        base = shoelace_doubled(*pts)
        perm = sorted(pts, key=lambda p: (p.y, -p.x))
        assert shoelace_doubled(*perm) == base
        dx, dy = rng.randint(-100, 100), rng.randint(-100, 100)
        moved = [LatticePoint(p.x + dx, p.y + dy) for p in pts]
        assert shoelace_doubled(*moved) == base


def test_factorize_one():
    f = factorize(1)
    assert f.prime_powers == ()
    assert f.divisor_count == 1
    assert f.divisors() == [1]


def test_factorize_six():
    assert factorize(6).prime_powers == ((2, 1), (3, 1))
    assert factorize(6).divisor_count == 4


def test_factorize_twelve():
    # divisors of 12 by direct enumeration: 1, 2, 3, 4, 6, 12
    brute = [d for d in range(1, 13) if 12 % d == 0]
    f = factorize(12)
    assert f.prime_powers == ((2, 2), (3, 1))
    assert f.divisor_count == len(brute) == 6
    assert f.divisors() == brute


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_divisors_against_trial_division():
    for n in range(1, 2000):
        brute = [d for d in range(1, n + 1) if n % d == 0]
        f = factorize(n)
        assert f.divisors() == brute
        assert f.divisor_count == len(brute)
        prod = 1
        for p, e in f.prime_powers:
            prod *= p**e
        assert prod == n


def test_factorize_recombination():
    rng = random.Random(3)
    pairs = [(a, b) for a in range(1, 60) for b in range(1, 60)]
    pairs += [(rng.randint(1, 10**4), rng.randint(1, 10**4)) for _ in range(300)]
    for a, b in pairs:
        merged: dict[int, int] = {}
        for p, e in factorize(a).prime_powers + factorize(b).prime_powers:
            merged[p] = merged.get(p, 0) + e
        expected = tuple(sorted(merged.items()))
        assert factorize(a * b).prime_powers == expected


def test_is_prime_small():
    brute = [n for n in range(2, 200) if all(n % d for d in range(2, n))]
    assert [n for n in range(200) if is_prime(n)] == brute


def test_isqrt_ceil_examples():
    assert isqrt_ceil_of_sqrt(4) == 2
    assert isqrt_ceil_of_sqrt(16168) == 128  # 127^2 = 16129 < 16168 <= 16384 = 128^2
    assert isqrt_ceil_of_sqrt(5) == 3


def test_isqrt_ceil_rejects_zero():
    with pytest.raises(ValueError):
        isqrt_ceil_of_sqrt(0)


def test_isqrt_ceil_full_range_invariant():
    for m in range(1, 10**6 + 1):
        n = isqrt_ceil_of_sqrt(m)
        assert (n - 1) * (n - 1) < m <= n * n


def test_sqrt3_arithmetic():
    x = Sqrt3(Fraction(1, 2), Fraction(3, 4))
    y = Sqrt3(2, Fraction(-1, 3))
    assert (x + y) - y == x
    assert x * y == y * x
    # (a + b*sqrt3)(a - b*sqrt3) = a^2 - 3 b^2, a rational
    prod = x * Sqrt3(x.a, -x.b)
    assert prod.b == 0
    assert prod.a == x.a**2 - 3 * x.b**2
    assert (x / y) * y == x
    assert Sqrt3(0, 1) * Sqrt3(0, 1) == 3


def test_sqrt3_hash_agrees_with_equal_rationals():
    assert len({Sqrt3(1), Fraction(1), 1}) == 1
    assert len({Sqrt3(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert len({Sqrt3(1, 1), Sqrt3(1), Sqrt3(0, 1)}) == 3


def test_sqrt3_sign_matches_float():
    rng = random.Random(4)
    for _ in range(2000):
        v = Sqrt3(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                  Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
        approx = float(v)
        if abs(approx) > 1e-9:
            assert v.sign() == (1 if approx > 0 else -1)
        elif v.a == 0 and v.b == 0:
            assert v.sign() == 0


def test_sqrt3_ordering():
    assert Sqrt3(0, 1) > Fraction(173, 100)      # sqrt(3) > 1.73
    assert Sqrt3(0, 1) < Fraction(174, 100)
    assert Sqrt3(-2, 1) < 0 < Sqrt3(2, -1)
    values = [Sqrt3(1), Sqrt3(0, 1), Sqrt3(2), Sqrt3(0, 2), Sqrt3(-1, 1)]
    as_floats = sorted(float(v) for v in values)
    assert [float(v) for v in sorted(values)] == as_floats


def test_sqrt3_floor():
    assert Sqrt3(5).floor() == 5
    assert Sqrt3(0, 1).floor() == 1         # sqrt(3) ~ 1.732
    assert Sqrt3(0, -1).floor() == -2
    assert Sqrt3(Fraction(7, 2)).floor() == 3
    assert Sqrt3(2, -1).floor() == 0        # 2 - sqrt(3) ~ 0.268
    rng = random.Random(5)
    for _ in range(500):
        v = Sqrt3(Fraction(rng.randint(-50, 50), rng.randint(1, 7)),
                  Fraction(rng.randint(-20, 20), rng.randint(1, 7)))
        n = v.floor()
        assert v >= n
        assert v < n + 1


def test_sqrt3_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Sqrt3(1) / Sqrt3(0)


def test_factorization_is_squarefree():
    assert factorize(30).is_squarefree
    assert not factorize(12).is_squarefree
    assert factorize(1).is_squarefree
