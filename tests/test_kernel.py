import decimal
import random
from fractions import Fraction

import pytest

from jmokit.kernel import (
    LatticePoint,
    _floor,
    _positive,
    factorize,
    is_prime,
    isqrt_ceil_of_sqrt,
    shoelace_doubled,
)
from jmokit.tripack import _integer_form
from sqrt3_reference import Sqrt3


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


def test_sqrt3_equality_with_non_numbers():
    assert Sqrt3(1) == 1 and Sqrt3(1) == Fraction(1) and Sqrt3(1) == Sqrt3(1)
    assert Sqrt3(1) != "1"
    assert Sqrt3(1) != None  # noqa: E711
    assert Sqrt3(1) not in [None, "1", 1.0]
    assert Sqrt3(1) in [None, Sqrt3(1)]
    for bad in ("1", 1.0, None):
        with pytest.raises(TypeError):
            Sqrt3.of(bad)
        with pytest.raises(TypeError):
            Sqrt3(0, bad)


# -- the one sign test and floor of u + v*sqrt(3), against decimal ------------

ORACLE = decimal.Context(prec=120)
ORACLE_SQRT3 = ORACLE.sqrt(3)


def _pell(u, v):
    """(u, v), then its products with the unit 2 + sqrt(3), below 10^40."""
    pairs = []
    while u < 10**40:
        pairs.append((u, v))
        u, v = 2 * u + 3 * v, u + 2 * v
    return pairs


def _oracle_cases():
    # near-ties u^2 - 3v^2 = 1 and u^2 - 3v^2 = -2 in all four sign arrangements
    pairs = [(su * u, sv * v) for u, v in _pell(2, 1) + _pell(1, 1)
             for su in (1, -1) for sv in (1, -1)]
    rng = random.Random(8)
    pairs += [(rng.randint(-10**50, 10**50), rng.randint(-10**50, 10**50)) for _ in range(2000)]
    pairs += [(0, 0), (5, 0), (-5, 0), (0, 7), (0, -7)]
    cases = [(u, v, d) for u, v in pairs for d in (1, 2, 3, 12, 10**20 + 39)]
    # the grid cells of validate_packing: exact integers and negative sqrt(3)
    # parts, taken through tripack's integer form
    rng = random.Random(5)
    for _ in range(3000):
        x = Sqrt3(Fraction(rng.randint(-24, 24), 8), Fraction(rng.randint(-12, 12), 8))
        d, u, v, _, _ = _integer_form((x.a, x.b, 0, 0))
        cases.append((u, v, d))
    return cases


def test_sign_and_floor_match_decimal_oracle():
    for u, v, d in _oracle_cases():
        value = ORACLE.add(u, ORACLE.multiply(v, ORACLE_SQRT3))
        assert _positive(u, v) == (value > 0), (u, v)
        floor = ORACLE.divide(value, d).to_integral_value(rounding=decimal.ROUND_FLOOR)
        assert _floor(u, v, d) == floor, (u, v, d)


def test_factorization_is_squarefree():
    assert factorize(30).is_squarefree
    assert not factorize(12).is_squarefree
    assert factorize(1).is_squarefree
