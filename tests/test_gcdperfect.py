import itertools
import math
import random

import pytest

from jmokit import gcdperfect
from jmokit.gcdperfect import (
    BudgetExceeded,
    GcdSet,
    construct,
    is_gcd_perfect,
    search_size,
    structure_report,
)
from jmokit.kernel import Factorization, factorize

FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]


def brute_perfect(elements) -> bool:
    """The definition verbatim: each divisor of each s hit by exactly one t."""
    for s in elements:
        for d in range(1, s + 1):
            if s % d:
                continue
            if sum(1 for t in elements if math.gcd(s, t) == d) != 1:
                return False
    return True


def test_empty_set_is_perfect():
    assert is_gcd_perfect(GcdSet([])).verdict


def test_paper_k2_witness():
    report = is_gcd_perfect(GcdSet([6, 14, 15, 35]))
    assert report.verdict
    assert brute_perfect([6, 14, 15, 35])


def test_singleton_two_fails():
    report = is_gcd_perfect(GcdSet([2]))
    assert not report.verdict
    assert report.witness_failure == (2, 1, 0)


def test_checker_matches_definition_on_random_sets():
    rng = random.Random(31)
    for _ in range(300):
        size = rng.randint(1, 5)
        elements = sorted(rng.sample(range(1, 60), size))
        assert is_gcd_perfect(GcdSet(elements)).verdict == brute_perfect(elements)


def test_gcdset_rejects_duplicates_and_nonpositive():
    with pytest.raises(ValueError):
        GcdSet([3, 3])
    with pytest.raises(ValueError):
        GcdSet([0, 2])


def test_gcdset_and_construct_share_the_element_bound():
    assert GcdSet([2, 10**12]).elements == (2, 10**12)
    with pytest.raises(ValueError, match=r"element 1000000000001 is above 10\^12"):
        GcdSet([2, 10**12 + 1])
    # construct refuses before testing any prime, and stops doubling once an
    # element leaves [1, 10^12]: 40 pairs would give 2^40 elements
    with pytest.raises(ValueError, match=r"is above 10\^12"):
        construct(40, list(range(2, 42)), list(range(100, 140)))
    with pytest.raises(ValueError, match="positive"):
        construct(41, [-v for v in range(2, 43)], list(range(100, 141)))


def test_construct_k0():
    assert construct(0, [], []).elements == (1,)


def test_construct_k1():
    s = construct(1, [2], [3])
    assert s.elements == (2, 3)
    assert is_gcd_perfect(s).verdict


def test_construct_k2_prime_assignments():
    # the subset-complement products: I={} -> q1 q2, {1} -> p1 q2, ...
    assert construct(2, [2, 3], [5, 7]).elements == (6, 14, 15, 35)
    assert construct(2, [2, 5], [3, 7]).elements == (10, 14, 15, 21)
    for s in (construct(2, [2, 3], [5, 7]), construct(2, [2, 5], [3, 7])):
        assert is_gcd_perfect(s).verdict
        assert brute_perfect(list(s.elements))


def test_construct_rejects_bad_primes():
    with pytest.raises(ValueError):
        construct(1, [2], [2])
    with pytest.raises(ValueError):
        construct(1, [4], [3])
    with pytest.raises(ValueError):
        construct(2, [2], [3, 5])


def test_construct_random_assignments_pass_checker():
    rng = random.Random(41)
    for k in range(5):
        for _ in range(10):
            primes = rng.sample(FIRST_PRIMES, 2 * k)
            s = construct(k, primes[:k], primes[k:])
            assert len(s) == 2**k
            assert is_gcd_perfect(s).verdict
            assert structure_report(s).prime_count == k


def test_structure_report_examples():
    assert structure_report(GcdSet([6, 14, 15, 35])).prime_count == 2
    assert structure_report(GcdSet([1])).prime_count == 0
    assert structure_report(GcdSet([2, 3])).prime_count == 1


def test_structure_report_rejects_imperfect_and_empty():
    with pytest.raises(ValueError):
        structure_report(GcdSet([2]))
    with pytest.raises(ValueError):
        structure_report(GcdSet([]))


def test_search_size_three_is_empty():
    # d(s) = 3 forces s = p^2; candidates up to 100 are 4, 9, 25, 49
    pool = [s for s in range(1, 101) if factorize(s).divisor_count == 3]
    assert pool == [4, 9, 25, 49]
    assert search_size(3, 100) == []


def test_search_size_five_is_empty():
    # candidates are fourth powers of primes: 16, 81
    assert search_size(5, 500) == []


def test_search_size_two():
    found = search_size(2, 10)
    assert [list(s.elements) for s in found] == [
        [2, 3], [2, 5], [2, 7], [3, 5], [3, 7], [5, 7]
    ]
    found30 = search_size(2, 30)
    primes = [p for p in range(2, 31) if factorize(p).divisor_count == 2]
    assert len(found30) == len(primes) * (len(primes) - 1) // 2
    for s in found30:
        assert is_gcd_perfect(s).verdict
        assert structure_report(s).prime_count == 1


def test_search_size_four_finds_only_valid_squarefree_sets():
    found = search_size(4, 40)
    assert found  # e.g. {6, 10, 15, ...}-shaped sets exist in range
    for s in found:
        assert is_gcd_perfect(s).verdict
        assert brute_perfect(list(s.elements))
        assert structure_report(s).prime_count == 2


def test_search_leaf_rejection_is_an_alarm(monkeypatch):
    # the leaf check never rejects a set the walk reaches, so a rejection is a
    # bug and raises, naming the set, instead of dropping it from the result
    monkeypatch.setattr(gcdperfect, "is_gcd_perfect",
                        lambda s: gcdperfect.PerfectionReport(False, None, len(s)))
    with pytest.raises(RuntimeError, match=r"^search reached GcdSet\(\[2, 3\]\), which is not"):
        search_size(2, 10)


def test_search_budget_exhaustion():
    with pytest.raises(BudgetExceeded):
        search_size(2, 100, node_budget=3)


@pytest.mark.parametrize("size, max_element, total, count", [(4, 150, 453, 188),
                                                             (8, 250, 33, 0),
                                                             (4, 400, 2736, 1393)])
def test_search_budget_verdict_is_the_full_node_total(size, max_element, total, count):
    # every level entered below the root charges one node, so the search
    # passes with exactly its full total and raises one node below it
    assert len(search_size(size, max_element, node_budget=total)) == count
    with pytest.raises(BudgetExceeded, match=f"\\({total - 1} nodes\\)"):
        search_size(size, max_element, node_budget=total - 1)


def divisor_count(s: int) -> int:
    return sum(1 for d in range(1, s + 1) if s % d == 0)


def brute_search(size: int, candidates) -> list[tuple[int, ...]]:
    """Every size-subset of the ascending candidates that meets the definition, in
    lexicographic order."""
    return [c for c in itertools.combinations(candidates, size) if brute_perfect(c)]


def test_search_matches_combinations_over_the_pool():
    top = 60
    pool = {size: [s for s in range(1, top + 1) if divisor_count(s) == size]
            for size in range(1, 17)}
    for size in range(1, 17):
        expected = brute_search(size, pool[size])
        for max_element in range(1, top + 1):
            found = [s.elements for s in search_size(size, max_element)]
            assert found == [c for c in expected if c[-1] <= max_element], (size, max_element)


def test_search_matches_combinations_without_the_divisor_count_filter():
    # over all of [1..20], so the d(s) = |S| filter is itself under test
    for size in range(1, 5):
        found = [s.elements for s in search_size(size, 20)]
        assert found == brute_search(size, range(1, 21)), size


def primes_up_to(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def classification(k: int, n: int) -> list[tuple[int, ...]]:
    """construct(k, p, q) for every choice of k disjoint prime pairs {p_i < q_i}
    whose products all stay <= n (the largest is the product of the q_i)."""
    primes = primes_up_to(n)
    sets = []

    def pick(ps, qs, first, q_product):
        if len(ps) == k:
            sets.append(construct(k, ps, qs).elements)
            return
        for i in range(first, len(primes)):
            p = primes[i]
            if p in qs:
                continue
            if q_product * p >= n:
                break  # every q_i > p_i >= p from here on
            for q in primes[i + 1:]:
                if q_product * q > n:
                    break
                if q not in qs:
                    pick(ps + [p], qs + [q], i + 1, q_product * q)

    pick([], [], 0, 1)
    return sets


@pytest.mark.parametrize("k, n", [(1, 1000), (2, 600), (3, 800), (3, 2000), (4, 10**4)])
def test_search_finds_exactly_the_classification(k, n):
    found = [s.elements for s in search_size(2**k, n, node_budget=10**8)]
    expected = classification(k, n)
    assert len(set(expected)) == len(expected)  # distinct prime choices, distinct sets
    assert len(found) == len(expected)
    assert sorted(found) == sorted(expected)
    # the DFS branches out of pool order, so the final sort carries the order
    assert all(a < b for a, b in zip(found, found[1:]))


def test_classification_by_hand():
    assert len(classification(1, 30)) == math.comb(10, 2)
    # q-products <= 40: {2,3}{5,7}; {2,3}{p,11} for p = 5, 7; {2,3}{p,13} for
    # p = 5, 7, 11; {2,5}{3,7} and {3,5}{2,7}
    assert sorted(classification(2, 40)) == [
        (6, 10, 21, 35), (6, 14, 15, 35), (10, 14, 15, 21), (10, 15, 22, 33),
        (10, 15, 26, 39), (14, 21, 22, 33), (14, 21, 26, 39), (22, 26, 33, 39),
    ]


@pytest.mark.parametrize("size", [3, 5, 6, 7])
def test_search_sizes_not_powers_of_two_are_empty(size):
    assert search_size(size, 1000) == []


@pytest.mark.parametrize("size", range(9, 16))
def test_search_sizes_nine_to_fifteen_are_empty(size):
    assert search_size(size, 3000) == []


def test_search_rejects_out_of_range():
    with pytest.raises(ValueError):
        search_size(0, 10)
    with pytest.raises(ValueError):
        search_size(2, 10**5)


def test_divisor_bijection_restatement():
    for s_set in (construct(2, [2, 3], [5, 7]), construct(3, [2, 5, 11], [3, 7, 13])):
        for s in s_set:
            gcds = sorted(math.gcd(s, t) for t in s_set)
            assert gcds == s_set.factorization(s).divisors()


def test_prime_membership_count():
    # elements divisible by p match divisors of s divisible by p, per s
    for s_set in (construct(2, [2, 3], [5, 7]), construct(4, FIRST_PRIMES[:4], FIRST_PRIMES[4:8])):
        for s in s_set:
            for p, _ in s_set.factorization(s).prime_powers:
                in_set = sum(1 for t in s_set if t % p == 0)
                in_divs = sum(1 for d in s_set.factorization(s).divisors() if d % p == 0)
                assert in_set == in_divs


def test_search_factorizes_each_number_once(monkeypatch):
    # the leaf checks read the pool filter's factorizations and one divisor
    # list per pool member, built once, from one dict that the found sets
    # share; no found set makes a factorization cache
    calls = []
    divisor_lists = []
    divisors = Factorization.divisors

    def counting_factorize(s):
        calls.append(s)
        return factorize(s)

    def counting_divisors(f):
        divisor_lists.append(f.value)
        return divisors(f)

    monkeypatch.setattr(gcdperfect, "factorize", counting_factorize)
    monkeypatch.setattr(Factorization, "divisors", counting_divisors)
    found = search_size(4, 200)
    assert found and sorted(calls) == list(range(1, 201))
    assert divisor_lists == [s for s in range(1, 201) if factorize(s).divisor_count == 4]
    assert all(s._facts is None for s in found)
    assert len({id(s._divs) for s in found}) == 1
