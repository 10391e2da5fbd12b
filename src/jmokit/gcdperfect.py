"""Sets of positive integers whose gcds enumerate divisors exactly once.

A finite set S is gcd-perfect when for every s in S and every divisor d of
s there is exactly one t in S with gcd(s, t) = d (t = s is allowed).  The
possible sizes are 0 and the powers of 2: from 2k pairwise distinct primes
p_1..p_k, q_1..q_k one builds the 2^k-element witness

    S = { prod(p_i, i in I) * prod(q_j, j not in I) : I subset of [k] },

and conversely every gcd-perfect set's elements are squarefree with a common
prime count k and |S| = d(s) = 2^k.  The checker decides the property by
direct gcd counting; the structure validator asserts the squarefree shape;
search_size exhaustively refutes other sizes up to 10^4, pruning by the
necessary condition d(s) = |S| and by early gcd collisions.  Its DFS keeps
the admissible candidates of each level as an int bitset over the pool, and
adding a member clears the bits its gcd collisions rule out, using
per-member bitsets keyed by gcd value.  Each inner level branches only over
the candidates t that meet one divisor d of a chosen member s as gcd(s, t),
the unmet (s, d) with the fewest, since every gcd-perfect superset holds
exactly one of them; an unmet divisor that no candidate meets stops the
level.  It never prunes by the classification itself, so the search stays
an independent check of it; a node is one level entered.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional

from .kernel import Factorization, factorize, is_prime

# search_size's node budget when the caller sets none: a node is one member
# added, and every size at max_element 10^4 fits (size 4 spends about 9.9 * 10^5).
DEFAULT_NODE_BUDGET = 10**6
# GcdSet refuses larger elements: factorize is trial division, which takes
# about 0.25 s for a prime near 10^12 and hours for one near 10^18.
MAX_CHECK_ELEMENT = 10**12


class BudgetExceeded(ValueError):
    """Search stopped after spending its node budget; a ValueError, like any bad argument."""

    def __init__(self, budget: int):
        super().__init__(f"search node budget exceeded ({budget} nodes)")
        self.budget = budget


class GcdSet:
    """Strictly increasing elements, at most MAX_CHECK_ELEMENT, with cached factorizations
    and divisor lists."""

    __slots__ = ("elements", "_facts", "_divs")

    def __init__(self, elements: Iterable[int]):
        elems = sorted(elements)
        for a, b in zip(elems, elems[1:]):
            if a == b:
                raise ValueError(f"duplicate element {a}")
        if elems and elems[0] < 1:
            raise ValueError("elements must be positive integers")
        if elems and elems[-1] > MAX_CHECK_ELEMENT:
            raise ValueError(f"element {elems[-1]} is above 10^12, the bound for "
                             "factorizing by trial division")
        self.elements: tuple[int, ...] = tuple(elems)
        # both caches are made on first use; search_size's sets share its
        # divisor dict and never factorize
        self._facts: Optional[dict[int, Factorization]] = None
        self._divs: Optional[dict[int, list[int]]] = None

    def factorization(self, s: int) -> Factorization:
        facts = self._facts
        if facts is None:
            facts = self._facts = {}
        f = facts.get(s)
        if f is None:
            f = facts[s] = factorize(s)
        return f

    def divisors(self, s: int) -> list[int]:
        """The divisors of s, ascending."""
        divs = self._divs
        if divs is None:
            divs = self._divs = {}
        d = divs.get(s)
        if d is None:
            d = divs[s] = self.factorization(s).divisors()
        return d

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"GcdSet({list(self.elements)})"


class PerfectionReport(NamedTuple):
    verdict: bool
    witness_failure: Optional[tuple[int, int, int]]  # (s, d, count) with count != 1
    size: int


class StructureReport(NamedTuple):
    prime_count: int  # the k with |S| = 2^k


def is_gcd_perfect(S: GcdSet) -> PerfectionReport:
    """Decide gcd-perfection by counting gcd values against divisor lists.

    On failure the witness names a concrete (s, d, count): a divisor d of s
    hit by count != 1 elements.  The empty set is vacuously perfect.
    """
    n = len(S)
    for s in S.elements:
        counts: dict[int, int] = {}
        for t in S.elements:
            g = math.gcd(s, t)
            counts[g] = counts.get(g, 0) + 1
        for d in S.divisors(s):
            c = counts.get(d, 0)
            if c != 1:
                return PerfectionReport(False, (s, d, c), n)
        # every gcd divides s, so matching counts on all divisors uses up
        # exactly |S| elements; no further check needed
    return PerfectionReport(True, None, n)


def construct(k: int, p: list[int], q: list[int]) -> GcdSet:
    """The 2^k-element witness from 2k pairwise distinct primes.

    Element for subset I of [k]: product of p_i over i in I times product
    of q_j over j outside I.  k = 0 yields {1} (the empty product).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if len(p) != k or len(q) != k:
        raise ValueError(f"need exactly {k} primes in each of p and q")
    primes = list(p) + list(q)
    if len(set(primes)) != 2 * k:
        raise ValueError("the 2k primes must be pairwise distinct")
    # GcdSet refuses elements outside [1, MAX_CHECK_ELEMENT] before any
    # prime is tested.  The set doubles with each pair (p_i, q_i), and the
    # doubling stops once an element falls outside: the pairs' larger values
    # are distinct and at least 2, so that happens within 15 pairs.
    elements = [1]
    for a, b in zip(p, q):
        elements = [e * v for v in (b, a) for e in elements]
        if min(elements) < 1 or max(elements) > MAX_CHECK_ELEMENT:
            break
    s = GcdSet(elements)
    for v in primes:
        if not is_prime(v):
            raise ValueError(f"{v} is not prime")
    return s


def structure_report(S: GcdSet) -> StructureReport:
    """Squarefree structure of a gcd-perfect set.

    Asserts every element is squarefree with one common prime count k and
    that |S| = 2^k.  A violation here would contradict the classification,
    so it raises RuntimeError (internal-consistency alarm) rather than
    reporting a user error.  Rejects sets that are not gcd-perfect, and the
    empty set (no elements, no structure).
    """
    if not len(S):
        raise ValueError("empty set has no structure to report")
    report = is_gcd_perfect(S)
    if not report.verdict:
        raise ValueError(f"set is not gcd-perfect: witness {report.witness_failure}")
    counts = set()
    for s in S.elements:
        f = S.factorization(s)
        if not f.is_squarefree:
            raise RuntimeError(f"element {s} of a gcd-perfect set is not squarefree")
        counts.add(len(f.prime_powers))
    if len(counts) != 1:
        raise RuntimeError(f"elements have differing prime counts {sorted(counts)}")
    k = counts.pop()
    if len(S) != 2**k:
        raise RuntimeError(f"size {len(S)} != 2^{k}")
    return StructureReport(prime_count=k)


def search_size(
    target_size: int, max_element: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[GcdSet]:
    """Every gcd-perfect subset of [1..max_element] with the target size, in
    lexicographic order.

    The candidate pool is restricted to elements with d(s) = target_size
    (necessary since the divisors of any s in S biject onto S).  A DFS fixes
    each pool member in turn as the least member, and each level keeps a
    mask: an int bitset over pool indices of the candidates that can still
    join.  Adding member j clears, for each chosen i, the pair mask of
    (i, j): every x whose gcd with pool[i] or with pool[j] equals
    gcd(pool[i], pool[j]), or whose gcds with the two are equal.  Those gcd
    collisions rule out every superset.  No pool member divides another
    (a | x with a != x gives d(x) > d(a)), so gcd(a, x) = a never needs a
    check.

    A level below the root branches over one unmet (s, d) only: a chosen
    member s and a divisor d of s that no chosen member meets as gcd(s, t),
    the one whose candidates t in the mask with gcd(s, t) = d are fewest.
    Every gcd-perfect superset of the chosen members holds exactly one such
    t, so each set is reached along exactly one branch, and an unmet (s, d)
    with no candidate returns at once.  This follows the definition alone,
    never the classification, so the search stays an independent check of
    it.  Branches leave the pool order, so the sets are sorted at the end.

    The level that needs one more member makes no such choice: it walks its
    whole mask, and each full-size set is decided by is_gcd_perfect,
    reading the pool filter's divisor lists from one dict that every set
    shares, so each number is factorized once and each divisor list built
    once.  For target sizes that are not powers of 2 the result is empty.

    That check never rejects a set the walk reaches.  Of any three members,
    the one added last was outside the pair mask of the other two, so the
    three pairwise gcds are distinct.  Hence for each member s the map
    t -> gcd(s, t) is injective on S: two members t != u with
    gcd(s, t) = gcd(s, u) would make such a triple, and gcd(s, t) = s = gcd(s, s)
    would need s | t, which no two pool members allow.  The map goes into
    the d(s) = |S| divisors of s, so it is onto as well, and S is
    gcd-perfect.  The call stays as the independent certificate of each
    reported set: a rejection could only come from a bug, so it raises
    RuntimeError (internal-consistency alarm), as structure_report does.

    The masks are unions of per-member tables {d: bits of x with
    gcd(pool[a], pool[x]) == d}, one entry per divisor d of pool[a], built
    on first use.  Pair masks are built when needed and never kept: a cache
    of them bought no time.  A node is one level entered below the root,
    one member added, whether or not the level returns at once; a level
    charges the levels it enters before it enters any.  BudgetExceeded is
    raised once the total passes node_budget, so the verdict depends only
    on the full traversal's total.
    """
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    if max_element > 10**4:
        raise ValueError("max_element above 10^4 is not supported")
    if node_budget < 0:
        raise ValueError(f"node_budget must be >= 0, got {node_budget}")
    divs = {s: f.divisors() for s in range(1, max_element + 1)
            if (f := factorize(s)).divisor_count == target_size}
    pool = list(divs)
    n = len(pool)
    tables: list[Optional[dict[int, int]]] = [None] * n

    def table(a: int) -> dict[int, int]:
        t = tables[a]
        if t is None:
            t = tables[a] = dict.fromkeys(divs[pool[a]], 0)  # a divisor no gcd meets keeps 0
            for x, g in enumerate(map(math.gcd, pool, [pool[a]] * n)):
                t[g] |= 1 << x
        return t

    def pair(i: int, j: int) -> int:
        ti, tj = table(i), table(j)
        g = math.gcd(pool[i], pool[j])
        m = ti[g] | tj[g]
        for h, bits in ti.items():
            m |= bits & tj.get(h, 0)
        return m

    found: list[GcdSet] = []
    chosen: list[int] = []  # pool indices; chosen[0] is the least
    nodes = 0

    def extend(mask: int, held: int) -> None:
        # mask holds only indices above chosen[0]; held holds the chosen indices
        nonlocal nodes
        if len(chosen) + 1 == target_size:
            while mask:
                low = mask & -mask
                mask ^= low
                candidate = GcdSet([pool[i] for i in chosen] + [pool[low.bit_length() - 1]])
                candidate._divs = divs
                if not is_gcd_perfect(candidate).verdict:  # the docstring proves it never is
                    raise RuntimeError(f"search reached {candidate!r}, which is not gcd-perfect")
                found.append(candidate)
            return
        # a least member leaves target_size - 1 indices above it; below the
        # root, some chosen member always has an unmet divisor, so the loop
        # below replaces branch
        branch, fewest = mask >> target_size - 1, n
        for i in chosen:
            for bits in table(i).values():
                if not bits & held and (k := (bits & mask).bit_count()) < fewest:
                    if not k:
                        return
                    branch, fewest = bits & mask, k
        nodes += branch.bit_count()
        if nodes > node_budget:
            raise BudgetExceeded(node_budget)
        while branch:
            low = branch & -branch
            branch ^= low
            j = low.bit_length() - 1
            excl = 0 if chosen else 2 * low - 1  # only indices above the least member
            for i in chosen:
                excl |= pair(i, j)
            chosen.append(j)
            extend(mask & ~excl, held | low)
            chosen.pop()

    extend((1 << n) - 1, 0)
    found.sort(key=lambda s: s.elements)
    return found
