"""Sets of positive integers whose gcds enumerate divisors exactly once.

A finite set S is gcd-perfect when for every s in S and every divisor d of
s there is exactly one t in S with gcd(s, t) = d (t = s is allowed).  The
possible sizes are 0 and the powers of 2: from 2k pairwise distinct primes
p_1..p_k, q_1..q_k one builds the 2^k-element witness

    S = { prod(p_i, i in I) * prod(q_j, j not in I) : I subset of [k] },

and conversely every gcd-perfect set's elements are squarefree with a common
prime count k and |S| = d(s) = 2^k.  The checker decides the property by
direct gcd counting; the structure validator asserts the squarefree shape;
search_size exhaustively refutes other sizes at small scale, pruning by the
necessary condition d(s) = |S| and by early gcd collisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .kernel import Factorization, factorize, is_prime

# search_size's node budget when the caller (or JMOKIT_NODE_BUDGET) sets none.
DEFAULT_NODE_BUDGET = 10**6


class BudgetExceeded(ValueError):
    """Search stopped after spending its node budget; a ValueError, like any bad argument."""

    def __init__(self, budget: int):
        super().__init__(f"search node budget exceeded ({budget} nodes)")
        self.budget = budget


class GcdSet:
    """Strictly increasing elements with cached factorizations."""

    __slots__ = ("elements", "_facts")

    def __init__(self, elements: Iterable[int]):
        elems = sorted(elements)
        for a, b in zip(elems, elems[1:]):
            if a == b:
                raise ValueError(f"duplicate element {a}")
        if elems and elems[0] < 1:
            raise ValueError("elements must be positive integers")
        self.elements: tuple[int, ...] = tuple(elems)
        self._facts: dict[int, Factorization] = {}

    def factorization(self, s: int) -> Factorization:
        f = self._facts.get(s)
        if f is None:
            f = self._facts[s] = factorize(s)
        return f

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        return isinstance(other, GcdSet) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"GcdSet({list(self.elements)})"


@dataclass(frozen=True)
class PerfectionReport:
    verdict: bool
    witness_failure: Optional[tuple[int, int, int]]  # (s, d, count) with count != 1
    size: int


@dataclass(frozen=True)
class StructureReport:
    prime_count: int  # the k with |S| = 2^k
    size: int


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
        for d in S.factorization(s).divisors():
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
    for v in primes:
        if not is_prime(v):
            raise ValueError(f"{v} is not prime")
    elements = []
    for mask in range(1 << k):
        value = 1
        for i in range(k):
            value *= p[i] if mask >> i & 1 else q[i]
        elements.append(value)
    return GcdSet(elements)


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
    return StructureReport(prime_count=k, size=len(S))


def search_size(
    target_size: int, max_element: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> list[GcdSet]:
    """Every gcd-perfect subset of [1..max_element] with the target size.

    The candidate pool is restricted to elements with d(s) = target_size
    (necessary since the divisors of any s in S biject onto S), and partial
    subsets are dropped as soon as two members share a gcd value with some
    member.  For target sizes that are not powers of 2 the result is empty.
    """
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    if max_element > 10**4:
        raise ValueError("max_element above 10^4 is not supported")
    pool = [s for s in range(1, max_element + 1)
            if factorize(s).divisor_count == target_size]
    found: list[GcdSet] = []
    chosen: list[int] = []
    # used[i] = gcd values already taken against chosen[i]
    used: list[set[int]] = []
    nodes = 0

    def extend(start: int) -> None:
        nonlocal nodes
        if len(chosen) == target_size:
            candidate = GcdSet(chosen)
            if is_gcd_perfect(candidate).verdict:
                found.append(candidate)
            return
        if target_size - len(chosen) > len(pool) - start:
            return
        for idx in range(start, len(pool)):
            c = pool[idx]
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(node_budget)
            gcds = [math.gcd(s, c) for s in chosen]
            if any(g in u for g, u in zip(gcds, used)):
                continue
            own = set(gcds)
            if len(own) != len(gcds) or c in own:
                continue  # two earlier members collide against c, or gcd(c,c)
            own.add(c)
            chosen.append(c)
            for g, u in zip(gcds, used):
                u.add(g)
            used.append(own)
            extend(idx + 1)
            used.pop()
            for g, u in zip(gcds, used):
                u.discard(g)
            chosen.pop()

    extend(0)
    return found  # lexicographic by construction (pool ascending, DFS)
