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
residual.  Two identities follow from the reduced system by summing and by
summing after dividing by b_i:

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
from dataclasses import dataclass
from typing import Union

import numpy as np

# solve takes a dense n x n Newton step (103 MB peak at n = 2000), so larger
# n is refused before anything is allocated.
MAX_N = 2000


@dataclass(frozen=True)
class CycleVector:
    """Strictly positive finite entries a_1..a_2n, cyclic indexing, n >= 4."""

    n: int
    entries: tuple[float, ...]

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"n must be >= 4, got {self.n}")
        if len(self.entries) != 2 * self.n:
            raise ValueError(f"expected {2 * self.n} entries, got {len(self.entries)}")
        if any(not e > 0 for e in self.entries):
            raise ValueError("entries must be strictly positive")
        if not all(math.isfinite(e) for e in self.entries):
            raise ValueError("entries must be finite")

    def odd(self) -> np.ndarray:
        """a_1, a_3, ..., a_{2n-1}."""
        return np.asarray(self.entries[0::2], dtype=float)

    def even(self) -> np.ndarray:
        """a_2, a_4, ..., a_{2n}."""
        return np.asarray(self.entries[1::2], dtype=float)


@dataclass(frozen=True)
class ResidualReport:
    odd_residuals: tuple[float, ...]
    even_residuals: tuple[float, ...]
    max_abs: float


@dataclass(frozen=True)
class ConvergenceRecord:
    converged: bool
    iterations: int
    residual: float


@dataclass(frozen=True)
class IdentityReport:
    sum_vs_reciprocal_defect: float   # |sum b - sum 4/b|
    squared_pair_sum_defect: float    # |n - sum (1/b_i + 1/b_{i+1})^2|
    even_sum_defect: float            # |sum b - 2n|
    slack: float                      # tolerance propagated from the residual bound
    ok: bool


@dataclass(frozen=True)
class MinMaxReport:
    minimum: float
    maximum: float
    spread: float                     # M - m
    lower_gap: float                  # m - (2/m + 2/M), >= -slack
    upper_gap: float                  # M - (2/m + 2/M), <= +slack
    slack: float
    ok: bool


def canonical_solution(n: int) -> CycleVector:
    """The alternating solution (1, 2, 1, 2, ...); its residual is exactly 0."""
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    return CycleVector(n, (1.0, 2.0) * n)


def residuals(v: CycleVector) -> ResidualReport:
    """Both residual families.  An entry near the float maximum, or so near 0
    that its reciprocal overflows, makes max_abs inf, without a warning."""
    odd = v.odd()
    even = v.even()
    prev_even = np.roll(even, 1)      # a_{2i-2} alongside a_{2i-1}
    next_odd = np.roll(odd, -1)       # a_{2i+1} alongside a_{2i}
    with np.errstate(over="ignore"):
        odd_res = odd - (1.0 / prev_even + 1.0 / even)
        even_res = even - (odd + next_odd)
    return ResidualReport(
        odd_residuals=tuple(odd_res.tolist()),
        even_residuals=tuple(even_res.tolist()),
        max_abs=float(np.max(np.abs(np.concatenate([odd_res, even_res])))),
    )


def reduced_even_residuals(v: CycleVector) -> tuple[float, ...]:
    """b_i - (1/b_{i-1} + 2/b_i + 1/b_{i+1}) for the even entries b."""
    return tuple(_reduced(v.even()).tolist())


def _reduced(b: np.ndarray) -> np.ndarray:
    return b - (1.0 / np.roll(b, 1) + 2.0 / b + 1.0 / np.roll(b, -1))


def _back_substitute(n: int, b: np.ndarray) -> CycleVector:
    """Full vector from even entries: a_{2i-1} = 1/b_{i-1} + 1/b_i."""
    odd = 1.0 / np.roll(b, 1) + 1.0 / b
    entries = np.empty(2 * n)
    entries[0::2] = odd
    entries[1::2] = b
    return CycleVector(n, tuple(entries.tolist()))


def _reduced_jacobian(b: np.ndarray) -> np.ndarray:
    n = len(b)
    jac = np.diag(1.0 + 2.0 / b**2)
    inv_sq = 1.0 / b**2
    for i in range(n):
        jac[i, (i - 1) % n] += inv_sq[(i - 1) % n]
        jac[i, (i + 1) % n] += inv_sq[(i + 1) % n]
    return jac


def random_start(n: int, seed: int) -> CycleVector:
    """Log-uniform entries in [0.1, 10], reproducible from the seed."""
    rng = np.random.default_rng(seed)
    entries = 10.0 ** rng.uniform(-1.0, 1.0, size=2 * n)
    return CycleVector(n, tuple(entries.tolist()))


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
    is reported in the record, never silently accepted.
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    if n > MAX_N:
        raise ValueError(f"n must be <= {MAX_N} (the Newton step is a dense n x n solve), "
                         f"got {n}")
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
        b = init.even()
    elif init is None:
        b = np.ones(n)
    else:
        b = random_start(n, init).even()

    g = _reduced(b)
    for iteration in range(1, max_iter + 1):
        step = np.linalg.solve(_reduced_jacobian(b), -g)
        norm = np.linalg.norm(g)
        lam = 1.0
        while lam > 1e-14:
            trial = b + lam * step
            if np.all(trial > 0):
                g_trial = _reduced(trial)
                if np.linalg.norm(g_trial) < norm or lam <= 1e-12:
                    b, g = trial, g_trial
                    break
            lam *= 0.5
        else:
            break  # step vanished: stalled
        if np.max(np.abs(g)) <= tol:
            return _back_substitute(n, b), ConvergenceRecord(
                True, iteration, float(np.max(np.abs(g)))
            )
    return _back_substitute(n, b), ConvergenceRecord(
        False, max_iter, float(np.max(np.abs(g)))
    )


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
    sum_defect = abs(float(np.sum(b) - np.sum(4.0 / b)))
    inv = 1.0 / b
    pair = inv + np.roll(inv, -1)
    square_defect = abs(float(n - np.sum(pair**2)))
    even_sum_defect = abs(float(np.sum(b) - 2 * n))
    slack = 3 * n * tol * max(1.0, 1.0 / float(np.min(b)) ** 2)
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
    m = float(np.min(b))
    big = float(np.max(b))
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
