"""Checker and induction trace for the positive-integer functional equation
f(a^2 + b^2) = f(a) f(b),  f(a^2) = f(a)^2.

The only function satisfying both conditions is the constant 1.  check_table
tests a finite table f(1..N) against every instance of the two conditions
that fits inside [1..N].  forced_trace reproduces the induction that pins
f(n) = 1 for every n: the base cases n = 1, 2, then for odd n = 2k+1 the
difference-of-squares route n = (k+1)^2 - k^2, and for even n = 2k the
doubling route n = 2*k*1.  Both routes rest on the identity

    (u^2 - v^2)^2 + (2uv)^2 = (u^2 + v^2)^2        (u > v >= 1)

which, combined with the two conditions, gives
f(u^2 - v^2) * f(2uv) = (f(u) f(v))^2; a product of positive integers equal
to 1 forces both factors to 1.  replay_trace re-verifies every arithmetic
side condition of a trace independently of the generator.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

BASE_ONE = "base_one"
BASE_TWO = "base_two"
ODD_DIFFERENCE = "odd_difference"
EVEN_DOUBLE = "even_double"


class FunctionTable:
    """Values f(1..N) of a candidate function into the positive integers.

    Positivity is enforced at construction: the forcing step "product = 1
    implies both factors = 1" is only valid over positive integers.
    """

    __slots__ = ("limit", "_values")

    def __init__(self, values: dict[int, int] | list[int]):
        if isinstance(values, dict):
            if not values:
                raise ValueError("empty table")
            limit = max(values)
            if len(values) != limit:
                # probe before allocating: one-line tables can name a huge n
                missing = next(n for n in range(1, len(values) + 2) if n not in values)
                raise ValueError(f"table has no value for n = {missing}")
            seq = [0] * (limit + 1)
            for n, v in values.items():
                seq[n] = v
        else:
            seq = [0] + list(values)
            limit = len(seq) - 1
            if limit == 0:
                raise ValueError("empty table")
        for n in range(1, limit + 1):
            if seq[n] < 1:
                raise ValueError(f"f({n}) = {seq[n]} is not a positive integer")
        self.limit = limit
        self._values = seq

    @classmethod
    def constant(cls, limit: int, value: int = 1) -> "FunctionTable":
        return cls([value] * limit)

    def __call__(self, n: int) -> int:
        return self._values[n]

    def with_value(self, n: int, value: int) -> "FunctionTable":
        """Copy of the table with f(n) replaced."""
        seq = self._values[1:]
        seq[n - 1] = value
        return FunctionTable(seq)


class Violation(NamedTuple):
    kind: str                    # "sum_rule" or "square_rule"
    witnesses: tuple[int, ...]   # (a, b) for sum_rule, (a,) for square_rule
    lhs: int
    rhs: int


class DerivationStep(NamedTuple):
    target: int
    rule: str
    params: Optional[tuple[int, int]]


class ReplayResult(NamedTuple):
    ok: bool
    failed_index: Optional[int]
    reason: Optional[str]
    derived: int


def check_table(table: FunctionTable) -> list[Violation]:
    """All violations of the two conditions visible within the table's range.

    sum_rule instances are the unordered pairs (a, b), a <= b, with
    a^2 + b^2 <= N; square_rule instances are the a with a^2 <= N.
    Violations are reported in lexicographic witness order, sum rule first,
    so mutation tests see every broken constraint rather than only the first.
    """
    n = table.limit
    f = table
    out: list[Violation] = []
    a = 1
    while 2 * a * a <= n:
        b = a
        while a * a + b * b <= n:
            lhs = f(a * a + b * b)
            rhs = f(a) * f(b)
            if lhs != rhs:
                out.append(Violation("sum_rule", (a, b), lhs, rhs))
            b += 1
        a += 1
    a = 1
    while a * a <= n:
        lhs = f(a * a)
        rhs = f(a) ** 2
        if lhs != rhs:
            out.append(Violation("square_rule", (a,), lhs, rhs))
        a += 1
    return out


def forced_trace(limit: int) -> list[DerivationStep]:
    """Derivation forcing f(n) = 1 for every n in [1..limit], in order.

    n = 1 from f(1) = f(1)^2; n = 2 from f(2) = f(1)^2; odd n = 2k+1 >= 3
    via (u, v) = (k+1, k); even n = 2k >= 4 via (u, v) = (k, 1).  Every
    step's parameters are strictly smaller than its target, so they are
    always derived first.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    steps: list[DerivationStep] = [DerivationStep(1, BASE_ONE, None)]
    if limit >= 2:
        steps.append(DerivationStep(2, BASE_TWO, None))
    for target in range(3, limit + 1):
        if target % 2:
            k = target // 2
            steps.append(DerivationStep(target, ODD_DIFFERENCE, (k + 1, k)))
        else:
            steps.append(DerivationStep(target, EVEN_DOUBLE, (target // 2, 1)))
    return steps


def replay_trace(trace: list[DerivationStep]) -> ReplayResult:
    """Independently verify a derivation trace step by step.

    Checks, per step: the rule's arithmetic formula matches the target,
    u > v >= 1, and every cited parameter was derived by an earlier step.
    Only the step's stated target is marked derived (the companion value
    produced by the two-factor identity is not recorded).  Returns the
    first failing step on failure.
    """
    if not trace:
        return ReplayResult(False, None, "empty trace", 0)
    size = max(step.target for step in trace)
    derived = bytearray(size + 1)

    def fail(i: int, why: str) -> ReplayResult:
        return ReplayResult(False, i, why, sum(derived))

    for i, step in enumerate(trace):
        target, rule, params = step
        if target < 1:
            return fail(i, f"target {target} is not a positive integer")
        if rule == BASE_ONE:
            if target != 1:
                return fail(i, "base_one only derives n = 1")
        elif rule == BASE_TWO:
            if target != 2:
                return fail(i, "base_two only derives n = 2")
            if not derived[1]:
                return fail(i, "base_two requires 1 derived first")
        elif rule in (ODD_DIFFERENCE, EVEN_DOUBLE):
            if params is None:
                return fail(i, f"{rule} requires parameters (u, v)")
            u, v = params
            if not (u > v >= 1):
                return fail(i, f"need u > v >= 1, got (u, v) = ({u}, {v})")
            expected = u * u - v * v if rule == ODD_DIFFERENCE else 2 * u * v
            if target != expected:
                return fail(i, f"target {target} != rule value {expected}")
            if u > size or not derived[u]:
                return fail(i, f"parameter {u} not derived before step {i}")
            if not derived[v]:
                return fail(i, f"parameter {v} not derived before step {i}")
        else:
            return fail(i, f"unknown rule {rule!r}")
        derived[target] = 1

    return ReplayResult(True, None, None, sum(derived))


def parse_table(text: str) -> FunctionTable:
    """Parse "n value" lines (blank lines and #-comments ignored)."""
    values: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'n value', got {raw!r}")
        try:
            n, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        if n < 1:
            raise ValueError(f"line {lineno}: n = {n} is not a positive integer")
        if n in values:
            raise ValueError(f"line {lineno}: duplicate entry for n = {n}")
        values[n] = v
    return FunctionTable(values)
