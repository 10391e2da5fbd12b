"""The Problem 1 table check by brute force, used only by the tests.

jmokit.funceq.check_table tests only the instances that touch a value other
than 1 when a table has few of them, and every instance otherwise.  This
module shares no code with it: it reads the values into a plain dict and
tries every pair (a, b) with a <= b and a^2 + b^2 <= N, then every a with
a^2 <= N.  Test files import this module by name: pytest puts tests/ on
sys.path.
"""

from __future__ import annotations


def reference_check_table(values: list[int]) -> list[tuple]:
    """(kind, witnesses, lhs, rhs) of every violation of f(a^2 + b^2) =
    f(a) f(b) and f(a^2) = f(a)^2 on the table f(n) = values[n - 1], in
    witness order, sum rule first."""
    f = dict(enumerate(values, start=1))
    size = len(values)
    found = []
    for a in range(1, size + 1):
        for b in range(a, size + 1):
            if a * a + b * b > size:
                break
            if f[a * a + b * b] != f[a] * f[b]:
                found.append(("sum_rule", (a, b), f[a * a + b * b], f[a] * f[b]))
    for a in range(1, size + 1):
        if a * a > size:
            break
        if f[a * a] != f[a] * f[a]:
            found.append(("square_rule", (a,), f[a * a], f[a] * f[a]))
    return found
