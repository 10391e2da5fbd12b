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

A Trace holds its steps in columns, not one object per step: chunks of at
most CHUNK steps, each four equal-length sequences (target, rule code, u, v).
forced_trace builds each chunk from range slices only when the replay asks
for it, so a replay holds one chunk plus a bitmap of one byte per n.
"""

from __future__ import annotations

import functools
from itertools import count
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

BASE_ONE = "base_one"
BASE_TWO = "base_two"
ODD_DIFFERENCE = "odd_difference"
EVEN_DOUBLE = "even_double"
RULES = (BASE_ONE, BASE_TWO, ODD_DIFFERENCE, EVEN_DOUBLE)  # a rule's code is its index
_BASE_ONE, _BASE_TWO, _ODD, _EVEN = range(4)

CHUNK = 1 << 14          # steps per trace chunk; even, so every chunk starts at an odd target
MAX_TRACE_LIMIT = 10**8  # the replay bitmap takes one byte per n: 100 MB at the bound
BLOCK = 1 << 16          # characters parse_table reads at a time
MAX_VALUE_DIGITS = 2150  # so every f(a) f(b) stays within int's 4300-digit str() limit
_VALUE_BOUND = 10 ** MAX_VALUE_DIGITS
_SMALL = {str(i).encode(): i for i in range(1, 1000)}  # b"1" .. b"999": no b"0", no leading zero
_HUNDRED = ["", *(f"{i:02d} " for i in range(100))]  # str(q).join: "q00 q01 ... q99 "


class FunctionTable:
    """Values f(1..N) of a candidate function into the positive integers.

    Positivity is enforced at construction: the forcing step "product = 1
    implies both factors = 1" is only valid over positive integers.  A value
    may have at most MAX_VALUE_DIGITS digits, so that every product the
    checker reports can be written out in decimal.
    """

    __slots__ = ("limit", "_values")

    def __init__(self, values: dict[int, int] | list[int]):
        if not values:
            raise ValueError("empty table")
        if isinstance(values, dict):
            # a dict of k entries is a table only if it holds n = 1..k; the
            # probe stops at the first gap, so a one-line table may name a huge n
            try:
                values = [values[n] for n in range(1, len(values) + 1)]
            except KeyError as exc:
                raise ValueError(f"table has no value for n = {exc.args[0]}") from None
        seq = [0, *values]
        limit = len(values)
        low, high = min(values), max(values)
        if low < 1 or high >= _VALUE_BOUND:
            n = next(n for n in range(1, limit + 1) if not 0 < seq[n] < _VALUE_BOUND)
            if abs(seq[n]) >= _VALUE_BOUND:
                raise ValueError(f"f({n}) has more than {MAX_VALUE_DIGITS} digits")
            raise ValueError(f"f({n}) = {seq[n]} is not a positive integer")
        self.limit = limit
        self._values = seq

    def __call__(self, n: int) -> int:
        return self._values[n]


class Violation(NamedTuple):
    kind: str                    # "sum_rule" or "square_rule"
    witnesses: tuple[int, ...]   # (a, b) for sum_rule, (a,) for square_rule
    lhs: int
    rhs: int


class DerivationStep(NamedTuple):
    target: int
    rule: str
    params: Optional[tuple[int, int]]


Chunk = tuple[Sequence[int], Sequence[int], Sequence[Optional[int]], Sequence[int]]


class Trace:
    """Derivation steps in chunks of four columns: target, rule code, u, v.

    The code indexes `names` (RULES, then any unknown rule names of a
    hand-written trace).  A step without parameters has u = None and v = 0.
    `size` is the largest target, the size of the replay's bitmap.
    Iterating a trace reads its steps back as DerivationSteps.
    """

    __slots__ = ("_len", "size", "names", "chunks")

    def __init__(self, length: int, size: int, chunks: Callable[[], Iterable[Chunk]],
                 names: tuple[str, ...] = RULES):
        self._len = length
        self.size = size
        self.names = names
        self.chunks = chunks

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[DerivationStep]:
        for targets, codes, us, vs in self.chunks():
            for target, code, u, v in zip(targets, codes, us, vs):
                yield DerivationStep(target, self.names[code], None if u is None else (u, v))


class ReplayResult(NamedTuple):
    ok: bool
    failed_index: Optional[int]
    reason: Optional[str]
    derived: int
    rule_counts: dict[str, int]  # steps accepted per rule, in order of first use


def check_table(table: FunctionTable) -> list[Violation]:
    """All violations of the two conditions visible within the table's range.

    sum_rule instances are the unordered pairs (a, b), a <= b, with
    a^2 + b^2 <= N; square_rule instances are the a with a^2 <= N.
    Violations are reported in lexicographic witness order, sum rule first,
    so mutation tests see every broken constraint rather than only the first.
    """
    n = table.limit
    f = table._values
    out: list[Violation] = []
    a = 1
    while 2 * a * a <= n:
        a2, fa = a * a, f[a]
        b = a
        while a2 + b * b <= n:
            lhs, rhs = f[a2 + b * b], fa * f[b]
            if lhs != rhs:
                out.append(Violation("sum_rule", (a, b), lhs, rhs))
            b += 1
        a += 1
    a = 1
    while a * a <= n:
        lhs, rhs = f[a * a], f[a] ** 2
        if lhs != rhs:
            out.append(Violation("square_rule", (a,), lhs, rhs))
        a += 1
    return out


def forced_trace(limit: int) -> Trace:
    """Derivation forcing f(n) = 1 for every n in [1..limit], in order.

    n = 1 from f(1) = f(1)^2; n = 2 from f(2) = f(1)^2; odd n = 2k+1 >= 3
    via (u, v) = (k+1, k); even n = 2k >= 4 via (u, v) = (k, 1).  Every
    step's parameters are strictly smaller than its target, so they are
    always derived first.  The chunks are built when the trace is read.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > MAX_TRACE_LIMIT:
        raise ValueError(f"limit must be <= {MAX_TRACE_LIMIT} (the replay keeps one byte "
                         f"per n), got {limit}")
    return Trace(limit, limit, functools.partial(_forced_chunks, limit))


def _forced_chunks(limit: int) -> Iterator[Chunk]:
    for lo in range(1, limit + 1, CHUNK):
        m = min(CHUNK, limit + 1 - lo)
        k, odd = lo // 2, (m + 1) // 2     # lo = 2k + 1; odd targets sit at even offsets
        codes = (bytearray((_ODD, _EVEN)) * odd)[:m]
        us, vs = [0] * m, [1] * m
        us[0::2] = range(k + 1, k + 1 + odd)       # 2j + 1 -> (j + 1, j)
        vs[0::2] = range(k, k + odd)
        us[1::2] = range(k + 1, k + 1 + m // 2)    # 2j -> (j, 1)
        if lo == 1:
            codes[:2] = bytes((_BASE_ONE, _BASE_TWO))[:m]
            us[:2] = [None, None][:m]
            vs[:2] = [0, 0][:m]
        yield range(lo, lo + m), codes, us, vs


def replay_trace(trace: Trace) -> ReplayResult:
    """Independently verify a derivation trace step by step.

    Checks, per step: the rule's arithmetic formula matches the target,
    u > v >= 1, and every cited parameter was derived by an earlier step,
    in an earlier chunk or earlier in this one.  Only the step's stated
    target is marked derived (the companion value produced by the
    two-factor identity is not recorded).  Returns the first failing step on
    failure, and counts the accepted steps per rule.
    """
    if not len(trace):
        return ReplayResult(False, None, "empty trace", 0, {})
    derived = bytearray(trace.size + 1)
    names = trace.names
    rule_counts: dict[str, int] = {}
    start = 0

    def fail(i: int, why: str) -> ReplayResult:  # codes and start are the current chunk's
        _count_rules(rule_counts, names, codes[:i - start])
        return ReplayResult(False, i, why, derived.count(1), rule_counts)

    for targets, codes, us, vs in trace.chunks():
        for i, target, code, u, v in zip(count(start), targets, codes, us, vs):
            if target < 1:
                return fail(i, f"target {target} is not a positive integer")
            if code == _ODD or code == _EVEN:
                if u is None:
                    return fail(i, f"{names[code]} requires parameters (u, v)")
                if not (u > v >= 1):
                    return fail(i, f"need u > v >= 1, got (u, v) = ({u}, {v})")
                expected = u * u - v * v if code == _ODD else 2 * u * v
                if target != expected:
                    return fail(i, f"target {target} != rule value {expected}")
                # u < target <= size, so derived[u] exists
                if not derived[u]:
                    return fail(i, f"parameter {u} not derived before step {i}")
                if not derived[v]:
                    return fail(i, f"parameter {v} not derived before step {i}")
            elif code == _BASE_ONE:
                if target != 1:
                    return fail(i, "base_one only derives n = 1")
            elif code == _BASE_TWO:
                if target != 2:
                    return fail(i, "base_two only derives n = 2")
                if not derived[1]:
                    return fail(i, "base_two requires 1 derived first")
            else:
                return fail(i, f"unknown rule {names[code]!r}")
            derived[target] = 1
        _count_rules(rule_counts, names, codes)
        start += len(codes)
    return ReplayResult(True, None, None, derived.count(1), rule_counts)


def _count_rules(rule_counts: dict[str, int], names: tuple[str, ...],
                 codes: Sequence[int]) -> None:
    for code in sorted(set(codes), key=codes.index):
        rule_counts[names[code]] = rule_counts.get(names[code], 0) + codes.count(code)


def parse_table(text: str) -> FunctionTable:
    """Parse "n value" lines (blank lines and #-comments ignored).

    Two readers.  The block reader takes a table of plain lines, "n value\n"
    in ASCII digits with one space, listing n = 1, 2, ... in order.  It reads
    blocks of about BLOCK characters, each cut right after a line feed (one
    is added to a text that does not end in one), so a block's lines are
    those of the whole text.  Each block is encoded once and tested as bytes.
    A block is plain when, with its digits deleted, it is b" \n" repeated,
    one pair per two tokens of its split(); its n tokens must then equal
    str(lo), str(lo + 1), ..., which one comparison of the space-joined
    tokens with _n_column tests, and only its value column is converted.
    Value tokens 1 to 999 without a leading zero are looked up in _SMALL;
    a block holding any other value token is converted again with int.  Any
    other text (comments, blank lines, CRLF ends, a leading zero in n, a
    value past int's 4300-digit limit, an n out of order, or a malformed
    line) is read by _parse_lines.  10^5 lines take about 12 ms plain with
    values 1 to 999, 23 ms plain with values past 999, 66 ms with CRLF ends,
    72 ms with a comment on each line, and 67 ms reversed (best of 30,
    2-vCPU Xeon VM, Python 3.11).
    """
    if not text.endswith("\n"):
        text += "\n"
    values: list[int] = []
    start = 0
    while start < len(text):
        cut = text.find("\n", start + BLOCK) + 1 or len(text)
        block = text[start:cut].encode()
        start = cut
        seps = block.translate(None, b"0123456789")
        lo, k = len(values) + 1, len(seps) // 2
        if not (seps.count(b" \n") * 2 == len(seps) == len(tokens := block.split())
                and b" ".join(tokens[0::2]).decode() + " " == _n_column(lo, lo + k)):
            return _parse_lines(text)
        try:
            values += map(_SMALL.__getitem__, tokens[1::2])
        except KeyError:  # a value outside 1..999, or one with a leading zero
            del values[lo - 1:]
            try:
                values += map(int, tokens[1::2])
            except ValueError:  # a value past int's 4300-digit limit
                return _parse_lines(text)
    return FunctionTable(values)


def _n_column(lo: int, hi: int) -> str:
    """The "%d " formatting of each n in range(lo, hi), with one str() for
    each full hundred 100q .. 100q + 99 (q >= 1) instead of one per n."""
    first, last = max(-(-lo // 100), 1), hi // 100  # the full hundreds are q in [first, last)
    if first >= last:
        return "%d " * (hi - lo) % tuple(range(lo, hi))
    return ("%d " * (100 * first - lo) % tuple(range(lo, 100 * first))
            + "".join([str(q).join(_HUNDRED) for q in range(first, last)])
            + "%d " * (hi - 100 * last) % tuple(range(100 * last, hi)))


def _parse_lines(text: str) -> FunctionTable:
    """Parse line by line into a dict, for a table the block reader does not
    take; an error names the first offending physical line."""
    values: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
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
