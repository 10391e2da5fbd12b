import functools
import itertools
import random
import sys
import tracemalloc

import pytest
from funceq_reference import reference_check_table

from jmokit import funceq
from jmokit.funceq import (
    BASE_ONE,
    BASE_TWO,
    CHUNK,
    EVEN_DOUBLE,
    MAX_TRACE_LIMIT,
    MAX_VALUE_DIGITS,
    ODD_DIFFERENCE,
    RULES,
    DerivationStep,
    FunctionTable,
    Trace,
    check_table,
    forced_trace,
    parse_table,
    replay_trace,
)


def with_value(table, n, value):
    """Copy of the table with f(n) replaced."""
    return FunctionTable([value if k == n else table(k) for k in range(1, table.limit + 1)])


def trace_from_steps(steps):
    """A hand-written trace in forced_trace's chunked column form; a rule
    name outside RULES gets a code past them."""
    steps = list(steps)
    names = list(dict.fromkeys([*RULES, *(s.rule for s in steps)]))
    columns = ([s.target for s in steps], [names.index(s.rule) for s in steps],
               [None if s.params is None else s.params[0] for s in steps],
               [0 if s.params is None else s.params[1] for s in steps])
    chunks = [tuple(column[lo:lo + CHUNK] for column in columns)
              for lo in range(0, len(steps), CHUNK)]
    return Trace(len(steps), max([0, *columns[0]]), chunks.__iter__, tuple(names))


def test_constant_table_has_no_violations():
    assert check_table(FunctionTable([1] * 100)) == []


def test_sum_rule_violation():
    # 5 = 1^2 + 2^2 and f(1) f(2) = 1, so f(5) = 2 breaks the sum rule
    table = with_value(FunctionTable([1] * 10), 5, 2)
    violations = check_table(table)
    assert any(
        v.kind == "sum_rule" and v.witnesses == (1, 2) and v.lhs == 2 and v.rhs == 1
        for v in violations
    )


def test_square_rule_violation():
    # f(2^2) = 3 but f(2)^2 = 1
    table = with_value(FunctionTable([1] * 10), 4, 3)
    violations = check_table(table)
    assert any(v.kind == "square_rule" and v.witnesses == (2,) for v in violations)


def test_table_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        FunctionTable([1, 0, 1])
    with pytest.raises(ValueError):
        FunctionTable({1: 1, 2: -3})
    # the error names the first bad n, not the least value
    with pytest.raises(ValueError, match=r"^f\(3\) = 0 is not"):
        FunctionTable([1, 1, 0, -7, 0])
    with pytest.raises(ValueError, match=r"^f\(2\) = -1 is not"):
        FunctionTable({3: -9, 1: 1, 2: -1})
    assert FunctionTable([1, 2, 1]).limit == 3


def test_table_rejects_values_past_the_digit_bound():
    # every f(a) f(b) of an accepted table has at most 4300 digits, so it can
    # be written out; a larger value is refused by every constructor, naming n
    big = 10 ** MAX_VALUE_DIGITS
    message = rf"^f\(2\) has more than {MAX_VALUE_DIGITS} digits$"
    for build in (lambda: FunctionTable([1, big, 1]), lambda: FunctionTable({2: big, 1: 1}),
                  lambda: FunctionTable([1, -big]), lambda: FunctionTable([1, 10**5000]),
                  lambda: parse_table("1 1\n2 1" + "0" * MAX_VALUE_DIGITS + "\n")):
        with pytest.raises(ValueError, match=message):
            build()
    with pytest.raises(ValueError, match=rf"^f\(1\) has more than {MAX_VALUE_DIGITS} digits$"):
        FunctionTable([big] * 3)
    # the first bad n is named, whichever bound it breaks
    with pytest.raises(ValueError, match=r"^f\(2\) = 0 is not"):
        FunctionTable([1, 0, big])
    [violation] = check_table(FunctionTable([big - 1]))
    assert violation.kind == "square_rule"
    assert len(str(violation.rhs)) == 2 * MAX_VALUE_DIGITS


def test_table_rejects_gaps():
    for values, missing in (({1: 1, 3: 1}, 2), ({10**9: 1}, 1), ({2: 1, 3: 1, 10**12: 1}, 1),
                            ({n: 1 for n in range(1, 50)} | {10**9: 1}, 50)):
        with pytest.raises(ValueError, match=f"no value for n = {missing}$"):
            FunctionTable(values)


def test_table_rejects_keys_outside_one_to_n():
    # two entries that are not n = 1, 2 leave a gap, even when the largest key is 2
    with pytest.raises(ValueError, match="^table has no value for n = 1$"):
        FunctionTable({0: 1, 2: 1})


def test_forced_trace_base_cases():
    trace = forced_trace(2)
    assert [s.rule for s in trace] == [BASE_ONE, BASE_TWO]
    assert [s.target for s in trace] == [1, 2]


def test_forced_trace_odd_step():
    # 7 = 4^2 - 3^2
    step = list(forced_trace(7))[-1]
    assert step == DerivationStep(7, ODD_DIFFERENCE, (4, 3))


def test_forced_trace_even_step():
    # 8 = 2 * 4 * 1
    step = list(forced_trace(8))[-1]
    assert step == DerivationStep(8, EVEN_DOUBLE, (4, 1))


def test_replay_accepts_generator_output():
    result = replay_trace(forced_trace(100))
    assert result.ok
    assert result.derived == 100


def test_replay_rejects_u_not_greater_than_v():
    trace = trace_from_steps([*forced_trace(5), DerivationStep(5, ODD_DIFFERENCE, (3, 3))])
    result = replay_trace(trace)
    assert not result.ok
    assert result.failed_index == len(trace) - 1
    assert result.reason == "need u > v >= 1, got (u, v) = (3, 3)"


def test_replay_rejects_out_of_order_dependencies():
    # derive 9 = 5^2 - 4^2 before 4 and 5 exist
    trace = trace_from_steps([
        DerivationStep(1, BASE_ONE, None),
        DerivationStep(2, BASE_TWO, None),
        DerivationStep(3, ODD_DIFFERENCE, (2, 1)),
        DerivationStep(9, ODD_DIFFERENCE, (5, 4)),
    ])
    result = replay_trace(trace)
    assert not result.ok
    assert result.failed_index == 3
    assert result.reason == "parameter 5 not derived before step 3"


def test_replay_rejects_wrong_formula():
    trace = trace_from_steps([
        DerivationStep(1, BASE_ONE, None),
        DerivationStep(2, BASE_TWO, None),
        DerivationStep(6, ODD_DIFFERENCE, (2, 1)),  # 2^2 - 1^2 = 3, not 6
    ])
    result = replay_trace(trace)
    assert not result.ok and result.failed_index == 2
    assert result.reason == "target 6 != rule value 3"


def test_replay_rejects_empty_trace():
    result = replay_trace(trace_from_steps([]))
    assert (result.ok, result.reason) == (False, "empty trace")


def test_trace_and_checker_agree_up_to_1000():
    for limit in range(1, 1001):
        assert replay_trace(forced_trace(limit)).ok
    assert check_table(FunctionTable([1] * 1000)) == []


def test_single_point_mutations_are_caught():
    rng = random.Random(11)
    base = FunctionTable([1] * 1000)
    for _ in range(50):
        n = rng.randint(1, 31)
        value = rng.randint(2, 9)
        assert check_table(with_value(base, n, value)), f"mutation at {n} undetected"


def test_pythagorean_identity_exact():
    for u in range(2, 101):
        for v in range(1, u):
            assert (u * u - v * v) ** 2 + (2 * u * v) ** 2 == (u * u + v * v) ** 2


def test_parse_table():
    table = parse_table("1 1\n2 1\n# comment\n3 5\n")
    assert table.limit == 3
    assert table(3) == 5
    with pytest.raises(ValueError):
        parse_table("1 1\n1 2\n")
    with pytest.raises(ValueError):
        parse_table("1\n")


# -- the chunked trace -------------------------------------------------------


def reference_forced_steps(limit):
    """forced_trace before traces were chunked: one DerivationStep per n."""
    steps = [DerivationStep(1, BASE_ONE, None)]
    if limit >= 2:
        steps.append(DerivationStep(2, BASE_TWO, None))
    for target in range(3, limit + 1):
        k = target // 2
        if target % 2:
            steps.append(DerivationStep(target, ODD_DIFFERENCE, (k + 1, k)))
        else:
            steps.append(DerivationStep(target, EVEN_DOUBLE, (k, 1)))
    return steps


def reference_replay(steps):
    """replay_trace before traces were chunked, over a list of steps."""
    if not steps:
        return (False, None, "empty trace", 0)
    size = max(step.target for step in steps)
    derived = bytearray(size + 1)

    def fail(i, why):
        return (False, i, why, sum(derived))

    for i, (target, rule, params) in enumerate(steps):
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
    return (True, None, None, sum(derived))


def replay_outcome(steps):
    result = replay_trace(trace_from_steps(steps))
    assert sum(result.rule_counts.values()) == (len(steps) if result.ok else
                                                result.failed_index or 0)
    return result[:4]


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 5, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_forced_trace_reads_back_as_the_per_step_generator(limit):
    trace = forced_trace(limit)
    assert len(trace) == limit
    assert list(trace) == reference_forced_steps(limit)
    sizes = [{len(column) for column in chunk} for chunk in trace.chunks()]
    assert sizes == [{min(CHUNK, limit - lo)} for lo in range(0, limit, CHUNK)]


def test_forced_trace_is_built_when_read():
    assert len(forced_trace(MAX_TRACE_LIMIT)) == MAX_TRACE_LIMIT
    with pytest.raises(ValueError, match=f"limit must be <= {MAX_TRACE_LIMIT}"):
        forced_trace(MAX_TRACE_LIMIT + 1)
    with pytest.raises(ValueError, match="limit must be >= 1"):
        forced_trace(0)


def test_replay_counts_rules_in_order_of_first_use():
    n = 2 * CHUNK + 3
    result = replay_trace(forced_trace(n))
    assert result.ok and result.derived == n
    assert list(result.rule_counts.items()) == [
        (BASE_ONE, 1), (BASE_TWO, 1), (ODD_DIFFERENCE, (n - 1) // 2), (EVEN_DOUBLE, n // 2 - 1)]
    assert list(replay_trace(forced_trace(3)).rule_counts) == [BASE_ONE, BASE_TWO, ODD_DIFFERENCE]
    assert replay_trace(trace_from_steps(reference_forced_steps(n))) == result


def edited_forced_steps(limit, edits):
    steps = reference_forced_steps(limit)
    for index, step in edits.items():
        steps[index] = step
    return steps


@pytest.mark.parametrize("edits, index, reason", [
    pytest.param({CHUNK: DerivationStep(4 * CHUNK, EVEN_DOUBLE, (2 * CHUNK, 1))}, CHUNK,
                 f"parameter {2 * CHUNK} not derived before step {CHUNK}",
                 id="derived-later-in-the-same-chunk"),
    pytest.param({CHUNK - 1: DerivationStep(2 * CHUNK + 2, EVEN_DOUBLE, (CHUNK + 1, 1))},
                 CHUNK - 1, f"parameter {CHUNK + 1} not derived before step {CHUNK - 1}",
                 id="first-derived-in-the-next-chunk"),
    pytest.param({2 * CHUNK + 4: DerivationStep(2 * CHUNK + 5, "triple_sum", (3, 1))},
                 2 * CHUNK + 4, "unknown rule 'triple_sum'", id="unknown-rule-in-partial-chunk"),
    pytest.param({CHUNK: DerivationStep(CHUNK + 3, ODD_DIFFERENCE, (CHUNK // 2 + 1, CHUNK // 2))},
                 CHUNK, f"target {CHUNK + 3} != rule value {CHUNK + 1}",
                 id="wrong-target-first-in-chunk"),
])
def test_replay_rejects_at_chunk_edges(edits, index, reason):
    steps = edited_forced_steps(2 * CHUNK + 5, edits)
    result = replay_trace(trace_from_steps(steps))
    assert (result.ok, result.failed_index, result.reason) == (False, index, reason)
    assert result.derived == index == sum(result.rule_counts.values())
    assert result[:4] == reference_replay(steps)


def test_replay_reasons_match_the_per_step_replay():
    one, two = DerivationStep(1, BASE_ONE, None), DerivationStep(2, BASE_TWO, None)
    cases = [
        [DerivationStep(2, BASE_ONE, None)],
        [two],
        [one, DerivationStep(3, BASE_TWO, None)],
        [one, two, DerivationStep(0, ODD_DIFFERENCE, (2, 1))],
        [one, two, DerivationStep(-3, EVEN_DOUBLE, None)],
        [one, two, DerivationStep(3, ODD_DIFFERENCE, None)],
        [one, two, DerivationStep(3, ODD_DIFFERENCE, (0, 0))],
        [one, two, DerivationStep(3, EVEN_DOUBLE, (1, 2))],
        [one, two, DerivationStep(-3, ODD_DIFFERENCE, (1, 2))],
        [one, two, DerivationStep(0, ODD_DIFFERENCE, (2, 2))],
        [one, two, DerivationStep(4, ODD_DIFFERENCE, (2, 0))],
        [one, two, DerivationStep(3, ODD_DIFFERENCE, (2, -1))],
        [one, two, DerivationStep(3, ODD_DIFFERENCE, (2, 1)),
         DerivationStep(5, ODD_DIFFERENCE, (3, 2)), DerivationStep(9, ODD_DIFFERENCE, (5, 4))],
        [one, two, DerivationStep(4, EVEN_DOUBLE, (2, 1)), DerivationStep(4, EVEN_DOUBLE, (2, 1))],
        [one, DerivationStep(2, "base_three", None)],
        [one, one, two],
    ]
    rng = random.Random(9)
    for _ in range(300):
        steps = reference_forced_steps(rng.randint(1, 60))
        i = rng.randrange(len(steps))
        target, rule, params = steps[i]
        field = rng.randrange(3)
        if field == 0:
            target += rng.choice([-2, -1, 1, 2])
        elif field == 1:
            rule = rng.choice([BASE_ONE, BASE_TWO, ODD_DIFFERENCE, EVEN_DOUBLE, "other"])
        else:
            params = rng.choice([None, (1, 1), (1, 2), (2, 1), (target, 1), (i + 3, i + 1),
                                 params and params[::-1]])
        steps[i] = DerivationStep(target, rule, params)
        if rng.random() < 0.3:
            j = rng.randrange(len(steps))
            steps[i], steps[j] = steps[j], steps[i]
        cases.append(steps)
    for steps in cases:
        assert replay_outcome(steps) == reference_replay(steps), steps


# -- the one-split table parse -------------------------------------------------


def reference_parse_table(text):
    """parse_table before the one-split parse: line by line into a dict."""
    values = {}
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


def parse_outcome(parse, text):
    try:
        table = parse(text)
    except ValueError as exc:
        return str(exc)
    return [table(n) for n in range(1, table.limit + 1)]


MALFORMED_TABLES = [
    "", "\n\n", "# only a comment\n", "1 1\n2 1\n# comment\n3 5\n",
    "# head\n\n1 1 # one\n  2\t1  \n\n3 1#c\n", "1 1 # a # b\n2 1", "#1 1\n1 1\n", "1 #1\n",
    "1 1\r\n2 1\r\n3 1\r\n", "1 1\r\n2 x\r\n", "#\r1 1\n", "1 1\r2 1\r",
    "1 1\x0c2 1\x0c3 1\n", "1 1\x0c2\x0c", "1 1 2 1 ", "1 1 2 3 1 1\n",
    "1 1\x0b2 1\n", "1 1\x1c2 1\x1d3 1\x1e", "1 1\x852 1 ", "1\x1f1\n", "1\xa01\n",
    "1 1\n2\n1 3 1\n", "1 1\n2\n", "1 1 1\n", "1\n", "1 1\n1 1 1\n",
    "1 1\n2 two\n", "1 1.5\n", "x 1\n", "9" * 5000 + " 1\n", "１ 1\n", "1_0 1\n",
    "0 5\n1 1\n", "-5 1\n", "1 1\n2 1\n1 1\n", "1 1\n3 1\n", "2 1\n3 1\n",
    "3 1\n1 1\n2 1\n", "2 7\n1 1\n", "1 1\n2 0\n", "1 -1\n", "1 1\n3 0\n",
    "1000000000 1\n", "1 1\n1000000000 1\n",
    # traps for the separator shape test: each has plain-looking separators
    "1 \n2", " 1 1\n", "1 1 \n", "1  1\n", "01 1\n2 1\n", "1 1\n2 1", "1 1\n\n2 1\n",
    "1 1\n2 1\r\n",
    # a value past int's 4300-digit limit
    "1 " + "9" * 5000 + "\n",
    # value tokens outside the block reader's 1..999 lookup, and 999, on line
    # 2, 4 or 6 of six: with BLOCK from 1 to 7 each is the last line of its
    # block, lines 4 and 6 of a later block, and line 6 of the last block
    *("".join(f"{k} {value if k == at else 1}\n" for k in range(1, 7))
      for value in ["0", "00", "01", "999", "1000", "9" * 2150, "9" * 2151, "9" * 5000]
      for at in (2, 4, 6)),
]


@pytest.mark.parametrize("text", MALFORMED_TABLES)
def test_parse_table_matches_line_parser_on_hand_picked_input(text):
    assert parse_outcome(parse_table, text) == parse_outcome(reference_parse_table, text)


def random_table_text(rng):
    n = rng.randint(1, 40)
    entries = [[str(k), str(rng.choice([1, 1, 1, 2, 3]))] for k in range(1, n + 1)]
    if rng.random() < 0.3:
        rng.shuffle(entries)
    for _ in range(rng.choice([0, 0, 1, 2])):
        i = rng.randrange(len(entries))
        kind = rng.randrange(8)
        if len(entries[i]) != 2 or len(entries) == 1:
            continue
        if kind == 0:
            del entries[i]
        elif kind == 1:
            entries.insert(rng.randrange(len(entries) + 1), list(entries[i]))
        elif kind == 2:
            entries[i] = entries[i][:1]
        elif kind == 3:
            entries[i] = entries[i] + ["1"]
        elif kind == 4:
            entries[i][rng.randrange(2)] = rng.choice(["x", "1.0", "", "0x1"])
        elif kind == 5:
            entries[i][0] = str(rng.choice([0, -1, 10**9]))
        elif kind == 6:
            entries[i][1] = str(rng.choice([0, -2]))
        else:
            entries.insert(i, [])
    gaps, breaks = [" ", "\t", "  ", " \x1f"], ["\n", "\r\n", "\r", "\x0c", " ", "\x85"]
    lines = []
    for fields in entries:
        line = rng.choice(gaps).join(fields)
        if rng.random() < 0.1:
            line = " " + line + rng.choice(["", " # note", "#"])
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "# comment", "  "]))
    return rng.choice(breaks).join(lines) + rng.choice(["", "\n"])


def test_parse_table_matches_line_parser_on_random_tables():
    rng = random.Random(2021)
    for _ in range(1500):
        text = random_table_text(rng)
        assert parse_outcome(parse_table, text) == parse_outcome(reference_parse_table, text), text


def edited_table_text(rng):
    """An "n v\n" table with one to three single-character edits (insert,
    delete or replace) drawn from digits, space, \n, \r, \t, # and -."""
    text = "".join(f"{k} {rng.choice([1, 1, 1, 2])}\n" for k in range(1, rng.randint(1, 25)))
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        char = rng.choice("0123456789 \n\r\t#-")
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:i] + char + text[i:]
        elif kind == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + char + text[i + 1:]
    return text


@pytest.mark.parametrize("block", [3, 7, 16, funceq.BLOCK])
def test_parse_table_matches_line_parser_on_edited_tables(monkeypatch, block):
    monkeypatch.setattr(funceq, "BLOCK", block)
    rng = random.Random(2200 + block)
    for _ in range(1500):
        text = edited_table_text(rng)
        assert parse_outcome(parse_table, text) == parse_outcome(reference_parse_table, text), text


# -- the block-by-block table parse --------------------------------------------


@pytest.mark.parametrize("block", [1, 2, 3, 7, 16])
def test_parse_table_in_small_blocks_matches_line_parser(monkeypatch, block):
    # blocks cut after a line feed hold whole lines, whatever their size
    monkeypatch.setattr(funceq, "BLOCK", block)
    rng = random.Random(block)
    texts = MALFORMED_TABLES + [random_table_text(rng) for _ in range(300)]
    for text in texts:
        assert parse_outcome(parse_table, text) == parse_outcome(reference_parse_table, text), text


def test_parse_table_over_several_blocks():
    # about 240 KB: four blocks at the default BLOCK
    n = 30000
    lines = [f"{k} 1" for k in range(1, n + 1)]
    assert parse_table("\n".join(lines)).limit == n
    swapped = lines[:]
    swapped[-2], swapped[-1] = swapped[-1], swapped[-2]  # n leaves the order in the last block
    assert parse_table("\n".join(swapped)).limit == n
    bad = lines[:-1] + ["1 1"]
    with pytest.raises(ValueError, match=f"line {n}: duplicate entry for n = 1"):
        parse_table("\n".join(bad))
    bad = lines[:-1] + [f"{n} x"]
    with pytest.raises(ValueError, match=f"line {n}: invalid literal"):
        parse_table("\n".join(bad))


# -- which tables the block reader takes ----------------------------------------


class LineParse(Exception):
    pass


def refuse_line_parse(text):
    raise LineParse


def in_order_lines(n):
    return [f"{k} 1" for k in range(1, n + 1)]


FAST_PATH_TABLES = {
    "one block": "\n".join(in_order_lines(50)),
    "four blocks": "\n".join(in_order_lines(50000)),
    "no final line feed": "1 1\n2 1",
    # values the 1..999 lookup misses, which int converts
    "every value written 01": "".join(f"{k} 01\n" for k in range(1, 50001)),
    "every value 1000": "".join(f"{k} 1000\n" for k in range(1, 50001)),
    "value 1000 on every 7000th line": "".join(f"{k} {1000 if k % 7000 == 0 else 1}\n"
                                               for k in range(1, 50001)),
}


@pytest.mark.parametrize("name", FAST_PATH_TABLES)
def test_in_order_tables_skip_the_line_parser(monkeypatch, name):
    text = FAST_PATH_TABLES[name]
    expected = parse_outcome(reference_parse_table, text)
    monkeypatch.setattr(funceq, "_parse_lines", refuse_line_parse)
    assert parse_outcome(parse_table, text) == expected
    if name not in ("one block", "no final line feed"):
        assert len(text) > 4 * funceq.BLOCK


@pytest.mark.parametrize("n", [50, 50000])
def test_plain_tables_skip_the_field_count(monkeypatch, n):
    # plain "n v\n" blocks pass the separator shape test, so no line is split
    text = "".join(f"{k} {k % 7 + 1}\n" for k in range(1, n + 1))
    monkeypatch.setattr(funceq, "_parse_lines", refuse_line_parse)
    assert parse_outcome(parse_table, text) == [k % 7 + 1 for k in range(1, n + 1)]
    if n == 50000:
        assert len(text) > 4 * funceq.BLOCK


@pytest.mark.parametrize("text", ["1 \n2", "1 1\n\n2 1\n", "1  1\n", "1 1\r\n", "1 1 # c\n"])
def test_other_shapes_take_the_field_count(monkeypatch, text):
    # only the line parser counts the fields of each line
    monkeypatch.setattr(funceq, "_parse_lines", refuse_line_parse)
    with pytest.raises(LineParse):
        parse_table(text)


def swapped_in_last_block():
    lines = in_order_lines(50000)
    lines[-2], lines[-1] = lines[-1], lines[-2]
    return "\n".join(lines)


LINE_PARSE_TABLES = {
    "swapped pair in the last block": swapped_in_last_block(),
    "repeated n": "1 1\n2 1\n2 1\n3 1\n",
    "n = 0": "0 1\n1 1\n2 1\n",
    "non-integer field": "1 1\n2 one\n3 1\n",
    "CRLF": "\r\n".join(in_order_lines(3000)) + "\r\n",
    "blank lines": "\n\n1 1\n\n  \n2 1\n\t\n3 1\n\n",
    "header comment": "# f(n) = 1\n" + "\n".join(in_order_lines(3000)),
    "comment on every line": "\n".join(f"{k} 1  # n = {k}" for k in range(1, 3001)),
    "leading zero": "01 1\n2 1\n",
    "value past the int digit limit": "1 " + "9" * 5000 + "\n",
}


@pytest.mark.parametrize("name", LINE_PARSE_TABLES)
def test_other_tables_reach_the_line_parser(monkeypatch, name):
    monkeypatch.setattr(funceq, "_parse_lines", refuse_line_parse)
    with pytest.raises(LineParse):
        parse_table(LINE_PARSE_TABLES[name])


# -- the n column by hundreds ------------------------------------------------------


def n_column_ranges():
    # every lo, hi below 230, then every pair from the n near each power of
    # ten from 100 to 10^5; hi <= lo gives an empty column
    yield from ((lo, hi) for lo in range(1, 230) for hi in range(1, 230))
    for power in (100, 1000, 10**4, 10**5):
        near = [power + step for step in (-201, -200, -199, -101, -100, -99, -1, 0, 1,
                                          99, 100, 101, 199, 200, 201)]
        yield from ((lo, hi) for lo in near for hi in near)


def test_n_column_matches_percent_d_formatting():
    # both line tails: the n column of the token route and the text of f = 1
    for tail in (" ", " 1\n"):
        for lo, hi in n_column_ranges():
            expected = ("%d" + tail) * (hi - lo) % tuple(range(lo, hi))
            assert funceq._n_column(lo, hi, tail) == expected, (tail, lo, hi)


# lines of a 1234-line table edited at a hundred's edge; None deletes the line
HUNDRED_EDGE_EDITS = {
    "intact": {},
    "line 200 missing": {200: None},
    "n = 100 written 0100": {100: "0100 1"},
    "999 and 1000 swapped": {999: "1000 1", 1000: "999 1"},
    "n = 1000 written 100": {1000: "100 1"},
    "n = 1100 written 1000": {1100: "1000 1"},
    "n = 99 written 990": {99: "990 1"},
}


@pytest.mark.parametrize("block", [5, 37, 333, 1000, funceq.BLOCK])
@pytest.mark.parametrize("name", HUNDRED_EDGE_EDITS)
def test_parse_table_at_hundred_edges_matches_line_parser(monkeypatch, block, name):
    # small blocks start mid-hundred, so each n column has a partial hundred at both ends
    monkeypatch.setattr(funceq, "BLOCK", block)
    edits = HUNDRED_EDGE_EDITS[name]
    lines = (edits.get(k, f"{k} 1") for k in range(1, 1235))
    text = "".join(f"{line}\n" for line in lines if line is not None)
    expected = parse_outcome(reference_parse_table, text)
    assert parse_outcome(parse_table, text) == expected
    if name == "intact":
        monkeypatch.setattr(funceq, "_parse_lines", refuse_line_parse)
        assert parse_outcome(parse_table, text) == expected


# -- blocks that spell f = 1 -------------------------------------------------------


def block_first_lines(text, block):
    """The 1-based numbers of the lines that start a block when text is read
    BLOCK = block characters at a time, each block cut right after a line feed."""
    firsts, start = [1], 0
    while (cut := text.find("\n", start + block) + 1) and cut < len(text):
        firsts.append(firsts[-1] + text.count("\n", start, cut))
        start = cut
    return firsts


# one-line edits of a table of f = 1: a new text for line n, or a move of lines
NEAR_ONE_EDITS = {"value 2": "{n} 2", "value 10": "{n} 10", "value 01": "{n} 01",
                  "n written 0n": "0{n} 1", "deleted": None, "swapped": None}


@functools.lru_cache(maxsize=None)
def constant_lines(size):
    return tuple(in_order_lines(size))


def near_one_table(size, at, edit, final_line_feed):
    """f = 1 on [1..size] with line `at` edited; a swap exchanges line `at`
    with the next line, or with the line before it when `at` is the last."""
    lines = list(constant_lines(size))
    i = at - 1
    if edit == "deleted":
        del lines[i]
    elif edit == "swapped":
        j = i + 1 if at < size else i - 1
        lines[i], lines[j] = lines[j], lines[i]
    else:
        lines[i] = NEAR_ONE_EDITS[edit].format(n=at)
    return "\n".join(lines) + ("\n" if final_line_feed else "")


def sparse(outcome):
    """An error text as it is; values as their count and the (n, f(n)) with f(n) != 1."""
    if isinstance(outcome, str):
        return outcome
    return len(outcome), [(n, v) for n, v in enumerate(outcome, start=1) if v != 1]


@functools.lru_cache(maxsize=None)
def near_one_reference(size, at, edit, final_line_feed):
    # the same edit is reached from several BLOCK values, so each is parsed once here
    return sparse(parse_outcome(reference_parse_table,
                                near_one_table(size, at, edit, final_line_feed)))


@pytest.mark.parametrize("size", [1234, 50000])
@pytest.mark.parametrize("block", [5, 37, 333, 1000, funceq.BLOCK])
def test_near_constant_tables_match_line_parser(monkeypatch, size, block):
    # one line edited in a table of f = 1: the block that holds it fails the
    # comparison with the text of f = 1 and takes the token route
    monkeypatch.setattr(funceq, "BLOCK", block)
    firsts = block_first_lines("\n".join(constant_lines(size)) + "\n", block) + [size + 1]
    middle_block = (len(firsts) - 1) // 2
    # first and last line of the middle block, the middle line, and the last
    # line of a text with no final line feed; small blocks hold one line each,
    # so a position is tried once however many of these it is
    where = {(firsts[middle_block], True), (firsts[middle_block + 1] - 1, True),
             ((size + 1) // 2, True), (size, False)}
    for at, final_line_feed in sorted(where):
        for edit in NEAR_ONE_EDITS:
            text = near_one_table(size, at, edit, final_line_feed)
            expected = near_one_reference(size, at, edit, final_line_feed)
            assert sparse(parse_outcome(parse_table, text)) == expected, (at, edit, final_line_feed)


class NoTokenRoute:
    def __getitem__(self, token):
        raise AssertionError(f"the token route read {token!r}")


@pytest.mark.parametrize("final_line_feed", [True, False])
def test_constant_tables_skip_the_token_route(monkeypatch, final_line_feed):
    # every block of an intact f = 1 table is read by one string comparison
    text = "\n".join(in_order_lines(50000)) + ("\n" if final_line_feed else "")
    assert len(text) > 4 * funceq.BLOCK
    monkeypatch.setattr(funceq, "_SMALL", NoTokenRoute())
    monkeypatch.setattr(funceq, "_parse_lines", refuse_line_parse)
    assert parse_outcome(parse_table, text) == [1] * 50000


def test_one_mutation_sends_one_block_down_the_token_route(monkeypatch):
    lookups = []

    class CountingSmall(dict):
        def __getitem__(self, token):
            lookups.append(token)
            return super().__getitem__(token)

    monkeypatch.setattr(funceq, "_SMALL", CountingSmall(funceq._SMALL))
    text = "".join(f"{k} {2 if k == 25000 else 1}\n" for k in range(1, 50001))
    assert parse_outcome(parse_table, text) == [2 if k == 25000 else 1 for k in range(1, 50001)]
    # a block holds at most BLOCK characters plus the rest of one line, and a line at least 4
    assert b"2" in lookups and len(lookups) <= (funceq.BLOCK + 16) // 4


# -- the sparse route: only the entries where f(n) != 1 --------------------------------


def sparse_route(values):
    """FunctionTable(values) with _others set, so that check_table takes the
    sparse route whatever the number of values other than 1."""
    table = FunctionTable(values)
    table._others = [n for n, v in enumerate(values, start=1) if v != 1]
    return table


def assert_routes_match_reference(values):
    expected = reference_check_table(values)
    table = FunctionTable(values)
    assert check_table(table) == expected
    assert funceq._check_all(table) == expected
    assert check_table(sparse_route(values)) == expected


def ones_with(size, edits):
    values = [1] * size
    for n, v in edits.items():
        values[n - 1] = v
    return values


def test_sparse_bound_values():
    # the largest k with k (3 isqrt(N) + 2) <= pi N / 8, as the docstrings quote it
    assert [funceq._sparse_bound(n) for n in (1, 12, 58, 59, 10**4, 10**5, 10**6)] == [
        0, 0, 0, 1, 13, 41, 130]


def test_every_small_table_of_ones_and_twos_matches_reference():
    for size in range(1, 13):
        for values in itertools.product((1, 2), repeat=size):
            assert_routes_match_reference(list(values))


@pytest.mark.parametrize("k", range(2 * funceq._sparse_bound(10**4) + 1))
def test_seeded_tables_match_reference(k):
    rng = random.Random(k)
    ats = sorted(rng.sample(range(1, 10**4 + 1), k))
    values = ones_with(10**4, {n: rng.choice([2, 3, 9, 10**6]) for n in ats})
    table = FunctionTable(values)
    assert table._others == (ats if k <= funceq._sparse_bound(10**4) else None)
    assert_routes_match_reference(values)


# n = 1 and n = N, squares, and sums of two squares in one (25), two (50, 65),
# three (325) and four (1105) ways with a <= b
SPECIAL_EDITS = [
    *({n: 2} for n in (1, 2, 4, 5, 9, 16, 25, 36, 44, 50, 65, 325, 1105, 1936, 2000)),
    {25: 3}, {5: 2, 25: 4}, {3: 2, 4: 2, 25: 4}, {5: 2, 25: 4, 625: 16},
    {1: 2, 2000: 2}, {25: 2, 1105: 2}, {50: 2, 65: 3, 325: 5},
    {n: 2 for n in (1, 4, 9, 25, 50, 65, 325, 1105, 1936, 2000)},
]


@pytest.mark.parametrize("edits", SPECIAL_EDITS, ids=str)
def test_special_points_match_reference(edits):
    assert_routes_match_reference(ones_with(2000, edits))


@pytest.mark.parametrize("at", [(1,), (5,), (25,), (1105,), (2000,), (5, 25), (3, 4, 25)], ids=str)
def test_a_value_of_2150_digits_among_ones_matches_reference(at):
    values = ones_with(2000, {n: 10**2149 for n in at})
    assert FunctionTable(values)._others == list(at)
    assert_routes_match_reference(values)


# (edits to f = 1 on [1..10^4], or a full-route table), the refusal text
TOO_LONG = f"has more than {MAX_VALUE_DIGITS} digits"
REFUSALS = [
    ({1: 0}, "f(1) = 0 is not a positive integer"),
    ({5000: -1}, "f(5000) = -1 is not a positive integer"),
    ({10**4: 0}, "f(10000) = 0 is not a positive integer"),
    ({77: 10**2150}, f"f(77) {TOO_LONG}"),
    ({77: -10**2150}, f"f(77) {TOO_LONG}"),
    ({10**4: 10**5000}, f"f(10000) {TOO_LONG}"),
    ({3: 2, 60: 7, 61: -5, 62: 0, 9000: 3}, "f(61) = -5 is not a positive integer"),
    ({3: 2, 60: 10**2150, 61: 0}, f"f(60) {TOO_LONG}"),
    ({n: 2 for n in range(1, 15)} | {9999: 0}, "f(9999) = 0 is not a positive integer"),
    ({n: 2 for n in range(1, 15)} | {15: 10**2150, 16: 0}, f"f(15) {TOO_LONG}"),
    ({n: 2 for n in range(9980, 9994)} | {9999: 0}, "f(9999) = 0 is not a positive integer"),
    ({n: n % 7 + 1 for n in range(1, 10**4 + 1)} | {4242: -3},
     "f(4242) = -3 is not a positive integer"),
]


@pytest.mark.parametrize("edits, message", REFUSALS, ids=[m for _, m in REFUSALS])
def test_refusals_name_the_first_offending_n(edits, message):
    # the same text whichever route validates the table, from a list or a dict
    values = ones_with(10**4, edits)
    for build in (values, dict(enumerate(values, start=1))):
        with pytest.raises(ValueError) as refusal:
            FunctionTable(build)
        assert str(refusal.value) == message


def refuse(*args):
    raise AssertionError("a full pass over the table")


@pytest.mark.parametrize("edits", [{}, {1: 2}, {50000: 2}, {10**5: 7}, {99856: 10**2149}],
                         ids=str)
def test_near_constant_tables_skip_both_full_passes(monkeypatch, edits):
    values = ones_with(10**5, edits)
    with monkeypatch.context() as patch:
        patch.setattr(funceq, "min", refuse, raising=False)
        patch.setattr(funceq, "max", refuse, raising=False)
        table = FunctionTable(values)
    assert table._others == sorted(edits)
    monkeypatch.setattr(funceq, "_check_all", refuse)
    assert check_table(table) == reference_check_table(values)


def test_mixed_tables_take_both_full_passes(monkeypatch):
    calls = []

    def record(name, pass_):
        def wrapped(*args):
            calls.append(name)
            return pass_(*args)
        return wrapped

    monkeypatch.setattr(funceq, "min", record("min", min), raising=False)
    monkeypatch.setattr(funceq, "max", record("max", max), raising=False)
    monkeypatch.setattr(funceq, "_check_all", record("check", funceq._check_all))
    values = [k % 7 + 1 for k in range(10**5)]
    table = FunctionTable(values)
    violations = check_table(table)
    assert table._others is None and calls == ["min", "max", "check"]
    assert len(violations) == len(reference_check_table(values))


def test_sparse_route_memory_is_bounded_by_its_violations():
    # k just under the switch at N = 10^6; a set of the instances it visits
    # would hold about 60,000 pairs, several MB
    size = 10**6
    rng = random.Random(38)
    k = funceq._sparse_bound(size)
    ats = [2, *rng.sample(range(1001, size + 1), k - 1)]
    table = FunctionTable(ones_with(size, dict.fromkeys(ats, 2)))
    assert table._others == sorted(ats)
    tracemalloc.start()
    try:
        violations = check_table(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sys.getsizeof(violations) + sum(sys.getsizeof(v) + sys.getsizeof(v.witnesses)
                                           for v in violations)
    assert len(violations) > 1000
    assert peak <= 3 * held + 2**14
    assert violations == funceq._check_all(table)
