import random

import pytest

from jmokit.funceq import (
    BASE_ONE,
    BASE_TWO,
    EVEN_DOUBLE,
    ODD_DIFFERENCE,
    DerivationStep,
    FunctionTable,
    check_table,
    forced_trace,
    parse_table,
    replay_trace,
)


def test_constant_table_has_no_violations():
    assert check_table(FunctionTable.constant(100)) == []


def test_sum_rule_violation():
    # 5 = 1^2 + 2^2 and f(1) f(2) = 1, so f(5) = 2 breaks the sum rule
    table = FunctionTable.constant(10).with_value(5, 2)
    violations = check_table(table)
    assert any(
        v.kind == "sum_rule" and v.witnesses == (1, 2) and v.lhs == 2 and v.rhs == 1
        for v in violations
    )


def test_square_rule_violation():
    # f(2^2) = 3 but f(2)^2 = 1
    table = FunctionTable.constant(10).with_value(4, 3)
    violations = check_table(table)
    assert any(v.kind == "square_rule" and v.witnesses == (2,) for v in violations)


def test_table_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        FunctionTable([1, 0, 1])
    with pytest.raises(ValueError):
        FunctionTable({1: 1, 2: -3})


def test_table_rejects_gaps():
    for values, missing in (({1: 1, 3: 1}, 2), ({10**9: 1}, 1), ({2: 1, 3: 1, 10**12: 1}, 1),
                            ({n: 1 for n in range(1, 50)} | {10**9: 1}, 50)):
        with pytest.raises(ValueError, match=f"no value for n = {missing}$"):
            FunctionTable(values)


def test_forced_trace_base_cases():
    trace = forced_trace(2)
    assert [s.rule for s in trace] == [BASE_ONE, BASE_TWO]
    assert [s.target for s in trace] == [1, 2]


def test_forced_trace_odd_step():
    # 7 = 4^2 - 3^2
    step = forced_trace(7)[-1]
    assert step == DerivationStep(7, ODD_DIFFERENCE, (4, 3))


def test_forced_trace_even_step():
    # 8 = 2 * 4 * 1
    step = forced_trace(8)[-1]
    assert step == DerivationStep(8, EVEN_DOUBLE, (4, 1))


def test_replay_accepts_generator_output():
    result = replay_trace(forced_trace(100))
    assert result.ok
    assert result.derived == 100


def test_replay_rejects_u_not_greater_than_v():
    trace = forced_trace(5) + [DerivationStep(5, ODD_DIFFERENCE, (3, 3))]
    result = replay_trace(trace)
    assert not result.ok
    assert result.failed_index == len(trace) - 1
    assert "u > v" in result.reason


def test_replay_rejects_out_of_order_dependencies():
    # derive 9 = 5^2 - 4^2 before 4 and 5 exist
    trace = [
        DerivationStep(1, BASE_ONE, None),
        DerivationStep(2, BASE_TWO, None),
        DerivationStep(3, ODD_DIFFERENCE, (2, 1)),
        DerivationStep(9, ODD_DIFFERENCE, (5, 4)),
    ]
    result = replay_trace(trace)
    assert not result.ok
    assert result.failed_index == 3
    assert "not derived" in result.reason


def test_replay_rejects_wrong_formula():
    trace = [
        DerivationStep(1, BASE_ONE, None),
        DerivationStep(2, BASE_TWO, None),
        DerivationStep(6, ODD_DIFFERENCE, (2, 1)),  # 2^2 - 1^2 = 3, not 6
    ]
    result = replay_trace(trace)
    assert not result.ok and result.failed_index == 2


def test_replay_rejects_empty_trace():
    assert not replay_trace([]).ok


def test_trace_and_checker_agree_up_to_1000():
    for limit in range(1, 1001):
        assert replay_trace(forced_trace(limit)).ok
    assert check_table(FunctionTable.constant(1000)) == []


def test_single_point_mutations_are_caught():
    rng = random.Random(11)
    base = FunctionTable.constant(1000)
    for _ in range(50):
        n = rng.randint(1, 31)
        value = rng.randint(2, 9)
        assert check_table(base.with_value(n, value)), f"mutation at {n} undetected"


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
