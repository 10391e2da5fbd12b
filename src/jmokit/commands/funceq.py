"""funceq: function tables checked and the forced trace replayed (Problem 1)."""

from __future__ import annotations

from .. import funceq
from . import parse_file


def _check(args) -> tuple[int, dict, list[str]]:
    table = parse_file(funceq.parse_table, args.input, "table")
    violations = funceq.check_table(table)
    env_fields = {
        "limit": table.limit,
        "violation_count": len(violations),
        "violations": [
            {"kind": v.kind, "witnesses": list(v.witnesses), "lhs": v.lhs, "rhs": v.rhs}
            for v in violations[:1000]
        ],
    }
    human = [f"table up to {table.limit}: {len(violations)} violation(s)"]
    for v in violations[:20]:
        human.append(f"  {v.kind} at {v.witnesses}: {v.lhs} != {v.rhs}")
    if len(violations) > 20:
        human.append(f"  ... ({len(violations) - 20} more)")
    return (0 if not violations else 1), env_fields, human


def _trace(args) -> tuple[int, dict, list[str]]:
    trace = funceq.forced_trace(args.limit)
    result = funceq.replay_trace(trace)
    rules = result.rule_counts
    env_fields = {
        "limit": args.limit,
        "steps": len(trace),
        "rule_counts": rules,
        "replay_ok": result.ok,
        "replay_failure": (
            None if result.ok else {"index": result.failed_index, "reason": result.reason}
        ),
    }
    human = [
        f"forced derivation of f(1..{args.limit}) = 1: {len(trace)} step(s) {rules}",
        f"replay: {'pass' if result.ok else f'FAIL at step {result.failed_index}: {result.reason}'}",
    ]
    return (0 if result.ok else 1), env_fields, human


def add_actions(actions) -> None:
    p = actions.add_parser("check", help="all violations within a table file")
    p.add_argument("--input", required=True, help="text file of 'n value' lines")
    p = actions.add_parser("trace", help="forced derivation f(1..N) = 1, with replay")
    p.add_argument("--limit", type=int, required=True)
