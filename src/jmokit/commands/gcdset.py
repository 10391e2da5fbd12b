"""gcdset: gcd-perfect sets checked, constructed and searched (Problem 5)."""

from __future__ import annotations

from .. import gcdperfect
from . import UsageError


def _int_list(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {raw!r}") from exc


def _check(args) -> tuple[int, dict, list[str]]:
    s = gcdperfect.GcdSet(_int_list(args.elements))
    report = gcdperfect.is_gcd_perfect(s)
    env_fields = {
        "elements": list(s.elements),
        "verdict": report.verdict,
        "witness_failure": list(report.witness_failure) if report.witness_failure else None,
    }
    if report.verdict:
        human = [f"gcd-perfect: yes (size {report.size})"]
        if len(s):
            structure = gcdperfect.structure_report(s)
            env_fields["prime_count"] = structure.prime_count
            human.append(f"structure: squarefree, k = {structure.prime_count}")
        return 0, env_fields, human
    s_, d_, c_ = report.witness_failure
    return 1, env_fields, [
        f"gcd-perfect: no; divisor {d_} of {s_} is hit by {c_} elements (expected 1)"
    ]


def _construct(args) -> tuple[int, dict, list[str]]:
    s = gcdperfect.construct(args.k, _int_list(args.p), _int_list(args.q))
    report = gcdperfect.is_gcd_perfect(s)
    env_fields = {"elements": list(s.elements), "verdict": report.verdict}
    return (0 if report.verdict else 1), env_fields, [
        f"constructed {list(s.elements)} (gcd-perfect: {'yes' if report.verdict else 'NO'})"
    ]


def _search(args) -> tuple[int, dict, list[str]]:
    budget = gcdperfect.DEFAULT_NODE_BUDGET if args.budget is None else args.budget
    sets = gcdperfect.search_size(args.size, args.max, node_budget=budget)
    env_fields = {
        "count": len(sets),
        "sets": [list(s.elements) for s in sets],
        "node_budget": budget,
    }
    human = [f"found {len(sets)} gcd-perfect set(s) of size {args.size} within [1..{args.max}]"]
    human += [f"  {list(s.elements)}" for s in sets[:50]]
    if len(sets) > 50:
        human.append(f"  ... ({len(sets) - 50} more)")
    return 0, env_fields, human


def add_actions(actions) -> None:
    p = actions.add_parser("check", help="decide gcd-perfection")
    p.add_argument("--elements", required=True, help="comma-separated positive integers")
    p = actions.add_parser("construct", help="2^k witness from prime lists")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", default="", help="comma-separated primes (k of them)")
    p.add_argument("--q", default="", help="comma-separated primes (k of them)")
    p = actions.add_parser("search", help="exhaustive search for a given size")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="node budget (default 10^6)")
