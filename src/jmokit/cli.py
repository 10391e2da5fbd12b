"""Single command-line entry point exposing every problem module.

Subcommand groups: pins (lattice-triangle moves), gcdset (gcd-perfect sets),
pack (triangle packings), cyclic (the 2n-equation system), funceq (function
tables), rect (rectangle concurrency certificates).

Every run produces a report envelope; --json prints it as canonical JSON
(sorted keys, no timestamps), so identical inputs give byte-identical
output.  _dump writes it in the bytes of json.dumps(sort_keys=True,
indent=2) with str.join, since that indented layout makes json run its
pure-Python encoder.  A list of records that share one key set, such as the
rows of rect batch, is written column by column (_records): one str.format
template per list fills each record from one map per column.  Wall-clock
timings are filled in only with --timings.
Exit codes: 0 for success verdicts (an empty search result is a result, not
an error), 1 for checked failures (violations found, certification failed),
2 for usage errors, malformed inputs, and exhausted budgets.  Every error
that exits 2 is a ValueError (UsageError and gcdperfect.BudgetExceeded
included), and run() maps it to exit 2 in one place.

A fresh call pays only for the subcommand it runs.  The module itself loads
pinopt (and through it kernel); every other layer is imported by the
handlers that use it, so gcdset loads gcdperfect, pack tripack (and svg to
render), cyclic cyclic, funceq funceq, and rect rectconcur (and svg); scan,
behind pinopt.oracle_min_moves, is imported only when pins oracle runs.

One parser per process is shared by every run() call; each parse starts
from a fresh Namespace, so no state carries over.  It is built group by
group: _build_parser makes the top parser and the six group parsers, and
run() adds the action parsers of the group that argv starts with, or of
every group when argv starts with none (-h, --version, a typo), each group
once per parser.  An argv `group action ...` whose arguments that start
with - are each exactly one of the action's options (-h and --help aside)
goes straight to that action parser, about a third of the whole tree's parse
time.  Every other argv, and one the action parser leaves an argument of,
is parsed by the whole tree, since argparse reads options at the top and
group levels too (`--=x` is ambiguous there); the action parser is the
same object in both routes, so every usage, help and error text is the
tree's.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import __version__, pinopt


def _envelope(args: argparse.Namespace, inputs: dict, **fields) -> dict:
    env = {
        "tool": "jmokit",
        "version": __version__,
        "subcommand": f"{args.group} {args.action}",
        "inputs": inputs,
        "timings": None,
    }
    env.update(fields)
    return env


def _finite_repr(o: float) -> str:
    if not math.isfinite(o):
        # json's own wording
        raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
    return float.__repr__(o)


# The JSON text of each scalar type an envelope holds, as json.dumps writes it.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _finite_repr,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda o: "null",
}


def _scalar(o) -> str:
    return _SCALARS[type(o)](o)


def _records(rows: list, pad: str):
    """The JSON texts of rows, dicts that share one key set, each starting on
    a line indented by pad, built column by column: one str.format template
    per list, one map per column, a list column flattened into one map per
    position.  None for any other shape, which _dump writes item by item:
    each column must hold one scalar type, or lists of one nonzero length
    that hold one scalar type, and no non-finite float, so that json's
    traversal order picks the value its error names.
    """
    first = rows[0]
    if set(map(type, first)) != {str} or set(map(len, rows)) != {len(first)}:
        return None
    inner, fields, columns = pad + "  ", [], []
    try:
        for key in sorted(first):
            get = itemgetter(key)
            (kind,) = set(map(type, map(get, rows)))  # KeyError: a key is missing
            if kind is list:
                (width,) = set(map(len, map(get, rows)))
                (kind,) = set(map(type, chain.from_iterable(map(get, rows))))
                cells = [map(itemgetter(i), map(get, rows)) for i in range(width)]
                values = chain.from_iterable(map(get, rows))
                deep = ",\n" + inner + "  "
                text = f"[{deep[1:]}{deep.join(['{}'] * width)}\n{inner}]"
            else:
                cells, values, text = [map(get, rows)], map(get, rows), "{}"
            encode = _SCALARS[kind]  # KeyError: a container
            if kind is float:
                if not all(map(math.isfinite, values)):
                    return None
                encode = float.__repr__
            columns += [map(encode, cell) for cell in cells]
            quoted = encode_basestring_ascii(key).replace("{", "{{").replace("}", "}}")
            fields.append(f"{inner}{quoted}: {text}")
    except (KeyError, ValueError):  # ValueError: not one type, or not one length
        return None
    return map(("{{\n" + ",\n".join(fields) + f"\n{pad}}}}}").format, *columns)


def _dump(o, append, pad: str) -> None:
    """Append the JSON text of o, in the bytes of json.dumps(o, sort_keys=True,
    indent=2, allow_nan=False), with pad the indent of the line o starts on.

    Only the types an envelope holds are written: dicts with str keys, lists,
    str, int, float, bool and None; anything else raises TypeError, and a
    non-finite float raises json's ValueError.  A list of scalars, and a
    list of records that _records takes, is one join, so a long list of rows
    costs few parts.
    """
    kind = type(o)
    encode = _SCALARS.get(kind)
    if encode is not None:
        append(encode(o))
    elif kind is dict:
        if not o:
            append("{}")
            return
        inner = pad + "  "
        head = "{\n" + inner
        for key in sorted(o):  # the quoter raises TypeError for a key that is no str
            value = o[key]
            encode = _SCALARS.get(type(value))
            if encode is None:
                append(f"{head}{encode_basestring_ascii(key)}: ")
                _dump(value, append, inner)
            else:
                append(f"{head}{encode_basestring_ascii(key)}: {encode(value)}")
            head = ",\n" + inner
        append(f"\n{pad}}}")
    elif kind is list:
        if not o:
            append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        kinds = set(map(type, o))
        if kinds <= _SCALARS.keys():
            append(f"[\n{inner}{sep.join(map(_scalar, o))}\n{pad}]")
            return
        records = _records(o, inner) if kinds == {dict} else None
        if records is not None:
            append(f"[\n{inner}{sep.join(records)}\n{pad}]")
            return
        head = "[\n" + inner
        for value in o:
            append(head)
            _dump(value, append, inner)
            head = sep
        append(f"\n{pad}]")
    else:
        raise TypeError(f"{kind.__name__} is not an envelope type")


def _json(o) -> str:
    parts: list[str] = []
    _dump(o, parts.append, "")
    return "".join(parts)


def _emit(env: dict, args: argparse.Namespace, human: list[str], started: float) -> None:
    if args.timings:
        env["timings"] = {"wall_s": round(time.perf_counter() - started, 6)}
    if args.json:
        try:
            text = _json(env)
        except ValueError as exc:  # NaN and infinities are not JSON
            raise UsageError(f"the report holds a non-finite number: {exc}") from None
        print(text)
    else:
        for line in human:
            print(line)
        if args.timings:
            print(f"elapsed: {env['timings']['wall_s']} s")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


class UsageError(ValueError):
    pass


def _parse_file(parse, path: str, what: str):
    """parse() of the file's text; a malformed file exits 2 naming its kind."""
    text = _read(path)
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"bad {what} file: {exc}") from exc


def _finite(raw: str) -> float:
    """argparse type for tolerances and factors: inf and nan are usage errors."""
    try:
        value = float(raw)
    except ValueError:  # argparse's own wording for type=float
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {raw!r}")
    return value


def _int_list(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {raw!r}") from exc


# -- pins ----------------------------------------------------------------


def _cmd_pins_solve(args) -> tuple[int, dict, list[str]]:
    cert = pinopt.min_moves(args.doubled_area)
    witness = [list(cert.witness.a_pin), list(cert.witness.b_pin), list(cert.witness.c_pin)]
    env_fields = {
        "lower_bound": cert.lower_bound,
        "cost": cert.witness.move_cost,
        "status": cert.status,
        "witness": witness,
        "witness_doubled_area": cert.witness.doubled_area,
    }
    human = [
        f"doubled area {args.doubled_area}: cost {cert.witness.move_cost} "
        f"({cert.status}, lower bound {cert.lower_bound})",
        f"witness pins: {witness[0]} {witness[1]} {witness[2]}",
    ]
    return 0, env_fields, human


def _cmd_pins_oracle(args) -> tuple[int, dict, list[str]]:
    cost = pinopt.oracle_min_moves(args.doubled_area, args.radius)
    env_fields = {"cost": cost, "radius": args.radius}
    return 0, env_fields, [f"exhaustive minimum cost: {cost}"]


# -- gcdset ---------------------------------------------------------------


def _cmd_gcdset_check(args) -> tuple[int, dict, list[str]]:
    from . import gcdperfect

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


def _cmd_gcdset_construct(args) -> tuple[int, dict, list[str]]:
    from . import gcdperfect

    s = gcdperfect.construct(args.k, _int_list(args.p) if args.p else [],
                             _int_list(args.q) if args.q else [])
    report = gcdperfect.is_gcd_perfect(s)
    env_fields = {"elements": list(s.elements), "verdict": report.verdict}
    return (0 if report.verdict else 1), env_fields, [
        f"constructed {list(s.elements)} (gcd-perfect: {'yes' if report.verdict else 'NO'})"
    ]


def _cmd_gcdset_search(args) -> tuple[int, dict, list[str]]:
    from . import gcdperfect

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


# -- pack -----------------------------------------------------------------


def _pack_report_fields(report: tripack.PackingReport) -> dict:
    return {
        "count": report.count,
        "side": str(report.side_len),
        "all_inside": report.all_inside,
        "first_outside": report.first_outside,
        "disjoint": report.disjoint,
        "first_overlap": list(report.first_overlap) if report.first_overlap else None,
        "bound_ok": report.bound_ok,
        "bound_is_warning": report.bound_is_warning,
        "density": report.density if math.isfinite(report.density) else None,  # JSON has no inf
        "valid": report.valid,
    }


def _pack_human(report: tripack.PackingReport) -> list[str]:
    lines = [
        f"packing: {report.count} triangle(s) in Delta of side {report.side_len}",
        f"  containment: {'ok' if report.all_inside else f'anchor {report.first_outside} outside'}",
        f"  disjointness: {'ok' if report.disjoint else f'anchors {report.first_overlap} overlap'}",
        f"  count bound (n <= 2/3 L^2): {'ok' if report.bound_ok else 'VIOLATED'}"
        + (" [warning only: L < 2]" if report.bound_is_warning else ""),
        f"  density n/L^2 = {report.density:.4f}",
        f"  verdict: {'valid' if report.valid else 'INVALID'}",
    ]
    return lines


def _cmd_pack_build(args) -> tuple[int, dict, list[str]]:
    from . import tripack

    try:
        side = tripack._rational(args.side, "--side")
        margin = tripack._rational(args.margin, "--margin")
    except ValueError as exc:
        raise UsageError(f"bad rational: {exc}") from exc
    instance = tripack.tessellate(side, margin)
    report = tripack.validate_packing(instance)
    if args.out:
        _write(args.out, tripack.dump_packing(instance))
    env_fields = {"report": _pack_report_fields(report), "out": args.out}
    human = _pack_human(report)
    if args.out:
        human.append(f"wrote {args.out}")
    return (0 if report.valid else 1), env_fields, human


def _cmd_pack_validate(args) -> tuple[int, dict, list[str]]:
    from . import tripack

    instance = _parse_file(tripack.parse_packing, args.input, "packing")
    report = tripack.validate_packing(instance)
    return (0 if report.valid else 1), {"report": _pack_report_fields(report)}, _pack_human(report)


def _cmd_pack_render(args) -> tuple[int, dict, list[str]]:
    from . import tripack
    from .svg import Scene

    instance = _parse_file(tripack.parse_packing, args.input, "packing")
    scene = Scene()
    try:
        side = float(instance.side_len)
        scene.polygon([(0.0, 0.0), (side, 0.0), (side / 2, side * 3**0.5 / 2)],
                      stroke="#333333", width=2.0)
        for triangle, hexagon in tripack.float_vertices(instance.forms):
            scene.polygon(triangle, stroke="#884400", fill="#ddaa77", width=1.0, opacity=0.6)
            scene.polygon(hexagon, stroke="#118811", width=1.0)
        svg = scene.to_svg()
    except (OverflowError, ValueError):  # a float overflows, or to_svg's extent does
        raise UsageError(f"cannot draw {args.input}: a coordinate is beyond "
                         "the float range") from None
    _write(args.svg, svg)
    human = [f"wrote {args.svg} ({instance.count} triangle(s) with green hexagons)"]
    return 0, {"svg": args.svg, "count": instance.count}, human


# -- cyclic ---------------------------------------------------------------


def _cyclic_report_fields(v: cyclic.CycleVector, tol: float) -> dict:
    from . import cyclic

    res = cyclic.residuals(v)
    fields = {"residual_max_abs": res.max_abs}
    if res.max_abs <= tol:
        ident = cyclic.identity_checks(v, tol)
        mm = cyclic.minmax_certificate(v, tol)
        fields["identities"] = ident._asdict()
        fields["minmax"] = mm._asdict()
    return fields


def _entries_file(path: str) -> tuple[cyclic.CycleVector, cyclic.ResidualReport]:
    """An entries file and its residuals; a malformed file, or one whose
    residuals overflow, exits 2 naming the file."""
    from . import cyclic

    v = _parse_file(cyclic.parse_entries, path, "entries")
    res = cyclic.residuals(v)
    if not math.isfinite(res.max_abs):
        raise UsageError(f"entries in {path} overflow the residuals to a "
                         "non-finite number (a value too large or too near 0)")
    return v, res


def _cmd_cyclic_solve(args) -> tuple[int, dict, list[str]]:
    from . import cyclic

    init = None
    if args.init:
        init, _ = _entries_file(args.init)
    elif args.seed is not None:
        init = args.seed
    solution, record = cyclic.solve(args.n, init, tol=args.tol, max_iter=args.max_iter)
    env_fields = {
        "entries": list(solution.entries),
        "converged": record.converged,
        "iterations": record.iterations,
        "residual": record.residual,
    }
    human = [
        f"n = {args.n}: {'converged' if record.converged else 'DID NOT CONVERGE'} "
        f"in {record.iterations} iteration(s), residual {record.residual:.3e}",
    ]
    if record.converged:
        env_fields.update(_cyclic_report_fields(solution, args.tol))
        human.append("entries: " + " ".join(f"{e:.6f}" for e in solution.entries))
    if args.out:
        _write(args.out, cyclic.dump_entries(solution))
        human.append(f"wrote {args.out}")
        env_fields["out"] = args.out
    return (0 if record.converged else 1), env_fields, human


def _cmd_cyclic_verify(args) -> tuple[int, dict, list[str]]:
    if args.tol < 0:
        raise UsageError(f"--tol must be >= 0, got {args.tol}")
    v, res = _entries_file(args.input)
    env_fields = {"n": v.n, "residual_max_abs": res.max_abs}
    ok = res.max_abs <= args.tol
    human = [f"n = {v.n}: residual max |.| = {res.max_abs:.3e} "
             f"({'within' if ok else 'EXCEEDS'} tol {args.tol:.1e})"]
    if ok:
        env_fields.update(_cyclic_report_fields(v, args.tol))
        ident = env_fields["identities"]
        human.append(
            f"identity defects: sums {ident['sum_vs_reciprocal_defect']:.3e}, "
            f"squares {ident['squared_pair_sum_defect']:.3e}, "
            f"total {ident['even_sum_defect']:.3e}"
        )
        human.append(f"min/max spread: {env_fields['minmax']['spread']:.3e}")
    return (0 if ok else 1), env_fields, human


# -- funceq ---------------------------------------------------------------


def _cmd_funceq_check(args) -> tuple[int, dict, list[str]]:
    from . import funceq

    table = _parse_file(funceq.parse_table, args.input, "table")
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


def _cmd_funceq_trace(args) -> tuple[int, dict, list[str]]:
    from . import funceq

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


# -- rect -----------------------------------------------------------------


def _cmd_rect_batch(args) -> tuple[int, dict, list[str]]:
    import random

    from . import rectconcur

    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    if args.count > rectconcur.MAX_BATCH_COUNT:
        raise UsageError(f"--count must be <= {rectconcur.MAX_BATCH_COUNT} "
                         f"(each row holds about 1 KB), got {args.count}")
    if args.rel_tol <= 0:
        raise UsageError(f"--rel-tol must be > 0, got {args.rel_tol}")
    if args.perturb <= 0:
        raise UsageError(f"--perturb must be > 0, got {args.perturb}")
    batch = rectconcur.certify_batch(random.Random(args.seed), args.count, args.perturb)
    rows = [] if args.json else None  # the human lines need only the worst row
    all_pass = True
    worst_rel, worst_index = -math.inf, 0
    threshold = args.rel_tol
    isfinite = math.isfinite
    for index in range(args.count):
        try:
            defect, r_bc, r_ca, r_ab, scale = next(batch)
        except ValueError:  # the only one: a third height times --perturb rounds to 0
            raise UsageError(f"--perturb {args.perturb} is too small: a third height "
                             "times it rounds to 0") from None
        bound = threshold * scale  # --rel-tol is relative to the diameter
        passed = defect <= bound and max(r_bc, r_ca, r_ab) <= bound
        line_rel = defect / scale
        circles_rel = [r_bc / scale, r_ca / scale, r_ab / scale]
        if not (isfinite(line_rel) and all(map(isfinite, circles_rel))):
            raise UsageError(f"--perturb {args.perturb} is too large: the certificate "
                             f"of configuration {index} is not a finite number")
        all_pass = all_pass and passed
        if line_rel > worst_rel:  # the first of equal defects, as max() picks
            worst_rel, worst_index = line_rel, index
        if rows is not None:
            rows.append({
                "index": index,
                "line_defect_rel": line_rel,
                "circle_residuals_rel": circles_rel,
                "passes": passed,
            })
    env_fields = {
        "count": args.count,
        "seed": args.seed,
        "perturb": args.perturb,
        "rel_tol": threshold,
        "all_pass": all_pass,
        "rows": rows,
    }
    human = [
        f"{args.count} configuration(s), seed {args.seed}, perturb x{args.perturb}: "
        f"{'all pass' if all_pass else 'FAILURES'} at rel tol {threshold:.1e}"
    ]
    human.append(f"worst relative line defect: {worst_rel:.3e} (instance {worst_index})")
    return (0 if all_pass else 1), env_fields, human


def _cmd_rect_render(args) -> tuple[int, dict, list[str]]:
    import random

    from . import rectconcur
    from .svg import Scene

    flat = rectconcur._draw(random.Random(args.seed), 1.0)
    (defect, _, _, _, scale), p_point = rectconcur._certify(*flat)
    a, b, c = flat[0:2], flat[2:4], flat[4:6]
    c1, b2, a1, c2, b1, a2 = zip(flat[12::2], flat[13::2])
    scene = Scene()
    scene.polygon([a, b, c], stroke="#000000", width=2.0)
    scene.polygon([b, c, c1, b2], stroke="#555555", width=1.0)
    scene.polygon([c, a, a1, c2], stroke="#555555", width=1.0)
    scene.polygon([a, b, b1, a2], stroke="#555555", width=1.0)
    for center, radius in rectconcur.circumcircles(flat):
        scene.circle(center, radius, stroke="#2255cc", width=1.2)
    scene.line(b1, c2, stroke="#cc2222", width=1.0)
    scene.line(c1, a2, stroke="#cc2222", width=1.0)
    scene.line(a1, b2, stroke="#cc2222", width=1.0)
    scene.dot(p_point, fill="#cc2222", size=3.5)
    _write(args.svg, scene.to_svg())
    human = [
        f"wrote {args.svg} (seed {args.seed}, relative line defect {defect / scale:.3e})"
    ]
    return 0, {"svg": args.svg, "seed": args.seed}, human


# -- parser ----------------------------------------------------------------


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit a JSON report envelope")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")


def _pins_actions(actions) -> None:
    p = actions.add_parser("solve", help="witness plus optimality certificate")
    p.add_argument("--doubled-area", type=int, required=True, dest="doubled_area")
    p.set_defaults(handler=_cmd_pins_solve)
    _common(p)
    p = actions.add_parser("oracle", help="exhaustive scan near the origin")
    p.add_argument("--doubled-area", type=int, required=True, dest="doubled_area")
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(handler=_cmd_pins_oracle)
    _common(p)


def _gcdset_actions(actions) -> None:
    p = actions.add_parser("check", help="decide gcd-perfection")
    p.add_argument("--elements", required=True, help="comma-separated positive integers")
    p.set_defaults(handler=_cmd_gcdset_check)
    _common(p)
    p = actions.add_parser("construct", help="2^k witness from prime lists")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", default="", help="comma-separated primes (k of them)")
    p.add_argument("--q", default="", help="comma-separated primes (k of them)")
    p.set_defaults(handler=_cmd_gcdset_construct)
    _common(p)
    p = actions.add_parser("search", help="exhaustive search for a given size")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="node budget (default 10^6)")
    p.set_defaults(handler=_cmd_gcdset_search)
    _common(p)


def _pack_actions(actions) -> None:
    p = actions.add_parser("build", help="near-optimal tessellation packing")
    p.add_argument("--side", required=True, help="side length L (exact rational, >= 4)")
    p.add_argument("--margin", default="0", help="extra rational inset from the boundary")
    p.add_argument("--out", default=None, help="write the packing file here")
    p.set_defaults(handler=_cmd_pack_build)
    _common(p)
    p = actions.add_parser("validate", help="exact validation of a packing file")
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_pack_validate)
    _common(p)
    p = actions.add_parser("render", help="SVG of triangles and their hexagons")
    p.add_argument("--input", required=True)
    p.add_argument("--svg", required=True)
    p.set_defaults(handler=_cmd_pack_render)
    _common(p)


def _cyclic_actions(actions) -> None:
    p = actions.add_parser("solve", help="damped Newton from a chosen start")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="random log-uniform start")
    p.add_argument("--init", default=None, help="entries file to start from")
    p.add_argument("--tol", type=_finite, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100, dest="max_iter")
    p.add_argument("--out", default=None, help="write the solution entries here")
    p.set_defaults(handler=_cmd_cyclic_solve)
    _common(p)
    p = actions.add_parser("verify", help="residuals and identities of an entries file")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=_finite, default=1e-8)
    p.set_defaults(handler=_cmd_cyclic_verify)
    _common(p)


def _funceq_actions(actions) -> None:
    p = actions.add_parser("check", help="all violations within a table file")
    p.add_argument("--input", required=True, help="text file of 'n value' lines")
    p.set_defaults(handler=_cmd_funceq_check)
    _common(p)
    p = actions.add_parser("trace", help="forced derivation f(1..N) = 1, with replay")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=_cmd_funceq_trace)
    _common(p)


def _rect_actions(actions) -> None:
    from . import rectconcur  # the --rel-tol default

    p = actions.add_parser("batch", help="certify random configurations")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perturb", type=_finite, default=1.0,
                   help="scale the solved third height (1.0 = constraint holds)")
    p.add_argument("--rel-tol", type=_finite, default=rectconcur.DEFAULT_REL_TOL, dest="rel_tol")
    p.set_defaults(handler=_cmd_rect_batch)
    _common(p)
    p = actions.add_parser("render", help="SVG of one certified configuration")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg", required=True)
    p.set_defaults(handler=_cmd_rect_render)
    _common(p)


# group name: (help, the function that adds the group's action parsers)
_GROUPS = {
    "pins": ("minimum pin moves for a target lattice-triangle area", _pins_actions),
    "gcdset": ("gcd-perfect set checking, construction, search", _gcdset_actions),
    "pack": ("inverted-triangle packings in Delta", _pack_actions),
    "cyclic": ("the cyclic 2n-equation system", _cyclic_actions),
    "funceq": ("function tables against the two conditions", _funceq_actions),
    "rect": ("rectangle concurrency certificates", _rect_actions),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The top parser and the group parsers, without their action parsers.

    The group parsers still to be filled in are kept on the parser itself
    (`unbuilt`), so each new parser starts with every group unbuilt.
    """
    parser = argparse.ArgumentParser(
        prog="jmokit",
        description="Solvers, exact checkers, and brute-force oracles "
                    "for the six USAJMO 2021 problems.",
    )
    parser.add_argument("--version", action="version", version=f"jmokit {__version__}")
    groups = parser.add_subparsers(dest="group", required=True)
    parser.unbuilt = {name: groups.add_parser(name, help=text)
                      for name, (text, _) in _GROUPS.items()}
    parser.direct = {}  # (group, action): (action parser, its options but -h and --help)
    return parser


def _add_actions(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Add the action parsers of the group that argv starts with, or of every
    group when it starts with none (-h, --version, a typo, no argument).
    Each group is filled in at most once per parser."""
    names = [argv[0]] if argv and argv[0] in _GROUPS else list(_GROUPS)
    for name in names:
        group = parser.unbuilt.pop(name, None)
        if group is not None:
            actions = group.add_subparsers(dest="action", required=True)
            _GROUPS[name][1](actions)
            for action, p in actions.choices.items():
                options = p._option_string_actions.keys() - {"-h", "--help"}
                parser.direct[name, action] = p, options


def _parse_direct(parser: argparse.ArgumentParser, argv: list[str]):
    """The Namespace of `group action ...` parsed by the action parser alone,
    or None: when argv names no action, when an argument that starts with -
    is not exactly one of the action's options, or when the parse leaves an
    argument over.  The whole tree then parses argv, since argparse reads
    such arguments at the top and group levels too."""
    direct = parser.direct.get(tuple(argv[:2]))
    if direct is None:
        return None
    action_parser, options = direct
    rest = argv[2:]
    if not all(arg in options for arg in rest if arg[:1] == "-"):
        return None
    args, extras = action_parser.parse_known_args(
        rest, argparse.Namespace(group=argv[0], action=argv[1]))
    return None if extras else args


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    _add_actions(parser, argv)
    args = _parse_direct(parser, argv) or parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code, fields, human = args.handler(args)
        _emit(_envelope(args, _echo_inputs(args), **fields), args, human, started)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _echo_inputs(args: argparse.Namespace) -> dict:
    skip = {"handler", "group", "action", "json", "timings"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`jmokit ... | head -1`): exit as a
        # SIGPIPE would, and point stdout at devnull so that the flush at
        # exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
