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
no problem layer, and not the json package: the writer takes
encode_basestring_ascii from _json, the C function json.encoder itself
uses.  The handlers live in jmokit.commands, one module per group, and each
module imports its layer at the top: pins loads pinopt (and through it
kernel), gcdset gcdperfect, pack tripack, cyclic cyclic, funceq funceq, and
rect rectconcur; svg is imported only to render, and scan, behind
pinopt.oracle_min_moves, only when pins oracle runs.  A call that names no
group (-h, --version, a typo) loads no command module and no layer.

One parser per process is shared by every run() call; each parse starts
from a fresh Namespace, so no state carries over.  It is built group by
group: _build_parser makes the top parser and the six group parsers, and
run() imports the command module of the first group argv names, the one
argparse reads, and adds its action parsers, each group once per parser.
The module declares each action's own arguments; cli then adds --json and
--timings to every action parser, after those arguments, and sets its
handler, the module's _<action>.
An argv `group action ...` whose arguments that start with - are each
exactly one of the action's options (-h and --help aside) goes straight to
that action parser, about a third of the whole tree's parse time.  Every
other argv, and one the action parser leaves an argument of, is parsed by
the whole tree, since argparse reads options at the top and group levels
too (`--=x` is ambiguous there); the action parser is the same object in
both routes, so every usage, help and error text is the tree's.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from _json import encode_basestring_ascii  # the function json.encoder picks
from itertools import chain
from operator import itemgetter

from . import __version__
from .commands import UsageError


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


# -- parser ----------------------------------------------------------------


# group name: help; jmokit.commands.<group> adds the group's action parsers
_GROUPS = {
    "pins": "minimum pin moves for a target lattice-triangle area",
    "gcdset": "gcd-perfect set checking, construction, search",
    "pack": "inverted-triangle packings in Delta",
    "cyclic": "the cyclic 2n-equation system",
    "funceq": "function tables against the two conditions",
    "rect": "rectangle concurrency certificates",
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
                      for name, text in _GROUPS.items()}
    parser.direct = {}  # (group, action): (action parser, its options but -h and --help)
    return parser


def _add_actions(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Add the action parsers of the first group that argv names.  That is
    the group argparse reads: the top parser takes no option with a value,
    so an argument before it is a flag, `--`, or a typo that argparse
    refuses.  An argv that names none (-h, --version, a typo, no argument)
    adds none, since the top parser reads no action parser.  Each group is
    filled in at most once per parser."""
    name = next((arg for arg in argv if arg in _GROUPS), None)
    group = parser.unbuilt.pop(name, None)
    if group is None:
        return
    actions = group.add_subparsers(dest="action", required=True)
    # __import__, unlike importlib.import_module, shows in -X importtime
    module = __import__(f"{__package__}.commands.{name}", fromlist=["add_actions"])
    module.add_actions(actions)
    for action, p in actions.choices.items():
        # before the options are read, so --json and --timings take the direct parse
        p.add_argument("--json", action="store_true", help="emit a JSON report envelope")
        p.add_argument("--timings", action="store_true", help="include wall-clock timings")
        p.set_defaults(handler=getattr(module, "_" + action))
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
