"""The subcommand handlers of jmokit.cli, one module per group.

Each module (pins, gcdset, pack, cyclic, funceq, rect) exposes
add_actions(actions), which adds the group's action parsers with their own
arguments only, and one handler per action, named _<action> (_solve for
`pins solve`).  cli adds --json and --timings to every action parser and
sets its handler.  A handler takes the parsed Namespace and returns (exit
code, envelope fields, human lines).  cli imports a group's module only
when argv names that group, so each module imports its layer at the top;
only svg, which the renders alone use, is imported where it is used.

This package also holds what the handlers share.  It lives here and not in
cli, so that `python -m jmokit.cli`, which runs cli as __main__, does not
load cli a second time.
"""

from __future__ import annotations

import argparse
import math


class UsageError(ValueError):
    pass


def parse_file(parse, path: str, what: str):
    """parse() of the file's text; a malformed file exits 2 naming its kind."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # read() decodes the whole file, so start is its offset
        raise UsageError(f"bad {what} file: {path} is not UTF-8 "
                         f"(byte {exc.start}: {exc.reason})") from exc
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"bad {what} file: {exc}") from exc


def write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def finite(raw: str) -> float:
    """argparse type for tolerances and factors: inf and nan are usage errors."""
    try:
        value = float(raw)
    except ValueError:  # argparse's own wording for type=float
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {raw!r}")
    return value
