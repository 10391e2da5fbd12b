"""cyclic: the cyclic 2n-equation system solved and verified (Problem 6)."""

from __future__ import annotations

import math

from .. import cyclic
from . import UsageError, finite, parse_file, write_file


def _report_fields(v: cyclic.CycleVector, res: cyclic.ResidualReport, tol: float) -> dict:
    """The envelope's residual, identity and min/max fields, from v's residuals res."""
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
    v = parse_file(cyclic.parse_entries, path, "entries")
    res = cyclic.residuals(v)
    if not math.isfinite(res.max_abs):
        raise UsageError(f"entries in {path} overflow the residuals to a "
                         "non-finite number (a value too large or too near 0)")
    return v, res


def _solve(args) -> tuple[int, dict, list[str]]:
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
        env_fields.update(_report_fields(solution, cyclic.residuals(solution), args.tol))
        human.append("entries: " + " ".join(f"{e:.6f}" for e in solution.entries))
    if args.out:
        write_file(args.out, cyclic.dump_entries(solution))
        human.append(f"wrote {args.out}")
        env_fields["out"] = args.out
    return (0 if record.converged else 1), env_fields, human


def _verify(args) -> tuple[int, dict, list[str]]:
    if args.tol < 0:
        raise UsageError(f"--tol must be >= 0, got {args.tol}")
    v, res = _entries_file(args.input)
    env_fields = {"n": v.n, "residual_max_abs": res.max_abs}
    ok = res.max_abs <= args.tol
    human = [f"n = {v.n}: residual max |.| = {res.max_abs:.3e} "
             f"({'within' if ok else 'EXCEEDS'} tol {args.tol:.1e})"]
    if ok:
        env_fields.update(_report_fields(v, res, args.tol))
        ident = env_fields["identities"]
        human.append(
            f"identity defects: sums {ident['sum_vs_reciprocal_defect']:.3e}, "
            f"squares {ident['squared_pair_sum_defect']:.3e}, "
            f"total {ident['even_sum_defect']:.3e}"
        )
        human.append(f"min/max spread: {env_fields['minmax']['spread']:.3e}")
    return (0 if ok else 1), env_fields, human


def add_actions(actions) -> None:
    p = actions.add_parser("solve", help="damped Newton from a chosen start")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="random log-uniform start")
    p.add_argument("--init", default=None, help="entries file to start from")
    p.add_argument("--tol", type=finite, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100, dest="max_iter")
    p.add_argument("--out", default=None, help="write the solution entries here")
    p = actions.add_parser("verify", help="residuals and identities of an entries file")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=finite, default=1e-8)
