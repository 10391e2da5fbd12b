"""rect: rectangle concurrency certified in batches and drawn (Problem 2)."""

from __future__ import annotations

import math
import random

from .. import rectconcur
from . import UsageError, finite, write_file


def _batch(args) -> tuple[int, dict, list[str]]:
    if args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    if args.count > rectconcur.MAX_BATCH_COUNT:
        held = " (with --json each row is held, about 1 KB)" if args.json else ""
        raise UsageError(f"--count must be <= {rectconcur.MAX_BATCH_COUNT}{held}, "
                         f"got {args.count}")
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


def _render(args) -> tuple[int, dict, list[str]]:
    from ..svg import Scene

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
    write_file(args.svg, scene.to_svg())
    human = [
        f"wrote {args.svg} (seed {args.seed}, relative line defect {defect / scale:.3e})"
    ]
    return 0, {"svg": args.svg, "seed": args.seed}, human


def add_actions(actions) -> None:
    p = actions.add_parser("batch", help="certify random configurations")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perturb", type=finite, default=1.0,
                   help="scale the solved third height (1.0 = constraint holds)")
    p.add_argument("--rel-tol", type=finite, default=rectconcur.DEFAULT_REL_TOL, dest="rel_tol")
    p = actions.add_parser("render", help="SVG of one certified configuration")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg", required=True)
