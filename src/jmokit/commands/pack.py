"""pack: inverted-triangle packings built, validated and drawn (Problem 3)."""

from __future__ import annotations

import math

from .. import tripack
from . import UsageError, parse_file, write_file


def _report_fields(report: tripack.PackingReport) -> dict:
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


def _human(report: tripack.PackingReport) -> list[str]:
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


def _build(args) -> tuple[int, dict, list[str]]:
    try:
        side = tripack._rational(args.side, "--side")
        margin = tripack._rational(args.margin, "--margin")
    except ValueError as exc:
        raise UsageError(f"bad rational: {exc}") from exc
    instance = tripack.tessellate(side, margin)
    report = tripack.validate_packing(instance)
    if args.out:
        write_file(args.out, tripack.dump_packing(instance))
    env_fields = {"report": _report_fields(report), "out": args.out}
    human = _human(report)
    if args.out:
        human.append(f"wrote {args.out}")
    return (0 if report.valid else 1), env_fields, human


def _validate(args) -> tuple[int, dict, list[str]]:
    instance = parse_file(tripack.parse_packing, args.input, "packing")
    report = tripack.validate_packing(instance)
    return (0 if report.valid else 1), {"report": _report_fields(report)}, _human(report)


def _render(args) -> tuple[int, dict, list[str]]:
    from ..svg import Scene

    instance = parse_file(tripack.parse_packing, args.input, "packing")
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
    write_file(args.svg, svg)
    human = [f"wrote {args.svg} ({instance.count} triangle(s) with green hexagons)"]
    return 0, {"svg": args.svg, "count": instance.count}, human


def add_actions(actions) -> None:
    p = actions.add_parser("build", help="near-optimal tessellation packing")
    p.add_argument("--side", required=True, help="side length L (exact rational, >= 4)")
    p.add_argument("--margin", default="0", help="extra rational inset from the boundary")
    p.add_argument("--out", default=None, help="write the packing file here")
    p = actions.add_parser("validate", help="exact validation of a packing file")
    p.add_argument("--input", required=True)
    p = actions.add_parser("render", help="SVG of triangles and their hexagons")
    p.add_argument("--input", required=True)
    p.add_argument("--svg", required=True)
