"""Minimal standalone SVG scene builder (text templating, no dependencies).

Shapes are added in mathematical coordinates (y up); rendering flips the
axis and pads the computed bounding box.  Output is deterministic: fixed
float formatting, elements in insertion order.  Each shape is kept as a
template with one {w} slot and a width in output pixels; to_svg fills every
slot in one pass, once the bounding box fixes the size of a pixel.
"""

from __future__ import annotations

Pt = tuple[float, float]

PIXEL_WIDTH = 720


def _fmt(v: float) -> str:
    return f"{v:.6f}"


class Scene:
    def __init__(self):
        self._shapes: list[tuple[str, float]] = []
        self._xs: list[float] = []  # every x and y the bounding box must cover
        self._ys: list[float] = []

    def polygon(self, points: list[Pt], stroke: str = "#000000",
                fill: str = "none", width: float = 1.0, opacity: float = 1.0) -> None:
        self._xs += [x for x, _ in points]
        self._ys += [y for _, y in points]
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self._shapes.append((
            f'<polygon points="{coords}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{{w}}" fill-opacity="{_fmt(opacity)}"/>', width
        ))

    def circle(self, center: Pt, radius: float, stroke: str = "#000000",
               fill: str = "none", width: float = 1.0) -> None:
        self._xs += (center[0] - radius, center[0] + radius)
        self._ys += (center[1] - radius, center[1] + radius)
        self._shapes.append((
            f'<circle cx="{_fmt(center[0])}" cy="{_fmt(center[1])}" '
            f'r="{_fmt(radius)}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{{w}}"/>', width
        ))

    def line(self, a: Pt, b: Pt, stroke: str = "#000000", width: float = 1.0) -> None:
        self._xs += (a[0], b[0])
        self._ys += (a[1], b[1])
        self._shapes.append((
            f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" '
            f'y2="{_fmt(b[1])}" stroke="{stroke}" stroke-width="{{w}}"/>', width
        ))

    def dot(self, center: Pt, fill: str = "#000000", size: float = 3.0) -> None:
        self._xs.append(center[0])
        self._ys.append(center[1])
        self._shapes.append((
            f'<circle cx="{_fmt(center[0])}" cy="{_fmt(center[1])}" '
            f'r="{{w}}" fill="{fill}" stroke="none"/>', size
        ))

    def to_svg(self) -> str:
        min_x, max_x = min(self._xs, default=0.0), max(self._xs, default=0.0)
        min_y, max_y = min(self._ys, default=0.0), max(self._ys, default=0.0)
        pad = 0.05 * max(max_x - min_x, max_y - min_y, 1e-9)
        x0, y0 = min_x - pad, min_y - pad
        w = max_x - min_x + 2 * pad
        h = max_y - min_y + 2 * pad
        unit = max(w, h) / PIXEL_WIDTH  # one output pixel in scene units
        body = "\n".join(t.format(w=_fmt(width * unit)) for t, width in self._shapes)
        height_px = int(round(PIXEL_WIDTH * h / w))
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{PIXEL_WIDTH}" '
            f'height="{height_px}" viewBox="{_fmt(x0)} {_fmt(-y0 - h)} {_fmt(w)} {_fmt(h)}">\n'
            f'<g transform="scale(1,-1)">\n{body}\n</g>\n</svg>\n'
        )
