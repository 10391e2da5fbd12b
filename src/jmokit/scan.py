"""Minimum-cost lattice-triangle scan.

The scan enumerates all triangles whose three vertices have L1 norm at most
radius and whose total L1 cost is within a cap, and reports the cheapest one
with a prescribed doubled area.  It is a two-pass numpy scan: the first pass
finds the minimum cost, the second the canonical witness at that cost.
"""

from __future__ import annotations

import numpy as np

from .kernel import LatticePoint


def backend_name() -> str:
    # Constant: kept because JSON envelopes and bench records carry it.
    return "python"


def ball_points(radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All lattice points with L1 norm <= radius, sorted by (cost, x, y)."""
    pts = sorted(
        (abs(x) + abs(y), x, y)
        for x in range(-radius, radius + 1)
        for y in range(-(radius - abs(x)), radius - abs(x) + 1)
    )
    cost = np.array([p[0] for p in pts], dtype=np.int64)
    px = np.array([p[1] for p in pts], dtype=np.int64)
    py = np.array([p[2] for p in pts], dtype=np.int64)
    return cost, px, py


def min_cost_triangle(
    doubled_area: int, radius: int, cost_cap: int
) -> tuple[int, tuple[LatticePoint, LatticePoint, LatticePoint]] | None:
    """Cheapest triangle with the given doubled area, or None.

    Vertices are restricted to the L1 ball of the given radius and the total
    cost to cost_cap.  The witness is canonical: lexicographically first
    index triple, over points sorted by (cost, x, y), among all minimum-cost
    matches.
    """
    if doubled_area < 1:
        raise ValueError("doubled_area must be >= 1")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    cost, px, py = ball_points(radius)
    hit = _scan(cost, px, py, doubled_area, cost_cap)
    if hit is None:
        return None
    best, i, j, k = hit
    pins = tuple(
        LatticePoint(int(px[idx]), int(py[idx])) for idx in (i, j, k)
    )
    return int(best), pins


def _scan(cost: np.ndarray, px: np.ndarray, py: np.ndarray,
          target: int, cost_cap: int):
    """Return (best_cost, i, j, k) with i <= j <= k, or None.

    The arrays must be int64 and sorted by (cost, x, y).  Among the triples
    whose triangle has the target doubled area and whose total cost is
    within cost_cap, the result is the cheapest, and the lexicographically
    first among equally cheap ones.
    """
    n = len(cost)
    best = -1
    # pass 1: minimum total cost among matching triples
    for i in range(n):
        ci = int(cost[i])
        if 3 * ci > cost_cap:
            break
        if best >= 0 and 3 * ci >= best:
            break
        dx = px[i:] - px[i]
        dy = py[i:] - py[i]
        cross = dx[:, None] * dy[None, :] - dy[:, None] * dx[None, :]
        tot = ci + cost[i:, None] + cost[None, i:]
        mask = np.triu(np.abs(cross) == target) & (tot <= cost_cap)
        if best >= 0:
            mask &= tot < best
        if mask.any():
            best = int(tot[mask].min())
    if best < 0:
        return None
    # pass 2: lexicographically first (i, j, k) achieving the minimum
    for i in range(n):
        ci = int(cost[i])
        if 3 * ci > best:
            break
        dx = px[i:] - px[i]
        dy = py[i:] - py[i]
        cross = dx[:, None] * dy[None, :] - dy[:, None] * dx[None, :]
        tot = ci + cost[i:, None] + cost[None, i:]
        mask = np.triu(np.abs(cross) == target) & (tot == best)
        hits = np.argwhere(mask)
        if len(hits):
            j, k = hits[0]  # argwhere rows come out in (j, k) lex order
            return best, i, i + int(j), i + int(k)
    raise AssertionError("scan pass 2 lost the minimum found in pass 1")
