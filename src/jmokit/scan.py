"""Minimum-cost lattice-triangle scan.

The scan enumerates all triangles whose three vertices have L1 norm at most
radius and whose total L1 cost is within a cap, and reports the cheapest one
with a prescribed doubled area.  It is a one-pass numpy scan: each row only
looks at partners cheap enough to beat the best cost so far, in blocks of at
most 2**15 matrix entries or one row, so memory grows linearly with the
number of points, not quadratically.
"""

from __future__ import annotations

import numpy as np

from .kernel import LatticePoint

# Entries in the (block of j) x (range of k) matrices of one unit: 256 KB
# per int64 temporary, unless one row is longer (radius 128 and up).  Blocks
# this small follow the cost bound on k closely; below 2**13, per-block
# overhead takes over.
_BLOCK = 1 << 15


def backend_name() -> str:
    # Constant: bench/worker.py writes it into every bench record, so it
    # goes with the next change to the benchmark.
    return "python"


def ball_points(radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All lattice points with L1 norm <= radius, sorted by (cost, x, y)."""
    x = np.arange(-radius, radius + 1, dtype=np.int64)
    half = radius - np.abs(x)  # column x holds y in [-half, half]
    px = np.repeat(x, 2 * half + 1)
    py = np.concatenate([np.arange(-h, h + 1, dtype=np.int64) for h in half])
    cost = np.abs(px) + np.abs(py)
    order = np.lexsort((py, px, cost))
    return cost[order], px[order], py[order]


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

    One pass over units (i, block of j) in lexicographic order.  A triple
    cheaper than the best so far has c_j <= (best - 1 - c_i) // 2 and
    c_k <= best - 1 - c_i - c_j, so each block takes its rows j and its
    columns k from prefixes of the sorted costs, found again before every
    block with c_j read at the block's first j.  Columns start at that j,
    and a block is one row or at most _BLOCK matrix entries.  A unit
    records its first cheapest match only when it is strictly cheaper than
    the best so far, so the first unit to reach the final minimum keeps
    the canonical triple.
    """
    best, hit = cost_cap + 1, None
    for i in range(len(cost)):
        ci = int(cost[i])
        if 3 * ci >= best:
            break
        a = i
        while True:
            j_end = int(np.searchsorted(cost, (best - 1 - ci) // 2, side="right"))
            if a >= j_end:
                break
            m = int(np.searchsorted(cost, best - 1 - ci - int(cost[a]), side="right"))
            b = min(j_end, a + max(1, _BLOCK // (m - a)))
            dx = px[a:m] - px[i]
            dy = py[a:m] - py[i]
            cross = dx[:b - a, None] * dy - dy[:b - a, None] * dx
            jk = np.argwhere(np.abs(cross) == target)  # (j - a, k - a) in lex order
            jk = jk[jk[:, 1] >= jk[:, 0]] + a
            if len(jk):
                tot = ci + cost[jk[:, 0]] + cost[jk[:, 1]]
                t = int(np.argmin(tot))  # first of the cheapest
                if tot[t] < best:
                    best = int(tot[t])
                    hit = (best, i, int(jk[t, 0]), int(jk[t, 1]))
            a = b
    return hit
