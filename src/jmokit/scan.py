"""Minimum-cost lattice-triangle scan.

The scan enumerates all triangles whose three vertices have L1 norm at most
radius and whose total L1 cost is within a cap, and reports the cheapest one
with a prescribed doubled area.  It is a pair scan in plain integers: points
are walked in (cost, x, y) order, shell by shell, only as far as the cost
bound reaches, each shell held as an x and a y column, and for each pair
(i, j) the third vertices k with |cross(p_j - p_i, p_k - p_i)| = D lie on
two lattice lines parallel to p_j - p_i, found by a modular inverse.  Only
the points of those lines whose x (or y) stays within the remaining cost
are visited, so the scan holds the points of the shells it has walked and
nothing else.  Nearly every pair fails the cross-product bound (all but 5
of the 9,380 pairs tested at D = 120, radius 14), so the scan's time is
that of the bound, which is written in plain integer arithmetic.
"""

from __future__ import annotations

import math

from .kernel import LatticePoint


def backend_name() -> str:
    # Constant: bench/worker.py writes it into every bench record, so it
    # goes with the next change to the benchmark.
    return "python"


def _shell(cost: int) -> list[tuple[int, int, int]]:
    """The points of L1 norm cost, for cost >= 1, as (cost, x, y) in (x, y) order."""
    pts = [(cost, -cost, 0)]
    for x in range(1 - cost, cost):
        h = cost - abs(x)
        pts += ((cost, x, -h), (cost, x, h))
    pts.append((cost, cost, 0))
    return pts


def _steps(v: int, c: int, r: int) -> tuple[int, int]:
    """Least and greatest integer t with |v + t*c| <= r, for c != 0."""
    if c < 0:
        v, c = -v, -c
    return -((r + v) // c), (r - v) // c


def _least_third(
    xi: int, yi: int, ux: int, uy: int, doubled_area: int, r: int
) -> tuple[int, int, int] | None:
    """Least (cost, x, y) of L1 norm <= r with |cross(u, p - p_i)| = doubled_area, or None."""
    g = math.gcd(ux, uy)
    if doubled_area % g:
        return None
    a, b, m = ux // g, uy // g, doubled_area // g
    if b:
        wy = m * pow(a, -1, abs(b))
        wx = (a * wy - m) // b
    else:  # a = +-1, and the lines at w and -w give both signs of D
        wx, wy = 0, m
    found = None
    for qx, qy in ((xi + wx, yi + wy), (xi - wx, yi - wy)):
        lo, hi = _steps(qx, a, r) if abs(a) >= abs(b) else _steps(qy, b, r)
        for t in range(lo, hi + 1):
            x, y = qx + t * a, qy + t * b
            k = (abs(x) + abs(y), x, y)
            if k[0] <= r and (found is None or k < found):
                found = k
    return found


def min_cost_triangle(
    doubled_area: int, radius: int, cost_cap: int
) -> tuple[int, tuple[LatticePoint, LatticePoint, LatticePoint]] | None:
    """Cheapest triangle with the given doubled area, or None.

    Vertices are restricted to the L1 ball of the given radius and the total
    cost to cost_cap.  The witness is canonical: lexicographically first
    index triple, over points sorted by (cost, x, y), among all minimum-cost
    matches.

    Pairs (i, j), i < j, are visited in lexicographic order, j shell by
    shell.  A triple cheaper than the best so far has 3*c_i < best,
    2*c_j < best - c_i and c_k <= r = min(radius, best - 1 - c_i - c_j), so
    the shells are walked only as far as c_j needs, and each pair takes its
    least (c_k, x_k, y_k) with c_k <= r.  The stop on c_j and r depend only
    on j's shell, so they are worked out once for each i and shell, and
    again after a hit lowers best.  With u = p_j - p_i, such a k has
    cross(u, p_k) = cross(u, p_i) +- D, where cross(u, p_i) =
    cross(p_j, p_i), and |cross(u, p_k)| <= r * max(|u_x|, |u_y|), which
    rules out most pairs.  Every cross product with u is a multiple of
    g = gcd(u), so the pair is also skipped unless g divides D.  Otherwise,
    with (a, b) = u / g and w one solution of a*w_y - b*w_x = D / g, the k
    are p_i +- w + t*(a, b), and t is bounded through |x| <= r, or |y| <= r
    when |b| > |a| (_least_third).

    A pair records its k only when the triple is strictly cheaper than the
    best so far, so the first pair to reach the final minimum keeps the
    canonical triple.  No k that comes before j is ever found: the sorted
    triple's first pair came earlier, so best is already at most its cost.
    """
    if doubled_area < 1:
        raise ValueError("doubled_area must be >= 1")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    best, hit = cost_cap + 1, None
    xs, ys = [(0,)], [(0,)]  # the x and y columns of the shells walked so far
    ci = 0
    while ci < len(xs) and 3 * ci < best:
        for start, (xi, yi) in enumerate(zip(xs[ci], ys[ci]), 1):
            if 3 * ci >= best:
                break
            c = ci  # j runs from just after i in its own shell, then over whole shells
            while 2 * c < best - ci:
                if c == len(xs):
                    if c > radius:
                        break
                    _, x, y = zip(*_shell(c))
                    xs.append(x)
                    ys.append(y)
                r = min(radius, best - 1 - ci - c)
                for xj, yj in zip(xs[c][start:], ys[c][start:]):
                    e = xj * yi - yj * xi  # cross(u, p_i); the test is the bound on |e| - D
                    e = (e if e >= 0 else -e) - doubled_area
                    ux, uy = xj - xi, yj - yi
                    ax = ux if ux >= 0 else -ux
                    ay = uy if uy >= 0 else -uy
                    if (e if e >= 0 else -e) > r * (ax if ax >= ay else ay):
                        continue
                    found = _least_third(xi, yi, ux, uy, doubled_area, r)
                    if found is not None:
                        best, hit = ci + c + found[0], ((xi, yi), (xj, yj), found[1:])
                        if 2 * c >= best - ci:
                            break
                        r = min(radius, best - 1 - ci - c)
                c, start = c + 1, 0
        ci += 1
    if hit is None:
        return None
    return best, tuple(LatticePoint(x, y) for x, y in hit)
