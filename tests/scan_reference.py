"""The pair-scan reference route for Problem 4, used only by the tests.

jmokit.scan walks its pairs shell by shell, over x and y columns, with the
cross-product bound written out in plain arithmetic.  This module keeps the
loop it replaced, unchanged: one index walk over (cost, x, y) points that
grow a shell at a time, with the bound in abs, max and min.  Both loops
visit the same pairs in the same order, so they must return the same
(cost, witness) at every radius; the triple loop in test_pinopt checks
jmokit.scan up to radius 8.  The two routes share jmokit.scan._shell, which
test_pinopt checks against sorted tuples, and the third-vertex line search
_steps.  Test files import this module by name: pytest puts tests/ on
sys.path.
"""

from __future__ import annotations

import itertools
import math

from jmokit.kernel import LatticePoint
from jmokit.scan import _shell, _steps


def min_cost_triangle(
    doubled_area: int, radius: int, cost_cap: int
) -> tuple[int, tuple[LatticePoint, LatticePoint, LatticePoint]] | None:
    """Cheapest triangle with the given doubled area, or None.

    Vertices are restricted to the L1 ball of the given radius and the total
    cost to cost_cap.  The witness is canonical: lexicographically first
    index triple, over points sorted by (cost, x, y), among all minimum-cost
    matches.

    Pairs (i, j), i < j, are visited in lexicographic order.  A triple
    cheaper than the best so far has 3*c_i < best, c_j <= (best - 1 - c_i)
    // 2 and c_k <= r = min(radius, best - 1 - c_i - c_j), so the shells are
    walked only as far as c_j needs, and each pair takes its least
    (c_k, x_k, y_k) with c_k <= r.  With u = p_j - p_i, such a k has
    cross(u, p_k) = cross(u, p_i) +- D and |cross(u, p_k)| <=
    r * max(|u_x|, |u_y|), which rules out most pairs.  Every cross product
    with u is a multiple of g = gcd(u), so the pair is also skipped unless g
    divides D.  Otherwise, with (a, b) = u / g and w one solution of
    a*w_y - b*w_x = D / g, the k are p_i +- w + t*(a, b), and t is bounded
    through |x| <= r, or |y| <= r when |b| > |a|.

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
    pts, top = [(0, 0, 0)], 0  # the shells of cost 0 .. top, in (cost, x, y) order
    i = 0
    while i < len(pts) and 3 * pts[i][0] < best:
        ci, xi, yi = pts[i]
        for j in itertools.count(i + 1):
            if j == len(pts):
                if top == radius:
                    break
                top += 1
                pts += _shell(top)
            cj, xj, yj = pts[j]
            if 2 * cj >= best - ci:
                break
            ux, uy = xj - xi, yj - yi
            r = min(radius, best - 1 - ci - cj)
            if abs(abs(ux * yi - uy * xi) - doubled_area) > r * max(abs(ux), abs(uy)):
                continue
            g = math.gcd(ux, uy)
            if doubled_area % g:
                continue
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
            if found is not None:
                best, hit = ci + cj + found[0], (pts[i], pts[j], found)
        i += 1
    if hit is None:
        return None
    return best, tuple(LatticePoint(x, y) for _, x, y in hit)
