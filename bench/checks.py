"""Independent checks of every benchmark op, and the untimed input preparation.

Apart from the backend-agreement check, nothing here imports jmokit: each
verdict is re-derived by separate arithmetic (shoelace areas, direct gcd
counting, closed-form step and violation counts, the hexagon gauge in plain
rationals, residuals in plain floats).  Where no cheap independent route
exists the expected value is pinned from the program as it was when the
benchmark was written (noted at the check).  ``check`` returns None for a
correct result, else the reason.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

HALF = Fraction(1, 2)


# -- packings: points are (x, y3) meaning (x, y3*sqrt(3)) ---------------------


def read_packing(path: Path) -> tuple[Fraction, list[tuple[Fraction, Fraction]], list[str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    anchors = []
    for line in lines[1:]:
        x, y, *y3 = line.split()
        if Fraction(y) != 0 or len(y3) != 1:
            raise ValueError(f"anchor {line!r} is not of the form (x, y3*sqrt(3))")
        anchors.append((Fraction(x), Fraction(y3[0])))
    return Fraction(lines[0]), anchors, lines


def _sqrt3_times_at_least(r: Fraction, c: Fraction) -> bool:
    """r*sqrt(3) >= c for c >= 0."""
    return r >= 0 and 3 * r * r >= c * c


def triangle_inside(anchor, side: Fraction, margin: Fraction) -> bool:
    x, y3 = anchor
    for px, q in ((x - HALF, y3), (x + HALF, y3), (x, y3 - HALF)):
        if not (_sqrt3_times_at_least(q, margin)
                and _sqrt3_times_at_least(px - q, 2 * margin)
                and _sqrt3_times_at_least(side - px - q, 2 * margin)):
            return False
    return True


def gauge(p, q) -> Fraction:
    """Hexagon gauge of q - p; interiors of the two triangles meet iff < 1."""
    dx, dy3 = q[0] - p[0], q[1] - p[1]
    return max(abs(dx + dy3), abs(dx - dy3), abs(2 * dy3))


def lattice_packing(side: Fraction, margin: Fraction) -> set:
    """Every point of the side-1/2 hexagon-tiling lattice whose triangle fits.

    Lattice: x = 1 + 3i/4, y3 = (2 + m)/4 with i = m (mod 2); the index
    ranges are generous and the exact test does the clipping.
    """
    out = set()
    for m in range(0, int(2 * side) + 3):
        for i in range(-4, int(4 * side / 3) + 5):
            if (i - m) % 2 == 0:
                a = (1 + Fraction(3 * i, 4), Fraction(2 + m, 4))
                if triangle_inside(a, side, margin):
                    out.add(a)
    return out


def corrupt_packing(prep: dict, workdir: Path) -> dict:
    """Plant one exact anchor shift and return the verdict it must produce.

    'outside' moves anchor j left by L, so its triangle lies left of Delta
    and clear of every other one.  'overlap' slides anchor j a fraction t of
    the way to its nearest neighbour; the validator reports the overlapping
    pair with the smallest larger index, then the smallest smaller index.
    """
    side, anchors, lines = read_packing(workdir / prep["src"])
    j = min(int(prep["at"] * len(anchors)), len(anchors) - 1)
    x, y3 = anchors[j]
    if prep["mode"] == "outside":
        moved = (x - side, y3)
        expect = {"first_outside": j, "first_overlap": None}
    else:
        t = Fraction(prep["t"])
        near = min((gauge(anchors[j], a), i) for i, a in enumerate(anchors) if i != j)[1]
        nx, ny3 = anchors[near]
        moved = (x + t * (nx - x), y3 + t * (ny3 - y3))
        hits = [i for i, a in enumerate(anchors) if i != j and gauge(moved, a) < 1]
        pair = min((max(i, j), min(i, j)) for i in hits)
        expect = {"first_outside": None if triangle_inside(moved, side, Fraction(0)) else j,
                  "first_overlap": [pair[1], pair[0]]}
    lines[j + 1] = f"{moved[0]} 0 {moved[1]}"
    (workdir / prep["dst"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return expect


def prepare(op: dict, workdir: Path) -> None:
    """Write the op's input file; a corruption also fills in op['expect']."""
    prep = op["prep"]
    if prep["kind"] == "corrupt":
        op["expect"].update(corrupt_packing(prep, workdir))
    elif prep["kind"] == "table":
        values = [1] * (prep["limit"] + 1)
        if prep["mutation"]:
            n, v = prep["mutation"]
            values[n] = v
        text = "".join(f"{n} {values[n]}\n" for n in range(1, prep["limit"] + 1))
        (workdir / prep["dst"]).write_text(text, encoding="utf-8")
    else:
        (workdir / prep["dst"]).write_text(prep["text"], encoding="utf-8")


# -- number theory ------------------------------------------------------------


def ceil_sqrt(m: int) -> int:
    s = math.isqrt(m)
    return s if s * s == m else s + 1


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def gcd_perfect(elements: list[int]) -> bool:
    """Direct gcd counting: each divisor d of each s is gcd(s, t) for one t."""
    for s in elements:
        counts: dict[int, int] = {}
        for t in elements:
            g = math.gcd(s, t)
            counts[g] = counts.get(g, 0) + 1
        if any(counts.get(d, 0) != 1 for d in divisors(s)):
            return False
    return True


def primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def witness_elements(pairs) -> list[int]:
    """Sorted products taking one prime from each pair: the 2^k-element witness."""
    elements = [1]
    for a, b in pairs:
        elements = [e * c for e in elements for c in (a, b)]
    return sorted(elements)


def classified_sets(size: int, max_element: int) -> list[list[int]]:
    """All gcd-perfect subsets of [1..max] of one size, by the classification.

    A gcd-perfect set of size 2^k is {one prime from each pair, multiplied}
    over k pairwise-disjoint prime pairs; its largest element is the product
    of the pairs' larger primes.  Other sizes have none.
    """
    k = size.bit_length() - 1
    if size < 1 or size != 1 << k:
        return []
    primes = primes_upto(max_element)
    pairs = [(a, b) for i, a in enumerate(primes) for b in primes[i + 1:]]
    found = []

    def extend(start: int, chosen: list, top: int) -> None:
        if len(chosen) == k:
            found.append(witness_elements(chosen))
            return
        used = {p for pair in chosen for p in pair}
        for idx in range(start, len(pairs)):
            a, b = pairs[idx]
            if a not in used and b not in used and top * b <= max_element:
                extend(idx + 1, chosen + [(a, b)], top * b)

    extend(0, [], 1)
    return sorted(found)


def table_violations(limit: int, mutation) -> int:
    """Violations of a constant-1 table with f(n) = v >= 2 at one n >= 2.

    Every instance touching n breaks exactly once: the sum rule at each
    representation n = a^2 + b^2 and at each pair {n, b} in range, and the
    square rule at a^2 = n and at a = n.
    """
    if mutation is None:
        return 0
    n, _ = mutation
    reps = sum(1 for a in range(1, math.isqrt(n // 2) + 1)
               if math.isqrt(n - a * a) ** 2 == n - a * a)
    pairs = math.isqrt(limit - n * n) if n * n <= limit else 0
    return reps + pairs + int(math.isqrt(n) ** 2 == n) + int(n * n <= limit)


# -- cyclic -------------------------------------------------------------------


def cyclic_residual(entries: list[float]) -> float:
    """Largest |residual| of a_{2i-1} = 1/a_{2i-2} + 1/a_{2i}, a_{2i} = a_{2i-1} + a_{2i+1}."""
    m = len(entries)
    worst = 0.0
    for k in range(0, m, 2):  # k indexes a_{2i-1}, k + 1 indexes a_{2i}
        odd = entries[k] - (1.0 / entries[k - 1] + 1.0 / entries[k + 1])
        even = entries[k + 1] - (entries[k] + entries[(k + 2) % m])
        worst = max(worst, abs(odd), abs(even))
    return worst


def read_entries(path: Path) -> list[float]:
    return [float(ln) for ln in path.read_text(encoding="utf-8").split()]


# -- the checks ----------------------------------------------------------------


def check(op: dict, code: int, out: str, workdir: Path) -> str | None:
    """None when the op's exit code and envelope are right, else why not."""
    if op["kind"] == "usage_error":
        if code != 2 or out:
            return f"expected exit 2 and no envelope, got exit {code}"
        return None
    try:
        env = json.loads(out)
    except ValueError:
        return f"exit {code} without a JSON envelope"
    try:
        return CHECKS[op["kind"]](op["expect"], code, env, workdir)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        return f"malformed envelope or output file: {exc!r}"


def _want(code: int, expected: int, **pairs) -> str | None:
    if code != expected:
        return f"exit {code}, expected {expected}"
    for name, (got, want) in pairs.items():
        if got != want:
            return f"{name} = {got!r}, expected {want!r}"
    return None


def _pins_solve(e, code, env, wd):
    d = e["doubled_area"]
    (ax, ay), (bx, by), (cx, cy) = env["witness"]
    area = abs(ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    cost = abs(ax) + abs(ay) + abs(bx) + abs(by) + abs(cx) + abs(cy)
    n = ceil_sqrt(4 * d)
    return _want(code, 0, cost=(env["cost"], n), witness_cost=(cost, n),
                 shoelace=(area, d), witness_doubled_area=(env["witness_doubled_area"], d),
                 lower_bound=(env["lower_bound"], n), status=(env["status"], "certified_optimal"))


def backend_agreement(doubled_area: int, radius: int) -> str | None:
    """When the compiled scan core is importable, it must match the numpy scan exactly."""
    try:
        from jmokit import _scan_c
    except ImportError:
        return None
    from jmokit import _scan_py
    from jmokit.scan import ball_points

    points = ball_points(radius)
    compiled = _scan_c.scan(*points, doubled_area, 2 * radius)
    numpy_scan = _scan_py.scan(*points, doubled_area, 2 * radius)
    if compiled != numpy_scan:
        return f"scan backends disagree: compiled {compiled}, numpy {numpy_scan}"
    return None


def _pins_oracle(e, code, env, wd):
    disagreement = backend_agreement(e["doubled_area"], e["radius"])
    if disagreement:
        return disagreement
    # Holds on the whole range: at the least radius used the scan already
    # reaches ceil(sqrt(4D)) for every D in [4, 120], and a larger radius
    # only scans a superset that the lower bound still holds over.
    return _want(code, 0, cost=(env["cost"], ceil_sqrt(4 * e["doubled_area"])),
                 radius=(env["radius"], e["radius"]))


def _gcdset_search(e, code, env, wd):
    sets = env["sets"]
    bad = next((s for s in sets if not gcd_perfect(s)), None)
    if bad is not None:
        return f"returned set {bad} fails direct gcd counting"
    return _want(code, 0, sets=(sets, classified_sets(e["size"], e["max"])),
                 count=(env["count"], len(sets)))


def _gcdset_construct(e, code, env, wd):
    if not gcd_perfect(env["elements"]):
        return "constructed set fails direct gcd counting"
    return _want(code, 0, elements=(env["elements"], witness_elements(zip(e["p"], e["q"]))),
                 verdict=(env["verdict"], True))


def _gcdset_check(e, code, env, wd):
    elements = e["elements"]
    if e["perfect"]:
        return _want(code, 0, verdict=(env["verdict"], True),
                     prime_count=(env.get("prime_count"), e["k"]),
                     elements=(env["elements"], elements))
    s, d, c = env["witness_failure"]
    hits = sum(1 for t in elements if math.gcd(s, t) == d)
    if s not in elements or s % d or hits != c or c == 1:
        return f"witness {(s, d, c)} does not refute the set"
    return _want(code, 1, verdict=(env["verdict"], False))


def _funceq_trace(e, code, env, wd):
    limit = e["limit"]
    rules = {"base_one": 1, "base_two": int(limit >= 2),
             "odd_difference": (limit - 1) // 2, "even_double": max(0, limit // 2 - 1)}
    rules = {k: v for k, v in rules.items() if v}
    return _want(code, 0, steps=(env["steps"], limit), replay_ok=(env["replay_ok"], True),
                 rule_counts=(env["rule_counts"], rules))


def _funceq_check(e, code, env, wd):
    count = table_violations(e["limit"], e["mutation"])
    if e["mutation"]:
        n = e["mutation"][0]
        for v in env["violations"]:
            w = v["witnesses"]
            if n not in w and sum(a * a for a in w) != n:
                return f"violation {v} does not involve the mutated n = {n}"
    return _want(code, 1 if count else 0, violation_count=(env["violation_count"], count),
                 limit=(env["limit"], e["limit"]))


def _cyclic_solve(e, code, env, wd):
    entries = env["entries"]
    res = cyclic_residual(entries)
    if res > e["tol"]:
        return f"recomputed residual {res:.3e} exceeds tol {e['tol']:.1e}"
    return _want(code, 0, converged=(env["converged"], True), size=(len(entries), 2 * e["n"]),
                 file=(read_entries(wd / e["file"]), entries))


def _cyclic_verify(e, code, env, wd):
    res = cyclic_residual(read_entries(wd / e["file"]))
    if res > e["tol"] or env["residual_max_abs"] > e["tol"]:
        return f"residual {res:.3e} / reported {env['residual_max_abs']:.3e} exceeds tol"
    # pinned: at a converged solution both certificates held when written
    return _want(code, 0, n=(env["n"], e["n"]), identities_ok=(env["identities"]["ok"], True),
                 minmax_ok=(env["minmax"]["ok"], True))


def _rect_batch(e, code, env, wd):
    tol = env["rel_tol"]
    for row in env["rows"]:
        passes = row["line_defect_rel"] <= tol and max(row["circle_residuals_rel"]) <= tol
        if passes != row["passes"]:
            return f"row {row['index']} verdict disagrees with its residuals"
    return _want(code, 1 if e["perturbed"] else 0,
                 all_pass=(env["all_pass"], not e["perturbed"]),
                 rows=(len(env["rows"]), e["count"]))


def _rect_render(e, code, env, wd):
    svg = (wd / e["svg"]).read_text(encoding="utf-8")
    # pinned: triangle plus three rectangles, three cross lines, three circles plus P
    return _want(code, 0, polygons=(svg.count("<polygon"), 4), lines=(svg.count("<line"), 3),
                 circles=(svg.count("<circle"), 4), closed=(svg.endswith("</svg>\n"), True))


def _pack_build(e, code, env, wd):
    side, margin = Fraction(e["side"]), Fraction(e["margin"])
    _, anchors, _ = read_packing(wd / e["file"])
    expected = lattice_packing(side, margin)
    if len(set(anchors)) != len(anchors) or set(anchors) != expected:
        return f"file holds {len(anchors)} anchors, not the {len(expected)} lattice points that fit"
    r = env["report"]
    return _want(code, 0, valid=(r["valid"], True), count=(r["count"], len(expected)),
                 side=(r["side"], str(side)))


def _pack_validate(e, code, env, wd):
    _, anchors, _ = read_packing(wd / e["file"])
    r = env["report"]
    first_outside, first_overlap = e.get("first_outside"), e.get("first_overlap")
    valid = first_outside is None and first_overlap is None
    return _want(code, 0 if valid else 1, valid=(r["valid"], valid),
                 count=(r["count"], len(anchors)),
                 first_outside=(r["first_outside"], first_outside),
                 first_overlap=(r["first_overlap"], first_overlap))


def _pack_render(e, code, env, wd):
    _, anchors, _ = read_packing(wd / e["file"])
    svg = (wd / e["svg"]).read_text(encoding="utf-8")
    return _want(code, 0, count=(env["count"], len(anchors)),
                 polygons=(svg.count("<polygon"), 1 + 2 * len(anchors)))


CHECKS = {
    "pins_solve": _pins_solve, "pins_oracle": _pins_oracle,
    "gcdset_search": _gcdset_search, "gcdset_construct": _gcdset_construct,
    "gcdset_check": _gcdset_check, "funceq_trace": _funceq_trace,
    "funceq_check": _funceq_check, "cyclic_solve": _cyclic_solve,
    "cyclic_verify": _cyclic_verify, "rect_batch": _rect_batch,
    "rect_render": _rect_render, "pack_build": _pack_build,
    "pack_validate": _pack_validate, "pack_render": _pack_render,
}
