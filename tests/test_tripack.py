import random
from collections import Counter
from fractions import Fraction as F
from itertools import takewhile

import pytest

import sqrt3_reference
from jmokit import cli, tripack
from jmokit.tripack import (
    _inside,
    _integer_form,
    dump_packing,
    float_vertices,
    parse_packing,
    tessellate,
    validate_packing,
)
from sqrt3_reference import (
    SQRT3,
    Sqrt3,
    as_point,
    hex_gauge,
    hex_gauge_overlap,
    hexagon_inside_delta,
    hexagon_vertices,
    packing,
    points,
    triangle_inside_delta,
    triangle_vertices,
    triangles_overlap_exact,
)

SQRT3_QUARTER = Sqrt3(0, F(1, 4))
SQRT3_HALF = Sqrt3(0, F(1, 2))


# -- gauge ----------------------------------------------------------------


def test_gauge_of_hexagon_vertex_is_one():
    assert hex_gauge((1, 0)) == 1
    assert hex_gauge((F(1, 2), SQRT3_HALF)) == 1
    assert hex_gauge((-1, 0)) == 1


def test_gauge_homogeneous_and_symmetric():
    p = (F(3, 5), Sqrt3(F(1, 7), F(2, 11)))
    assert hex_gauge((-p[0], -p[1])) == hex_gauge(p)
    doubled = (p[0] * 2, p[1] * 2)
    assert hex_gauge(doubled) == hex_gauge(p) * 2


def test_overlap_boundary_difference_is_allowed():
    # gauge exactly 1: interiors touch but do not overlap
    assert not hex_gauge_overlap((0, 0), (1, 0))
    assert not triangles_overlap_exact((0, 0), (1, 0))


def test_edge_midpoint_difference_has_gauge_exactly_one():
    # (3/4, sqrt(3)/4) is the midpoint of the hexagon edge from (1, 0) to
    # (1/2, sqrt(3)/2): gauge exactly 1, hence no interior overlap.  It is
    # also a tiling lattice generator, so packings rely on this verdict.
    d = (F(3, 4), SQRT3_QUARTER)
    assert hex_gauge(d) == 1
    assert not hex_gauge_overlap((0, 0), d)
    assert not triangles_overlap_exact((0, 0), d)


def test_identical_anchors_overlap():
    assert hex_gauge_overlap((0, 0), (0, 0))
    assert triangles_overlap_exact((0, 0), (0, 0))


def test_half_offset_overlaps():
    assert triangles_overlap_exact((0, 0), (F(1, 2), 0))
    assert hex_gauge_overlap((0, 0), (F(1, 2), 0))


def test_far_offset_disjoint():
    assert not triangles_overlap_exact((0, 0), (2, 0))
    assert not hex_gauge_overlap((0, 0), (2, 0))


def _random_sqrt3(rng, span):
    return Sqrt3(
        F(rng.randint(-span * 8, span * 8), 8),
        F(rng.randint(-span * 4, span * 4), 8),
    )


def test_overlap_equivalence_on_random_pairs():
    # the two disjointness routes must agree exactly, boundary cases included
    rng = random.Random(99)
    checked = 0
    while checked < 2000:
        dx = _random_sqrt3(rng, 2)
        dy = _random_sqrt3(rng, 2)
        if abs(float(dx)) > 2 or abs(float(dy)) > 2:
            continue
        base = (_random_sqrt3(rng, 3), _random_sqrt3(rng, 3))
        other = (base[0] + dx, base[1] + dy)
        overlap = triangles_overlap_exact(base, other)
        assert overlap == hex_gauge_overlap(base, other)
        # and the integer route of validate_packing agrees with both
        report = validate_packing(packing(F(4), [base, other]))
        assert report.first_overlap == ((0, 1) if overlap else None)
        checked += 1


def test_unit_hexagon_is_triangle_difference_body():
    # each hexagon vertex is a difference of triangle vertices...
    tri = triangle_vertices((Sqrt3(0), Sqrt3(0)))
    diffs = {
        (p[0] - q[0], p[1] - q[1]) for p in tri for q in tri if p != q
    }
    hexagon = hexagon_vertices((Sqrt3(0), Sqrt3(0)), F(1))
    assert set(hexagon) == diffs
    # ...and differences of interior points have gauge below 1
    rng = random.Random(7)
    for _ in range(300):
        ws = [[rng.randint(1, 9) for _ in range(3)] for _ in range(2)]
        pts = []
        for w in ws:
            t = sum(w)
            x = sum(F(wi, t) * v[0] for wi, v in zip(w, tri))
            y = sum(F(wi, t) * v[1] for wi, v in zip(w, tri))
            pts.append((x, y))
        d = (pts[0][0] - pts[1][0], pts[0][1] - pts[1][1])
        assert hex_gauge(d) <= 1


# -- containment ----------------------------------------------------------


def test_hexagon_inside_delta_interior_anchor():
    instance = packing(F(10), [])
    assert hexagon_inside_delta(instance, (5, 3))


def test_hexagon_inside_delta_tightest_case():
    # L = 2 admits exactly one anchor; triangle corners and hexagon touch
    # the boundary of Delta simultaneously
    instance = packing(F(2), [])
    anchor = (1, SQRT3_HALF)
    assert triangle_inside_delta(anchor, F(2))
    assert hexagon_inside_delta(instance, anchor)


def test_hexagon_inside_delta_rejects_poking_triangle():
    instance = packing(F(4), [])
    with pytest.raises(ValueError):
        hexagon_inside_delta(instance, (0, SQRT3_HALF))


def test_hexagon_lemma_wherever_triangle_fits():
    # whenever the triangle is inside Delta, so is its side-1/2 hexagon
    rng = random.Random(13)
    for side in (F(2), F(5, 2), F(3), F(6)):
        instance = packing(side, [])
        hits = 0
        while hits < 60:
            x = F(rng.randint(0, int(side * 8)), 8)
            y = Sqrt3(0, F(rng.randint(0, int(side * 8)), 16))
            if triangle_inside_delta((Sqrt3(x), y), side):
                assert hexagon_inside_delta(instance, (Sqrt3(x), y))
                hits += 1


def test_no_unit_triangle_fits_below_side_two():
    # anchor feasibility needs 1 <= x <= L - 1, impossible for L < 2;
    # in particular the single "inscribed" anchor for L = 1 pokes outside
    assert not triangle_inside_delta((F(1, 2), SQRT3_HALF), F(1))
    rng = random.Random(17)
    for _ in range(2000):
        side = F(rng.randint(1, 15), 8)  # L in (0, 2)
        x = F(rng.randint(-8, 8 * 2), 8)
        y = Sqrt3(F(rng.randint(0, 8), 8), F(rng.randint(0, 16), 16))
        assert not triangle_inside_delta((Sqrt3(x), y), side)


# -- validation -----------------------------------------------------------


def test_validate_two_triangle_packing():
    instance = packing(F(3), [(1, SQRT3_HALF), (2, SQRT3_HALF)])
    report = validate_packing(instance)
    assert report.valid
    assert report.count == 2
    assert report.bound_ok  # 2 <= (2/3) * 9 = 6
    assert not report.bound_is_warning


def test_validate_reports_offending_pair():
    instance = packing(F(4), [(F(3, 2), SQRT3_HALF), (2, SQRT3_HALF), (3, SQRT3_HALF)])
    report = validate_packing(instance)
    assert not report.valid
    assert not report.disjoint
    assert report.first_overlap == (0, 1)


def test_validate_reports_outside_anchor():
    instance = packing(F(1), [(F(1, 2), SQRT3_HALF)])
    report = validate_packing(instance)
    assert not report.all_inside
    assert report.first_outside == 0
    assert report.bound_is_warning  # L < 2: count bound only warns
    assert not report.valid


def test_grid_and_bruteforce_validation_agree():
    instance = tessellate(F(8))
    assert validate_packing(instance).valid
    assert _verdicts(instance) == _reference_verdicts(instance) == (None, None)
    # and they agree on an invalid instance too
    bad = packing(F(8), points(instance) + [points(instance)[0]])
    assert _verdicts(bad) == _reference_verdicts(bad) == (None, (0, len(points(instance))))


# -- integer verdicts against the Sqrt3 predicates ---------------------------


def _reference_verdicts(instance):
    """(first_outside, first_overlap) from the Sqrt3 predicates, all pairs."""
    side, anchors = instance.side_len, points(instance)
    first_outside = next(
        (k for k, a in enumerate(anchors) if not triangle_inside_delta(a, side)), None
    )
    first_overlap = next(
        ((i, j) for j in range(len(anchors)) for i in range(j)
         if triangles_overlap_exact(anchors[i], anchors[j])),
        None,
    )
    return first_outside, first_overlap


def _verdicts(instance):
    report = validate_packing(instance)
    return report.first_outside, report.first_overlap


def test_integer_route_matches_sqrt3_on_random_packings():
    # subsets of lattice packings (neighbours touch at gauge exactly 1) with
    # anchors nudged by irrational amounts, duplicated or pushed out of Delta
    rng = random.Random(2024)

    def nudge():
        return Sqrt3(F(rng.randint(-6, 6), 16), F(rng.randint(-3, 3), 16))

    seen = Counter()
    for _ in range(150):
        side = F(rng.randint(16, 40), 4)
        lattice = points(tessellate(side))
        anchors = rng.sample(lattice, rng.randint(2, min(10, len(lattice))))
        for k in range(len(anchors)):
            if rng.random() < 0.3:
                anchors[k] = (anchors[k][0] + nudge(), anchors[k][1] + nudge())
        if rng.random() < 0.2:
            anchors.append(rng.choice(anchors))
        if rng.random() < 0.2:
            k = rng.randrange(len(anchors))
            anchors[k] = (anchors[k][0] - side / 2 + nudge(), anchors[k][1])
        instance = packing(side, anchors)
        expected = _reference_verdicts(instance)
        assert _verdicts(instance) == expected
        seen["outside" if expected[0] is not None else "inside"] += 1
        seen["overlap" if expected[1] is not None else "disjoint"] += 1
    assert min(seen.values()) >= 20, seen


def _turn60(p):
    x, y = p
    return (x * F(1, 2) - y * SQRT3_HALF, x * SQRT3_HALF + y * F(1, 2))


def test_integer_route_at_gauge_exactly_one():
    # boundary points of the unit hexagon: the vertex (1, 0), the edge
    # midpoint (3/4, sqrt(3)/4) and the irrational point
    # (3/2 - sqrt(3)/2, 3/2 - sqrt(3)/2) of the same edge, in all six turns
    points = [(Sqrt3(1), Sqrt3(0)), (Sqrt3(F(3, 4)), SQRT3_QUARTER),
              (Sqrt3(F(3, 2), F(-1, 2)), Sqrt3(F(3, 2), F(-1, 2)))]
    for _ in range(5):
        points += [_turn60(p) for p in points[-3:]]
    base = (Sqrt3(F(9, 2), F(1, 3)), Sqrt3(F(5, 2), F(1, 2)))
    for d in points:
        assert hex_gauge(d) == 1
        for scale, overlap in ((F(63, 64), True), (F(1), False), (F(65, 64), False)):
            other = (base[0] + d[0] * scale, base[1] + d[1] * scale)
            instance = packing(F(12), [base, other])
            expected = (None, (0, 1) if overlap else None)
            assert _reference_verdicts(instance) == expected
            assert _verdicts(instance) == expected


def test_integer_containment_on_inset_edges():
    # a vertex exactly on an inset edge of Delta, then nudged either way
    on_edge = 0
    for side, margin in ((F(6), F(0)), (F(6), F(1, 4)), (F(29, 4), F(1, 3))):
        xl = Sqrt3(2, F(1, 7))
        xb = Sqrt3(side / 2, F(1, 9))
        anchors = [
            (xb, margin + SQRT3_HALF),                            # bottom vertex on the base
            (xl, SQRT3 * (xl - F(1, 2)) - 2 * margin),            # left vertex on the left edge
            (side - xl, SQRT3 * (xl - F(1, 2)) - 2 * margin),     # right vertex on the right edge
        ]
        for ax, ay in anchors:
            for eps in (F(-1, 1000), F(0), F(1, 1000)):
                for a in ((ax + eps, ay), (ax, ay + eps)):
                    expected = triangle_inside_delta(a, side, margin)
                    x, y = as_point(a)
                    form = _integer_form((x.a, x.b, y.a, y.b), side, margin)
                    assert _inside(*form, side, margin) == expected
                    on_edge += expected and eps == 0
    assert on_edge == 18


def _lattice_candidates(side):
    # the tessellation lattice over the index ranges tessellate scans
    for m in range(int(2 * side) - 2):
        for i in range(-1, int(4 * (side - 2) / 3) + 3):
            if (i - m) % 2 == 0:
                yield (Sqrt3(1 + F(3 * i, 4)), Sqrt3(0, F(2 + m, 4)))


def test_tessellate_matches_sqrt3_clipping():
    for side in (F(4), F(19, 4), F(6), F(29, 2)):
        for margin in (F(0), F(1, 4), F(1, 3), F(3, 2)):
            expected = [a for a in _lattice_candidates(side)
                        if triangle_inside_delta(a, side, margin)]
            assert points(tessellate(side, margin)) == expected


def _primes_from_eleven(count):
    primes = [2, 3, 5, 7]
    n = 11
    while len(primes) < count + 4:
        if all(n % p for p in takewhile(lambda p: p * p <= n, primes)):
            primes.append(n)
        n += 2
    return primes[4:]


def _grid_reference_overlap(anchors):
    # the Sqrt3 route behind a grid of unit cells, for files too large for all pairs
    cells = {}
    for j, a in enumerate(anchors):
        key = (a[0].floor(), a[1].floor())
        near = sorted(i for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                      for i in cells.get((key[0] + dx, key[1] + dy), ()))
        for i in near:
            if triangles_overlap_exact(anchors[i], anchors[j]):
                return (i, j)
        cells.setdefault(key, []).append(j)
    return None


def test_integer_route_on_distinct_prime_denominators():
    # 1,500 anchors whose x components have pairwise distinct prime
    # denominators: rows sqrt(3) apart, anchors about 2 apart in a row
    primes = _primes_from_eleven(1502)
    side = F(120)
    anchors = []
    j = 0
    while len(anchors) < 1500:
        y = Sqrt3(0, 1 + j)
        for i in range(int((side - 4 - 2 * j) / 2) + 1):
            if len(anchors) < 1500:
                x = F(3, 2) + j + 2 * i + F(1, primes[len(anchors)])
                anchors.append((Sqrt3(x), y))
        j += 1
    instance = packing(side, anchors)
    assert all(triangle_inside_delta(a, side) for a in anchors)
    assert _grid_reference_overlap(anchors) is None
    assert _verdicts(instance) == (None, None)
    # one planted overlap, then one planted outside anchor, each with a new prime
    twin = (anchors[700][0] + F(1, primes[1500]), anchors[700][1])
    assert triangles_overlap_exact(anchors[700], twin)
    instance = packing(side, anchors + [twin])
    assert _verdicts(instance) == (None, (700, 1500))
    out = (Sqrt3(F(-1, primes[1501])), Sqrt3(0, 2))
    assert not triangle_inside_delta(out, side)
    instance = packing(side, anchors[:1000] + [out] + anchors[1000:])
    assert _verdicts(instance) == (1000, None)


# -- tessellation -----------------------------------------------------------


def test_tessellate_minimum_side():
    report = validate_packing(tessellate(F(4)))
    assert report.count >= 1
    assert report.valid


def test_tessellate_rejects_small_sides():
    with pytest.raises(ValueError):
        tessellate(F(3))


def test_tessellate_refuses_sides_above_the_density_bound():
    # (2/3) L^2 <= MAX_PACK_ANCHORS = 10^6 allows L = 1224, not 1225
    assert F(2, 3) * 1224**2 <= tripack.MAX_PACK_ANCHORS < F(2, 3) * 1225**2
    with pytest.raises(ValueError, match="MAX_PACK_ANCHORS"):
        tessellate(F(1225))


def test_tessellate_rejects_negative_margin():
    with pytest.raises(ValueError):
        tessellate(F(8), margin=F(-1))


def test_tessellate_with_margin_keeps_distance():
    margined = tessellate(F(10), margin=F(1, 2))
    assert validate_packing(margined).valid
    assert all(
        triangle_inside_delta(a, F(10), F(1, 2)) for a in points(margined)
    )
    assert margined.count < tessellate(F(10)).count


def test_tessellate_density_at_sixty():
    instance = tessellate(F(60))
    report = validate_packing(instance)
    assert report.valid
    assert report.count >= 2208  # (2/3 - 0.05) * 3600
    assert report.count <= 2400  # (2/3) * 3600


def test_tessellate_boundary_loss_is_linear():
    # the loss (2/3)L^2 - n(L) stays within (0, (5/3)L], so eps(L) <= 5/(3L)
    for side in range(4, 61):
        loss = F(2, 3) * side * side - tessellate(side).count
        assert 0 < loss <= F(5, 3) * side, side


def test_tessellate_rational_side():
    report = validate_packing(tessellate(F(19, 4)))
    assert report.valid and report.count >= 1


def test_validated_packing_hexagon_facts():
    # the area argument behind the 2/3 bound, checked on a real packing:
    # anchor differences have gauge >= 1, each side-1/2 hexagon fits in
    # Delta, and n * (3*sqrt(3)/8) <= (sqrt(3)/4) L^2 numerically
    instance = tessellate(F(8))
    assert validate_packing(instance).valid
    anchors = points(instance)
    for j in range(len(anchors)):
        for i in range(j):
            d = (anchors[j][0] - anchors[i][0], anchors[j][1] - anchors[i][1])
            assert hex_gauge(d) >= 1
        assert hexagon_inside_delta(instance, anchors[j])
    hex_area = 3 * 3**0.5 / 8
    delta_area = 3**0.5 / 4 * float(instance.side_len) ** 2
    assert len(anchors) * hex_area <= delta_area + 1e-9


# -- file format -------------------------------------------------------------


def test_packing_roundtrip():
    instance = tessellate(F(5))
    text = dump_packing(instance)
    back = parse_packing(text)
    assert back.side_len == instance.side_len
    assert points(back) == points(instance)


def test_dump_of_parse_is_canonical():
    # decimal and exponent fields, odd denominators, negative fields and y3
    # parts; a zero y3 is dropped, and the canonical text reads back to itself
    text = ("# hand-written\n 10.0 \n\n3 1/5 3/7\n0.5 -0.25\n9/2 0 5/9\n"
            "-3/7 -1/3 -7/9  # below and left of Delta\n17/3 2/6 0\n1.5e1 0.5 0.125\n")
    canonical = "10\n3 1/5 3/7\n1/2 -1/4\n9/2 0 5/9\n-3/7 -1/3 -7/9\n17/3 1/3\n15 1/2 1/8\n"
    assert dump_packing(parse_packing(text)) == canonical
    assert dump_packing(parse_packing(canonical)) == canonical
    assert points(parse_packing(text))[4] == (Sqrt3(F(17, 3)), Sqrt3(F(1, 3)))


def test_dump_refuses_irrational_x():
    instance = packing(F(4), [(Sqrt3(2, F(1, 5)), SQRT3)])
    with pytest.raises(ValueError, match="rational x"):
        dump_packing(instance)


def test_file_route_makes_no_sqrt3(monkeypatch, capsys, tmp_path):
    # tessellate, dump_packing, parse_packing, validate_packing and pack render
    # work on the integer forms alone: building any Sqrt3 (constructor or
    # arithmetic) raises
    def refuse(*args):
        raise AssertionError("a Sqrt3 was built")

    def render(text):
        path, svg = tmp_path / "p.txt", tmp_path / "p.svg"
        path.write_text(text)
        assert cli.run(["pack", "render", "--input", str(path), "--svg", str(svg)]) == 0
        capsys.readouterr()
        return svg.read_bytes()

    hand = "25/3\n3 1/5 3/7\n9/2 0 5/9\n17/3 -1/3 7/9\n9/2 1/5 5/9\n"
    built = tessellate(F(29, 2), F(1, 2))
    expected_text = dump_packing(built)
    expected = validate_packing(built)
    assert expected.valid and expected.count == len(points(built)) == 70
    hand_verdicts = _reference_verdicts(parse_packing(hand))
    assert hand_verdicts == (None, (1, 3))
    expected_svgs = [render(hand), render(expected_text)]
    monkeypatch.setattr(Sqrt3, "__init__", refuse)
    monkeypatch.setattr(sqrt3_reference, "_reduced", refuse)
    with pytest.raises(AssertionError):
        SQRT3 + 1
    text = dump_packing(tessellate(F(29, 2), F(1, 2)))
    assert text == expected_text
    assert validate_packing(parse_packing(text)) == expected
    assert dump_packing(parse_packing(hand)) == hand
    assert _verdicts(parse_packing(hand)) == hand_verdicts
    assert [render(hand), render(text)] == expected_svgs


def test_float_vertices_match_reference():
    # each drawn point equals float() of the Sqrt3 reference point, for
    # irrational x, negative fields and denominators up to 2^40
    rng = random.Random(2021)
    denominators = (1, 3, 97, 10**6 + 3, 2**40)

    def rational():
        d = rng.choice(denominators)
        return F(rng.randint(-20 * d, 20 * d), d)

    def floats(points):
        return [(float(x), float(y)) for x, y in points]

    for _ in range(100):
        anchors = [(Sqrt3(rational(), rational()), Sqrt3(rational(), rational()))
                   for _ in range(rng.randint(1, 6))]
        instance = packing(abs(rational()) + F(1, rng.choice(denominators)), anchors)
        reference = [(floats(triangle_vertices(a)), floats(hexagon_vertices(a, F(1, 2))))
                     for a in anchors]
        assert list(float_vertices(instance.forms)) == reference


def test_parse_packing_rejects_garbage():
    with pytest.raises(ValueError):
        parse_packing("")
    with pytest.raises(ValueError):
        parse_packing("5\n1 2 3 4 5\n")


@pytest.mark.parametrize("text, message", [
    ("1/0\n1 1\n", "line 1: side has a zero denominator"),
    ("10\n1/0 1\n", "line 2: x has a zero denominator"),
    ("10\n1 -3/0\n", "line 2: y has a zero denominator"),
    ("10\n# c\n1 1 0/0\n", "line 3: y3 has a zero denominator"),
    ("10\n1e1 1 1/0\n", "line 2: y3 has a zero denominator"),
])
def test_parse_packing_names_a_zero_denominator(text, message):
    with pytest.raises(ValueError) as refusal:
        parse_packing(text)
    assert str(refusal.value) == message


def test_parse_packing_reports_physical_line_numbers():
    with pytest.raises(ValueError, match="^line 4: expected 'x y \\[y3\\]', got '5 3 1 2'$"):
        parse_packing("10\n\n# c\n5 3 1 2\n")


def test_parse_packing_optional_component():
    instance = parse_packing("10\n5 3\n11/2 0 1/2\n")
    assert points(instance)[0] == (Sqrt3(5), Sqrt3(3))
    assert points(instance)[1] == (Sqrt3(F(11, 2)), Sqrt3(0, F(1, 2)))
