import math
import random
import tracemalloc

import pytest

import scan_reference
from jmokit import scan
from jmokit.kernel import LatticePoint
from jmokit.pinopt import (
    CERTIFIED_OPTIMAL,
    PinState,
    family_search,
    family_state,
    lower_bound,
    min_moves,
    oracle_min_moves,
)


def test_lower_bound_examples():
    assert lower_bound(4042) == 128  # 4*4042 = 16168, 127^2 < 16168 <= 128^2
    assert lower_bound(1) == 2
    assert lower_bound(3) == 4


def test_lower_bound_rejects_zero():
    with pytest.raises(ValueError):
        lower_bound(0)


def test_family_search_trivial():
    state = family_search(1)
    assert state == family_state(0, 0, 1, 1)
    assert state.doubled_area == 1
    assert state.move_cost == 2


def test_family_search_small():
    # first member at the bound 5 for doubled area 5: 1*2 + 1*1 + 1*2 = 5
    state = family_search(5)
    assert state == family_state(1, 1, 1, 2)


def test_family_search_contest_instance():
    state = family_search(4042)
    assert state.move_cost == 128
    assert state.doubled_area == 4042
    # deterministic first member in (p, q, x) order
    assert state == family_state(1, 5, 56, 66)


def test_family_reflections_preserve_cost_and_area():
    # reflecting any witness across either axis changes nothing measurable,
    # which is why the search enumerates only the base family
    state = family_search(4042)
    for sx, sy in ((1, -1), (-1, 1), (-1, -1)):
        reflected = PinState(
            *(LatticePoint(sx * p.x, sy * p.y)
              for p in (state.a_pin, state.b_pin, state.c_pin))
        )
        assert reflected.move_cost == state.move_cost
        assert reflected.doubled_area == state.doubled_area


def test_oracle_examples():
    assert oracle_min_moves(1, 3) == 2
    assert oracle_min_moves(2, 3) == 3  # e.g. (0,0), (2,0), (0,1)
    assert oracle_min_moves(4, 4) == 4  # e.g. (0,0), (2,0), (0,2)


def test_oracle_rejects_small_radius():
    with pytest.raises(ValueError):
        oracle_min_moves(26, 5)  # 4*26 = 104 > 100 = (2*5)^2


def test_min_moves_contest_instance():
    cert = min_moves(4042)
    assert cert.witness.move_cost == 128
    assert cert.status == CERTIFIED_OPTIMAL
    assert cert.lower_bound == 128
    assert cert.witness.doubled_area == 4042


def test_min_moves_trivial():
    cert = min_moves(1)
    assert cert.witness.move_cost == 2
    assert cert.status == CERTIFIED_OPTIMAL


def test_min_moves_three():
    cert = min_moves(3)
    assert cert.witness.move_cost == 4
    assert cert.status == CERTIFIED_OPTIMAL


def test_min_moves_witness_area_is_exact():
    for doubled in range(1, 41):
        cert = min_moves(doubled)
        assert cert.witness.doubled_area == doubled
        assert cert.witness.move_cost >= cert.lower_bound


def test_oracle_equivalence_small():
    # the family-based solver and the exhaustive scan agree on [1..200], at the
    # least radius that misses no triangle of cost lower_bound: a vertex of L1
    # norm equal to the whole cost leaves the other two at the origin
    # (test_acceptance runs the same range at lower_bound + 2)
    for doubled in range(1, 201):
        bound = lower_bound(doubled)
        exhaustive = oracle_min_moves(doubled, bound - 1)
        cert = min_moves(doubled)
        assert bound <= exhaustive
        assert cert.witness.move_cost == exhaustive


def test_bounding_box_dominates_doubled_area():
    # doubled area <= width * height of the axis-parallel bounding box
    coord = random.Random(0).randint
    for _ in range(100_000):
        ax, ay, bx, by, cx, cy = (coord(-50, 50) for _ in range(6))
        doubled = abs(ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        box = (max(ax, bx, cx) - min(ax, bx, cx)) * (max(ay, by, cy) - min(ay, by, cy))
        assert doubled <= box, (ax, ay, bx, by, cx, cy)


def reference_min_cost_triangle(doubled_area, radius, cost_cap):
    """Plain triple loop over points sorted by (cost, x, y): cheapest, then first (i, j, k)."""
    cost, px, py = zip(*sorted((abs(x) + abs(y), x, y)
                               for x in range(-radius, radius + 1)
                               for y in range(-(radius - abs(x)), radius - abs(x) + 1)))
    n = len(cost)
    best = None
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                tot = cost[i] + cost[j] + cost[k]
                cross = ((px[j] - px[i]) * (py[k] - py[i])
                         - (py[j] - py[i]) * (px[k] - px[i]))
                if tot <= cost_cap and abs(cross) == doubled_area:
                    best = min(best or (tot, i, j, k), (tot, i, j, k))
    if best is None:
        return None
    tot, *idx = best
    return tot, tuple(LatticePoint(px[t], py[t]) for t in idx)


def scan_reference_cases():
    """45 (doubled area, radius, cap) cases with radius <= 8."""
    rng = random.Random(23)
    cases = [(d, lower_bound(d), 2 * lower_bound(d)) for d in range(1, 17)]
    cases += [(rng.randint(1, 40), r, rng.randint(r, 2 * r))
              for r in (rng.randint(2, 5) for _ in range(16))]
    cases += [(50, 1, 2), (30, 4, 5)]  # out of reach: both give None
    # winning pairs (i, j) with p_j - p_i horizontal, with p_j - p_i = (a, +-1)
    # and a != 0, and with two k at the cost of j, where (x, y) decides
    cases += [(2, 2, 4), (11, 4, 8), (9, 3, 6)]
    # pairs with gcd(p_j - p_i) > 1 not dividing D, which must be skipped
    cases += [(7, 2, 6), (5, 3, 6)]
    # caps above 2 * radius (the radius bounds k) and below the radius
    cases += [(3, 1, 5), (3, 2, 7), (2, 1, 3), (23, 4, 12), (1, 3, 2), (6, 4, 3)]
    return cases


def test_scan_matches_triple_loop_reference():
    for doubled, radius, cap in scan_reference_cases():
        expected = reference_min_cost_triangle(doubled, radius, cap)
        assert scan.min_cost_triangle(doubled, radius, cap) == expected, (doubled, radius, cap)


def test_scan_matches_the_reference_pair_scan_beyond_radius_8():
    # 360 cases at radius 9-24; doubled areas up to 200 keep the reference
    # loop near a second, and caps r + 1 leave some of them unreachable
    rng = random.Random(4042)
    for _ in range(120):
        radius, doubled = rng.randint(9, 24), rng.randint(1, 200)
        for cap in (radius + 1, 2 * radius, 3 * radius):
            expected = scan_reference.min_cost_triangle(doubled, radius, cap)
            assert scan.min_cost_triangle(doubled, radius, cap) == expected, (doubled, radius, cap)


def scans_with_calls(monkeypatch, cases):
    """For each (doubled, radius, cap): the scan's result, and (p_i, p_j, r, found)
    for each pair the scan hands to its third-vertex search."""
    least_third, log = scan._least_third, []

    def spy(xi, yi, ux, uy, doubled_area, r):
        found = least_third(xi, yi, ux, uy, doubled_area, r)
        log[-1].append(((xi, yi), (xi + ux, yi + uy), r, found))
        return found

    monkeypatch.setattr(scan, "_least_third", spy)
    for case in cases:
        log.append([])
        yield scan.min_cost_triangle(*case), log[-1]


def admitted_best(calls, radius, cap):
    """The best cost after calls, each checked to be a pair the cost bound admits."""
    # pairs come in (cost, x, y) order, each at the r the bound gives, and
    # each hit is strictly cheaper than the best before it
    best, last = cap + 1, None
    for pi, pj, r, found in calls:
        ki, kj = ((abs(x) + abs(y), x, y) for x, y in (pi, pj))
        assert ki < kj and (last is None or last < (ki, kj)), (pi, pj)
        last = ki, kj
        ci, cj = ki[0], kj[0]
        assert 3 * ci < best and 2 * cj < best - ci, (pi, pj, best)
        assert r == min(radius, best - 1 - ci - cj), (pi, pj, r, best)
        if found is not None:
            assert ci + cj + found[0] < best, (pi, pj, found, best)
            best = ci + cj + found[0]
    return best


def test_a_hit_ends_the_rest_of_its_shell(monkeypatch):
    # the hit at p_i = (0, 0), p_j = (-2, -1) sets best = 6 = 0 + 2*3, so the
    # rest of shell 3, (0, -3), (0, 3) and (3, 0), is not paired with (0, 0)
    [(result, calls)] = scans_with_calls(monkeypatch, [(5, 3, 6)])
    assert result == scan_reference.min_cost_triangle(5, 3, 6)
    assert calls[5] == ((0, 0), (-2, -1), 3, (3, -1, 2))
    assert calls[6][0] == (-1, 0)
    assert admitted_best(calls, 3, 6) == result[0]


def test_a_hit_lowers_r_for_the_rest_of_its_shell(monkeypatch):
    # the hit at p_i = (0, 0), p_j = (-2, -1) sets best = 7, so (0, -3),
    # (0, 3) and (3, 0), the rest of shell 3, are searched with r = 3; with r
    # left at 4 the scan ends on another witness of cost 6
    [(result, calls)] = scans_with_calls(monkeypatch, [(7, 4, 8)])
    assert result == scan_reference.min_cost_triangle(7, 4, 8)
    assert calls[5] == ((0, 0), (-2, -1), 4, (4, -1, 3))
    assert [(pj, r) for _, pj, r, _ in calls[6:9]] == [((0, -3), 3), ((0, 3), 3), ((3, 0), 3)]
    assert admitted_best(calls, 4, 8) == result[0]


def test_scan_hands_on_only_admitted_pairs(monkeypatch):
    cases = [(doubled, radius, cap) for radius in range(1, 7)
             for doubled in range(1, 4 * radius * radius + 3)
             for cap in (radius + 1, 2 * radius, 3 * radius)]
    for (doubled, radius, cap), (result, calls) in zip(cases, scans_with_calls(monkeypatch, cases)):
        best = admitted_best(calls, radius, cap)
        assert best == (cap + 1 if result is None else result[0]), (doubled, radius, cap)


def test_scan_memory_is_bounded():
    # the ball holds 20,201 points at radius 100 and 2,002,001 at 1000; the
    # scan walks only the shells the cost bound reaches
    for radius in (100, 1000):
        tracemalloc.start()
        try:
            hit = scan.min_cost_triangle(4, radius, 2 * radius)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hit is not None and hit[0] == 4
        assert peak < 2**20, (radius, peak)


def test_ball_points_match_sorted_tuples():
    # shells 0, 1, ..., radius in turn give the points in (cost, x, y) order
    for radius in range(1, 41):
        pts = sorted((abs(x) + abs(y), x, y)
                     for x in range(-radius, radius + 1)
                     for y in range(-(radius - abs(x)), radius - abs(x) + 1))
        shells = [(0, 0, 0)] + [p for c in range(1, radius + 1) for p in scan._shell(c)]
        assert shells == pts, radius


def closed_form_member(doubled_area):
    """The family member of the module docstring, of cost lower_bound(D)."""
    n = lower_bound(doubled_area)
    big_x, big_y = n // 2, (n + 1) // 2
    s = big_x * big_y - doubled_area
    if s == 0:
        return family_state(0, 0, big_x, big_y)
    return family_state(1, s, big_x - 1, big_y - s)


def test_closed_form_meets_lower_bound():
    for doubled in range(1, 20_001):
        state = closed_form_member(doubled)
        assert state.move_cost == lower_bound(doubled), doubled
        assert state.doubled_area == doubled, doubled


def test_family_search_meets_lower_bound():
    for doubled in range(1, 2_001):
        state = family_search(doubled)
        assert state.move_cost == lower_bound(doubled), doubled
        assert state.doubled_area == doubled, doubled
        assert state.a_pin.x >= -1, doubled  # rows p = 0 and p = 1 only


def _q_walk_family_search(doubled_area, budget):
    # the family search as a walk over every (p, q), one square root each
    for p in range(budget + 1):
        for q in range(budget - p + 1):
            s = budget - p - q
            b = s + q - p
            disc = b * b - 4 * (doubled_area - p * s)
            if disc < 0:
                continue
            r = math.isqrt(disc)
            if r * r != disc:
                continue
            for t in (b - r, b + r):
                if t < 0 or t % 2 or t // 2 > s:
                    continue
                x = t // 2
                y = s - x
                if x * y + q * x + p * y == doubled_area:
                    return family_state(p, q, x, y)
                if r == 0:
                    break
    return None


def test_family_search_matches_q_walk():
    for doubled in range(1, 5_000):
        assert family_search(doubled) == _q_walk_family_search(doubled, lower_bound(doubled)), (
            doubled)


def test_min_moves_certifies_eighteen_digit_areas():
    # first members in (p, q, x) order, as the search over all rows p <= n found them
    for doubled, (p, q, x, y) in (
        (10**17 + 3, (1, 10_639, 316_210_285, 316_234_608)),
        (123_456_789_012_345_678, (1, 10_786, 351_355_077, 351_362_502)),
        (999_999_999_999_999_989, (1, 2, 999_999_996, 1_000_000_001)),
    ):
        cert = min_moves(doubled)
        assert cert.status == CERTIFIED_OPTIMAL
        assert cert.witness == family_state(p, q, x, y)
        assert cert.witness.move_cost == cert.lower_bound == lower_bound(doubled)
        assert cert.witness.doubled_area == doubled


def test_scan_witness_is_canonical():
    hit = scan.min_cost_triangle(2, 3, cost_cap=6)
    assert hit is not None
    cost, pins = hit
    assert cost == 3
    doubled = abs(
        (pins[1].x - pins[0].x) * (pins[2].y - pins[0].y)
        - (pins[1].y - pins[0].y) * (pins[2].x - pins[0].x)
    )
    assert doubled == 2
    assert sum(p.l1() for p in pins) == 3


def test_scan_cost_cap_is_inclusive():
    assert scan.min_cost_triangle(2, 3, cost_cap=3)[0] == 3
    assert scan.min_cost_triangle(2, 3, cost_cap=2) is None


def test_scan_returns_none_when_unreachable():
    # doubled area 50 needs a bigger box than radius 1 allows
    assert scan.min_cost_triangle(50, 1, cost_cap=2) is None
