import math
import random

import pytest

from jmokit.rectconcur import (
    InfeasibleHeights,
    TriangleABC,
    altitude_feet,
    angle_at,
    build_config,
    build_config_with_heights,
    certify_batch,
    certify_concurrency,
    circumcircles,
    random_config,
    solve_third_height,
)

EQUILATERAL = TriangleABC((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2))


def test_solve_third_height_symmetric():
    # each arctan(1 / (1/sqrt3)) = arctan(sqrt3) = 60 degrees; symmetry
    # forces the third height to match the other two
    h = 3 ** -0.5
    assert solve_third_height(EQUILATERAL, h, h) == pytest.approx(h, abs=1e-12)


def test_solve_third_height_infeasible():
    with pytest.raises(InfeasibleHeights):
        solve_third_height(EQUILATERAL, 10.0, 10.0)


def test_solve_third_height_rejects_bad_heights():
    with pytest.raises(ValueError):
        solve_third_height(EQUILATERAL, -1.0, 1.0)


def test_triangle_must_be_acute():
    with pytest.raises(ValueError):
        TriangleABC((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))  # right angle
    with pytest.raises(ValueError):
        TriangleABC((0.0, 0.0), (3.0, 0.0), (1.0, 0.5))  # obtuse
    with pytest.raises(ValueError):
        TriangleABC((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))  # flat
    with pytest.raises(ValueError):
        TriangleABC((0.0, 0.0), (0.0, 0.0), (1.0, 1.0))  # coincident


def test_angle_constraint_holds_after_solve():
    rng = random.Random(5)
    for _ in range(50):
        config = random_config(rng)
        assert config.angle_sum_defect() <= 1e-12


def test_build_config_outward_orientation():
    tri = TriangleABC((0.0, 0.0), (4.0, 0.0), (1.0, 3.0))
    config = build_config(tri, 2.0, 2.0)
    # C1 = C + h_a * n with n pointing away from A: A and C1 strictly
    # separated by line BC
    b, c, a = tri.b_pt, tri.c_pt, tri.a_pt

    def side(p):
        return (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])

    assert side(a) * side(config.c1) < 0
    assert side(a) * side(config.b2) < 0
    # rectangle right angles
    for corner, u, v in (
        (c, config.c1, b),
        (config.c1, config.b2, c),
    ):
        dot = ((u[0] - corner[0]) * (v[0] - corner[0])
               + (u[1] - corner[1]) * (v[1] - corner[1]))
        assert abs(dot) < 1e-9


def test_outward_orientation_ignores_winding():
    # same triangle entered clockwise: rectangles must still point outward
    tri_ccw = TriangleABC((0.0, 0.0), (4.0, 0.0), (1.0, 3.0))
    tri_cw = TriangleABC((0.0, 0.0), (1.0, 3.0), (4.0, 0.0))
    for tri in (tri_ccw, tri_cw):
        config = build_config(tri, 1.5, 1.5)
        report = certify_concurrency(config)
        assert report.passes()


def test_symmetric_equilateral_concurrency_at_center():
    h = 3 ** -0.5
    config = build_config(EQUILATERAL, h, h)
    report = certify_concurrency(config)
    assert report.passes()
    center = (0.5, math.sqrt(3) / 6)
    assert report.p_point[0] == pytest.approx(center[0], abs=1e-9)
    assert report.p_point[1] == pytest.approx(center[1], abs=1e-9)


def test_random_configs_certify():
    rng = random.Random(71)
    for _ in range(30):
        report = certify_concurrency(random_config(rng))
        assert report.passes()


def test_supplementary_angle_invariants():
    rng = random.Random(72)
    for _ in range(25):
        config = random_config(rng)
        t = config.triangle
        p = certify_concurrency(config).p_point
        apc = angle_at(p, t.a_pt, t.c_pt) + angle_at(config.a1, t.c_pt, t.a_pt)
        apb = angle_at(p, t.a_pt, t.b_pt) + angle_at(config.b1, t.a_pt, t.b_pt)
        bpc = angle_at(p, t.b_pt, t.c_pt) + angle_at(config.c1, t.b_pt, t.c_pt)
        assert apc == pytest.approx(math.pi, abs=1e-9)
        assert apb == pytest.approx(math.pi, abs=1e-9)
        assert bpc == pytest.approx(math.pi, abs=1e-9)


def test_altitude_feet_coincide():
    rng = random.Random(73)
    for _ in range(25):
        config = random_config(rng)
        fa, fb, fc = altitude_feet(config)
        scale = config.scale
        assert math.dist(fa, fb) <= 1e-9 * scale
        assert math.dist(fb, fc) <= 1e-9 * scale
        assert math.dist(fa, fc) <= 1e-9 * scale


def test_circumcircles_pass_through_rectangle_corners():
    rng = random.Random(74)
    config = random_config(rng)
    t = config.triangle
    rects = (
        (t.b_pt, t.c_pt, config.c1, config.b2),
        (t.c_pt, t.a_pt, config.a1, config.c2),
        (t.a_pt, t.b_pt, config.b1, config.a2),
    )
    for (center, radius), corners in zip(circumcircles(config), rects):
        for corner in corners:
            assert math.dist(center, corner) == pytest.approx(radius, rel=1e-12)


def test_additive_perturbation_breaks_concurrency():
    tri = TriangleABC((0.0, 0.0), (4.0, 0.0), (1.0, 3.0))
    config = build_config(tri, 2.0, 2.0)
    assert certify_concurrency(config).passes()
    bad = build_config_with_heights(tri, 2.0, 2.0, config.h_c + 0.05)
    report = certify_concurrency(bad)
    assert report.line_defect > 1e-3 * report.scale


def test_relative_perturbation_breaks_concurrency():
    rng = random.Random(75)
    for _ in range(25):
        config = random_config(rng)
        bad = build_config_with_heights(
            config.triangle, config.h_a, config.h_b, config.h_c * 1.05
        )
        report = certify_concurrency(bad)
        assert report.line_defect > 1e-4 * report.scale


# A reference route on tuple helpers, drawing with rng.uniform: the kernel's
# straight-line arithmetic must give the same bits and leave the same state.


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _scale(p, s):
    return (p[0] * s, p[1] * s)


def _dot(p, q):
    return p[0] * q[0] + p[1] * q[1]


def _cross(p, q):
    return p[0] * q[1] - p[1] * q[0]


def _dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _reference_normal(base_from, base_to, opposite):
    d = _sub(base_to, base_from)
    length = math.hypot(*d)
    n = (-d[1] / length, d[0] / length)
    if _dot(n, _sub(opposite, base_from)) > 0:
        n = (-n[0], -n[1])
    return n


def _reference_foot(point, line_a, line_b):
    d = _sub(line_b, line_a)
    return _add(line_a, _scale(d, _dot(_sub(point, line_a), d) / _dot(d, d)))


def _reference_line_distance(point, line_a, line_b):
    d = _sub(line_b, line_a)
    return abs(_cross(d, _sub(point, line_a))) / math.hypot(*d)


def _reference_row(rng, perturb):
    """(p_point, line_defect, circle_residuals, scale) of one drawn row."""
    while True:
        a, b, c = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(3)]
        sa = _dot(_sub(c, b), _sub(c, b))
        sb = _dot(_sub(a, c), _sub(a, c))
        sc = _dot(_sub(b, a), _sub(b, a))
        if min(sa, sb, sc) < 1e-3:
            continue
        if sa < 0.98 * (sb + sc) and sb < 0.98 * (sc + sa) and sc < 0.98 * (sa + sb):
            break
    alpha = rng.uniform(0.35 * math.pi, 0.45 * math.pi)
    beta = rng.uniform(0.35 * math.pi, 0.45 * math.pi)
    h_a = _dist(b, c) / math.tan(alpha)
    h_b = _dist(c, a) / math.tan(beta)
    residual = math.pi - math.atan2(_dist(b, c), h_a) - math.atan2(_dist(c, a), h_b)
    h_c = _dist(a, b) / math.tan(residual) * perturb
    n_bc, n_ca, n_ab = (_reference_normal(b, c, a), _reference_normal(c, a, b),
                        _reference_normal(a, b, c))
    c1, b2 = _add(c, _scale(n_bc, h_a)), _add(b, _scale(n_bc, h_a))
    a1, c2 = _add(a, _scale(n_ca, h_b)), _add(c, _scale(n_ca, h_b))
    b1, a2 = _add(b, _scale(n_ab, h_c)), _add(a, _scale(n_ab, h_c))
    p = _reference_foot(a, b1, c2)
    defect = max(_reference_line_distance(p, c1, a2), _reference_line_distance(p, a1, b2))
    circles = [(((x[0] + y[0]) / 2, (x[1] + y[1]) / 2), _dist(x, y) / 2)
               for x, y in ((b, c1), (c, a1), (a, b1))]
    residuals = tuple(abs(_dist(p, center) - radius) for center, radius in circles)
    return p, defect, residuals, max(_dist(b, c), _dist(c, a), _dist(a, b))


@pytest.mark.parametrize("perturb", [1.0, 0.9, 1.25, 1.0001, 2.0])
def test_kernel_matches_tuple_reference_bit_for_bit(perturb):
    for seed in range(20):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        for _ in range(40):
            report = certify_concurrency(random_config(rng, perturb))
            got = (report.p_point, report.line_defect, report.circle_residuals, report.scale)
            # repr tells every double apart, -0.0 from 0.0 included
            assert repr(got) == repr(_reference_row(reference_rng, perturb))
        assert rng.getstate() == reference_rng.getstate()


@pytest.mark.parametrize("perturb", [1.0, 0.9, 1.25, 1e-3])
def test_certify_batch_matches_the_report_route_bit_for_bit(perturb):
    for seed in range(200):
        rng, report_rng = random.Random(seed), random.Random(seed)
        rows = list(certify_batch(rng, 6, perturb))
        expected = []
        for _ in range(6):
            config = random_config(report_rng, perturb)
            t = config.triangle
            TriangleABC(t.a_pt, t.b_pt, t.c_pt)  # the drawn triangle passes its checks
            report = certify_concurrency(config)
            expected.append((report.line_defect, *report.circle_residuals, report.scale))
        # repr tells every double apart, -0.0 from 0.0 included
        assert repr(rows) == repr(expected)
        assert rng.getstate() == report_rng.getstate()
