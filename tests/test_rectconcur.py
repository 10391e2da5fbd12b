import math
import random

import pytest

from jmokit.rectconcur import DEFAULT_REL_TOL, _certify, _draw, _erect, certify_batch, circumcircles

EQUILATERAL = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2))


# Tuple helpers, written apart from the kernels' straight-line arithmetic.


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


def _angle_at(vertex, toward_1, toward_2):
    """Unsigned angle at a vertex between two rays, in [0, pi]."""
    u, v = _sub(toward_1, vertex), _sub(toward_2, vertex)
    return math.atan2(abs(_cross(u, v)), _dot(u, v))


def _third_height(a, b, c, h_a, h_b):
    """The h_c completing arctan(|BC|/h_a) + arctan(|CA|/h_b) + arctan(|AB|/h_c) = pi."""
    residual = math.pi - math.atan2(_dist(b, c), h_a) - math.atan2(_dist(c, a), h_b)
    return _dist(a, b) / math.tan(residual)


def _erected(a, b, c, h_a, h_b, h_c=None):
    """The flat configuration of triangle abc with the given heights; without
    h_c, the third height completes the angle constraint."""
    if h_c is None:
        h_c = _third_height(a, b, c, h_a, h_b)
    return _erect(*a, *b, *c, _dist(b, c), _dist(c, a), _dist(a, b), h_a, h_b, h_c)


def _points(flat):
    """a, b, c, c1, b2, a1, c2, b1, a2 of a flat configuration."""
    return (flat[0:2], flat[2:4], flat[4:6], *zip(flat[12::2], flat[13::2]))


def _passes(certificate, rel_tol=DEFAULT_REL_TOL):
    defect, r_bc, r_ca, r_ab, scale = certificate
    return defect <= rel_tol * scale and max(r_bc, r_ca, r_ab) <= rel_tol * scale


def test_solve_third_height_symmetric():
    # each arctan(1 / (1/sqrt3)) = arctan(sqrt3) = 60 degrees; symmetry
    # forces the third height to match the other two
    h = 3 ** -0.5
    assert _third_height(*EQUILATERAL, h, h) == pytest.approx(h, abs=1e-12)


def test_solve_third_height_rejects_bad_heights():
    # a perturb that makes the solved third height non-positive is refused
    for perturb in (0.0, -1.0):
        with pytest.raises(ValueError, match="heights must be positive"):
            _draw(random.Random(1), perturb)


def test_angle_constraint_holds_after_solve():
    rng = random.Random(5)
    for _ in range(50):
        bc, ca, ab, h_a, h_b, h_c = _draw(rng, 1.0)[6:12]
        total = math.atan2(bc, h_a) + math.atan2(ca, h_b) + math.atan2(ab, h_c)
        assert abs(total - math.pi) <= 1e-12


def test_build_config_outward_orientation():
    a, b, c, c1, b2, *_ = _points(_erected((0.0, 0.0), (4.0, 0.0), (1.0, 3.0), 2.0, 2.0))
    # C1 = C + h_a * n with n pointing away from A: A and C1 strictly
    # separated by line BC

    def side(p):
        return _cross(_sub(c, b), _sub(p, b))

    assert side(a) * side(c1) < 0
    assert side(a) * side(b2) < 0
    # rectangle right angles
    for corner, u, v in ((c, c1, b), (c1, b2, c)):
        assert abs(_dot(_sub(u, corner), _sub(v, corner))) < 1e-9


def test_outward_orientation_ignores_winding():
    # same triangle entered clockwise: rectangles must still point outward
    for a, b, c in (((0.0, 0.0), (4.0, 0.0), (1.0, 3.0)),
                    ((0.0, 0.0), (1.0, 3.0), (4.0, 0.0))):
        certificate, _ = _certify(*_erected(a, b, c, 1.5, 1.5))
        assert _passes(certificate)


def test_symmetric_equilateral_concurrency_at_center():
    h = 3 ** -0.5
    certificate, p = _certify(*_erected(*EQUILATERAL, h, h, h))
    assert _passes(certificate)
    center = (0.5, math.sqrt(3) / 6)
    assert p[0] == pytest.approx(center[0], abs=1e-9)
    assert p[1] == pytest.approx(center[1], abs=1e-9)


def test_random_configs_certify():
    assert all(map(_passes, certify_batch(random.Random(71), 30)))


def test_supplementary_angle_invariants():
    rng = random.Random(72)
    for _ in range(25):
        flat = _draw(rng, 1.0)
        a, b, c, c1, _, a1, _, b1, _ = _points(flat)
        p = _certify(*flat)[1]
        apc = _angle_at(p, a, c) + _angle_at(a1, c, a)
        apb = _angle_at(p, a, b) + _angle_at(b1, a, b)
        bpc = _angle_at(p, b, c) + _angle_at(c1, b, c)
        assert apc == pytest.approx(math.pi, abs=1e-9)
        assert apb == pytest.approx(math.pi, abs=1e-9)
        assert bpc == pytest.approx(math.pi, abs=1e-9)


def test_altitude_feet_coincide():
    # the feet of the altitudes from A, B, C to their opposite cross lines
    rng = random.Random(73)
    for _ in range(25):
        flat = _draw(rng, 1.0)
        a, b, c, c1, b2, a1, c2, b1, a2 = _points(flat)
        fa = _reference_foot(a, b1, c2)
        fb = _reference_foot(b, c1, a2)
        fc = _reference_foot(c, a1, b2)
        scale = max(flat[6:9])
        assert math.dist(fa, fb) <= 1e-9 * scale
        assert math.dist(fb, fc) <= 1e-9 * scale
        assert math.dist(fa, fc) <= 1e-9 * scale


def test_circumcircles_pass_through_rectangle_corners():
    flat = _draw(random.Random(74), 1.0)
    a, b, c, c1, b2, a1, c2, b1, a2 = _points(flat)
    rects = ((b, c, c1, b2), (c, a, a1, c2), (a, b, b1, a2))
    for (center, radius), corners in zip(circumcircles(flat), rects):
        for corner in corners:
            assert math.dist(center, corner) == pytest.approx(radius, rel=1e-12)


def test_additive_perturbation_breaks_concurrency():
    triangle = ((0.0, 0.0), (4.0, 0.0), (1.0, 3.0))
    flat = _erected(*triangle, 2.0, 2.0)
    assert _passes(_certify(*flat)[0])
    (defect, *_, scale), _ = _certify(*_erected(*triangle, 2.0, 2.0, flat[11] + 0.05))
    assert defect > 1e-3 * scale


def test_relative_perturbation_breaks_concurrency():
    rng = random.Random(75)
    for _ in range(25):
        flat = _draw(rng, 1.0)
        h_a, h_b, h_c = flat[9:12]
        (defect, *_, scale), _ = _certify(*_erected(*_points(flat)[:3], h_a, h_b, h_c * 1.05))
        assert defect > 1e-4 * scale


# A reference route on the tuple helpers, drawing with rng.uniform: the
# kernels' straight-line arithmetic must give the same bits and leave the
# same state.


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


@pytest.mark.parametrize("perturb", [1.0, 0.9, 1.25, 1.0001, 2.0, 1e-3])
def test_kernel_matches_tuple_reference_bit_for_bit(perturb):
    for seed in range(100):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        for _ in range(12):
            flat = _draw(rng, perturb)
            # the drawn triangle is strictly acute, with no short side, and not flat
            a, b, c = _points(flat)[:3]
            sa, sb, sc = (_dot(_sub(q, p), _sub(q, p)) for p, q in ((b, c), (c, a), (a, b)))
            assert min(sa, sb, sc) >= 1e-3
            assert sa < sb + sc and sb < sc + sa and sc < sa + sb
            assert _cross(_sub(b, a), _sub(c, a)) != 0
            certificate, p = _certify(*flat)
            got = (p, certificate[0], certificate[1:4], certificate[4])
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
            _, defect, residuals, scale = _reference_row(report_rng, perturb)
            expected.append((defect, *residuals, scale))
        # repr tells every double apart, -0.0 from 0.0 included
        assert repr(rows) == repr(expected)
        assert rng.getstate() == report_rng.getstate()
