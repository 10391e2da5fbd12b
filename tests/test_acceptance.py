"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance and runtime limit is pinned here.
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from jmokit import cli, cyclic, funceq, gcdperfect, pinopt, rectconcur, tripack
from sqrt3_reference import Sqrt3, hex_gauge_overlap, triangles_overlap_exact


class Criterion:
    def __init__(self, number: int, limit_s: float):
        self.number = number
        self.limit_s = limit_s
        self.started = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.started
        ok = elapsed < self.limit_s
        print(f"ACCEPTANCE {self.number}: {'PASS' if ok else 'FAIL (runtime)'} "
              f"({elapsed:.2f} s, limit {self.limit_s:g} s)")
        assert ok, f"criterion {self.number} exceeded {self.limit_s} s ({elapsed:.2f} s)"


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    return code, capsys.readouterr().out


def test_criterion_1_pins_solve_contest(capsys):
    crit = Criterion(1, limit_s=5.0)
    code, out = run_cli(capsys, "pins", "solve", "--doubled-area", "4042", "--json")
    env = json.loads(out)
    assert code == 0
    assert env["cost"] == 128
    assert env["lower_bound"] == 128
    assert env["status"] == "certified_optimal"
    crit.done()


def test_criterion_2_oracle_equivalence():
    crit = Criterion(2, limit_s=120.0)
    for doubled in range(1, 201):
        radius = pinopt.lower_bound(doubled) + 2
        exhaustive = pinopt.oracle_min_moves(doubled, radius)
        cert = pinopt.min_moves(doubled)
        assert cert.witness.move_cost == exhaustive, (doubled, cert, exhaustive)
        assert cert.status == pinopt.CERTIFIED_OPTIMAL
    crit.done()


def test_criterion_3_funceq():
    crit = Criterion(3, limit_s=30.0)
    replay = funceq.replay_trace(funceq.forced_trace(10**6))
    assert replay.ok and replay.derived == 10**6

    constant = funceq.FunctionTable([1] * 1000)
    assert funceq.check_table(constant) == []

    rng = random.Random(2021)
    for _ in range(50):
        n = rng.randint(1, 31)
        value = rng.randint(2, 10)
        mutated = funceq.FunctionTable([value if k == n else 1 for k in range(1, 1001)])
        violations = funceq.check_table(mutated)
        assert violations, f"mutation f({n}) = {value} not caught"
    crit.done()


def test_criterion_4_gcdperfect():
    crit = Criterion(4, limit_s=60.0)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
    rng = random.Random(5)
    for k in range(5):
        for _ in range(20):
            chosen = rng.sample(primes, 2 * k)
            witness = gcdperfect.construct(k, chosen[:k], chosen[k:])
            assert gcdperfect.is_gcd_perfect(witness).verdict, (k, chosen)

    assert gcdperfect.search_size(3, 100) == []
    assert gcdperfect.search_size(5, 500) == []

    pairs = gcdperfect.search_size(2, 30)
    assert pairs
    for found in pairs:
        assert gcdperfect.is_gcd_perfect(found).verdict
        assert gcdperfect.structure_report(found).prime_count == 1
    crit.done()


def test_criterion_5_tripack():
    crit = Criterion(5, limit_s=60.0)
    rng = random.Random(2021)
    checked = 0
    disagreements = 0
    while checked < 10**4:
        dx = Sqrt3(F(rng.randint(-16, 16), 8), F(rng.randint(-8, 8), 8))
        dy = Sqrt3(F(rng.randint(-16, 16), 8), F(rng.randint(-8, 8), 8))
        if abs(float(dx)) > 2 or abs(float(dy)) > 2:
            continue
        base = (Sqrt3(F(rng.randint(-24, 24), 8)), Sqrt3(F(rng.randint(-24, 24), 8)))
        other = (base[0] + dx, base[1] + dy)
        if triangles_overlap_exact(base, other) != hex_gauge_overlap(base, other):
            disagreements += 1
        checked += 1
    assert disagreements == 0

    instance = tripack.tessellate(F(60))
    report = tripack.validate_packing(instance)
    assert report.count >= 2208  # (2/3 - 0.05) * 3600
    assert report.count <= 2400  # (2/3) * 3600
    assert report.valid
    crit.done()


def test_criterion_6_rectconcur():
    crit = Criterion(6, limit_s=10.0)
    for defect, r_bc, r_ca, r_ab, scale in rectconcur.certify_batch(random.Random(2021), 100):
        bound = 1e-9 * scale
        assert defect <= bound
        assert max(r_bc, r_ca, r_ab) <= bound

    # the third height of each configuration times 1.05
    for defect, *_, scale in rectconcur.certify_batch(random.Random(2022), 100, 1.05):
        assert defect > 1e-4 * scale
    crit.done()


def test_criterion_7_cyclic():
    crit = Criterion(7, limit_s=30.0)
    for n in range(4, 13):
        target = (1.0, 2.0) * n
        starts = [None] + list(range(100))
        for seed in starts:
            solution, record = cyclic.solve(n, seed, tol=1e-10)
            assert record.converged, (n, seed)
            deviation = max(abs(a - b) for a, b in zip(solution.entries, target))
            assert deviation <= 1e-6, (n, seed, deviation)

        solution, record = cyclic.solve(n, None, tol=1e-10)
        identities = cyclic.identity_checks(solution, tol=1e-10)
        assert identities.sum_vs_reciprocal_defect <= 1e-8
        assert identities.squared_pair_sum_defect <= 1e-8
        minmax = cyclic.minmax_certificate(solution, tol=1e-10)
        assert minmax.spread <= 1e-8
    crit.done()


@pytest.mark.parametrize(
    "argv",
    [
        ("pins", "solve", "--doubled-area", "4042", "--json"),
        ("gcdset", "search", "--size", "2", "--max", "30", "--json"),
        ("pack", "build", "--side", "12", "--json"),
        ("cyclic", "solve", "--n", "6", "--seed", "9", "--json"),
        ("rect", "batch", "--count", "20", "--seed", "7", "--json"),
    ],
)
def test_criterion_8_cli_determinism(capsys, argv):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second, f"non-deterministic envelope for {argv}"


def test_criterion_8_summary():
    print("ACCEPTANCE 8: PASS (byte-identical JSON envelopes over fixed seeds)")
