import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from jmokit import cyclic
from jmokit.cyclic import (
    CycleVector,
    dump_entries,
    identity_checks,
    minmax_certificate,
    parse_entries,
    random_start,
    residuals,
    solve,
)


def test_canonical_solution_shape():
    v = CycleVector(4, (1.0, 2.0) * 4)
    assert (v.odd(), v.even()) == ((1.0,) * 4, (2.0,) * 4)
    assert residuals(v).max_abs == 0.0


def test_canonical_residuals_vanish_for_all_n():
    for n in range(4, 13):
        assert residuals(CycleVector(n, (1.0, 2.0) * n)).max_abs == 0.0


def test_small_n_rejected():
    with pytest.raises(ValueError):
        CycleVector(3, (1.0,) * 6)
    with pytest.raises(ValueError):
        solve(3)


def test_vector_validation():
    with pytest.raises(ValueError):
        CycleVector(4, (1.0,) * 7)
    with pytest.raises(ValueError):
        CycleVector(4, (1.0,) * 7 + (-2.0,))


def test_all_ones_residuals():
    # every odd row gives 1 - (1 + 1) = -1, every even row 1 - (1 + 1) = -1
    report = residuals(CycleVector(4, (1.0,) * 8))
    assert report.odd_residuals == (-1.0,) * 4
    assert report.even_residuals == (-1.0,) * 4
    assert report.max_abs == 1.0


def test_residual_stencil_is_local():
    entries = [1.0, 2.0] * 5
    entries[1] = 2.1  # a_2
    report = residuals(CycleVector(5, tuple(entries)))
    # touched: odd rows for a_1 and a_3 (both read a_2), even row for a_2
    assert report.odd_residuals[0] != 0.0
    assert report.odd_residuals[1] != 0.0
    assert report.even_residuals[0] != 0.0
    assert report.odd_residuals[2:] == (0.0, 0.0, 0.0)
    assert report.even_residuals[1:] == (0.0,) * 4


def test_reduced_residuals_at_canonical():
    assert cyclic._reduced([2.0] * 6) == [0.0] * 6


def test_reduced_residuals_constant_ansatz():
    # even entries all c reduce every row to c - 4/c, zero only at c = 2
    for c in (1.0, 2.0, 3.5):
        got = cyclic._reduced([c] * 5)
        expected = c - 4.0 / c
        assert all(abs(g - expected) < 1e-12 for g in got)


def test_reduced_bounded_by_full_residuals():
    # algebra: reduced_i = odd_i + odd_{i+1} + even_i, so |reduced| <= 3 max
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(4, 9)
        entries = tuple(10.0 ** rng.uniform(-1, 1) for _ in range(2 * n))
        v = CycleVector(n, entries)
        full = residuals(v)
        odd, even = full.odd_residuals, full.even_residuals
        reduced = cyclic._reduced(list(v.even()))
        recombined = [o + o_next + e for o, o_next, e in zip(odd, odd[1:] + odd[:1], even)]
        assert all(abs(r - c) <= 1e-9 for r, c in zip(reduced, recombined))
        assert max(map(abs, reduced)) <= 3 * full.max_abs + 1e-12


def test_solve_from_ones():
    solution, record = solve(4, None, tol=1e-10)
    assert record.converged
    target = (1.0, 2.0) * 4
    assert max(abs(a - b) for a, b in zip(solution.entries, target)) < 1e-8


def test_solve_fixed_point_needs_no_iterations():
    solution, record = solve(7, CycleVector(7, (1.0, 2.0) * 7), tol=1e-10)
    assert record.converged
    assert record.iterations == 0
    assert solution.entries == (1.0, 2.0) * 7


def test_solve_multistart_lands_on_canonical():
    for n in (4, 10):
        target = (1.0, 2.0) * n
        for seed in range(20):
            solution, record = solve(n, seed, tol=1e-10)
            assert record.converged, (n, seed)
            assert max(abs(a - b) for a, b in zip(solution.entries, target)) < 1e-6


def reduced_jacobian(b):
    # d/db_j of b_i - (1/b_{i-1} + 2/b_i + 1/b_{i+1}), exactly, entry by
    # entry: {(i, j): J_ij} over the 3n stencil entries
    n = len(b)
    inv_sq = [1 / F(x) ** 2 for x in b]
    jac = {}
    for i in range(n):
        jac[i, i] = 1 + 2 * inv_sq[i]
        for j in ((i - 1) % n, (i + 1) % n):
            jac[i, j] = jac.get((i, j), 0) + inv_sq[j]
    return jac


@pytest.mark.parametrize("n", [4, 5, 7, 30, 300])
def test_newton_step_matches_dense_solve(n):
    # every column of J exceeds its off-diagonal absolute sum by at least 1,
    # so ||J^-1||_1 <= 1, and the exact solution s* of J s* = -g lies within
    # ||J s + g||_1 of the float step s in the 1-norm
    rng = random.Random(n)
    for _ in range(10):
        b = [10.0 ** rng.uniform(-1.0, 1.0) for _ in range(n)]
        g = [rng.uniform(-5.0, 5.0) for _ in range(n)]
        jac = reduced_jacobian(b)
        margins = [jac[j, j] for j in range(n)]
        for (i, j), entry in jac.items():
            if i != j:
                margins[j] -= abs(entry)
        assert min(margins) >= 1
        step = [F(x) for x in cyclic._newton_step(b, g)]
        defect = [F(x) for x in g]
        for (i, j), entry in jac.items():
            defect[i] += entry * step[j]
        assert 10**12 * sum(map(abs, defect)) <= sum(map(abs, step))


def test_solve_sweep_certifies_every_start():
    for n in range(4, 66):
        for seed in range(20):
            solution, record = solve(n, seed, tol=1e-10)
            assert record.converged, (n, seed)
            assert identity_checks(solution, tol=1e-10).ok, (n, seed)
            assert minmax_certificate(solution, tol=1e-10).ok, (n, seed)


def test_random_start_is_reproducible_and_log_uniform():
    first = random_start(30, 4)
    assert random_start(30, 4) == first
    assert random_start(30, 5) != first
    assert all(0.1 <= e <= 10.0 for e in first.entries)
    assert min(first.entries) < 0.5 and max(first.entries) > 2.0
    with pytest.raises(ValueError, match="seed must be >= 0"):
        random_start(5, -1)


def test_cyclic_loads_no_numpy():
    # a fresh interpreter, so nothing imported by other tests counts
    probe = ("import sys; from jmokit import cyclic; cyclic.random_start(6, 3); "
             "v, r = cyclic.solve(6, 3); cyclic.identity_checks(v); cyclic.minmax_certificate(v); "
             "print(r.converged, 'numpy' in sys.modules)")
    src = str(Path(cyclic.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["True", "False"]


@pytest.mark.parametrize("value", [1.7e308, 1e-320])
def test_overflowing_residuals_are_infinite(value):
    report = residuals(CycleVector(4, (value,) * 8))
    assert report.max_abs == math.inf


def test_solve_reports_nonconvergence():
    start = CycleVector(4, (100.0, 0.01) * 4)
    solution, record = solve(4, start, tol=1e-14, max_iter=1)
    assert not record.converged
    assert record.iterations == 1
    assert record.residual > 1e-14


def test_identity_checks_at_canonical():
    # sum of even entries is 8 = sum of 4/a over them; the squared pair sum
    # counts one per row
    report = identity_checks(CycleVector(4, (1.0, 2.0) * 4))
    assert report.sum_vs_reciprocal_defect == 0.0
    assert report.squared_pair_sum_defect == 0.0
    assert report.even_sum_defect == 0.0
    assert report.ok
    assert identity_checks(CycleVector(7, (1.0, 2.0) * 7)).squared_pair_sum_defect == 0.0


def test_identity_checks_rejects_non_solutions():
    with pytest.raises(ValueError):
        identity_checks(CycleVector(4, (1.0,) * 8))


def test_minmax_certificate_at_canonical():
    report = minmax_certificate(CycleVector(9, (1.0, 2.0) * 9))
    assert report.minimum == report.maximum == 2.0
    assert report.spread == 0.0
    assert report.ok


def test_minmax_certificate_after_solve():
    solution, record = solve(8, 5, tol=1e-10)
    assert record.converged
    report = minmax_certificate(solution, tol=1e-10)
    assert report.spread <= 1e-8
    assert report.ok


def test_mean_inequalities_sanity():
    # HM <= AM and QM >= AM on random positive vectors, equality iff constant
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(2, 11)
        v = [10.0 ** rng.uniform(-1, 1) for _ in range(n)]
        am = math.fsum(v) / n
        hm = n / math.fsum(1.0 / x for x in v)
        qm = math.sqrt(math.fsum(x * x for x in v) / n)
        assert hm <= am + 1e-12
        assert qm >= am - 1e-12
        if max(v) - min(v) > 1e-6:
            assert hm < am and qm > am
    constant = [3.7] * 7
    mean = math.fsum(constant) / 7
    assert abs(7 / math.fsum(1 / x for x in constant) - mean) < 1e-12
    assert abs(math.sqrt(math.fsum(x * x for x in constant) / 7) - mean) < 1e-12


def test_entries_roundtrip():
    v = random_start(5, 3)
    assert parse_entries(dump_entries(v)) == v
    with pytest.raises(ValueError):
        parse_entries("1.0\n2.0\n")
