import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(4, 10))
        entries = tuple(10.0 ** rng.uniform(-1, 1, size=2 * n))
        v = CycleVector(n, entries)
        full = residuals(v)
        odd = np.array(full.odd_residuals)
        even = np.array(full.even_residuals)
        reduced = np.array(cyclic._reduced(list(v.even())))
        recombined = odd + np.roll(odd, -1) + even
        assert np.allclose(reduced, recombined, rtol=0, atol=1e-9)
        assert np.max(np.abs(reduced)) <= 3 * full.max_abs + 1e-12


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
        target = np.array((1.0, 2.0) * n)
        for seed in range(20):
            solution, record = solve(n, seed, tol=1e-10)
            assert record.converged, (n, seed)
            assert np.max(np.abs(np.array(solution.entries) - target)) < 1e-6


def dense_reduced_jacobian(b):
    # d/db_j of b_i - (1/b_{i-1} + 2/b_i + 1/b_{i+1}), built entry by entry
    n = len(b)
    jac = np.zeros((n, n))
    for i in range(n):
        jac[i, i] = 1.0 + 2.0 / b[i] ** 2
        for j in ((i - 1) % n, (i + 1) % n):
            jac[i, j] += 1.0 / b[j] ** 2
    return jac


@pytest.mark.parametrize("n", [4, 5, 7, 30, 300])
def test_newton_step_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        b = 10.0 ** rng.uniform(-1.0, 1.0, size=n)
        g = rng.uniform(-5.0, 5.0, size=n)
        step = np.array(cyclic._newton_step(b.tolist(), g.tolist()))
        expected = np.linalg.solve(dense_reduced_jacobian(b), -g)
        assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)


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
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        v = 10.0 ** rng.uniform(-1, 1, size=n)
        am = v.mean()
        hm = n / np.sum(1.0 / v)
        qm = math.sqrt(float(np.mean(v**2)))
        assert hm <= am + 1e-12
        assert qm >= am - 1e-12
        if np.max(v) - np.min(v) > 1e-6:
            assert hm < am and qm > am
    constant = np.full(7, 3.7)
    assert abs(7 / np.sum(1 / constant) - constant.mean()) < 1e-12
    assert abs(math.sqrt(float(np.mean(constant**2))) - constant.mean()) < 1e-12


def test_entries_roundtrip():
    v = random_start(5, 3)
    assert parse_entries(dump_entries(v)) == v
    with pytest.raises(ValueError):
        parse_entries("1.0\n2.0\n")
