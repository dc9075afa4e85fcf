"""Acceptance suite.

Each test runs one numbered criterion at its stated tolerance and prints a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see the lines).  Criteria 1-7 share one randomized family of fifty
specs covering every dimension 2..8 and every even rank, built over all
five factor kinds from integer matrices with |det| >= 1.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from specgen import ALL_KINDS, residual_tensor, spec_suite

from poissonkit import (
    casimirs,
    certify_canonical,
    constant_symplectic,
    counterexample_field,
    darboux_chart,
    evaluate_structure,
    fd_structure_field,
    integrate_canonical,
    integrate_direct,
    jacobi_residual,
    jacobi_sweep,
    kermack_mckendrick,
    kernel_check,
    linear_hamiltonian,
    quadratic_hamiltonian,
    rank_at,
    structure_field,
    toda,
    vector_field,
)
from poissonkit import dynamics
from poissonkit.cli import main

SUITE_SEED = 7
SWEEP_SEED = 3
SWEEP_POINTS = 20


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:>2} FAIL  {description}")
        raise
    print(f"criterion {num:>2} PASS  {description}")


@pytest.fixture(scope="module")
def suite():
    return spec_suite(SUITE_SEED, 50)


@pytest.fixture(scope="module")
def suite_points(suite):
    return [spec.domain.halton_points(SWEEP_POINTS, SWEEP_SEED) for spec in suite]


def test_criterion_01_jacobi_identity(suite):
    with criterion(1, "Jacobi residual <= 1e-7 over 50 randomized specs in <= 10 s"):
        start = time.perf_counter()
        specs = spec_suite(SUITE_SEED, 50)
        worst = 0.0
        for spec in specs:
            report = jacobi_sweep(
                structure_field(spec), SWEEP_POINTS, seed=SWEEP_SEED, tolerance=1e-7
            )
            assert report.passed
            worst = max(worst, report.max_abs_residual)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-7
        assert elapsed <= 10.0
        # the family really does exercise the whole parameter range
        assert {(s.n, s.r) for s in specs} == {
            (n, r) for n in range(2, 9) for r in range(0, n + 1, 2)
        }
        assert {f.kind for s in specs for f in s.factors} == set(ALL_KINDS)


def test_criterion_02_finite_difference_oracle(suite, suite_points):
    with criterion(2, "analytic vs finite-difference residuals agree within 1e-4"):
        worst = 0.0
        for spec, points in zip(suite, suite_points):
            analytic = structure_field(spec)
            oracle = fd_structure_field(spec)
            for x in points:
                J = analytic.evaluate(x)
                Ra = residual_tensor(J, analytic.partials(x))
                Rf = residual_tensor(J, oracle.partials(x))
                worst = max(worst, float(np.max(np.abs(Ra - Rf))))
        assert worst <= 1e-4


def test_criterion_03_detection_power():
    with criterion(3, "counterexample field rejected; residual -x1 at (1,2,3)"):
        field = counterexample_field()
        report = jacobi_sweep(field, 30, seed=SWEEP_SEED, tolerance=1e-7)
        assert not report.passed
        assert report.argmax_triple == (1, 2, 3)
        assert report.max_abs_residual >= 1.0
        value = jacobi_residual(field, [2.0, 1.0, 1.0], 1, 2, 3)
        assert abs(value - (-2.0)) <= 1e-9
        for x in field.domain.halton_points(10, seed=1):
            assert abs(jacobi_residual(field, x, 1, 2, 3) + x[0]) <= 1e-9


def test_criterion_04_casimir_kernel(suite, suite_points):
    with criterion(4, "kernel J.grad(C) <= 1e-12 * max|J|; coefficient rank n - r"):
        for spec, points in zip(suite, suite_points):
            C = casimirs(spec)
            if C.size:
                assert np.linalg.matrix_rank(C) == spec.n - spec.r
            else:
                assert spec.n == spec.r
            for x in points:
                scale = float(np.max(np.abs(evaluate_structure(spec, x))))
                assert kernel_check(spec, x) <= 1e-12 * scale


def test_criterion_05_constant_rank(suite, suite_points):
    with criterion(5, "SVD rank equals r at every sample (threshold 1e-9)"):
        for spec, points in zip(suite, suite_points):
            field = structure_field(spec)
            for x in points:
                assert rank_at(field, x, rel_tolerance=1e-9) == spec.r


def test_criterion_06_block_form(suite, suite_points):
    with criterion(6, "linear-chart pushforward within 1e-12 of the 2x2-block form"):
        for spec, points in zip(suite, suite_points):
            for x in points:
                J_star = spec.B @ evaluate_structure(spec, x) @ spec.B.T
                phi = spec.bank.apply("value", spec.B @ x)
                expected = np.zeros((spec.n, spec.n))
                for p in range(spec.r // 2):
                    v = phi[2 * p] * phi[2 * p + 1]
                    expected[2 * p, 2 * p + 1] = v
                    expected[2 * p + 1, 2 * p] = -v
                assert float(np.max(np.abs(J_star - expected))) <= 1e-12


def test_criterion_07_canonical_form(suite):
    with criterion(7, "canonical certification at 1e-9; round trip within 1e-10"):
        targets = list(suite) + [
            kermack_mckendrick(1.0, 1.0, 1.0),
            kermack_mckendrick(2.5, 2.0, 1.25),
            toda(3),
            toda(4),
            constant_symplectic(1, 3),
            constant_symplectic(2, 4),
        ]
        for spec in targets:
            chart = darboux_chart(spec)
            report = certify_canonical(
                chart,
                num_points=SWEEP_POINTS,
                tolerance=1e-9,
                seed=SWEEP_SEED,
                round_trip_tolerance=1e-10,
            )
            assert report.passed


def test_criterion_08_kmk_reproduction(rng):
    with criterion(8, "epidemic bracket: structure, rank, Casimir, chart chain"):
        R = 1.0
        spec = kermack_mckendrick(R, 1.0, 1.0)
        pattern = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
        field = structure_field(spec)
        for _ in range(100):
            x = rng.uniform(0.05, 5.0, size=3)
            J = evaluate_structure(spec, x)
            np.testing.assert_allclose(J, R * x[0] * x[1] * pattern, rtol=1e-13)
            assert rank_at(field, x) == 2
        np.testing.assert_array_equal(casimirs(spec), [[1.0, 1.0, 1.0]])
        block = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        for x in spec.domain.halton_points(20, seed=SWEEP_SEED):
            y = spec.B @ x
            J_star = spec.B @ evaluate_structure(spec, x) @ spec.B.T
            assert float(np.max(np.abs(J_star - R * y[0] * y[1] * block))) <= 1e-12
        chart = darboux_chart(spec)
        for x in spec.domain.halton_points(20, seed=SWEEP_SEED):
            y = spec.B @ x
            d = np.ones(3)
            d[:2] = 1.0 / spec.bank.apply("value", y)
            J_canon = d[:, None] * (spec.B @ evaluate_structure(spec, x) @ spec.B.T) * d[None, :]
            assert float(np.max(np.abs(J_canon - block))) <= 1e-9
        assert certify_canonical(chart, tolerance=1e-9).passed


def test_criterion_09_toda_reproduction(rng):
    with criterion(9, "lattice bracket N=3..6: band pattern, Casimir, chart chain"):
        for N in (3, 4, 5, 6):
            spec = toda(N)
            n = 2 * N - 1
            alphas = rng.uniform(0.2, 3.0, size=N - 1)
            betas = rng.uniform(-2.0, 2.0, size=N)
            x = np.concatenate([alphas, betas])
            J = evaluate_structure(spec, x)
            expected = np.zeros((n, n))
            for i in range(1, N):
                expected[i - 1, i + N - 2] = -alphas[i - 1]
                expected[i - 1, i + N - 1] = alphas[i - 1]
                expected[i + N - 2, i - 1] = alphas[i - 1]
                expected[i + N - 1, i - 1] = -alphas[i - 1]
            np.testing.assert_array_equal(J, expected)  # zeros exact, bands exact
            C = casimirs(spec)
            assert C.shape == (1, n)
            np.testing.assert_array_equal(
                C[0], np.concatenate([np.zeros(N - 1), np.ones(N)])
            )
            # after the linear chart: N-1 blocks [[0, -y_odd], [y_odd, 0]]
            y = spec.B @ x
            star_expected = np.zeros((n, n))
            for p in range(N - 1):
                star_expected[2 * p, 2 * p + 1] = -y[2 * p]
                star_expected[2 * p + 1, 2 * p] = y[2 * p]
            J_star = spec.B @ evaluate_structure(spec, x) @ spec.B.T
            assert float(np.max(np.abs(J_star - star_expected))) <= 1e-12
            chart = darboux_chart(spec)
            assert chart.block_count == N - 1
            assert certify_canonical(chart, tolerance=1e-9).passed


def test_criterion_10_dynamics(monkeypatch):
    with criterion(10, "dynamics: Casimir flows, Casimir drift, RK4 order, <= 30 s"):
        start = time.perf_counter()
        kmk = kermack_mckendrick(1.0, 1.0, 1.0)
        toda3 = toda(3)

        # (a) a Casimir generates the zero vector field
        for spec in (kmk, toda3):
            H_cas = linear_hamiltonian(casimirs(spec)[0])
            for x in spec.domain.halton_points(10, seed=SWEEP_SEED):
                np.testing.assert_array_equal(
                    vector_field(spec, H_cas, x), np.zeros(spec.n)
                )

        # (b) canonical-route Casimir drift over 1e4 steps at dt = 1e-3
        runs = [
            (kmk, quadratic_hamiltonian([1.0, 2.0, 0.5]), [1.0, 1.2, 0.8]),
            (
                toda3,
                quadratic_hamiltonian(np.ones(5)),
                [1.0, 0.8, 0.3, -0.2, 0.4],
            ),
        ]
        for spec, H, x0 in runs:
            record = integrate_canonical(spec, H, x0, 1e-3, 10_000)
            assert not record.domain_exit
            assert record.max_casimir_drift() <= 1e-10

        # (c) direct-route Casimir drift over 1e4 steps at dt = 1e-3, RK4 and
        # implicit midpoint: every step advances y_{1..r} alone, so the
        # Casimir coordinates are never stepped and stay bitwise at their
        # start, and |dC| stays at round-off without accumulating
        stepped = []
        march = dynamics._march

        def recording(spec, H, system, step, x0, u0, dt, steps):
            def recorded(system, u, dt, f=None):
                u = step(system, u, dt, f)
                stepped.append(u.shape)
                return u

            return march(spec, H, system, recorded, x0, u0, dt, steps)

        monkeypatch.setattr(dynamics, "_march", recording)
        toda6_run = (
            toda(6),
            quadratic_hamiltonian(np.ones(11)),
            [1.0, 0.9, 0.8, 0.7, 0.6, 0.3, -0.2, 0.4, 0.1, -0.3, 0.2],
        )
        for spec, H, x0 in (runs[0], toda6_run):
            for method in ("rk4", "implicit-midpoint"):
                stepped.clear()
                record = integrate_direct(spec, H, x0, 1e-3, 10_000, method=method)
                assert not record.domain_exit
                assert set(stepped) == {(spec.r,)} and len(stepped) == 10_000
                assert record.max_casimir_drift() <= 1e-15
        monkeypatch.undo()

        # (d) halving dt cuts the RK4 energy drift by a fourth-order factor
        H = quadratic_hamiltonian([1.0, 2.0, 0.5])
        x0 = [1.0, 1.2, 0.8]
        drifts = []
        for dt in (0.02, 0.01):
            rec = integrate_direct(kmk, H, x0, dt, int(round(4.0 / dt)), method="rk4")
            drifts.append(rec.max_energy_drift())
        ratio = drifts[0] / drifts[1]
        assert 8.0 <= ratio <= 32.0

        Ht = quadratic_hamiltonian(np.ones(5))
        x0t = [1.0, 0.8, 0.3, -0.2, 0.4]
        drifts_t = []
        for dt in (0.02, 0.01):
            rec = integrate_direct(toda3, Ht, x0t, dt, int(round(4.0 / dt)), method="rk4")
            drifts_t.append(rec.max_energy_drift())
        ratio_t = drifts_t[0] / drifts_t[1]
        assert 8.0 <= ratio_t <= 32.0

        assert time.perf_counter() - start <= 30.0


def test_criterion_11_cli_contract(tmp_path, capsys):
    with criterion(11, "CLI determinism and exit-code contract"):
        argv = ["verify", "--system", "kmk", "--points", "50", "--seed", "7"]
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical reports
        assert json.loads(out1)["passed"] is True

        code_fail = main(["verify", "--system", "counterexample3", "--seed", "7"])
        capsys.readouterr()
        assert code_fail == 1

        bad = tmp_path / "broken.json"
        bad.write_text('{"version": ', encoding="utf-8")
        code_parse = main(["verify", "--config", str(bad)])
        capsys.readouterr()
        assert code_parse == 2
