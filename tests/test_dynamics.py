from __future__ import annotations

import json

import numpy as np
import pytest

from poissonkit import (
    BoxDomain,
    Constant,
    HamiltonianField,
    MaxNewtonIterationsError,
    build_spec,
    bracket,
    constant_symplectic,
    coordinate_hamiltonian,
    darboux_chart,
    integrate_canonical,
    integrate_direct,
    linear_hamiltonian,
    quadratic_hamiltonian,
    toda,
    trajectory_to_csv,
    vector_field,
)
from poissonkit.config import parse_config
from poissonkit.dynamics import (
    _canonical_system,
    _direct_system,
    _fd_jacobian,
    _record_stride,
    validate_gradient,
)

#: Explicit n=7, r=6 system over all five factor kinds on (0.5, 1.5)^7,
#: where every projected interval is positive.  The catalog systems use
#: only linear and constant factors, so only this one exercises the
#: phi' terms of affine, exponential and power factors.
MIXED_CONFIG = {
    "version": 1,
    "n": 7,
    "r": 6,
    "B": [
        1, 0, 1, 0, 0, 0, 0,
        0, 1, 0, 0, 1, 0, 0,
        0, 0, 1, 1, 0, 0, 0,
        0, 0, 0, 1, 0, 0, 1,
        0, 0, 0, 0, 1, 1, 0,
        0, 0, 0, 0, 0, 1, 0,
        0, 0, 0, 0, 0, 0, 1,
    ],
    "factors": [
        {"kind": "linear", "params": {"slope": 1.3}},
        {"kind": "affine", "params": {"slope": 0.7, "intercept": 0.4}},
        {"kind": "exponential", "params": {"amplitude": 0.9, "rate": -0.6}},
        {"kind": "power", "params": {"coefficient": 1.2, "exponent": -1.5}},
        {"kind": "constant", "params": {"c": 0.8}},
        {"kind": "power", "params": {"coefficient": 0.6, "exponent": 2.5}},
    ],
    "domain": {"lower": [0.5] * 7, "upper": [1.5] * 7},
}
MIXED_WEIGHTS = [0.05, 0.035, 0.065, 0.045, 0.055, 0.03, 0.06]


def _mixed_spec():
    return parse_config(json.dumps(MIXED_CONFIG)).spec


def _newton_cases(kmk_spec, toda3_spec):
    return [
        (kmk_spec, quadratic_hamiltonian([1.0, 2.0, 0.5]), [1.0, 1.2, 0.8]),
        (toda3_spec, quadratic_hamiltonian([1.0, 0.5, 2.0, 1.0, 0.3]),
         [1.0, 0.8, 0.3, -0.2, 0.4]),
        (_mixed_spec(), quadratic_hamiltonian(MIXED_WEIGHTS),
         [1.0, 0.9, 1.1, 1.0, 0.95, 1.05, 1.0]),
    ]


def _assert_relative(analytic, fd, rel):
    scale = float(np.max(np.abs(fd)))
    assert scale > 0.0
    assert float(np.max(np.abs(analytic - fd))) <= rel * scale


class TestHamiltonianField:
    def test_builtin_gradients_match_differences(self, kmk_spec, rng):
        points = rng.uniform(0.5, 2.0, size=(10, 3))
        validate_gradient(quadratic_hamiltonian([1.0, 2.0, 0.5]), points)
        validate_gradient(linear_hamiltonian([0.3, -1.0, 2.0]), points)
        validate_gradient(coordinate_hamiltonian(2, 3), points)

    def test_fd_gradient_fallback(self):
        H = HamiltonianField(value=lambda x: float(np.sin(x[0]) * x[1]))
        g = H.gradient_at([0.3, 2.0])
        np.testing.assert_allclose(
            g, [2.0 * np.cos(0.3), np.sin(0.3)], atol=1e-8
        )

    def test_builtin_hessians_match_gradient_differences(self, rng):
        fields = [
            quadratic_hamiltonian([1.0, 2.0, 0.5]),
            linear_hamiltonian([0.3, -1.0, 2.0]),
            coordinate_hamiltonian(2, 3),
        ]
        for H in fields:
            for x in rng.uniform(0.5, 2.0, size=(5, 3)):
                fd = np.empty((3, 3))
                for l in range(3):
                    h = 1e-6 * (1.0 + abs(x[l]))
                    xp, xm = x.copy(), x.copy()
                    xp[l] += h
                    xm[l] -= h
                    fd[:, l] = (H.gradient_at(xp) - H.gradient_at(xm)) / (2.0 * h)
                hess = H.hessian_at(x)
                assert hess.shape == (3, 3)
                np.testing.assert_allclose(hess, fd, rtol=0.0, atol=1e-8)

    def test_coordinate_index_validation(self):
        with pytest.raises(ValueError):
            coordinate_hamiltonian(4, 3)


class TestVectorField:
    def test_casimir_gives_zero_field(self, kmk_spec, toda3_spec):
        H = linear_hamiltonian([1.0, 1.0, 1.0])
        np.testing.assert_array_equal(
            vector_field(kmk_spec, H, [2.0, 3.0, 1.0]), np.zeros(3)
        )
        Ht = linear_hamiltonian([0.0, 0.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(
            vector_field(toda3_spec, Ht, [1.0, 0.5, 0.2, -0.1, 0.4]), np.zeros(5)
        )

    def test_rank_zero_always_zero(self):
        spec = constant_symplectic(0, 3)
        H = quadratic_hamiltonian([1.0, 1.0, 1.0])
        np.testing.assert_array_equal(
            vector_field(spec, H, [0.3, 0.4, 0.5]), np.zeros(3)
        )

    def test_kmk_coordinate_hamiltonian(self, kmk_spec):
        H = coordinate_hamiltonian(3, 3)
        np.testing.assert_allclose(
            vector_field(kmk_spec, H, [2.0, 3.0, 1.0]), [-6.0, 6.0, 0.0], atol=1e-14
        )


class TestBracket:
    def test_self_bracket_vanishes(self, kmk_spec, rng):
        H = quadratic_hamiltonian([1.0, 2.0, 0.5])
        for x in rng.uniform(0.5, 2.0, size=(10, 3)):
            assert abs(bracket(kmk_spec, H, H, x)) <= 1e-13

    def test_skew(self, toda3_spec, rng):
        f = quadratic_hamiltonian([1.0, 0.5, 2.0, 1.0, 0.3])
        g = linear_hamiltonian([0.2, -1.0, 0.4, 0.0, 1.0])
        for x in toda3_spec.domain.halton_points(10, seed=3):
            assert bracket(toda3_spec, f, g, x) == pytest.approx(
                -bracket(toda3_spec, g, f, x), abs=1e-13
            )

    def test_casimir_commutes_with_everything(self, kmk_spec, rng):
        C = linear_hamiltonian([1.0, 1.0, 1.0])
        f = quadratic_hamiltonian([1.0, 2.0, 3.0])
        for x in rng.uniform(0.5, 2.0, size=(10, 3)):
            assert bracket(kmk_spec, f, C, x) == 0.0

    def test_toda_elementary_brackets(self, toda3_spec):
        x = np.array([1.3, 0.8, 0.2, -0.4, 0.6])
        alpha1 = coordinate_hamiltonian(1, 5)
        beta1 = coordinate_hamiltonian(3, 5)
        beta2 = coordinate_hamiltonian(4, 5)
        assert bracket(toda3_spec, alpha1, beta1, x) == pytest.approx(-1.3, abs=1e-14)
        assert bracket(toda3_spec, alpha1, beta2, x) == pytest.approx(1.3, abs=1e-14)


class TestNewtonJacobians:
    """Analytic Newton matrices against central differences of the field."""

    def test_direct_matches_differences(self, kmk_spec, toda3_spec):
        for spec, H, _ in _newton_cases(kmk_spec, toda3_spec):
            f, jacobian = _direct_system(spec, H)
            assert jacobian is not None
            for x in spec.domain.halton_points(8, seed=11):
                _assert_relative(jacobian(x), _fd_jacobian(f, x), 1e-6)

    def test_canonical_matches_differences(self, kmk_spec, toda3_spec):
        for spec, H, _ in _newton_cases(kmk_spec, toda3_spec):
            chart = darboux_chart(spec)
            for x in spec.domain.halton_points(8, seed=11):
                z = chart.forward(x)
                f, jacobian = _canonical_system(spec, H, chart, z[spec.r :])
                assert jacobian is not None
                u = z[: spec.r]
                _assert_relative(jacobian(u), _fd_jacobian(f, u), 1e-6)

    def test_without_hessian_falls_back(self, kmk_spec):
        H = HamiltonianField(value=lambda x: 0.0, gradient=lambda x: np.zeros(3))
        assert _direct_system(kmk_spec, H)[1] is None
        chart = darboux_chart(kmk_spec)
        assert _canonical_system(kmk_spec, H, chart, np.zeros(1))[1] is None

    def test_trajectories_match_fd_newton_path(self, kmk_spec, toda3_spec):
        for spec, H, x0 in _newton_cases(kmk_spec, toda3_spec):
            H_fd = HamiltonianField(value=H.value, gradient=H.gradient)
            runs = [
                (
                    integrate_direct(spec, H, x0, 1e-3, 1000, method="implicit-midpoint"),
                    integrate_direct(spec, H_fd, x0, 1e-3, 1000, method="implicit-midpoint"),
                ),
                (
                    integrate_canonical(spec, H, x0, 1e-3, 1000),
                    integrate_canonical(spec, H_fd, x0, 1e-3, 1000),
                ),
            ]
            for analytic, fd in runs:
                assert not analytic.domain_exit and not fd.domain_exit
                assert analytic.num_records == fd.num_records == 1001
                tol = 1e-10 * (1.0 + np.abs(fd.states))
                assert np.all(np.abs(analytic.states - fd.states) <= tol)


class TestIntegrateDirect:
    def test_zero_steps(self, kmk_spec):
        H = quadratic_hamiltonian([1.0, 1.0, 1.0])
        rec = integrate_direct(kmk_spec, H, [1.0, 1.0, 1.0], 0.1, 0)
        assert rec.num_records == 1
        assert rec.times[0] == 0.0
        np.testing.assert_array_equal(rec.states[0], [1.0, 1.0, 1.0])

    def test_casimir_hamiltonian_constant_trajectory(self, kmk_spec):
        H = linear_hamiltonian([1.0, 1.0, 1.0])
        rec = integrate_direct(kmk_spec, H, [1.0, 1.2, 0.8], 0.01, 100)
        assert np.all(rec.states == rec.states[0])
        assert rec.max_energy_drift() == 0.0

    def test_rk4_invariant_drift_small(self, kmk_spec):
        H = quadratic_hamiltonian([1.0, 1.0, 1.0])
        rec = integrate_direct(kmk_spec, H, [1.0, 1.2, 0.8], 1e-3, 10_000)
        assert rec.max_casimir_drift() <= 1e-8
        assert rec.max_energy_drift() <= 1e-8 * abs(
            H.value_at([1.0, 1.2, 0.8])
        )

    def test_rk4_energy_drift_fourth_order(self, kmk_spec):
        H = quadratic_hamiltonian([1.0, 2.0, 0.5])
        x0 = [1.0, 1.2, 0.8]
        drift = []
        for dt in (0.02, 0.01):
            rec = integrate_direct(kmk_spec, H, x0, dt, int(round(4.0 / dt)))
            drift.append(rec.max_energy_drift())
        assert 8.0 <= drift[0] / drift[1] <= 32.0

    def test_implicit_midpoint_matches_rk4(self, kmk_spec):
        H = quadratic_hamiltonian([1.0, 2.0, 0.5])
        x0 = [1.0, 1.2, 0.8]
        a = integrate_direct(kmk_spec, H, x0, 1e-3, 1000, method="rk4")
        b = integrate_direct(kmk_spec, H, x0, 1e-3, 1000, method="implicit-midpoint")
        np.testing.assert_allclose(a.final_state, b.final_state, atol=1e-5)

    def test_domain_exit_truncates(self):
        box = BoxDomain([-1.0, -1.0], [1.0, 1.0])
        spec = build_spec(2, 2, np.eye(2), (Constant(1.0), Constant(1.0)), box)
        # constant drift dx/dt = (0, -1) marches x2 through the wall
        H = linear_hamiltonian([1.0, 0.0])
        rec = integrate_direct(spec, H, [0.0, 0.0], 0.3, 10)
        assert rec.domain_exit
        assert rec.num_records < 11
        assert all(box.contains(x) for x in rec.states)

    def test_newton_failure_raises(self):
        spec = constant_symplectic(1, 2)
        H = HamiltonianField(
            value=lambda x: float(np.sum(x**4)), gradient=lambda x: 4.0 * x**3
        )
        with pytest.raises(MaxNewtonIterationsError):
            integrate_direct(spec, H, [1.0, 0.5], 50.0, 3, method="implicit-midpoint")

    def test_input_validation(self, kmk_spec):
        H = quadratic_hamiltonian([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            integrate_direct(kmk_spec, H, [1.0, 1.0, 1.0], -0.1, 10)
        with pytest.raises(ValueError):
            integrate_direct(kmk_spec, H, [1.0, 1.0, 1.0], 0.1, -1)
        with pytest.raises(ValueError):
            integrate_direct(kmk_spec, H, [1.0, 1.0, 1.0], 0.1, 10, method="euler")

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_nonpositive_dt_rejected(self, kmk_spec, dt):
        H = quadratic_hamiltonian([1.0, 1.0, 1.0])
        for method in ("rk4", "implicit-midpoint"):
            with pytest.raises(ValueError):
                integrate_direct(kmk_spec, H, [1.0, 1.0, 1.0], dt, 10, method=method)
        with pytest.raises(ValueError):
            integrate_canonical(kmk_spec, H, [1.0, 1.0, 1.0], dt, 10)


class TestIntegrateCanonical:
    def test_casimir_drift_round_trip_only(self, kmk_spec):
        H = quadratic_hamiltonian([1.0, 2.0, 0.5])
        rec = integrate_canonical(kmk_spec, H, [1.0, 1.2, 0.8], 1e-3, 1000)
        assert rec.max_casimir_drift() <= 1e-10

    def test_rank_zero_constant(self):
        spec = constant_symplectic(0, 3)
        H = quadratic_hamiltonian([1.0, 1.0, 1.0])
        rec = integrate_canonical(spec, H, [0.3, 0.2, 0.1], 0.1, 20)
        assert np.all(rec.states == rec.states[0])

    def test_energy_bounded_no_secular_drift(self, kmk_spec):
        H = quadratic_hamiltonian([1.0, 1.0, 1.0])
        rec = integrate_canonical(kmk_spec, H, [1.0, 1.2, 0.8], 1e-3, 5000)
        assert rec.max_energy_drift() <= 1e-5 * abs(H.value_at([1.0, 1.2, 0.8]))

    def test_direct_and_canonical_agree(self, kmk_spec, toda3_spec):
        cases = [
            (kmk_spec, quadratic_hamiltonian([1.0, 2.0, 0.5]), [1.0, 1.2, 0.8]),
            (
                toda3_spec,
                quadratic_hamiltonian(np.ones(5)),
                [1.0, 0.8, 0.3, -0.2, 0.4],
            ),
        ]
        for spec, H, x0 in cases:
            a = integrate_direct(spec, H, x0, 1e-3, 1000, method="rk4")
            b = integrate_canonical(spec, H, x0, 1e-3, 1000)
            assert float(np.max(np.abs(a.final_state - b.final_state))) <= 1e-4

    def test_reuses_supplied_chart(self, toda3_spec):
        chart = darboux_chart(toda3_spec)
        H = quadratic_hamiltonian(np.ones(5))
        rec = integrate_canonical(
            toda3_spec, H, [1.0, 0.8, 0.3, -0.2, 0.4], 1e-2, 10, chart=chart
        )
        assert rec.num_records == 11
        assert np.all(np.diff(rec.times) > 0)


class TestTrajectoryCsv:
    def test_header_and_shape(self, kmk_spec):
        H = quadratic_hamiltonian([1.0, 1.0, 1.0])
        rec = integrate_direct(kmk_spec, H, [1.0, 1.0, 1.0], 0.5, 2)
        text = trajectory_to_csv(rec)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x1,x2,x3,dH,dC_3"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and len(first) == 6

    def test_toda_header_single_casimir_column(self, toda3_spec):
        H = quadratic_hamiltonian(np.ones(5))
        rec = integrate_direct(toda3_spec, H, [1.0, 0.8, 0.3, -0.2, 0.4], 0.1, 1)
        header = trajectory_to_csv(rec).split("\n", 1)[0]
        assert header == "t,x1,x2,x3,x4,x5,dH,dC_5"

    def test_deterministic_bytes(self, kmk_spec):
        H = quadratic_hamiltonian([1.0, 2.0, 0.5])
        rec1 = integrate_direct(kmk_spec, H, [1.0, 1.2, 0.8], 1e-2, 50)
        rec2 = integrate_direct(kmk_spec, H, [1.0, 1.2, 0.8], 1e-2, 50)
        assert trajectory_to_csv(rec1) == trajectory_to_csv(rec2)

    def test_values_round_trip(self, kmk_spec):
        H = quadratic_hamiltonian([1.0, 2.0, 0.5])
        rec = integrate_direct(kmk_spec, H, [1.0, 1.2, 0.8], 1e-2, 5)
        lines = trajectory_to_csv(rec).strip().split("\n")[1:]
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
        np.testing.assert_array_equal(parsed[:, 1:4], rec.states)
        np.testing.assert_array_equal(parsed[:, 4], rec.energy_drift)


def test_record_stride_thinning():
    assert _record_stride(10) == 1
    assert _record_stride(1_000_000) == 1
    assert _record_stride(2_000_000) == 2
    assert _record_stride(10_000_001) == 11
