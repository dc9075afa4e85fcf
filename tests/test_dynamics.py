from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from specgen import dimension_rank_pairs, random_spec

from poissonkit import (
    BoxDomain,
    ConfigValidationError,
    Constant,
    HamiltonianField,
    MaxNewtonIterationsError,
    OutOfDomainError,
    OutOfRangeError,
    build_spec,
    bracket,
    canonical_matrix,
    constant_symplectic,
    coordinate_hamiltonian,
    darboux_chart,
    evaluate_structure,
    integrate_canonical,
    integrate_direct,
    kermack_mckendrick,
    linear_hamiltonian,
    quadratic_hamiltonian,
    structure_partials,
    toda,
    trajectory_to_csv,
    vector_field,
)
from poissonkit import dynamics
from poissonkit.config import parse_config
from poissonkit.darboux import DarbouxChart
from poissonkit.dynamics import NEWTON_TOL, _ChartSystem, _Identity, _Quadrature, _record_stride
from poissonkit.factors import FactorBank
from poissonkit.verify import central_differences, jacobi_sweep, structure_field

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


def _without_hessian(H):
    return HamiltonianField(value=H.value, gradient=H.gradient)


def _variants(H):
    """H, H without its Hessian, and H with only its value."""
    return [H, _without_hessian(H), HamiltonianField(value=H.value)]


def _fd_newton(evaluate, p):
    """Central differences, step 1e-7 (1 + |p_l|), of the field of a
    system, u -> (f(u), newton)."""
    return central_differences(lambda q: evaluate(q)[0], p, 1e-7)


def _system(route, spec, H, x, chart=None):
    """The route's system from x and its u there: y_{1..r} for the direct
    route (the identity stage), z_{1..r} for the canonical route (the
    quadrature stage, on ``chart`` or the spec's default chart)."""
    x = np.asarray(x, dtype=float)
    if route == "direct":
        system = _ChartSystem(spec, H, _Identity(spec), x)
        return system, system.y0
    chart = chart or darboux_chart(spec)
    return _ChartSystem(spec, H, _Quadrature(spec, chart.anchors), x), chart.forward(x)[: spec.r]


def _assert_relative(analytic, fd, rel):
    scale = float(np.max(np.abs(fd)))
    assert scale > 0.0
    assert float(np.max(np.abs(analytic - fd))) <= rel * scale


class TestHamiltonianField:
    def test_builtin_gradients_match_differences(self, kmk_spec, rng):
        fields = [
            quadratic_hamiltonian([1.0, 2.0, 0.5]),
            linear_hamiltonian([0.3, -1.0, 2.0]),
            coordinate_hamiltonian(2, 3),
        ]
        for H in fields:
            for x in rng.uniform(0.5, 2.0, size=(10, 3)):
                fd = central_differences(H.value, x, 1e-6)
                assert float(np.max(np.abs(H.gradient_at(x) - fd))) <= 1e-6

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

    def test_builtin_hessians_are_arrays(self):
        """The built-in Hamiltonians hold their constant Hessian as an array,
        and hessian_at gives a copy of it at any x."""
        for H in (
            quadratic_hamiltonian([1.0, 2.0, 0.5]),
            linear_hamiltonian([0.3, -1.0, 2.0]),
            coordinate_hamiltonian(2, 3),
        ):
            assert isinstance(H.hessian, np.ndarray) and H.hessian.shape == (3, 3)
            hess = H.hessian_at([1.0, 2.0, 3.0])
            np.testing.assert_array_equal(hess, H.hessian)
            assert not np.shares_memory(hess, H.hessian)

    def test_array_hessian_keeps_hash_and_equality(self):
        """Equality and hashing leave the Hessian out, so a field that holds
        an array hashes, equals its copies whatever their Hessian, and
        differs from a field with other value or gradient callables."""
        H = quadratic_hamiltonian([1.0, 2.0, 0.5])
        assert H == replace(H) and hash(H) == hash(replace(H))
        assert replace(H, hessian=lambda x: H.hessian) == H
        assert H != quadratic_hamiltonian([1.0, 2.0, 0.5])
        assert len({H, replace(H), coordinate_hamiltonian(1, 3)}) == 2


class TestVectorField:
    @pytest.fixture(autouse=True)
    def _never_forms_structure(self, refuse_structure):
        refuse_structure()

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

    def test_pair_products_keep_extreme_factors_finite(self):
        """phi_1 = 1e300 y_1 and phi_2 = 1e-300 y_2: the field scales by the
        pair product w = phi_1 phi_2, finite, never by one factor alone."""
        spec = kermack_mckendrick(1.0, kappa1=1e300)
        H = quadratic_hamiltonian([1e9, 1.0, 1.0])
        np.testing.assert_array_equal(
            vector_field(spec, H, [1.0, 1.0, 1.0]), [0.0, 1.0 - 1e9, 1e9 - 1.0]
        )

    def test_kmk_coordinate_hamiltonian(self, kmk_spec):
        H = coordinate_hamiltonian(3, 3)
        np.testing.assert_allclose(
            vector_field(kmk_spec, H, [2.0, 3.0, 1.0]), [-6.0, 6.0, 0.0], atol=1e-14
        )


class TestBracket:
    @pytest.fixture(autouse=True)
    def _never_forms_structure(self, refuse_structure):
        refuse_structure()

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
    """Newton matrices against central differences of the field, for a
    Hamiltonian with a Hessian, without one, and with only a value.  The
    differences are taken of the field of the Hamiltonian with analytic
    derivatives: a value-only field carries the rounding noise of its
    differenced gradient, about 1e-10, which a 1e-7 step would amplify
    past the bound."""

    @pytest.mark.parametrize("route", ["direct", "canonical"])
    def test_matches_differences(self, kmk_spec, toda3_spec, route):
        for spec, H, _ in _newton_cases(kmk_spec, toda3_spec):
            chart = darboux_chart(spec)
            for x in spec.domain.halton_points(8, seed=11):
                system, u = _system(route, spec, H, x, chart)
                fd = _fd_newton(system, u)
                for variant in _variants(H):
                    system, u = _system(route, spec, variant, x, chart)
                    _assert_relative(system(u)[1](), fd, 1e-6)

    def test_direct_matches_partials_tensor(self):
        """The identity stage's Newton matrix against J Hess H + (dJ/dx) grad H
        contracted from the partials tensor and read in the linear chart,
        B_r (.) A_r, for every (n, r) up to n = 8."""
        rng = np.random.default_rng(61)
        for n, r in dimension_rank_pairs():
            spec = random_spec(rng, n, r)
            H = quadratic_hamiltonian(rng.uniform(0.5, 2.0, size=n))
            for x in spec.domain.halton_points(4, seed=12):
                reference = evaluate_structure(spec, x) @ H.hessian_at(x) + np.einsum(
                    "ijl,j->il", structure_partials(spec, x), H.gradient_at(x)
                )
                reference = spec.B[:r] @ reference @ spec.A[:, :r]
                scale = float(np.max(np.abs(reference), initial=0.0))
                system, u = _system("direct", spec, H, x)
                newton = system(u)[1]()
                assert float(np.max(np.abs(newton - reference), initial=0.0)) <= 1e-13 * scale

    def test_implicit_midpoint_never_forms_partials(self, refuse_structure, kmk_spec, toda3_spec):
        refuse_structure()
        for spec, H, x0 in _newton_cases(kmk_spec, toda3_spec):
            record = integrate_direct(spec, H, x0, 1e-3, 20, method="implicit-midpoint")
            assert record.num_records == 21 and not record.domain_exit

    def test_without_hessian_falls_back(self, kmk_spec, toda3_spec):
        """Without a Hessian, hessian_at is central differences of
        gradient_at, and on both routes the Newton thunk is bitwise the
        analytic one built with that Hessian."""
        for spec, H, x in _newton_cases(kmk_spec, toda3_spec):
            x = np.asarray(x)
            chart = darboux_chart(spec)
            for H_fd in _variants(H)[1:]:
                np.testing.assert_array_equal(
                    H_fd.hessian_at(x), central_differences(H_fd.gradient_at, x, 1e-4)
                )
                H_with = HamiltonianField(H_fd.value, H_fd.gradient, H_fd.hessian_at)
                for route in ("direct", "canonical"):
                    thunks = []
                    for field in (H_fd, H_with):
                        system, u = _system(route, spec, field, x, chart)
                        thunks.append(system(u)[1]())
                    np.testing.assert_array_equal(*thunks)

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


def _counter(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` through a wrapper; returns the
    one-element call count."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _pass_counter(monkeypatch):
    """Count the factor bank passes by operation; returns the Counter."""
    passes = Counter()
    apply = FactorBank.apply

    def counted(self, name, *args, **kwargs):
        passes[name] += 1
        return apply(self, name, *args, **kwargs)

    monkeypatch.setattr(FactorBank, "apply", counted)
    return passes


def _blocks(steps: int) -> int:
    """The block pull-backs of a run whose ``steps`` states are accepted."""
    return math.ceil(steps / dynamics.ACCEPT_BLOCK)


class _CountedSystem:
    """A route's system whose calls (one per Newton point) and Newton-matrix
    thunks run (one per refresh) are counted into ``calls``."""

    def __init__(self, system, calls):
        self.system, self.calls, self.field = system, calls, system.field
        self.identity = system.identity

    def __call__(self, p):
        self.calls[0] += 1
        f, newton = self.system(p)

        def counted_newton():
            self.calls[1] += 1
            return newton()

        return f, counted_newton


def _newton_point_counter(monkeypatch):
    """Count, over every implicit-midpoint step, the system calls (one per
    Newton point) and the Newton-matrix thunks run (one per refresh);
    returns [points, refreshes]."""
    calls = [0, 0]
    step = dynamics._implicit_midpoint_step

    def counted_step(history, system, x, dt, f=None):
        return step(history, _CountedSystem(system, calls), x, dt, f)

    monkeypatch.setattr(dynamics, "_implicit_midpoint_step", counted_step)
    return calls


def _systems(monkeypatch):
    """Every _ChartSystem built from here on, in order."""
    systems = []
    init = _ChartSystem.__init__

    def recorded(self, *args):
        init(self, *args)
        systems.append(self)

    monkeypatch.setattr(_ChartSystem, "__init__", recorded)
    return systems


def _formed(system) -> bool:
    """Whether the system has formed the curvature of an array Hessian."""
    return "constant_curvature" in vars(system)


class TestOneEvaluationPerNewtonPoint:
    """Implicit midpoint evaluates each Newton point once, and the Newton
    matrix reuses that evaluation; only a refresh takes a factor derivative
    pass.  From the third step on Newton starts from the field values at
    earlier midpoints, so no route evaluates the field at an accepted
    state there.  The field alone serves the start's overflow check, whose
    value is the first step's Euler start, and the second step's Euler
    start.  On the canonical route a
    pull-back is one inversion pass that also gives phi, and one pull-back
    of each block of accepted states gives the recorded x.  A run forms the
    curvature of an array Hessian once, at its first refresh, and never
    calls hessian_at; without a Hessian each refresh differences the
    gradient."""

    STEPS = 30

    @pytest.mark.parametrize("analytic", [True, False])
    def test_canonical_pull_backs(self, monkeypatch, kmk_spec, toda3_spec, analytic):
        for spec, H, x0 in _newton_cases(kmk_spec, toda3_spec)[:2]:
            H = H if analytic else _without_hessian(H)
            chart = darboux_chart(spec)
            expected = integrate_canonical(spec, H, x0, 1e-2, self.STEPS, chart=chart)
            with monkeypatch.context() as m:
                newton_points = _newton_point_counter(m)
                evaluations = _counter(m, _ChartSystem, "__call__")
                fields = _counter(m, _ChartSystem, "field")
                passes = _pass_counter(m)
                hessians = _counter(m, HamiltonianField, "hessian_at")
                systems = _systems(m)

                def refuse(self, z):
                    raise AssertionError("the chart was inverted per step")

                m.setattr(DarbouxChart, "inverse", refuse)
                record = integrate_canonical(spec, H, x0, 1e-2, self.STEPS, chart=chart)
            assert not record.domain_exit and record.num_records == self.STEPS + 1
            np.testing.assert_array_equal(record.states, expected.states)
            assert newton_points[0] >= 2 * self.STEPS and newton_points[1] >= self.STEPS
            # x0 is mapped forward once.  The field alone, one pull-back
            # each, serves f(u0) for the start and the first Euler start,
            # and f(u1) for the second; the system runs at each
            # Newton point, and each block of accepted states is pulled
            # back once, for its x.  A pull-back's phi takes no value pass,
            # and each refresh adds phi' and no pull-back.
            assert fields[0] == 2
            assert evaluations[0] == newton_points[0]
            assert passes == Counter(
                reciprocal_antiderivative=1,
                invert_antiderivative=2 + newton_points[0] + _blocks(self.STEPS),
                derivative=newton_points[1],
            )
            assert len(systems) == 1 and _formed(systems[0]) == analytic
            assert hessians[0] == (0 if analytic else newton_points[1])

    @pytest.mark.parametrize("analytic", [True, False])
    def test_direct_newton_points(self, monkeypatch, kmk_spec, toda3_spec, analytic):
        for spec, H, x0 in _newton_cases(kmk_spec, toda3_spec)[:2]:
            H = H if analytic else _without_hessian(H)
            for method in ("implicit-midpoint", "rk4"):
                expected = integrate_direct(spec, H, x0, 1e-2, self.STEPS, method=method)
                with monkeypatch.context() as m:
                    newton_points = _newton_point_counter(m)
                    fields = _counter(m, _ChartSystem, "field")
                    evaluators = _counter(m, _ChartSystem, "__call__")
                    passes = _pass_counter(m)
                    hessians = _counter(m, HamiltonianField, "hessian_at")
                    systems = _systems(m)
                    record = integrate_direct(spec, H, x0, 1e-2, self.STEPS, method=method)
                assert not record.domain_exit and record.num_records == self.STEPS + 1
                np.testing.assert_array_equal(record.states, expected.states)
                # The field alone serves the start's f(x0), which is also
                # the first step's RK4 f(x) or Euler start, RK4's f(x) at
                # every later step and its stages, and the second midpoint
                # step's Euler start; only the Newton points call the
                # system for its thunk.  Each takes one factor value pass,
                # and only a Newton-matrix refresh takes a derivative pass;
                # an accepted state's x takes none, since y_{1..r} is u.
                if method == "rk4":
                    assert newton_points == [0, 0]
                    assert (fields[0], evaluators[0]) == (4 * self.STEPS, 0)
                else:
                    assert newton_points[0] >= 2 * self.STEPS and newton_points[1] >= self.STEPS
                    assert (fields[0], evaluators[0]) == (2, newton_points[0])
                assert passes == Counter(
                    value=fields[0] + evaluators[0], derivative=newton_points[1]
                )
                # RK4 takes no Newton matrix, so it forms no curvature.
                midpoint = method == "implicit-midpoint"
                assert len(systems) == 1 and _formed(systems[0]) == (analytic and midpoint)
                assert hessians[0] == (0 if analytic else newton_points[1])

    @pytest.mark.parametrize("analytic", [True, False])
    def test_rank_zero(self, monkeypatch, analytic):
        """J = 0 and u is empty: on both routes every step converges at its
        first Newton point, with no refresh, and every state is x0
        bitwise, its -0.0 included.  The passes are those of any r, over
        no columns, and the chart is never inverted."""
        spec = constant_symplectic(0, 3)
        H = quadratic_hamiltonian([1.0, 2.0, 0.5])
        H = H if analytic else _without_hessian(H)
        x0 = np.array([0.1, -0.0, 0.3])
        chart = darboux_chart(spec)
        with monkeypatch.context() as m:
            newton_points = _newton_point_counter(m)
            passes = _pass_counter(m)
            m.setattr(DarbouxChart, "inverse", None)
            canonical = integrate_canonical(spec, H, x0, 1e-2, self.STEPS, chart=chart)
            assert newton_points == [self.STEPS, 0]
            assert passes == Counter(
                reciprocal_antiderivative=1,
                invert_antiderivative=2 + self.STEPS + _blocks(self.STEPS),
            )
            passes.clear()
            direct = integrate_direct(spec, H, x0, 1e-2, self.STEPS, method="implicit-midpoint")
        assert newton_points == [2 * self.STEPS, 0]
        assert passes == {"value": 2 + self.STEPS}
        for record in (canonical, direct):
            assert record.num_records == self.STEPS + 1 and not record.domain_exit
            assert record.states.tobytes() == np.tile(x0, (self.STEPS + 1, 1)).tobytes()


class TestConstantCurvature:
    """A built-in Hamiltonian's Hessian is an array, and a run forms
    A_r^T Hess H A_r from it once; behind a callable the same Hessian is
    formed afresh at each refresh, with bitwise the same states."""

    RUNS = (
        partial(integrate_direct, method="rk4"),
        partial(integrate_direct, method="implicit-midpoint"),
        integrate_canonical,
    )

    def test_states_equal_a_callable_hessians(self, kmk_spec, toda3_spec):
        for spec, H, x0 in _newton_cases(kmk_spec, toda3_spec):
            fresh = HamiltonianField(H.value, H.gradient, lambda x, H=H: H.hessian)
            for run in self.RUNS:
                constant, reference = (run(spec, field, x0, 1e-2, 50) for field in (H, fresh))
                assert constant.num_records == 51 and not constant.domain_exit
                for a, b in zip(_arrays(constant), _arrays(reference)):
                    assert a.tobytes() == b.tobytes()

    def test_field_and_bracket_never_form_it(self, monkeypatch, kmk_spec, toda3_spec):
        systems = _systems(monkeypatch)
        hessians = _counter(monkeypatch, HamiltonianField, "hessian_at")
        for spec, H, x0 in _newton_cases(kmk_spec, toda3_spec):
            vector_field(spec, H, x0)
            bracket(spec, H, H, x0)
        assert len(systems) == 6 and not any(map(_formed, systems))
        assert hessians[0] == 0


def _arrays(record):
    return record.times, record.states, record.energy_drift, record.casimir_drift


def _dense_field(self, u):
    """The field as the dense product K @ (rho * c)."""
    _, _, _, rho, _, c = self._evaluate(u)
    r = self.identity.shape[0]
    return canonical_matrix(r, r) @ (rho * c)


class TestPairSwapOverflow:
    """K v is the pair swap signs * v[partners], so an entry of rho * c
    that overflows stays one inf, where the dense K @ v gives nan in every
    row (0 * inf).  The start check names either; for an overflow mid-run
    see TestIntegrateDirect.test_overflowing_step_is_a_quiet_domain_exit."""

    def test_field_overflowing_at_the_start_is_named(self, kmk_spec):
        x0 = np.array([2.0, 1.0, 1.0])
        for w, route in (([1.0, 1e308, 1.0], "direct"), ([1e308, 1.0, 1.0], "canonical")):
            H = quadratic_hamiltonian(w)
            system, u0 = _system(route, kmk_spec, H, x0)
            with np.errstate(over="ignore", invalid="ignore"):
                f = system.field(u0)
            assert np.isinf(f).any()
            message = r"^the vector field overflows at initial state x = \[2.0, 1.0, 1.0\]$"
            runs = (
                [partial(integrate_direct, method=m) for m in ("rk4", "implicit-midpoint")]
                if route == "direct" else [integrate_canonical]
            )
            for run in runs:
                with pytest.raises(ConfigValidationError, match=message):
                    run(kmk_spec, H, x0, 0.1, 3)


class TestTimeReversal:
    """The flow of -H is the flow of H run backwards: STEPS steps with H,
    then STEPS with -H, return to x0.  Implicit midpoint is symmetric, so
    on both routes it returns to within the Newton tolerance of its steps,
    STEPS * NEWTON_TOL * max|x| (the largest error, toda's direct
    midpoint, is 1.1e-11 against 7.1e-10).  RK4 is not, and returns only
    to its truncation error, bounded by four times the Richardson estimate
    |x_N(dt) - x_N(dt/2)| of one leg's error (toda: 3.6e-7 against
    1.3e-6)."""

    STEPS, DT = 200, 1e-2

    @staticmethod
    def _cases():
        t6 = toda(6)
        return [
            (kermack_mckendrick(1.0, 1.0, 1.0), np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 1.0])),
            (t6, np.linspace(1.0, 2.0, 11), t6.domain.halton_points(1, seed=3)[0]),
        ]

    @pytest.mark.parametrize(
        "route, method",
        [("direct", "rk4"), ("direct", "implicit-midpoint"), ("canonical", "implicit-midpoint")],
    )
    def test_reversed_flow_returns_to_the_start(self, route, method):
        for spec, w, x0 in self._cases():

            def run(H, x, dt=self.DT, steps=self.STEPS):
                if route == "canonical":
                    return integrate_canonical(spec, H, x, dt, steps)
                return integrate_direct(spec, H, x, dt, steps, method=method)

            there = run(quadratic_hamiltonian(w), x0)
            back = run(quadratic_hamiltonian(-w), there.final_state)
            assert not there.domain_exit and not back.domain_exit
            error = float(np.abs(back.final_state - x0).max())
            if method == "rk4":
                half = run(quadratic_hamiltonian(w), x0, self.DT / 2, 2 * self.STEPS)
                bound = 4.0 * float(np.abs(there.final_state - half.final_state).max())
            else:
                scale = max(np.abs(there.states).max(), np.abs(back.states).max())
                bound = self.STEPS * NEWTON_TOL * float(scale)
            assert error <= bound


class TestExtrapolatedStart:
    """From its third step on, implicit midpoint starts Newton from the
    field values at the last two converged midpoints."""

    def test_direct_states_solve_the_midpoint_equation(self, kmk_spec, toda3_spec):
        """From the returned states alone, every step satisfies
        x_{k+1} - x_k = dt f((x_k + x_{k+1}) / 2) to the Newton tolerance."""
        for spec, H, x0 in _newton_cases(kmk_spec, toda3_spec):
            for dt in (1e-3, 1e-2):
                record = integrate_direct(spec, H, x0, dt, 100, method="implicit-midpoint")
                assert record.num_records == 101 and not record.domain_exit
                X = record.states
                for x, x_next in zip(X[:-1], X[1:]):
                    mid = 0.5 * (x + x_next)
                    field = evaluate_structure(spec, mid) @ H.gradient_at(mid)
                    residual = x_next - x - dt * field
                    assert np.abs(residual).max() <= NEWTON_TOL * (1.0 + np.abs(x).max())

    def test_direct_energy_drift_stays_at_round_off(self, kmk_spec):
        """A quadratic H on the kmk bracket: over 1000 steps |dH| stays at
        round-off (4.4e-15 on x86-64).  A Newton matrix formed on the first
        step and kept, instead of formed afresh each step, reaches 3.7e-11."""
        H = quadratic_hamiltonian([1.0, 2.0, 0.5])
        record = integrate_direct(
            kmk_spec, H, [1.0, 1.2, 0.8], 1e-3, 1000, method="implicit-midpoint"
        )
        assert not record.domain_exit and record.max_energy_drift() <= 1e-13

    @pytest.mark.parametrize("integrate", [integrate_direct, integrate_canonical])
    def test_newton_points_per_step(self, monkeypatch, toda3_spec, integrate):
        """At dt 1e-2 a step takes two Newton points past the first two
        steps: 2.01 per step over 200 steps, where explicit-Euler starts
        took 2.6."""
        spec, H, x0 = _newton_cases(None, toda3_spec)[1]
        points = _newton_point_counter(monkeypatch)
        kwargs = {"method": "implicit-midpoint"} if integrate is integrate_direct else {}
        record = integrate(spec, H, x0, 1e-2, 200, **kwargs)
        assert record.num_records == 201 and not record.domain_exit
        assert points[0] <= 2.05 * 200


@pytest.mark.parametrize("integrate", [integrate_direct, integrate_canonical])
def test_start_outside_box_raises(kmk_spec, integrate):
    """The library integrators raise OutOfDomainError for a start outside
    the open box or on a face; the CLI names --x0 or initial_state."""
    H = quadratic_hamiltonian([1.0, 1.0, 1.0])
    for x0 in ([-1.0, 1.0, 1.0], [0.0, 1.0, 1.0]):
        with pytest.raises(OutOfDomainError, match="is outside the domain box"):
            integrate(kmk_spec, H, x0, 1e-2, 3)


class TestIntegrateDirect:
    @pytest.mark.parametrize("method", ["rk4", "implicit-midpoint"])
    def test_never_forms_structure(self, refuse_structure, kmk_spec, toda3_spec, method):
        """The direct route integrates from the pair products alone: with J,
        its slopes and its partials refused everywhere it still runs, while
        the sweep, which forms J, is refused."""
        cases = _newton_cases(kmk_spec, toda3_spec)[:2] + [
            (constant_symplectic(0, 3), quadratic_hamiltonian([1.0, 2.0, 0.5]), [0.1, 0.2, 0.3])
        ]
        refuse_structure()
        for spec, H, x0 in cases:
            record = integrate_direct(spec, H, x0, 1e-2, 20, method=method)
            assert record.num_records == 21 and not record.domain_exit
            with pytest.raises(AssertionError, match="was called"):
                jacobi_sweep(structure_field(spec), 4)

    def test_extreme_factors_keep_the_newton_matrix_finite(self):
        """phi_1 = 1e300 y_1, phi_2 = 1e-300 y_2 and a gradient near 1e9: the
        Newton matrix, like the field, is built from pair products and pair
        slopes, never from one factor times a gradient component, so
        implicit midpoint keeps every step and agrees with RK4 (to 2e-9 on
        x86-64)."""
        spec = kermack_mckendrick(1.0, kappa1=1e300)
        H = quadratic_hamiltonian([1e9, 1.0, 1.0])
        midpoint, rk4 = (
            integrate_direct(spec, H, [1.0, 1.2, 0.8], 1e-12, 20, method=method)
            for method in ("implicit-midpoint", "rk4")
        )
        for record in (midpoint, rk4):
            assert record.num_records == 21 and not record.domain_exit
        np.testing.assert_allclose(midpoint.states, rk4.states, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("integrate", [integrate_direct, integrate_canonical])
    def test_zero_steps(self, kmk_spec, integrate):
        H = quadratic_hamiltonian([1.0, 1.0, 1.0])
        rec = integrate(kmk_spec, H, [1.0, 1.0, 1.0], 0.1, 0)
        assert rec.num_records == 1 and not rec.domain_exit
        assert rec.times[0] == 0.0
        np.testing.assert_array_equal(rec.states[0], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("steps", [0, 5])
    @pytest.mark.parametrize("route", ["direct", "canonical"])
    def test_start_that_leaves_an_interval_is_a_domain_exit(
        self, kmk_spec, monkeypatch, route, steps
    ):
        """The start is evaluated whether or not a step follows; when that
        evaluation leaves a factor or chart interval, the run ends with one
        record, as when a first step leaves one."""

        def leaving(*args):
            raise OutOfRangeError("left the interval")

        integrate = {"direct": integrate_direct, "canonical": integrate_canonical}[route]
        monkeypatch.setattr(_ChartSystem, "field", leaving)
        H = quadratic_hamiltonian([1.0, 1.0, 1.0])
        rec = integrate(kmk_spec, H, [1.0, 1.0, 1.0], 0.1, steps)
        assert rec.num_records == 1 and rec.domain_exit
        np.testing.assert_array_equal(rec.energy_drift, [0.0])

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

    def test_rk4_stage_outside_the_box_is_no_exit(self, kmk_spec):
        """Only accepted states are held to the box: on this run two RK4
        stage points, the first in step 51, have x3 < 0 while every
        accepted state stays inside (min x3 about 1e-5), and the run goes
        on to its last step, close to implicit midpoint's."""
        H = quadratic_hamiltonian([1.0, 2.0, 3.0])
        rk4, midpoint = (
            integrate_direct(kmk_spec, H, [1.0, 1.0, 1.0], 0.01, 400, method=method)
            for method in ("rk4", "implicit-midpoint")
        )
        for record in (rk4, midpoint):
            assert record.num_records == 401 and not record.domain_exit
            assert all(kmk_spec.domain.contains(x) for x in record.states)
        assert float(np.abs(rk4.final_state - midpoint.final_state).max()) <= 1e-3

    def test_overflowing_step_is_a_quiet_domain_exit(self, monkeypatch, kmk_spec):
        """x3 = 1e308 sits inside kmk's box, and the first step whose
        field overflows ends the run with the domain-exit flag, without a
        RuntimeWarning.  An RK4 stage's field there is [inf, nan], where
        the dense product K @ (rho * c) gives [nan, nan]; the records are
        the dense product's, bitwise."""
        H = linear_hamiltonian([0.0, 1.0, 0.0])
        x0 = [1.0, 10.0, 1e308]
        fields = []
        field = _ChartSystem.field

        def recorded(self, u):
            fields.append(field(self, u))
            return fields[-1]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with monkeypatch.context() as m:
                m.setattr(_ChartSystem, "field", recorded)
                rec = integrate_direct(kmk_spec, H, x0, 1.0, 400)
            monkeypatch.setattr(_ChartSystem, "field", _dense_field)
            dense = integrate_direct(kmk_spec, H, x0, 1.0, 400)
        assert rec.num_records == 110 and rec.domain_exit and dense.domain_exit
        assert np.isfinite(rec.states).all()
        assert any(np.isinf(f).any() for f in fields)
        for a, b in zip(_arrays(rec), _arrays(dense)):
            assert a.tobytes() == b.tobytes()

    def test_newton_failure_raises(self):
        spec = constant_symplectic(1, 2)
        H = HamiltonianField(
            value=lambda x: float(np.sum(x**4)), gradient=lambda x: 4.0 * x**3
        )
        with pytest.raises(MaxNewtonIterationsError):
            integrate_direct(spec, H, [1.0, 0.5], 50.0, 3, method="implicit-midpoint")
        with pytest.raises(MaxNewtonIterationsError):
            integrate_canonical(spec, H, [1.0, 0.5], 50.0, 3)

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

    def test_time_grid_overflow_rejected(self, kmk_spec):
        """dt = 1e308 is finite, but three steps would put inf on the time
        grid; one step stays on it."""
        cases = [
            (kmk_spec, linear_hamiltonian([1.0, 1.0, 1.0]), [1.0, 1.0, 1.0]),
            (constant_symplectic(0, 3), quadratic_hamiltonian([1.0, 1.0, 1.0]), [0.1, 0.2, 0.3]),
        ]
        for spec, H, x0 in cases:
            for integrate in (integrate_direct, integrate_canonical):
                with pytest.raises(ValueError, match=r"dt \* steps must be finite"):
                    integrate(spec, H, x0, 1e308, 3)
                record = integrate(spec, H, x0, 1e308, 1)
                np.testing.assert_array_equal(record.times, [0.0, 1e308])
                np.testing.assert_array_equal(record.states, [x0, x0])


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


    def test_one_template_matches_per_value_format(self, kmk_spec):
        states = np.array(
            [
                [1.0, 1.2, 0.8],
                [math.nan, math.inf, -math.inf],
                [-0.0, 5e-324, 1e308],
                [0.1, -2.2250738585072014e-308, 1.0 / 3.0],
            ]
        )
        record = dynamics.TrajectoryRecord(
            spec=kmk_spec,
            times=np.array([0.0, 1e-3, -0.0, 2.5e-310]),
            states=states,
            energy_drift=np.array([0.0, math.nan, -math.inf, 1e308]),
            casimir_drift=np.array([[0.0], [-0.0], [math.inf], [5e-324]]),
        )
        reference = [dynamics.trajectory_csv_header(3, 2)]
        for k in range(record.num_records):
            values = [record.times[k], *states[k], record.energy_drift[k]]
            values += list(record.casimir_drift[k])
            reference.append(",".join(format(v, ".17g") for v in values))
        text = trajectory_to_csv(record)
        assert text == "\n".join(reference) + "\n"
        assert "nan" in text and "-inf" in text and "-0," in text and "e-324" in text


@pytest.mark.parametrize(
    "integrate",
    [
        partial(integrate_direct, method="rk4"),
        partial(integrate_direct, method="implicit-midpoint"),
        integrate_canonical,
    ],
)
def test_loop_thins_records_by_stride(monkeypatch, kmk_spec, integrate):
    """With 10 dense records, 25 steps record every third state and the
    last: times k dt for k = 0, 3, ..., 24, 25, and the dense run's rows."""
    H = quadratic_hamiltonian([1.0, 2.0, 0.5])
    x0, dt = [1.0, 1.2, 0.8], 1e-2
    dense = integrate(kmk_spec, H, x0, dt, 25)
    monkeypatch.setattr(dynamics, "MAX_DENSE_RECORDS", 10)
    thinned = integrate(kmk_spec, H, x0, dt, 25)
    ks = [*range(0, 25, 3), 25]
    assert dense.num_records == 26 and not thinned.domain_exit
    np.testing.assert_array_equal(thinned.times, [k * dt for k in ks])
    np.testing.assert_array_equal(thinned.states, dense.states[ks])
    np.testing.assert_array_equal(thinned.energy_drift, dense.energy_drift[ks])
    np.testing.assert_array_equal(thinned.casimir_drift, dense.casimir_drift[ks])


def test_record_stride_thinning():
    assert _record_stride(10) == 1
    assert _record_stride(1_000_000) == 1
    assert _record_stride(2_000_000) == 2
    assert _record_stride(10_000_001) == 11
