"""Exact and high-precision oracles for the factored structure kernel.

sympy checks, with symbolic factors phi_i and random rational B, that the
factored form J = U - U^T, U = A_odd diag(phi_odd phi_even) A_even^T,
equals the minor-sum definition and satisfies the Jacobi identity
exactly.  mpmath evaluates J and its partials at 50 digits for concrete
factors and checks the float kernel against them, and, from the same
minor sum, the integrator's field on the chart coordinates u and its
Newton matrix on both stages, which the integrator forms without J; and
the chart formulas F and F^{-1} of the affine, exponential and power
kinds, near their degenerate parameters and at their overflow edges.
"""

from __future__ import annotations

import itertools
import random
import warnings

import mpmath
import numpy as np
import pytest
import sympy as sp

from specgen import dimension_rank_pairs, random_spec, residual_tensor

from poissonkit import (
    Affine,
    BoxDomain,
    Exponential,
    Linear,
    Power,
    build_spec,
    darboux_chart,
    evaluate_structure,
    kermack_mckendrick,
    quadratic_hamiltonian,
    structure_partials,
    toda,
    vector_field,
)
from poissonkit.darboux import canonical_matrix
from poissonkit.dynamics import _ChartSystem, _Identity, _Quadrature


def _rational_matrix(rng: random.Random, n: int) -> sp.Matrix:
    while True:
        B = sp.Matrix(n, n, lambda i, j: sp.Rational(rng.randint(-3, 3), rng.randint(1, 3)))
        if B.det() != 0:
            return B


def _symbolic_structures(n: int, r: int, seed: int):
    """(factored J, minor-sum J, y symbols, B) with phi_i = phi_i(y_i)."""
    B = _rational_matrix(random.Random(seed), n)
    A = B.inv()
    y = sp.symbols(f"y1:{n + 1}")
    phi = [sp.Function(f"phi{q + 1}")(y[q]) for q in range(r)]
    products = [phi[2 * p] * phi[2 * p + 1] for p in range(r // 2)]
    A_odd = A[:, 0:r:2]
    A_even = A[:, 1:r:2]
    U = A_odd * sp.diag(*products) * A_even.T
    factored = U - U.T
    minor_sum = sp.Matrix(
        n,
        n,
        lambda i, j: sum(
            (A[i, 2 * p] * A[j, 2 * p + 1] - A[i, 2 * p + 1] * A[j, 2 * p]) * products[p]
            for p in range(r // 2)
        ),
    )
    return factored, minor_sum, y, B


@pytest.mark.parametrize("n,r,seed", [(4, 4, 1), (5, 4, 2)])
def test_factored_form_is_minor_sum_and_satisfies_jacobi(n, r, seed):
    J, minor_sum, y, B = _symbolic_structures(n, r, seed)
    assert sp.expand(J - minor_sum) == sp.zeros(n, n)

    # d/dx_l = sum_q B[q, l] d/dy_q, since y = B x.
    dJ_dy = [J.diff(yq) for yq in y]

    def partial(j, k, l):
        return sum(B[q, l] * dJ_dy[q][j, k] for q in range(n))

    for i, j, k in itertools.combinations(range(n), 3):
        residual = sum(
            J[i, l] * partial(j, k, l) + J[j, l] * partial(k, i, l) + J[k, l] * partial(i, j, l)
            for l in range(n)
        )
        assert sp.expand(residual) == 0, (i, j, k)


# -- 50-digit spot checks -----------------------------------------------------

MP_FACTORS = (
    (Linear(1.5), lambda t: mpmath.mpf("1.5") * t),
    (Affine(0.5, 0.25), lambda t: mpmath.mpf("0.5") * t + mpmath.mpf("0.25")),
    (Exponential(2.0, -0.25), lambda t: 2 * mpmath.exp(mpmath.mpf("-0.25") * t)),
    (Power(0.75, 1.5), lambda t: mpmath.mpf("0.75") * t ** mpmath.mpf("1.5")),
)


def _mp_structure(B, factors, x):
    """J(x) and its partials T[i, j, l] by the minor-sum definition and the
    chain rule, in mpmath at the working precision; factor derivatives by
    numerical differentiation."""
    n = B.rows
    A = B**-1
    y = B * mpmath.matrix(x)
    phi = [fn(y[q]) for q, fn in enumerate(factors)]
    dphi = [mpmath.diff(fn, y[q]) for q, fn in enumerate(factors)]
    J = np.empty((n, n), dtype=object)
    T = np.empty((n, n, n), dtype=object)
    for i, j in itertools.product(range(n), repeat=2):
        J[i, j] = mpmath.mpf(0)
        T[i, j, :] = [mpmath.mpf(0)] * n
        for p in range(len(factors) // 2):
            a, b = 2 * p, 2 * p + 1
            minor = A[i, a] * A[j, b] - A[i, b] * A[j, a]
            J[i, j] += minor * phi[a] * phi[b]
            for l in range(n):
                T[i, j, l] += minor * (dphi[a] * phi[b] * B[a, l] + phi[a] * dphi[b] * B[b, l])
    return J, T


def test_float_kernel_matches_50_digit_reference():
    n = 5
    B_rows = [
        [1, 0, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [0, 0, 1, 0, 1],
        [0, 0, 0, 1, 0],
        [1, 1, 1, 1, 2],
    ]
    spec = build_spec(
        n,
        4,
        np.array(B_rows, dtype=float),
        tuple(f for f, _ in MP_FACTORS),
        BoxDomain(np.full(n, 0.5), np.full(n, 1.5)),
    )
    to_float = np.vectorize(float)
    with mpmath.workdps(50):
        B = mpmath.matrix(B_rows)
        fns = [fn for _, fn in MP_FACTORS]
        for x in spec.domain.halton_points(4, seed=11):
            J_mp, T_mp = _mp_structure(B, fns, [mpmath.mpf(float(v)) for v in x])
            J_ref, T_ref = to_float(J_mp), to_float(T_mp)
            J = evaluate_structure(spec, x)
            T = structure_partials(spec, x)
            J_scale = float(np.max(np.abs(J_ref)))
            T_scale = float(np.max(np.abs(T_ref)))
            assert np.max(np.abs(J - J_ref)) <= 1e-14 * J_scale
            assert np.max(np.abs(T - T_ref)) <= 1e-14 * T_scale
            # The float Jacobi residual is round-off against |J| |dJ|.
            assert np.max(np.abs(residual_tensor(J, T))) <= 1e-13 * J_scale * T_scale


def _mp_factor(f):
    """The mpmath function of a built-in factor, from its parameters."""
    p = {k: mpmath.mpf(v) for k, v in f.params().items()}
    return {
        "constant": lambda t: p["c"] + 0 * t,
        "linear": lambda t: p["slope"] * t,
        "affine": lambda t: p["slope"] * t + p["intercept"],
        "exponential": lambda t: p["amplitude"] * mpmath.exp(p["rate"] * t),
        "power": lambda t: p["coefficient"] * t ** p["exponent"],
    }[f.kind]


def _mp_chart_field(B, fns, weights, tail, scaled):
    """The field on u as a function of y_{1..r}, in mpmath from the
    minor-sum J, with y = (y_{1..r}, tail) and x = A y: the linear-chart
    field (B J grad H)_{1..r} for H = sum_l weights_l x_l^2 / 2, divided
    by phi(y) when ``scaled`` (on the quadrature chart dz/dt =
    diag(1/phi) dy/dt).  Takes and returns mpmath column matrices."""
    n, r = B.rows, len(fns)
    A = B**-1

    def field(y_r):
        y = mpmath.matrix(list(y_r) + list(tail))
        x = A * y
        phi = [fn(y[q]) for q, fn in enumerate(fns)]
        Jg = mpmath.matrix(n, 1)
        for i, j in itertools.product(range(n), repeat=2):
            for p in range(r // 2):
                a, b = 2 * p, 2 * p + 1
                minor = A[i, a] * A[j, b] - A[i, b] * A[j, a]
                Jg[i] += minor * phi[a] * phi[b] * weights[j] * x[j]
        f = B * Jg
        return mpmath.matrix([f[a] / phi[a] if scaled else f[a] for a in range(r)])

    return field


@pytest.mark.parametrize("route", ["direct", "canonical"])
def test_chart_system_matches_50_digit_minor_sum(route):
    """The one chart system on either stage, at 50 digits, at the y its
    stage reached: the field against the minor-sum field on u,
    (B J grad H)_{1..r} on the identity stage and the same divided by phi
    on the quadrature stage; the Newton matrix against mpmath
    differentiation in y of that field, times dy/du (1, or phi on the
    quadrature chart).  The bounds are relative to the same products
    taken over absolute values, which bound their rounding error.  At
    r = 0 u is empty and the x-space field vector_field is exactly 0."""
    to_float = np.vectorize(float)
    spec_rng = np.random.default_rng(67)
    specs = [random_spec(spec_rng, n, r) for n, r in dimension_rank_pairs()]
    rng = np.random.default_rng(71)
    for spec in specs + [kermack_mckendrick(1.0, 1.0, 1.0), toda(3)]:
        n, r = spec.n, spec.r
        weights = rng.uniform(0.5, 2.0, size=n)
        H = quadratic_hamiltonian(weights)
        chart = darboux_chart(spec)
        A_r, K = spec.A[:, :r], canonical_matrix(r, r)
        with mpmath.workdps(50):
            B = mpmath.matrix(spec.B.tolist())
            fns = [_mp_factor(f) for f in spec.factors]
            weights_mp = [mpmath.mpf(float(c)) for c in weights]
            for x in spec.domain.halton_points(3, seed=13):
                if route == "direct":
                    system = _ChartSystem(spec, H, _Identity(spec), x)
                    u = system.y0
                else:
                    system = _ChartSystem(spec, H, _Quadrature(chart.quadrature), x)
                    u = chart.forward(x)[:r]
                field, newton = system(u)
                newton = newton()
                if r == 0:
                    assert field.shape == (0,) and newton.shape == (0, 0)
                    assert not vector_field(spec, H, x).any()
                    continue
                y = [mpmath.mpf(float(v)) for v in system.stage.y(u)]
                tail = (B * mpmath.matrix([mpmath.mpf(float(v)) for v in x]))[r:]
                reference = _mp_chart_field(B, fns, weights_mp, tail, route == "canonical")
                phi = to_float(np.array([fn(t) for fn, t in zip(fns, y)], dtype=object))
                sigma = np.ones(r) if route == "direct" else phi
                columns = [
                    mpmath.diff(lambda t: reference([v + t * (a == b) for a, v in enumerate(y)]), 0)
                    for b in range(r)
                ]
                newton_ref = to_float(np.array([list(c) for c in columns], dtype=object).T) * sigma
                field_ref = to_float(np.array(list(reference(y)), dtype=object))
                # Rounding scales: |K| (|rho| |c|) and its Newton counterpart,
                # |K| (|d rho / d u| |c| + |rho| |A_r|^T Hess H |A_r| |sigma|).
                phi_abs = np.abs(phi)
                dphi_abs = np.abs([float(mpmath.diff(fn, t)) for fn, t in zip(fns, y)])
                if route == "direct":  # rho = phi_a phi_b, slopes phi'_a phi_b, phi_a phi'_b
                    partner = phi_abs[np.arange(r) ^ 1]
                    pairs = np.kron(np.eye(r // 2), np.ones((2, 2)))
                    rho, slopes = phi_abs * partner, pairs * (dphi_abs * partner)
                else:  # rho = phi, slope phi'_a phi_a on the diagonal
                    rho, slopes = phi_abs, np.diag(dphi_abs * phi_abs)
                c_abs = np.abs(A_r).T @ np.abs(weights * x)
                curvature = np.abs(A_r).T @ (weights[:, None] * np.abs(A_r))
                field_scale = float(np.max(np.abs(K) @ (rho * c_abs)))
                newton_scale = float(np.max(np.abs(K) @ (
                    slopes * c_abs[:, None] + rho[:, None] * curvature * np.abs(sigma)
                )))
                assert np.max(np.abs(field - field_ref)) <= 1e-14 * field_scale
                assert np.max(np.abs(newton - newton_ref)) <= 1e-14 * newton_scale


def _mp_chart(f):
    """F(y; a) and F^{-1}(z; a) of an affine, exponential or power factor
    in mpmath, by the plain closed forms: at 50 digits a difference of
    nearly equal terms still keeps 35."""
    p = [mpmath.mpf(v) for v in f.params().values()]
    if f.kind == "affine":
        s, b = p
        return (
            lambda y, a: mpmath.log((s * y + b) / (s * a + b)) / s,
            lambda z, a: ((s * a + b) * mpmath.exp(s * z) - b) / s,
        )
    if f.kind == "exponential":
        amp, rate = p
        return (
            lambda y, a: (mpmath.exp(-rate * a) - mpmath.exp(-rate * y)) / (amp * rate),
            lambda z, a: -mpmath.log(mpmath.exp(-rate * a) - amp * rate * z) / rate,
        )
    c, q = p[0], 1 - p[1]
    return (
        lambda y, a: (y**q - a**q) / (c * q),
        lambda z, a: (a**q + c * q * z) ** (1 / q),
    )


#: Parameters near the degenerate ones (exponent 1, rate 0, slope 0), at
#: offsets 1e-2 .. 1e-15 on either side, and ordinary ones.
OFFSETS = [s * 10.0**-k for k in range(2, 16) for s in (1, -1)] + [0.5, -0.7, 2.0]
CHART_FACTORS = (
    [Power(1.3, 1.0 + d) for d in OFFSETS]
    + [Exponential(0.8, d) for d in OFFSETS]
    + [Affine(d, 1.0) for d in OFFSETS]
)


@pytest.mark.parametrize("kind", ["affine", "exponential", "power"])
def test_chart_formulas_match_50_digits(kind):
    """F and F^{-1} of each kind within 4 eps times their conditioning,
    against the plain closed forms at 50 digits, with parameters from
    ordinary ones to within 1e-15 of the degenerate value, where the
    plain forms in binary64 lose every digit.  F's relative conditioning
    in y and in the anchor a is |y / (phi(y) F)| + |a / (phi(a) F)|;
    F^{-1}'s, at z = F(y) rounded, |z phi(y) / y| + |a phi(y) / (phi(a) y)|."""
    eps = np.finfo(float).eps
    factors = [f for f in CHART_FACTORS if f.kind == kind]
    with mpmath.workdps(50):
        for f in factors:
            F, F_inv = _mp_chart(f)
            phi = _mp_factor(f)
            lo, hi = f.validity
            for y, a in ((2.0, 1.0), (1.001, 1.0), (0.6, 1.7)):
                if not (lo < min(y, a) and max(y, a) < hi):
                    continue
                exact = F(mpmath.mpf(y), mpmath.mpf(a))
                cond = 1 + abs(y / (phi(y) * exact)) + abs(a / (phi(a) * exact))
                got = f.reciprocal_antiderivative(y, a)
                assert abs((got - exact) / exact) <= 4 * eps * cond, (f, y, a)
                z = float(exact)
                preimage = F_inv(mpmath.mpf(z), mpmath.mpf(a))
                ratio = phi(preimage) / preimage
                cond = 1 + abs(z * ratio) + abs(a * ratio / phi(a))
                got = f.invert_antiderivative(z, a)
                assert abs((got - preimage) / preimage) <= 4 * eps * cond, (f, y, a)


#: Ends where the cancellation-free form would overflow, underflow or
#: lose its argument, so the plain closed form is taken: (factor, y, a).
CHART_EDGES = [
    (Affine(1e-12, 1e300), 1.7e308, -1.7e308),  # y - a overflows
    (Affine(1e-12, 1e300), -1.7e308, 1.7e308),
    (Affine(1.0, 0.0), 1e-10, 1e10),  # log1p's argument rounds to -1
    (Exponential(1.0, 1.0), 10.0, 800.0),  # exp(-rate a) underflows
    (Exponential(1.0, 1e-3), -1e-10, 1e10),  # and expm1 overflows
    (Power(1.0, 0.5), 1e300, 1e-10),  # y / a overflows
    (Power(1.0, 1.5), 1e-10, 1e300),
]


@pytest.mark.parametrize("f,y,a", CHART_EDGES)
def test_chart_formulas_at_overflow_edges(f, y, a):
    """F within 1e-12 of the 50-digit value and F^{-1}(F(y)) within
    1e-12 (|y| + |z phi(y)|) of y, with no RuntimeWarning."""
    with mpmath.workdps(50):
        exact = _mp_chart(f)[0](mpmath.mpf(y), mpmath.mpf(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = f.reciprocal_antiderivative(y, a)
        back = f.invert_antiderivative(z, a)
    assert abs((z - exact) / exact) <= 1e-12
    assert abs(back - y) <= 1e-12 * (abs(y) + abs(z * f.value(y)))
