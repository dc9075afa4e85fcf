from __future__ import annotations

import functools
import math
import pickle

import numpy as np
import pytest
from specgen import pair_minor_table, random_spec, spec_suite

from poissonkit import (
    Affine,
    BoxDomain,
    Constant,
    CustomFactor,
    Exponential,
    FactorVanishesError,
    IndexOutOfRangeError,
    Linear,
    OddRankError,
    OutOfDomainError,
    PoissonKitError,
    Power,
    RankExceedsDimensionError,
    SingularMatrixError,
    build_spec,
    certify_canonical,
    darboux_chart,
    default_anchors,
    evaluate_structure,
    lambda_coefficient,
    linear_hamiltonian,
    quadratic_hamiltonian,
    structure_partials,
)

UNIT_BOX3 = BoxDomain([0.1, 0.1, 0.1], [3.0, 3.0, 3.0])


def test_build_spec_kmk_shape(kmk_spec):
    assert kmk_spec.n == 3
    assert kmk_spec.r == 2
    np.testing.assert_allclose(kmk_spec.A @ kmk_spec.B, np.eye(3), atol=1e-14)


def test_build_spec_rank_zero():
    spec = build_spec(4, 0, np.eye(4), (), BoxDomain.unbounded(4))
    x = np.array([1.0, -2.0, 0.5, 3.0])
    np.testing.assert_array_equal(evaluate_structure(spec, x), np.zeros((4, 4)))
    np.testing.assert_array_equal(structure_partials(spec, x), np.zeros((4, 4, 4)))


def test_kept_arrays_are_read_only_copies():
    """A box, a spec and the built-in Hamiltonians keep copies: writing
    to the caller's arrays afterwards moves none of them, and H's gradient
    still agrees with its Hessian."""
    lo, hi, slo, shi = np.zeros(2), np.full(2, 4.0), np.full(2, 0.5), np.full(2, 2.0)
    box = BoxDomain(lo, hi, slo, shi)
    B = np.array([[2.0, 1.0], [0.0, 1.0]])
    A = np.array([[0.5, -0.5], [0.0, 1.0]])
    spec = build_spec(2, 2, B, (Linear(1.0), Constant(1.0)), box, inverse=A)
    w, c = np.array([1.0, 2.0]), np.array([3.0, -1.0])
    H, G = quadratic_hamiltonian(w), linear_hamiltonian(c)
    for v in (lo, hi, slo, shi, B, A, w, c):
        v += 100.0
    np.testing.assert_array_equal(box.lower, [0.0, 0.0])
    np.testing.assert_array_equal(box.upper, [4.0, 4.0])
    np.testing.assert_array_equal(box.sample_lower, [0.5, 0.5])
    np.testing.assert_array_equal(box.sample_upper, [2.0, 2.0])
    assert box.contains([0.25, 3.5])
    np.testing.assert_array_equal(spec.B, [[2.0, 1.0], [0.0, 1.0]])
    np.testing.assert_array_equal(spec.A, [[0.5, -0.5], [0.0, 1.0]])
    for kept in (box.lower, box.upper, box.sample_lower, spec.B, spec.A):
        assert not kept.flags.writeable
    x = np.array([1.0, 1.0])
    np.testing.assert_array_equal(H.gradient_at(x), [1.0, 2.0])
    np.testing.assert_array_equal(H.gradient_at(x), H.hessian_at(x) @ x)
    assert H.value_at(x) == 1.5
    np.testing.assert_array_equal(G.gradient_at(x), [3.0, -1.0])
    np.testing.assert_array_equal(G.hessian_at(x), np.zeros((2, 2)))
    assert G.value_at(x) == 2.0


def test_build_spec_singular_B():
    B = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 1.0, 0.0]])
    with pytest.raises(SingularMatrixError):
        build_spec(3, 2, B, (Constant(1.0), Constant(1.0)), UNIT_BOX3)


def test_build_spec_rank_validation():
    with pytest.raises(OddRankError):
        build_spec(3, 3, np.eye(3), (Constant(1.0),) * 3, UNIT_BOX3)
    with pytest.raises(RankExceedsDimensionError):
        build_spec(3, 4, np.eye(3), (Constant(1.0),) * 4, UNIT_BOX3)
    with pytest.raises(RankExceedsDimensionError):
        build_spec(3, -2, np.eye(3), (), UNIT_BOX3)
    with pytest.raises(ValueError):
        build_spec(3, 2, np.eye(3), (Constant(1.0),), UNIT_BOX3)
    with pytest.raises(ValueError, match=r"^matrix must have shape \(3, 3\), got \(2, 2\)$"):
        build_spec(3, 2, np.eye(2), (Constant(1.0),) * 2, UNIT_BOX3)
    with pytest.raises(ValueError, match=r"^matrix must have shape \(3, 3\), got \(2, 2\)$"):
        build_spec(3, 2, np.eye(3), (Constant(1.0),) * 2, UNIT_BOX3, inverse=np.eye(2))


def test_build_spec_factor_vanishes():
    box = BoxDomain([-1.0, 0.1, 0.1], [1.0, 1.0, 1.0])
    with pytest.raises(FactorVanishesError) as err:
        build_spec(3, 2, np.eye(3), (Linear(1.0), Constant(1.0)), box)
    assert err.value.index == 1
    # the witness sits in the uncovered part of the projected interval
    assert -1.0 < err.value.witness <= 0.0


def test_build_spec_validity_ending_below_the_interval_top():
    """A validity that ends inside the projected interval is named by a
    witness between its end and the interval's top."""
    box = BoxDomain([0.5] * 3, [2.0] * 3)
    factors = (Linear(1.0, validity=(0.0, 1.0)), Linear(1.0))
    with pytest.raises(FactorVanishesError, match=r"\(0.5, 2.0\); offending point y = 1.5$"):
        build_spec(3, 2, np.eye(3), factors, box)


def test_build_spec_rejects_an_inverse_that_is_not_b_inverse():
    with pytest.raises(SingularMatrixError, match=r"max \|A.B - I\| = 1.000e\+00 exceeds 1e-10"):
        build_spec(3, 2, np.eye(3), (Constant(1.0),) * 2, UNIT_BOX3, inverse=2.0 * np.eye(3))


def test_build_spec_custom_factor_zero_found_by_sampling():
    unit_square = BoxDomain([0.0, 0.0], [1.0, 1.0])
    vanishing = CustomFactor(value_fn=lambda y: y - 0.5, derivative_fn=lambda y: 1.0)
    with pytest.raises(FactorVanishesError) as err:
        build_spec(2, 2, np.eye(2), (vanishing, Constant(1.0)), unit_square)
    assert err.value.index == 1
    assert err.value.witness == pytest.approx(0.5, abs=1e-12)


def test_lambda_identity_minor():
    spec = build_spec(3, 2, np.eye(3), (Constant(1.0), Constant(1.0)), UNIT_BOX3)
    assert lambda_coefficient(spec, 1, 2, 1, 2) == 1.0
    assert lambda_coefficient(spec, 2, 1, 1, 2) == -1.0
    assert lambda_coefficient(spec, 1, 2, 2, 1) == -1.0
    with pytest.raises(IndexOutOfRangeError):
        lambda_coefficient(spec, 0, 2, 1, 2)
    with pytest.raises(IndexOutOfRangeError):
        lambda_coefficient(spec, 1, 2, 1, 4)


def test_lambda_kmk_minor(kmk_spec):
    assert lambda_coefficient(kmk_spec, 1, 3, 1, 2) == -1.0
    assert lambda_coefficient(kmk_spec, 1, 2, 1, 2) == 1.0
    assert lambda_coefficient(kmk_spec, 2, 3, 1, 2) == 1.0


def test_lambda_antisymmetry_random(rng):
    spec = random_spec(rng, 5, 4)
    for _ in range(50):
        i, j, k, l = rng.integers(1, 6, size=4)
        v = lambda_coefficient(spec, int(i), int(j), int(k), int(l))
        assert lambda_coefficient(spec, int(j), int(i), int(k), int(l)) == -v
        assert lambda_coefficient(spec, int(i), int(j), int(l), int(k)) == -v


def test_evaluate_structure_kmk_values(kmk_spec):
    J = evaluate_structure(kmk_spec, [2.0, 3.0, 1.0])
    expected = 6.0 * np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
    np.testing.assert_allclose(J, expected, atol=1e-14)


def test_evaluate_structure_exact_skew(rng):
    for _ in range(5):
        spec = random_spec(rng, 6, 4)
        for x in spec.domain.halton_points(10, seed=2):
            J = evaluate_structure(spec, x)
            # bitwise skew-symmetry, not just approximate
            np.testing.assert_array_equal(J, -J.T)
            assert np.all(np.diag(J) == 0.0)


def test_evaluate_structure_out_of_domain(kmk_spec):
    with pytest.raises(OutOfDomainError):
        evaluate_structure(kmk_spec, [-1.0, 1.0, 1.0])


def test_partials_constant_factors_zero():
    spec = build_spec(
        3, 2, np.eye(3), (Constant(2.0), Constant(-0.5)), UNIT_BOX3
    )
    T = structure_partials(spec, [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(T, np.zeros((3, 3, 3)))


def test_partials_kmk_hand_value(kmk_spec):
    T = structure_partials(kmk_spec, [2.0, 3.0, 1.0])
    # J_12 = x1 x2, so d J_12 / d x1 = x2 = 3
    assert T[0, 1, 0] == pytest.approx(3.0, abs=1e-14)
    assert T[0, 1, 1] == pytest.approx(2.0, abs=1e-14)
    assert T[0, 1, 2] == pytest.approx(0.0, abs=1e-14)


def test_partials_match_finite_differences(rng):
    h = 1e-5
    for _ in range(4):
        n = int(rng.integers(3, 7))
        r = int(rng.integers(1, n // 2 + 1)) * 2
        spec = random_spec(rng, n, r)
        x = spec.domain.halton_points(1, seed=5)[0]
        # keep the difference stencil inside the open box
        x = 0.5 * (x + 0.5 * (spec.domain.lower + spec.domain.upper))
        T = structure_partials(spec, x)
        for l in range(n):
            xp = x.copy()
            xm = x.copy()
            xp[l] += h
            xm[l] -= h
            fd = (evaluate_structure(spec, xp) - evaluate_structure(spec, xm)) / (2 * h)
            np.testing.assert_allclose(T[:, :, l], fd, atol=1e-6)


def test_partials_skew_in_ij(rng):
    spec = random_spec(rng, 5, 4)
    x = spec.domain.halton_points(1, seed=9)[0]
    T = structure_partials(spec, x)
    np.testing.assert_array_equal(T, -T.transpose(1, 0, 2))


def test_spec_arrays_immutable(kmk_spec):
    with pytest.raises(ValueError):
        kmk_spec.B[0, 0] = 5.0
    with pytest.raises(ValueError):
        kmk_spec.A[0, 0] = 5.0


@pytest.mark.parametrize("n,r", [(3, 2), (5, 4), (6, 2), (7, 6)])
def test_block_equals_per_point_bitwise(rng, n, r):
    spec = random_spec(rng, n, r)
    X = spec.domain.halton_points(9, seed=3)
    J = evaluate_structure(spec, X)
    T = structure_partials(spec, X)
    assert J.shape == (9, n, n) and T.shape == (9, n, n, n)
    for k, x in enumerate(X):
        np.testing.assert_array_equal(J[k], evaluate_structure(spec, x))
        np.testing.assert_array_equal(T[k], structure_partials(spec, x))


def test_block_rank_zero_shapes():
    spec = build_spec(3, 0, np.eye(3), (), UNIT_BOX3)
    X = np.full((4, 3), 1.0)
    np.testing.assert_array_equal(evaluate_structure(spec, X), np.zeros((4, 3, 3)))
    np.testing.assert_array_equal(structure_partials(spec, X), np.zeros((4, 3, 3, 3)))


def test_block_domain_check_covers_every_row(kmk_spec):
    X = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, -1.0, 1.0]])
    with pytest.raises(OutOfDomainError, match=r"\[1.0, -1.0, 1.0\]"):
        evaluate_structure(kmk_spec, X)
    with pytest.raises(OutOfDomainError):
        structure_partials(kmk_spec, X)


def test_factored_form_matches_minor_sum(rng):
    spec = random_spec(rng, 6, 4)
    x = spec.domain.halton_points(1, seed=4)[0]
    y = spec.B @ x
    phi = np.array([f.value(float(v)) for f, v in zip(spec.factors, y)])
    expected = np.zeros((6, 6))
    for i in range(1, 7):
        for j in range(1, 7):
            for p in range(spec.r // 2):
                minor = lambda_coefficient(spec, i, j, 2 * p + 1, 2 * p + 2)
                expected[i - 1, j - 1] += minor * phi[2 * p] * phi[2 * p + 1]
    np.testing.assert_allclose(evaluate_structure(spec, x), expected, rtol=1e-13, atol=1e-13)


def _minor_sum_partials(spec, x) -> np.ndarray:
    """T[..., i, j, l] = sum_p L_ij^p W[..., p, l], with the pair minors L
    of :func:`specgen.pair_minor_table` and the slopes W of the pair
    products from the single factors, by the product rule through y = B x."""
    n, r, B = spec.n, spec.r, spec.B
    L = pair_minor_table(spec).reshape(n, n, r // 2)
    y = np.asarray(x) @ B.T
    phi, dphi = np.empty(y.shape[:-1] + (r,)), np.empty(y.shape[:-1] + (r,))
    for q, f in enumerate(spec.factors):
        phi[..., q], dphi[..., q] = f.value(y[..., q]), f.derivative(y[..., q])
    W = (dphi[..., 0::2] * phi[..., 1::2])[..., None] * B[0:r:2]
    W = W + (phi[..., 0::2] * dphi[..., 1::2])[..., None] * B[1:r:2]
    return np.einsum("ijp,...pl->...ijl", L, W)


@pytest.mark.parametrize("n,r", [(3, 0), (4, 2), (5, 4), (6, 6), (7, 6)])
def test_partials_match_minor_sum(rng, n, r):
    spec = random_spec(rng, n, r)
    X = spec.domain.halton_points(6, seed=5)
    expected = _minor_sum_partials(spec, X)
    scale = float(np.max(np.abs(expected), initial=0.0))
    np.testing.assert_allclose(structure_partials(spec, X), expected, rtol=0, atol=1e-14 * scale)
    for x, T in zip(X, expected):
        np.testing.assert_allclose(structure_partials(spec, x), T, rtol=0, atol=1e-14 * scale)


OPERATIONS = ("value", "derivative", "reciprocal_antiderivative", "invert_antiderivative")


def _gudermannian_factor() -> CustomFactor:
    """phi = cosh, with its closed-form antiderivative gd(y) = 2 atan(tanh(y / 2))."""
    return CustomFactor(
        value_fn=math.cosh,
        derivative_fn=math.sinh,
        antiderivative_fn=lambda y: 2.0 * math.atan(math.tanh(0.5 * y)),
    )


def _mixed_spec_with_custom():
    """n=32, r=30 on (0.5, 1.5)^32, factors cycling through the five
    built-in kinds, with a CustomFactor in column 12."""
    rng = np.random.default_rng(8)
    n, r = 32, 30
    B = np.eye(n) + np.triu(rng.random((n, n)) < 0.15, 1)
    kinds = (
        lambda: Linear(rng.uniform(0.5, 2.0)),
        lambda: Affine(rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0)),
        lambda: Exponential(rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3)),
        lambda: Power(rng.uniform(0.5, 2.0), rng.choice([-1.0, 0.5, 1.0, 2.0, 1.3])),
        lambda: Constant(rng.uniform(0.5, 2.0)),
    )
    factors = [kinds[q % 5]() for q in range(r)]
    factors[12] = _gudermannian_factor()
    return build_spec(n, r, B, factors, BoxDomain([0.5] * n, [1.5] * n))


def _pass(bank, name, y, anchors):
    """The bank's pass ``name`` at y: value and derivative by its apply,
    the chart operations by the apply of its binding at the anchors."""
    if name not in OPERATIONS[2:]:
        return bank.apply(name, y)
    y = y[..., : bank.r]
    return bank.bind(anchors).apply(name, y, np.empty(y.shape))


def _bank_cases():
    """(spec, anchors, the four passes' arguments on a block) for the
    randomized suite and the mixed spec."""
    for spec in spec_suite(41, 30) + [_mixed_spec_with_custom()]:
        anchors = np.array(default_anchors(spec))
        Y = spec.domain.halton_points(5, seed=3) @ spec.B.T
        Z = _pass(spec.bank, "reciprocal_antiderivative", Y, anchors)
        yield spec, anchors, dict(zip(OPERATIONS, (Y, Y, Y, Z)))


def test_bank_matches_single_factors_bitwise():
    for spec, anchors, args in _bank_cases():
        for name in OPERATIONS:
            anchored = name in OPERATIONS[2:]
            block = _pass(spec.bank, name, args[name], anchors)
            assert block.shape == (5, spec.r)
            for k, point in enumerate(args[name]):
                np.testing.assert_array_equal(_pass(spec.bank, name, point, anchors), block[k])
            for q, f in enumerate(spec.factors):
                method = getattr(f, name)
                column = args[name][:, q]
                a = (float(anchors[q]),) if anchored else ()
                np.testing.assert_array_equal(block[:, q], method(column, *a))
                assert block[0, q] == method(float(column[0]), *a)


def test_spec_pickles_after_a_factor_pass(kmk_spec):
    y = kmk_spec.B @ np.array([1.0, 2.0, 0.5])
    values = kmk_spec.bank.apply("value", y)
    copy = pickle.loads(pickle.dumps(kmk_spec))
    np.testing.assert_array_equal(copy.bank.apply("value", y), values)
    assert copy.factors[0].value(2.0) == kmk_spec.factors[0].value(2.0)


def test_chart_pickles_after_its_passes(kmk_spec, toda3_spec):
    """A chart holds its binding once it has made a pass; it pickles
    still, and the copy maps the same points bitwise."""
    for spec in (kmk_spec, toda3_spec):
        chart = darboux_chart(spec)
        X = spec.domain.halton_points(5, seed=2)
        Z = chart.forward(X)
        chart.inverse(Z)
        certify_canonical(chart)
        assert "quadrature" in vars(chart)
        copy = pickle.loads(pickle.dumps(chart))
        assert copy.forward(X).tobytes() == Z.tobytes()
        assert copy.inverse(Z).tobytes() == chart.inverse(Z).tobytes()
        assert copy.inverse_jacobian(Z).tobytes() == chart.inverse_jacobian(Z).tobytes()


def _first_error(calls):
    for call in calls:
        try:
            call()
        except PoissonKitError as exc:
            return exc
    raise AssertionError("no factor raised")


@pytest.mark.parametrize(
    "name,q", [(name, q) for name in OPERATIONS for q in (0, 7, 12, 29)]
)
def test_block_error_names_first_offender_like_single_factors(name, q):
    """The bank raises for the first offending factor in column order, and
    within it for the first offending point, as the single factors do."""
    spec = _mixed_spec_with_custom()
    anchors = np.array(default_anchors(spec))
    anchored = name in OPERATIONS[2:]
    Y = spec.domain.halton_points(6, seed=4) @ spec.B.T
    if name == "invert_antiderivative":
        Y = _pass(spec.bank, "reciprocal_antiderivative", Y, anchors)
    Y[3, q] = math.nan
    Y[4, q] = -math.inf
    # A later column offends at an earlier point: columns come first.
    Y[1, 29] = Y[1, 29] if q == 29 else math.inf
    calls = [
        functools.partial(getattr(f, name), Y[:, p], *((anchors[p],) if anchored else ()))
        for p, f in enumerate(spec.factors)
    ]
    expected = _first_error(calls)
    with np.errstate(all="ignore"), pytest.raises(type(expected)) as caught:
        _pass(spec.bank, name, Y, anchors)
    # An inversion error names its factor; a single factor is factor 1 of its own bank.
    assert str(caught.value) == str(expected).replace("factor 1 (", f"factor {q + 1} (", 1)
    assert "nan" in str(expected) and "np.float64" not in str(expected)
