from __future__ import annotations

import itertools

import numpy as np
import pytest
from specgen import random_spec, spec_suite

import poissonkit.structure
from poissonkit import (
    Affine,
    BoxDomain,
    Constant,
    EmptyDomainSampleError,
    Exponential,
    IndexOutOfRangeError,
    JacobiReport,
    Linear,
    OutOfDomainError,
    Power,
    build_spec,
    counterexample_field,
    constant_symplectic,
    fd_structure_field,
    generic_field,
    jacobi_residual,
    jacobi_sweep,
    kernel_check,
    rank_at,
    structure_field,
    structure_partials,
    toda,
)
from poissonkit.verify import _contraction, _residual_tensor


def test_constant_field_residual_zero():
    spec = constant_symplectic(1, 3)
    field = structure_field(spec)
    x = np.array([0.3, -0.2, 0.5])
    for i, j, k in [(1, 2, 3), (3, 1, 2)]:
        assert jacobi_residual(field, x, i, j, k) == 0.0


def test_counterexample_residual_hand_value():
    field = counterexample_field()
    assert jacobi_residual(field, [2.0, 1.0, 1.0], 1, 2, 3) == pytest.approx(
        -2.0, abs=1e-9
    )
    # residual equals -x1 wherever it is evaluated
    assert jacobi_residual(field, [1.7, 0.6, 0.9], 1, 2, 3) == pytest.approx(
        -1.7, abs=1e-9
    )


def test_residual_index_validation(kmk_spec):
    field = structure_field(kmk_spec)
    with pytest.raises(IndexOutOfRangeError):
        jacobi_residual(field, [1.0, 1.0, 1.0], 0, 1, 2)
    with pytest.raises(OutOfDomainError):
        jacobi_residual(field, [-1.0, 1.0, 1.0], 1, 2, 3)


def test_kmk_sweep_passes(kmk_spec):
    report = jacobi_sweep(structure_field(kmk_spec), 50, seed=1, tolerance=1e-9)
    assert report.passed
    assert report.num_triples == 1
    assert report.max_abs_residual <= 1e-12


def test_generic_field_evaluates_blocks_row_by_row():
    field = counterexample_field()
    X = field.domain.halton_points(7, seed=5)
    stack = field.evaluate(X)
    assert stack.shape == (7, 3, 3)
    np.testing.assert_array_equal(stack, np.array([field.evaluate(x) for x in X]))


def test_counterexample_sweep_fails():
    report = jacobi_sweep(counterexample_field(), 30, seed=4, tolerance=1e-7)
    assert not report.passed
    assert report.argmax_triple == (1, 2, 3)
    # the sample box keeps x1 > 1.25 so the violation is macroscopic
    assert report.max_abs_residual >= 1.0


def test_rank_zero_spec_sweep_exactly_zero():
    spec = constant_symplectic(0, 4)
    report = jacobi_sweep(structure_field(spec), 10, seed=0)
    assert report.passed
    assert report.max_abs_residual == 0.0


def test_sweep_two_dimensional_has_no_triples():
    spec = constant_symplectic(1, 2)
    report = jacobi_sweep(structure_field(spec), 5, seed=0)
    assert report.passed
    assert report.num_triples == 0


def test_sweep_deterministic_and_thread_invariant(toda3_spec):
    field = structure_field(toda3_spec)
    a = jacobi_sweep(field, 40, seed=9)
    b = jacobi_sweep(field, 40, seed=9)
    assert a == b


def test_sweep_unbounded_needs_sample_box():
    field = generic_field(
        3, lambda x: np.zeros((3, 3)), BoxDomain.unbounded(3)
    )
    with pytest.raises(EmptyDomainSampleError):
        jacobi_sweep(field, 5, seed=0)
    boxed = BoxDomain([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    report = jacobi_sweep(field, 5, seed=0, sample_box=boxed)
    assert report.passed


def test_fd_partials_agree_with_analytic(rng):
    for _ in range(3):
        spec = random_spec(rng, 5, 4)
        analytic = structure_field(spec)
        oracle = fd_structure_field(spec)
        for x in spec.domain.halton_points(5, seed=8):
            Ra = _residual_tensor(analytic.evaluate(x), analytic.partials(x))
            Rf = _residual_tensor(oracle.evaluate(x), oracle.partials(x))
            assert float(np.max(np.abs(Ra - Rf))) <= 1e-4


def test_kernel_check_examples(kmk_spec, toda3_spec, rng):
    assert kernel_check(kmk_spec, [2.0, 3.0, 1.0]) <= 1e-14
    for x in toda3_spec.domain.halton_points(10, seed=3):
        assert kernel_check(toda3_spec, x) <= 1e-14
    full_rank = constant_symplectic(2, 4)
    assert kernel_check(full_rank, [0.1, 0.2, 0.3, 0.4]) == 0.0


def test_rank_at_examples(kmk_spec, toda3_spec):
    assert rank_at(structure_field(kmk_spec), [2.0, 3.0, 1.0]) == 2
    assert rank_at(structure_field(constant_symplectic(0, 3)), [0.0, 0.0, 0.1]) == 0
    f = structure_field(toda3_spec)
    for x in toda3_spec.domain.halton_points(10, seed=6):
        assert rank_at(f, x) == 4


def test_rank_constant_across_domain(rng):
    spec = random_spec(rng, 7, 4)
    f = structure_field(spec)
    ranks = {rank_at(f, x) for x in spec.domain.halton_points(20, seed=7)}
    assert ranks == {4}


def test_toda_rank_matches_lattice_size():
    spec = toda(4)
    f = structure_field(spec)
    for x in spec.domain.halton_points(5, seed=2):
        assert rank_at(f, x) == 6


# ---------------------------------------------------------------------------
# the factored sweep against the partials tensor
# ---------------------------------------------------------------------------

def _mixed_spec(seed: int = 3):
    """n=32, r=30 on (0.5, 1.5)^32: B = I plus 0/1 strictly upper entries at
    density 0.15, factors cycling through the five built-in kinds, so every
    projected interval is positive."""
    rng = np.random.default_rng(seed)
    n, r = 32, 30
    B = np.eye(n) + np.triu(rng.random((n, n)) < 0.15, 1)
    kinds = (
        lambda: Linear(rng.uniform(0.5, 2.0)),
        lambda: Affine(rng.uniform(0.5, 2.0), rng.uniform(0.1, 1.0)),
        lambda: Exponential(rng.uniform(0.5, 2.0), rng.uniform(-0.3, 0.3)),
        lambda: Power(rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5)),
        lambda: Constant(rng.uniform(0.5, 2.0)),
    )
    factors = [kinds[q % 5]() for q in range(r)]
    return build_spec(n, r, B, factors, BoxDomain([0.5] * n, [1.5] * n))


def _oracle_specs():
    return spec_suite(31, 24) + [_mixed_spec()]


def test_factored_contraction_matches_partials_tensor():
    for spec in _oracle_specs():
        n = spec.n
        X = spec.domain.halton_points(4, seed=2)
        structures, terms = structure_field(spec).jacobi_terms(X)
        for x, J, (C, dJ_max) in zip(X, structures, terms):
            T = structure_partials(spec, x)
            R = C.reshape(n, n, n)
            R = R + R.transpose(1, 2, 0) + R.transpose(2, 0, 1)
            scale = 1.0 + float(np.max(np.abs(J))) * float(np.max(np.abs(T)))
            # The residual of a genuine structure is round-off, so C itself
            # is compared too.
            assert float(np.max(np.abs(C - _contraction(J, T)))) <= 1e-12 * scale
            assert float(np.max(np.abs(R - _residual_tensor(J, T)))) <= 1e-12 * scale
            assert dJ_max == pytest.approx(float(np.max(np.abs(T))), rel=1e-14, abs=0.0)


def _reference_sweep(field, num_points: int, seed: int) -> JacobiReport:
    """jacobi_sweep spelled out: the field's own partials tensor at each
    point, the residual tensor, and the triples in combinations order."""
    n = field.n
    triples = list(itertools.combinations(range(n), 3))
    max_abs = max_norm = 0.0
    argmax_triple = argmax_point = None
    for x in field.domain.halton_points(num_points, seed):
        if not triples:
            break
        J = field.evaluate(x)
        T = field.partials(x)
        R = _residual_tensor(J, T)
        worst, triple = max(((abs(R[t]), t) for t in triples), key=lambda item: item[0])
        scale = 1.0 + float(np.max(np.abs(J))) * float(np.max(np.abs(T)))
        max_norm = max(max_norm, worst / scale)
        if argmax_triple is None or worst > max_abs:
            argmax_triple = tuple(t + 1 for t in triple)
            argmax_point = tuple(float(v) for v in x)
        max_abs = max(max_abs, worst)
    return JacobiReport(
        dimension=n,
        num_points=num_points,
        num_triples=len(triples),
        tolerance=1e-7,
        max_abs_residual=float(max_abs),
        max_normalized_residual=float(max_norm),
        argmax_triple=argmax_triple,
        argmax_point=argmax_point,
        passed=bool(max_norm <= 1e-7),
    )


def test_factored_sweep_matches_partials_reference():
    for spec in spec_suite(32, 12) + [_mixed_spec(4)]:
        field = structure_field(spec)
        report = jacobi_sweep(field, 6, seed=3)
        reference = _reference_sweep(field, 6, seed=3)
        scale = max(
            1.0 + float(np.max(np.abs(field.evaluate(x)))) * float(np.max(np.abs(field.partials(x))))
            for x in spec.domain.halton_points(6, seed=3)
        )
        assert report.passed == reference.passed
        assert report.num_triples == reference.num_triples
        assert abs(report.max_abs_residual - reference.max_abs_residual) <= 1e-12 * scale
        assert abs(report.max_normalized_residual - reference.max_normalized_residual) <= 1e-12


def test_fd_field_sweep_equals_reference_loop():
    rng = np.random.default_rng(5)
    for n, r in [(3, 2), (5, 4), (6, 2)]:
        field = fd_structure_field(random_spec(rng, n, r))
        assert field.contract is None
        assert jacobi_sweep(field, 6, seed=7) == _reference_sweep(field, 6, seed=7)


@pytest.mark.parametrize("block_floats", [1, 3000, 1 << 20])
def test_factored_sweep_independent_of_block_size(monkeypatch, block_floats):
    specs = spec_suite(33, 8) + [_mixed_spec(5)]
    whole = [jacobi_sweep(structure_field(spec), 20, seed=4) for spec in specs]
    monkeypatch.setattr(poissonkit.structure, "BLOCK_FLOATS", block_floats)
    assert [jacobi_sweep(structure_field(spec), 20, seed=4) for spec in specs] == whole


def test_factored_sweep_rank_zero_and_dimension_two(rng):
    for n in (3, 5, 8):
        report = jacobi_sweep(structure_field(random_spec(rng, n, 0)), 10, seed=1)
        assert report.max_abs_residual == 0.0
        assert report.max_normalized_residual == 0.0
        assert report.passed
    for r in (0, 2):
        report = jacobi_sweep(structure_field(random_spec(rng, 2, r)), 10, seed=1)
        assert report.num_triples == 0
        assert report.argmax_triple is None
        assert report.max_abs_residual == 0.0
