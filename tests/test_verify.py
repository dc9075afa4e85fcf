from __future__ import annotations

import numpy as np
import pytest
from specgen import random_spec

from poissonkit import (
    BoxDomain,
    EmptyDomainSampleError,
    IndexOutOfRangeError,
    OutOfDomainError,
    counterexample_field,
    constant_symplectic,
    fd_structure_field,
    generic_field,
    jacobi_residual,
    jacobi_sweep,
    kernel_check,
    rank_at,
    structure_field,
    toda,
)
from poissonkit.verify import _residual_tensor


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
