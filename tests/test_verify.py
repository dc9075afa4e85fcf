from __future__ import annotations

import functools
import gc
import itertools
import json
import math
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from specgen import (
    dimension_rank_pairs,
    pair_minor_table,
    random_spec,
    residual_tensor,
    spec_suite,
)

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
    kermack_mckendrick,
    kernel_check,
    rank_at,
    structure_field,
    structure_partials,
    toda,
)
from poissonkit.cli import run_darboux, run_verify
from poissonkit.config import parse_config
from poissonkit.structure import structure_slopes
from poissonkit.verify import _contraction

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import WORKLOADS  # noqa: E402


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
    def zero(x):
        return np.zeros((3, 3))

    field = generic_field(3, zero, BoxDomain.unbounded(3))
    with pytest.raises(EmptyDomainSampleError):
        jacobi_sweep(field, 5, seed=0)
    boxed = generic_field(3, zero, BoxDomain.unbounded(3, [0.0] * 3, [1.0] * 3))
    report = jacobi_sweep(boxed, 5, seed=0)
    assert report.passed


def test_generic_sweep_fails_at_a_non_finite_point():
    """A point whose residual is not finite is never skipped: the sweep
    fails with both maxima nan and the argmax at the first such point."""
    box = BoxDomain.unbounded(3, [0.5] * 3, [1.5] * 3)
    everywhere = generic_field(3, lambda x: np.full((3, 3), np.nan), box)
    report = jacobi_sweep(everywhere, 10)
    assert not report.passed
    assert math.isnan(report.max_abs_residual) and math.isnan(report.max_normalized_residual)
    assert report.argmax_point == tuple(box.halton_points(10, 0)[0])

    def late(x):
        return np.full((3, 3), np.nan) if x[0] > 1.2 else np.zeros((3, 3))

    points = box.halton_points(10, 0)
    first = next(p for p in points if p[0] > 1.2)
    assert points[0][0] < 1.2
    report = jacobi_sweep(generic_field(3, late, box), 10)
    assert not report.passed and math.isnan(report.max_abs_residual)
    assert report.argmax_point == tuple(first)


def test_generic_sweep_overflowing_scale_passes():
    """Finite residuals and max|dJ| pass even where max|J| max|dJ|
    overflows: the normalized residual is 0, not a failure."""
    box = BoxDomain.unbounded(3, [0.5] * 3, [1.5] * 3)

    def evaluate(x):
        a, b = 1e160, 1e160 * x[2]
        return np.array([[0.0, a, b], [-a, 0.0, 0.0], [-b, 0.0, 0.0]])

    report = jacobi_sweep(generic_field(3, evaluate, box), 10)
    assert report.passed
    assert (report.max_abs_residual, report.max_normalized_residual) == (0.0, 0.0)


def _scaled_spec(spec, scale: float):
    """The spec in the coordinates x' = scale * x: B / scale on scale times
    the box (and the sample box), so that J scales by scale**2."""
    d = spec.domain
    sample = () if d.sample_lower is None else (scale * d.sample_lower, scale * d.sample_upper)
    domain = BoxDomain(scale * d.lower, scale * d.upper, *sample)
    return build_spec(spec.n, spec.r, spec.B / scale, spec.factors, domain)


@functools.cache
def _scale_specs():
    mixed = parse_config(json.dumps(WORKLOADS["check-mixed"].config(1))).spec
    return spec_suite(40, 40) + [toda(6), kermack_mckendrick(1.0, 1.0, 1.0), mixed]


@pytest.mark.parametrize("scale", [10.0**k for k in range(-8, 9)])
def test_sweep_verdict_does_not_follow_the_scale(scale):
    """The normalized residual is unchanged when J is scaled: a field that
    breaks the Jacobi identity fails however small it is, and a genuine
    structure passes however large or small its coordinates are."""
    broken = counterexample_field()
    field = generic_field(3, lambda x: scale * broken.evaluate(x), broken.domain)
    report = jacobi_sweep(field, 20)
    assert not report.passed
    assert report.max_normalized_residual == pytest.approx(1.0, rel=1e-6)
    for spec in _scale_specs():
        report = jacobi_sweep(structure_field(_scaled_spec(spec, scale)), 20, seed=1)
        assert report.passed and report.max_normalized_residual <= 1e-14


def test_fd_partials_agree_with_analytic(rng):
    for _ in range(3):
        spec = random_spec(rng, 5, 4)
        analytic = structure_field(spec)
        oracle = fd_structure_field(spec)
        for x in spec.domain.halton_points(5, seed=8):
            Ra = residual_tensor(analytic.evaluate(x), analytic.partials(x))
            Rf = residual_tensor(oracle.evaluate(x), oracle.partials(x))
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


def _triples(n: int) -> np.ndarray:
    """All 0-based a < b < c in lexicographic order, shaped (T, 3)."""
    return np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)


def _factored_contraction(L, J, slopes) -> np.ndarray:
    """C = (J W^T) L^T over all n*n columns, L the pair minors (see
    :func:`specgen.pair_minor_table`) and W the pair-product slopes at one
    point: shape (n, n*n)."""
    return (J @ slopes.T) @ L.T


def test_factored_contraction_matches_partials_tensor():
    for spec in _oracle_specs():
        n, L = spec.n, pair_minor_table(spec)
        triples = _triples(n)
        X = spec.domain.halton_points(4, seed=2)
        structures, terms = structure_field(spec).jacobi_terms(X, triples)
        _, W = structure_slopes(spec, X)
        for x, J, slopes, (residuals, dJ_max) in zip(X, structures, W, terms):
            T = structure_partials(spec, x)
            C = _factored_contraction(L, J, slopes)
            R = C.reshape(n, n, n)
            R = R + R.transpose(1, 2, 0) + R.transpose(2, 0, 1)
            scale = 1.0 + float(np.max(np.abs(J))) * float(np.max(np.abs(T)))
            # The residual of a genuine structure is round-off, so C itself
            # is compared too; the sweep's residuals equal C's bitwise (see
            # test_half_sweep_equals_full_contraction_bitwise).
            assert float(np.max(np.abs(C - _contraction(J, T)))) <= 1e-12 * scale
            assert float(np.max(np.abs(R - residual_tensor(J, T)))) <= 1e-12 * scale
            tensor = residual_tensor(J, T)[tuple(triples.T)]
            assert float(np.max(np.abs(residuals - tensor), initial=0.0)) <= 1e-12 * scale
            assert dJ_max == pytest.approx(float(np.max(np.abs(T))), rel=1e-14, abs=0.0)


def _reference_spec_sweep(spec, num_points: int, seed: int, third: float = 1.0) -> JacobiReport:
    """jacobi_sweep of a spec field spelled out over all n*n columns of
    C = (J W^T) L^T: |C[abc] + C[cab] + third * C[bca]| at the flat
    offsets, and max |dJ| = max |L W| over all rows of L."""
    n, L = spec.n, pair_minor_table(spec)
    triples = _triples(n)
    a, b, c = triples.T
    abc, cab, bca = (a * n + b) * n + c, (c * n + a) * n + b, (b * n + c) * n + a
    points = spec.domain.halton_points(num_points, seed)
    structures, W = structure_slopes(spec, points)
    max_abs = max_norm = 0.0
    argmax_triple = argmax_point = None
    for x, J, slopes in zip(points, structures, W) if triples.size else ():
        C = _factored_contraction(L, J, slopes).ravel()
        res = np.abs(C[abc] + C[cab] + third * C[bca])
        idx = int(np.argmax(res))
        worst = float(res[idx])
        scale = float(np.max(np.abs(J))) * float(np.max(np.abs(L @ slopes)))
        max_norm = max(max_norm, worst / scale if scale else 0.0)
        if argmax_triple is None or worst > max_abs:
            argmax_triple = tuple(int(t) + 1 for t in triples[idx])
            argmax_point = tuple(float(v) for v in x)
        max_abs = max(max_abs, worst)
    return JacobiReport(
        dimension=n,
        num_points=num_points,
        num_triples=int(triples.shape[0]),
        tolerance=1e-7,
        max_abs_residual=max_abs,
        max_normalized_residual=max_norm,
        argmax_triple=argmax_triple,
        argmax_point=argmax_point,
        passed=bool(max_norm <= 1e-7),
    )


def _bitwise_specs():
    count = len(dimension_rank_pairs())
    return (
        spec_suite(34, count)
        + [_mixed_spec(6), kermack_mckendrick(1.0, 1.0, 1.0), toda(3)]
    )


@pytest.mark.parametrize("block_floats", [1, poissonkit.structure.BLOCK_FLOATS])
def test_half_sweep_equals_full_contraction_bitwise(monkeypatch, block_floats):
    monkeypatch.setattr(poissonkit.structure, "BLOCK_FLOATS", block_floats)
    for spec in _bitwise_specs():
        for seed in (1, 8):
            reference = _reference_spec_sweep(spec, 12, seed)
            assert jacobi_sweep(structure_field(spec), 12, seed=seed) == reference


def test_full_contraction_reference_sees_a_sign_error():
    assert any(
        jacobi_sweep(structure_field(spec), 12, seed=1)
        != _reference_spec_sweep(spec, 12, 1, third=-1.0)
        for spec in _bitwise_specs()
    )


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
        R = residual_tensor(J, T)
        worst, triple = max(((abs(R[t]), t) for t in triples), key=lambda item: item[0])
        scale = float(np.max(np.abs(J))) * float(np.max(np.abs(T)))
        max_norm = max(max_norm, worst / scale if scale else 0.0)
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


def test_generic_field_takes_no_skew_shortcut():
    # J21 = x3 and J31 = x1 (1-based), every other entry 0: J is not skew.
    def evaluate(x):
        J = np.zeros((3, 3))
        J[1, 0], J[2, 0] = x[2], x[0]
        return J

    field = generic_field(3, evaluate, BoxDomain([0.5] * 3, [1.5] * 3))
    assert field.contract is None
    report = jacobi_sweep(field, 6, seed=2)
    assert report == _reference_sweep(field, 6, seed=2)
    # The half formula C[a, bc] + C[c, ab] - C[b, ac] reads 0 here; the
    # residual C[b, ca] = J21 d1 J31 = x3 does not.
    for x in field.domain.halton_points(6, seed=2):
        C = _contraction(field.evaluate(x), field.partials(x)).reshape(3, 3, 3)
        assert C[0, 1, 2] + C[2, 0, 1] - C[1, 0, 2] == 0.0
    assert report.max_abs_residual >= 0.5


def test_sweep_keeps_no_state_of_the_spec():
    system = parse_config(json.dumps(WORKLOADS["check-mixed"].config(1)))
    assert run_verify(system, 50, 3)[0] == 0
    assert run_darboux(system, 100, 3)[0] == 0
    spec = weakref.ref(system.spec)
    del system
    gc.collect()
    assert spec() is None


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
