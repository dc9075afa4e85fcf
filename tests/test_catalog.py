from __future__ import annotations

import numpy as np
import pytest

from poissonkit import (
    InvalidSizeError,
    MultiseparableSpec,
    ParameterMismatchError,
    StructureField,
    casimirs,
    catalog_entry,
    constant_symplectic,
    counterexample_field,
    evaluate_structure,
    jacobi_sweep,
    kermack_mckendrick,
    rank_at,
    structure_field,
    toda,
)
from poissonkit.catalog import CATALOG


class TestKermackMcKendrick:
    def test_structure_matches_closed_form(self, rng):
        for R, k1, k2 in [(1.0, 1.0, 1.0), (2.5, 2.0, 1.25)]:
            spec = kermack_mckendrick(R, k1, k2)
            pattern = np.array(
                [[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]
            )
            for _ in range(100):
                x = rng.uniform(0.05, 4.0, size=3)
                J = evaluate_structure(spec, x)
                np.testing.assert_allclose(
                    J, R * x[0] * x[1] * pattern, rtol=1e-13, atol=1e-15
                )

    def test_default_kappa_split(self):
        spec = kermack_mckendrick(4.0)
        slopes = [f.slope for f in spec.factors]
        assert slopes[0] * slopes[1] == pytest.approx(4.0, abs=1e-12)

    def test_default_split_accepted_at_every_magnitude(self):
        """The slopes must multiply to R relative to R: the default split
        is one rounding off R, which exceeds any absolute bound for large
        R."""
        rng = np.random.default_rng(509129)
        for R in 10.0 ** rng.uniform(-5.0, 300.0, size=2000):
            slopes = [f.slope for f in kermack_mckendrick(float(R)).factors]
            assert slopes[0] * slopes[1] == pytest.approx(R, rel=1e-15)
        kermack_mckendrick(509129.9814107553)

    def test_explicit_mismatch_rejected(self):
        with pytest.raises(ParameterMismatchError):
            kermack_mckendrick(1.0, 2.0, 3.0)
        # A mismatch far below 1e-12 in absolute terms is still a mismatch.
        with pytest.raises(ParameterMismatchError):
            kermack_mckendrick(1e-15, 1.0, 2e-15)

    def test_parameter_mismatch(self):
        with pytest.raises(ParameterMismatchError):
            kermack_mckendrick(1.0, 2.0, 1.0)
        with pytest.raises(ParameterMismatchError):
            kermack_mckendrick(-1.0)

    def test_rank_and_casimir(self, kmk_spec):
        field = structure_field(kmk_spec)
        for x in kmk_spec.domain.halton_points(20, seed=1):
            assert rank_at(field, x) == 2
        np.testing.assert_array_equal(casimirs(kmk_spec), [[1.0, 1.0, 1.0]])


class TestToda:
    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_band_pattern_exact(self, N, rng):
        spec = toda(N)
        n = 2 * N - 1
        x = np.concatenate([rng.uniform(0.2, 3.0, N - 1), rng.uniform(-2, 2, N)])
        J = evaluate_structure(spec, x)
        expected = np.zeros((n, n))
        for i in range(1, N):
            expected[i - 1, i + N - 2] = -x[i - 1]
            expected[i - 1, i + N - 1] = x[i - 1]
            expected[i + N - 2, i - 1] = x[i - 1]
            expected[i + N - 1, i - 1] = -x[i - 1]
        np.testing.assert_array_equal(J, expected)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_inverse_is_exact(self, N):
        spec = toda(N)
        n = 2 * N - 1
        assert np.array_equal(spec.A @ spec.B, np.eye(n))

    @pytest.mark.parametrize("N", [3, 4])
    def test_casimir_selects_beta_sum(self, N):
        spec = toda(N)
        np.testing.assert_array_equal(casimirs(spec), [[0] * (N - 1) + [1] * N])

    @pytest.mark.parametrize("N", [3, 4])
    def test_rank(self, N):
        spec = toda(N)
        field = structure_field(spec)
        for x in spec.domain.halton_points(10, seed=4):
            assert rank_at(field, x) == 2 * N - 2

    def test_invalid_size(self):
        with pytest.raises(InvalidSizeError):
            toda(1)


class TestConstantSymplectic:
    def test_two_dimensional_block(self):
        spec = constant_symplectic(1, 2)
        J = evaluate_structure(spec, [0.3, -0.4])
        np.testing.assert_array_equal(J, [[0.0, 1.0], [-1.0, 0.0]])

    def test_padded_block(self):
        spec = constant_symplectic(1, 3)
        J = evaluate_structure(spec, [0.1, 0.2, 0.3])
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0
        expected[1, 0] = -1.0
        np.testing.assert_array_equal(J, expected)

    @pytest.mark.parametrize("s, n", [(1, 2), (1, 3), (2, 5), (0, 3)])
    def test_rank_and_casimirs(self, s, n):
        spec = constant_symplectic(s, n)
        field = structure_field(spec)
        for x in spec.domain.halton_points(10, seed=1):
            assert rank_at(field, x) == 2 * s
        np.testing.assert_array_equal(casimirs(spec), np.eye(n)[2 * s :])

    def test_invalid_block_count(self):
        with pytest.raises(InvalidSizeError):
            constant_symplectic(2, 3)
        with pytest.raises(InvalidSizeError):
            constant_symplectic(-1, 2)


class TestCatalogEntries:
    @pytest.mark.parametrize(
        "name, params, build, args",
        [
            ("kmk", {"R": 2.0}, kermack_mckendrick, (2.0,)),
            ("toda", {"N": 4}, toda, (4,)),
            ("toda", {}, toda, (3,)),
            ("constant-symplectic", {"s": 1, "n": 3}, constant_symplectic, (1, 3)),
            ("constant-symplectic", {}, constant_symplectic, (1, 2)),
        ],
        ids=["kmk", "toda-4", "toda-default", "symplectic-1-3", "symplectic-default"],
    )
    def test_entry_is_the_built_spec(self, name, params, build, args):
        spec, expected = catalog_entry(name, **params), build(*args)
        assert isinstance(spec, MultiseparableSpec)
        np.testing.assert_array_equal(spec.B, expected.B)
        assert spec.factors == expected.factors
        x = spec.domain.halton_points(1, seed=0)[0]
        np.testing.assert_array_equal(evaluate_structure(spec, x), evaluate_structure(expected, x))

    def test_counterexample_entry_is_a_candidate_field(self):
        field = catalog_entry("counterexample3")
        assert isinstance(field, StructureField)
        assert not jacobi_sweep(field, 5, seed=2).passed

    def test_unknown_entry(self):
        with pytest.raises(KeyError):
            catalog_entry("lorenz")

    def test_registry_lists_all(self):
        assert set(CATALOG) == {
            "kmk",
            "toda",
            "constant-symplectic",
            "counterexample3",
        }


def test_counterexample_is_rejected_by_sweep():
    report = jacobi_sweep(counterexample_field(), 25, seed=2)
    assert not report.passed
    assert report.max_abs_residual >= 1.0
