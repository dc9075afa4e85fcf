from __future__ import annotations

import math

import numpy as np
import pytest
from specgen import rank_at

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
    structure_field,
    toda,
)
from poissonkit.catalog import CATALOG, _real, _size


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

    def test_one_slope_given_sets_the_other(self):
        for params, slopes in (({"kappa2": 2.0}, [0.5, 2.0]), ({"kappa1": 4.0}, [4.0, 0.25])):
            spec = kermack_mckendrick(**params)
            assert [f.slope for f in spec.factors] == slopes

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
        for slopes in ({"kappa1": 0.0}, {"kappa2": -0.0}, {"kappa1": 0.0, "kappa2": 1.0}):
            name = next(iter(slopes))
            with pytest.raises(ParameterMismatchError, match=f"^{name} must be nonzero"):
                kermack_mckendrick(1.0, **slopes)

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
            ("kmk", {}, kermack_mckendrick, ()),
            ("kmk", {"R": 1.0}, kermack_mckendrick, ()),
            ("toda", {"N": 4}, toda, (4,)),
            ("toda", {}, toda, ()),
            ("toda", {"N": 3}, toda, ()),
            ("constant-symplectic", {"s": 1, "n": 3}, constant_symplectic, (1, 3)),
            ("constant-symplectic", {}, constant_symplectic, ()),
            ("constant-symplectic", {"s": 1, "n": 2}, constant_symplectic, ()),
            ("constant-symplectic", {"s": 2}, constant_symplectic, (2, 4)),
        ],
        ids=[
            "kmk", "kmk-default", "kmk-default-is-R-1", "toda-4", "toda-default",
            "toda-default-is-N-3", "symplectic-1-3", "symplectic-default",
            "symplectic-default-is-1-2", "symplectic-n-defaults-to-2s",
        ],
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

    def test_unknown_parameter_is_named_before_any_check(self):
        with pytest.raises(TypeError, match=r"^unknown parameters for toda: \['M', 'Z'\]$"):
            catalog_entry("toda", Z=1, N=1.5, M=2)

    def test_parameters_are_checked_in_table_order(self):
        for params in ({"n": 1.5, "s": 2.5}, {"s": 2.5, "n": 1.5}):
            with pytest.raises(TypeError, match="^parameter s must be an integer, got 2.5$"):
                catalog_entry("constant-symplectic", **params)
        with pytest.raises(TypeError, match="^parameter R must be a number, got 'a'$"):
            catalog_entry("kmk", kappa2="b", R="a")

    @pytest.mark.parametrize(
        "check, value, error, message",
        [
            (_real, True, TypeError, "parameter k must be a number, got True"),
            (_real, "1", TypeError, "parameter k must be a number, got '1'"),
            (_real, None, TypeError, "parameter k must be a number, got None"),
            (_real, [1.0], TypeError, "parameter k must be a number, got [1.0]"),
            (_real, math.inf, ValueError, "parameter k must be finite, got inf"),
            (_real, -math.inf, ValueError, "parameter k must be finite, got -inf"),
            (_real, math.nan, ValueError, "parameter k must be finite, got nan"),
            (_real, 10**400, ValueError, "parameter k: number out of range"),
            (_size, False, TypeError, "parameter k must be an integer, got False"),
            (_size, 2.5, TypeError, "parameter k must be an integer, got 2.5"),
            (_size, math.inf, TypeError, "parameter k must be an integer, got inf"),
            (_size, math.nan, TypeError, "parameter k must be an integer, got nan"),
            (_size, "3", TypeError, "parameter k must be an integer, got '3'"),
            (_size, None, TypeError, "parameter k must be an integer, got None"),
        ],
    )
    def test_check_rejects_with_its_message(self, check, value, error, message):
        with pytest.raises(error) as excinfo:
            check("k", value)
        assert str(excinfo.value) == message

    def test_checks_pass_their_values(self):
        assert _real("k", 2) == 2 and _real("k", -0.5) == -0.5
        for value in (3, 3.0, np.int64(3), np.float64(3.0)):
            size = _size("k", value)
            assert size == 3 and type(size) is int

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
