from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from specgen import random_spec

import poissonkit.darboux
from poissonkit import (
    Affine,
    BoxDomain,
    CertificationFailureError,
    Constant,
    CustomFactor,
    DarbouxChart,
    Exponential,
    Linear,
    OutOfRangeError,
    OutOfValidityError,
    Power,
    build_spec,
    canonical_matrix,
    casimirs,
    certify_canonical,
    constant_symplectic,
    darboux_chart,
    default_anchors,
    evaluate_structure,
    toda,
)
from poissonkit.config import parse_config
from poissonkit.darboux import VALIDATION_POINTS
from poissonkit.factors import FactorBank

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import WORKLOADS  # noqa: E402

INF = math.inf

#: (factor, projected interval of its row, anchor): every end the image
#: bounds take, F's value at it against sympy's exact integral of 1/phi.
ORACLE_CASES = [
    # finite ends inside the validity interval, one case per kind
    (Constant(2.0), (-1.0, 3.0), 1.0),
    (Linear(1.5), (0.5, 3.0), 1.0),
    (Affine(2.0, -1.0), (1.0, 4.0), 2.0),
    (Exponential(1.5, 0.25), (-2.0, 2.0), 0.5),
    (Power(0.75, 1.5), (0.5, 3.0), 1.0),
    # validity bounds: F converges (square root) or diverges
    (Power(0.75, 0.5), (0.0, 4.0), 1.0),
    (Linear(1.5), (0.0, 4.0), 1.0),
    (Linear(-1.5, validity=(-INF, 0.0)), (-4.0, 0.0), -1.0),
    (Affine(2.0, -1.0), (0.5, 3.0), 1.0),
    (Power(0.75, 2.0), (0.0, 4.0), 1.0),
    (Power(-0.75, 2.0), (0.0, 4.0), 1.0),
    # infinite ends: F converges or diverges
    (Exponential(1.5, 0.25), (-1.0, INF), 0.0),
    (Exponential(-1.5, -0.25), (-INF, 1.0), 0.0),
    (Power(0.75, 2.0), (1.0, INF), 2.0),
    (Constant(-2.0), (-INF, INF), 0.0),
    (Linear(1.5), (1.0, INF), 2.0),
    (Affine(-2.0, 1.0), (-INF, 0.5), -1.0),
]


def _sympy_phi(f, t):
    p = {k: sp.Rational(v) for k, v in f.params().items()}
    return {
        "constant": lambda: p["c"],
        "linear": lambda: p["slope"] * t,
        "affine": lambda: p["slope"] * t + p["intercept"],
        "exponential": lambda: p["amplitude"] * sp.exp(p["rate"] * t),
        "power": lambda: p["coefficient"] * t ** p["exponent"],
    }[f.kind]()


def _exact(v):
    return sp.oo if v == INF else -sp.oo if v == -INF else sp.Rational(v)


def _validations(monkeypatch) -> list[int]:
    """The sample size of each chart round trip run from here on."""
    sizes, round_trip = [], poissonkit.darboux._round_trip
    monkeypatch.setattr(
        poissonkit.darboux,
        "_round_trip",
        lambda chart, points: sizes.append(len(points)) or round_trip(chart, points),
    )
    return sizes


class TestCasimirs:
    def test_kmk(self, kmk_spec):
        np.testing.assert_array_equal(casimirs(kmk_spec), [[1.0, 1.0, 1.0]])

    def test_toda(self, toda3_spec):
        np.testing.assert_array_equal(
            casimirs(toda3_spec), [[0.0, 0.0, 1.0, 1.0, 1.0]]
        )

    def test_rank_zero_identity(self):
        spec = build_spec(2, 0, np.eye(2), (), BoxDomain.unbounded(2))
        np.testing.assert_array_equal(casimirs(spec), np.eye(2))

    def test_full_row_rank(self, rng):
        for _ in range(3):
            spec = random_spec(rng, 6, 2)
            C = casimirs(spec)
            assert np.linalg.matrix_rank(C) == spec.n - spec.r


class TestLinearChart:
    def test_kmk_unit_point(self, kmk_spec):
        np.testing.assert_array_equal(kmk_spec.B @ [1.0, 1.0, 1.0], [1.0, 1.0, 3.0])

    def test_round_trip(self, kmk_spec, rng):
        for _ in range(20):
            x = rng.uniform(0.3, 2.0, size=3)
            np.testing.assert_allclose(kmk_spec.A @ (kmk_spec.B @ x), x, atol=1e-12)


def _block_form(spec, x) -> np.ndarray:
    """B J(x) B^T, the structure matrix after the linear chart."""
    return spec.B @ evaluate_structure(spec, x) @ spec.B.T


class TestPushforward:
    def test_kmk_linear_chart_matches_displayed_matrix(self, kmk_spec):
        x = np.array([0.7, 1.3, 0.9])
        y = kmk_spec.B @ x
        expected = y[0] * y[1] * np.array(
            [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        np.testing.assert_allclose(_block_form(kmk_spec, x), expected, atol=1e-12)

    def test_block_form_random_specs(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 8))
            r = 2 * int(rng.integers(1, n // 2 + 1))
            spec = random_spec(rng, n, r)
            for x in spec.domain.halton_points(5, seed=21):
                phi = spec.bank.apply("value", spec.B @ x)
                expected = np.zeros((n, n))
                for p in range(r // 2):
                    v = phi[2 * p] * phi[2 * p + 1]
                    expected[2 * p, 2 * p + 1] = v
                    expected[2 * p + 1, 2 * p] = -v
                np.testing.assert_allclose(_block_form(spec, x), expected, atol=1e-12)


class TestQuadratureChart:
    def test_kmk_anchor_one(self, kmk_spec):
        chart = darboux_chart(kmk_spec, anchors=(1.0, 1.0))
        np.testing.assert_allclose(chart.forward([1.0, 1.0, 1.0]), [0.0, 0.0, 3.0], atol=1e-14)

    def test_constant_factors_identity(self):
        chart = darboux_chart(constant_symplectic(2, 5), anchors=(0.0,) * 4)
        x = np.array([0.3, -0.4, 0.5, 0.1, -0.9])
        np.testing.assert_array_equal(chart.forward(x), x)

    def test_toda_log_coordinates(self, toda3_spec):
        x = np.array([1.5, 0.7, 0.2, -0.3, 0.8])
        y = toda3_spec.B @ x
        z = darboux_chart(toda3_spec).forward(x)
        # odd transformed coordinates are -log(-y) up to the anchor constant
        assert z[0] == pytest.approx(-np.log(-y[0]), abs=1e-13)
        assert z[2] == pytest.approx(-np.log(-y[2]), abs=1e-13)
        assert z[1] == y[1] and z[3] == y[3] and z[4] == y[4]


class TestDefaultAnchors:
    def test_bounded_midpoint(self, rng):
        spec = random_spec(rng, 4, 2)
        lo, hi = spec.projected_intervals[0]
        assert default_anchors(spec)[0] == pytest.approx(0.5 * (lo + hi))

    def test_half_lines(self, kmk_spec, toda3_spec):
        assert default_anchors(kmk_spec) == (1.0, 1.0)
        assert default_anchors(toda3_spec) == (-1.0, 0.0, -1.0, 0.0)

    def test_half_line_whose_end_absorbs_a_unit_step(self, monkeypatch):
        """At |end| >= 2**53, lo + 1 rounds back to lo: the anchor is the
        next float inside, and the chart builds and validates."""
        factors = [Linear(1.0, validity=(1e17, INF)), Constant(1.0)]
        domain = BoxDomain([1e17, 0.0], [INF, 1.0], [1e17, 0.0], [2e17, 1.0])
        spec = build_spec(2, 2, np.eye(2), factors, domain)
        assert default_anchors(spec) == (math.nextafter(1e17, INF), 0.5)
        validations = _validations(monkeypatch)
        darboux_chart(spec)
        assert validations == [VALIDATION_POINTS]

    def test_bounded_interval_whose_sum_overflows(self):
        """lo + hi overflows: the midpoint comes from the halved ends."""
        domain = BoxDomain([1e308, 0.0], [1.7e308, 1.0])
        spec = build_spec(2, 2, np.eye(2), [Constant(1.0), Constant(1.0)], domain)
        assert default_anchors(spec) == (1.35e308, 0.5)
        chart = darboux_chart(spec)
        assert np.isfinite(chart.image_lower).all() and np.isfinite(chart.image_upper).all()


class TestDarbouxChart:
    def test_kmk_canonical(self, kmk_spec, monkeypatch):
        validations = _validations(monkeypatch)
        chart = darboux_chart(kmk_spec)
        assert chart.block_count == 1
        assert validations == [VALIDATION_POINTS]
        report = certify_canonical(chart)
        assert report.passed
        assert report.max_deviation <= 1e-12

    def test_toda_canonical_two_blocks(self, toda3_spec):
        chart = darboux_chart(toda3_spec)
        assert chart.block_count == 2
        target = canonical_matrix(5, 4)
        assert target[0, 1] == 1.0 and target[2, 3] == 1.0 and target[4, 4] == 0.0
        report = certify_canonical(chart)
        assert report.passed

    def test_constant_symplectic_chart_is_identity(self, rng):
        spec = constant_symplectic(1, 3)
        chart = darboux_chart(spec)
        for x in rng.uniform(-0.9, 0.9, size=(10, 3)):
            np.testing.assert_allclose(chart.forward(x), x, atol=1e-15)
            np.testing.assert_allclose(chart.inverse(x), x, atol=1e-15)

    def test_rank_zero_chart(self):
        spec = build_spec(
            3,
            0,
            np.eye(3),
            (),
            BoxDomain.unbounded(
                3, sample_lower=-np.ones(3), sample_upper=np.ones(3)
            ),
        )
        chart = darboux_chart(spec)
        x = np.array([0.2, -0.1, 0.4])
        np.testing.assert_array_equal(chart.forward(x), x)
        report = certify_canonical(chart)
        assert report.passed

    def test_round_trip_random_specs(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 8))
            r = 2 * int(rng.integers(0, n // 2 + 1))
            spec = random_spec(rng, n, r)
            chart = darboux_chart(spec)
            for x in spec.domain.halton_points(10, seed=13):
                back = chart.inverse(chart.forward(x))
                assert float(np.max(np.abs(back - x))) <= 1e-10

    def test_casimir_coordinates_exact(self, kmk_spec, toda3_spec):
        for spec in (kmk_spec, toda3_spec):
            chart = darboux_chart(spec)
            for x in spec.domain.halton_points(10, seed=17):
                z = chart.forward(x)
                y = spec.B @ x
                # coordinates beyond the rank are bitwise the linear chart
                np.testing.assert_array_equal(z[spec.r :], y[spec.r :])

    def test_unbounded_domain_without_sample_box_is_not_validated(self, monkeypatch):
        spec = build_spec(
            2, 2, [[1.0, 1.0], [0.0, 1.0]], (Exponential(1.0, 0.5), Constant(2.0)),
            BoxDomain.unbounded(2),
        )
        validations = _validations(monkeypatch)
        chart = darboux_chart(spec)
        assert validations == []
        for x in ([0.3, -0.7], [-2.0, 1.5], [4.0, 0.0]):
            back = chart.inverse(chart.forward(np.array(x)))
            np.testing.assert_allclose(back, x, rtol=0.0, atol=1e-12)

    def test_replace_rebuilds_the_chart_from_its_anchors(self):
        """A chart is its anchors: replace(chart, anchors=a) has the image
        bounds and maps of darboux_chart(spec, anchors=a), bitwise."""
        domain = BoxDomain([0.5] * 3, [1.5] * 3)
        spec = build_spec(3, 2, np.eye(3), [Linear(1.0), Constant(2.0)], domain)
        moved = replace(darboux_chart(spec), anchors=(0.6, 0.6))
        fresh = darboux_chart(spec, anchors=(0.6, 0.6))
        assert moved == fresh
        assert moved.image_lower.tobytes() == fresh.image_lower.tobytes()
        assert moved.image_upper.tobytes() == fresh.image_upper.tobytes()
        X = domain.halton_points(20, seed=1)
        Z = moved.forward(X)
        assert Z.tobytes() == fresh.forward(X).tobytes()
        assert (Z >= moved.image_lower).all() and (Z <= moved.image_upper).all()

    def test_a_chart_binds_its_anchors_once(self, toda3_spec, monkeypatch):
        binds = []
        bind = FactorBank.bind
        monkeypatch.setattr(FactorBank, "bind", lambda bank, a: binds.append(a) or bind(bank, a))
        darboux_chart(toda3_spec)
        assert len(binds) == 1

    def test_a_chart_with_an_invalid_anchor_cannot_be_built(self, kmk_spec):
        message = r"^linear factor: y = -1.0 outside validity \(0.0, inf\)$"
        with pytest.raises(OutOfValidityError, match=message):
            DarbouxChart(kmk_spec, (-1.0, 1.0))

    def test_anchor_count_validation(self, kmk_spec):
        with pytest.raises(ValueError):
            darboux_chart(kmk_spec, anchors=(1.0,))

    def test_forward_jacobian_consistency(self, toda3_spec):
        chart = darboux_chart(toda3_spec)
        x = np.array([1.2, 0.9, 0.3, -0.1, 0.5])
        F = chart.forward_jacobian(x)
        G = chart.inverse_jacobian(chart.forward(x))
        np.testing.assert_allclose(F @ G, np.eye(5), atol=1e-12)

    def test_jacobians_of_a_block_are_the_per_point_jacobians(self, toda3_spec):
        chart = darboux_chart(toda3_spec)
        X = np.array([[1.2, 0.9, 0.3, -0.1, 0.5], [0.8, 0.7, 0.1, -0.2, 0.3]])
        Z = chart.forward(X)
        for jacobian, points in ((chart.forward_jacobian, X), (chart.inverse_jacobian, Z)):
            block = jacobian(points)
            assert block.shape == (2, 5, 5)
            for k in range(2):
                np.testing.assert_array_equal(block[k], jacobian(points[k]))

    def test_image_bounds_kmk(self, kmk_spec):
        chart = darboux_chart(kmk_spec)
        # log coordinates reach every real value; the Casimir coordinate
        # inherits the projected interval (0, inf)
        assert chart.image_lower[0] == -np.inf and chart.image_upper[0] == np.inf
        assert chart.image_lower[2] == 0.0 and chart.image_upper[2] == np.inf

    def test_image_bounds_custom_factor_matches_closed_form(self, monkeypatch):
        # phi = exp(y / 1000) on y < 1, in closed form and as a custom factor
        # whose antiderivative overflows far out: both diverge toward -inf
        # and share the value at y = 1.  A custom factor is not evaluated at
        # an infinite end: phi = 2 + sin y, integrated by quadrature, gets
        # -inf and inf there, and no IntegrationWarning.
        custom = CustomFactor(
            value_fn=lambda y: math.exp(1e-3 * y),
            derivative_fn=lambda y: 1e-3 * math.exp(1e-3 * y),
            antiderivative_fn=lambda y: -1e3 * math.exp(-1e-3 * y),
        )
        wavy = CustomFactor(value_fn=lambda y: 2.0 + math.sin(y), derivative_fn=math.cos)
        spec = build_spec(
            4, 4, np.eye(4), (Exponential(1.0, 1e-3), Constant(1.0), custom, wavy),
            BoxDomain([-np.inf] * 4, [1.0, 1.0, 1.0, np.inf], [-2.0] * 4, [0.0] * 4),
        )
        validations = _validations(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chart = darboux_chart(spec)
        assert validations == [VALIDATION_POINTS]
        assert chart.image_lower[0] == chart.image_lower[2] == -np.inf
        assert np.isfinite(chart.image_upper[0])
        assert chart.image_upper[2] == pytest.approx(chart.image_upper[0], rel=1e-12)
        assert chart.image_lower[3] == -np.inf and chart.image_upper[3] == np.inf

    def test_image_bounds_enclose_the_image_of_a_bounded_box(self):
        # All five built-in kinds on (0.5, 1.5)^32.  The bounds are F at the
        # projected interval ends, so no image point falls outside them:
        # not a sample point, not a point 1e-12 inside a face, and not the
        # inset corners at which each y_q is least or greatest.
        spec = parse_config(json.dumps(WORKLOADS["check-mixed"].config(1))).spec
        chart = darboux_chart(spec)
        lo, hi = spec.domain.lower + 1e-12, spec.domain.upper - 1e-12
        sample = spec.domain.halton_points(2000, 0)
        faces = []
        for j in range(spec.n):
            for end in (lo[j], hi[j]):
                face = sample[:20].copy()
                face[:, j] = end
                faces.append(face)
        corners = [np.where(spec.B > 0, lo, hi), np.where(spec.B > 0, hi, lo)]
        for points in (sample, *faces, *corners):
            z = chart.forward(points)
            assert (z >= chart.image_lower).all() and (z <= chart.image_upper).all()

    def test_image_bound_at_a_square_root_validity_bound_is_exact(self):
        spec = build_spec(
            2, 2, np.eye(2), (Power(1.0, 0.5), Constant(1.0)),
            BoxDomain([0.0, 0.0], [4.0, 4.0]),
        )
        chart = darboux_chart(spec)
        # F(0) = -2 sqrt(2) from the anchor 2; the chart reaches just above it.
        assert abs(chart.image_lower[0] + 2.0 * math.sqrt(2.0)) <= math.ulp(2.0 * math.sqrt(2.0))
        assert chart.forward([1e-12, 1.0])[0] >= chart.image_lower[0]

    @pytest.mark.parametrize("factor, interval, anchor", ORACLE_CASES)
    def test_image_bounds_match_the_exact_integral(self, factor, interval, anchor):
        lo, hi = interval
        spec = build_spec(
            2, 2, np.eye(2), (factor, Constant(1.0)),
            BoxDomain([lo, 0.0], [hi, 1.0], [max(lo, anchor - 0.5), 0.0], [min(hi, anchor + 0.5), 1.0]),
        )
        chart = darboux_chart(spec, anchors=(anchor, 0.5))
        t = sp.Symbol("t", positive=True) if lo >= 0.0 else sp.Symbol("t", real=True)
        phi = _sympy_phi(factor, t)
        # The real part: on negative arguments sympy's log antiderivative
        # adds a constant imaginary part to an infinite result.
        ends = [
            float(sp.re(sp.integrate(1 / phi, (t, _exact(anchor), _exact(v)))))
            for v in interval
        ]
        for got, want in zip((chart.image_lower[0], chart.image_upper[0]), sorted(ends)):
            if math.isinf(want):
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "first",
    [
        Power(1.0, 1.0 + 1e-6),
        Power(1.0, 1.0 + 1e-9),
        Power(1.0, 1.0 + 1e-14),
        Exponential(1.0, 1e-9),
        Exponential(1.0, 1e-13),
        Affine(1e-10, 1.0),
    ],
)
def test_near_degenerate_factor_gives_a_certified_chart(first):
    """B = I2 on [0.5, 2] x [-1, 1], the second factor constant(1): a chart
    whose first factor is within 1e-6 .. 1e-14 of a linear or constant one
    validates and certifies, its round trip within 2 eps (the plain closed
    forms missed by up to 6.9e-3)."""
    box = BoxDomain([0.5, -1.0], [2.0, 1.0])
    spec = build_spec(2, 2, np.eye(2), (first, Constant(1.0)), box)
    report = certify_canonical(darboux_chart(spec))
    assert report.passed
    assert report.max_round_trip_error <= 2 * np.finfo(float).eps


class TestCertificationFailure:
    def test_corrupted_inverse_detected(self, kmk_spec):
        chart = darboux_chart(kmk_spec)

        class CorruptedChart(DarbouxChart):
            def inverse(self, z):
                shifted = tuple(a + 0.5 for a in self.anchors)
                return DarbouxChart.inverse(replace(self, anchors=shifted), z)

        corrupted = CorruptedChart(spec=kmk_spec, anchors=chart.anchors)
        with pytest.raises(CertificationFailureError):
            certify_canonical(corrupted)

    def test_non_finite_pushforward_fails(self, kmk_spec, monkeypatch):
        chart = darboux_chart(kmk_spec)
        monkeypatch.setattr(
            poissonkit.darboux,
            "_linear_pushforward",
            lambda spec, J: np.full(J.shape, np.nan),
        )
        with pytest.raises(CertificationFailureError) as err:
            certify_canonical(chart)
        assert np.isnan(err.value.deviation)

    def test_round_trip_beyond_tolerance_fails_validation(self, toda3_spec, monkeypatch):
        monkeypatch.setattr(poissonkit.darboux, "ROUND_TRIP_TOL", 0.0)
        with pytest.raises(CertificationFailureError, match=r"chart round trip error .* exceeds 0$"):
            darboux_chart(toda3_spec)

    def test_failure_carries_location(self, kmk_spec):
        chart = darboux_chart(kmk_spec)
        with pytest.raises(CertificationFailureError) as err:
            certify_canonical(chart, tolerance=1e-18)
        assert err.value.deviation > 1e-18
        assert len(err.value.point) == 3


def test_canonical_matrix_layout():
    K = canonical_matrix(5, 4)
    expected = np.zeros((5, 5))
    expected[0, 1] = expected[2, 3] = 1.0
    expected[1, 0] = expected[3, 2] = -1.0
    np.testing.assert_array_equal(K, expected)
    np.testing.assert_array_equal(canonical_matrix(3, 0), np.zeros((3, 3)))


#: Each public chart operation at a target no point reaches, on kmk's
#: chart (anchors 1, linear factors on y > 0) or on a single linear factor
#: (anchor 1): y <= 0 is outside validity, and F^{-1}(1e6) = exp(1e6)
#: overflows.  The operation and its argument, then the error it raises.
UNREACHABLE = [
    ("forward", [-1.0, 1.0, 1.0], OutOfValidityError("linear factor: y = -1.0 outside validity (0.0, inf)")),
    ("forward", [0.0, 1.0, 1.0], OutOfValidityError("linear factor: y = 0.0 outside validity (0.0, inf)")),
    ("inverse", [1e6, 0.0, 1.0], OutOfRangeError("factor 1 (linear): z = 1000000.0 outside the antiderivative range")),
    ("inverse", [-1e6, 0.0, 1.0], OutOfRangeError("factor 1 (linear): z = -1000000.0 maps outside validity interval")),
    ("inverse_jacobian", [1e6, 0.0, 1.0], OutOfRangeError("factor 1 (linear): z = 1000000.0 outside the antiderivative range")),
    ("reciprocal_antiderivative", 0.0, OutOfValidityError("linear factor: y = 0.0 outside validity (0.0, inf)")),
    ("reciprocal_antiderivative", -1.0, OutOfValidityError("linear factor: y = -1.0 outside validity (0.0, inf)")),
    ("invert_antiderivative", 1e6, OutOfRangeError("factor 1 (linear): z = 1000000.0 outside the antiderivative range")),
    ("invert_antiderivative", -1e6, OutOfRangeError("factor 1 (linear): z = -1000000.0 maps outside validity interval")),
]


@pytest.mark.parametrize("name,arg,outcome", UNREACHABLE)
def test_chart_entry_is_quiet_at_an_unreachable_target(kmk_spec, name, arg, outcome):
    """A factor pass leaves the errstate to its caller, so each public chart
    operation holds its own: it raises the named error, and its log of
    zero or overflowing exp gives no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(arg, list):
            call = lambda: getattr(darboux_chart(kmk_spec), name)(np.array(arg))
        else:
            call = lambda: getattr(Linear(1.0), name)(arg, 1.0)
        with pytest.raises(type(outcome)) as caught:
            call()
        assert str(caught.value) == str(outcome)


def test_chart_with_a_diverging_end_is_quiet(kmk_spec):
    """kmk's projected intervals end at y = 0, where F = log(y) / slope
    diverges: the closed form's log of zero gives the -inf bound with no
    RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chart = darboux_chart(kmk_spec)
    np.testing.assert_array_equal(chart.image_lower, [-np.inf, -np.inf, 0.0])
    np.testing.assert_array_equal(chart.image_upper, [np.inf, np.inf, np.inf])
