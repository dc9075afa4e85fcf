from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonkit import (
    Affine,
    Constant,
    CustomFactor,
    Exponential,
    Linear,
    NoConvergenceError,
    OutOfRangeError,
    OutOfValidityError,
    Power,
)
from poissonkit.factors import FactorBank

UNIT_FLOATS = st.floats(min_value=0.1, max_value=5.0)


@pytest.mark.parametrize(
    "factor,y,expected",
    [
        (Linear(2.0), 3.0, 6.0),
        (Constant(1.0), -17.3, 1.0),
        (Exponential(1.0, 1.0), 0.0, 1.0),
        (Affine(2.0, 1.0), 1.0, 3.0),
        (Power(1.0, 2.0), 3.0, 9.0),
    ],
)
def test_values(factor, y, expected):
    assert factor.value(y) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "factor,y,expected",
    [
        (Linear(2.0), 5.0, 2.0),
        (Constant(3.5), 0.0, 0.0),
        (Power(1.0, 2.0), 3.0, 6.0),
        (Affine(-0.5, -1.0, validity=(-np.inf, -2.0)), -4.0, -0.5),
        (Exponential(2.0, 0.5), 0.0, 1.0),
    ],
)
def test_derivatives(factor, y, expected):
    assert factor.derivative(y) == pytest.approx(expected, abs=1e-15)


def test_reciprocal_antiderivative_closed_forms():
    assert Linear(1.0).reciprocal_antiderivative(math.e, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert Constant(1.0).reciprocal_antiderivative(4.25, 0.0) == pytest.approx(4.25)
    # integral of exp(-t) from 0 to 1
    assert Exponential(1.0, 1.0).reciprocal_antiderivative(1.0, 0.0) == pytest.approx(
        1.0 - math.exp(-1.0), abs=1e-14
    )


def test_invert_antiderivative_closed_forms():
    assert Linear(1.0).invert_antiderivative(1.0, 1.0) == pytest.approx(math.e, abs=1e-14)
    assert Constant(1.0).invert_antiderivative(7.0, 0.0) == pytest.approx(7.0)


def test_closed_form_cross_checked_by_quadrature():
    exact = Exponential(1.0, 1.0)
    numeric = CustomFactor(value_fn=math.exp, derivative_fn=math.exp)
    for y in (-0.7, 0.4, 1.0, 2.3):
        assert exact.reciprocal_antiderivative(y, 0.0) == pytest.approx(
            numeric.reciprocal_antiderivative(y, 0.0), abs=1e-11
        )


FACTORY = {
    "linear": lambda: Linear(0.7),
    "linear-negative": lambda: Linear(-1.0, validity=(-np.inf, 0.0)),
    "affine": lambda: Affine(0.5, 1.0),
    "exponential": lambda: Exponential(1.3, -0.4),
    "power": lambda: Power(2.0, 2.0),
    "power-sqrt": lambda: Power(1.0, 0.5),
    "constant": lambda: Constant(-2.0),
}


def _point_inside(f, u: float) -> float:
    """Map u in (0.1, 5) into the factor's validity interval."""
    lo, hi = f.validity
    if math.isinf(lo) and math.isinf(hi):
        return u - 2.5
    if math.isinf(hi):
        return lo + u
    if math.isinf(lo):
        return hi - u
    return lo + (hi - lo) * u / 5.2


@pytest.mark.parametrize("name", sorted(FACTORY))
@settings(max_examples=100, derandomize=True, deadline=None)
@given(u=UNIT_FLOATS, a=UNIT_FLOATS)
def test_round_trip(name, u, a):
    f = FACTORY[name]()
    y = _point_inside(f, u)
    anchor = _point_inside(f, a)
    z = f.reciprocal_antiderivative(y, anchor)
    assert f.invert_antiderivative(z, anchor) == pytest.approx(y, abs=1e-10, rel=1e-10)


@pytest.mark.parametrize("name", sorted(FACTORY))
def test_antiderivative_monotone_with_factor_sign(name, rng):
    f = FACTORY[name]()
    anchor = _point_inside(f, 2.0)
    ys = sorted(_point_inside(f, u) for u in rng.uniform(0.1, 5.0, size=20))
    vals = [f.reciprocal_antiderivative(y, anchor) for y in ys]
    sign = 1.0 if f.value(anchor) > 0 else -1.0
    diffs = sign * np.diff(vals)
    assert np.all(diffs > 0.0)


@pytest.mark.parametrize("name", sorted(FACTORY))
def test_derivative_matches_finite_differences(name, rng):
    f = FACTORY[name]()
    h = 1e-6
    for u in rng.uniform(0.2, 4.8, size=100):
        y = _point_inside(f, float(u))
        fd = (f.value(y + h) - f.value(y - h)) / (2.0 * h)
        assert f.derivative(y) == pytest.approx(fd, abs=1e-6, rel=1e-6)


@pytest.mark.parametrize("name", sorted(FACTORY))
def test_antiderivative_slope_is_reciprocal(name, rng):
    f = FACTORY[name]()
    anchor = _point_inside(f, 2.0)
    h = 1e-6
    for u in rng.uniform(0.2, 4.8, size=25):
        y = _point_inside(f, float(u))
        fd = (
            f.reciprocal_antiderivative(y + h, anchor)
            - f.reciprocal_antiderivative(y - h, anchor)
        ) / (2.0 * h)
        assert fd == pytest.approx(1.0 / f.value(y), abs=1e-6, rel=1e-6)


def test_out_of_validity():
    with pytest.raises(OutOfValidityError):
        Linear(1.0).value(-1.0)
    with pytest.raises(OutOfValidityError):
        Power(1.0, 2.0).derivative(0.0)
    with pytest.raises(OutOfValidityError):
        Linear(1.0).reciprocal_antiderivative(2.0, -1.0)


def test_out_of_range_inversion():
    # F for exp(y) is bounded above by 1 (anchor 0): z = 2 unreachable.
    with pytest.raises(OutOfRangeError):
        Exponential(1.0, 1.0).invert_antiderivative(2.0, 0.0)
    # F for y^2 on y > 0 with anchor 1 is bounded above by 1.
    with pytest.raises(OutOfRangeError):
        Power(1.0, 2.0).invert_antiderivative(1.5, 1.0)


def test_construction_errors():
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        Linear(0.0)
    with pytest.raises(ValueError):
        Linear(1.0, validity=(-1.0, 1.0))
    with pytest.raises(ValueError):
        Affine(1.0, 0.0, validity=(-1.0, 1.0))
    with pytest.raises(ValueError):
        Power(0.0, 2.0)
    with pytest.raises(ValueError):
        Constant(1.0, validity=(2.0, 2.0))
    with pytest.raises(ValueError):
        CustomFactor(value_fn=None, derivative_fn=None)


class TestCustomFactor:
    def _cosh_factor(self, with_antiderivative: bool = False) -> CustomFactor:
        # phi(y) = cosh(y): nonvanishing everywhere, F(y) = atan(sinh(y)) + C.
        kwargs = {}
        if with_antiderivative:
            kwargs["antiderivative_fn"] = lambda y: math.atan(math.sinh(y))
        return CustomFactor(
            value_fn=math.cosh,
            derivative_fn=math.sinh,
            **kwargs,
        )

    def test_quadrature_matches_closed_form(self):
        f = self._cosh_factor()
        expected = math.atan(math.sinh(1.2)) - math.atan(math.sinh(-0.3))
        assert f.reciprocal_antiderivative(1.2, -0.3) == pytest.approx(expected, abs=1e-11)

    def test_supplied_antiderivative_used(self):
        f = self._cosh_factor(with_antiderivative=True)
        expected = math.atan(math.sinh(0.9)) - math.atan(math.sinh(0.1))
        assert f.reciprocal_antiderivative(0.9, 0.1) == pytest.approx(expected, abs=1e-14)

    def test_newton_inversion_round_trip(self, rng):
        f = self._cosh_factor()
        for y in rng.uniform(-1.4, 1.4, size=20):
            z = f.reciprocal_antiderivative(float(y), 0.0)
            assert f.invert_antiderivative(z, 0.0) == pytest.approx(float(y), abs=1e-10)

    def test_inversion_out_of_range(self):
        # range of atan(sinh(y)) is (-pi/2, pi/2)
        f = self._cosh_factor()
        with pytest.raises((OutOfRangeError, NoConvergenceError)):
            f.invert_antiderivative(2.0, 0.0)

    def test_inversion_without_root_raises(self):
        # F jumps from 0 to 1 at y = 1, so F(y) = 0.5 has no solution in
        # the bracket (0, 1); the root find stops at the jump.
        f = CustomFactor(
            value_fn=lambda y: 1.0,
            derivative_fn=lambda y: 0.0,
            antiderivative_fn=math.floor,
        )
        with pytest.raises(NoConvergenceError):
            f.invert_antiderivative(0.5, 0.0)

    def test_bounded_validity_inversion(self, rng):
        f = CustomFactor(
            value_fn=lambda y: 1.0 + y * y,
            derivative_fn=lambda y: 2.0 * y,
            validity=(-2.0, 2.0),
        )
        for y in rng.uniform(-1.9, 1.9, size=10):
            z = f.reciprocal_antiderivative(float(y), 0.0)
            assert f.invert_antiderivative(z, 0.0) == pytest.approx(float(y), abs=1e-10)

    def test_sampling_heuristic_finds_zero(self):
        f = CustomFactor(value_fn=lambda y: y - 0.5, derivative_fn=lambda y: 1.0)
        witness = f.sample_nonvanishing(0.0, 1.0, num=2000)
        assert witness is not None
        assert abs(witness - 0.5) < 1e-3
        assert f.sample_nonvanishing(1.0, 2.0) is None


# -- array arguments and validity-respecting inversions ----------------------

FINITE = st.floats(min_value=0.05, max_value=5.0)


@st.composite
def narrowed_factors(draw):
    """A built-in factor on a validity interval that may be narrowed inside
    its natural branch, with an anchor inside that interval."""
    kind = draw(st.sampled_from(["constant", "linear", "affine", "exponential", "power"]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    scale = draw(st.floats(min_value=0.5, max_value=2.0))
    bounded = draw(st.booleans())
    width = draw(FINITE)
    if kind in ("constant", "exponential"):
        # Finite ends stay within |y| <= 5, where exp(-rate * y) is moderate
        # and F loses no digits to cancellation.
        lo = draw(st.floats(min_value=-5.0, max_value=4.0))
        hi = min(lo + width, 5.0) if bounded else draw(st.sampled_from([5.0, math.inf]))
        if kind == "constant" and draw(st.booleans()):
            lo = -math.inf
        if kind == "constant":
            f = Constant(sign * scale, validity=(lo, hi))
        else:
            rate = sign * draw(st.floats(min_value=0.1, max_value=1.0))
            f = Exponential(scale, rate, validity=(lo, hi))
    elif kind == "affine":
        slope = sign * scale
        intercept = draw(st.floats(min_value=-2.0, max_value=2.0))
        root = -intercept / slope
        side = draw(st.sampled_from([-1.0, 1.0]))
        near = root + side * draw(FINITE)
        far = near + side * width if bounded else side * math.inf
        f = Affine(slope, intercept, validity=(min(near, far), max(near, far)))
    else:
        # linear on either branch, power on y > 0
        branch = sign if kind == "linear" else 1.0
        near = draw(st.one_of(st.just(0.0), FINITE))
        far = near + width if bounded else math.inf
        lo, hi = sorted((branch * near, branch * far))
        if kind == "linear":
            f = Linear(scale * draw(st.sampled_from([-1.0, 1.0])), validity=(lo, hi))
        else:
            exponent = draw(st.sampled_from([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0, 3.0]))
            f = Power(scale, exponent, validity=(lo, hi))
    lo, hi = f.validity
    t = draw(st.floats(min_value=0.05, max_value=0.95))
    if math.isfinite(lo) and math.isfinite(hi):
        anchor = lo + t * (hi - lo)
    elif math.isfinite(lo):
        anchor = lo + 5.0 * t
    elif math.isfinite(hi):
        anchor = hi - 5.0 * t
    else:
        anchor = 10.0 * t - 5.0
    return f, anchor


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=narrowed_factors(), z=st.floats(min_value=-50.0, max_value=50.0))
def test_inversion_respects_validity(case, z):
    f, anchor = case
    lo, hi = f.validity
    try:
        y = f.invert_antiderivative(z, anchor)
    except OutOfRangeError:
        # The array path rejects the block when any element is out of range.
        with pytest.raises(OutOfRangeError):
            f.invert_antiderivative(np.array([0.0, z]), anchor)
        return
    assert lo < y < hi
    assert f.reciprocal_antiderivative(y, anchor) == pytest.approx(z, rel=1e-9, abs=1e-9)
    np.testing.assert_array_equal(
        f.invert_antiderivative(np.array([z, 0.0]), anchor),
        [y, f.invert_antiderivative(0.0, anchor)],
    )


def test_narrowed_validity_inversions_raise():
    with pytest.raises(OutOfRangeError):
        Linear(1.0, validity=(0.5, 2.0)).invert_antiderivative(5.0, 1.0)
    with pytest.raises(OutOfRangeError):
        Affine(1.0, 0.0, validity=(0.5, 2.0)).invert_antiderivative(5.0, 1.0)
    with pytest.raises(OutOfRangeError):
        Exponential(1.0, 1.0, validity=(0.0, 1.0)).invert_antiderivative(-5.0, 0.5)
    with pytest.raises(OutOfRangeError):
        Linear(1.0).invert_antiderivative(np.array([0.0, 1000.0]), 1.0)


@pytest.mark.parametrize("name", sorted(FACTORY))
def test_array_calls_equal_scalar_calls_bitwise(name, rng):
    f = FACTORY[name]()
    anchor = _point_inside(f, 2.0)
    full = np.array([_point_inside(f, float(u)) for u in rng.uniform(0.2, 4.8, size=30)])
    # Contiguous, misaligned and strided inputs.
    for ys in (full, full[1:], full[::3]):
        for op in (f.value, f.derivative):
            np.testing.assert_array_equal(op(ys), [op(float(v)) for v in ys])
        zs = f.reciprocal_antiderivative(ys, anchor)
        np.testing.assert_array_equal(
            zs, [f.reciprocal_antiderivative(float(v), anchor) for v in ys]
        )
        np.testing.assert_array_equal(
            f.invert_antiderivative(zs, anchor),
            [f.invert_antiderivative(float(z), anchor) for z in zs],
        )
    assert f.value(full[:0]).shape == (0,)


@pytest.mark.parametrize(
    "factor,z,anchor",
    [
        (Linear(1.0), 1e6, 1.0),  # exp overflows
        (Exponential(1.0, 1.0), 2.0, 0.0),  # log of a negative number
        (Exponential(1.0, 1.0), 1.0, 0.0),  # log of zero
        (Power(1.0, 2.0), 1.5, 1.0),  # a negative base of the root
        (Power(1.0, 0.5), -5.0, 1.0),
    ],
)
def test_unreachable_inversion_raises_without_warning(factor, z, anchor):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRangeError, match="outside the antiderivative range"):
            factor.invert_antiderivative(z, anchor)
        with pytest.raises(OutOfRangeError, match=f"z = {z!r} outside"):
            factor.invert_antiderivative(np.array([0.0, z, 0.0]), anchor)
        # A bank pass leaves the errstate to its caller, as the chart entries
        # and the step loop hold it.
        bank = FactorBank((Constant(1.0), factor))
        with np.errstate(all="ignore"), pytest.raises(OutOfRangeError, match=f"z = {z!r} outside"):
            bank.apply("invert_antiderivative", np.array([[0.0, 0.0], [3.0, z]]), (0.0, anchor))


@pytest.mark.parametrize(
    "degenerate,simpler",
    [(Exponential(-1.5, 0.0), Constant(-1.5)), (Power(0.8, 1.0), Linear(0.8))],
)
def test_degenerate_parameters_evaluate_as_the_simpler_kind(degenerate, simpler):
    ys = np.array([0.3, 1.0, 2.7])
    for name in ("value", "derivative"):
        np.testing.assert_array_equal(getattr(degenerate, name)(ys), getattr(simpler, name)(ys))
    zs = degenerate.reciprocal_antiderivative(ys, 1.0)
    np.testing.assert_array_equal(zs, simpler.reciprocal_antiderivative(ys, 1.0))
    np.testing.assert_array_equal(
        degenerate.invert_antiderivative(zs, 1.0), simpler.invert_antiderivative(zs, 1.0)
    )


def test_array_outside_validity_names_first_offender():
    ys = np.array([1.0, 2.0, -3.0, -4.0])
    with pytest.raises(OutOfValidityError, match="-3.0"):
        Linear(1.0).value(ys)


def test_custom_factor_loops_over_arrays():
    f = CustomFactor(value_fn=math.cosh, derivative_fn=math.sinh)
    ys = np.array([-0.5, 0.0, 0.7])
    np.testing.assert_array_equal(f.value(ys), [math.cosh(v) for v in ys])
    np.testing.assert_array_equal(f.derivative(ys), [math.sinh(v) for v in ys])
    zs = f.reciprocal_antiderivative(ys, 0.0)
    np.testing.assert_allclose(f.invert_antiderivative(zs, 0.0), ys, atol=1e-10)


class _UnhashableCosh:
    __hash__ = None

    def __call__(self, y):
        return math.cosh(y)


def test_custom_factors_are_groups_of_their_own_column():
    """Each custom factor is a bank group keyed by its column, so two
    columns may share one factor whose callable does not hash."""
    f = CustomFactor(value_fn=_UnhashableCosh(), derivative_fn=math.sinh)
    bank = FactorBank((Linear(2.0), f, f))
    Y = np.array([[1.0, -0.5, 0.25], [2.0, 0.75, -1.5]])
    expected = [[2.0 * a, math.cosh(b), math.cosh(c)] for a, b, c in Y.tolist()]
    np.testing.assert_array_equal(bank.apply("value", Y), expected)
    assert [cols for cols, _, _ in bank.passes["value"]] == [slice(q, q + 1, 1) for q in range(3)]


def test_custom_target_past_an_arithmetic_failure_is_out_of_range():
    # F(y) = atan(sinh(y)) stays above -pi/2; the bracket search reaches
    # y = -1024, where math.sinh overflows, without enclosing -2.
    f = CustomFactor(
        value_fn=math.cosh,
        derivative_fn=math.sinh,
        antiderivative_fn=lambda y: math.atan(math.sinh(y)),
    )
    with pytest.raises(OutOfRangeError, match=r"^z = -2.0 outside the antiderivative range$"):
        f.invert_antiderivative(-2.0, 0.0)


def _exp_factor(closed_form: bool) -> CustomFactor:
    """phi = exp, with F(y) = 1 - exp(-y) from its closed form or by quadrature."""
    return CustomFactor(
        value_fn=math.exp,
        derivative_fn=math.exp,
        antiderivative_fn=(lambda y: -math.exp(-y)) if closed_form else None,
    )


@pytest.mark.parametrize(
    "closed_form,z",
    [(True, -1e300), (True, -1e4), (True, -1e5), (True, -1e8), (False, -1e4)],
)
def test_custom_target_beyond_an_overflow_is_reached(closed_form, z):
    # The bracket search overflows math.exp at y = -1024, past the root
    # near y = -690.78 for z = -1e300; the other targets' roots lie where
    # adjacent floats of y move F by more than 1e-12.
    f = _exp_factor(closed_form)
    y = f.invert_antiderivative(z, 0.0)
    assert abs(f.reciprocal_antiderivative(y, 0.0) - z) <= 1e-13 * abs(z)


class TestInvertValues:
    """FactorBank.invert_values is an inversion pass followed by a value
    pass, bitwise, in one pass: every kind, the degenerate parameters that
    evaluate as a simpler kind, a bounded interval and a custom column."""

    FACTORS = tuple(make() for make in FACTORY.values()) + (
        Exponential(-1.5, 0.0),
        Power(0.8, 1.0),
        CustomFactor(
            value_fn=math.cosh,
            derivative_fn=math.sinh,
            antiderivative_fn=lambda y: math.atan(math.sinh(y)),
        ),
        Linear(1.0, validity=(0.5, 4.0)),
    )
    TAIL = 2

    def _targets(self, rng):
        """The bank, its anchors and a (5, r + TAIL) block of reachable z."""
        bank = FactorBank(self.FACTORS)
        anchors = np.array([_point_inside(f, 2.0) for f in self.FACTORS])
        us = rng.uniform(0.2, 4.8, 5)
        Y = np.array([[_point_inside(f, u) for f in self.FACTORS] for u in us])
        Z = bank.apply("reciprocal_antiderivative", Y, anchors)
        return bank, anchors, np.hstack([Z, rng.normal(size=(5, self.TAIL))])

    def test_equals_an_inversion_then_a_value_pass(self, rng):
        bank, anchors, Z = self._targets(rng)
        for z in (Z[0], Z):
            y = bank.apply("invert_antiderivative", z, anchors, out=z.copy())
            phi = bank.apply("value", y, out=np.ones(z.shape))
            out = z.copy()
            fused_y, fused_phi = bank.invert_values(z, anchors, out)
            assert fused_y is out
            assert fused_y.tobytes() == y.tobytes() and fused_phi.tobytes() == phi.tobytes()
            assert fused_phi.shape == z.shape and (fused_phi[..., bank.r :] == 1.0).all()

    def test_raises_as_the_inversion_does(self, rng):
        bank, anchors, Z = self._targets(rng)
        linear, custom, narrow = 0, bank.r - 2, bank.r - 1
        outside_anchor = anchors.copy()
        outside_anchor[narrow] = 5.0
        cases = [
            (linear, 1e6, anchors),  # out of range: exp overflows
            (custom, 10.0, anchors),  # out of a custom factor's range
            (narrow, math.log(8.0), anchors),  # maps outside validity: 8 times the anchor
            (narrow, 0.0, outside_anchor),  # an anchor outside validity
        ]
        for q, value, a in cases:
            for z in (Z[0].copy(), Z.copy()):
                z[..., q] = value
                with np.errstate(all="ignore"):  # the caller's, as for every bank pass
                    with pytest.raises(OutOfRangeError if a is anchors else OutOfValidityError) as exc:
                        bank.apply("invert_antiderivative", z, a, out=z.copy())
                    with pytest.raises(type(exc.value)) as fused:
                        bank.invert_values(z, a, z.copy())
                assert str(fused.value) == str(exc.value)
