"""Univariate factor functions.

Each factor is a scalar function phi(y) that is C1 and nonvanishing on an
open validity interval.  Besides evaluation and differentiation, factors
support the two operations the canonical-coordinate construction needs:
the anchored antiderivative of the reciprocal,

    F(y) = integral from anchor to y of dt / phi(t),

and its inverse.  Because phi keeps a fixed sign on the validity interval,
F is strictly monotone there and the inverse is well defined.

Built-in kinds (constant, linear, affine, exponential, power) implement
both operations in closed form; :class:`CustomFactor` falls back to
adaptive quadrature and a bracketed root find.

The four operations take a float or a 1-D array of arguments (one anchor
per call).  Arrays go through numpy arithmetic, but exp, log and power are
applied element by element through the same ``math.exp``, ``math.log`` and
``**`` calls that floats use, so an array call returns bitwise the values
of the scalar calls (numpy's vectorized transcendentals may differ from
libm in the last bit).  An argument or result outside its interval raises
for the whole array, naming the first offending element.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    NoConvergenceError,
    OutOfRangeError,
    OutOfValidityError,
    QuadratureFailureError,
)

INF = math.inf

#: |F(y) - z| target for numeric inversion of the anchored antiderivative.
INVERSION_TOL = 1e-12

#: Absolute tolerance requested from adaptive quadrature for custom factors.
QUADRATURE_TOL = 1e-12


def _interval_str(lo: float, hi: float) -> str:
    return f"({lo!r}, {hi!r})"


def _libm(fn, t):
    """fn(t) for a scalar t; for an array, fn of each element, so both give
    the same libm results."""
    if type(t) is float or not isinstance(t, np.ndarray):
        return fn(t)
    return np.fromiter(map(fn, t.tolist()), float, t.size)


def _power(t, p: float):
    """t**p, element by element for an array (see :func:`_libm`)."""
    return _libm(lambda v: v**p, t)


def _like(y, c: float):
    """The constant c, shaped like y (a float or an array)."""
    return c if type(y) is float else np.full(y.shape, c)


def _first(v, mask) -> float:
    """The first element of v where mask holds (v itself for a scalar)."""
    return float(v[int(np.argmax(mask))]) if isinstance(v, np.ndarray) else float(v)


def _require_positive(t, z) -> None:
    """Raise OutOfRangeError when some t <= 0, naming its z."""
    if isinstance(t, np.ndarray):
        bad = t <= 0.0
        if not bad.any():
            return
        z = _first(z, bad)
    elif not t <= 0.0:
        return
    raise OutOfRangeError(f"z = {float(z)!r} outside the antiderivative range")


def _overflow(z) -> OutOfRangeError:
    z = z.tolist() if isinstance(z, np.ndarray) else float(z)
    return OutOfRangeError(f"z = {z!r} outside the antiderivative range (overflow)")


def _elementwise(method):
    """Give a scalar-only method the float-or-array signature by looping."""

    @functools.wraps(method)
    def apply(self, y, *args):
        if isinstance(y, np.ndarray) and y.ndim:
            return np.array([method(self, v, *args) for v in y.tolist()], dtype=float)
        return method(self, y, *args)

    return apply


@dataclass(frozen=True)
class FactorFunction:
    """Base class; concrete kinds override the four operations.

    ``validity`` is an open interval (lo, hi), possibly unbounded, on which
    the factor is C1 and nonvanishing.
    """

    validity: tuple[float, float] = field(default=(-INF, INF), kw_only=True)

    def __post_init__(self):
        lo, hi = self.validity
        if not lo < hi:
            raise ValueError(f"validity interval {_interval_str(lo, hi)} is empty")

    # -- interval helpers -------------------------------------------------

    def covers(self, lo: float, hi: float) -> bool:
        """True if the open interval (lo, hi) is contained in the validity interval."""
        vlo, vhi = self.validity
        return vlo <= lo and hi <= vhi

    def _check(self, y):
        """y (a float or a 1-D array) inside the validity interval."""
        lo, hi = self.validity
        if type(y) is float or not (isinstance(y, np.ndarray) and y.ndim):
            y = float(y)
            if lo < y < hi:
                return y
        else:
            y = y.astype(float, copy=False)
            outside = ~((y > lo) & (y < hi))
            if not outside.any():
                return y
            y = _first(y, outside)
        raise OutOfValidityError(
            f"{self.kind} factor: y = {y!r} outside validity {_interval_str(lo, hi)}"
        )

    def _in_validity(self, y, z):
        """An inversion result y, when it lies in the validity interval;
        OutOfRangeError naming the first offending z otherwise."""
        lo, hi = self.validity
        if type(y) is float:
            if lo < y < hi:
                return y
            outside = True
        else:
            outside = ~((y > lo) & (y < hi))
            if not outside.any():
                return y
        raise OutOfRangeError(
            f"z = {_first(z, outside)!r} maps outside validity interval"
        )

    # -- descriptor -------------------------------------------------------

    @property
    def kind(self) -> str:
        raise NotImplementedError

    def params(self) -> dict[str, float]:
        """Scalar parameters, for serialization."""
        raise NotImplementedError

    # -- the four capabilities ---------------------------------------------
    # Each takes y (or z) as a float or a 1-D array and returns the same
    # shape; the anchor is a float.

    def value(self, y):
        """phi(y)."""
        raise NotImplementedError

    def derivative(self, y):
        """phi'(y)."""
        raise NotImplementedError

    def reciprocal_antiderivative(self, y, anchor: float):
        """F(y) = integral from anchor to y of dt / phi(t).

        Both y and anchor must lie in the validity interval.
        """
        raise NotImplementedError

    def invert_antiderivative(self, z, anchor: float):
        """The unique y in the validity interval with F(y) = z.

        Raises OutOfRangeError when z is outside the range of F on the
        validity interval.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(FactorFunction):
    """phi(y) = c with c != 0."""

    c: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.c == 0.0:
            raise ValueError("Constant factor requires c != 0")

    @property
    def kind(self) -> str:
        return "constant"

    def params(self) -> dict[str, float]:
        return {"c": self.c}

    def value(self, y):
        return _like(self._check(y), self.c)

    def derivative(self, y):
        return _like(self._check(y), 0.0)

    def reciprocal_antiderivative(self, y, anchor: float):
        y = self._check(y)
        anchor = self._check(anchor)
        return (y - anchor) / self.c

    def invert_antiderivative(self, z, anchor: float):
        anchor = self._check(anchor)
        return self._in_validity(anchor + self.c * z, z)


@dataclass(frozen=True)
class Linear(FactorFunction):
    """phi(y) = slope * y on an interval excluding 0 (default (0, inf))."""

    slope: float = 1.0
    validity: tuple[float, float] = field(default=(0.0, INF), kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if self.slope == 0.0:
            raise ValueError("Linear factor requires slope != 0")
        lo, hi = self.validity
        if lo < 0.0 < hi:
            raise ValueError("Linear factor validity interval must exclude 0")

    @property
    def kind(self) -> str:
        return "linear"

    def params(self) -> dict[str, float]:
        return {"slope": self.slope}

    def value(self, y):
        return self.slope * self._check(y)

    def derivative(self, y):
        return _like(self._check(y), self.slope)

    def reciprocal_antiderivative(self, y, anchor: float):
        y = self._check(y)
        anchor = self._check(anchor)
        # y and anchor share a sign, so the quotient is positive.
        return _libm(math.log, y / anchor) / self.slope

    def invert_antiderivative(self, z, anchor: float):
        anchor = self._check(anchor)
        try:
            y = anchor * _libm(math.exp, self.slope * z)
        except OverflowError:
            raise _overflow(z) from None
        return self._in_validity(y, z)


@dataclass(frozen=True)
class Affine(FactorFunction):
    """phi(y) = slope * y + intercept, away from the root -intercept/slope.

    The default validity interval is the branch where phi > 0.
    """

    slope: float = 1.0
    intercept: float = 0.0
    validity: tuple[float, float] = field(default=(math.nan, math.nan), kw_only=True)

    def __post_init__(self):
        if self.slope == 0.0:
            raise ValueError("Affine factor requires slope != 0 (use Constant)")
        root = -self.intercept / self.slope
        lo, hi = self.validity
        if math.isnan(lo) or math.isnan(hi):
            chosen = (root, INF) if self.slope > 0 else (-INF, root)
            object.__setattr__(self, "validity", chosen)
            lo, hi = chosen
        super().__post_init__()
        if lo < root < hi:
            raise ValueError(
                f"Affine factor validity interval must exclude the root {root!r}"
            )

    @property
    def kind(self) -> str:
        return "affine"

    def params(self) -> dict[str, float]:
        return {"slope": self.slope, "intercept": self.intercept}

    def value(self, y):
        return self.slope * self._check(y) + self.intercept

    def derivative(self, y):
        return _like(self._check(y), self.slope)

    def reciprocal_antiderivative(self, y, anchor: float):
        y = self._check(y)
        anchor = self._check(anchor)
        u = self.slope * y + self.intercept
        u0 = self.slope * anchor + self.intercept
        return _libm(math.log, u / u0) / self.slope

    def invert_antiderivative(self, z, anchor: float):
        anchor = self._check(anchor)
        u0 = self.slope * anchor + self.intercept
        try:
            y = (u0 * _libm(math.exp, self.slope * z) - self.intercept) / self.slope
        except OverflowError:
            raise _overflow(z) from None
        return self._in_validity(y, z)


@dataclass(frozen=True)
class Exponential(FactorFunction):
    """phi(y) = amplitude * exp(rate * y), nonvanishing everywhere."""

    amplitude: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.amplitude == 0.0:
            raise ValueError("Exponential factor requires amplitude != 0")

    @property
    def kind(self) -> str:
        return "exponential"

    def params(self) -> dict[str, float]:
        return {"amplitude": self.amplitude, "rate": self.rate}

    def value(self, y):
        return self.amplitude * _libm(math.exp, self.rate * self._check(y))

    def derivative(self, y):
        return self.rate * self.value(y)

    def reciprocal_antiderivative(self, y, anchor: float):
        y = self._check(y)
        anchor = self._check(anchor)
        if self.rate == 0.0:
            return (y - anchor) / self.amplitude
        return (math.exp(-self.rate * anchor) - _libm(math.exp, -self.rate * y)) / (
            self.amplitude * self.rate
        )

    def invert_antiderivative(self, z, anchor: float):
        anchor = self._check(anchor)
        if self.rate == 0.0:
            return self._in_validity(anchor + self.amplitude * z, z)
        try:
            t = math.exp(-self.rate * anchor) - self.amplitude * self.rate * z
        except OverflowError:
            raise _overflow(z) from None
        _require_positive(t, z)
        return self._in_validity(-_libm(math.log, t) / self.rate, z)


@dataclass(frozen=True)
class Power(FactorFunction):
    """phi(y) = coefficient * y**exponent on y > 0."""

    coefficient: float = 1.0
    exponent: float = 1.0
    validity: tuple[float, float] = field(default=(0.0, INF), kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if self.coefficient == 0.0:
            raise ValueError("Power factor requires coefficient != 0")
        lo, hi = self.validity
        if lo < 0.0:
            raise ValueError("Power factor validity interval must lie in y > 0")

    @property
    def kind(self) -> str:
        return "power"

    def params(self) -> dict[str, float]:
        return {"coefficient": self.coefficient, "exponent": self.exponent}

    def value(self, y):
        return self.coefficient * _power(self._check(y), self.exponent)

    def derivative(self, y):
        y = self._check(y)
        return self.coefficient * self.exponent * _power(y, self.exponent - 1.0)

    def reciprocal_antiderivative(self, y, anchor: float):
        y = self._check(y)
        anchor = self._check(anchor)
        p = self.exponent
        if p == 1.0:
            return _libm(math.log, y / anchor) / self.coefficient
        q = 1.0 - p
        return (_power(y, q) - anchor**q) / (self.coefficient * q)

    def invert_antiderivative(self, z, anchor: float):
        anchor = self._check(anchor)
        p = self.exponent
        try:
            if p == 1.0:
                y = anchor * _libm(math.exp, self.coefficient * z)
            else:
                q = 1.0 - p
                t = anchor**q + self.coefficient * q * z
                _require_positive(t, z)
                y = _power(t, 1.0 / q)
        except OverflowError:
            raise _overflow(z) from None
        return self._in_validity(y, z)


@dataclass(frozen=True)
class CustomFactor(FactorFunction):
    """User-supplied factor: value and derivative callables are required.

    When no reciprocal-antiderivative callable is given, F(y) is computed by
    adaptive quadrature to QUADRATURE_TOL and inverted by Brent's method on
    a bracket found by expansion from the anchor.  Nonvanishing on a projected
    interval can only be checked heuristically by sampling; structure specs
    built from custom factors carry a warning flag for that reason.
    """

    value_fn: Callable[[float], float] | None = None
    derivative_fn: Callable[[float], float] | None = None
    antiderivative_fn: Callable[[float], float] | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.value_fn is None or self.derivative_fn is None:
            raise ValueError("CustomFactor requires value_fn and derivative_fn")

    @property
    def kind(self) -> str:
        return "custom"

    def params(self) -> dict[str, float]:
        return {}

    @_elementwise
    def value(self, y: float) -> float:
        return float(self.value_fn(self._check(y)))

    @_elementwise
    def derivative(self, y: float) -> float:
        return float(self.derivative_fn(self._check(y)))

    @_elementwise
    def reciprocal_antiderivative(self, y: float, anchor: float) -> float:
        y = self._check(y)
        anchor = self._check(anchor)
        if self.antiderivative_fn is not None:
            return float(self.antiderivative_fn(y)) - float(self.antiderivative_fn(anchor))
        if y == anchor:
            return 0.0
        from scipy.integrate import quad  # deferred: scipy.integrate is slow to import

        result, est_err = quad(
            lambda t: 1.0 / self.value_fn(t),
            anchor,
            y,
            epsabs=QUADRATURE_TOL,
            epsrel=QUADRATURE_TOL,
            limit=200,
        )
        if est_err > 1e-10 * max(1.0, abs(result)):
            raise QuadratureFailureError(
                f"quadrature error estimate {est_err:.3e} exceeds tolerance"
            )
        return float(result)

    @_elementwise
    def invert_antiderivative(self, z: float, anchor: float) -> float:
        anchor = self._check(anchor)
        z = float(z)
        lo, hi = self._bracket(z, anchor)
        return self._solve(z, anchor, lo, hi)

    def sample_nonvanishing(
        self, lo: float, hi: float, num: int = 1000, tol: float = 1e-12
    ) -> float | None:
        """Heuristic check: sample the interval and return a witness where
        |phi| <= tol, or None if every sample clears the threshold.

        Unbounded intervals are clipped to a width-2000 window around their
        finite end (or 0); endpoints are inset so open-interval factors that
        vanish only at the boundary are not falsely flagged.
        """
        if not math.isfinite(lo):
            lo = (hi if math.isfinite(hi) else 0.0) - 1000.0
        if not math.isfinite(hi):
            hi = lo + 1000.0 if math.isfinite(lo) else 1000.0
        inset = 1e-9 * (1.0 + max(abs(lo), abs(hi)))
        lo, hi = lo + inset, hi - inset
        if hi <= lo:
            return None
        for k in range(num + 1):
            y = lo + (hi - lo) * k / num
            if abs(self.value_fn(y)) <= tol:
                return y
        return None

    # -- numeric inversion -------------------------------------------------

    def _bracket(self, z: float, anchor: float) -> tuple[float, float]:
        """Expand from the anchor toward z (using monotonicity of F) until
        F brackets it, respecting the open validity interval.  Targets the
        expansion cannot reach, because the interval ends or the user
        function blows up first, raise OutOfRangeError."""
        if z == 0.0:
            return anchor, anchor
        increasing = float(self.value_fn(anchor)) > 0.0
        go_up = (z > 0.0) == increasing
        vlo, vhi = self.validity
        width = 1.0
        for _ in range(80):
            cand = anchor + width if go_up else anchor - width
            terminal = False
            if go_up and cand >= vhi:
                if not math.isfinite(vhi):
                    raise OutOfRangeError(f"z = {z!r} outside the antiderivative range")
                cand = vhi - 1e-12 * (1.0 + abs(vhi))
                terminal = True
            elif not go_up and cand <= vlo:
                if not math.isfinite(vlo):
                    raise OutOfRangeError(f"z = {z!r} outside the antiderivative range")
                cand = vlo + 1e-12 * (1.0 + abs(vlo))
                terminal = True
            try:
                f_cand = self.reciprocal_antiderivative(cand, anchor)
            except (OverflowError, ZeroDivisionError, ValueError) as exc:
                raise OutOfRangeError(
                    f"z = {z!r} unreachable before arithmetic failed at y = {cand!r}"
                ) from exc
            if min(0.0, f_cand) <= z <= max(0.0, f_cand):
                return (anchor, cand) if go_up else (cand, anchor)
            if terminal:
                break
            width *= 2.0
        raise OutOfRangeError(f"z = {z!r} outside the antiderivative range")

    def _solve(self, z: float, anchor: float, lo: float, hi: float) -> float:
        """The root of F(y) = z in the bracket [lo, hi] by Brent's method,
        refined to the float grid; NoConvergenceError unless
        |F(y) - z| <= INVERSION_TOL."""
        from scipy.optimize import brentq  # deferred: scipy.optimize is slow to import

        y = brentq(
            lambda t: self.reciprocal_antiderivative(t, anchor) - z,
            lo,
            hi,
            xtol=math.ulp(0.0),
            disp=False,
        )
        if not abs(self.reciprocal_antiderivative(y, anchor) - z) <= INVERSION_TOL:
            raise NoConvergenceError(
                f"antiderivative inversion did not reach {INVERSION_TOL:g}"
            )
        return y


#: Built-in factor kinds addressable from configuration files.
FACTOR_KINDS = {
    "constant": Constant,
    "linear": Linear,
    "affine": Affine,
    "exponential": Exponential,
    "power": Power,
}
