"""Univariate factor functions and the factor bank.

Each factor is a scalar function phi(y) that is C1 and nonvanishing on an
open validity interval.  Besides evaluation and differentiation, factors
support the two operations the canonical-coordinate construction needs:
the anchored antiderivative of the reciprocal,

    F(y) = integral from anchor to y of dt / phi(t),

and its inverse.  Because phi keeps a fixed sign on the validity interval,
F is strictly monotone there and the inverse is well defined.

Built-in kinds (constant, linear, affine, exponential, power) write each
of the four operations once, in closed form, as a numpy expression (with
np.exp, np.log and np.power) over a column of arguments and vectors of
parameters.  A :class:`FactorBank` groups the factors of one spec by kind:
a pass over the r columns of a point (n,) or a block (P, n) is one
comparison of the arguments against the validity bounds (for inversions,
of the results too) plus one expression per kind; an inversion pass can
also evaluate phi at its results (FactorBank.invert_values).  numpy's
results do not depend on where an element sits in an array, so a block
gives bitwise the per-point results.  A single factor's methods are a
bank of one; they take a float or a 1-D array.

An argument or result outside its interval raises for the whole pass,
naming the first offending factor in column order and its first offending
element.  An exp that overflows, or a log of a non-positive number, gives
inf or nan, which fails the result check like any other unreachable
target; a bank pass leaves numpy's errstate to its caller, and each
public chart operation (a factor's, the chart's) quiets its own.  Each
:class:`CustomFactor` is a group of its own: its scalar methods
(adaptive quadrature, a bracketed root find) element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from .errors import (
    NoConvergenceError,
    OutOfRangeError,
    OutOfValidityError,
    PoissonKitError,
    QuadratureFailureError,
)

INF = math.inf

#: |F(y) - z| target, relative to max(1, |z|), for inverting an antiderivative.
INVERSION_TOL = 1e-12

#: Absolute tolerance requested from adaptive quadrature for custom factors.
QUADRATURE_TOL = 1e-12

#: |phi| threshold for the sampling-based nonvanishing heuristic.
VANISH_TOL = 1e-12


def _interval_str(lo: float, hi: float) -> str:
    return f"({lo!r}, {hi!r})"


@dataclass(frozen=True)
class FactorFunction:
    """Base class of the factor kinds.

    ``validity`` is an open interval (lo, hi), possibly unbounded, on which
    the factor is C1 and nonvanishing.  Built-in kinds define the four
    operations as static numpy formulas ``_value(y, *params)``,
    ``_derivative(y, *params)``, ``_reciprocal_antiderivative(y, anchor,
    *params)`` and ``_invert_antiderivative(z, anchor, *params)``, with the
    parameters in field order; a CustomFactor's are methods on one float,
    which a bank applies element by element as a group of its own.  The
    public methods evaluate them through a bank of one.
    """

    validity: tuple[float, float] = field(default=(-INF, INF), kw_only=True)

    #: The name of the kind in configs and reports.
    kind: ClassVar[str]

    def __post_init__(self):
        lo, hi = self.validity
        if not lo < hi:
            raise ValueError(f"validity interval {_interval_str(lo, hi)} is empty")

    def covers(self, lo: float, hi: float) -> bool:
        """True if the open interval (lo, hi) is contained in the validity interval."""
        vlo, vhi = self.validity
        return vlo <= lo and hi <= vhi

    def _outside(self, y) -> OutOfValidityError:
        return OutOfValidityError(
            f"{self.kind} factor: y = {float(y)!r} outside validity "
            f"{_interval_str(*self.validity)}"
        )

    def params(self) -> dict[str, float]:
        """Scalar parameters, for serialization: every field but ``validity``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "validity"}

    # -- the four capabilities ---------------------------------------------
    # Each takes y (or z) as a float or a 1-D array and returns the same
    # shape; the anchor is a float.

    @cached_property
    def _bank(self) -> FactorBank:
        return FactorBank((self,))

    def _one(self, name: str, y, *anchor):
        y = np.asarray(y, dtype=float)
        out = self._bank.apply(name, y[..., None], anchor or None)[..., 0]
        return out if y.ndim else float(out)

    def value(self, y):
        """phi(y)."""
        return self._one("value", y)

    def derivative(self, y):
        """phi'(y)."""
        return self._one("derivative", y)

    @np.errstate(all="ignore")
    def reciprocal_antiderivative(self, y, anchor: float):
        """F(y) = integral from anchor to y of dt / phi(t).

        Both y and anchor must lie in the validity interval.
        """
        return self._one("reciprocal_antiderivative", y, anchor)

    @np.errstate(all="ignore")
    def invert_antiderivative(self, z, anchor: float):
        """The unique y in the validity interval with F(y) = z.

        Raises OutOfRangeError when z is outside the range of F on the
        validity interval.
        """
        return self._one("invert_antiderivative", z, anchor)


@dataclass(frozen=True)
class Constant(FactorFunction):
    """phi(y) = c with c != 0."""

    kind = "constant"

    c: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.c == 0.0:
            raise ValueError("Constant factor requires c != 0")

    _value = staticmethod(lambda y, c: c)
    _derivative = staticmethod(lambda y, c: 0.0)
    _reciprocal_antiderivative = staticmethod(lambda y, a, c: (y - a) / c)
    _invert_antiderivative = staticmethod(lambda z, a, c: a + c * z)


@dataclass(frozen=True)
class Linear(FactorFunction):
    """phi(y) = slope * y on an interval excluding 0 (default (0, inf))."""

    kind = "linear"

    slope: float = 1.0
    validity: tuple[float, float] = field(default=(0.0, INF), kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        if self.slope == 0.0:
            raise ValueError("Linear factor requires slope != 0")
        lo, hi = self.validity
        if lo < 0.0 < hi:
            raise ValueError("Linear factor validity interval must exclude 0")

    _value = staticmethod(lambda y, slope: slope * y)
    _derivative = staticmethod(lambda y, slope: slope)
    # y and the anchor share a sign, so the quotient is positive.
    _reciprocal_antiderivative = staticmethod(lambda y, a, slope: np.log(y / a) / slope)
    _invert_antiderivative = staticmethod(lambda z, a, slope: a * np.exp(slope * z))


@dataclass(frozen=True)
class Affine(FactorFunction):
    """phi(y) = slope * y + intercept, away from the root -intercept/slope.

    The default validity interval is the branch where phi > 0.
    """

    kind = "affine"

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

    _value = staticmethod(lambda y, slope, b: slope * y + b)
    _derivative = staticmethod(lambda y, slope, b: slope)
    _reciprocal_antiderivative = staticmethod(
        lambda y, a, slope, b: np.log((slope * y + b) / (slope * a + b)) / slope
    )
    _invert_antiderivative = staticmethod(
        lambda z, a, slope, b: ((slope * a + b) * np.exp(slope * z) - b) / slope
    )


@dataclass(frozen=True)
class Exponential(FactorFunction):
    """phi(y) = amplitude * exp(rate * y), nonvanishing everywhere."""

    kind = "exponential"

    amplitude: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.amplitude == 0.0:
            raise ValueError("Exponential factor requires amplitude != 0")

    _value = staticmethod(lambda y, amp, rate: amp * np.exp(rate * y))
    _derivative = staticmethod(lambda y, amp, rate: rate * (amp * np.exp(rate * y)))

    @staticmethod
    def _reciprocal_antiderivative(y, a, amp, rate):
        return (np.exp(-rate * a) - np.exp(-rate * y)) / (amp * rate)

    @staticmethod
    def _invert_antiderivative(z, a, amp, rate):
        return -np.log(np.exp(-rate * a) - amp * rate * z) / rate


def _spread(p, t: np.ndarray) -> np.ndarray:
    """The exponents p as an array of t's shape.  numpy computes a
    broadcast (stride-0) exponent of 2, 0.5 or -1 as a square, square root
    or reciprocal, which can differ from its pow in the last bit."""
    return np.full(t.shape, p)


@dataclass(frozen=True)
class Power(FactorFunction):
    """phi(y) = coefficient * y**exponent on y > 0."""

    kind = "power"

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

    _value = staticmethod(lambda y, c, p: c * np.power(y, _spread(p, y)))
    _derivative = staticmethod(lambda y, c, p: c * p * np.power(y, _spread(p - 1.0, y)))

    @staticmethod
    def _reciprocal_antiderivative(y, a, c, p):
        q = 1.0 - p
        return (np.power(y, _spread(q, y)) - np.power(a, q)) / (c * q)

    @staticmethod
    def _invert_antiderivative(z, a, c, p):
        q = 1.0 - p
        t = np.power(a, q) + c * q * z
        # t <= 0 is past the end of F's range (nan: no preimage).
        return np.where(t > 0.0, np.power(t, _spread(1.0 / q, t)), np.nan)


@dataclass(frozen=True)
class CustomFactor(FactorFunction):
    """User-supplied factor: value and derivative callables are required.

    When no reciprocal-antiderivative callable is given, F(y) is computed by
    adaptive quadrature to QUADRATURE_TOL.  Either way F is inverted by
    Brent's method on a bracket found by expansion from the anchor.  A bank
    runs these methods element by element, as a group of its own; they give
    nan where its check is to fail, so that it names the offending element.
    Nonvanishing on a projected interval is not certified: build_spec
    samples it (sample_nonvanishing).
    """

    kind = "custom"

    value_fn: Callable[[float], float] | None = None
    derivative_fn: Callable[[float], float] | None = None
    antiderivative_fn: Callable[[float], float] | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.value_fn is None or self.derivative_fn is None:
            raise ValueError("CustomFactor requires value_fn and derivative_fn")

    def params(self) -> dict[str, float]:
        return {}

    def _value(self, y: float) -> float:
        return float(self.value_fn(y))

    def _derivative(self, y: float) -> float:
        return float(self.derivative_fn(y))

    def _reciprocal_antiderivative(self, y: float, anchor: float) -> float:
        lo, hi = self.validity
        if not (lo < y < hi and lo < anchor < hi):
            return math.nan
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

    def _invert_antiderivative(self, z: float, anchor: float) -> float:
        lo, hi = self.validity
        bracket = self._bracket(z, anchor) if lo < anchor < hi else None
        return math.nan if bracket is None else self._solve(z, anchor, *bracket)

    def sample_nonvanishing(self, lo: float, hi: float, num: int = 1000) -> float | None:
        """Heuristic check: sample the interval and return a witness where
        |phi| <= VANISH_TOL, or None if every sample clears the threshold.

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
            if abs(self.value_fn(y)) <= VANISH_TOL:
                return y
        return None

    # -- numeric inversion -------------------------------------------------

    def _bracket(self, z: float, anchor: float) -> tuple[float, float] | None:
        """Expand from the anchor toward z (using monotonicity of F) until
        F brackets it, respecting the open validity interval; None for a
        target the expansion cannot reach, because the interval ends or F
        stays short of it.  Where F raises or is not finite (the user
        function blows up), the step is halved back toward the last finite
        candidate.  The anchor is finite, so a candidate never reaches an
        infinite end."""
        if z == 0.0:
            return anchor, anchor
        increasing = float(self.value_fn(anchor)) > 0.0
        go_up = (z > 0.0) == increasing
        vlo, vhi = self.validity
        finite, width = 0.0, 1.0  # the widths of the last finite candidate and the next
        for _ in range(80):
            cand = anchor + width if go_up else anchor - width
            terminal = False
            if go_up and cand >= vhi:
                cand = vhi - 1e-12 * (1.0 + abs(vhi))
                terminal = True
            elif not go_up and cand <= vlo:
                cand = vlo + 1e-12 * (1.0 + abs(vlo))
                terminal = True
            try:
                f_cand = self._reciprocal_antiderivative(cand, anchor)
            except (OverflowError, ZeroDivisionError, ValueError):
                f_cand = math.nan
            if not math.isfinite(f_cand):
                width = 0.5 * (finite + width)
                continue
            if min(0.0, f_cand) <= z <= max(0.0, f_cand):
                return (anchor, cand) if go_up else (cand, anchor)
            if terminal:
                break
            finite, width = width, 2.0 * width
        return None

    def _solve(self, z: float, anchor: float, lo: float, hi: float) -> float:
        """The root of F(y) = z in the bracket [lo, hi] by Brent's method,
        refined to the float grid; NoConvergenceError unless
        |F(y) - z| <= INVERSION_TOL max(1, |z|)."""
        from scipy.optimize import brentq  # deferred: scipy.optimize is slow to import

        y = brentq(
            lambda t: self._reciprocal_antiderivative(t, anchor) - z,
            lo,
            hi,
            xtol=math.ulp(0.0),
            disp=False,
        )
        tolerance = INVERSION_TOL * max(1.0, abs(z))
        if not abs(self._reciprocal_antiderivative(y, anchor) - z) <= tolerance:
            raise NoConvergenceError(
                f"antiderivative inversion did not reach {tolerance:g}"
            )
        return y


#: The four operations of a factor, as a bank pass names them.
OPERATIONS = ("value", "derivative", "reciprocal_antiderivative", "invert_antiderivative")


def _group(q: int, f: FactorFunction) -> tuple[object, list[Callable], tuple[float, ...]]:
    """The key of f's bank group (f at column q), its formulas in OPERATIONS
    order and f's parameters for them.  A CustomFactor is a group of its
    own, keyed by its column (its callables need not hash): its scalar
    methods element by element.  An Exponential with rate 0 is a Constant
    and a Power with exponent 1 a Linear, so no formula divides by zero.
    (The Constant's zero derivative is +0.0 where rate * phi(y) gave -0.0.)"""
    if isinstance(f, CustomFactor):
        return q, [np.vectorize(getattr(f, "_" + n), otypes=[float]) for n in OPERATIONS], ()
    kind, params = type(f), tuple(f.params().values())
    if isinstance(f, Exponential) and f.rate == 0.0:
        kind, params = Constant, (f.amplitude,)
    elif isinstance(f, Power) and f.exponent == 1.0:
        kind, params = Linear, (f.coefficient,)
    return kind, [getattr(kind, "_" + n) for n in OPERATIONS], params


class FactorBank:
    """The factors of one spec in groups, for columnwise passes: one per
    built-in kind, and one per CustomFactor, evaluated element by element.

    Each group holds its columns (a slice when they are evenly spaced, so a
    pass takes a view), its parameters as vectors and its four formulas;
    ``lo`` and ``hi`` are the validity bounds of all r columns.  A pass is
    :meth:`apply`, or :meth:`invert_values` for F^{-1} and phi.
    """

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.r = len(self.factors)
        self.lo = np.array([f.validity[0] for f in self.factors], dtype=float)
        self.hi = np.array([f.validity[1] for f in self.factors], dtype=float)
        members = {}
        for q, f in enumerate(self.factors):
            key, formulas, params = _group(q, f)
            members.setdefault(key, (formulas, []))[1].append((q, params))
        self.passes = {name: [] for name in OPERATIONS}
        for formulas, group in members.values():
            cols = [q for q, _ in group]
            params = tuple(np.array(v) for v in zip(*(p for _, p in group)))
            step = cols[1] - cols[0] if len(cols) > 1 else 1
            if cols == list(range(cols[0], cols[-1] + 1, step)):
                cols = slice(cols[0], cols[-1] + 1, step)
            for name, formula in zip(OPERATIONS, formulas):
                self.passes[name].append((cols, formula, params))

    def __reduce__(self):
        # The formulas are lambdas, which pickle cannot name; rebuild instead.
        return FactorBank, (self.factors,)

    def apply(self, name: str, y, anchors=None, out=None) -> np.ndarray:
        """The operation ``name`` (value, derivative,
        reciprocal_antiderivative or invert_antiderivative) of factor q on
        column q of y, for q < r, with anchors[q] as its anchor for the
        last two: shape (r,) for a point y (n,), (P, r) for a block (P, n).
        Values and derivatives are evaluated only at valid arguments.  With
        ``out`` (not y itself), the results go to its first r columns and
        out is returned.
        """
        r = self.r
        y = np.asarray(y, dtype=float)[..., :r]
        res = np.empty(y.shape) if out is None else out[..., :r]
        a = () if anchors is None else (np.asarray(anchors, dtype=float),)
        inside = self.anchored(name, y, a[0], res) if a else (y > self.lo) & (y < self.hi)
        if np.count_nonzero(inside) < inside.size:
            first = int(np.argmin(inside.reshape(-1, r).all(axis=0)))
            raise self._error(name, first, y, a, res)
        for cols, formula, params in () if a else self.passes[name]:
            res[..., cols] = formula(y[..., cols], *params)
        return res if out is None else out

    def invert_values(self, z, anchors, out=None) -> tuple[np.ndarray, np.ndarray]:
        """y = apply("invert_antiderivative", z, anchors, out) and phi(y),
        shaped like y with 1 past column r (dy/dz of the quadrature chart),
        in one pass: the value formulas run unchecked at the checked y."""
        y = self.apply("invert_antiderivative", z, anchors, out)
        phi = np.ones(y.shape)
        for cols, formula, params in self.passes["value"]:
            phi[..., cols] = formula(y[..., cols], *params)
        return y, phi

    def anchored(self, name: str, y: np.ndarray, a: np.ndarray, res: np.ndarray):
        """A chart operation's formulas into res, unchecked, and where the
        arguments (for inversions, the results) and the anchors are inside.
        Its formulas overflow or divide by zero at unreachable targets, and
        the caller owns the errstate: each chart entry quiets its own pass,
        and the step loop runs all of its passes under one scope."""
        for cols, formula, params in self.passes[name]:
            res[..., cols] = formula(y[..., cols], a[cols], *params)
        # Both are inside when the smaller is above lo and the larger below
        # hi; nan fails both.
        v = res if name == "invert_antiderivative" else y
        return (np.minimum(v, a) > self.lo) & (np.maximum(v, a) < self.hi)

    def _error(self, name: str, q: int, y, a, res) -> PoissonKitError:
        """The error of a pass that fails at column q: an argument outside
        validity (y before the anchor; for inversions the anchor alone),
        else the first z whose result is outside."""
        f, lo, hi = self.factors[q], self.lo[q], self.hi[q]
        args = y[..., q].reshape(-1)
        outside = ~((args > lo) & (args < hi))
        if name != "invert_antiderivative" and outside.any():
            return f._outside(args[np.argmax(outside)])
        if a and not lo < a[0][q] < hi:
            return f._outside(a[0][q])
        result = res[..., q].reshape(-1)
        k = int(np.argmin((result > lo) & (result < hi)))
        if math.isfinite(result[k]):
            return OutOfRangeError(f"z = {float(args[k])!r} maps outside validity interval")
        return OutOfRangeError(f"z = {float(args[k])!r} outside the antiderivative range")


#: Built-in factor kinds addressable from configuration files.
FACTOR_KINDS = {
    "constant": Constant,
    "linear": Linear,
    "affine": Affine,
    "exponential": Exponential,
    "power": Power,
}
