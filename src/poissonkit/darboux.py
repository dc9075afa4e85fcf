"""Constructive global reduction to canonical coordinates.

The reduction runs in two stages, both diffeomorphisms on the certified
box: the linear chart y = B.x, which compresses the structure matrix to
2x2 blocks with entries +-phi_{2p-1}(y_{2p-1}) phi_{2p}(y_{2p}), and the
componentwise quadrature chart z_i = F_i(y_i) (anchored antiderivative of
1/phi_i) for i <= r, identity elsewhere.  In z-coordinates the structure
matrix is the constant canonical block matrix: r/2 blocks [[0, 1], [-1, 0]]
followed by an (n - r) zero block.  Rows r+1..n of B are a complete set of
linear Casimir coefficient vectors, and the chart leaves those coordinates
untouched, so Casimir levels are preserved exactly.

The chart maps and their inverses take one point (n,) or a (P, n) block;
validation and certification check a whole sample block at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    CertificationFailureError,
    EmptyDomainSampleError,
    OutOfRangeError,
    OutOfValidityError,
    PoissonKitError,
)
from .factors import FactorFunction
from .structure import (
    MultiseparableSpec,
    evaluate_structure,
    factor_columns,
    matvec,
    point_blocks,
)

#: forward/inverse composition tolerance certified at chart construction.
ROUND_TRIP_TOL = 1e-10

#: default entrywise tolerance for canonical-form certification.
CANONICAL_TOL = 1e-9

#: size and seed of the low-discrepancy sample that validates every chart.
VALIDATION_POINTS = 100
VALIDATION_SEED = 0


def casimirs(spec: MultiseparableSpec) -> np.ndarray:
    """Coefficient vectors of the n - r linear Casimirs (rows r+1..n of B).

    The returned rows have full row rank n - r because B is invertible, and
    each satisfies J(x) . c = 0 everywhere on the domain.
    """
    return np.array(spec.B[spec.r :], dtype=float)


def linear_chart(spec: MultiseparableSpec, x) -> np.ndarray:
    """y = B.x."""
    return matvec(spec.B, np.asarray(x, dtype=float))


def inverse_linear_chart(spec: MultiseparableSpec, y) -> np.ndarray:
    """x = A.y using the cached inverse."""
    return matvec(spec.A, np.asarray(y, dtype=float))


def pushforward(field, map_fn: Callable, jacobian_fn: Callable, x) -> np.ndarray:
    """Transform a structure matrix under a change of variables y = map(x):

        J*_ij(y) = sum_kl (dy_i/dx_k) J_kl(x) (dy_j/dx_l)

    evaluated at y = map(x).  ``field`` is a StructureField-like object
    exposing ``evaluate`` and ``domain``.
    """
    x = field.domain.require_inside(x)
    M = np.asarray(jacobian_fn(x), dtype=float)
    J = np.asarray(field.evaluate(x))
    return M @ J @ M.T


def linear_chart_pushforward(spec: MultiseparableSpec, x) -> np.ndarray:
    """J*(y) at y = B.x: the 2x2-block compression of J under the linear
    chart, or the (P, n, n) stack of them for a (P, n) block."""
    return spec.B @ evaluate_structure(spec, x) @ spec.B.T


def default_anchors(spec: MultiseparableSpec) -> tuple[float, ...]:
    """Antiderivative anchors: midpoint of the projected interval when it is
    bounded, one unit inside its finite end when half-bounded, else 0.

    Anchors shift each z_i by a constant and cancel from dz_i/dy_i, so the
    canonical form does not depend on this choice; it is recorded on the
    chart for reproducibility.
    """
    anchors = []
    for lo, hi in spec.projected_intervals:
        if math.isfinite(lo) and math.isfinite(hi):
            anchors.append(0.5 * (lo + hi))
        elif math.isfinite(lo):
            anchors.append(lo + 1.0)
        elif math.isfinite(hi):
            anchors.append(hi - 1.0)
        else:
            anchors.append(0.0)
    return tuple(anchors)


def quadrature_chart(spec: MultiseparableSpec, anchors, y) -> np.ndarray:
    """z from y: z_i = F_i(y_i) for i <= r, z_i = y_i for i > r."""
    y = np.asarray(y, dtype=float)
    return factor_columns(spec, "reciprocal_antiderivative", y, y.copy(), anchors)


def inverse_quadrature_chart(spec: MultiseparableSpec, anchors, z) -> np.ndarray:
    """y from z, inverting each anchored antiderivative."""
    z = np.asarray(z, dtype=float)
    return factor_columns(spec, "invert_antiderivative", z, z.copy(), anchors)


def canonical_matrix(n: int, r: int) -> np.ndarray:
    """r/2 blocks [[0, 1], [-1, 0]] followed by an (n - r) zero block."""
    K = np.zeros((n, n))
    for p in range(r // 2):
        K[2 * p, 2 * p + 1] = 1.0
        K[2 * p + 1, 2 * p] = -1.0
    return K


def _antiderivative_limit(f: FactorFunction, y_end: float, anchor: float) -> float:
    """Monotone limit of F at an interval endpoint, found by approach from
    inside.  Divergence (including slow, logarithmic divergence) is
    detected by non-shrinking increments between probes and reported as
    +-inf; arithmetic blow-up at a probe counts as divergence.  For custom
    factors without a closed form the innermost probe value is used, so
    those bounds are approximate."""
    increasing = f.value(anchor) > 0
    toward_upper = y_end > anchor
    diverged = math.inf if toward_upper == increasing else -math.inf
    if math.isfinite(y_end):
        probes = [y_end + (anchor - y_end) * s for s in (1e-3, 1e-6, 1e-9)]
    else:
        sign = 1.0 if y_end > 0 else -1.0
        probes = [sign * 10.0**k for k in (3, 6, 9)]
        probes = [p for p in probes if f.validity[0] < p < f.validity[1]]
        if not probes:
            probes = [anchor]
    vals = []
    for p in probes:
        try:
            vals.append(f.reciprocal_antiderivative(p, anchor))
        except (ArithmeticError, ValueError, PoissonKitError):
            return diverged
    if len(vals) >= 3:
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        if d2 > 1e-9 * (1.0 + abs(vals[2])) and d2 >= 0.45 * d1:
            return diverged
    return vals[-1]


@dataclass(frozen=True)
class DarbouxChart:
    """Composite diffeomorphism x -> z and its inverse.

    ``image_lower``/``image_upper`` bound the z-image of the domain box
    (componentwise monotone propagation of the projected intervals);
    membership in the exact image is decided by mapping back.
    """

    spec: MultiseparableSpec
    anchors: tuple[float, ...]
    image_lower: np.ndarray = field(repr=False)
    image_upper: np.ndarray = field(repr=False)
    validated: bool = True

    @property
    def block_count(self) -> int:
        return self.spec.r // 2

    def forward(self, x) -> np.ndarray:
        spec = self.spec
        return quadrature_chart(spec, self.anchors, linear_chart(spec, x))

    def inverse(self, z) -> np.ndarray:
        spec = self.spec
        return inverse_linear_chart(
            spec, inverse_quadrature_chart(spec, self.anchors, z)
        )

    def forward_jacobian(self, x) -> np.ndarray:
        """dz/dx = diag(1/phi_i(y_i), 1) . B, analytic."""
        spec = self.spec
        phi = factor_columns(spec, "value", linear_chart(spec, x), np.ones(spec.n))
        return (1.0 / phi)[:, None] * spec.B

    def inverse_jacobian(self, z) -> np.ndarray:
        """dx/dz = A . diag(phi_i(y_i), 1), analytic."""
        spec = self.spec
        y = inverse_quadrature_chart(spec, self.anchors, z)
        return spec.A * factor_columns(spec, "value", y, np.ones(spec.n))[None, :]

    def contains_image(self, z) -> bool:
        """True when z is the image of a domain point."""
        try:
            x = self.inverse(z)
        except (OutOfRangeError, OutOfValidityError):
            return False
        return self.spec.domain.contains(x)


def darboux_chart(spec: MultiseparableSpec, anchors=None) -> DarbouxChart:
    """Build the composite chart and certify its invariants on a sample.

    For r = 0 the quadrature stage is the identity and the chart reduces
    to the linear change of variables (already canonical, since J is the
    zero matrix).  Validation checks the forward and inverse composition
    to ROUND_TRIP_TOL at VALIDATION_POINTS low-discrepancy points (seed
    VALIDATION_SEED) and raises CertificationFailureError at the first
    point that fails; it is skipped, and the chart carries
    ``validated=False``, when the domain is unbounded and has no sample box.
    """
    if anchors is None:
        anchors = default_anchors(spec)
    anchors = tuple(float(a) for a in anchors)
    if len(anchors) != spec.r:
        raise ValueError(f"expected {spec.r} anchors, got {len(anchors)}")

    # y-stage bounding box, then componentwise monotone z-images.
    y_lo = np.empty(spec.n)
    y_hi = np.empty(spec.n)
    for i in range(spec.n):
        y_lo[i], y_hi[i] = spec.domain.projected_interval(spec.B[i])
    z_lo = y_lo.copy()
    z_hi = y_hi.copy()
    for q, f in enumerate(spec.factors):
        a = _antiderivative_limit(f, y_lo[q], anchors[q])
        b = _antiderivative_limit(f, y_hi[q], anchors[q])
        z_lo[q], z_hi[q] = min(a, b), max(a, b)
    z_lo.setflags(write=False)
    z_hi.setflags(write=False)

    try:
        points = spec.domain.halton_points(VALIDATION_POINTS, VALIDATION_SEED)
    except EmptyDomainSampleError:
        points = None
    chart = DarbouxChart(
        spec=spec,
        anchors=anchors,
        image_lower=z_lo,
        image_upper=z_hi,
        validated=points is not None,
    )
    if points is not None:
        err, coord, within = _round_trip(chart, points, ROUND_TRIP_TOL)
        if not within.all():
            k = int(np.argmin(within))
            raise CertificationFailureError(
                points[k],
                (coord[k], 0),
                err[k],
                f"chart round trip error {err[k]:.3e} exceeds {ROUND_TRIP_TOL:g}",
            )
    return chart


def _round_trip(chart: DarbouxChart, points: np.ndarray, tolerance: float):
    """Per point of a (P, n) block: the round-trip error max|x' - x| with
    x' = inverse(forward(x)), its coordinate (1-based), and whether it is
    within tolerance * (1 + max|x|)."""
    diff = np.abs(chart.inverse(chart.forward(points)) - points)
    err = diff.max(axis=1)
    within = err <= tolerance * (1.0 + np.abs(points).max(axis=1))
    return err, diff.argmax(axis=1) + 1, within


@dataclass(frozen=True)
class CanonicalReport:
    """Outcome of canonical-form certification."""

    num_points: int
    tolerance: float
    round_trip_tolerance: float
    max_deviation: float
    max_round_trip_error: float
    passed: bool


def certify_canonical(
    spec: MultiseparableSpec,
    chart: DarbouxChart,
    num_points: int = 100,
    tolerance: float = CANONICAL_TOL,
    seed: int = 0,
    round_trip_tolerance: float = ROUND_TRIP_TOL,
) -> CanonicalReport:
    """Certify that the chart carries J to the canonical block matrix.

    At each sample x the structure matrix is pushed through the composite
    chart with analytic Jacobians (B, then diag(1/phi_i)) and compared
    entrywise to the canonical matrix; the forward/inverse composition is
    checked at the same points.  The sample is checked a block of points
    at a time (see :func:`~poissonkit.structure.point_blocks`).  Raises
    CertificationFailureError with the first failing point and its worst
    entry when either check exceeds its tolerance.
    """
    target = canonical_matrix(spec.n, spec.r)
    points = spec.domain.halton_points(num_points, seed)
    max_dev = 0.0
    max_rt = 0.0
    for X in point_blocks(points, spec.n):
        # 1/phi_i(y_i) for i <= r and 1 elsewhere: the quadrature stage's Jacobian.
        d = 1.0 / factor_columns(spec, "value", linear_chart(spec, X), np.ones(X.shape))
        dev = linear_chart_pushforward(spec, X)
        dev *= d[:, :, None]
        dev *= d[:, None, :]
        dev -= target
        np.abs(dev, out=dev)
        worst = dev.max(axis=(1, 2))
        rt, coord, rt_within = _round_trip(chart, X, round_trip_tolerance)
        dev_failed = worst > tolerance
        # The first failing point, checking deviation before round trip.
        failed = np.flatnonzero(dev_failed | ~rt_within)
        if failed.size:
            k = int(failed[0])
            if dev_failed[k]:
                entry = np.unravel_index(int(np.argmax(dev[k])), dev[k].shape)
                raise CertificationFailureError(
                    X[k], (entry[0] + 1, entry[1] + 1), worst[k]
                )
            raise CertificationFailureError(
                X[k],
                (coord[k], 0),
                rt[k],
                f"round trip error {rt[k]:.3e} exceeds {round_trip_tolerance:g}",
            )
        max_dev = max(max_dev, float(worst.max()))
        max_rt = max(max_rt, float(rt.max()))
    return CanonicalReport(
        num_points=num_points,
        tolerance=float(tolerance),
        round_trip_tolerance=float(round_trip_tolerance),
        max_deviation=max_dev,
        max_round_trip_error=max_rt,
        passed=True,
    )
