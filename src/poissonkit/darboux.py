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

One object, :class:`DarbouxChart`, is the chart, fixed by the spec and
one anchor per factor: it binds them when it is built, and its maps and
Jacobians form y = B.x and the quadrature pass themselves, for one point
(n,) or a (P, n) block (a (P, n, n) stack of Jacobians).  Certification
takes the chart alone; it and validation check a whole sample block at
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationFailureError, EmptyDomainSampleError
from .factors import BoundChart
from .structure import (
    MultiseparableSpec,
    matvec,
    non_finite_error,
    point_blocks,
    skew_sum,
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


def _linear_pushforward(spec: MultiseparableSpec, J: np.ndarray) -> np.ndarray:
    """B J B^T for a structure matrix J or a stack of them, written over J
    so that a block holds one stack fewer."""
    return np.matmul(spec.B @ J, spec.B.T, out=J)


def default_anchors(spec: MultiseparableSpec) -> tuple[float, ...]:
    """Antiderivative anchors: midpoint of the projected interval when it is
    bounded, one unit inside its finite end when half-bounded, else 0.

    Each anchor lies strictly inside its interval: a midpoint whose sum
    lo + hi overflows is taken from the halved ends, and a unit step that
    rounds back to a large end becomes a step to the next float.  Anchors
    shift each z_i by a constant and cancel from dz_i/dy_i, so the
    canonical form does not depend on this choice; it is recorded on the
    chart for reproducibility.
    """
    anchors = []
    for lo, hi in spec.projected_intervals[: spec.r]:
        if math.isfinite(lo) and math.isfinite(hi):
            mid = 0.5 * (lo + hi)
            anchors.append(mid if math.isfinite(mid) else 0.5 * lo + 0.5 * hi)
        elif math.isfinite(lo):
            anchors.append(lo + 1.0 if lo + 1.0 != lo else math.nextafter(lo, math.inf))
        elif math.isfinite(hi):
            anchors.append(hi - 1.0 if hi - 1.0 != hi else math.nextafter(hi, -math.inf))
        else:
            anchors.append(0.0)
    return tuple(anchors)


def canonical_matrix(n: int, r: int) -> np.ndarray:
    """r/2 blocks [[0, 1], [-1, 0]] followed by an (n - r) zero block."""
    K = np.zeros((n, n))
    for p in range(r // 2):
        K[2 * p, 2 * p + 1] = 1.0
        K[2 * p + 1, 2 * p] = -1.0
    return K


@dataclass(frozen=True)
class DarbouxChart:
    """Composite diffeomorphism x -> z and its inverse, fixed by the spec
    and one anchor per factor.

    Construction binds the anchors once (FactorBank.bind checks them, so
    a chart with an invalid anchor cannot be built, even by
    dataclasses.replace) and derives the rest from that binding:
    ``quadrature``, the quadrature stage's passes, and ``image_lower``/
    ``image_upper``, which bound the z-image of the domain box coordinate
    by coordinate: the projected interval of row q of B, and for q <= r
    the anchored antiderivative F_q at that interval's two ends, from the
    binding's unchecked pass.  At an infinite end or a validity bound a
    closed form gives F's monotone limit: +-inf where F diverges, its
    finite value where F converges; a nan maps to the infinity F runs
    toward, so a custom factor, which gives nan at an end outside its open
    validity interval, gets +-inf there.
    """

    spec: MultiseparableSpec
    anchors: tuple[float, ...]
    quadrature: BoundChart = field(init=False, repr=False, compare=False)
    image_lower: np.ndarray = field(init=False, repr=False, compare=False)
    image_upper: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spec, r = self.spec, self.spec.r
        quadrature = spec.bank.bind(self.anchors)
        # y-stage bounding box, then componentwise monotone z-images.
        ends = np.array(spec.projected_intervals).T
        limits = np.empty((2, r))
        with np.errstate(all="ignore"):
            quadrature.formulas("reciprocal_antiderivative", ends[:, :r], limits)
        increasing = spec.bank.apply("value", quadrature.anchors) > 0
        toward = np.where((ends[:, :r] > quadrature.anchors) == increasing, math.inf, -math.inf)
        a, b = np.where(np.isnan(limits), toward, limits)
        lower, upper = ends
        lower[:r] = np.where(b < a, b, a)
        upper[:r] = np.where(b > a, b, a)
        for name, bound in (("image_lower", lower), ("image_upper", upper)):
            bound.setflags(write=False)
            object.__setattr__(self, name, bound)
        object.__setattr__(self, "quadrature", quadrature)

    @property
    def block_count(self) -> int:
        return self.spec.r // 2

    def forward(self, x) -> np.ndarray:
        """z from y = B.x: z_i = F_i(y_i) for i <= r, z_i = y_i for i > r."""
        r, z = self.spec.r, matvec(self.spec.B, np.asarray(x, dtype=float))
        with np.errstate(all="ignore"):
            self.quadrature.apply("reciprocal_antiderivative", z[..., :r].copy(), z[..., :r])
        return z

    def inverse(self, z) -> np.ndarray:
        """x = A.y from y_i = F_i^{-1}(z_i) for i <= r, y_i = z_i for i > r."""
        r, y = self.spec.r, np.array(z, dtype=float)
        with np.errstate(all="ignore"):
            self.quadrature.apply("invert_antiderivative", y[..., :r].copy(), y[..., :r])
        return matvec(self.spec.A, y)

    def forward_jacobian(self, x) -> np.ndarray:
        """dz/dx = diag(1/phi_i(y_i), 1) . B, analytic."""
        spec, x = self.spec, np.asarray(x, dtype=float)
        phi = spec.bank.apply("value", matvec(spec.B, x), out=np.ones(x.shape))
        return (1.0 / phi)[..., :, None] * spec.B

    def inverse_jacobian(self, z) -> np.ndarray:
        """dx/dz = A . diag(phi_i(y_i), 1), analytic."""
        spec, z = self.spec, np.asarray(z, dtype=float)
        phi = np.ones(z.shape)
        with np.errstate(all="ignore"):
            phi[..., : spec.r] = self.quadrature.invert_values(z[..., : spec.r])[1]
        return spec.A * phi[..., None, :]


def darboux_chart(spec: MultiseparableSpec, anchors=None) -> DarbouxChart:
    """Build the composite chart at ``anchors`` (default_anchors unless
    given) and certify its invariants on a sample.

    For r = 0 the quadrature stage is the identity and the chart reduces
    to the linear change of variables (already canonical, since J is the
    zero matrix).  Validation checks the forward and inverse composition
    to ROUND_TRIP_TOL at VALIDATION_POINTS low-discrepancy points (seed
    VALIDATION_SEED) and raises CertificationFailureError at the first
    point that fails; it is skipped when the domain is unbounded and has
    no sample box.
    """
    if anchors is None:
        anchors = default_anchors(spec)
    chart = DarbouxChart(spec, tuple(float(a) for a in anchors))
    try:
        points = spec.domain.halton_points(VALIDATION_POINTS, VALIDATION_SEED)
    except EmptyDomainSampleError:
        return chart
    err, coord, within = _round_trip(chart, points)
    if not within.all():
        k = int(np.argmin(within))
        raise CertificationFailureError(
            points[k],
            (coord[k], 0),
            err[k],
            f"chart round trip error {err[k]:.3e} exceeds {ROUND_TRIP_TOL:g}",
        )
    return chart


def _round_trip(chart: DarbouxChart, points: np.ndarray):
    """Per point of a (P, n) block: the round-trip error max|x' - x| with
    x' = inverse(forward(x)), its coordinate (1-based), and whether it is
    within ROUND_TRIP_TOL * (1 + max|x|)."""
    diff = np.abs(chart.inverse(chart.forward(points)) - points)
    err = diff.max(axis=1)
    within = err <= ROUND_TRIP_TOL * (1.0 + np.abs(points).max(axis=1))
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
    chart: DarbouxChart,
    num_points: int = 100,
    tolerance: float = CANONICAL_TOL,
    seed: int = 0,
) -> CanonicalReport:
    """Certify that the chart carries J to the canonical block matrix.

    At each sample x the structure matrix is pushed through the composite
    chart with analytic Jacobians (B, then diag(1/phi_i)) and compared
    entrywise to the canonical matrix; the forward/inverse composition is
    checked to ROUND_TRIP_TOL at the same points.  The sample is checked a
    block of points at a time (see :func:`~poissonkit.structure.point_blocks`),
    from one y = B X and one factor value pass per block.  Raises
    CertificationFailureError with the first failing point and its worst
    entry when either check exceeds its tolerance.
    """
    spec = chart.spec
    target = canonical_matrix(spec.n, spec.r)
    points = spec.domain.halton_points(num_points, seed)
    max_dev = 0.0
    max_rt = 0.0
    for X in point_blocks(points, spec.n):
        with np.errstate(all="ignore"):
            phi = spec.bank.apply("value", matvec(spec.B, X), out=np.ones(X.shape))
            J = skew_sum(spec, phi[:, 0 : spec.r : 2] * phi[:, 1 : spec.r : 2])
            # A non-finite pushforward is the structure's fault only when J is.
            if not (np.isfinite(phi).all() and np.isfinite(J).all()):
                raise non_finite_error(spec, X)
            dev = _linear_pushforward(spec, J)
            # 1/phi_i(y_i) for i <= r and 1 elsewhere: the quadrature stage's Jacobian.
            d = 1.0 / phi
            dev *= d[:, :, None]
            dev *= d[:, None, :]
            dev -= target
            np.abs(dev, out=dev)
            worst = dev.max(axis=(1, 2))
            rt, coord, rt_within = _round_trip(chart, X)
        dev_within = worst <= tolerance
        # The first failing point, checking deviation before round trip.
        failed = np.flatnonzero(~(dev_within & rt_within))
        if failed.size:
            k = int(failed[0])
            if not dev_within[k]:
                entry = np.unravel_index(int(np.argmax(dev[k])), dev[k].shape)
                raise CertificationFailureError(
                    X[k], (entry[0] + 1, entry[1] + 1), worst[k]
                )
            raise CertificationFailureError(
                X[k],
                (coord[k], 0),
                rt[k],
                f"round trip error {rt[k]:.3e} exceeds {ROUND_TRIP_TOL:g}",
            )
        max_dev = max(max_dev, float(worst.max()))
        max_rt = max(max_rt, float(rt.max()))
    return CanonicalReport(
        num_points=num_points,
        tolerance=float(tolerance),
        round_trip_tolerance=ROUND_TRIP_TOL,
        max_deviation=max_dev,
        max_round_trip_error=max_rt,
        passed=True,
    )
