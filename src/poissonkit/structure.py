"""Multiseparable structure matrices.

A structure matrix of this family is determined by an invertible matrix B
(with inverse A), an even rank r, and r univariate nonvanishing factors
phi_1..phi_r.  In the linear chart y = B.x it is block diagonal with 2x2
blocks of entries +-w_p, the pair products w_p = phi_{2p-1} phi_{2p}; read
back in x it is one skew sum,

    J(x) = U - U^T,   U = A_odd diag(w) A_even^T,

where A_odd and A_even are the odd and even columns among the first r
columns of A (1-based): the minor sum J_ij = sum_p L_ij^p w_p with the
constant pair minors L_ij^p = a_{i,2p-1} a_{j,2p} - a_{i,2p} a_{j,2p-1}.
So each partial d_l J is the same skew sum at column l of the pair-product
slopes

    W[p, l] = d w_p / d x_l,

and :func:`skew_sum` is the one formula for J and every partial; no table
of minors is kept.  J, W and the partials accept a single point or a
(P, n) block of points, and a block gives bitwise the per-point results.

Index convention: public operations take and report 1-based indices, the
standard convention in the analytic treatment of these brackets; array
storage is 0-based internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import BoxDomain
from .errors import (
    ConfigValidationError,
    FactorVanishesError,
    IndexOutOfRangeError,
    OddRankError,
    RankExceedsDimensionError,
    SingularMatrixError,
)
from .factors import CustomFactor, FactorBank, FactorFunction

#: max-norm tolerance on A.B - I after LU inversion.
INVERSION_TOL = 1e-10

#: Floats in one (k, n, n) stack of structure matrices when a sample is
#: evaluated block by block (about 1 MB), so memory does not grow with
#: the sample size.
BLOCK_FLOATS = 1 << 17


def _frozen_matrix(M, n: int) -> np.ndarray:
    arr = np.array(M, dtype=float)
    if arr.shape != (n, n):
        raise ValueError(f"matrix must have shape ({n}, {n}), got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MultiseparableSpec:
    """Immutable defining data of one structure matrix of the family.

    Instances are produced by :func:`build_spec`; all operations on a spec
    are pure functions, safe for concurrent use.  ``projected_intervals``
    holds the interval of B_q . x over the box for every row q of B.
    """

    n: int
    r: int
    B: np.ndarray
    A: np.ndarray
    factors: tuple[FactorFunction, ...]
    domain: BoxDomain
    projected_intervals: tuple[tuple[float, float], ...]

    @cached_property
    def bank(self) -> FactorBank:
        """The factors grouped by kind, for passes a column per factor."""
        return FactorBank(self.factors)


def _uncovered_witness(lo: float, hi: float, vlo: float, vhi: float) -> float:
    """A point of the open interval (lo, hi) outside the validity (vlo, vhi)."""
    if lo < vlo:
        right = min(hi, vlo)
        return 0.5 * (lo + right) if np.isfinite(lo) else right - 1.0
    right = max(lo, vhi)
    return 0.5 * (right + hi) if np.isfinite(hi) else right + 1.0


def build_spec(
    n: int,
    r: int,
    B,
    factors,
    domain: BoxDomain,
    inverse=None,
) -> MultiseparableSpec:
    """Build a spec from (n, r, B, factors, domain).

    B is inverted by LU unless ``inverse``, a known exact inverse such as
    the closed forms of the catalog builders, is given; either way
    max |A.B - I| must be within INVERSION_TOL.  Raises
    SingularMatrixError, OddRankError, RankExceedsDimensionError, or
    FactorVanishesError when the defining requirements fail, and
    ConfigValidationError when the projected interval of a row of B
    overflows although every face the row touches is finite.
    """
    n = int(n)
    r = int(r)
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if r % 2 != 0:
        raise OddRankError(f"rank must be even, got {r}")
    if r < 0 or r > n:
        raise RankExceedsDimensionError(f"rank {r} outside 0..{n}")
    B = _frozen_matrix(B, n)
    factors = tuple(factors)
    if len(factors) != r:
        raise ValueError(f"expected {r} factors, got {len(factors)}")
    if domain.dimension != n:
        raise ValueError("domain dimension does not match n")

    if inverse is None:
        try:
            A = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"B is singular: {exc}") from exc
    else:
        A = np.array(inverse, dtype=float)
    A = _frozen_matrix(A, n)
    residual = float(np.max(np.abs(A @ B - np.eye(n))))
    if not residual <= INVERSION_TOL:
        raise SingularMatrixError(
            f"max |A.B - I| = {residual:.3e} exceeds {INVERSION_TOL:g}"
        )

    block = domain.projected_interval(B)
    intervals = tuple(map(tuple, block.tolist()))
    unbounded = ~np.isfinite(block).all(axis=1)
    if unbounded.any():
        # A row that touches an infinite face may have an infinite interval.
        bounded = np.isfinite(domain.lower) & np.isfinite(domain.upper)
        overflows = unbounded & (bounded | (B == 0)).all(axis=1)
        if overflows.any():
            q = int(np.argmax(overflows))
            lo, hi = intervals[q]
            factor = f" of factor {q + 1}" if q < r else ""
            raise ConfigValidationError(
                f"B row {q + 1}: the projected interval ({lo!r}, {hi!r}){factor} overflows"
            )
    for idx, (f, (lo, hi)) in enumerate(zip(factors, intervals), start=1):
        if not f.covers(lo, hi):
            witness = _uncovered_witness(lo, hi, *f.validity)
            raise FactorVanishesError(
                idx,
                witness,
                f"factor {idx} ({f.kind}) is not certified on the projected "
                f"interval ({lo!r}, {hi!r}); offending point y = {witness!r}",
            )
        if isinstance(f, CustomFactor):
            witness = f.sample_nonvanishing(lo, hi)
            if witness is not None:
                raise FactorVanishesError(idx, witness)

    return MultiseparableSpec(
        n=n,
        r=r,
        B=B,
        A=A,
        factors=factors,
        domain=domain,
        projected_intervals=intervals,
    )


def lambda_coefficient(spec: MultiseparableSpec, i: int, j: int, k: int, l: int) -> float:
    """Minor a_ik a_jl - a_il a_jk of the inverse matrix (1-based indices)."""
    n = spec.n
    for idx in (i, j, k, l):
        if not 1 <= idx <= n:
            raise IndexOutOfRangeError(f"index {idx} outside 1..{n}")
    A = spec.A
    return float(A[i - 1, k - 1] * A[j - 1, l - 1] - A[i - 1, l - 1] * A[j - 1, k - 1])


def matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M.x for one point, or for each row of a (P, n) block; a block gives
    bitwise the per-point products."""
    return M @ x if x.ndim == 1 else (M @ x[..., None])[..., 0]


def point_blocks(points: np.ndarray, n: int) -> list[np.ndarray]:
    """Consecutive row blocks of a (P, n) array of points, sized so that a
    stack of J over one block holds about BLOCK_FLOATS floats."""
    step = max(1, BLOCK_FLOATS // (n * n))
    return [points[k : k + step] for k in range(0, points.shape[0], step)]


def skew_sum(spec: MultiseparableSpec, w: np.ndarray) -> np.ndarray:
    """U - U^T with U = A_odd diag(w) A_even^T, for w shaped (..., r/2):
    J at the pair products, d_l J at column l of the slopes W.  Exactly
    skew, and a stack of w gives bitwise the per-row results."""
    r = spec.r
    U = (spec.A[:, 0:r:2] * w[..., None, :]) @ spec.A[:, 1:r:2].T
    return U - U.swapaxes(-1, -2)


def unchecked_structure(spec: MultiseparableSpec, x: np.ndarray) -> np.ndarray:
    """J at a point or (P, n) block of float points, without the domain
    check (factor validity still applies).  Shared by
    :func:`evaluate_structure` and the finite-difference oracle, whose
    stencils may poke past the box faces."""
    phi = spec.bank.apply("value", matvec(spec.B, x))
    return skew_sum(spec, phi[..., 0::2] * phi[..., 1::2])


def evaluate_structure(spec: MultiseparableSpec, x) -> np.ndarray:
    """The structure matrix J(x), or the (P, n, n) stack of them for a
    (P, n) block; every point must lie in the domain box.

    J = U - U^T, so J_ij == -J_ji holds bitwise.
    """
    return unchecked_structure(spec, spec.domain.require_inside(x))


def structure_slopes(spec: MultiseparableSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """J and the pair-product slopes W[..., p, l] = d (phi_{2p-1} phi_{2p})
    / d x_l, shaped (..., r/2, n), at a point or (P, n) block inside the
    domain box, from one factor value pass and one derivative pass: chain
    rule through y_q = B_q . x."""
    r = spec.r
    y = matvec(spec.B, spec.domain.require_inside(x))
    phi, dphi = spec.bank.apply("value", y), spec.bank.apply("derivative", y)
    W = (dphi[..., 0::2] * phi[..., 1::2])[..., None] * spec.B[0:r:2]
    W += (phi[..., 0::2] * dphi[..., 1::2])[..., None] * spec.B[1:r:2]
    return skew_sum(spec, phi[..., 0::2] * phi[..., 1::2]), W


def structure_partials(spec: MultiseparableSpec, x) -> np.ndarray:
    """Analytic partials tensor T[i, j, l] = d J_ij / d x_l (0-based axes),
    or the (P, n, n, n) stack of them for a (P, n) block: the skew sum of
    column l of W for each l, so exactly skew in (i, j)."""
    W = structure_slopes(spec, x)[1]
    return np.moveaxis(skew_sum(spec, W.swapaxes(-1, -2)), -3, -1)


def non_finite_error(
    spec: MultiseparableSpec,
    X: np.ndarray,
    point: str = "sample point",
    otherwise: str = "J or its partials overflow",
) -> ConfigValidationError:
    """The error for a block X at which a quantity derived from the factors
    is not finite.  It names the first factor value or derivative, else
    the first pair product, that is not finite, with its y and ``point``
    x; else the first point at which J or its partials overflow; else
    says ``otherwise`` at the last point."""
    with np.errstate(over="ignore", invalid="ignore"):
        for x in X:
            y = spec.B @ x
            where = f"{point} x = {x.tolist()}"
            phi = spec.bank.apply("value", y)
            # Per factor, its value then its derivative.
            values = np.stack([phi, spec.bank.apply("derivative", y)], axis=-1).ravel()
            bad = ~np.isfinite(values)
            if bad.any():
                k = int(np.argmax(bad))
                q = k // 2
                return ConfigValidationError(
                    f"factor {q + 1} ({spec.factors[q].kind}) "
                    f"{('value', 'derivative')[k % 2]} is {float(values[k])!r} "
                    f"at y = {float(y[q])!r}, {where}"
                )
            bad = ~np.isfinite(phi[0::2] * phi[1::2])
            if bad.any():
                p = int(np.argmax(bad))
                f, g = spec.factors[2 * p : 2 * p + 2]
                return ConfigValidationError(
                    f"product of factors {2 * p + 1} ({f.kind}) and {2 * p + 2} "
                    f"({g.kind}) overflows at y = {y[2 * p : 2 * p + 2].tolist()}, {where}"
                )
            J, W = structure_slopes(spec, x)
            if not (np.isfinite(J).all() and np.isfinite(skew_sum(spec, W.T)).all()):
                return ConfigValidationError(f"J or its partials overflow at {where}")
    return ConfigValidationError(f"{otherwise} at {where}")
