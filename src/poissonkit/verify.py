"""Numerical certification of the Poisson axioms.

Checks offered here: the Jacobi identity residual (pointwise and as a
low-discrepancy sweep over all index triples), Casimir kernel membership,
and SVD-based rank.  Structure fields wrap either a multiseparable spec
(analytic partials) or a user-supplied candidate matrix field, which may
well fail the Jacobi identity; a finite-difference partials provider is
available as an independent oracle for cross-checking the analytic path.
Its stencil, :func:`central_differences`, also serves the Hamiltonian
fields' finite-difference gradients and Hessians.  A sweep's verdict
divides each residual by max|J| max|dJ|, which scaling J leaves as is.

Every field evaluates a point or a (P, n) block of points: a spec field
in one kernel call, a user field row by row.  A sweep evaluates J once
per sample point, a block at a time, and at each point needs max |dJ| and
the residuals C[a, bc] + C[c, ab] + C[b, ca] at all a < b < c, with
C[i, jk] = sum_l J_il d_l J_jk; the field decides how they are formed.
A spec field never forms the partials tensor for C: with W the
pair-product slopes (see :mod:`poissonkit.structure`), d_l J_jk is the
minor sum sum_p L_jk^p W[p, l] over the constant pair minors L of A, so
C = (J W^T) L^T.  As L is exactly skew, only the columns j < k are formed,
C' = (J W^T) L'^T with L' the minors at j < k, built from A's pair columns
for each block and nowhere else, with a C-contiguous copy of L'^T that
gives the bits of the strided L'.T faster; that is two small products per
point, and C[b, ca] is read as -C'[b, ac], bitwise; max |dJ| is max |L' W|.
Each maximum of an absolute value, max |dJ| per point and max |J| once
per block, is max(max, -min), with no abs temporary and nan where a nan
is.  J and W are taken for a whole block from one pass over the factor
values and one over their derivatives.  Other fields, the
finite-difference oracle among them, need not be skew: they contract their
own partials into all n*n columns one point at a time.  Either way memory
stays at one block of J and one (n, n, n) array, and the kernel and rank
checks can reuse each block of J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from .domain import BoxDomain
from .errors import IndexOutOfRangeError
from .structure import (
    MultiseparableSpec,
    evaluate_structure,
    non_finite_error,
    point_blocks,
    structure_partials,
    structure_slopes,
    unchecked_structure,
)

#: default relative singular-value threshold for numerical rank.
RANK_REL_TOL = 1e-9

#: central-difference step scale for the finite-difference partials oracle.
FD_STEP_SCALE = 1e-5


#: A block's (P, n, n) stack of J, and per point the signed Jacobi
#: residuals at the given triples with max |dJ| (see
#: :meth:`StructureField.jacobi_terms`).
JacobiTerms = tuple[np.ndarray, Iterator[tuple[np.ndarray, float]]]


@dataclass(frozen=True)
class StructureField:
    """Evaluatable matrix field x -> J(x) with a partials provider.

    ``evaluate`` takes one point (n,) and returns J, or a (P, n) block and
    returns the (P, n, n) stack.  ``partials(x)`` returns the tensor T with
    T[i, j, l] = d J_ij / d x_l (0-based storage axes) at one point.
    ``contract``, when given, is the field's own form of
    :meth:`jacobi_terms`.
    """

    n: int
    domain: BoxDomain
    evaluate: Callable[[np.ndarray], np.ndarray]
    partials: Callable[[np.ndarray], np.ndarray]
    contract: Callable[[np.ndarray, np.ndarray], JacobiTerms] | None = None

    def jacobi_terms(self, X: np.ndarray, triples: np.ndarray) -> JacobiTerms:
        """J's (P, n, n) stack over a (P, n) block X, and an iterator that
        yields, point by point, max |dJ| and the residuals
        C[a, b*n + c] + C[c, a*n + b] + C[b, c*n + a] at the (T, 3) 0-based
        triples a < b < c, with C[i, j*n + k] = sum_l J_il d_l J_jk.
        Formed by ``contract`` when the field has one, else from
        ``partials`` one point at a time.  Each residual array is new,
        and the sweep overwrites it."""
        if self.contract is not None:
            return self.contract(X, triples)
        structures = np.asarray(self.evaluate(X))
        n = self.n
        a, b, c = triples.T
        abc, cab, bca = (a * n + b) * n + c, (c * n + a) * n + b, (b * n + c) * n + a

        def terms():
            for x, J in zip(X, structures):
                T = np.asarray(self.partials(x))
                C = _contraction(J, T).ravel()
                yield C[abc] + C[cab] + C[bca], float(np.max(np.abs(T)))

        return structures, terms()


def central_differences(f: Callable, x, step_scale: float) -> np.ndarray:
    """D[..., l] = (f(x + h e_l) - f(x - h e_l)) / 2h with
    h = step_scale * (1 + |x_l|), for f returning a scalar or an array;
    f must tolerate points within h of x."""
    x = np.asarray(x, dtype=float)
    columns = []
    for l in range(x.shape[0]):
        h = step_scale * (1.0 + abs(float(x[l])))
        xp = x.copy()
        xm = x.copy()
        xp[l] += h
        xm[l] -= h
        columns.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h))
    return np.stack(columns, axis=-1)


def fd_partials(
    evaluate: Callable[[np.ndarray], np.ndarray],
) -> Callable[[np.ndarray], np.ndarray]:
    """Central finite-difference partials of a matrix field, step scale
    FD_STEP_SCALE (see :func:`central_differences`)."""
    return lambda x: central_differences(evaluate, x, FD_STEP_SCALE)


def _contract_pair_minors(
    spec: MultiseparableSpec, X: np.ndarray, triples: np.ndarray
) -> JacobiTerms:
    """jacobi_terms of a spec field: J and W from one structure_slopes call
    per block, and per point C' = (J W^T) L'^T and max |dJ| = max |L' W|,
    with L'[(i, j), p] = a_{i,2p-1} a_{j,2p} - a_{i,2p} a_{j,2p-1} the pair
    minors at i < j, formed from A's pair columns once per block, with
    L'^T copied C-contiguous.  The
    minors are exactly skew in (i, j), so the residual at a < b < c is
    C'[a, bc] + C'[c, ab] - C'[b, ac], bitwise the full C's.  Raises
    ConfigValidationError when J or W is not finite on the block, or the
    residuals or max |dJ| at a point."""
    with np.errstate(over="ignore", invalid="ignore"):
        structures, W = structure_slopes(spec, X)
    if not (np.isfinite(structures).all() and np.isfinite(W).all()):
        raise non_finite_error(spec, X)
    n, r = spec.n, spec.r
    rows, cols = np.triu_indices(n, 1)
    odd, even, m = spec.A[:, 0:r:2], spec.A[:, 1:r:2], rows.size
    L = odd[rows] * even[cols] - even[rows] * odd[cols]
    LT = np.ascontiguousarray(L.T)  # bitwise L.T in a product, and faster
    pair = np.zeros((n, n), dtype=np.intp)  # pair[i, j]: the column of i < j in C'
    pair[rows, cols] = np.arange(m)
    a, b, c = triples.T
    # Flat offsets of C'[a, bc], C'[c, ab] and C'[b, ac].
    bc, ab, ac = a * m + pair[b, c], c * m + pair[a, b], b * m + pair[a, c]

    def terms():
        for x, J, slopes in zip(X, structures, W):
            C = ((J @ slopes.T) @ LT).ravel()
            residuals = C[bc] + C[ab]
            residuals -= C[ac]
            P = L @ slopes
            dJ_max = float(np.maximum(P.max(), -P.min()))  # max |P|, nan if any is
            if not (math.isfinite(dJ_max) and np.isfinite(residuals).all()):
                overflows = "the Jacobi contraction overflows"
                raise non_finite_error(spec, x[None], otherwise=overflows)
            yield residuals, dJ_max

    return structures, terms()


def structure_field(spec: MultiseparableSpec) -> StructureField:
    """Field view of a spec with analytic partials; its Jacobi contraction
    goes through the pair minors (see :func:`_contract_pair_minors`)."""
    return StructureField(
        n=spec.n,
        domain=spec.domain,
        evaluate=lambda x: evaluate_structure(spec, x),
        partials=lambda x: structure_partials(spec, x),
        contract=lambda X, triples: _contract_pair_minors(spec, X, triples),
    )


def fd_structure_field(spec: MultiseparableSpec) -> StructureField:
    """Field view of a spec with finite-difference partials (oracle path).

    The differences use the kernel without the domain membership check,
    so stencil points may poke slightly past the box faces; factor
    validity intervals still apply.
    """
    oracle = fd_partials(lambda x: unchecked_structure(spec, np.asarray(x, float)))
    return replace(structure_field(spec), partials=oracle, contract=None)


def generic_field(
    n: int,
    evaluate: Callable[[np.ndarray], np.ndarray],
    domain: BoxDomain,
) -> StructureField:
    """Wrap a user-supplied candidate matrix field.

    ``evaluate`` takes one point; the field evaluates a (P, n) block row by
    row, and its partials are central finite differences.  The candidate
    need not satisfy the Jacobi identity; that is what the sweep is for.
    """

    def evaluate_rows(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return evaluate(x)
        return np.array([np.asarray(evaluate(p), dtype=float) for p in x])

    partials = fd_partials(evaluate)
    return StructureField(n=n, domain=domain, evaluate=evaluate_rows, partials=partials)


@dataclass(frozen=True)
class JacobiReport:
    """Result of a Jacobi-identity sweep."""

    dimension: int
    num_points: int
    num_triples: int
    tolerance: float
    max_abs_residual: float
    max_normalized_residual: float
    argmax_triple: tuple[int, int, int] | None
    argmax_point: tuple[float, ...] | None
    passed: bool


def jacobi_residual(field: StructureField, x, i: int, j: int, k: int) -> float:
    """Left-hand side of the Jacobi identity for the triple (i, j, k), 1-based:

        sum_l ( J_il d_l J_jk + J_jl d_l J_ki + J_kl d_l J_ij )

    Zero (up to round-off) for a genuine structure matrix.
    """
    n = field.n
    for idx in (i, j, k):
        if not 1 <= idx <= n:
            raise IndexOutOfRangeError(f"index {idx} outside 1..{n}")
    x = field.domain.require_inside(x)
    J = np.asarray(field.evaluate(x))
    T = np.asarray(field.partials(x))
    a, b, c = i - 1, j - 1, k - 1
    return float(J[a] @ T[b, c] + J[b] @ T[c, a] + J[c] @ T[a, b])


def _contraction(J: np.ndarray, T: np.ndarray) -> np.ndarray:
    """C[i, (j, k)] = sum_l J_il d_l J_jk as one matrix product, shape (n, n*n)."""
    n = J.shape[0]
    return J @ T.reshape(n * n, n).T


def jacobi_sweep(
    field: StructureField,
    num_points: int,
    seed: int = 0,
    tolerance: float = 1e-7,
    visit: Callable[[np.ndarray], None] | None = None,
) -> JacobiReport:
    """Evaluate the Jacobi residual over all C(n, 3) triples at quasi-random
    points and report the worst case.

    Deterministic for a fixed seed.  An unbounded domain needs a bounded
    sample box of its own (``sample_lower``/``sample_upper``).  J is
    evaluated once per point, a block of points at a time; ``visit``, when
    given, is called with each block's (k, n, n) stack of J, so that other
    checks at the same points can reuse it.

    Each point's residual is also divided by max|J| max|dJ| there (0/0,
    and a finite residual over an overflowing bound, read 0); the sweep
    passes when the largest such normalized residual is within
    ``tolerance``, so scaling J changes no verdict.  Both the
    absolute and the normalized maxima are reported.  A non-finite
    residual or max|dJ| fails the sweep, both maxima nan and the argmax
    at that point; a spec field raises there.
    """
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    points = field.domain.halton_points(num_points, seed)
    n = field.n
    index = np.arange(n)
    # All i < j < k, in lexicographic order.
    triples = np.argwhere(
        (index[:, None, None] < index[None, :, None]) & (index[None, :, None] < index)
    )

    max_abs = 0.0
    max_norm = 0.0
    argmax_triple = None
    argmax_point = None
    finite = True  # no point so far has a non-finite residual or max|dJ|
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite points are caught below
        for X in point_blocks(points, n):
            structures, terms = field.jacobi_terms(X, triples)
            if visit is not None:
                visit(structures)
            J_max = np.maximum(structures.max(axis=(1, 2)), -structures.min(axis=(1, 2)))
            # No triples when n < 3; after a non-finite point only visit reads the blocks.
            rows = zip(X, J_max.tolist(), terms) if triples.size and finite else ()
            for x, J_abs, (res, dJ_max) in rows:
                np.abs(res, out=res)
                idx = int(np.argmax(res))  # the first nan, if any
                worst = float(res[idx])
                finite = math.isfinite(worst) and math.isfinite(dJ_max)
                if argmax_triple is None or not (finite and worst <= max_abs):
                    argmax_triple = tuple(int(t) + 1 for t in triples[idx])
                    argmax_point = tuple(float(v) for v in x)
                if not finite:
                    max_abs = max_norm = math.nan
                    break
                scale = J_abs * dJ_max  # 0 only where worst is 0
                max_norm = max(max_norm, worst / scale if scale else 0.0)
                max_abs = max(max_abs, worst)

    return JacobiReport(
        dimension=n,
        num_points=num_points,
        num_triples=int(triples.shape[0]),
        tolerance=float(tolerance),
        max_abs_residual=max_abs,
        max_normalized_residual=max_norm,
        argmax_triple=argmax_triple,
        argmax_point=argmax_point,
        passed=bool(max_norm <= tolerance),
    )


def kernel_violation(spec: MultiseparableSpec, J: np.ndarray) -> np.ndarray:
    """max || J . grad C_p ||_inf per linear Casimir C_p (rows r+1..n of B),
    over one J or a (P, n, n) stack: shape (n - r,), empty for r = n."""
    return np.abs(J @ spec.B[spec.r :].T).max(axis=tuple(range(J.ndim - 1)))


def numerical_rank(J: np.ndarray) -> np.ndarray:
    """The number of singular values above RANK_REL_TOL * sigma_max, of one
    J or of each matrix in a (P, n, n) stack."""
    s = np.linalg.svd(J, compute_uv=False)
    return np.count_nonzero(s > RANK_REL_TOL * s[..., :1], axis=-1)
