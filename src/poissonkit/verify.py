"""Numerical certification of the Poisson axioms.

Checks offered here: the Jacobi identity residual (pointwise and as a
low-discrepancy sweep over all index triples), Casimir kernel membership,
and SVD-based rank.  Structure fields wrap either a multiseparable spec
(analytic partials) or a user-supplied candidate matrix field, which may
well fail the Jacobi identity; a finite-difference partials provider is
available as an independent oracle for cross-checking the analytic path.
Its stencil, :func:`central_differences`, also serves the integrators'
finite-difference gradients and Newton matrices.

Every field evaluates a point or a (P, n) block of points: a spec field
in one kernel call, a user field row by row.  A sweep evaluates J once
per sample point, a block at a time, and the partials one point at a
time, so memory stays at one block of J and one (n, n, n) tensor; the
residual contraction is one matrix product per point.  The kernel and
rank checks can reuse each block of J.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .domain import BoxDomain
from .errors import IndexOutOfRangeError
from .structure import (
    MultiseparableSpec,
    evaluate_structure,
    point_blocks,
    structure_partials,
    unchecked_structure,
)

#: default relative singular-value threshold for numerical rank.
RANK_REL_TOL = 1e-9

#: central-difference step scale for the finite-difference partials oracle.
FD_STEP_SCALE = 1e-5


@dataclass(frozen=True)
class StructureField:
    """Evaluatable matrix field x -> J(x) with a partials provider.

    ``evaluate`` takes one point (n,) and returns J, or a (P, n) block and
    returns the (P, n, n) stack.  ``partials(x)`` returns the tensor T with
    T[i, j, l] = d J_ij / d x_l (0-based storage axes) at one point.
    """

    n: int
    domain: BoxDomain
    evaluate: Callable[[np.ndarray], np.ndarray]
    partials: Callable[[np.ndarray], np.ndarray]


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
    evaluate: Callable[[np.ndarray], np.ndarray], step_scale: float = FD_STEP_SCALE
) -> Callable[[np.ndarray], np.ndarray]:
    """Central finite-difference partials of a matrix field (see
    :func:`central_differences`)."""
    return lambda x: central_differences(evaluate, x, step_scale)


def structure_field(spec: MultiseparableSpec) -> StructureField:
    """Field view of a spec with analytic partials."""
    return StructureField(
        n=spec.n,
        domain=spec.domain,
        evaluate=lambda x: evaluate_structure(spec, x),
        partials=lambda x: structure_partials(spec, x),
    )


def fd_structure_field(spec: MultiseparableSpec) -> StructureField:
    """Field view of a spec with finite-difference partials (oracle path).

    The differences use the kernel without the domain membership check,
    so stencil points may poke slightly past the box faces; factor
    validity intervals still apply.
    """
    oracle = fd_partials(lambda x: unchecked_structure(spec, np.asarray(x, float)))
    return replace(structure_field(spec), partials=oracle)


def generic_field(
    n: int,
    evaluate: Callable[[np.ndarray], np.ndarray],
    domain: BoxDomain,
    partials: Callable[[np.ndarray], np.ndarray] | None = None,
) -> StructureField:
    """Wrap a user-supplied candidate matrix field.

    ``evaluate`` takes one point; the field evaluates a (P, n) block row by
    row.  Without an analytic partials callable, central finite
    differences are used.  The candidate need not satisfy the Jacobi
    identity; that is what the sweep is for.
    """

    def evaluate_rows(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return evaluate(x)
        return np.array([np.asarray(evaluate(p), dtype=float) for p in x])

    if partials is None:
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


def _residual_tensor(J: np.ndarray, T: np.ndarray) -> np.ndarray:
    n = J.shape[0]
    R = _contraction(J, T).reshape(n, n, n)
    return R + R.transpose(1, 2, 0) + R.transpose(2, 0, 1)


def jacobi_sweep(
    field: StructureField,
    num_points: int,
    seed: int = 0,
    tolerance: float = 1e-7,
    sample_box: BoxDomain | None = None,
    visit: Callable[[np.ndarray], None] | None = None,
) -> JacobiReport:
    """Evaluate the Jacobi residual over all C(n, 3) triples at quasi-random
    points and report the worst case.

    Deterministic for a fixed seed.  Unbounded domains need a bounded
    sample box, either on the domain itself or via ``sample_box``.  J is
    evaluated once per point, a block of points at a time; ``visit``, when
    given, is called with each block's (k, n, n) stack of J, so that other
    checks at the same points can reuse it.

    Each point's residual is also divided by 1 + max|J| max|dJ| there;
    the sweep passes when the largest such normalized residual is within
    ``tolerance``, so a genuine structure at a large scale is not failed
    for round-off.  Both the absolute and the normalized maxima are
    reported.
    """
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    box = sample_box if sample_box is not None else field.domain
    points = box.halton_points(num_points, seed)
    n = field.n
    triples = np.array(list(itertools.combinations(range(n), 3)), dtype=int).reshape(-1, 3)
    a, b, c = triples.T
    # Flat offsets of C[a, b, c], C[c, a, b] and C[b, c, a]; summed in the
    # order of _residual_tensor.
    abc = (a * n + b) * n + c
    cab = (c * n + a) * n + b
    bca = (b * n + c) * n + a

    max_abs = 0.0
    max_norm = 0.0
    argmax_triple = None
    argmax_point = None
    for X in point_blocks(points, n):
        structures = np.asarray(field.evaluate(X))
        if visit is not None:
            visit(structures)
        # With n < 3 there are no triples and nothing to sweep.
        for x, J in zip(X, structures) if triples.size else ():
            T = np.asarray(field.partials(x))
            C = _contraction(J, T).ravel()
            res = np.abs(C[abc] + C[cab] + C[bca])
            idx = int(np.argmax(res))
            worst = float(res[idx])
            scale = 1.0 + float(np.max(np.abs(J))) * float(np.max(np.abs(T)))
            max_norm = max(max_norm, worst / scale)
            if argmax_triple is None or worst > max_abs:
                argmax_triple = tuple(int(t) + 1 for t in triples[idx])
                argmax_point = tuple(float(v) for v in x)
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


def kernel_violation(spec: MultiseparableSpec, J: np.ndarray) -> float:
    """Worst max_p || J . grad C_p ||_inf over the linear Casimirs C_p (rows
    r+1..n of B), for one J or a (P, n, n) stack.  Zero for r = n."""
    rows = spec.B[spec.r :]
    if rows.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(J @ rows.T)))


def kernel_check(spec: MultiseparableSpec, x) -> float:
    """Worst kernel violation of J(x) (see :func:`kernel_violation`)."""
    return kernel_violation(spec, evaluate_structure(spec, x))


def numerical_rank(J: np.ndarray, rel_tolerance: float = RANK_REL_TOL) -> np.ndarray:
    """The number of singular values above rel_tolerance * sigma_max, of one
    J or of each matrix in a (P, n, n) stack."""
    s = np.linalg.svd(J, compute_uv=False)
    return np.count_nonzero(s > rel_tolerance * s[..., :1], axis=-1)


def rank_at(field: StructureField, x, rel_tolerance: float = RANK_REL_TOL) -> int:
    """Numerical rank of J(x): singular values above rel_tolerance * sigma_max."""
    x = field.domain.require_inside(x)
    return int(numerical_rank(np.asarray(field.evaluate(x)), rel_tolerance))
