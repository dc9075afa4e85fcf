"""Randomized well-scaled spec generation for sweep-style tests, and the
pointwise kernel and rank checks that tests apply to a spec or field.

Specs are kept unit scale on purpose: factor parameters are normalized so
|phi| is near 1 at the box center, and candidate B matrices are integer
with |det B| >= 1 and a modest condition number.  That keeps absolute
tolerances meaningful across the whole randomized family.
"""

from __future__ import annotations

import itertools

import numpy as np

from poissonkit import (
    Affine,
    BoxDomain,
    Constant,
    Exponential,
    Linear,
    Power,
    build_spec,
    evaluate_structure,
)
from poissonkit.verify import numerical_rank

ALL_KINDS = ("constant", "linear", "affine", "exponential", "power")


def random_integer_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random integer matrix with |det| >= 1, well conditioned."""
    for _ in range(500):
        B = rng.integers(-2, 3, size=(n, n)).astype(float)
        det = np.linalg.det(B)
        if abs(det) < 0.5:
            continue
        if np.linalg.cond(B) > 8.0 or np.max(np.abs(np.linalg.inv(B))) > 2.5:
            continue
        return B
    # Product of unit triangular integer matrices: |det| = 1 by construction.
    L = np.eye(n)
    U = np.eye(n)
    L[np.tril_indices(n, -1)] = rng.integers(-1, 2, size=n * (n - 1) // 2)
    U[np.triu_indices(n, 1)] = rng.integers(-1, 2, size=n * (n - 1) // 2)
    return L @ U


def _pick_factor(rng: np.random.Generator, center: float, half: float):
    """A factor kind valid and unit scale on (center - half, center + half)."""
    eligible = ["constant", "affine", "exponential"]
    if abs(center) - half >= 0.15:
        eligible.append("linear")
    if center - half >= 0.15:
        eligible.append("power")
    kind = eligible[rng.integers(len(eligible))]
    v = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    if kind == "constant":
        return Constant(v)
    if kind == "linear":
        validity = (0.0, np.inf) if center > 0 else (-np.inf, 0.0)
        return Linear(v / center, validity=validity)
    if kind == "affine":
        a = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0)
        b = v - a * center
        root = -b / a
        validity = (root, np.inf) if v / a > 0 else (-np.inf, root)
        return Affine(a, b, validity=validity)
    if kind == "exponential":
        rate = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.5)
        return Exponential(v * np.exp(-rate * center), rate)
    p = rng.choice([0.5, 2.0, 3.0])
    return Power(v * center ** (-p), p)


def random_spec(rng: np.random.Generator, n: int, r: int):
    """A randomized multiseparable spec on a bounded box."""
    B = random_integer_matrix(rng, n)
    norms = np.abs(B).sum(axis=1)
    delta = 0.3 / float(norms.max())
    center = rng.uniform(-0.6, 0.6, size=n)
    y_center = B @ center
    factors = [
        _pick_factor(rng, float(y_center[q]), float(delta * norms[q]))
        for q in range(r)
    ]
    domain = BoxDomain(center - delta, center + delta)
    return build_spec(n, r, B, tuple(factors), domain)


def dimension_rank_pairs(n_min: int = 2, n_max: int = 8):
    """Every (n, r) with even 0 <= r <= n in the dimension range."""
    return [(n, r) for n in range(n_min, n_max + 1) for r in range(0, n + 1, 2)]


def spec_suite(seed: int, count: int):
    """``count`` randomized specs cycling through all (n, r) pairs."""
    rng = np.random.default_rng(seed)
    pairs = dimension_rank_pairs()
    return [random_spec(rng, *pairs[i % len(pairs)]) for i in range(count)]


def pair_minor_table(spec) -> np.ndarray:
    """The (n*n, r/2) table L of pair minors, row i*n + j holding
    L_ij^p = a_{i,2p-1} a_{j,2p} - a_{i,2p} a_{j,2p-1} (0-based i, j), built
    entry by entry from A: a reference that shares no code with the
    structure kernel or the Jacobi sweep."""
    A, n = spec.A, spec.n
    L = np.zeros((n * n, spec.r // 2))
    for i, j, p in itertools.product(range(n), range(n), range(spec.r // 2)):
        L[i * n + j, p] = A[i, 2 * p] * A[j, 2 * p + 1] - A[i, 2 * p + 1] * A[j, 2 * p]
    return L


def residual_tensor(J: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The Jacobi residual R[i, j, k] = sum_l (J_il T_jkl + J_jl T_kil +
    J_kl T_ijl) at every index triple, from J and the partials tensor T
    indexed [i, j, l]: the contraction C[i, (j, k)] = sum_l J_il T_jkl as one
    matrix product, then the cyclic sum."""
    n = J.shape[0]
    C = (J @ T.reshape(n * n, n).T).reshape(n, n, n)
    return C + C.transpose(1, 2, 0) + C.transpose(2, 0, 1)


def kernel_check(spec, x) -> float:
    """max |J(x) c_p| over the linear Casimir rows c_p of B, formed from
    J(x) and B alone; 0 for r = n."""
    return float(np.max(np.abs(evaluate_structure(spec, x) @ spec.B[spec.r :].T), initial=0.0))


def rank_at(field, x) -> int:
    """Numerical rank of J(x) at a domain point x: singular values above
    RANK_REL_TOL * sigma_max."""
    return int(numerical_rank(field.evaluate(field.domain.require_inside(x))))
