"""Ready-made systems used as fixtures and CLI-addressable examples.

:data:`CATALOG` is the one table of named systems: each name maps to a
one-line description, a builder, and a check per parameter, ``_real`` (a
finite real number) or ``_size`` (an integer or integral float), neither
of which passes a bool.  :func:`catalog_entry` checks the parameters given
and calls the builder, whose defaults fill in the rest: R = 1 split as
sqrt(R) each, N = 3, s = 1 and n = 2s.  Three systems are multiseparable:
the three-species epidemic bracket (rank 2, one Casimir x1+x2+x3), the
nearest-neighbor lattice bracket in Flaschka variables (dimension 2N-1,
rank 2N-2, one Casimir sum of the beta coordinates), and a constant
canonical block matrix used as a degenerate fixture.  The fourth, a
candidate field that violates the Jacobi identity, exercises the
verifier's detection power.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .domain import BoxDomain
from .errors import InvalidSizeError, ParameterMismatchError
from .factors import Constant, Linear
from .structure import MultiseparableSpec, build_spec
from .verify import StructureField, generic_field


def kermack_mckendrick(
    R: float = 1.0, kappa1: float | None = None, kappa2: float | None = None
) -> MultiseparableSpec:
    """Three-species epidemic bracket J(x) = R x1 x2 * [[0,1,-1],[-1,0,1],[1,-1,0]]
    on the positive octant.

    The two linear factor slopes must multiply to R within 1e-12 relative;
    by default they are split as sqrt(R) each.
    """
    if not R > 0.0:
        raise ParameterMismatchError(f"R must be positive, got {R!r}")
    for name, kappa in (("kappa1", kappa1), ("kappa2", kappa2)):
        if kappa == 0.0:
            raise ParameterMismatchError(f"{name} must be nonzero, got {kappa!r}")
    if kappa1 is None and kappa2 is None:
        kappa1 = math.sqrt(R)
        kappa2 = R / kappa1
    elif kappa1 is None:
        kappa1 = R / kappa2
    elif kappa2 is None:
        kappa2 = R / kappa1
    if abs(kappa1 * kappa2 - R) > 1e-12 * R:
        raise ParameterMismatchError(
            f"kappa1 * kappa2 = {kappa1 * kappa2!r} does not match R = {R!r}"
        )
    B = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 1.0]])
    domain = BoxDomain(
        lower=[0.0, 0.0, 0.0],
        upper=[np.inf, np.inf, np.inf],
        sample_lower=[0.5, 0.5, 0.5],
        sample_upper=[2.5, 2.5, 2.5],
    )
    factors = (Linear(kappa1), Linear(kappa2))
    return build_spec(3, 2, B, factors, domain, inverse=A)


def _toda_matrices(N: int) -> tuple[np.ndarray, np.ndarray]:
    n = 2 * N - 1
    B = np.zeros((n, n))
    A = np.zeros((n, n))
    for k in range(1, N):
        B[2 * k - 2, k - 1] = -1.0  # odd rows pick -alpha_k
        B[2 * k - 1, N - 1 : N - 1 + k] = 1.0  # even rows sum beta_1..beta_k
    B[n - 1, N - 1 :] = 1.0  # last row: sum of all betas
    for k in range(1, N):
        A[k - 1, 2 * k - 2] = -1.0  # alpha_k = -y_{2k-1}
    A[N - 1, 1] = 1.0  # beta_1 = y_2
    for k in range(2, N):
        A[N + k - 2, 2 * k - 3] = -1.0  # beta_k = y_{2k} - y_{2k-2}
        A[N + k - 2, 2 * k - 1] = 1.0
    A[n - 1, n - 2] = -1.0  # beta_N = y_{2N-1} - y_{2N-2}
    A[n - 1, n - 1] = 1.0
    return B, A


def toda(N: int = 3) -> MultiseparableSpec:
    """Nearest-neighbor lattice bracket in Flaschka variables
    x = (alpha_1..alpha_{N-1}, beta_1..beta_N).

    Nonzero elementary brackets: {alpha_i, beta_i} = -alpha_i and
    {alpha_i, beta_{i+1}} = alpha_i.  The domain restricts alpha_i > 0 so
    the odd factors phi(y) = -y stay nonvanishing on their projected
    intervals (-inf, 0).
    """
    if N < 2:
        raise InvalidSizeError(f"lattice size N must be >= 2, got {N}")
    n = 2 * N - 1
    r = n - 1
    B, A = _toda_matrices(N)
    factors = []
    for q in range(r):
        if q % 2 == 0:
            factors.append(Linear(-1.0, validity=(-np.inf, 0.0)))
        else:
            factors.append(Constant(1.0))
    lower = np.concatenate([np.zeros(N - 1), np.full(N, -np.inf)])
    upper = np.full(n, np.inf)
    domain = BoxDomain(
        lower=lower,
        upper=upper,
        sample_lower=np.concatenate([np.full(N - 1, 0.5), np.full(N, -1.5)]),
        sample_upper=np.concatenate([np.full(N - 1, 2.5), np.full(N, 1.5)]),
    )
    return build_spec(n, r, B, tuple(factors), domain, inverse=A)


def constant_symplectic(s: int = 1, n: int | None = None) -> MultiseparableSpec:
    """Constant canonical block matrix: s blocks [[0,1],[-1,0]] padded with
    zeros to n = 2s by default; B is the identity and every factor is the
    constant 1, so the canonical chart is the identity."""
    n = 2 * s if n is None else n
    if s < 0 or 2 * s > n:
        raise InvalidSizeError(f"need 0 <= 2s <= n, got s={s}, n={n}")
    domain = BoxDomain.unbounded(
        n, sample_lower=np.full(n, -1.0), sample_upper=np.full(n, 1.0)
    )
    return build_spec(n, 2 * s, np.eye(n), tuple(Constant(1.0) for _ in range(2 * s)), domain)


def counterexample_field() -> StructureField:
    """Candidate 3x3 field J12 = x2, J23 = x1, J13 = 0 that violates the
    Jacobi identity: the (1,2,3) residual equals -x1."""

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        return np.array(
            [[0.0, x[1], 0.0], [-x[1], 0.0, x[0]], [0.0, -x[0], 0.0]]
        )

    domain = BoxDomain.unbounded(
        3, sample_lower=[1.25, 0.5, 0.5], sample_upper=[3.0, 1.5, 1.5]
    )
    return generic_field(3, evaluate, domain)


def _real(key: str, v) -> float:
    """``v`` if a finite real number; TypeError or ValueError naming ``key``."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        raise TypeError(f"parameter {key} must be a number, got {v!r}")
    try:
        finite = math.isfinite(v)
    except OverflowError:  # an integer beyond binary64
        raise ValueError(f"parameter {key}: number out of range") from None
    if not finite:
        raise ValueError(f"parameter {key} must be finite, got {v!r}")
    return v


def _size(key: str, v) -> int:
    """``v`` as an int if an integer or integral float; TypeError naming ``key``."""
    integral = isinstance(v, numbers.Integral) or isinstance(v, float) and v.is_integer()
    if isinstance(v, bool) or not integral:
        raise TypeError(f"parameter {key} must be an integer, got {v!r}")
    return int(v)


#: name -> (one-line description, builder, {parameter: check}).
CATALOG = {
    "kmk": (
        "three-species epidemic bracket, n=3, rank 2, Casimir x1+x2+x3",
        kermack_mckendrick, {"R": _real, "kappa1": _real, "kappa2": _real},
    ),
    "toda": (
        "lattice bracket in Flaschka variables, n=2N-1, rank 2N-2, Casimir sum(beta)",
        toda, {"N": _size},
    ),
    "constant-symplectic": (
        "constant canonical block matrix, identity chart",
        constant_symplectic, {"s": _size, "n": _size},
    ),
    "counterexample3": (
        "non-example field J12=x2, J23=x1 failing the Jacobi identity", counterexample_field, {}
    ),
}


def catalog_entry(name: str, **params) -> MultiseparableSpec | StructureField:
    """Build the named system of :data:`CATALOG`; KeyError for another name.

    A parameter the system does not take raises TypeError naming it; the
    others are checked in the table's order, and the first that fails its
    check raises TypeError, or ValueError for a non-finite real or an
    integer beyond binary64, naming it.
    """
    _, build, checks = CATALOG[name]
    unknown = set(params) - set(checks)
    if unknown:
        raise TypeError(f"unknown parameters for {name}: {sorted(unknown)}")
    return build(**{key: check(key, params[key]) for key, check in checks.items() if key in params})
