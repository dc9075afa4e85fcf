"""Ready-made systems used as fixtures and CLI-addressable examples.

Three multiseparable builders ship here: the three-species epidemic
bracket (rank 2, one Casimir x1+x2+x3), the nearest-neighbor lattice
bracket in Flaschka variables (dimension 2N-1, rank 2N-2, one Casimir
sum of the beta coordinates), and a constant canonical block matrix used
as a degenerate fixture.  A small non-example, a candidate field that
violates the Jacobi identity, is included to exercise the verifier's
detection power.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .domain import BoxDomain
from .errors import InvalidSizeError, ParameterMismatchError
from .factors import Constant, Linear
from .structure import MultiseparableSpec, build_spec
from .verify import StructureField, generic_field


@dataclass(frozen=True)
class CatalogEntry:
    """A named system plus the data regression tests check against."""

    name: str
    spec: MultiseparableSpec
    expected_rank: int
    expected_casimirs: np.ndarray
    structure_pattern: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if self.expected_rank + self.expected_casimirs.shape[0] != self.spec.n:
            raise ValueError("rank plus Casimir count must equal the dimension")


def kermack_mckendrick(
    R: float = 1.0, kappa1: float | None = None, kappa2: float | None = None
) -> MultiseparableSpec:
    """Three-species epidemic bracket J(x) = R x1 x2 * [[0,1,-1],[-1,0,1],[1,-1,0]]
    on the positive octant.

    The two linear factor slopes must multiply to R; by default they are
    split as sqrt(R) each.
    """
    if not R > 0.0:
        raise ParameterMismatchError(f"R must be positive, got {R!r}")
    if kappa1 is None and kappa2 is None:
        kappa1 = math.sqrt(R)
        kappa2 = R / kappa1
    elif kappa1 is None:
        kappa1 = R / kappa2
    elif kappa2 is None:
        kappa2 = R / kappa1
    if abs(kappa1 * kappa2 - R) > 1e-12:
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


def toda(N: int) -> MultiseparableSpec:
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


def constant_symplectic(s: int, n: int) -> MultiseparableSpec:
    """Constant canonical block matrix: s blocks [[0,1],[-1,0]] padded with
    zeros; B is the identity and every factor is the constant 1, so the
    canonical chart is the identity."""
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


def _kmk_pattern() -> tuple[tuple[str, ...], ...]:
    signs = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]
    return tuple(
        tuple({0: "0", 1: "+R*x1*x2", -1: "-R*x1*x2"}[v] for v in row) for row in signs
    )


def _toda_pattern(N: int) -> tuple[tuple[str, ...], ...]:
    n = 2 * N - 1
    pat = [["0"] * n for _ in range(n)]
    for i in range(1, N):
        pat[i - 1][i + N - 2] = f"-a{i}"
        pat[i - 1][i + N - 1] = f"+a{i}"
        pat[i + N - 2][i - 1] = f"+a{i}"
        pat[i + N - 1][i - 1] = f"-a{i}"
    return tuple(tuple(row) for row in pat)


def _symplectic_pattern(s: int, n: int) -> tuple[tuple[str, ...], ...]:
    pat = [["0"] * n for _ in range(n)]
    for p in range(s):
        pat[2 * p][2 * p + 1] = "+1"
        pat[2 * p + 1][2 * p] = "-1"
    return tuple(tuple(row) for row in pat)


def _sizes(name: str, params: dict, keys: tuple[str, ...]) -> dict[str, int]:
    """The size parameters of ``name`` as ints; TypeError naming one that is
    not in ``keys`` or is neither an integer nor an integral float."""
    unknown = set(params) - set(keys)
    if unknown:
        raise TypeError(f"unknown parameters for {name}: {sorted(unknown)}")
    for key, v in params.items():
        integral = isinstance(v, numbers.Integral) or isinstance(v, float) and v.is_integer()
        if isinstance(v, bool) or not integral:
            raise TypeError(f"parameter {key} must be an integer, got {v!r}")
    return {key: int(v) for key, v in params.items()}


def catalog_entry(name: str, **params) -> CatalogEntry:
    """Build a named system together with its expected regression data.

    Size parameters (N, s, n) must be integers, or floats with an integer
    value; kmk's R, kappa1 and kappa2 must be real numbers.  Anything else
    raises TypeError naming the parameter, and a non-finite R, kappa1 or
    kappa2 raises ValueError naming it.
    """
    if name == "kmk":
        for key in ("R", "kappa1", "kappa2"):
            v = params.get(key)
            if v is None:
                continue
            if not isinstance(v, numbers.Real) or isinstance(v, bool):
                raise TypeError(f"parameter {key} must be a number, got {v!r}")
            if not math.isfinite(v):
                raise ValueError(f"parameter {key} must be finite, got {v!r}")
        spec = kermack_mckendrick(**params)
        return CatalogEntry(
            name=name,
            spec=spec,
            expected_rank=2,
            expected_casimirs=np.array([[1.0, 1.0, 1.0]]),
            structure_pattern=_kmk_pattern(),
        )
    if name == "toda":
        N = _sizes(name, params, ("N",)).get("N", 3)
        spec = toda(N)
        casimir = np.concatenate([np.zeros(N - 1), np.ones(N)])
        return CatalogEntry(
            name=name,
            spec=spec,
            expected_rank=2 * N - 2,
            expected_casimirs=casimir[None, :],
            structure_pattern=_toda_pattern(N),
        )
    if name == "constant-symplectic":
        sizes = _sizes(name, params, ("s", "n"))
        s = sizes.get("s", 1)
        n = sizes.get("n", 2 * s)
        spec = constant_symplectic(s, n)
        return CatalogEntry(
            name=name,
            spec=spec,
            expected_rank=2 * s,
            expected_casimirs=np.eye(n)[2 * s :],
            structure_pattern=_symplectic_pattern(s, n),
        )
    raise KeyError(f"unknown catalog entry {name!r}")


#: CLI-addressable systems and their one-line descriptions.
#: ``counterexample3`` resolves to a raw candidate field rather than a
#: spec; see :func:`counterexample_field`.
CATALOG = {
    "kmk": "three-species epidemic bracket, n=3, rank 2, Casimir x1+x2+x3",
    "toda": "lattice bracket in Flaschka variables, n=2N-1, rank 2N-2, Casimir sum(beta)",
    "constant-symplectic": "constant canonical block matrix, identity chart",
    "counterexample3": "non-example field J12=x2, J23=x1 failing the Jacobi identity",
}
