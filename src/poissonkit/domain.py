"""Axis-aligned box domains and deterministic low-discrepancy sampling.

Sweep points are Owen's scrambled Halton points (A. B. Owen, "A randomized
Halton algorithm in R", arXiv:1706.02808), drawn with numpy alone and equal
bit for bit to ``scipy.stats.qmc.Halton(d, scramble=True, seed=seed)``'s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyDomainSampleError, OutOfDomainError

#: Absolute inset from box faces used when drawing sweep points, so samples
#: stay strictly inside the open box.
FACE_INSET = 1e-9


@lru_cache(maxsize=8)
def _halton_scrambling(d: int, seed: int):
    """(bases, offsets, steps) for ``_scrambled_halton``, drawn as scipy does.

    The bases are the first d primes.  Each base b in turn permutes its
    ``ceil(54 / log2 b) - 1`` rows of ``arange(b)`` in place, row after
    row, with one generator seeded with ``seed``: one ``permuted`` call
    draws the stream of one ``shuffle`` per row.  Row j, the permutation
    of digit j, weighs ``w_j``, with ``w_0 = 1 / b`` and
    ``w_{j+1} = w_j / b``.  Step j is ``(a, perm_j[digit] * w_j)`` for the
    a leading bases that have a row j, base after base from ``offsets``.
    Bases and offsets are columns.
    """
    primes = (p for p in itertools.count(2) if all(p % q for q in range(2, math.isqrt(p) + 1)))
    bases = list(itertools.islice(primes, d))
    rng = np.random.default_rng(seed)
    terms = []  # per base: (rows, base) array of perm * weight
    for b in bases:
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        rng.permuted(perms, axis=1, out=perms)
        terms.append(perms * np.divide.accumulate([1.0] + [b] * len(perms))[1:, None])
    steps = []
    for j in range(max(map(len, terms), default=0)):
        active = [t[j] for t in terms if j < len(t)]  # rows shrink as b grows
        steps.append((len(active), np.concatenate(active)))
    offsets = np.cumsum([0] + bases[:-1])[:, None]
    return np.array(bases)[:, None], offsets, steps


def _scrambled_halton(num: int, d: int, seed: int) -> np.ndarray:
    """Indices 0..num-1 of the sequence in [0, 1)^d.  Digit terms are
    summed in digit order, as scipy sums them; once every index has run
    out of digits, the remaining terms are those of digit 0."""
    bases, offsets, steps = _halton_scrambling(d, seed)
    u = np.zeros((d, num))  # row i: base bases[i]
    k = np.arange(num)
    steps = iter(steps)
    for a, terms in steps:
        k, digits = np.divmod(k, bases)
        u[:a] += terms[offsets[:a] + digits[:a]]
        if not k.any():
            break
    for a, terms in steps:  # every index is out of digits: digit 0 from here
        u[:a] += terms[offsets[:a]]
    return u.T


def _as_bounds(v, n: int | None = None) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if n is not None and arr.shape != (n,):
        raise ValueError(f"bounds must have shape ({n},), got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BoxDomain:
    """Open axis-aligned box, possibly unbounded.

    All structural guarantees (nonvanishing factors, constant rank, the
    canonical chart) are certified on this region.  ``sample_lower`` and
    ``sample_upper``, when given, delimit a bounded sub-box used by sweeps
    over domains that are themselves unbounded.
    """

    lower: np.ndarray
    upper: np.ndarray
    sample_lower: np.ndarray | None = None
    sample_upper: np.ndarray | None = None

    def __post_init__(self):
        lower = _as_bounds(self.lower)
        upper = _as_bounds(self.upper, lower.shape[0])
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if not np.all(lower < upper):
            raise ValueError("box requires lower < upper componentwise")
        if (self.sample_lower is None) != (self.sample_upper is None):
            raise ValueError("sample box needs both lower and upper bounds")
        if self.sample_lower is not None:
            slo = _as_bounds(self.sample_lower, lower.shape[0])
            shi = _as_bounds(self.sample_upper, lower.shape[0])
            object.__setattr__(self, "sample_lower", slo)
            object.__setattr__(self, "sample_upper", shi)
            if not (np.all(np.isfinite(slo)) and np.all(np.isfinite(shi))):
                raise ValueError("sample box must be bounded")
            if not np.all(slo < shi):
                raise ValueError("sample box requires lower < upper componentwise")
            if not (np.all(slo >= lower) & np.all(shi <= upper)):
                raise ValueError("sample box must lie inside the domain box")

    @classmethod
    def unbounded(cls, n: int, sample_lower=None, sample_upper=None) -> "BoxDomain":
        return cls(np.full(n, -np.inf), np.full(n, np.inf), sample_lower, sample_upper)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    @property
    def is_bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    def inside(self, x: np.ndarray) -> np.ndarray:
        """Strict interior membership (the box is open) of a float point
        (n,), as a numpy bool, or of each row of a (P, n) block, as (P,)
        bools; nan is outside."""
        return ((x > self.lower) & (x < self.upper)).all(axis=-1)

    def contains(self, x) -> bool:
        """Strict interior membership of one point (n,)."""
        x = np.asarray(x, dtype=float)
        return x.shape == (self.dimension,) and bool(self.inside(x))

    def require_inside(self, x) -> np.ndarray:
        """x as floats, one point (n,) or a (P, n) block, when every point
        lies in the open box; OutOfDomainError naming the first point
        outside it otherwise."""
        x = np.asarray(x, dtype=float)
        if x.ndim in (1, 2) and x.shape[-1] == self.dimension:
            inside = self.inside(x)
            if inside.all():
                return x
            if x.ndim == 2:
                x = x[int(np.argmin(inside))]
        raise OutOfDomainError(f"point {x.tolist()} is outside the domain box")

    def sampling_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounded bounds for sweeps: the box itself, or the sample sub-box.

        Raises EmptyDomainSampleError when the box is unbounded and no
        sample sub-box was provided.
        """
        if self.is_bounded:
            return self.lower, self.upper
        if self.sample_lower is not None:
            return self.sample_lower, self.sample_upper
        raise EmptyDomainSampleError(
            "unbounded domain: provide a bounded sample box for sweeps"
        )

    def halton_points(self, num: int, seed: int) -> np.ndarray:
        """``num`` scrambled-Halton points strictly inside the sampling box.

        The unit points are ``scipy.stats.qmc.Halton(d, scramble=True,
        seed=seed).random(num)`` bit for bit, from numpy alone; the digit
        permutations are cached per (dimension, seed) within a process.
        Points are inset from the faces so open-interval guarantees apply,
        and a point that rounding still put on a face (an inset below the
        float spacing) moves to the nearest float inside.  A draw too large
        to allocate, or for numpy to size, raises MemoryError.
        """
        if num < 1:
            raise ValueError("num must be >= 1")
        lo, hi = self.sampling_bounds()
        width = hi - lo
        inset = np.minimum(FACE_INSET, 0.25 * width)
        try:
            u = _scrambled_halton(num, self.dimension, seed)
            points = (lo + inset) + u * (width - 2.0 * inset)
        except (MemoryError, ValueError) as exc:  # numpy's "array is too big" is a ValueError
            raise MemoryError(
                f"{num} points in dimension {self.dimension} do not fit in memory"
            ) from exc
        return np.clip(points, np.nextafter(lo, hi), np.nextafter(hi, lo))

    def projected_interval(self, rows) -> tuple[float, float] | np.ndarray:
        """Open interval {row . x : x in box} by interval arithmetic: a
        (float, float) tuple for one row, a (k, 2) array of (lower, upper)
        for a (k, n) block of rows.  Zero coefficients add +0.0, keeping
        0 * inf out; each row's terms are summed in order from +0.0 by
        np.cumsum, bitwise as a sequential loop.  Overflow is silent (inf).
        """
        block = np.atleast_2d(np.asarray(rows, dtype=float))
        if block.shape[1:] != (self.dimension,):
            raise ValueError("row length must match the box dimension")
        terms = np.zeros((2, len(block), self.dimension + 1))  # leading +0.0 column
        with np.errstate(over="ignore", invalid="ignore"):
            p, q = block * self.lower, block * self.upper
            np.minimum(p, q, out=terms[0, :, 1:], where=block != 0.0)
            np.maximum(p, q, out=terms[1, :, 1:], where=block != 0.0)
            lo, hi = np.cumsum(terms, axis=2)[:, :, -1]
        return np.stack([lo, hi], axis=1) if np.ndim(rows) == 2 else (float(lo[0]), float(hi[0]))
