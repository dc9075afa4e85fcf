"""Axis-aligned box domains and deterministic low-discrepancy sampling.

frozen_copy is the package's one way to keep an array it is given: a
read-only float copy, so the caller's array cannot move a box, a spec or
a built-in Hamiltonian afterwards.

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
def _halton_layout(d: int):
    """The seed-free part of ``_halton_scrambling``: the first d primes as
    bases, base b with ``ceil(54 / log2 b) - 1`` read-only rows ``arange(b)
    * w_j`` (``w_0 = 1 / b``, ``w_{j+1} = w_j / b``), and their places in
    one flat step-major table, where step j holds row j of the a_j leading
    bases that have one, base after base from ``offsets``.  Returns bases
    and offsets as columns, (rows, places) per base, (a_j, start, stop)
    per step."""
    primes = (p for p in itertools.count(2) if all(p % q for q in range(2, math.isqrt(p) + 1)))
    bases = list(itertools.islice(primes, d))
    counts = [math.ceil(54 / math.log2(b)) - 1 for b in bases]
    offsets = np.cumsum([0] + bases)
    active = [sum(c > j for c in counts) for j in range(max(counts, default=0))]
    starts = np.cumsum([0] + [int(offsets[a]) for a in active])
    per_base = []
    for i, (b, c) in enumerate(zip(bases, counts)):
        rows = np.arange(b) * np.divide.accumulate([1.0] + [b] * c)[1:, None]
        per_base.append((frozen_copy(rows), starts[:c, None] + (offsets[i] + np.arange(b))))
    steps = list(zip(active, starts[:-1].tolist(), starts[1:].tolist()))
    return np.array(bases)[:, None], offsets[:-1, None], per_base, steps


@lru_cache(maxsize=8)
def _halton_scrambling(d: int, seed: int):
    """(bases, offsets, steps) for ``_scrambled_halton``, drawn as scipy does.

    Each base in turn permutes a copy of its rows (see :func:`_halton_layout`)
    with one generator seeded with ``seed``: one ``permuted`` call draws the
    stream of one ``shuffle`` per row, and entry k of a permuted row is
    scipy's ``perm_j[k] * w_j`` bit for bit.  The rows go straight to their
    places in one read-only table; step j is ``(a_j, terms)``, with
    ``terms`` the table's slice of step j.
    """
    bases, offsets, per_base, steps = _halton_layout(d)
    rng = np.random.default_rng(seed)
    table = np.empty(steps[-1][2] if steps else 0)
    for rows, places in per_base:
        table[places] = rng.permuted(rows, axis=1)
    table.setflags(write=False)
    return bases, offsets, [(a, table[start:stop]) for a, start, stop in steps]


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


def frozen_copy(v, shape: tuple[int, ...] | None = None, what: str = "") -> np.ndarray:
    """A read-only float copy of v, so no caller's array can move what the
    library keeps; ValueError naming ``what`` unless it has ``shape``, when
    one is given."""
    arr = np.array(v, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def _check_sides(lo: np.ndarray, hi: np.ndarray, box: str) -> None:
    """ValueError unless lo < hi componentwise and each side of ``box`` has
    a float strictly inside it (is more than one float step wide), where
    a point of the open box exists."""
    if not np.all(lo < hi):
        raise ValueError(f"{box} requires lower < upper componentwise")
    with np.errstate(over="ignore"):  # the step from the largest float to inf
        thin = np.nextafter(lo, hi) >= hi
    if thin.any():
        i = int(np.argmax(thin))
        side = f"({float(lo[i])!r}, {float(hi[i])!r})"
        raise ValueError(f"{box} side {i + 1} {side} has no float strictly inside")


@dataclass(frozen=True)
class BoxDomain:
    """Open axis-aligned box, possibly unbounded, with a float strictly
    inside each side (and each side of the sample box).

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
        n = np.size(self.lower)
        bounds = lambda v: frozen_copy(np.ravel(v), (n,), "bounds")
        lower, upper = bounds(self.lower), bounds(self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        _check_sides(lower, upper, "box")
        if (self.sample_lower is None) != (self.sample_upper is None):
            raise ValueError("sample box needs both lower and upper bounds")
        if self.sample_lower is not None:
            slo, shi = bounds(self.sample_lower), bounds(self.sample_upper)
            object.__setattr__(self, "sample_lower", slo)
            object.__setattr__(self, "sample_upper", shi)
            if not (np.all(np.isfinite(slo)) and np.all(np.isfinite(shi))):
                raise ValueError("sample box must be bounded")
            _check_sides(slo, shi, "sample box")
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
        float spacing) moves to the nearest float inside.  A width hi - lo
        that overflows (lo < 0 < hi) is not used: that column is
        (1 - u) lo + u hi, which stays finite.  A draw too large to
        allocate, or for numpy to size, raises MemoryError.
        """
        if num < 1:
            raise ValueError("num must be >= 1")
        lo, hi = self.sampling_bounds()
        with np.errstate(over="ignore"):
            width = hi - lo
        wide = np.isinf(width)
        width[wide] = 0.0
        inset = np.minimum(FACE_INSET, 0.25 * width)
        try:
            u = _scrambled_halton(num, self.dimension, seed)
            points = (lo + inset) + u * (width - 2.0 * inset)
            points[:, wide] = (1.0 - u[:, wide]) * lo[wide] + u[:, wide] * hi[wide]
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
