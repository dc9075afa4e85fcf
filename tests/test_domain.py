from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import qmc

from poissonkit import BoxDomain, EmptyDomainSampleError, OutOfDomainError
from poissonkit.domain import _halton_scrambling, _scrambled_halton


def test_contains_is_strict():
    box = BoxDomain([0.0, 0.0], [1.0, 1.0])
    assert box.contains([0.5, 0.5])
    assert not box.contains([0.0, 0.5])
    assert not box.contains([0.5, 1.0])
    assert not box.contains([0.5, 0.5, 0.5])


def test_unbounded_contains():
    box = BoxDomain.unbounded(3)
    assert box.contains([1e12, -1e12, 0.0])
    assert not box.is_bounded


def test_validation_errors():
    with pytest.raises(ValueError, match="^box requires lower < upper componentwise$"):
        BoxDomain([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        BoxDomain([0.0], [1.0], sample_lower=[0.1], sample_upper=None)
    with pytest.raises(ValueError):
        BoxDomain([0.0], [1.0], sample_lower=[-0.5], sample_upper=[0.5])
    with pytest.raises(ValueError):
        BoxDomain([0.0], [np.inf], sample_lower=[1.0], sample_upper=[np.inf])
    with pytest.raises(ValueError, match="^sample box requires lower < upper componentwise$"):
        BoxDomain([0.0, 0.0], [1.0, 1.0], sample_lower=[0.5, 0.5], sample_upper=[0.5, 0.7])
    with pytest.raises(ValueError, match=r"^bounds must have shape \(2,\), got \(3,\)$"):
        BoxDomain([0.0, 0.0], [1.0, 1.0, 1.0])
    box = BoxDomain([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="^num must be >= 1$"):
        box.halton_points(0, 0)
    with pytest.raises(ValueError, match="^row length must match the box dimension$"):
        box.projected_interval([[1.0, 2.0, 3.0]])


def test_halton_points_deterministic_and_inside():
    box = BoxDomain([0.0, -1.0], [2.0, 1.0])
    p1 = box.halton_points(64, seed=11)
    p2 = box.halton_points(64, seed=11)
    p3 = box.halton_points(64, seed=12)
    np.testing.assert_array_equal(p1, p2)
    assert not np.array_equal(p1, p3)
    assert all(box.contains(x) for x in p1)


@pytest.mark.parametrize("lo, width", [(1e8, 1e-7), (1e12, 1e-3)])
def test_halton_points_inside_boxes_far_from_origin(lo, width):
    # The face inset is below the float spacing here, so rounding alone
    # would put some points on a face.
    box = BoxDomain([lo, lo], [lo + width, lo + width])
    points = box.halton_points(200, seed=0)
    assert sum(box.contains(x) for x in points) == 200


@pytest.mark.parametrize(
    "lo, hi",
    [(1e17, 1.0000000000000002e17), (0.0, 5e-324), (1.7976931348623157e308, np.inf),
     (-np.inf, -1.7976931348623157e308)],
)
def test_a_side_with_no_float_inside_is_rejected(lo, hi):
    """A side one float step wide (or from the largest float to inf) holds
    no point of the open box, so the box and the sample box refuse it,
    naming the side; two steps wide leave one float, which the Halton
    points then all take."""
    with pytest.raises(ValueError) as error:
        BoxDomain([0.0, lo], [1.0, hi])
    assert str(error.value) == f"box side 2 ({lo!r}, {hi!r}) has no float strictly inside"
    if np.isfinite(lo) and np.isfinite(hi):
        with pytest.raises(ValueError, match=r"^sample box side 1 .* has no float strictly inside$"):
            BoxDomain([-np.inf, 0.0], [np.inf, 1.0], [lo, 0.0], [hi, 1.0])
    lo, hi = 1e17, np.nextafter(1.0000000000000002e17, np.inf)
    box = BoxDomain([lo, 0.0], [hi, 1.0])
    points = box.halton_points(20, seed=0)
    assert box.inside(points).all() and set(points[:, 0]) == {1.0000000000000002e17}


def test_halton_points_across_a_box_whose_width_overflows():
    """hi - lo overflows on the first side: its column is formed without
    the width, so the points spread strictly inside with no warning, at
    lo + u (hi - lo) to rounding; the finite side keeps its formula."""
    box = BoxDomain([-1e308, 0.0], [1.7e308, 1.0])
    points = box.halton_points(5, seed=0)
    u = _scrambled_halton(5, 2, 0)
    assert all(box.contains(x) for x in points)
    np.testing.assert_allclose(points[:, 0] / 1e308, 2.7 * u[:, 0] - 1.0, rtol=1e-14)
    assert len(set(points[:, 0])) == 5
    narrow = BoxDomain([0.0, 0.0], [1.0, 1.0]).halton_points(5, seed=0)
    assert points[:, 1].tobytes() == narrow[:, 1].tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 123456, 2**32 + 1, 2**64 + 3])
def test_scrambled_halton_is_scipys_bit_for_bit(seed):
    for d in [*range(1, 41), 51, 64]:
        engine = qmc.Halton(d=d, scramble=True, seed=seed)
        for num in (1, 2, 7, 50, 100, 300, 1000):
            expected = engine.reset().random(num)  # reset: a fresh engine's draw
            u = _scrambled_halton(num, d, seed)
            assert u.shape == expected.shape, (d, num)
            assert u.tobytes() == expected.tobytes(), (d, num)


def test_cached_halton_table_is_read_only_and_redrawn_after_eviction():
    """The cached digit table cannot be written, and a (d, seed) drawn again
    after nine other seeds have pushed it out of the cache is scipy's still:
    the seed-free layout it is built on is not moved by a draw."""
    d, num = 32, 100
    expected = qmc.Halton(d=d, scramble=True, seed=7).random(num)
    assert _scrambled_halton(num, d, 7).tobytes() == expected.tobytes()
    for _, terms in _halton_scrambling(d, 7)[2]:
        assert not terms.flags.writeable
    for seed in range(100, 109):
        _scrambled_halton(num, d, seed)
    assert _scrambled_halton(num, d, 7).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [1, 3, 32])
def test_halton_points_are_a_prefix_of_a_longer_draw(d):
    box = BoxDomain(-np.ones(d), np.full(d, 2.0))
    points = box.halton_points(300, seed=4)
    for m in (1, 2, 7, 50, 299):
        assert box.halton_points(m, seed=4).tobytes() == points[:m].tobytes()


def test_require_inside_points_and_blocks():
    box = BoxDomain([0.0, 0.0], [1.0, 1.0])
    x = box.require_inside([0.5, 0.25])
    assert x.dtype == float and x.tolist() == [0.5, 0.25]
    block = np.array([[0.5, 0.5], [0.1, 0.9]])
    assert box.require_inside(block) is block
    with pytest.raises(OutOfDomainError, match=r"point \[1.0, 0.5\] is outside"):
        box.require_inside([1.0, 0.5])
    with pytest.raises(OutOfDomainError, match=r"point \[0.2, 0.0\] is outside"):
        box.require_inside([[0.5, 0.5], [0.2, 0.0], [2.0, 2.0]])
    with pytest.raises(OutOfDomainError):
        box.require_inside([0.5, 0.5, 0.5])
    with pytest.raises(OutOfDomainError):
        box.require_inside(0.5)


def test_inside_rows_match_contains():
    """A block's membership is each row's: faces, nan and inf are outside."""
    box = BoxDomain([0.0, -np.inf], [1.0, 2.0])
    block = np.array(
        [[0.5, -1e300], [0.0, 1.0], [0.5, 2.0], [np.nan, 1.0], [0.5, -np.inf], [1e-300, 1.9]]
    )
    assert box.inside(block).tolist() == [box.contains(x) for x in block]
    assert box.inside(block).tolist() == [True, False, False, False, False, True]
    assert box.inside(np.empty((0, 2))).shape == (0,)


def test_unbounded_sampling_requires_sample_box():
    box = BoxDomain.unbounded(2)
    with pytest.raises(EmptyDomainSampleError):
        box.halton_points(5, seed=0)
    boxed = BoxDomain.unbounded(2, sample_lower=[0.0, 0.0], sample_upper=[1.0, 1.0])
    pts = boxed.halton_points(5, seed=0)
    assert pts.shape == (5, 2)
    assert np.all(pts > 0.0) and np.all(pts < 1.0)


def test_projected_interval():
    box = BoxDomain([0.0, -1.0], [2.0, 3.0])
    assert box.projected_interval([1.0, 0.0]) == (0.0, 2.0)
    assert box.projected_interval([1.0, 1.0]) == (-1.0, 5.0)
    assert box.projected_interval([-1.0, 2.0]) == (-4.0, 6.0)


def test_projected_interval_with_infinities():
    box = BoxDomain([0.0, -np.inf], [np.inf, 0.0])
    assert box.projected_interval([1.0, 0.0]) == (0.0, np.inf)
    assert box.projected_interval([0.0, 1.0]) == (-np.inf, 0.0)
    assert box.projected_interval([1.0, -2.0]) == (0.0, np.inf)


def _interval_by_loop(box: BoxDomain, row) -> tuple[float, float]:
    """Reference: the interval bounds summed term by term in row order,
    skipping zero coefficients."""
    lo = 0.0
    hi = 0.0
    for b, a, c in zip(np.asarray(row, dtype=float), box.lower, box.upper):
        if b == 0.0:
            continue
        p, q = b * a, b * c
        lo += min(p, q)
        hi += max(p, q)
    return float(lo), float(hi)


def _random_box(rng, n: int) -> BoxDomain:
    """Faces of random sign and magnitude 1e-3 to 1e3; about a quarter of
    the lower faces are -inf and a quarter of the upper faces +inf."""
    lower = np.sign(rng.standard_normal(n)) * 10.0 ** rng.uniform(-3, 3, n)
    upper = lower + 10.0 ** rng.uniform(-3, 3, n)
    lower[rng.random(n) < 0.25] = -np.inf
    upper[rng.random(n) < 0.25] = np.inf
    return BoxDomain(lower, upper)


def test_projected_interval_block_matches_the_loop_bitwise():
    rng = np.random.default_rng(14)
    for n in range(1, 41):
        for _ in range(3):
            box = _random_box(rng, n)
            rows = rng.standard_normal((5, n)) * 10.0 ** rng.uniform(-3, 3, (5, n))
            zero = rng.random((5, n)) < 0.4
            rows[zero] = np.copysign(0.0, rows[zero])  # zeros of both signs
            expected = np.array([_interval_by_loop(box, row) for row in rows])
            got = box.projected_interval(rows)
            assert got.shape == (5, 2)
            assert got.tobytes() == expected.tobytes()
            single = box.projected_interval(rows[1])
            assert type(single) is tuple and all(type(v) is float for v in single)
            assert np.array(single).tobytes() == expected[1].tobytes()


def test_projected_interval_zero_coefficient_on_an_infinite_face():
    box = BoxDomain([-np.inf, 1.0], [np.inf, 2.0])
    assert box.projected_interval([0.0, -3.0]) == (-6.0, -3.0)
    assert box.projected_interval(np.array([[0.0, 1.0], [-0.0, 2.0]])).tolist() == [
        [1.0, 2.0],
        [2.0, 4.0],
    ]
    assert box.projected_interval(np.zeros((0, 2))).shape == (0, 2)
    # A -0.0 term leaves the running sum at +0.0, as the loop's.
    lo, hi = BoxDomain([0.0], [1.0]).projected_interval([-1.0])
    assert (lo, hi) == (-1.0, 0.0) and not np.signbit(hi)


def test_projected_interval_overflow_is_silent():
    box = BoxDomain([0.5, 0.5], [10.0, 10.0])
    assert box.projected_interval([1e308, 0.0]) == (5e307, np.inf)
