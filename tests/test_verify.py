"""The rough grids of the norm-bound checks: verify._normal_draws."""

import math

import numpy as np

from fracalc.verify import _normal_draws

SEED = 171717
SHAPE = (10, 2001)  # the grids of verify._norm_bound_rows: 20,010 draws
MASK = 2 ** 64 - 1


def _splitmix64_uniform(seed: int, i: int) -> float:
    """The uniform of draw i by Python integers: the SplitMix64 finaliser
    of seed + i modulo 2^64, its top 53 bits times 2^-53."""
    z = (seed + i) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return ((z ^ (z >> 31)) >> 11) * 2.0 ** -53


def test_deterministic_with_the_shape_asked_for():
    first = _normal_draws(SEED, SHAPE)
    assert first.shape == SHAPE
    assert np.array_equal(first, _normal_draws(SEED, SHAPE))
    assert np.all(np.isfinite(first))
    # an odd count takes the first value of its last pair
    assert np.array_equal(_normal_draws(SEED, (5,)), first[0, :5])


def test_first_values_are_pinned():
    # to a few ulps, not bits: np.log1p, np.cos and np.sin may differ in
    # the last bit between builds of numpy
    np.testing.assert_allclose(
        _normal_draws(SEED, SHAPE)[0, :4],
        [-1.3499102165168704, 1.9002010748034814,
         -1.2449897562439076, -1.0431653086720392], rtol=1e-14, atol=0.0)


def test_first_pairs_follow_splitmix64_and_box_muller():
    draws = _normal_draws(SEED, (8,))
    for k in range(4):
        u1 = _splitmix64_uniform(SEED, 2 * k)
        u2 = _splitmix64_uniform(SEED, 2 * k + 1)
        r = math.sqrt(-2.0 * math.log1p(-u1))
        np.testing.assert_allclose(
            draws[2 * k:2 * k + 2],
            [r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)],
            rtol=1e-13, atol=0.0)


def test_standard_normal_moments():
    x = _normal_draws(SEED, SHAPE).ravel()
    assert abs(x.mean()) < 0.05
    assert abs(x.std() - 1.0) < 0.05


def test_grids_stay_rough():
    # neighbouring draws are uncorrelated, so each grid has no smooth part
    x = _normal_draws(SEED, SHAPE).ravel()
    x = x - x.mean()
    lag1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    assert abs(lag1) < 0.05
