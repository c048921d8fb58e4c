import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import isotonic_regression

from auctionmetrics.isotonic import pav_nondecreasing


def test_hand_example():
    fitted, adj = pav_nondecreasing([1.0, 3.0, 2.0])
    np.testing.assert_allclose(fitted, [1.0, 2.5, 2.5])
    assert adj == pytest.approx(0.5)


def test_already_monotone_is_unchanged():
    y = np.array([0.1, 0.2, 0.2, 0.9])
    fitted, adj = pav_nondecreasing(y)
    np.testing.assert_array_equal(fitted, y)
    assert adj == 0.0


def test_fully_decreasing_pools_to_mean():
    fitted, adj = pav_nondecreasing([3.0, 2.0, 1.0])
    np.testing.assert_allclose(fitted, 2.0)
    assert adj == pytest.approx(1.0)


def test_empty_input():
    fitted, adj = pav_nondecreasing([])
    assert fitted.size == 0 and adj == 0.0


@given(st.lists(st.floats(min_value=-10, max_value=10,
                          allow_nan=False), min_size=1, max_size=60))
def test_matches_scipy_oracle(ys):
    fitted, adj = pav_nondecreasing(ys)
    ref = isotonic_regression(np.asarray(ys), increasing=True).x
    np.testing.assert_allclose(fitted, ref, atol=1e-10)
    assert np.all(np.diff(fitted) >= -1e-12)
    assert adj == pytest.approx(float(np.max(np.abs(fitted - np.asarray(ys)))))


@given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                min_size=1, max_size=40))
def test_idempotent(ys):
    once, _ = pav_nondecreasing(ys)
    twice, adj = pav_nondecreasing(once)
    np.testing.assert_allclose(twice, once, atol=1e-12)
    assert adj <= 1e-12


def scalar_pav(y):
    """``pav_nondecreasing`` as it was: the stack in numpy arrays, indexed one
    numpy scalar at a time, and no early return."""
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if n == 0:
        return y.copy(), 0.0
    means = np.empty(n)
    counts = np.empty(n, dtype=np.int64)
    top = 0
    for v in y:
        means[top] = v
        counts[top] = 1
        top += 1
        while top > 1 and means[top - 2] > means[top - 1]:
            total = means[top - 2] * counts[top - 2] + means[top - 1] * counts[top - 1]
            counts[top - 2] += counts[top - 1]
            means[top - 2] = total / counts[top - 2]
            top -= 1
    out = np.repeat(means[:top], counts[:top])
    return out, float(np.max(np.abs(out - y)))


def test_pav_equals_the_numpy_scalar_stack_bit_for_bit():
    rng = np.random.default_rng(36)
    vectors = [[], [0.5], [-0.0], [0.0, -0.0], [np.inf], [1.0, np.inf], [np.nan, 0.5],
               [0.2, 0.2, 0.2], [0.3, 0.1, 0.1, 0.3]]
    for _ in range(1200):
        m = int(rng.integers(0, 60))
        y = np.round(rng.random(m), int(rng.integers(1, 4)))  # ties
        kind = rng.integers(0, 4)
        if kind == 1:
            y = np.sort(y)  # monotone: the early return
        elif kind == 2:
            y = np.sort(y) + rng.normal(0.0, 0.02, m)  # nearly monotone, as recover_F's
        elif kind == 3:
            y = np.repeat(y[:3], 5)
        vectors.append(y)
    for y in vectors:
        with np.errstate(invalid="ignore"):  # inf - inf and nan in the adjustment
            got, adj = pav_nondecreasing(y)
            want, want_adj = scalar_pav(y)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.array_equal([adj], [want_adj], equal_nan=True)
        if not math.isnan(want_adj):
            assert adj.hex() == want_adj.hex()
