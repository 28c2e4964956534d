"""The reference module against hand-computed cases.

Run from the repository root: python -m pytest bench/tests
"""

import math

import numpy as np
import pytest

import reference as ref

ALTERNATING = ref.Operator({"kind": "diagonal", "periodic": [2.0, 1.0]})
HARMONIC = ref.Operator({"kind": "diagonal", "prefix": list(1.0 / np.arange(1, 21)), "periodic": [0.0]})
SHIFT = ref.Operator({"kind": "shift", "periodic": [1.0, 0.5]})


@pytest.mark.parametrize("N, k, K", [(8, 2, 4), (12, 4, 8), (16, 6, 12), (10, 3, 6)])
def test_alternating_diagonal(N, k, K):
    assert ref.window_value(ALTERNATING, "Gamma", N, k, k) == 1.0
    assert ref.window_value(ALTERNATING, "Nabla", N, k, K) == 1.0
    assert ref.window_value(ALTERNATING, "Tau", N, k, k) == 2.0
    assert ref.window_value(ALTERNATING, "Delta", N, k, K) == 2.0


@pytest.mark.parametrize("k", range(1, 11))
def test_harmonic_diagonal_gamma(k):
    assert ref.window_value(HARMONIC, "Gamma", 2 * k, k, k) == 1.0 / (k + 1)


def test_shift_window_spill():
    m = SHIFT.window_matrix(6)
    assert m.shape == (7, 6)  # T e_6 = 0.5 e_7 spills past the window
    s = ref.window_singular_values(SHIFT, 6)
    np.testing.assert_allclose(s, [1.0, 1.0, 1.0, 0.5, 0.5, 0.5], rtol=0, atol=1e-15)
    assert ref.window_value(SHIFT, "Gamma", 6, 1, 1) == pytest.approx(0.5, abs=1e-15)


def test_dense_tail_vector():
    v = {"prefix": [1.0, 2.0], "tail_coeffs": [3.0], "tail_ratio": 0.5}
    x = ref.dense(v)
    np.testing.assert_array_equal(x[:5], [1.0, 2.0, 3.0, 1.5, 0.75])
    assert 0.5 ** (x.size - 3) <= ref.TAIL_CUTOFF
    # 1 + 4 + 9 / (1 - 1/4)
    assert ref.l2(x) == pytest.approx(math.sqrt(17.0), rel=1e-15)


def test_dense_period_two_tail():
    v = {"prefix": [], "tail_coeffs": [0.0, 1.0], "tail_ratio": -0.5}
    np.testing.assert_array_equal(ref.dense(v)[:4], [0.0, -0.5, 0.0, -0.125])
    assert ref.dense({"prefix": [4.0], "tail_coeffs": [0.0], "tail_ratio": 0.0}).tolist() == [4.0]


def test_apply_keeps_spill():
    x = np.array([0.0, 1.0, 2.0])
    np.testing.assert_array_equal(SHIFT.apply(x), [0.0, 0.0, 0.5, 2.0])
    frp = ref.Operator({"kind": "finite_rank_plus", "periodic": [2.0], "block": [[1.0, 1.0], [0.0, 1.0]]})
    np.testing.assert_array_equal(frp.apply(np.array([1.0])), [3.0, 0.0])
    dense = ref.Operator({"kind": "dense", "block": [[0.0, 1.0], [1.0, 0.0]]})
    np.testing.assert_array_equal(dense.apply(np.array([1.0, 2.0, 3.0])), [2.0, 1.0])


def test_operator_norms():
    assert SHIFT.norm() == 1.0
    # direct sum of the block part [[3]] and the diagonal 2, 2, ...
    frp = ref.Operator({"kind": "finite_rank_plus", "periodic": [2.0], "block": [[1.0]]})
    assert frp.norm() == 3.0
    frp = ref.Operator({"kind": "finite_rank_plus", "prefix": [0.0, 5.0], "periodic": [1.0], "block": [[1.0]]})
    assert frp.norm() == 5.0


def test_restricted_extremes():
    e = np.eye(6)
    # T e_5 = e_6 and T e_6 = 0.5 e_7: moduli 1 and 0.5 on span{e_5, e_6}
    low, high = ref.restricted_extremes(SHIFT, [e[4], e[5]])
    assert (low, high) == pytest.approx((0.5, 1.0), abs=1e-15)
    low, high = ref.restricted_extremes(ALTERNATING, [e[0] + e[1]])
    assert low == high == pytest.approx(math.sqrt(2.5), rel=1e-15)
