"""Tests for structured operators: application, norms, restrictions."""

import math
import tracemalloc

import numpy as np
import pytest

from opquant import ELL1, ELL2, ELLINF, BadDimensions, DegenerateBasis, Subspace, TailVector
from opquant import linear_combine, norm, scaled, unit_vector
from opquant import operators
from opquant.operators import (
    DenseMatrix,
    Diagonal,
    FiniteRankPlus,
    WeightedShift,
    apply,
    operator_from_dict,
    operator_norm,
    operator_norm_bracket,
    restricted_extremes,
    restricted_min_modulus,
    restricted_norm,
    truncate_operator,
    window_action_matrix,
)

E1 = unit_vector(1)
E2 = unit_vector(2)
E3 = unit_vector(3)
ALT = Diagonal(prefix_values=(), periodic_values=(1.0, 2.0))
IDENT = Diagonal(periodic_values=(1.0,))


def random_operator(rng):
    roll = rng.integers(0, 4)
    prefix = rng.standard_normal(rng.integers(0, 4))
    periodic = rng.standard_normal(rng.integers(1, 4))
    if roll == 0:
        return Diagonal(prefix, periodic)
    if roll == 1:
        return WeightedShift(prefix, periodic)
    if roll == 2:
        b = rng.integers(1, 5)
        return FiniteRankPlus(rng.standard_normal((b, b)), Diagonal(prefix, periodic))
    n = rng.integers(1, 6)
    return DenseMatrix(rng.standard_normal((n, n)))


class TestApply:
    def test_alternating_diagonal_on_unit(self):
        assert apply(ALT, E3).equals(E3)
        assert apply(ALT, E2).equals(scaled(E2, 2.0))

    def test_plain_shift(self):
        shift = WeightedShift(periodic_values=(1.0,))
        assert apply(shift, E1).equals(E2)

    def test_zero_diagonal(self):
        zero = Diagonal(periodic_values=(0.0,))
        v = TailVector((1.0, -2.0), (1.0,), 0.5)
        assert apply(zero, v).is_zero

    def test_diagonal_preserves_tail_class(self):
        v = TailVector((3.0,), (1.0, -1.0), 0.5)
        w = apply(ALT, v)
        n = 30
        expected = v.coords(n) * ALT.entries(n)
        np.testing.assert_allclose(w.coords(n), expected, atol=1e-14)

    def test_shift_moves_coordinates(self):
        shift = WeightedShift((2.0,), (1.0, 3.0))
        v = TailVector((1.0, -1.0), (0.5,), 0.25)
        w = apply(shift, v)
        n = 30
        expected = np.zeros(n)
        expected[1:] = v.coords(n - 1) * shift.weights(n - 1)
        np.testing.assert_allclose(w.coords(n), expected, atol=1e-14)
        assert w.coordinate(1) == 0.0

    def test_finite_rank_plus_action(self):
        T = FiniteRankPlus(np.array([[0.0, 1.0], [1.0, 0.0]]), ALT)
        v = TailVector((1.0, 2.0, 3.0))
        w = apply(T, v)
        np.testing.assert_allclose(w.coords(4), [1 * 1 + 2, 2 * 2 + 1, 1 * 3, 0.0], atol=1e-14)

    def test_dense_kills_far_coordinates(self):
        T = DenseMatrix(np.eye(2))
        v = TailVector((1.0, 2.0, 3.0), (1.0,), 0.5)
        w = apply(T, v)
        np.testing.assert_array_equal(w.coords(4), [1.0, 2.0, 0.0, 0.0])

    def test_linearity(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            T = random_operator(rng)
            ratio = rng.uniform(-0.9, 0.9)
            u = TailVector(rng.standard_normal(rng.integers(0, 5)), rng.standard_normal(rng.integers(1, 4)), ratio)
            v = TailVector(rng.standard_normal(rng.integers(0, 5)), rng.standard_normal(rng.integers(1, 4)), ratio)
            a, b = rng.standard_normal(2)
            lhs = apply(T, linear_combine([a, b], [u, v]))
            rhs = linear_combine([a, b], [apply(T, u), apply(T, v)])
            n = 40
            np.testing.assert_allclose(lhs.coords(n), rhs.coords(n), atol=1e-12)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(IDENT) == 1.0

    def test_alternating_diagonal(self):
        assert operator_norm(ALT) == 2.0

    def test_dense_diag(self):
        assert operator_norm(DenseMatrix(np.diag([3.0, 4.0]))) == pytest.approx(4.0, rel=1e-12)

    def test_prefix_dominates(self):
        T = Diagonal((5.0,), (1.0,))
        assert operator_norm(T) == 5.0

    def test_shift_norm_is_weight_sup(self):
        T = WeightedShift((0.5,), (2.0, 1.0))
        for space in (ELL1, ELL2, ELLINF):
            assert operator_norm(T, space) == 2.0

    def test_finite_rank_bracket(self):
        T = FiniteRankPlus(np.array([[1.0]]), IDENT)
        lo, hi = operator_norm_bracket(T)
        # T = I + e_1 x e_1 acts as diag(2, 1, 1, ...)
        assert lo == pytest.approx(2.0, rel=1e-9)
        assert hi == pytest.approx(2.0, rel=1e-9)
        assert lo <= hi

    def test_bracket_orders(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            T = random_operator(rng)
            for space in (ELL1, ELL2, ELLINF):
                lo, hi = operator_norm_bracket(T, space)
                assert 0.0 <= lo == hi
                if isinstance(T, FiniteRankPlus):
                    # a window past block, prefix and one period sees every part of T
                    d = T.diagonal
                    N = T.block_size + d.prefix_values.size + d.periodic_values.size
                    A = window_action_matrix(T, N)
                    expected = {
                        ELL1: np.abs(A).sum(axis=0).max(),
                        ELL2: np.linalg.norm(A, 2),
                        ELLINF: np.abs(A).sum(axis=1).max(),
                    }[space]
                    assert hi == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_norm_dominates_random_images(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            T = random_operator(rng)
            v = TailVector(rng.standard_normal(rng.integers(1, 6)), rng.standard_normal(rng.integers(1, 3)), rng.uniform(-0.8, 0.8))
            for space in (ELL1, ELL2, ELLINF):
                nv = norm(v, space)
                if nv == 0.0:
                    continue
                assert norm(apply(T, v), space) <= nv * (operator_norm(T, space) + 1e-9)


class TestRestrictedNorms:
    def test_coordinate_span(self):
        M = Subspace((E1,))
        assert restricted_norm(ALT, M) == pytest.approx(1.0, rel=1e-12)

    def test_mixed_direction(self):
        m = scaled(linear_combine([1.0, 1.0], [E1, E2]), 1.0 / math.sqrt(2))
        M = Subspace((m,))
        assert restricted_norm(ALT, M) == pytest.approx(math.sqrt(5.0 / 2.0), rel=1e-12)

    def test_identity_restriction(self):
        rng = np.random.default_rng(13)
        vs = tuple(TailVector(rng.standard_normal(5)) for _ in range(3))
        M = Subspace(vs)
        assert restricted_norm(IDENT, M) == pytest.approx(1.0, rel=1e-10)
        assert restricted_min_modulus(IDENT, M) == pytest.approx(1.0, rel=1e-10)

    def test_min_modulus_two_coordinates(self):
        M = Subspace((E1, E2))
        assert restricted_min_modulus(ALT, M) == pytest.approx(1.0, rel=1e-12)

    def test_min_modulus_vanishing(self):
        T = Diagonal(periodic_values=(0.0, 1.0))
        M = Subspace((E1,))
        assert restricted_min_modulus(T, M) == pytest.approx(0.0, abs=1e-12)

    def test_sandwich(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            T = random_operator(rng)
            k = rng.integers(1, 4)
            try:
                M = Subspace(tuple(TailVector(rng.standard_normal(6)) for _ in range(k)))
            except DegenerateBasis:
                continue
            lo, hi = restricted_extremes(T, M)
            assert lo <= hi + 1e-12
            assert hi <= operator_norm(T) + 1e-9

    def test_degenerate_basis_rejected(self):
        with pytest.raises(DegenerateBasis):
            Subspace((E1, scaled(E1, 2.0)))

    def test_compression_consistency(self):
        rng = np.random.default_rng(15)
        n = 8
        for _ in range(50):
            T = Diagonal(rng.standard_normal(rng.integers(0, 4)), rng.standard_normal(rng.integers(1, 4)))
            cols = rng.choice(n, size=rng.integers(1, 5), replace=False)
            M = Subspace(tuple(unit_vector(int(j) + 1) for j in cols))
            sub = truncate_operator(T, n).matrix[:, cols]
            assert restricted_norm(T, M) == pytest.approx(np.linalg.norm(sub, 2), abs=1e-9)
            shift = WeightedShift(rng.standard_normal(2), rng.standard_normal(2))
            sub_s = truncate_operator(shift, n + 1).matrix[:, cols]
            assert restricted_norm(shift, M) == pytest.approx(np.linalg.norm(sub_s, 2), abs=1e-9)


class TestWindowActionMatrix:
    def test_cap_on_rows_times_columns(self, monkeypatch):
        monkeypatch.setattr(operators, "MAX_WINDOW_ENTRIES", 42)
        shift = WeightedShift(periodic_values=(1.0, 0.5))
        assert window_action_matrix(shift, 6).shape == (7, 6)
        with pytest.raises(BadDimensions, match=r"N=7 needs a matrix of 8 rows x 7 columns"):
            window_action_matrix(shift, 7)
        block = DenseMatrix(np.ones((14, 14)))
        assert window_action_matrix(block, 3).shape == (14, 3)
        with pytest.raises(BadDimensions, match=r"N=4 needs a matrix of 14 rows"):
            window_action_matrix(block, 4)

    def test_refused_before_allocating(self):
        tracemalloc.start()
        try:
            for T in (IDENT, WeightedShift(periodic_values=(1.0, 0.5))):
                with pytest.raises(BadDimensions, match="N=100000"):
                    window_action_matrix(T, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestTruncateOperator:
    def test_alternating_diagonal(self):
        m = truncate_operator(ALT, 4).matrix
        np.testing.assert_array_equal(m, np.diag([1.0, 2.0, 1.0, 2.0]))

    def test_unit_shift(self):
        m = truncate_operator(WeightedShift(periodic_values=(1.0,)), 3).matrix
        np.testing.assert_array_equal(m, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_zero_diagonal(self):
        m = truncate_operator(Diagonal(periodic_values=(0.0,)), 5).matrix
        np.testing.assert_array_equal(m, np.zeros((5, 5)))

    def test_matches_action_on_units(self):
        rng = np.random.default_rng(16)
        n = 7
        for _ in range(50):
            T = random_operator(rng)
            m = truncate_operator(T, n).matrix
            for j in range(1, n + 1):
                image = apply(T, unit_vector(j)).coords(n)
                np.testing.assert_allclose(m[:, j - 1], image, atol=1e-12)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            T = random_operator(rng)
            U = operator_from_dict(T.to_dict())
            n = 9
            np.testing.assert_array_equal(
                truncate_operator(U, n).matrix, truncate_operator(T, n).matrix
            )

    def test_unknown_kind(self):
        with pytest.raises(BadDimensions):
            operator_from_dict({"kind": "mystery"})

    def test_bad_block(self):
        with pytest.raises(BadDimensions):
            FiniteRankPlus(np.zeros((2, 3)), IDENT)
        with pytest.raises(BadDimensions):
            Diagonal((1.0,), ())
