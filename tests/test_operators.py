"""Tests for structured operators: application, norms, restrictions."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    window_singular_values,
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


# signed zeros and negatives alongside generic values, so sign bits show
VALUES = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, -0.5)), st.floats(-3.0, 3.0))


@st.composite
def operators_of(draw, kinds=("diagonal", "shift", "finite_rank_plus", "dense")):
    kind = draw(st.sampled_from(kinds))
    prefix = draw(st.lists(VALUES, max_size=4))
    periodic = draw(st.lists(VALUES, min_size=1, max_size=3))
    if kind == "diagonal":
        return Diagonal(prefix, periodic)
    if kind == "shift":
        return WeightedShift(prefix, periodic)
    b = draw(st.integers(1, 5))
    block = np.reshape(draw(st.lists(VALUES, min_size=b * b, max_size=b * b)), (b, b))
    return DenseMatrix(block) if kind == "dense" else FiniteRankPlus(block, Diagonal(prefix, periodic))


@st.composite
def tail_vectors(draw):
    prefix = draw(st.lists(VALUES, max_size=6))
    coeffs = draw(st.lists(VALUES, min_size=1, max_size=3))
    return TailVector(prefix, coeffs, draw(st.sampled_from((0.0, 0.5, -0.9))))


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

    def test_block_image_keeps_signed_zeros_of_a_combination(self):
        T = FiniteRankPlus([[1.0]], Diagonal((), (-1.0,)))
        assert repr(apply(T, TailVector((1.0, 0.0, 2.0))).to_dict()["prefix"]) == "[0.0, 0.0, -2.0]"

    # the example: a zero last row of the block must not lengthen the head before a tail
    @given(operators_of(("finite_rank_plus", "dense")), tail_vectors())
    @example(FiniteRankPlus([[1.0, 0.0], [0.0, 0.0]], Diagonal((), (1.0,))), TailVector((), (1.0,), 0.5))
    def test_block_plus_diagonal_is_their_combination(self, T, v):
        # bit for bit, signed zeros included: the sum of the two images
        block_image = TailVector(T.block @ v.coords(T.block_size))
        expected = linear_combine([1.0, 1.0], [apply(T.diagonal, v), block_image])
        assert repr(apply(T, v).to_dict()) == repr(expected.to_dict())

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

    def test_columns_are_images_of_units(self):
        # every kind, spill rows included: the compression is read from here
        rng = np.random.default_rng(18)
        kinds = set()
        for _ in range(80):
            T = random_operator(rng)
            kinds.add(type(T))
            N = int(rng.integers(1, 9))
            A = window_action_matrix(T, N)
            for j in range(1, N + 1):
                image = apply(T, unit_vector(j))
                assert image.has_zero_tail and image.anchor <= A.shape[0]
                np.testing.assert_array_equal(A[:, j - 1], image.coords(A.shape[0]))
        assert kinds == {Diagonal, WeightedShift, FiniteRankPlus, DenseMatrix}

    @given(operators_of(), st.integers(1, 12))
    def test_one_formula_matches_each_variant(self, T, N):
        if isinstance(T, Diagonal):
            expected = np.diag(T.entries(N))
        elif isinstance(T, WeightedShift):
            expected = np.zeros((N + 1, N))
            expected[np.arange(1, N + 1), np.arange(N)] = T.weights(N)
        else:
            expected = np.zeros((max(N, T.block_size), N))
            expected[:N, :N] = np.diag(T.diagonal.entries(N))
            b = min(T.block_size, N)
            expected[: T.block_size, :b] += T.block[:, :b]
        A = window_action_matrix(T, N)
        assert A.shape == expected.shape and A.tobytes() == expected.tobytes()


class TestWindowSingularValues:
    @settings(max_examples=300)
    @given(operators_of(), st.integers(1, 40))
    def test_against_a_dense_svd(self, T, N):
        values = window_singular_values(T, N)
        reference = np.linalg.svd(window_action_matrix(T, N), compute_uv=False)
        assert values.shape == (N,)
        if isinstance(T, (Diagonal, WeightedShift)):
            # orthogonal columns: the spectrum is the sorted weight moduli, exactly
            assert values.tobytes() == np.sort(np.abs(T.entries(N)))[::-1].tobytes()
        np.testing.assert_allclose(values, reference, rtol=0.0, atol=1e-15 * reference[0])

    def test_refused_before_allocating(self):
        tracemalloc.start()
        try:
            for T in (IDENT, WeightedShift(periodic_values=(1.0, 0.5)), DenseMatrix(np.ones((3, 3)))):
                with pytest.raises(BadDimensions, match="N=16777217 is above the cap of 16777216"):
                    window_singular_values(T, 2**24 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_far_past_the_window_matrix_cap(self):
        # a 100001 x 100000 window matrix is refused; its spectrum is not
        values = window_singular_values(WeightedShift((0.7, 1.3), (1.0, 0.5)), 100_000)
        assert (values[0], values[-1], values.size) == (1.3, 0.5, 100_000)


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

    def test_cap_on_rows_times_columns(self, monkeypatch):
        monkeypatch.setattr(operators, "MAX_WINDOW_ENTRIES", 42)
        shift = WeightedShift(periodic_values=(1.0, 0.5))
        assert truncate_operator(shift, 6).size == 6
        with pytest.raises(BadDimensions, match=r"N=7 needs a matrix of 8 rows x 7 columns"):
            truncate_operator(shift, 7)
        with pytest.raises(BadDimensions, match=r"N=4 needs a matrix of 14 rows"):
            truncate_operator(DenseMatrix(np.ones((14, 14))), 4)

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

    def test_dense_is_a_block_on_the_zero_diagonal(self):
        m = np.arange(9.0).reshape(3, 3) - 4.0
        T = DenseMatrix(m)
        assert isinstance(T, FiniteRankPlus)
        np.testing.assert_array_equal(T.diagonal.entries(5), np.zeros(5))
        data = T.to_dict()
        assert data == {"kind": "dense", "block": m.tolist()}
        U = operator_from_dict(data)
        assert type(U) is DenseMatrix and U.size == 3
        np.testing.assert_array_equal(U.matrix, m)

    def test_weight_layouts_stay_distinct_types(self):
        shift = WeightedShift((0.7,), (1.0, -0.5))
        assert not isinstance(shift, Diagonal) and not isinstance(Diagonal(), WeightedShift)
        np.testing.assert_array_equal(shift.weights(6), shift.entries(6))
        np.testing.assert_array_equal(WeightedShift().weights(3), np.ones(3))
        for T in (shift, Diagonal((2.0,), (-1.0, 0.0))):
            U = operator_from_dict(T.to_dict())
            assert type(U) is type(T) and U.to_dict() == T.to_dict()

    @pytest.mark.parametrize("kind", [Diagonal, WeightedShift])
    def test_empty_period_names_the_class(self, kind):
        with pytest.raises(BadDimensions, match=f"^{kind.__name__} needs a nonempty periodic part"):
            kind(periodic_values=())

    def test_unknown_kind(self):
        with pytest.raises(BadDimensions):
            operator_from_dict({"kind": "mystery"})

    def test_bad_block(self):
        with pytest.raises(BadDimensions):
            FiniteRankPlus(np.zeros((2, 3)), IDENT)
        with pytest.raises(BadDimensions):
            Diagonal((1.0,), ())
        with pytest.raises(BadDimensions, match="block must be square"):
            DenseMatrix(np.zeros((2, 3)))


def per_class_apply(T, v):
    """apply as each class wrote it before the operators shared one layout."""
    if isinstance(T, Diagonal):
        return operators._apply_diagonal(T, v)
    if isinstance(T, WeightedShift):
        return operators._shift_up(operators._apply_diagonal(T, v))
    diag = operators._apply_diagonal(T.diagonal, v)
    image = np.trim_zeros(T.block @ v.coords(T.block_size), "b")
    anchor = max(diag.anchor, image.size)
    head = diag.coords(anchor) + 0.0
    head[: image.size] += image
    return TailVector(head, operators._realigned_tail(diag, anchor, diag.period) + 0.0, diag.tail_ratio)


def per_class_norm(T, space):
    """operator_norm_bracket as each class wrote it before the shared layout."""
    if isinstance(T, FiniteRankPlus):
        B = T.block_size
        d = T.diagonal
        beyond = np.concatenate([d.prefix_values[B:], d.periodic_values])
        block = T.block + np.diag(d.entries(B))
        value = max(float(np.linalg.norm(block, space.p)), float(np.max(np.abs(beyond))))
        return value, value
    sup = float(np.max(np.abs(T.periodic_values)))
    if T.prefix_values.size:
        sup = max(sup, float(np.max(np.abs(T.prefix_values))))
    return sup, sup


def per_class_window(T, N):
    """window_action_matrix with its own dispatch on the class."""
    if isinstance(T, FiniteRankPlus):
        weights, shift, block = T.diagonal, 0, T.block
    else:
        weights, shift, block = T, int(isinstance(T, WeightedShift)), np.zeros((0, 0))
    B = block.shape[0]
    m = np.zeros((max(N + shift, B), N))
    m[np.arange(shift, N + shift), np.arange(N)] = weights.entries(N)
    m[:B, :B] += block[:, :N]
    return m


def vector_bits(v):
    return v.prefix.tobytes(), v.tail_coeffs.tobytes(), np.float64(v.tail_ratio).tobytes()


class TestOneLayout:
    """apply, the norms and the window builder read one (weights, shift, block) layout."""

    @staticmethod
    def draw(rng, n):
        values = rng.standard_normal(n)
        picks = rng.random(n) < 0.3
        values[picks] = rng.choice([0.0, -0.0, 1.0, -1.0, -0.5], int(np.count_nonzero(picks)))
        return values

    def weights(self, rng):
        if rng.random() < 0.25:  # all-zero weights, signed zeros included
            return (), rng.choice([0.0, -0.0], int(rng.integers(1, 4)))
        return self.draw(rng, int(rng.integers(0, 4))), self.draw(rng, int(rng.integers(1, 4)))

    def operator(self, rng, kind):
        if kind == "diagonal":
            return Diagonal(*self.weights(rng))
        if kind == "shift":
            return WeightedShift(*self.weights(rng))
        b = int(rng.integers(1, 6))
        block = self.draw(rng, b * b).reshape(b, b)
        if kind == "dense":
            return DenseMatrix(block)
        if kind == "zero_diagonal":
            return FiniteRankPlus(block, Diagonal())
        return FiniteRankPlus(block, Diagonal(*self.weights(rng)))

    def vector(self, rng):
        prefix = self.draw(rng, int(rng.integers(0, 6)))
        if rng.random() < 0.3:
            return TailVector(prefix)
        return TailVector(prefix, self.draw(rng, int(rng.integers(1, 4))), float(rng.uniform(-0.95, 0.95)))

    @pytest.mark.parametrize("seed, kind", enumerate(["diagonal", "shift", "finite_rank_plus", "zero_diagonal", "dense"]))
    def test_bit_identical_to_per_class_code(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(400):
            T = self.operator(rng, kind)
            v = self.vector(rng)
            assert vector_bits(apply(T, v)) == vector_bits(per_class_apply(T, v))
            for space in (ELL1, ELL2, ELLINF):
                got = np.array(operator_norm_bracket(T, space))
                assert got.tobytes() == np.array(per_class_norm(T, space)).tobytes()
            N = int(rng.integers(1, 9))
            window = window_action_matrix(T, N)
            expected = per_class_window(T, N)
            assert window.shape == expected.shape and window.tobytes() == expected.tobytes()

    def test_dense_apply_skips_the_zero_diagonal(self, monkeypatch):
        calls = []
        apply_diagonal = operators._apply_diagonal

        def counting(T, v):
            calls.append(T)
            return apply_diagonal(T, v)

        monkeypatch.setattr(operators, "_apply_diagonal", counting)
        v = TailVector((0.3, -1.0, 0.5), (1.0, -0.5), 0.9)
        block = [[1.0, 0.2, -0.4], [0.3, -0.5, 0.1], [0.0, 0.6, 0.2]]
        for T in (DenseMatrix(block), FiniteRankPlus(block, Diagonal()), Diagonal(periodic_values=(-0.0,))):
            apply(T, v)
        assert calls == []
        apply(FiniteRankPlus(block, ALT), v)
        assert calls == [ALT]
