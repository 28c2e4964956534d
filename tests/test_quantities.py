"""Tests for the window quantities: oracles, search, limits, ordering."""

import itertools

import numpy as np
import pytest

from opquant import (
    BadDimensions,
    DenseMatrix,
    Diagonal,
    Subspace,
    TailVector,
    WeightedShift,
    coordinate_subset_value,
    delta_kK,
    gamma_k,
    grassmann_search,
    limit_estimate,
    nabla_kK,
    restricted_min_modulus,
    restricted_norm,
    svd_oracle,
    tau_k,
    truncate_operator,
    unit_vector,
    window_action_matrix,
)

IDENT = Diagonal(periodic_values=(1.0,))
ZERO = Diagonal(periodic_values=(0.0,))
D1234 = Diagonal(prefix_values=(1.0, 2.0, 3.0, 4.0), periodic_values=(0.0,))
ALT21 = Diagonal(periodic_values=(2.0, 1.0))


def exhaustive_pairwise(moduli, quantity, k, K):
    """Literal double enumeration over outer and inner index sets."""
    outer_best = None
    for S in itertools.combinations(range(len(moduli)), K):
        if quantity == "Delta":
            inner = min(max(moduli[j] for j in R) for R in itertools.combinations(S, k))
            if outer_best is None or inner > outer_best:
                outer_best = inner
        else:
            inner = max(min(moduli[j] for j in R) for R in itertools.combinations(S, k))
            if outer_best is None or inner < outer_best:
                outer_best = inner
    return outer_best


class TestSvdOracle:
    def test_diag(self):
        np.testing.assert_array_equal(svd_oracle(DenseMatrix(np.diag([1.0, 2.0, 3.0, 4.0]))), [4, 3, 2, 1])

    def test_zero(self):
        np.testing.assert_array_equal(svd_oracle(DenseMatrix(np.zeros((3, 3)))), np.zeros(3))

    def test_identity(self):
        np.testing.assert_array_equal(svd_oracle(DenseMatrix(np.eye(3))), np.ones(3))

    def test_shift_keeps_spill_rows(self):
        # T e_6 = 0.5 e_7 leaves the window; the square compression drops it and reads 0
        T = WeightedShift(periodic_values=(1.0, 0.5))
        estimate = gamma_k(T, 6, 1)
        assert (estimate.value, estimate.bracket) == (0.5, (0.5, 0.5))
        searched = gamma_k(T, 6, 1, method="grassmann_search", restarts=8, seed=0)
        assert searched.value == pytest.approx(0.5, abs=1e-9)
        assert tau_k(T, 6, 1).value == 1.0
        assert nabla_kK(T, 6, 1, 2).value == 0.5


class TestGammaTau:
    def test_identity_everywhere(self):
        for k in (1, 2, 3):
            assert gamma_k(IDENT, 5, k).value == 1.0
            assert tau_k(IDENT, 5, k).value == 1.0

    def test_zero_everywhere(self):
        for k in (1, 2, 3):
            assert gamma_k(ZERO, 5, k).value == 0.0
            assert tau_k(ZERO, 5, k).value == 0.0

    def test_gamma_1234(self):
        assert gamma_k(D1234, 4, 2).value == 2.0
        assert gamma_k(D1234, 4, 2, method="svd_oracle").value == 2.0

    def test_tau_1234(self):
        assert tau_k(D1234, 4, 2).value == 3.0
        assert tau_k(D1234, 4, 2, method="svd_oracle").value == 3.0

    def test_gamma_1234_brute_force(self):
        # no 2-dimensional subspace of the window does better than the
        # coordinate pair {1, 2}, which attains the value 2
        A = window_action_matrix(D1234, 4)
        rng = np.random.default_rng(20)
        best = np.inf
        for _ in range(10_000):
            Q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
            best = min(best, np.linalg.svd(A @ Q, compute_uv=False)[0])
        for _ in range(500):
            Q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
            M = Subspace(tuple(TailVector(Q[:, j]) for j in range(2)))
            best = min(best, restricted_norm(D1234, M))
        assert best >= 2.0 - 1e-6
        pair = Subspace((unit_vector(1), unit_vector(2)))
        assert restricted_norm(D1234, pair) == pytest.approx(2.0, rel=1e-12)

    def test_tau_1234_brute_force(self):
        A = window_action_matrix(D1234, 4)
        rng = np.random.default_rng(21)
        best = 0.0
        for _ in range(10_000):
            Q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
            best = max(best, np.linalg.svd(A @ Q, compute_uv=False)[-1])
        for _ in range(500):
            Q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
            M = Subspace(tuple(TailVector(Q[:, j]) for j in range(2)))
            best = max(best, restricted_min_modulus(D1234, M))
        assert best <= 3.0 + 1e-6
        pair = Subspace((unit_vector(3), unit_vector(4)))
        assert restricted_min_modulus(D1234, pair) == pytest.approx(3.0, rel=1e-12)

    def test_bad_dimensions(self):
        with pytest.raises(BadDimensions):
            gamma_k(IDENT, 4, 0)
        with pytest.raises(BadDimensions):
            tau_k(IDENT, 4, 5)
        with pytest.raises(BadDimensions):
            delta_kK(IDENT, 4, 3, 2)


class TestDeltaNabla:
    def test_identity_and_zero(self):
        assert delta_kK(IDENT, 5, 2, 3).value == 1.0
        assert nabla_kK(IDENT, 5, 2, 3).value == 1.0
        assert delta_kK(ZERO, 5, 2, 3).value == 0.0
        assert nabla_kK(ZERO, 5, 2, 3).value == 0.0

    def test_alternating_window(self):
        assert delta_kK(ALT21, 8, 2, 4).value == 2.0
        assert nabla_kK(ALT21, 8, 2, 4).value == 1.0

    def test_alternating_matches_double_enumeration(self):
        moduli = np.abs(ALT21.entries(8))
        assert exhaustive_pairwise(moduli, "Delta", 2, 4) == 2.0
        assert exhaustive_pairwise(moduli, "Nabla", 2, 4) == 1.0

    def test_subset_matches_double_enumeration(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            n = int(rng.integers(3, 7))
            moduli = np.abs(rng.standard_normal(n))
            k = int(rng.integers(1, n + 1))
            K = int(rng.integers(k, n + 1))
            for quantity in ("Delta", "Nabla"):
                value, witness = coordinate_subset_value(moduli, quantity, k, K)
                assert value == exhaustive_pairwise(moduli, quantity, k, K)
                assert len(witness) == K and len(set(witness)) == K

    def test_svd_conjecture_matches_subsets_on_diagonals(self):
        # the compression singular-value positions for all four
        # quantities are adopted only because this exhaustive
        # cross-validation holds on small windows
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            d = rng.standard_normal(n)
            T = Diagonal(prefix_values=d, periodic_values=(0.0,))
            sv = svd_oracle(truncate_operator(T, n))
            moduli = np.abs(d)
            for k in range(1, n + 1):
                assert sv[n - k] == coordinate_subset_value(moduli, "Gamma", k)[0]
                assert sv[k - 1] == coordinate_subset_value(moduli, "Tau", k)[0]
                for K in range(k, n + 1):
                    assert sv[K - k] == exhaustive_pairwise(moduli, "Delta", k, K)
                    assert sv[n - K + k - 1] == exhaustive_pairwise(moduli, "Nabla", k, K)


class TestSubsetWitnesses:
    def test_gamma_witness_lex_smallest(self):
        value, witness = coordinate_subset_value([2.0, 1.0, 1.0], "Gamma", 1)
        assert value == 1.0
        assert witness == (2,)

    def test_tau_witness_lex_smallest(self):
        value, witness = coordinate_subset_value([2.0, 1.0, 2.0], "Tau", 1)
        assert value == 2.0
        assert witness == (1,)

    def test_witness_attains_value(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            moduli = np.abs(rng.standard_normal(n))
            k = int(rng.integers(1, n + 1))
            gv, gw = coordinate_subset_value(moduli, "Gamma", k)
            assert max(moduli[j - 1] for j in gw) == gv
            tv, tw = coordinate_subset_value(moduli, "Tau", k)
            assert min(moduli[j - 1] for j in tw) == tv

    def test_witness_lex_order_matches_enumeration(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            # coarse grid forces frequent ties
            moduli = rng.integers(0, 3, size=n).astype(float)
            k = int(rng.integers(1, n + 1))
            for quantity, pick in (("Gamma", max), ("Tau", min)):
                _, witness = coordinate_subset_value(moduli, quantity, k)
                best, first = None, None
                for combo in itertools.combinations(range(n), k):
                    v = pick(moduli[j] for j in combo)
                    if best is None or (v < best if quantity == "Gamma" else v > best):
                        best, first = v, combo
                assert witness == tuple(j + 1 for j in first)


class TestGrassmann:
    def test_identity(self):
        value, basis = grassmann_search("min_restricted_norm", IDENT, 5, 2, restarts=4, seed=0)
        assert value == pytest.approx(1.0, rel=1e-9)
        assert basis.dim == 2

    def test_extremes_match_svd_k1(self):
        value, basis = grassmann_search("min_restricted_norm", D1234, 4, 1, restarts=8, seed=0)
        assert value == pytest.approx(1.0, abs=1e-6)
        assert restricted_norm(D1234, basis) == pytest.approx(value, abs=1e-9)
        value, basis = grassmann_search("max_min_modulus", D1234, 4, 1, restarts=8, seed=0)
        assert value == pytest.approx(4.0, abs=1e-6)
        assert restricted_min_modulus(D1234, basis) == pytest.approx(value, abs=1e-9)

    def test_matches_svd_oracle_on_dense(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            T = DenseMatrix(rng.standard_normal((6, 6)))
            sv = svd_oracle(truncate_operator(T, 6))
            for k in (1, 2, 3):
                g = gamma_k(T, 6, k, method="grassmann_search", seed=1)
                assert sv[6 - k] - 1e-9 <= g.value <= sv[6 - k] + 1e-6
                t = tau_k(T, 6, k, method="grassmann_search", seed=1)
                assert sv[k - 1] - 1e-6 <= t.value <= sv[k - 1] + 1e-9

    def test_basis_orthonormal_and_attaining(self):
        rng = np.random.default_rng(27)
        T = DenseMatrix(rng.standard_normal((5, 5)))
        for objective, check in (
            ("min_restricted_norm", restricted_norm),
            ("max_min_modulus", restricted_min_modulus),
        ):
            value, basis = grassmann_search(objective, T, 5, 2, restarts=16, seed=3)
            g = np.array([[float(np.dot(a.coords(5), b.coords(5))) for b in basis.basis] for a in basis.basis])
            np.testing.assert_allclose(g, np.eye(2), atol=1e-10)
            assert check(T, basis) == pytest.approx(value, abs=1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(28)
        T = DenseMatrix(rng.standard_normal((5, 5)))
        a1, b1 = grassmann_search("min_restricted_norm", T, 5, 2, restarts=8, seed=7)
        a2, b2 = grassmann_search("min_restricted_norm", T, 5, 2, restarts=8, seed=7)
        assert a1 == a2
        for u, v in zip(b1.basis, b2.basis):
            assert u.equals(v)

    def test_nested_search_brackets_exact_values(self):
        # interior-index search on a diagonal where the subset oracle is exact
        d = delta_kK(ALT21, 6, 1, 2, method="grassmann_search", seed=0)
        exact_d = delta_kK(ALT21, 6, 1, 2).value
        assert d.value <= exact_d + 1e-9
        assert d.bracket[0] == d.value
        n = nabla_kK(ALT21, 6, 1, 2, method="grassmann_search", seed=0)
        exact_n = nabla_kK(ALT21, 6, 1, 2).value
        assert n.value >= exact_n - 1e-9
        assert n.bracket[1] == n.value


class TestEstimateInvariants:
    def test_bracket_contains_value(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            T = DenseMatrix(rng.standard_normal((4, 4)))
            for est in (
                gamma_k(T, 4, 2),
                tau_k(T, 4, 2),
                delta_kK(T, 4, 1, 2),
                nabla_kK(T, 4, 1, 2),
                gamma_k(T, 4, 2, method="grassmann_search", restarts=4),
                tau_k(T, 4, 2, method="grassmann_search", restarts=4),
            ):
                lo, hi = est.bracket
                assert lo <= est.value <= hi

    def test_homogeneity(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            m = rng.standard_normal((5, 5))
            alpha = rng.uniform(-3, 3)
            A, B = DenseMatrix(m), DenseMatrix(alpha * m)
            for f in (
                lambda T: gamma_k(T, 5, 2).value,
                lambda T: tau_k(T, 5, 2).value,
                lambda T: delta_kK(T, 5, 2, 3).value,
                lambda T: nabla_kK(T, 5, 2, 3).value,
            ):
                assert f(B) == pytest.approx(abs(alpha) * f(A), abs=1e-9)

    def test_monotonicity_in_k(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            T = DenseMatrix(rng.standard_normal((6, 6)))
            for k in range(1, 6):
                assert gamma_k(T, 6, k + 1).value >= gamma_k(T, 6, k).value - 1e-9
                assert tau_k(T, 6, k + 1).value <= tau_k(T, 6, k).value + 1e-9

    def test_ordering_relations_on_diagonals(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            T = Diagonal(prefix_values=rng.standard_normal(n), periodic_values=(0.0,))
            k = int(rng.integers(1, n + 1))
            K = int(rng.integers(k, n + 1))
            gamma_inner = gamma_k(T, n, k).value
            gamma_outer = gamma_k(T, n, K).value
            tau_inner = tau_k(T, n, k).value
            tau_outer = tau_k(T, n, K).value
            delta = delta_kK(T, n, k, K).value
            nabla = nabla_kK(T, n, k, K).value
            assert nabla <= tau_inner + 1e-12
            assert gamma_inner <= delta + 1e-12
            assert nabla <= gamma_outer + 1e-12
            assert tau_outer <= delta + 1e-12
            if K <= 2 * k - 1:
                assert nabla <= gamma_inner + 1e-12
                assert tau_inner <= delta + 1e-12

    def test_serialization_fields(self):
        est = gamma_k(D1234, 4, 2, seed=5)
        d = est.to_dict()
        assert d == {
            "quantity": "Gamma",
            "value": 2.0,
            "k": 2,
            "K": 2,
            "N": 4,
            "method": "subset_oracle",
            "bracket": [2.0, 2.0],
            "seed": 5,
        }


class TestLimits:
    def test_identity_converges(self):
        schedule = [(4, 2, 2), (6, 3, 3), (8, 4, 4)]
        estimates, final, converged = limit_estimate(IDENT, "Gamma", schedule)
        assert [e.value for e in estimates] == [1.0, 1.0, 1.0]
        assert final == 1.0
        assert converged

    def test_compact_diagonal_decays(self):
        n_max = 24
        T = Diagonal(prefix_values=[1.0 / j for j in range(1, n_max + 1)], periodic_values=(1.0 / (n_max + 1),))
        schedule = [(2 * k, k, k) for k in range(2, 13)]
        estimates, final, converged = limit_estimate(T, "Gamma", schedule)
        for est, k in zip(estimates, range(2, 13)):
            assert est.value == pytest.approx(1.0 / (k + 1), rel=1e-12)
            sv = svd_oracle(truncate_operator(T, 2 * k))
            assert est.value == pytest.approx(sv[2 * k - k], rel=1e-12)
        assert final == pytest.approx(1.0 / 13.0, rel=1e-12)
        assert not converged

    def test_alternating_delta_constant(self):
        schedule = [(16, k, 2 * k) for k in range(2, 7)]
        estimates, final, converged = limit_estimate(ALT21, "Delta", schedule)
        assert all(e.value == 2.0 for e in estimates)
        assert final == 2.0
        assert converged

    def test_short_schedule_not_converged(self):
        _, _, converged = limit_estimate(IDENT, "Tau", [(4, 2, 2), (5, 2, 2)])
        assert not converged

    def test_rejects_bad_schedules(self):
        with pytest.raises(BadDimensions):
            limit_estimate(IDENT, "Gamma", [])
        with pytest.raises(BadDimensions):
            limit_estimate(IDENT, "Gamma", [(6, 3, 3), (4, 2, 2)])
