"""Tests for the biorthogonal build, core approximants, and experiments."""

import itertools
import math

import numpy as np
import pytest

from opquant import (
    ELL1,
    ELL2,
    ELLINF,
    Diagonal,
    ExhaustedSubspace,
    FiniteRankPlus,
    IncompatibleTails,
    InvalidWitness,
    Subspace,
    TailVector,
    WeightedShift,
    ZeroVector,
    apply,
    budget_bound,
    build_biorthogonal,
    build_core_approximants,
    check_coefficient_bound,
    check_dense_intersection,
    functional_from_representer,
    gram,
    linear_combine,
    norm,
    pairing,
    restricted_min_modulus,
    restricted_norm,
    run_invariance_case,
    sub_basis_coefficients,
    unit_vector,
    verify_near_isometry,
    verify_transfer_bounds,
)
from opquant.construction import _sub_basis_eigs
from opquant.errors import DegenerateBasis, DegenerateFunctionals
from opquant.sampling import (
    odd_coordinate_witness,
    sample_lemma_functionals,
    sample_witness_subspace,
)

IDENT = Diagonal(periodic_values=(1.0,))
ALT12 = Diagonal(periodic_values=(1.0, 2.0))
ZERO = Diagonal(periodic_values=(0.0,))
SHIFT = WeightedShift(prefix_values=(0.7, 1.3), periodic_values=(1.0, 0.5))
FRP = FiniteRankPlus(
    [[0.4, -0.3, 0.1], [0.2, 0.5, -0.2], [-0.1, 0.3, 0.6]], Diagonal(periodic_values=(1.0, 2.0))
)


def assert_biorthogonal(system, tol=1e-10):
    for n, (m, f) in enumerate(zip(system.vectors, system.functionals), start=1):
        assert abs(norm(m, system.space) - 1.0) <= tol
        assert abs(f.dual_norm - 1.0) <= tol
        assert abs(pairing(f, m) - 1.0) <= tol
        for i in range(n - 1):
            assert abs(pairing(system.functionals[i], m)) <= tol
    eigs = np.linalg.eigvalsh(gram(system.vectors))
    assert eigs[0] > 1e-10 * eigs[-1]


class TestBuildBiorthogonal:
    def test_coordinate_window(self):
        M = Subspace((unit_vector(1), unit_vector(2), unit_vector(3)))
        system = build_biorthogonal(M, 3)
        for n, m in enumerate(system.vectors, start=1):
            assert m.equals(unit_vector(n))
            assert system.functionals[n - 1].representer.equals(unit_vector(n))
        assert_biorthogonal(system, tol=0.0)

    def test_overlapping_window(self):
        M = Subspace(
            (
                linear_combine([1.0, 1.0], [unit_vector(1), unit_vector(2)]),
                linear_combine([1.0, 1.0], [unit_vector(2), unit_vector(3)]),
            )
        )
        system = build_biorthogonal(M, 2)
        np.testing.assert_allclose(system.vectors[0].coords(3), np.array([1, 1, 0]) / math.sqrt(2), atol=1e-14)
        np.testing.assert_allclose(system.vectors[1].coords(3), np.array([-1, 1, 2]) / math.sqrt(6), atol=1e-14)
        assert abs(pairing(system.functionals[0], system.vectors[1])) <= 1e-10
        assert_biorthogonal(system)

    def test_single_vector(self):
        M = Subspace((TailVector((3.0, 4.0)),))
        system = build_biorthogonal(M, 1)
        np.testing.assert_allclose(system.vectors[0].coords(2), [0.6, 0.8], atol=1e-15)
        assert pairing(system.functionals[0], system.vectors[0]) == pytest.approx(1.0, abs=1e-12)

    def test_ambient(self):
        system = build_biorthogonal(None, 4)
        for n, m in enumerate(system.vectors, start=1):
            assert m.equals(unit_vector(n))

    def test_random_witnesses(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            M = sample_witness_subspace(rng, int(rng.integers(1, 5)))
            system = build_biorthogonal(M, M.dim, seed=int(rng.integers(1 << 16)))
            assert_biorthogonal(system)
            assert system.kernel_stack(1) == ()
            assert system.kernel_stack(M.dim) == system.functionals[: M.dim - 1]

    def test_finite_support_duals(self):
        basis = (TailVector((1.0, 1.0)), TailVector((0.0, 1.0, -1.0)), TailVector((0.0, 0.0, 0.0, 2.0)))
        for space in (ELL1, ELLINF):
            system = build_biorthogonal(Subspace(basis, space), 3, space)
            assert_biorthogonal(system)

    def test_count_exceeding_window(self):
        M = Subspace((unit_vector(1), unit_vector(2)))
        with pytest.raises(ExhaustedSubspace):
            build_biorthogonal(M, 3)


class TestCoefficientBound:
    def test_single_vector_equality(self):
        system = build_biorthogonal(None, 3)
        holds, margins = check_coefficient_bound(system, [1.0])
        assert holds
        assert margins[0] == pytest.approx(0.0, abs=1e-12)

    def test_orthonormal_pair(self):
        system = build_biorthogonal(None, 2)
        holds, margins = check_coefficient_bound(system, [1.0, 1.0])
        assert holds
        assert margins[0] == pytest.approx(math.sqrt(2) - 1, rel=1e-12)
        assert margins[1] == pytest.approx(2 * math.sqrt(2) - 1, rel=1e-12)

    def test_zero_coefficients(self):
        system = build_biorthogonal(None, 2)
        holds, margins = check_coefficient_bound(system, [0.0, 0.0])
        assert holds
        assert margins == [0.0, 0.0]

    def test_random_sweep(self):
        rng = np.random.default_rng(41)
        systems = [build_biorthogonal(None, 8)]
        for _ in range(3):
            M = sample_witness_subspace(rng, 4)
            systems.append(build_biorthogonal(M, 4, seed=7))
        for _ in range(1000):
            system = systems[int(rng.integers(len(systems)))]
            length = int(rng.integers(1, len(system) + 1))
            coeffs = rng.uniform(-1.0, 1.0, size=length)
            holds, margins = check_coefficient_bound(system, coeffs)
            assert holds, margins

    def test_too_many_coefficients(self):
        system = build_biorthogonal(None, 2)
        with pytest.raises(ValueError):
            check_coefficient_bound(system, [1.0, 2.0, 3.0])


class TestCoreApproximants:
    def test_budget_formula(self):
        assert budget_bound(3, 0.5, 2.0, 2.0) == 0.015625
        assert budget_bound(1, 0.1, 1.0, 1.0) == 0.05
        assert budget_bound(1, 0.3, 5.0, 0.0) == pytest.approx(0.15, rel=1e-15)
        assert budget_bound(2, 0.5, 1.0, 4.0) == pytest.approx(2.0 ** -3 * 0.5 * 0.25, rel=1e-15)

    def test_finite_system_is_copied(self):
        M = Subspace((unit_vector(2), unit_vector(5)))
        system = build_biorthogonal(M, 2)
        ca = build_core_approximants(system, ALT12, 0.25, 1.0)
        assert ca.budgets == (0.0, 0.0)
        for z, m in zip(ca.z, system.vectors):
            assert z.equals(m)

    def test_minimal_truncation_of_pure_tail(self):
        v = TailVector((), (math.sqrt(3) / 2,), 0.5)
        assert norm(v) == pytest.approx(1.0, rel=1e-15)
        system = build_biorthogonal(Subspace((v,)), 1)
        ca = build_core_approximants(system, IDENT, 0.1, 1.0)
        # remainder after J coordinates is exactly 2^-J; 0.025 needs J = 6
        assert ca.z[0].anchor == 6
        assert ca.budgets[0] == pytest.approx(2.0 ** -6, rel=1e-12)
        assert ca.budgets[0] <= budget_bound(1, 0.1, 1.0, 1.0)

    def test_invariants_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            M = sample_witness_subspace(rng, int(rng.integers(2, 5)))
            system = build_biorthogonal(M, M.dim, seed=3)
            T = Diagonal(rng.standard_normal(3), rng.standard_normal(2))
            epsilon = float(rng.uniform(0.05, 0.9))
            c = float(rng.uniform(0.2, 3.0))
            ca = build_core_approximants(system, T, epsilon, c)
            for n, (z, gap) in enumerate(zip(ca.z, ca.budgets), start=1):
                assert z.has_zero_tail
                assert gap <= budget_bound(n, epsilon, c, ca.T_norm)
                diff = norm(linear_combine([1.0, -1.0], [z, system.vectors[n - 1]]))
                assert diff == pytest.approx(gap, abs=1e-12)
                for f in system.kernel_stack(n):
                    assert abs(pairing(f, z)) <= 1e-10
            eigs = np.linalg.eigvalsh(gram(ca.z))
            assert eigs[0] > 1e-10 * eigs[-1]

    def test_parameter_validation(self):
        system = build_biorthogonal(None, 2)
        with pytest.raises(ValueError):
            build_core_approximants(system, IDENT, 1.5, 1.0)
        with pytest.raises(ValueError):
            build_core_approximants(system, IDENT, 0.5, 0.0)


@pytest.fixture(scope="module")
def tail_ca():
    system = build_biorthogonal(odd_coordinate_witness(), 3, seed=0)
    return build_core_approximants(system, ALT12, 0.1, 1.0)


class TestNearIsometry:
    def test_zero_gap_for_finite_system(self):
        system = build_biorthogonal(None, 3)
        ca = build_core_approximants(system, IDENT, 0.5, 1.0)
        defect, distortion, measured = verify_near_isometry(ca, [1.0, -2.0, 0.5])
        assert defect and distortion
        assert measured["gap"] == 0.0

    def test_single_term(self, tail_ca):
        defect, distortion, measured = verify_near_isometry(tail_ca, [1.0])
        assert defect and distortion
        assert measured["gap"] == pytest.approx(tail_ca.budgets[0], abs=1e-12)
        assert measured["az_norm"] == pytest.approx(1.0, abs=1e-10)

    def test_zero_coefficients_vacuous(self, tail_ca):
        defect, distortion, measured = verify_near_isometry(tail_ca, [0.0, 0.0])
        assert defect and distortion
        assert measured["gap"] == 0.0 and measured["z_norm"] == 0.0

    def test_random_combinations(self, tail_ca):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            coeffs = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 4)))
            defect, distortion, measured = verify_near_isometry(tail_ca, coeffs)
            assert defect and distortion
            if measured["az_norm"] > 1e-9:
                assert measured["gap"] < measured["allowance"] + 1e-12
                assert measured["lower"] <= measured["z_norm"] <= measured["upper"] + 1e-12


class TestTransferBounds:
    def test_identity(self):
        system = build_biorthogonal(None, 2)
        ca = build_core_approximants(system, IDENT, 0.2, 1.0)
        lower, upper, measured = verify_transfer_bounds(ca, IDENT, [1.0, 1.0])
        assert lower and upper
        assert measured["z_ratio"] == pytest.approx(1.0, rel=1e-12)
        assert measured["lower_threshold"] < 1.0 < measured["upper_threshold"]

    def test_zero_operator(self, tail_ca):
        zero = Diagonal(periodic_values=(0.0,))
        lower, upper, measured = verify_transfer_bounds(tail_ca, zero, [1.0, 1.0, 1.0])
        assert lower and upper
        assert measured["z_ratio"] == 0.0
        assert measured["lower_threshold"] < 0.0 < measured["upper_threshold"]

    def test_single_term_alternating(self, tail_ca):
        lower, upper, measured = verify_transfer_bounds(tail_ca, ALT12, [1.0])
        assert lower and upper
        assert measured["lower_threshold"] <= measured["z_ratio"] <= measured["upper_threshold"]

    def test_zero_combination_rejected(self, tail_ca):
        with pytest.raises(ZeroVector):
            verify_transfer_bounds(tail_ca, ALT12, [0.0, 0.0])

    def test_grid_sweep(self):
        rng = np.random.default_rng(44)
        witnesses = [odd_coordinate_witness(), sample_witness_subspace(rng, 3)]
        for M in witnesses:
            system = build_biorthogonal(M, 3, seed=1)
            for epsilon in (0.5, 0.1, 0.01):
                for c in (0.5, 1.0, 2.0):
                    ca = build_core_approximants(system, ALT12, epsilon, c)
                    for _ in range(150):
                        coeffs = rng.uniform(-1.0, 1.0, size=3)
                        if np.max(np.abs(coeffs)) < 1e-3:
                            continue
                        lower, upper, _ = verify_transfer_bounds(ca, ALT12, coeffs)
                        assert lower and upper

    def test_transfer_soundness_on_sub_bases(self):
        for ratio, T in itertools.product((0.5, 0.99), (ALT12, SHIFT, FRP)):
            system = build_biorthogonal(odd_coordinate_witness(3, ratio), 3, seed=0)
            ca = build_core_approximants(system, T, 0.1, 1.0)
            epsilon, c = ca.epsilon, ca.c
            for coeffs in sub_basis_coefficients(3, 40, seed=9):
                V = Subspace(tuple(linear_combine(coeffs[:, j], ca.z) for j in range(coeffs.shape[1])))
                AV = Subspace(tuple(linear_combine(coeffs[:, j], ca.targets) for j in range(coeffs.shape[1])))
                # the Gram-first extremes of run_invariance_case against the tail-vector spans
                for span, eigs in (
                    (V, _sub_basis_eigs(ca.gram_tz, ca.gram_z, coeffs)),
                    (AV, _sub_basis_eigs(ca.gram_tm, system.gram_m, coeffs)),
                ):
                    top = restricted_norm(T, span)
                    assert math.sqrt(eigs[-1]) == pytest.approx(top, rel=1e-12)
                    bottom = restricted_min_modulus(T, span)
                    assert math.sqrt(eigs[0]) == pytest.approx(bottom, rel=1e-12, abs=1e-12 * top)
                if restricted_norm(T, AV) < c:
                    assert restricted_norm(T, V) < (1 + epsilon) / (1 - epsilon) * c + 1e-9
                if restricted_min_modulus(T, AV) > c:
                    assert restricted_min_modulus(T, V) > (1 - epsilon) / (1 + epsilon) * c - 1e-9

    def test_degenerate_sub_basis_rejected(self, tail_ca):
        coeffs = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(DegenerateBasis):
            _sub_basis_eigs(tail_ca.gram_tz, tail_ca.gram_z, coeffs)


def assert_same(value, expected):
    """Equal to 1e-12 relative; an exact zero must come out exactly zero."""
    if expected == 0.0:
        assert value == 0.0
    else:
        assert value == pytest.approx(expected, rel=1e-12)


def reference_checks(ca, T, coeffs):
    """The measured norms of the three checks from exact tail-vector combinations."""
    z, az = ca.combine(coeffs)
    return {
        "gap": norm(linear_combine([1.0, -1.0], [z, az])),
        "z_norm": norm(z),
        "az_norm": norm(az),
        "Tz_norm": norm(apply(T, z)),
        "Taz_norm": norm(apply(T, az)),
        "margins": [2.0 ** (i - 1) * norm(az) - abs(a) for i, a in enumerate(coeffs, start=1)],
    }


class TestGramKernel:
    """The quadratic-form checks against combine + norm + apply."""

    def cases(self):
        rng = np.random.default_rng(46)
        yield build_biorthogonal(None, 3), IDENT, [ZERO, ALT12]
        for ratio in (0.5, 0.99):
            for T in (ALT12, SHIFT, FRP):
                system = build_biorthogonal(odd_coordinate_witness(3, ratio), 3, seed=0)
                yield system, T, [IDENT, ZERO]
        M = sample_witness_subspace(rng, 4)
        yield build_biorthogonal(M, 4, seed=2), SHIFT, [ALT12]

    def test_matches_tail_vector_reference(self):
        rng = np.random.default_rng(47)
        for system, T, others in self.cases():
            ca = build_core_approximants(system, T, 0.1, 1.0)
            for _ in range(30):
                coeffs = list(rng.uniform(-1.0, 1.0, size=int(rng.integers(1, len(system) + 1))))
                ref = reference_checks(ca, T, coeffs)
                _, margins = check_coefficient_bound(system, coeffs)
                for value, expected in zip(margins, ref["margins"]):
                    assert value == pytest.approx(expected, rel=1e-12, abs=1e-12 * max(map(abs, coeffs)))
                _, _, near = verify_near_isometry(ca, coeffs)
                for key in ("gap", "z_norm", "az_norm"):
                    assert_same(near[key], ref[key])
                for U in (T, *others):
                    ref_U = reference_checks(ca, U, coeffs)
                    _, _, transfer = verify_transfer_bounds(ca, U, coeffs)
                    assert_same(transfer["z_ratio"], ref_U["Tz_norm"] / ref_U["z_norm"])
                    assert_same(transfer["az_ratio"], ref_U["Taz_norm"] / ref_U["az_norm"])


class TestDenseIntersection:
    def test_single_coordinate_functional(self):
        f = functional_from_representer(unit_vector(1), ELL2)
        report = check_dense_intersection([f], samples=40, tol=1e-6, seed=1)
        assert report["passed"]
        assert report["max_distance"] <= 1e-6

    def test_no_functionals(self):
        report = check_dense_intersection([], samples=40, tol=1e-8, seed=2)
        assert report["passed"]

    def test_tail_functional_families(self):
        rng = np.random.default_rng(45)
        for count in (1, 2, 3, 4):
            fs = sample_lemma_functionals(rng, count)
            report = check_dense_intersection(fs, samples=60, tol=1e-8, seed=count)
            assert report["passed"], report
            assert report["functional_count"] == count

    def test_dependent_functionals_rejected(self):
        f = functional_from_representer(unit_vector(1), ELL2)
        g = functional_from_representer(TailVector((2.0,)), ELL2)
        with pytest.raises(DegenerateFunctionals):
            check_dense_intersection([f, g], samples=5, tol=1e-8, seed=0)

    def test_mixed_ratios_rejected(self):
        f = functional_from_representer(TailVector((1.0,), (1.0,), 0.5), ELL2)
        g = functional_from_representer(TailVector((0.0, 1.0), (1.0,), 0.25), ELL2)
        with pytest.raises(IncompatibleTails):
            check_dense_intersection([f, g], samples=5, tol=1e-8, seed=0)


class TestInvarianceCases:
    def test_identity_part_gamma(self):
        report = run_invariance_case(IDENT, "Gamma", odd_coordinate_witness(), 0.1, 0.1)
        assert report.passed
        assert report.c == pytest.approx(1.1, rel=1e-10)
        assert report.measured["restricted_norm_L"] == pytest.approx(1.0, rel=1e-10)
        assert report.measured["threshold"] == pytest.approx(1.1 * 1.1 / 0.9, rel=1e-10)

    def test_alternating_all_parts(self):
        for part in ("Gamma", "Tau", "Delta", "Nabla"):
            for epsilon in (0.1, 0.05):
                report = run_invariance_case(ALT12, part, odd_coordinate_witness(), epsilon, 0.05, seed=2)
                assert report.passed, (part, epsilon, report.measured)
                assert report.constructed_L.dim == 3
                assert all(z.has_zero_tail for z in report.constructed_L.basis)

    def test_shifted_weights(self):
        T = WeightedShift(periodic_values=(1.0, 0.5))
        for part in ("Gamma", "Tau", "Delta", "Nabla"):
            report = run_invariance_case(T, part, odd_coordinate_witness(), 0.1, 0.05, seed=3)
            assert report.passed, (part, report.measured)

    def test_deterministic(self):
        a = run_invariance_case(ALT12, "Delta", odd_coordinate_witness(), 0.1, 0.05, seed=5)
        b = run_invariance_case(ALT12, "Delta", odd_coordinate_witness(), 0.1, 0.05, seed=5)
        assert a.measured == b.measured and a.c == b.c

    def test_finite_witness_rejected(self):
        M = Subspace((unit_vector(1), unit_vector(2)))
        with pytest.raises(InvalidWitness):
            run_invariance_case(IDENT, "Gamma", M, 0.1, 0.1)

    def test_zero_operator_rejected(self):
        zero = Diagonal(periodic_values=(0.0,))
        with pytest.raises(InvalidWitness):
            run_invariance_case(zero, "Tau", odd_coordinate_witness(), 0.1, 0.1)

    def test_parameter_validation(self):
        M = odd_coordinate_witness()
        with pytest.raises(ValueError):
            run_invariance_case(IDENT, "Sigma", M, 0.1, 0.1)
        with pytest.raises(ValueError):
            run_invariance_case(IDENT, "Gamma", M, 1.2, 0.1)
        with pytest.raises(ValueError):
            run_invariance_case(IDENT, "Gamma", M, 0.1, -0.1)

    def test_report_serialization(self):
        report = run_invariance_case(ALT12, "Tau", odd_coordinate_witness(), 0.1, 0.05)
        data = report.to_dict()
        assert data["part"] == "Tau"
        assert data["passed"] is True
        assert set(data) == {"part", "c", "delta", "epsilon", "witness_M", "constructed_L", "measured", "passed"}
        assert len(data["constructed_L"]["basis"]) == 3
