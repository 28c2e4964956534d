"""Tests for the biorthogonal build, core approximants, and experiments."""

import contextlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opquant import (
    ELL1,
    ELL2,
    ELLINF,
    BudgetInfeasible,
    DenseMatrix,
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
    certify_construction,
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
    scaled,
    truncate,
    unit_vector,
    verify_near_isometry,
    verify_transfer_bounds,
)
from opquant import construction, operators, seqspace
from opquant.construction import MAX_WINDOW, _minimal_truncation_index
from opquant.errors import DegenerateBasis, DegenerateFunctionals
from opquant.operators import _pencil_eigs, _restricted_eigs
from opquant.quantities import _SHAPES
from opquant.seqspace import _full_rank
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
            system = build_biorthogonal(M, M.dim)
            assert_biorthogonal(system)
            assert system.kernel_stack(1) == ()
            assert system.kernel_stack(M.dim) == system.functionals[: M.dim - 1]

    def test_finite_support_duals(self):
        basis = (TailVector((1.0, 1.0)), TailVector((0.0, 1.0, -1.0)), TailVector((0.0, 0.0, 0.0, 2.0)))
        for space in (ELL1, ELLINF):
            system = build_biorthogonal(Subspace(basis, space), 3, space)
            assert_biorthogonal(system)

    @pytest.mark.parametrize("scale", [1e-9, 1e-12, 1e-30])
    def test_any_scale_of_the_basis(self, scale):
        # the same span: DEGENERATE_PROJECTION is relative to the step's start
        M = odd_coordinate_witness(3)
        reference = build_biorthogonal(M, 3)
        system = build_biorthogonal(Subspace(tuple(scaled(b, scale) for b in M.basis)), 3)
        for m, ref in zip(system.vectors, reference.vectors):
            assert norm(linear_combine([1.0, -1.0], [m, ref])) < 1e-14
        basis = (TailVector((scale, scale)), TailVector((0.0, scale, -scale)))
        for space in (ELL1, ELLINF):
            assert_biorthogonal(build_biorthogonal(Subspace(basis, space), 2, space))

    def test_count_exceeding_window(self):
        M = Subspace((unit_vector(1), unit_vector(2)))
        with pytest.raises(ExhaustedSubspace):
            build_biorthogonal(M, 3)

    def test_ambient_cap(self, monkeypatch):
        assert construction._MAX_AMBIENT_VECTORS == 64
        monkeypatch.setattr(construction, "_MAX_AMBIENT_VECTORS", 4)
        assert len(build_biorthogonal(None, 4)) == 4
        with pytest.raises(ExhaustedSubspace, match="ambient system of 5 vectors, above the cap of 4"):
            build_biorthogonal(None, 5)
        # a witness is bounded by its own dimension, not by the ambient cap
        assert len(build_biorthogonal(sample_witness_subspace(np.random.default_rng(1), 5), 5)) == 5


def reference_witness(rng, dim):
    """sample_witness_subspace's draws written out: ratio, then per vector
    anchor, prefix, period and tail coefficients (first attempt only)."""
    ratio = float(rng.uniform(0.2, 0.8)) * (1 if rng.random() < 0.5 else -1)
    basis = []
    for _ in range(dim):
        prefix = rng.standard_normal(int(rng.integers(0, 6)))
        v = TailVector(prefix, rng.standard_normal(int(rng.integers(1, 4))), ratio)
        if norm(v) < 1e-3:
            v = TailVector(rng.standard_normal(3), rng.standard_normal(2), ratio)
        basis.append(v)
    return basis


def test_witness_sampler_draw_order():
    for seed in range(30):
        dim = 2 + seed % 3
        try:
            expected = Subspace(tuple(reference_witness(np.random.default_rng(seed), dim)))
        except DegenerateBasis:
            continue
        M = sample_witness_subspace(np.random.default_rng(seed), dim)
        assert [v.to_dict() for v in M.basis] == [v.to_dict() for v in expected.basis]


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
            systems.append(build_biorthogonal(M, 4))
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

    @settings(max_examples=300)
    @given(
        prefix=st.lists(st.floats(-2.0, 2.0), max_size=4),
        coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
        ratio=st.floats(-0.9999, 0.9999),
        log_target=st.floats(-14.0, 0.0),
        space=st.sampled_from([ELL1, ELL2, ELLINF]),
    )
    def test_minimal_truncation_index(self, prefix, coeffs, ratio, log_target, space):
        v = TailVector(prefix, coeffs, ratio)
        target = 10.0**log_target
        J = _minimal_truncation_index(v, target, space)
        assert truncate(v, J, space)[1] <= target
        assert J == v.anchor or truncate(v, J - 1, space)[1] > target

    def test_window_cap(self):
        # r = 1 - 1e-9 asks for J of about 3.7e9 coordinates at eps = 0.1
        m = TailVector((), (1.0,), 1.0 - 1e-9)
        system = build_biorthogonal(Subspace((m,)), 1)
        assert _minimal_truncation_index(m, budget_bound(1, 0.1, 1.0, 1.0) / 2.0, ELL2) > MAX_WINDOW
        tracemalloc.start()
        try:
            with pytest.raises(BudgetInfeasible, match="step 1 needs a window of"):
                build_core_approximants(system, IDENT, 0.1, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_invariants_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            M = sample_witness_subspace(rng, int(rng.integers(2, 5)))
            system = build_biorthogonal(M, M.dim)
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
    system = build_biorthogonal(odd_coordinate_witness(), 3)
    return build_core_approximants(system, ALT12, 0.1, 1.0)


def scanned_truncation_index(v, target, space):
    """The smallest J by trying every index from the anchor up."""
    J = v.anchor
    while construction._remainder_norm(v, J, space) > target:
        J += 1
    return J


class TestTruncationIndexScan:
    """The whole-period closed form against a scan of every J."""

    @staticmethod
    def assert_matches_scan(v):
        for target, space in itertools.product((0.3, 1e-2, 1e-4, 1e-7, 1e-10), (ELL1, ELL2, ELLINF)):
            assert _minimal_truncation_index(v, target, space) == scanned_truncation_index(v, target, space)

    @pytest.mark.parametrize("ratio", (0.5, -0.8, 0.9, 0.97))
    def test_plateau_tails(self, ratio):
        # period 2 with a vanishing coefficient: every other index leaves the tail unchanged
        for v in odd_coordinate_witness(3, ratio, 0.5).basis:
            self.assert_matches_scan(v)

    @pytest.mark.parametrize("ratio", (0.5, -0.7, 0.9, 0.97))
    def test_period_three_tails(self, ratio):
        rng = np.random.default_rng(8)
        for _ in range(6):
            self.assert_matches_scan(TailVector(rng.standard_normal(int(rng.integers(0, 5))), rng.uniform(-2.0, 2.0, 3), ratio))


def probing_truncation_index(v, target, space):
    """The truncation index by the rule the per-residue closed form replaced.

    One whole-period closed form from the tail past the anchor, whole
    periods up while the exact tail is above target, then single indices
    back while the tail from the index before also fits.
    """
    anchor, period = v.anchor, v.period
    start = construction._remainder_norm(v, anchor, space)
    if start <= target:
        return anchor
    if not target > 0.0:
        raise BudgetInfeasible(f"no truncation of {v!r} reaches {target}")
    J = anchor + period * math.ceil((math.log(target) - math.log(start)) / (period * math.log(abs(v.tail_ratio))))
    while construction._remainder_norm(v, J, space) > target:
        J += period
    while construction._remainder_norm(v, J - 1, space) <= target:
        J -= 1
    return J


@contextlib.contextmanager
def counting_probes():
    """Each _minimal_truncation_index call as its number of _remainder_norm calls."""
    counts, probes = [], [0]
    index, remainder = construction._minimal_truncation_index, construction._remainder_norm

    def counting_index(*args):
        probes[0] = 0
        J = index(*args)
        counts.append(probes[0])
        return J

    def counting_remainder(*args):
        probes[0] += 1
        return remainder(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(construction, "_minimal_truncation_index", counting_index)
        patch.setattr(construction, "_remainder_norm", counting_remainder)
        yield counts


class TestTruncationIndexClosedForm:
    """The per-residue closed form returns the probing rule's J with two exact probes."""

    @settings(max_examples=400)
    @given(
        prefix=st.lists(st.floats(-2.0, 2.0), max_size=4),
        coeffs=st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), min_size=1, max_size=4),
        ratio=st.one_of(st.sampled_from([1.3e-210, -1.3e-210, 1.0 - 1e-9, -(1.0 - 1e-9)]), st.floats(-0.9999, 0.9999)),
        log_target=st.floats(-12.0, 0.0),
        space=st.sampled_from([ELL1, ELL2, ELLINF]),
    )
    def test_matches_the_probing_rule(self, prefix, coeffs, ratio, log_target, space):
        v = TailVector(prefix, coeffs, ratio)
        target = 10.0**log_target
        with counting_probes() as counts:
            J = construction._minimal_truncation_index(v, target, space)
        assert J == probing_truncation_index(v, target, space)
        assert counts[0] <= 2

    def test_two_probes_per_call(self):
        with counting_probes() as counts:
            for count in (1, 2, 3, 4):
                functionals = sample_lemma_functionals(np.random.default_rng(900 + count), count)
                assert check_dense_intersection(functionals, samples=25, tol=1e-8, seed=count)["passed"]
            rng = np.random.default_rng(49)
            for T in (ALT12, SHIFT, FRP):
                M = sample_witness_subspace(rng, 4)
                build_core_approximants(build_biorthogonal(M, M.dim), T, 0.01, 0.5)
        assert len(counts) > 100 and max(counts) == 2

    @pytest.mark.parametrize("space", [ELL1, ELL2, ELLINF])
    def test_underflowing_period_factor(self, space):
        # |r|^P and (for p = 2) the squared terms underflow to 0: the tail
        # past the second tail coordinate reads exactly 0
        for ratio in (1.3e-210, -1.3e-210, 1e-300):
            for coeffs in ((1.0,), (0.0, 1.0), (1.0, 0.0, -2.0), (0.5, 0.0, 0.0, 3.0)):
                v = TailVector((0.3, -1.0), coeffs, ratio)
                for target in (1.0, 1e-12, 1e-250):
                    assert _minimal_truncation_index(v, target, space) == scanned_truncation_index(v, target, space)

    def test_targets_below_the_squared_range(self):
        # the tail of 1, 1/2, 1/4, ... past J is 2^-J 2/sqrt(3) in l^2, read
        # exactly below 1e-154, where its square leaves the normal range
        v = TailVector((), (1.0,), 0.5)
        for target in (1e-160, 1e-200, 1e-300):
            J = _minimal_truncation_index(v, target, ELL2)
            assert J == math.ceil(math.log2(2.0 / math.sqrt(3.0) / target))
            assert truncate(v, J - 1)[1] > target >= truncate(v, J)[1] > 0.0


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


def sub_basis_coefficients(dim, samples, seed):
    """The sub-bases the sampled Delta/Nabla check tested, as dim x r coefficient matrices.

    Each column picks a combination of a dim-length basis: the 2^dim - 1
    coordinate patterns, then samples seeded random mixings.
    """
    for r in range(1, dim + 1):
        for pattern in itertools.combinations(range(dim), r):
            yield np.eye(dim)[:, list(pattern)]
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        r = int(rng.integers(1, dim + 1))
        yield rng.standard_normal((dim, r))


def congruence(g, coeffs):
    """C^T g C for a coefficient matrix C, or for each one of a stack."""
    return coeffs.swapaxes(-1, -2) @ g @ coeffs


def sampled_worst_margin(ca, part, threshold, samples=100, seed=0):
    """The sampled sub-basis check that certified_margin replaces: (triggered, worst margin).

    V = span{Z C} and AV = span{M C} for Z = (z_n), M = (m_n) and each
    coefficient matrix C, stacked by rank; a C failing the rank rule on
    either side is skipped.  The margin is how far V stays inside the
    threshold when AV triggers past c on the optimum's side.
    """
    shape = _SHAPES[part]
    extreme = -1 if shape.norm else 0
    stacks = {}
    for coeffs in sub_basis_coefficients(len(ca.z), samples, seed):
        stacks.setdefault(coeffs.shape[1], []).append(coeffs)
    triggered, worst = 0, math.inf
    for stack in map(np.stack, stacks.values()):
        gram_v, gram_av = congruence(ca.gram_z, stack), congruence(ca.system.gram_m, stack)
        keep = _full_rank(gram_v) & _full_rank(gram_av)
        stack, gram_v, gram_av = stack[keep], gram_v[keep], gram_av[keep]
        v_values = np.sqrt(_pencil_eigs(congruence(ca.gram_tz, stack), gram_v)[:, extreme])
        av_values = np.sqrt(_pencil_eigs(congruence(ca.gram_tm, stack), gram_av)[:, extreme])
        hit = av_values > ca.c if shape.supremum else av_values < ca.c
        triggered += int(np.count_nonzero(hit))
        margins = v_values[hit] - threshold if shape.supremum else threshold - v_values[hit]
        worst = min(worst, float(np.min(margins, initial=math.inf)))
    return triggered, worst


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
            system = build_biorthogonal(M, 3)
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
            system = build_biorthogonal(odd_coordinate_witness(3, ratio), 3)
            ca = build_core_approximants(system, T, 0.1, 1.0)
            epsilon, c = ca.epsilon, ca.c
            for coeffs in sub_basis_coefficients(3, 40, seed=9):
                V = Subspace(tuple(linear_combine(coeffs[:, j], ca.z) for j in range(coeffs.shape[1])))
                AV = Subspace(tuple(linear_combine(coeffs[:, j], ca.targets) for j in range(coeffs.shape[1])))
                # Gram-first extremes on the sub-bases against the tail-vector spans
                for span, eigs in (
                    (V, _restricted_eigs(congruence(ca.gram_tz, coeffs), congruence(ca.gram_z, coeffs))),
                    (AV, _restricted_eigs(congruence(ca.gram_tm, coeffs), congruence(system.gram_m, coeffs))),
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
            _restricted_eigs(congruence(tail_ca.gram_tz, coeffs), congruence(tail_ca.gram_z, coeffs))


OPERATORS = {
    "diagonal": ALT12,
    "shift": SHIFT,
    "finite_rank_plus": FRP,
    "dense": DenseMatrix([[1.0, 0.2, -0.4], [0.3, -0.5, 0.1], [0.0, 0.6, 0.2]]),
}


def within(value, bound):
    """value <= bound to 1e-12 relative."""
    return value <= bound + 1e-12 * abs(bound)


def top(gram_image, gram_m):
    """The combination at which a^T gram_image a / a^T gram_m a is largest."""
    return scipy.linalg.eigh(gram_image, gram_m)[1][:, -1]


class TestCertificates:
    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 4),
        kind=st.sampled_from(sorted(OPERATORS)),
        epsilon=st.floats(0.01, 0.5),
        c=st.floats(0.5, 2.0),
    )
    def test_sampled_combinations_stay_within(self, seed, dim, kind, epsilon, c):
        """The sampled suite as a reference: no sampled ratio passes its certified extreme."""
        rng = np.random.default_rng(seed)
        T = OPERATORS[kind]
        system = build_biorthogonal(sample_witness_subspace(rng, dim), dim)
        ca = build_core_approximants(system, T, epsilon, c)
        certificates = certify_construction(ca)
        assert all(holds for _, holds, *_ in certificates)
        coefficient, defect, low, high, t = (measured for _, _, measured, _, _ in certificates)
        # attained at i = 1: m_1 is orthogonal to every later m_n
        assert coefficient == pytest.approx(1.0, rel=1e-12)
        for a in rng.uniform(-1.0, 1.0, (200, dim)):
            holds, _ = check_coefficient_bound(system, a)
            defect_holds, distortion_holds, near = verify_near_isometry(ca, a)
            lower_holds, upper_holds, transfer = verify_transfer_bounds(ca, T, a)
            assert holds and defect_holds and distortion_holds and lower_holds and upper_holds
            az = near["az_norm"]
            assert within(max(abs(x) / (2.0**i * az) for i, x in enumerate(a)), coefficient)
            assert within(near["gap"] / az, defect)
            assert within(low, near["z_norm"] / az) and within(near["z_norm"] / az, high)
            rho_m, rho_z = transfer["az_ratio"], transfer["z_ratio"]
            assert within((rho_m - t) / high, rho_z) and within(rho_z, (rho_m + t) / low)

    @pytest.mark.parametrize("kind", sorted(OPERATORS))
    def test_attained_by_tail_vectors(self, kind):
        """Each certified extreme is the ratio at its extremal combination, measured exactly."""
        T = OPERATORS[kind]
        system = build_biorthogonal(sample_witness_subspace(np.random.default_rng(7), 3), 3)
        ca = build_core_approximants(system, T, 0.1, 1.0)
        g = system.gram_m
        certified = {name: measured for name, _, measured, _, _ in certify_construction(ca)}

        def defect(z, az):
            return linear_combine([1.0, -1.0], [z, az])

        # |a_1| / ||Az|| is largest at a = G^-1 e_1, here scaled to a_1 = 1
        first = np.linalg.solve(g, [1.0, 0.0, 0.0])
        extremes = [
            ("coefficient_bound", first / first[0], lambda z, az: 1.0 / norm(az)),
            ("defect", top(ca.gram_defects, g), lambda z, az: norm(defect(z, az))),
            ("distortion_lower", scipy.linalg.eigh(ca.gram_z, g)[1][:, 0], lambda z, az: norm(z)),
            ("distortion_upper", top(ca.gram_z, g), lambda z, az: norm(z)),
            ("transfer", top(ca.gram_tdefects, g), lambda z, az: norm(apply(T, defect(z, az)))),
        ]
        for name, a, numerator in extremes:
            z, az = linear_combine(a, ca.z), linear_combine(a, ca.targets)
            assert numerator(z, az) / norm(az) == pytest.approx(certified[name], rel=1e-9), name


def assert_same(value, expected):
    """Equal to 1e-12 relative; an exact zero must come out exactly zero."""
    if expected == 0.0:
        assert value == 0.0
    else:
        assert value == pytest.approx(expected, rel=1e-12)


def reference_checks(ca, T, coeffs):
    """The measured norms of the three checks from exact tail-vector combinations."""
    z, az = linear_combine(coeffs, ca.z[: len(coeffs)]), linear_combine(coeffs, ca.targets[: len(coeffs)])
    return {
        "gap": norm(linear_combine([1.0, -1.0], [z, az])),
        "z_norm": norm(z),
        "az_norm": norm(az),
        "Tz_norm": norm(apply(T, z)),
        "Taz_norm": norm(apply(T, az)),
        "margins": [2.0 ** (i - 1) * norm(az) - abs(a) for i, a in enumerate(coeffs, start=1)],
    }


class TestGramKernel:
    """The quadratic-form checks against linear_combine + norm + apply."""

    def cases(self):
        rng = np.random.default_rng(46)
        yield build_biorthogonal(None, 3), IDENT, [ZERO, ALT12]
        for ratio in (0.5, 0.99):
            for T in (ALT12, SHIFT, FRP):
                system = build_biorthogonal(odd_coordinate_witness(3, ratio), 3)
                yield system, T, [IDENT, ZERO]
        M = sample_witness_subspace(rng, 4)
        yield build_biorthogonal(M, 4), SHIFT, [ALT12]

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


class TestStackedForms:
    """The per-combination checks read one cached stack of Gram matrices."""

    @staticmethod
    @contextlib.contextmanager
    def counting_tail_arithmetic():
        """The names of gram, apply, inner_product and np.stack calls, from every module that binds them."""
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            for module, name in (
                (construction, "gram"),
                (construction, "apply"),
                (seqspace, "gram"),
                (seqspace, "inner_product"),
                (operators, "apply"),
                (np, "stack"),
            ):
                original = getattr(module, name)
                patch.setattr(module, name, lambda *args, _f=original, _name=name: calls.append(_name) or _f(*args))
            yield calls

    def test_checks_reuse_the_stack(self):
        system = build_biorthogonal(odd_coordinate_witness(3, 0.9), 3)
        ca = build_core_approximants(system, SHIFT, 0.1, 1.0)
        with self.counting_tail_arithmetic() as calls:
            verify_transfer_bounds(ca, SHIFT, [1.0, -0.5, 0.25])
        assert {"apply", "gram", "stack"} <= set(calls)
        rng = np.random.default_rng(50)
        with self.counting_tail_arithmetic() as calls:
            for _ in range(200):
                coeffs = rng.uniform(-1.0, 1.0, int(rng.integers(1, 4)))
                assert check_coefficient_bound(system, coeffs)[0]
                assert all(verify_near_isometry(ca, coeffs)[:2])
                assert all(verify_transfer_bounds(ca, SHIFT, coeffs)[:2])
        assert calls == []

    def test_zero_combination_rejected_on_either_path(self, tail_ca):
        for T in (tail_ca.operator, SHIFT):
            with pytest.raises(ZeroVector):
                verify_transfer_bounds(tail_ca, T, [0.0, 0.0])
            with pytest.raises(ZeroVector):
                verify_transfer_bounds(tail_ca, T, [])

    def test_too_many_coefficients(self, tail_ca):
        coeffs = [1.0, 0.5, -0.5, 2.0]
        for check in (
            lambda: check_coefficient_bound(tail_ca.system, coeffs),
            lambda: verify_near_isometry(tail_ca, coeffs),
            lambda: verify_transfer_bounds(tail_ca, tail_ca.operator, coeffs),
            lambda: verify_transfer_bounds(tail_ca, SHIFT, coeffs),
        ):
            with pytest.raises(ValueError, match="^4 coefficients for a system of 3$"):
                check()


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

    def test_functional_count_cap(self):
        # six representers can be independent; a seventh cannot, and is
        # refused before the generator is touched
        for seed in range(5):
            assert len(sample_lemma_functionals(np.random.default_rng(seed), 6)) == 6
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DegenerateBasis, match="7 lemma functionals requested; at most 6"):
            sample_lemma_functionals(rng, 7)
        assert rng.bit_generator.state == state

    def test_sample_in_the_representers_span_is_skipped(self, monkeypatch):
        # the lemma check of a run at seed 544698543: one of 100 samples keeps
        # 3.7e-16 of its norm in the kernels, the next smallest 0.0136
        seed = 544698543
        fs = sample_lemma_functionals(np.random.default_rng(seed), 3)
        calls = []
        core_member = construction._core_member
        monkeypatch.setattr(construction, "_core_member", lambda *args: calls.append(args) or core_member(*args))
        report = check_dense_intersection(fs, samples=100, tol=1e-8, seed=seed)
        assert report["passed"] and len(calls) == 99

    def test_window_cap(self, monkeypatch):
        # at tol = 1e-300 the first window is 1002, the least whose tail of
        # the sample (2.8e-301) is at most tol/2; the rounding in its
        # pairings keeps the closed-form distance above tol, so the window
        # doubles past the cap
        monkeypatch.setattr(construction, "MAX_WINDOW", 2**12)
        f = functional_from_representer(TailVector((1.0,), (1.0,), 0.5), ELL2)
        with pytest.raises(BudgetInfeasible, match="lemma sample 0 needs a window of 8016"):
            check_dense_intersection([f], samples=1, tol=1e-300, seed=0)

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
                report = run_invariance_case(ALT12, part, odd_coordinate_witness(), epsilon, 0.05)
                assert report.passed, (part, epsilon, report.measured)
                assert report.constructed_L.dim == 3
                assert all(z.has_zero_tail for z in report.constructed_L.basis)

    def test_shifted_weights(self):
        T = WeightedShift(periodic_values=(1.0, 0.5))
        for part in ("Gamma", "Tau", "Delta", "Nabla"):
            report = run_invariance_case(T, part, odd_coordinate_witness(), 0.1, 0.05)
            assert report.passed, (part, report.measured)

    def test_deterministic(self):
        a = run_invariance_case(ALT12, "Delta", odd_coordinate_witness(), 0.1, 0.05)
        b = run_invariance_case(ALT12, "Delta", odd_coordinate_witness(), 0.1, 0.05)
        assert a.measured == b.measured and a.c == b.c

    def test_sub_basis_cap(self):
        # 2^11 - 1 = 2047 coordinate patterns, above the former cap of 1024:
        # the certificate covers every sub-basis, so no dimension is refused
        M = odd_coordinate_witness(11, 0.5, anchor=22)
        for part in ("Delta", "Nabla"):
            report = run_invariance_case(IDENT, part, M, 0.1, 0.1)
            assert report.passed and report.constructed_L.dim == 11
            assert report.measured["certified_margin"] >= 0.0

    def test_rounding_level_minimal_modulus_refused(self):
        # the dense block has rank 3, so its minimal modulus on a dimension-4
        # witness is 0; restricted_extremes reads 7.4e-9 against a norm of 1.04,
        # which fails the rank rule, so Tau and Nabla refuse the witness
        M = sample_witness_subspace(np.random.default_rng(2), 4)
        for part in ("Tau", "Nabla"):
            with pytest.raises(InvalidWitness, match="minimal modulus .* fails the rank rule"):
                run_invariance_case(OPERATORS["dense"], part, M, 0.3, 0.01)
        # the norm is no rounding: Gamma and Delta run on the same witness
        for part in ("Gamma", "Delta"):
            assert run_invariance_case(OPERATORS["dense"], part, M, 0.3, 0.01).passed

    @pytest.mark.parametrize("part", ["Gamma", "Tau"])
    def test_gamma_tau_image_only_the_approximants(self, part, monkeypatch):
        # Gamma and Tau read gram_z and gram_tz alone: T reaches the z_n
        # only, and the defect and T m_n Gram matrices wait for a first read
        built, applied = [], []
        build, apply_ = construction.build_core_approximants, construction.apply

        def recording_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def counting_apply(T, v):
            applied.append(v)
            return apply_(T, v)

        monkeypatch.setattr(construction, "build_core_approximants", recording_build)
        monkeypatch.setattr(construction, "apply", counting_apply)
        M = odd_coordinate_witness()
        run_invariance_case(SHIFT, part, M, 0.1, 0.05)
        (ca,) = built
        assert len(applied) == M.dim
        assert all(v is z for v, z in zip(applied, ca.z))
        defects = [linear_combine([1.0, -1.0], [z, m]) for z, m in zip(ca.z, ca.targets)]
        np.testing.assert_allclose(ca.gram_defects, gram(defects), rtol=0.0, atol=1e-12)
        images = [apply(SHIFT, m) for m in ca.targets]
        np.testing.assert_allclose(ca.gram_tm, gram(images), rtol=0.0, atol=1e-12)
        assert len(applied) == 2 * M.dim

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


class TestSubBasisCertificate:
    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 5),
        kind=st.sampled_from(sorted(OPERATORS)),
        part=st.sampled_from(["Delta", "Nabla"]),
        epsilon=st.sampled_from([0.3, 0.1, 0.01]),
        delta=st.sampled_from([0.01, 0.05, 0.2]),
    )
    def test_below_the_sampled_worst(self, seed, dim, kind, part, epsilon, delta):
        """The sampled check as a reference: no sampled sub-basis lies below certified_margin,
        and the margin is nonnegative whenever the suite certificates hold."""
        T = OPERATORS[kind]
        M = sample_witness_subspace(np.random.default_rng(seed), dim)
        try:
            report = run_invariance_case(T, part, M, epsilon, delta)
        except InvalidWitness:
            assume(False)
        measured = report.measured
        # the build is deterministic: this is the approximation the case read
        ca = build_core_approximants(build_biorthogonal(M, dim), T, epsilon, report.c)
        # a minimal modulus that is 0 reads as rounding, about 1e-8 ||T||
        # (the square root of the pencil's); then both margins are rounding
        assume(measured["witness_quantity"] > 1e-6 * ca.T_norm)
        triggered, worst = sampled_worst_margin(ca, part, measured["threshold"], seed=seed)
        if triggered:
            assert within(measured["certified_margin"], worst)
        if all(slack >= 0.0 for *_, slack in certify_construction(ca)):
            assert measured["certified_margin"] >= -1e-12 * measured["threshold"]
            assert report.passed
