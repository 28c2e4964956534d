"""The numpy-only linear algebra: pencil eigenvalues, the rank rule, the
kernel step for every p, the pencils of the Delta/Nabla certificate,
lemma windows and the dim-1 search.

scipy serves only as a reference here; the library never imports it.
"""

import itertools
import json
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opquant import (
    ELL1,
    ELL2,
    ELLINF,
    DegenerateBasis,
    Diagonal,
    FiniteRankPlus,
    Subspace,
    TailVector,
    WeightedShift,
)
from opquant import construction, seqspace
from opquant.construction import (
    build_biorthogonal,
    build_core_approximants,
    check_dense_intersection,
    run_invariance_case,
)
from opquant.operators import _pencil_eigs, _restricted_eigs, window_action_matrix
from opquant.quantities import _SHAPES, _alternating_search
from opquant.sampling import odd_coordinate_witness, sample_lemma_functionals, sample_witness_subspace
from opquant.seqspace import (
    GRAM_RANK_TOL,
    _check_positive_definite,
    _full_rank,
    gram,
    inner_product,
    linear_combine,
    norm,
    pairing,
    unit_vector,
)

FRP = FiniteRankPlus(
    [[0.4, -0.3, 0.1], [0.2, 0.5, -0.2], [-0.1, 0.3, 0.6]], Diagonal(periodic_values=(1.0, 2.0))
)


def test_every_command_runs_without_scipy(tmp_path):
    """Each experiment kind, verify, vectors and a p = 1 build leave scipy unimported."""
    configs = {
        "quantities": {"quantity": "Delta", "schedule": [[6, 1, 2], [8, 2, 3]], "method": "grassmann_search", "restarts": 4},
        "construction_suite": {"epsilon": 0.1, "c": 1.0, "systems": 2},
        "invariance_case": {"part": "Nabla", "epsilon": 0.1, "delta": 0.05},
        "lemma_check": {"functionals": 2, "samples": 5},
    }
    paths = []
    for experiment, parameters in configs.items():
        path = tmp_path / f"{experiment}.json"
        operator = {"kind": "finite_rank_plus", "periodic": [1.0, 2.0], "block": [[0.5, 0.1], [0.2, -0.3]]}
        path.write_text(json.dumps({"space": {"p": 2}, "operator": operator, "experiment": experiment, "parameters": parameters}))
        paths.append(str(path))
    script = textwrap.dedent(
        f"""
        import sys
        import numpy as np
        from opquant import ELL1, Subspace, TailVector, build_biorthogonal
        from opquant.cli import main

        out = {str(tmp_path)!r}
        codes = [main(["run", "--config", p, "--out", out + "/report.json"]) for p in {paths!r}]
        codes.append(main(["verify", "--suite", "construction", "--epsilon", "0.1", "--c", "1.0", "--out", out + "/verify.json"]))
        codes.append(main(["vectors", "--config", {paths[1]!r}, "--out", out + "/vectors.json"]))
        rng = np.random.default_rng(0)
        basis = tuple(TailVector(rng.standard_normal(5)) for _ in range(3))
        build_biorthogonal(Subspace(basis, ELL1), 3, space=ELL1)
        print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == "[0, 0, 0, 0, 0, 0] []"


def random_pencils(rng, count, n):
    """A stack of symmetric a (semidefinite, some singular) and positive definite b."""
    x = rng.standard_normal((count, n, n))
    y = rng.standard_normal((count, n, n))
    a = x[:, :, : max(1, n - 1)] @ x[:, :, : max(1, n - 1)].swapaxes(1, 2)
    b = y @ y.swapaxes(1, 2) + 0.1 * np.eye(n)
    return a, b


class TestPencilEigs:
    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_matches_scipy_eigh(self, seed, n):
        a, b = random_pencils(np.random.default_rng(seed), 6, n)
        stacked = _pencil_eigs(a, b)
        for i in range(a.shape[0]):
            expected = np.clip(scipy.linalg.eigh(a[i], b[i], eigvals_only=True), 0.0, None)
            single = _pencil_eigs(a[i], b[i])
            np.testing.assert_allclose(single, expected, rtol=0.0, atol=1e-12 * expected[-1])
            # a stack is solved matrix by matrix, bit for bit
            assert np.array_equal(stacked[i], single)

    def test_diagonal_pencils(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5):
            alpha = rng.uniform(0.0, 4.0, (3, n))
            beta = rng.uniform(0.25, 4.0, (3, n))
            eigs = _pencil_eigs(alpha[:, :, None] * np.eye(n), beta[:, :, None] * np.eye(n))
            np.testing.assert_allclose(eigs, np.sort(alpha / beta, axis=1), rtol=1e-15, atol=0.0)

    def test_ascending_and_clipped(self):
        eigs = _pencil_eigs(np.diag([-1e-18, 3.0, 0.0]), np.diag([1.0, 4.0, 16.0]))
        assert eigs.tolist() == [0.0, 0.0, 0.75]

    def test_restricted_eigs_on_a_stack(self):
        a, b = random_pencils(np.random.default_rng(6), 4, 3)
        assert np.array_equal(_restricted_eigs(a, b), _pencil_eigs(a, b))
        b[2] = np.outer([1.0, 2.0, 0.0], [1.0, 2.0, 0.0])
        with pytest.raises(DegenerateBasis, match="restriction basis"):
            _restricted_eigs(a, b)


class TestRankRule:
    def test_mixed_stack(self):
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))

        def rotated(spectrum):
            return q @ np.diag(spectrum) @ q.T

        cases = [
            (rotated([1.0, 2.0, 3.0]), True),
            (rotated([0.0, 1.0, 1.0]), False),
            (np.zeros((3, 3)), False),
            (rotated([-1.0, -1.0, -1.0]), False),
            (rotated([0.1 * GRAM_RANK_TOL, 1.0, 1.0]), False),
            (rotated([10.0 * GRAM_RANK_TOL, 1.0, 1.0]), True),
        ]
        stack = np.array([g for g, _ in cases])
        expected = [full for _, full in cases]
        assert _full_rank(stack).tolist() == expected
        assert [bool(_full_rank(g)) for g, _ in cases] == expected
        # a stack passes the check only when every member does
        _check_positive_definite(stack[[0, 5]], DegenerateBasis, "stack")
        for bad in (1, 2, 3, 4):
            with pytest.raises(DegenerateBasis, match="stack"):
                _check_positive_definite(stack[[0, bad, 5]], DegenerateBasis, "stack")

    def test_empty_matrix_fails(self):
        with pytest.raises(DegenerateBasis):
            _check_positive_definite(np.zeros((0, 0)), DegenerateBasis, "empty")

    def test_window_in_the_gap_widens(self):
        """A head Gram whose eigenvalue ratio lies in (1e-12, 1e-10] fails the rank rule: J doubles."""
        eta = 2.0 * 10**-5.5  # the head Gram [[1, 1], [1, 1 + eta^2]] has ratio about eta^2 / 4 = 1e-11
        first = TailVector((1.0,))
        # the two representers part ways only at coordinate 5, past the first window
        second = TailVector((1.0, eta, 0.0, 0.0, 1.0))
        reps = [first, second]
        # the closed form: the full Gram minus the Gram past 4, where the second anchor lies
        h = gram(reps) - gram(reps, 4)
        eigs = np.linalg.eigvalsh(h)
        assert 1e-12 < eigs[0] / eigs[-1] <= GRAM_RANK_TOL
        assert not _full_rank(h)
        # e_3 lies in both kernels; the window of 8 holds the fifth coordinate and solves exactly
        beta, distance, J = construction._core_member(unit_vector(3), reps, 4, 1e-8, "gap window")
        assert (J, distance) == (8, 0.0)
        assert core_member(unit_vector(3), reps, beta, J).equals(unit_vector(3))


def assert_in_leading_spans(system, basis, width, tol):
    """Each m_n lies in span{b_1..b_n}: its dense least-squares residual on 1..width is below tol."""
    columns = np.array([b.coords(width) for b in basis]).T
    for n, m in enumerate(system.vectors, start=1):
        target = m.coords(width)
        coeffs = np.linalg.lstsq(columns[:, :n], target, rcond=None)[0]
        assert np.linalg.norm(columns[:, :n] @ coeffs - target) < tol


class TestKernelStep:
    """The build for every p: the paper's step w = b_n - sum x'_j(w) m_j."""

    @pytest.mark.parametrize("space", [ELL1, ELL2, ELLINF], ids=["p=1", "p=2", "p=inf"])
    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_biorthogonal_in_leading_spans(self, space, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 6))
        basis = tuple(TailVector(rng.standard_normal(int(rng.integers(dim, dim + 4)))) for _ in range(dim))
        system = build_biorthogonal(Subspace(basis, space), dim, space=space)
        for n, (m, f) in enumerate(zip(system.vectors, system.functionals), start=1):
            assert abs(norm(m, space) - 1.0) < 1e-12
            assert abs(pairing(f, m) - 1.0) < 1e-12
            assert all(abs(pairing(g, m)) < 1e-12 for g in system.functionals[: n - 1])
        assert_in_leading_spans(system, basis, max(b.anchor for b in basis), 1e-12)

    @settings(max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.floats(-9.9, -6.0))
    def test_ell2_witnesses_near_the_rank_rule(self, seed, log_ratio):
        # a witness basis remixed so its Gram matrix has eigenvalues from 1
        # down to 10^log_ratio: a ratio in (1e-10, 1e-6], just above the rank
        # rule's GRAM_RANK_TOL
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        witness = sample_witness_subspace(rng, dim).basis
        chol = np.linalg.cholesky(gram(witness))
        v = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        root = v @ np.diag(np.logspace(0.0, log_ratio / 2.0, dim)) @ v.T
        mix = np.linalg.solve(chol.T, root)
        basis = tuple(linear_combine(mix[:, k], witness) for k in range(dim))
        eigs = np.linalg.eigvalsh(gram(basis))
        assume(1e-10 < eigs[0] / eigs[-1] <= 1e-6)
        system = build_biorthogonal(Subspace(basis), dim)
        # past the largest anchor every coordinate repeats one period times the ratio
        width = max(b.anchor for b in basis) + 2 * math.lcm(*(b.period for b in basis))
        assert_in_leading_spans(system, basis, width, 1e-9)


class TestSubBasisCertificate:
    @pytest.mark.parametrize("part", ["Delta", "Nabla"])
    def test_three_pencils_at_any_dimension(self, part, monkeypatch):
        """Delta/Nabla read certify_construction's three pencils whatever the
        witness dimension; no sub-basis is formed or solved."""
        solved, stacked = [], []
        restricted_eigs, eigvalsh = construction._restricted_eigs, np.linalg.eigvalsh

        def counting_pencil(a, b):
            solved.append(a.shape)
            return restricted_eigs(a, b)

        def counting_eigvalsh(a, *args, **kwargs):
            if a.ndim == 3:
                stacked.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(construction, "_restricted_eigs", counting_pencil)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        for dim in (3, 11):
            solved.clear()
            report = run_invariance_case(FRP, part, odd_coordinate_witness(dim, 0.9, anchor=23), 0.1, 0.05)
            assert report.passed
            assert solved == [(dim, dim)] * 3
        assert stacked == []

    @pytest.mark.parametrize("part", ["Delta", "Nabla"])
    def test_below_the_per_matrix_loop(self, part):
        """The sub-basis check one coefficient matrix at a time, over every
        coordinate sub-basis and 60 random ones: no triggering V lies below
        certified_margin, and the case passes."""
        shape = _SHAPES[part]
        extreme = -1 if shape.norm else 0
        rng = np.random.default_rng(4)
        coeffs_list = [np.eye(3)[:, list(p)] for r in (1, 2, 3) for p in itertools.combinations(range(3), r)]
        coeffs_list += [rng.standard_normal((3, int(rng.integers(1, 4)))) for _ in range(60)]
        operators = (
            Diagonal(periodic_values=(1.0, 2.0)),
            WeightedShift(prefix_values=(0.7, 1.3), periodic_values=(1.0, 0.5)),
            FRP,
        )
        for ratio, T, epsilon in itertools.product((0.5, 0.99), operators, (0.1, 0.01)):
            M = odd_coordinate_witness(3, ratio)
            report = run_invariance_case(T, part, M, epsilon, 0.05)
            assert report.passed
            margin, threshold = report.measured["certified_margin"], report.measured["threshold"]
            # the build is deterministic: this is the approximation the case read
            ca = build_core_approximants(build_biorthogonal(M, 3), T, epsilon, report.c)
            triggered = 0
            for coeffs in coeffs_list:
                try:
                    v_eigs = _restricted_eigs(coeffs.T @ ca.gram_tz @ coeffs, coeffs.T @ ca.gram_z @ coeffs)
                    av_eigs = _restricted_eigs(coeffs.T @ ca.gram_tm @ coeffs, coeffs.T @ ca.system.gram_m @ coeffs)
                except DegenerateBasis:
                    continue
                av_value, v_value = math.sqrt(av_eigs[extreme]), math.sqrt(v_eigs[extreme])
                if (av_value > ca.c) if shape.supremum else (av_value < ca.c):
                    triggered += 1
                    worst = v_value - threshold if shape.supremum else threshold - v_value
                    assert margin <= worst + 1e-12 * abs(worst)
            # the whole of L triggers: AV = M sits past c by delta
            assert triggered >= 1


class TestLemmaWindows:
    def test_no_coordinate_past_the_anchors(self, monkeypatch):
        """The lemma path reads windows in closed form: it materialises no
        coordinate past the largest anchor of a sample or representer."""
        asked = []
        coords = TailVector.coords

        def counting(self, n):
            asked.append(n)
            return coords(self, n)

        monkeypatch.setattr(TailVector, "coords", counting)
        for count in (1, 2, 3, 4):
            functionals = sample_lemma_functionals(np.random.default_rng(700 + count), count)
            report = check_dense_intersection(functionals, samples=100, tol=1e-8, seed=count)
            assert report["passed"] and report["max_window"] >= 8
            # samples carry at most 4 prefix coordinates, and so do the representers
            largest = max(4, *(f.representer.anchor for f in functionals))
            assert asked and max(asked) <= largest
            asked.clear()

    def test_representer_gram_built_once(self, monkeypatch):
        calls = []
        representer_gram = construction._representer_gram

        def counting(functionals, what):
            calls.append(what)
            return representer_gram(functionals, what)

        monkeypatch.setattr(construction, "_representer_gram", counting)
        monkeypatch.setattr(seqspace, "_representer_gram", counting)
        functionals = sample_lemma_functionals(np.random.default_rng(13), 2)
        check_dense_intersection(functionals, samples=20, tol=1e-8, seed=0)
        assert calls == ["lemma functionals"]


def core_member(m, reps, beta, J):
    """z = head_J(m) + sum_i beta_i head_J(r_i), as build_core_approximants forms it."""
    return TailVector(sum((b * r.coords(J) for b, r in zip(beta, reps)), m.coords(J)))


def dense_core_member(m, reps, J):
    """The dense reference: the window head of m projected off the
    representers' window heads, through their k x J matrix."""
    head = m.coords(J)
    if not reps:
        return head
    g = np.array([r.coords(J) for r in reps])
    gg = g @ g.T
    assert _full_rank(gg)
    return head - g.T @ np.linalg.solve(gg, g @ head)


def assert_matches_dense(m, reps, beta, distance, J):
    """z agrees with the dense reference at J to 1e-12 relative, and so
    does ||z - m|| unless it lies within 1e-14 ||m|| of the reference's,
    the rounding of a defect built from m's coordinates; z pairs to at
    most BIORTHOGONAL_TOL with every representer."""
    z = core_member(m, reps, beta, J)
    reference = dense_core_member(m, reps, J)
    assert np.linalg.norm(z.coords(J) - reference) <= 1e-12 * np.linalg.norm(reference)
    expected = norm(linear_combine([1.0, -1.0], [TailVector(reference), m]))
    assert abs(distance - expected) <= 1e-12 * expected + 1e-14 * norm(m)
    assert all(abs(inner_product(r, z)) <= construction.BIORTHOGONAL_TOL for r in reps)
    return z


class TestCoreMember:
    """The closed-form core step against the dense window projection it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_lemma_members_match_dense(self, seed, count):
        rng = np.random.default_rng(seed)
        functionals = sample_lemma_functionals(rng, count)
        reps = [f.representer for f in functionals]
        g = gram(reps)
        ratio = reps[0].tail_ratio
        for _ in range(5):
            sample = TailVector(rng.standard_normal(int(rng.integers(0, 5))), rng.standard_normal(int(rng.integers(1, 4))), ratio)
            m = seqspace._project_off(sample, reps, g)
            if norm(m) < 1e-6 * norm(sample):
                continue  # the sample lay in the representers' span: m is rounding
            start = max(m.anchor, *(r.anchor for r in reps), 8)
            beta, distance, J = construction._core_member(m, reps, start, 1e-8, "member")
            assert distance <= 1e-8
            assert_matches_dense(m, reps, beta, distance, J)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.sampled_from([Diagonal(periodic_values=(1.0, 2.0)), FRP]),
        st.sampled_from([0.5, 0.1, 0.01]),
        st.sampled_from([0.5, 2.0]),
    )
    def test_construction_steps_match_dense(self, seed, dim, T, epsilon, c):
        M = sample_witness_subspace(np.random.default_rng(seed), dim)
        self.check_build(M, T, epsilon, c)

    def test_long_tails_match_dense(self):
        # r = 0.99 takes windows of thousands of coordinates
        self.check_build(odd_coordinate_witness(3, 0.99), FRP, 0.01, 1.0)

    @staticmethod
    def check_build(M, T, epsilon, c):
        steps = []
        member = construction._core_member

        def recording(m, reps, J, tol, what):
            out = member(m, reps, J, tol, what)
            steps.append((m, reps, *out))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(construction, "_core_member", recording)
            ca = build_core_approximants(build_biorthogonal(M, M.dim), T, epsilon, c)
        built = [n for n, m in enumerate(ca.system.vectors) if not m.has_zero_tail]
        assert len(steps) == len(built)
        for n, (m, reps, beta, distance, J) in zip(built, steps):
            assert m is ca.system.vectors[n] and len(reps) == n
            assert assert_matches_dense(m, reps, beta, distance, J).equals(ca.z[n])
            assert abs(ca.budgets[n] - distance) <= 1e-12 * distance + 1e-14


def test_dim_one_search_takes_one_window_svd(monkeypatch):
    """Every restart of a dim-1 search shares the complement eye(N): its SVD runs once."""
    A = window_action_matrix(FRP, 8)
    full_svds = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        if a.shape[-2:] == A.shape:
            full_svds.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for obj_index, maximize in ((0, False), (0, True)):
        full_svds.clear()
        _alternating_search(A, 1, obj_index, maximize, 64, 3)
        assert len(full_svds) == 1
