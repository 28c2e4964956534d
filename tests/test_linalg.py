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
    LinearFunctional,
    _check_positive_definite,
    _full_rank,
    gram,
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
        """A window Gram whose eigenvalue ratio lies in (1e-12, 1e-10] fails the rank rule: J doubles."""
        eta = 2.0 * 10**-5.5  # the window Gram [[1, 1], [1, 1 + eta^2]] has ratio about eta^2 / 4 = 1e-11
        first = TailVector((1.0,))
        # the two representers part ways only at coordinate 5, past the first window
        second = TailVector((1.0, eta, 0.0, 0.0, 1.0))
        functionals = [LinearFunctional(r, norm(r)) for r in (first, second)]
        g = np.array([r.coords(4) for r in (first, second)])
        eigs = np.linalg.eigvalsh(g @ g.T)
        assert 1e-12 < eigs[0] / eigs[-1] <= GRAM_RANK_TOL
        assert construction._window_kernel_projection(unit_vector(3).coords(4), functionals) is None
        # e_3 lies in both kernels; the window of 8 holds the fifth coordinate and solves exactly
        z, defect, gap, J = construction._core_member(unit_vector(3), functionals, 4, 1e-8, "gap window")
        assert (J, gap) == (8, 0.0)
        assert z.equals(unit_vector(3))


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
    def test_tail_bound_skips_only_failing_windows(self, monkeypatch):
        """Without the discarded-tail bound, every window is built; the report is the same."""
        windows = []
        project = construction._window_kernel_projection

        def counting(head, functionals):
            windows.append(head.size)
            return project(head, functionals)

        monkeypatch.setattr(construction, "_window_kernel_projection", counting)
        functionals = sample_lemma_functionals(np.random.default_rng(12), 3)
        report = check_dense_intersection(functionals, samples=30, tol=1e-8, seed=3)
        skipping = len(windows)
        windows.clear()
        monkeypatch.setattr(construction, "_remainder_norm", lambda v, J, space: 0.0)
        assert check_dense_intersection(functionals, samples=30, tol=1e-8, seed=3) == report
        assert skipping < len(windows)

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
