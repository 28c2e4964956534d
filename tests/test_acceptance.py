"""Acceptance gate: eight criteria, one test and one pass/fail line each.

Each test prints a single summary line (visible with pytest -s) and the
pytest -v output carries the PASSED/FAILED verdict per criterion.
"""

import json
import math
import subprocess
import sys
from itertools import combinations
from time import perf_counter

import numpy as np
import pytest

from opquant import (
    DegenerateBasis,
    Diagonal,
    Subspace,
    TailVector,
    WeightedShift,
    ZeroVector,
    budget_bound,
    build_biorthogonal,
    build_core_approximants,
    check_coefficient_bound,
    check_dense_intersection,
    delta_kK,
    gamma_k,
    limit_estimate,
    nabla_kK,
    norm,
    pairing,
    run_invariance_case,
    tau_k,
    verify_near_isometry,
    verify_transfer_bounds,
)
from opquant.operators import DenseMatrix
from opquant.sampling import (
    odd_coordinate_witness,
    sample_lemma_functionals,
    sample_witness_subspace,
)

ALTERNATING = Diagonal(periodic_values=(2.0, 1.0))


def finite_witness(rng, dim):
    while True:
        rows = rng.standard_normal((dim, dim + 2))
        try:
            return Subspace(tuple(TailVector(row) for row in rows))
        except DegenerateBasis:
            continue


def test_1_biorthogonality_suite():
    start = perf_counter()
    rng = np.random.default_rng(101)
    windows = combos = 0
    for i in range(50):
        dim = 2 + i % 7
        M = sample_witness_subspace(rng, dim) if i % 2 else finite_witness(rng, dim)
        system = build_biorthogonal(M, dim)
        for n, (m, f) in enumerate(zip(system.vectors, system.functionals)):
            assert abs(norm(m) - 1.0) <= 1e-10
            assert abs(f.dual_norm - 1.0) <= 1e-10
            assert abs(pairing(f, m) - 1.0) <= 1e-10
            for g in system.functionals[:n]:
                assert abs(pairing(g, m)) <= 1e-10
        for _ in range(1000):
            holds, margins = check_coefficient_bound(system, rng.uniform(-1.0, 1.0, dim))
            assert holds, margins
            combos += 1
        windows += 1
    elapsed = perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"criterion 1 (biorthogonality suite): PASS - {windows} windows, "
          f"{combos} coefficient checks, {elapsed:.1f}s")


def test_2_construction_suite():
    start = perf_counter()
    rng = np.random.default_rng(202)
    T = Diagonal(periodic_values=(1.0, 2.0))
    systems = []
    for i in range(10):
        M = sample_witness_subspace(rng, 2 + i % 3)
        systems.append(build_biorthogonal(M, M.dim))
    checks = violations = 0
    for epsilon in (0.5, 0.1, 0.01):
        for c in (0.5, 1.0, 2.0):
            for system in systems:
                ca = build_core_approximants(system, T, epsilon, c)
                for n, (z, gap) in enumerate(zip(ca.z, ca.budgets), start=1):
                    assert gap <= budget_bound(n, epsilon, c, ca.T_norm)
                    for f in system.kernel_stack(n):
                        assert abs(pairing(f, z)) <= 1e-10
                for _ in range(1000):
                    coeffs = rng.uniform(-1.0, 1.0, len(ca.z))
                    defect, distortion, _ = verify_near_isometry(ca, coeffs)
                    violations += (not defect) + (not distortion)
                    try:
                        lower, upper, _ = verify_transfer_bounds(ca, T, coeffs)
                    except ZeroVector:
                        continue
                    violations += (not lower) + (not upper)
                    checks += 1
    assert violations == 0
    elapsed = perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"criterion 2 (construction suite): PASS - 90 builds, {checks} combination "
          f"checks, 0 violations, {elapsed:.1f}s")


def test_3_oracle_equivalence():
    start = perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        T = DenseMatrix(rng.standard_normal((6, 6)))
        for k in (1, 2, 3):
            for fn in (gamma_k, tau_k):
                reference = fn(T, 6, k, method="svd_oracle").value
                searched = fn(T, 6, k, method="grassmann_search", restarts=64, seed=0).value
                worst = max(worst, abs(searched - reference))
                assert abs(searched - reference) <= 1e-6
    exact = 0
    for _ in range(100):
        T = Diagonal(prefix_values=rng.uniform(0.05, 3.0, 8))
        for k in (1, 2, 3):
            assert gamma_k(T, 8, k, method="subset_oracle").value == gamma_k(T, 8, k, method="svd_oracle").value
            assert tau_k(T, 8, k, method="subset_oracle").value == tau_k(T, 8, k, method="svd_oracle").value
            K = 2 * k
            assert delta_kK(T, 8, k, K, method="subset_oracle").value == delta_kK(T, 8, k, K, method="svd_oracle").value
            assert nabla_kK(T, 8, k, K, method="subset_oracle").value == nabla_kK(T, 8, k, K, method="svd_oracle").value
            exact += 4
    elapsed = perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"criterion 3 (oracle equivalence): PASS - worst grassmann gap {worst:.2e}, "
          f"{exact} exact diagonal matches, {elapsed:.1f}s")


def test_4_structured_limits():
    start = perf_counter()
    # alternating (2, 1, 2, 1, ...): constant values at every window
    targets = {
        ("Gamma", 1.0): [(8, 2, 2), (12, 4, 4), (16, 6, 6)],
        ("Tau", 2.0): [(8, 2, 2), (12, 4, 4), (16, 6, 6)],
        ("Delta", 2.0): [(8, 2, 4), (12, 4, 8), (16, 6, 12)],
        ("Nabla", 1.0): [(8, 2, 4), (12, 4, 8), (16, 6, 12)],
    }
    for (quantity, target), schedule in targets.items():
        estimates, value, converged = limit_estimate(
            ALTERNATING, quantity, schedule, method="subset_oracle"
        )
        assert [e.value for e in estimates] == [target] * len(schedule)
        assert value == target and converged
    # compact diagonal 1/n: k-th smallest on the 2k-window is exactly 1/(k+1)
    compact = Diagonal(prefix_values=1.0 / np.arange(1, 21), periodic_values=(0.0,))
    schedule = [(2 * k, k, k) for k in range(1, 11)]
    estimates, value, _ = limit_estimate(compact, "Gamma", schedule, method="subset_oracle")
    values = [e.value for e in estimates]
    assert values == [1.0 / (k + 1) for k in range(1, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert value < 0.1
    elapsed = perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"criterion 4 (structured limits): PASS - alternating exact at 12 points, "
          f"compact Gamma {value:.4f} < 0.1 at k = 10, {elapsed:.1f}s")


def test_5_ordering_chain():
    rng = np.random.default_rng(505)
    violations = 0
    matched = literal = 0
    for _ in range(200):
        N = int(rng.integers(4, 11))
        T = Diagonal(prefix_values=rng.uniform(0.05, 3.0, N))
        k = int(rng.integers(1, N + 1))
        K = int(rng.integers(k, N + 1))
        kw = {"method": "subset_oracle"}
        gamma_inner = gamma_k(T, N, k, **kw).value
        gamma_outer = gamma_k(T, N, K, **kw).value
        tau_inner = tau_k(T, N, k, **kw).value
        tau_outer = tau_k(T, N, K, **kw).value
        delta = delta_kK(T, N, k, K, **kw).value
        nabla = nabla_kK(T, N, k, K, **kw).value
        # dimension-matched chain, valid for every 1 <= k <= K <= N
        violations += not (nabla <= tau_inner)
        violations += not (gamma_inner <= delta)
        violations += not (nabla <= gamma_outer)
        violations += not (tau_outer <= delta)
        matched += 4
        if K <= 2 * k - 1:
            # inner-indexed chain holds only on this range of (k, K)
            violations += not (tau_inner <= delta)
            violations += not (nabla <= gamma_inner)
            literal += 2
    assert violations == 0
    print(f"criterion 5 (ordering chain): PASS - 200 diagonals, {matched} matched-index "
          f"and {literal} inner-index comparisons, 0 violations")


def test_6_invariance_cases():
    start = perf_counter()
    operators = {
        "alternating diagonal": ALTERNATING,
        "weighted shift": WeightedShift(prefix_values=(0.7, 1.3), periodic_values=(1.0, 0.5)),
    }
    M = odd_coordinate_witness()
    assert not all(v.has_zero_tail for v in M.basis)
    runs = 0
    for label, T in operators.items():
        for part in ("Gamma", "Tau", "Delta", "Nabla"):
            for epsilon in (0.1, 0.05):
                report = run_invariance_case(T, part, M, epsilon, 0.05)
                assert report.passed, (label, part, epsilon, report.measured)
                measured = report.measured
                if part == "Gamma":
                    slack = measured["threshold"] - measured["restricted_norm_L"]
                elif part == "Tau":
                    slack = measured["restricted_min_modulus_L"] - measured["threshold"]
                else:
                    slack = measured["certified_margin"]
                assert slack >= 0.0, (label, part, epsilon, slack)
                runs += 1
    elapsed = perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"criterion 6 (density-invariance cases): PASS - {runs} part runs, "
          f"nonnegative slack, {elapsed:.1f}s")


def test_7_lemma_check():
    worst = 0.0
    for count in (1, 2, 3, 4):
        functionals = sample_lemma_functionals(np.random.default_rng(700 + count), count)
        report = check_dense_intersection(functionals, samples=100, tol=1e-8, seed=count)
        assert report["passed"], report
        assert report["samples"] == 100 and report["functional_count"] == count
        worst = max(worst, report["max_distance"])
    print(f"criterion 7 (lemma check): PASS - 1-4 functionals, 100 samples each, "
          f"max distance {worst:.2e} <= 1e-8")


def test_8_cli_contract(tmp_path):
    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "opquant", *args], capture_output=True, text=True
        )

    ok = {
        "space": {"p": 2},
        "operator": {"kind": "diagonal", "periodic": [1.0]},
        "experiment": "quantities",
        "parameters": {"quantity": "Gamma", "schedule": [[4, 1, 1], [8, 2, 2]], "seed": 3},
    }
    ok_path = tmp_path / "ok.json"
    ok_path.write_text(json.dumps(ok))
    first = cli("run", "--config", str(ok_path))
    second = cli("run", "--config", str(ok_path))
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout and len(first.stdout) > 100
    assert json.loads(first.stdout)["seed"] == 3

    bad_values = {**ok, "parameters": {**ok["parameters"], "expected": [1.0, 0.25]}}
    violation_path = tmp_path / "violation.json"
    violation_path.write_text(json.dumps(bad_values))
    violated = cli("run", "--config", str(violation_path))
    assert violated.returncode == 1
    assert json.loads(violated.stdout)["violations"]

    broken = {**ok, "parameters": {**ok["parameters"], "epsilon": 1.5}}
    broken_path = tmp_path / "broken.json"
    broken_path.write_text(json.dumps(broken))
    refused = cli("run", "--config", str(broken_path))
    assert refused.returncode == 2
    assert "parameters.epsilon" in refused.stderr
    print("criterion 8 (CLI contract): PASS - byte-identical reports, "
          "exit codes 0/1/2 honored")
