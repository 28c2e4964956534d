"""The three workloads: seeded inputs, one operation each, and its checks.

A workload is a fixed list of operations built from the seed during
set-up.  Each operation has `run` (the timed call into opquant),
`payload` (its output as plain data) and `check` (reference checks of
a payload, returning the problems found).

Library functions are always reached as module attributes at call time
(`opquant.construction.build_biorthogonal`, never a name imported from
it), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import opquant.cli
import opquant.construction
import opquant.sampling
import checks

# fixed operators named by the workloads; blocks and weights come from the seed
ALTERNATING = {"kind": "diagonal", "prefix": [], "periodic": [1.0, 2.0]}
SHIFT = {"kind": "shift", "prefix": [0.7, 1.3], "periodic": [1.0, 0.5]}


def _frp(rng: np.random.Generator) -> dict:
    block = np.round(rng.uniform(-0.5, 0.5, (3, 3)), 6)
    return {"kind": "finite_rank_plus", "prefix": [], "periodic": [1.0, 2.0], "block": block.tolist()}


def _parse(spec: dict, experiment: str, parameters: dict):
    text = json.dumps({"space": {"p": 2}, "operator": spec, "experiment": experiment, "parameters": parameters})
    return opquant.cli.parse_config(text)


@dataclass
class Operation:
    """`run` is timed; `payload` turns its result into plain data for
    `check`, a module-level function that may run in another process."""

    name: str
    run: Callable[[], Any]
    payload: Callable[[Any], Any]
    check: Callable[[Any], list]


# --- construction-checks -------------------------------------------------

COMBOS = 200  # coefficient vectors per build, as `opquant verify` and acceptance criterion 2 run


def construction_checks(seed: int) -> list[Operation]:
    """Operators x epsilon x c, one build per operation.

    The witnesses (dimensions 2, 3 and 4) form a Latin square over
    (epsilon, c), so each operator meets every witness with every
    epsilon and every c once.
    """
    rng = np.random.default_rng(seed)
    witnesses = [opquant.sampling.sample_witness_subspace(rng, dim) for dim in (2, 3, 4)]
    ops = []
    for spec in (ALTERNATING, SHIFT, _frp(rng)):
        for i, epsilon in enumerate((0.5, 0.1, 0.01)):
            for j, c in enumerate((0.5, 1.0, 2.0)):
                config = _parse(spec, "construction_suite", {"epsilon": epsilon, "c": c})
                T = config.build_operator()
                w = (i + j) % len(witnesses)
                M = witnesses[w]
                coeffs = rng.uniform(-1.0, 1.0, (COMBOS, M.dim))
                name = f"{spec['kind']}/eps={epsilon}/c={c}/witness={w}"
                ops.append(_construction_op(name, T, spec, M, epsilon, c, coeffs, w))
    return ops


def _construction_op(name, T, spec, M, epsilon, c, coeffs, seed) -> Operation:
    construction = opquant.construction

    def run():
        system = construction.build_biorthogonal(M, M.dim, seed=seed)
        ca = construction.build_core_approximants(system, T, epsilon, c)
        combos = []
        for a in coeffs:
            holds, _ = construction.check_coefficient_bound(system, a)
            defect, distortion, near = construction.verify_near_isometry(ca, a)
            lower, upper, transfer = construction.verify_transfer_bounds(ca, T, a)
            combos.append(((holds, defect, distortion, lower, upper), near, transfer))
        return system, ca, combos

    def payload(out) -> dict:
        system, ca, combos = out
        return {
            "operator": spec,
            "epsilon": epsilon,
            "c": c,
            "m": [v.to_dict() for v in system.vectors],
            "functionals": [f.to_dict() for f in system.functionals],
            "z": [v.to_dict() for v in ca.z],
            "gaps": [float(g) for g in ca.budgets],
            "T_norm": float(ca.T_norm),
            "coeffs": coeffs.tolist(),
            "combos": combos,
        }

    return Operation(name, run, payload, checks.check_construction)


# --- invariance-long-tails -----------------------------------------------

RATIOS = (0.5, 0.99, 0.9999)
EPSILONS = (0.1, 0.01)


def invariance_long_tails(seed: int) -> list[Operation]:
    """invariance_case configs with long witness tails, plus lemma checks.

    Each (operator, r, part) runs with one epsilon, alternating, so each
    (operator, r) meets both epsilons twice and a round stays short
    enough to repeat within a run.
    """
    rng = np.random.default_rng(seed)
    witnesses = {
        r: [v.to_dict() for v in opquant.sampling.odd_coordinate_witness(3, r, float(rng.uniform(0.45, 0.55))).basis]
        for r in RATIOS
    }
    ops = []
    for o, spec in enumerate((ALTERNATING, SHIFT, _frp(rng))):
        for i, r in enumerate(RATIOS):
            for j, part in enumerate(("Gamma", "Tau", "Delta", "Nabla")):
                epsilon = EPSILONS[(o + i + j) % 2]
                params = {
                    "part": part,
                    "epsilon": epsilon,
                    "delta": 0.05,
                    "witness": witnesses[r],
                    "seed": int(rng.integers(0, 2**31)),
                }
                config = _parse(spec, "invariance_case", params)
                ops.append(_report_op(f"{spec['kind']}/r={r}/{part}/eps={epsilon}", config, checks.check_invariance_report))
    for count in (1, 2, 3, 4):
        params = {"functionals": count, "samples": 100, "tol": 1e-8, "seed": int(rng.integers(0, 2**31))}
        text = json.dumps({"space": {"p": 2}, "experiment": "lemma_check", "parameters": params})
        config = opquant.cli.parse_config(text)
        ops.append(_report_op(f"lemma/functionals={count}", config, checks.check_lemma_report))
    return ops


def _report_op(name, config, check_report) -> Operation:
    """One config through `cli.run`, serialised as `opquant run` does."""

    def run():
        report = opquant.cli.run(config)
        return report.exit_code, report.to_json()

    return Operation(name, run, lambda out: out, functools.partial(checks.check_report_text, check_report))


# --- window-quantities ---------------------------------------------------

DIAGONAL_SCHEDULES = {
    "Gamma": [[8, 2, 2], [12, 3, 3], [16, 4, 4], [22, 5, 5]],
    "Tau": [[8, 2, 2], [12, 3, 3], [16, 4, 4], [22, 5, 5]],
    # N = 22, K = 11 enumerates C(22, 11) = 705432 outer sets, below the cap
    "Delta": [[8, 2, 4], [12, 3, 6], [16, 4, 8], [22, 5, 11]],
    "Nabla": [[8, 2, 4], [12, 3, 6], [16, 4, 8], [22, 5, 11]],
}
SVD_SCHEDULE = [[6, 1, 2], [8, 2, 4], [12, 3, 6]]  # N >= every block size
SEARCH_SCHEDULE = [[4, 1, 2], [6, 2, 3], [8, 2, 4]]
RESTARTS = 64


# The search routes run on fixed operators with fixed restarts: their cost
# follows the number of alternating steps, which varies widely between
# random matrices and by about 10 % between restart seeds.  The seed picks
# every operator of the exact routes.
SEARCH_SEED = 0
SEARCH_OPERATORS = (
    {"kind": "dense", "block": np.round(np.random.default_rng(0).standard_normal((6, 6)), 6).tolist()},
    {"kind": "finite_rank_plus", "prefix": [1.5, 0.8], "periodic": [1.0, 2.0], "block": [[0.4, -0.3, 0.1], [0.2, 0.5, -0.2], [-0.1, 0.3, 0.6]]},
    SHIFT,
)


def window_quantities(seed: int) -> list[Operation]:
    """Schedules for all four quantities on exact and search routes."""
    rng = np.random.default_rng(seed)
    diagonal = {
        "kind": "diagonal",
        "prefix": np.round(rng.uniform(0.1, 3.0, 12), 6).tolist(),
        "periodic": np.round(rng.uniform(0.1, 3.0, 3), 6).tolist(),
    }
    dense = {"kind": "dense", "block": np.round(rng.standard_normal((6, 6)), 6).tolist()}
    frp = {
        "kind": "finite_rank_plus",
        "prefix": np.round(rng.uniform(0.5, 2.5, 2), 6).tolist(),
        "periodic": [1.0, 2.0],
        "block": np.round(rng.standard_normal((3, 3)), 6).tolist(),
    }
    plan = [(diagonal, "auto", DIAGONAL_SCHEDULES[q], q) for q in DIAGONAL_SCHEDULES]
    plan += [(spec, "svd_oracle", SVD_SCHEDULE, q) for spec in (dense, frp) for q in DIAGONAL_SCHEDULES]
    plan += [(spec, "grassmann_search", SEARCH_SCHEDULE, q) for spec in SEARCH_OPERATORS for q in DIAGONAL_SCHEDULES]
    ops = []
    for spec, method, schedule, quantity in plan:
        params = {"quantity": quantity, "schedule": schedule, "method": method, "restarts": RESTARTS, "seed": SEARCH_SEED}
        config = _parse(spec, "quantities", params)
        ops.append(_quantities_op(f"{spec['kind']}/{method}/{quantity}", config, method))
    return ops


def _quantities_op(name, config, method) -> Operation:
    return Operation(
        name,
        lambda: opquant.cli.run(config),
        lambda report: {"exit_code": report.exit_code, "report": report.to_dict()},
        functools.partial(checks.check_quantities_out, method),
    )


WORKLOADS = {
    "construction-checks": construction_checks,
    "invariance-long-tails": invariance_long_tails,
    "window-quantities": window_quantities,
}
