"""Configuration-driven experiment runner.

Parses JSON experiment configs, dispatches to the quantity estimators
and the construction pipeline, and emits deterministic machine-readable
reports.  Exit codes: 0 when no inequality violations were recorded,
1 when at least one was, 2 on config or IO errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .construction import (
    PARTS,
    build_biorthogonal,
    build_core_approximants,
    check_coefficient_bound,
    check_dense_intersection,
    run_invariance_case,
    verify_near_isometry,
    verify_transfer_bounds,
)
from .errors import ConfigError, OpquantError, ZeroVector
from .operators import Diagonal, Operator, operator_from_dict, window_action_matrix
from .quantities import QUANTITIES, limit_estimate, svd_oracle
from .sampling import odd_coordinate_witness, sample_lemma_functionals, sample_witness_subspace
from .seqspace import ELL2, SpaceConfig, Subspace, TailVector, norm, space_from_tag

EXPERIMENTS = ("quantities", "construction_suite", "invariance_case", "lemma_check")
METHOD_CHOICES = ("auto", "svd_oracle", "subset_oracle", "grassmann_search")

# single-letter aliases accepted on the command line
QUANTITY_LETTERS = {"G": "Gamma", "D": "Delta", "T": "Tau", "N": "Nabla"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; the operator stays a plain dict."""

    space: SpaceConfig
    operator: Optional[dict]
    experiment: str
    parameters: dict = field(default_factory=dict)
    output_path: Optional[str] = None

    def build_operator(self) -> Operator:
        if self.operator is None:
            raise ConfigError("operator: required for this experiment")
        return operator_from_dict(self.operator)

    def to_dict(self) -> dict:
        data = {
            "space": {"p": "inf" if math.isinf(self.space.p) else int(self.space.p)},
            "operator": self.operator,
            "experiment": self.experiment,
            "parameters": self.parameters,
        }
        if self.output_path is not None:
            data["output_path"] = self.output_path
        return data


def serialize_config(config: ExperimentConfig) -> str:
    return json.dumps(config.to_dict(), indent=2) + "\n"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


_SPACE_TAGS = {1: 1, 2: 2, "1": 1, "2": 2, "inf": "inf", math.inf: "inf"}


def _parse_space(data) -> SpaceConfig:
    _require(isinstance(data, dict), "space: must be an object")
    tag = data.get("p")
    if isinstance(tag, bool) or (not isinstance(tag, (int, float, str))) or tag not in _SPACE_TAGS:
        raise ConfigError("space.p: must be one of 1, 2, inf")
    return space_from_tag(_SPACE_TAGS[tag])


def _parse_operator(data) -> dict:
    _require(isinstance(data, dict), "operator: must be an object")
    try:
        operator_from_dict(data)
    except (OpquantError, ValueError, TypeError) as exc:
        raise ConfigError(f"operator: {exc}") from None
    return data


def _parse_schedule(raw) -> list:
    _require(isinstance(raw, list) and raw, "parameters.schedule: must be a nonempty list")
    schedule = []
    for i, entry in enumerate(raw):
        ok = (
            isinstance(entry, (list, tuple))
            and len(entry) == 3
            and all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
        )
        _require(ok, f"parameters.schedule[{i}]: expected [N, k, K] integers")
        N, k, K = entry
        _require(k >= 1, f"parameters.schedule[{i}]: k ≥ 1 required")
        _require(k <= K, f"parameters.schedule[{i}]: k ≤ K required")
        _require(K <= N, f"parameters.schedule[{i}]: K ≤ N required")
        schedule.append([N, k, K])
    return schedule


def _check_number(params: dict, key: str, predicate, message: str) -> None:
    if key not in params:
        return
    value = params[key]
    valid = isinstance(value, (int, float)) and not isinstance(value, bool) and predicate(value)
    _require(valid, message)


def _check_count(params: dict, key: str, minimum: int = 1) -> None:
    if key not in params:
        return
    value = params[key]
    valid = isinstance(value, int) and not isinstance(value, bool) and value >= minimum
    bound = "a nonnegative integer" if minimum == 0 else "a positive integer"
    _require(valid, f"parameters.{key}: must be {bound}")


def _parse_parameters(raw, experiment: str) -> dict:
    _require(isinstance(raw, dict), "parameters: must be an object")
    params = dict(raw)
    _check_number(params, "epsilon", lambda v: 0.0 < v < 1.0, "parameters.epsilon: must lie in (0,1)")
    _check_number(params, "delta", lambda v: v > 0.0, "parameters.delta: must be positive")
    _check_number(params, "c", lambda v: v > 0.0, "parameters.c: must be positive")
    _check_number(params, "tol", lambda v: v > 0.0, "parameters.tol: must be positive")
    _check_number(
        params,
        "expected_tolerance",
        lambda v: v > 0.0,
        "parameters.expected_tolerance: must be positive",
    )
    _check_count(params, "seed", minimum=0)
    _check_count(params, "restarts")
    _check_count(params, "samples")
    _check_count(params, "systems")
    _check_count(params, "combos")
    _check_count(params, "functionals")
    _check_count(params, "sub_basis_samples", minimum=0)
    _check_count(params, "vectors")
    if "quantity" in params:
        _require(
            params["quantity"] in QUANTITIES,
            "parameters.quantity: must be one of Gamma, Delta, Tau, Nabla",
        )
    if "part" in params:
        _require(
            params["part"] in PARTS,
            "parameters.part: must be one of Gamma, Tau, Delta, Nabla",
        )
    if "method" in params:
        _require(
            params["method"] in METHOD_CHOICES,
            "parameters.method: must be one of auto, svd_oracle, subset_oracle, grassmann_search",
        )
    if "schedule" in params:
        params["schedule"] = _parse_schedule(params["schedule"])
    elif experiment == "quantities":
        raise ConfigError("parameters.schedule: required for quantities")
    if "expected" in params:
        exp = params["expected"]
        ok = isinstance(exp, list) and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in exp
        )
        _require(ok, "parameters.expected: must be a list of numbers")
        _require(
            len(exp) == len(params.get("schedule", ())),
            "parameters.expected: length must match schedule",
        )
    if "witness" in params:
        wit = params["witness"]
        _require(isinstance(wit, list) and wit, "parameters.witness: must be a nonempty list")
        normalized = []
        for i, entry in enumerate(wit):
            try:
                normalized.append(TailVector.from_dict(entry).to_dict())
            except (OpquantError, ValueError, TypeError, KeyError, AttributeError) as exc:
                raise ConfigError(f"parameters.witness[{i}]: {exc}") from None
        params["witness"] = normalized
    return params


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON experiment config, naming the offending field on error."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from None
    _require(isinstance(data, dict), "config: must be a JSON object")
    known = {"space", "operator", "experiment", "parameters", "output_path"}
    for key in data:
        _require(key in known, f"config: unknown field {key!r}")
    experiment = data.get("experiment")
    _require(
        experiment in EXPERIMENTS,
        "experiment: must be one of quantities, construction_suite, invariance_case, lemma_check",
    )
    space = _parse_space(data.get("space", {"p": 2}))
    # every runner goes through l2 window projections and Gram solves
    _require(space.p == 2, f"space.p: {experiment} requires p = 2")
    operator = data.get("operator")
    if operator is not None:
        operator = _parse_operator(operator)
    elif experiment != "lemma_check":
        raise ConfigError(f"operator: required for {experiment}")
    parameters = _parse_parameters(data.get("parameters", {}), experiment)
    output_path = data.get("output_path")
    if output_path is not None:
        _require(isinstance(output_path, str), "output_path: must be a string")
    return ExperimentConfig(space, operator, experiment, parameters, output_path)


@dataclass(frozen=True)
class RunReport:
    """Deterministic run record: config echo plus results and violations."""

    version: str
    seed: int
    config: ExperimentConfig
    results: list
    violations: list

    @property
    def exit_code(self) -> int:
        return 0 if not self.violations else 1

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "results": self.results,
            "violations": self.violations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _violation(name: str, measured: float, bound: float, slack: float) -> dict:
    return {
        "name": name,
        "measured": float(measured),
        "bound": float(bound),
        "slack": float(slack),
    }


def _run_quantities(config: ExperimentConfig, seed: int, results: list, violations: list) -> None:
    params = config.parameters
    T = config.build_operator()
    quantity = params.get("quantity", "Gamma")
    schedule = params["schedule"]
    estimates, final, converged = limit_estimate(
        T,
        quantity,
        schedule,
        method=params.get("method", "auto"),
        restarts=params.get("restarts", 64),
        seed=seed,
    )
    results.extend(e.to_dict() for e in estimates)
    results.append(
        {"kind": "limit", "quantity": quantity, "value": float(final), "converged": bool(converged)}
    )
    expected = params.get("expected")
    if expected is not None:
        tolerance = params.get("expected_tolerance", 1e-9)
        for i, (estimate, target) in enumerate(zip(estimates, expected)):
            gap = abs(estimate.value - float(target))
            if gap > tolerance:
                violations.append(
                    _violation(
                        f"{quantity}[{i}] expected value", estimate.value, target, tolerance - gap
                    )
                )


def _run_construction(config: ExperimentConfig, seed: int, results: list, violations: list) -> None:
    params = config.parameters
    T = config.build_operator()
    epsilon = params.get("epsilon", 0.1)
    c = params.get("c", 1.0)
    systems = params.get("systems", 3)
    combos = params.get("combos", 200)
    for i in range(systems):
        rng = np.random.default_rng([seed, i])
        dim = 2 + i % 3
        M = sample_witness_subspace(rng, dim)
        system = build_biorthogonal(M, dim, space=config.space, seed=seed + i)
        ca = build_core_approximants(system, T, epsilon, c)
        worst_gap = 0.0
        for j in range(combos):
            coeffs = rng.uniform(-1.0, 1.0, size=dim)
            holds, margins = check_coefficient_bound(system, coeffs)
            if not holds:
                low = min(margins)
                violations.append(_violation(f"system[{i}].coefficient_bound[{j}]", low, 0.0, low))
            defect, distortion, near = verify_near_isometry(ca, coeffs)
            worst_gap = max(worst_gap, near["gap"])
            if not defect:
                violations.append(
                    _violation(
                        f"system[{i}].defect[{j}]",
                        near["gap"],
                        near["allowance"],
                        near["allowance"] - near["gap"],
                    )
                )
            if not distortion:
                slack = min(near["z_norm"] - near["lower"], near["upper"] - near["z_norm"])
                violations.append(
                    _violation(f"system[{i}].distortion[{j}]", near["z_norm"], near["upper"], slack)
                )
            try:
                lower, upper, transfer = verify_transfer_bounds(ca, T, coeffs)
            except ZeroVector:
                continue
            if not lower:
                violations.append(
                    _violation(
                        f"system[{i}].transfer_lower[{j}]",
                        transfer["z_ratio"],
                        transfer["lower_threshold"],
                        transfer["z_ratio"] - transfer["lower_threshold"],
                    )
                )
            if not upper:
                violations.append(
                    _violation(
                        f"system[{i}].transfer_upper[{j}]",
                        transfer["z_ratio"],
                        transfer["upper_threshold"],
                        transfer["upper_threshold"] - transfer["z_ratio"],
                    )
                )
        results.append(
            {
                "kind": "construction_system",
                "index": i,
                "dim": dim,
                "epsilon": float(epsilon),
                "c": float(c),
                "operator_norm": float(ca.T_norm),
                "budgets": [float(b) for b in ca.budgets],
                "combos": int(combos),
                "worst_defect_gap": float(worst_gap),
            }
        )


def _case_slack(report) -> tuple[float, float]:
    measured = report.measured
    threshold = measured["threshold"]
    if report.part == "Gamma":
        return measured["restricted_norm_L"], threshold - measured["restricted_norm_L"]
    if report.part == "Tau":
        return measured["restricted_min_modulus_L"], measured["restricted_min_modulus_L"] - threshold
    return measured["worst_margin"], measured["worst_margin"]


def _run_invariance(config: ExperimentConfig, seed: int, results: list, violations: list) -> None:
    params = config.parameters
    T = config.build_operator()
    part = params.get("part", "Gamma")
    if "witness" in params:
        M = Subspace(tuple(TailVector.from_dict(d) for d in params["witness"]), config.space)
    else:
        M = odd_coordinate_witness()
    report = run_invariance_case(
        T,
        part,
        M,
        params.get("epsilon", 0.1),
        params.get("delta", 0.05),
        seed=seed,
        sub_basis_samples=params.get("sub_basis_samples", 100),
    )
    results.append(report.to_dict())
    if not report.passed:
        measured, slack = _case_slack(report)
        violations.append(
            _violation(f"invariance_case.{part}", measured, report.measured["threshold"], slack)
        )


def _run_lemma(config: ExperimentConfig, seed: int, results: list, violations: list) -> None:
    params = config.parameters
    count = params.get("functionals", 3)
    tol = params.get("tol", 1e-8)
    functionals = sample_lemma_functionals(np.random.default_rng(seed), count)
    report = check_dense_intersection(
        functionals, samples=params.get("samples", 100), tol=tol, seed=seed
    )
    results.append({"kind": "lemma_check", **report})
    if not report["passed"]:
        violations.append(
            _violation(
                "lemma.dense_intersection",
                report["max_distance"],
                tol,
                tol - report["max_distance"],
            )
        )


_RUNNERS = {
    "quantities": _run_quantities,
    "construction_suite": _run_construction,
    "invariance_case": _run_invariance,
    "lemma_check": _run_lemma,
}


def run(config: ExperimentConfig, seed_override: Optional[int] = None) -> RunReport:
    """Execute one experiment; violations are collected, not fail-fast."""
    seed = int(seed_override if seed_override is not None else config.parameters.get("seed", 0))
    results: list = []
    violations: list = []
    _RUNNERS[config.experiment](config, seed, results, violations)
    return RunReport(__version__, seed, config, results, violations)


def emit_test_vectors(
    config: ExperimentConfig, out: str, seed_override: Optional[int] = None
) -> dict:
    """Write a deterministic (input, expected-output) bundle for regression tests."""
    seed = int(seed_override if seed_override is not None else config.parameters.get("seed", 0))
    params = config.parameters
    T = config.build_operator() if config.operator is not None else Diagonal(periodic_values=(1.0,))
    schedule = params.get("schedule") or [[4, 1, 2]]
    windows = sorted({entry[0] for entry in schedule})
    singular_values = [
        {"N": N, "values": [float(s) for s in svd_oracle(window_action_matrix(T, N))]}
        for N in windows
    ]
    quantity_rows = []
    for N, k, K in schedule:
        row = {"N": N, "k": k, "K": K}
        for quantity in ("Gamma", "Tau", "Delta", "Nabla"):
            _, value, _ = limit_estimate(T, quantity, [(N, k, K)], method="svd_oracle", seed=seed)
            row[quantity] = float(value)
        quantity_rows.append(row)

    dim = params.get("vectors", 3)
    if "witness" in params:
        M = Subspace(tuple(TailVector.from_dict(d) for d in params["witness"]), config.space)
        dim = M.dim
    else:
        M = None
    system = build_biorthogonal(M, dim, space=config.space, seed=seed)
    ca = build_core_approximants(
        system, T, params.get("epsilon", 0.1), params.get("c", 1.0)
    )
    ratios = []
    for z, az in zip(ca.z, ca.targets):
        z_norm = norm(z, config.space)
        az_norm = norm(az, config.space)
        ratios.append(float(az_norm / z_norm) if z_norm else 0.0)
    bundle = {
        "version": __version__,
        "seed": seed,
        "config": config.to_dict(),
        "singular_values": singular_values,
        "quantities": quantity_rows,
        "biorthogonal": {
            "vectors": [m.to_dict() for m in system.vectors],
            "functionals": [f.to_dict() for f in system.functionals],
        },
        "core": {
            "epsilon": float(ca.epsilon),
            "c": float(ca.c),
            "operator_norm": float(ca.T_norm),
            "anchors": [int(z.anchor) for z in ca.z],
            "budgets": [float(b) for b in ca.budgets],
            "ratios": ratios,
        },
    }
    Path(out).write_text(json.dumps(bundle, indent=2) + "\n", encoding="utf-8")
    return bundle


def _seed_override(args: argparse.Namespace) -> Optional[int]:
    if getattr(args, "seed", None) is not None:
        return args.seed
    raw = os.environ.get("OPQUANT_SEED")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError("OPQUANT_SEED: must be a nonnegative integer") from None
    _require(value >= 0, "OPQUANT_SEED: must be a nonnegative integer")
    return value


def _emit_report(report: RunReport, out: Optional[str]) -> int:
    text = report.to_json()
    target = out or report.config.output_path
    if target:
        Path(target).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return report.exit_code


def _cmd_run(args: argparse.Namespace) -> int:
    config = parse_config(Path(args.config).read_text(encoding="utf-8"))
    report = run(config, _seed_override(args))
    return _emit_report(report, args.out)


def _cmd_quantities(args: argparse.Namespace) -> int:
    quantity = QUANTITY_LETTERS.get(args.quantity, args.quantity)
    try:
        operator = json.loads(args.op)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"operator: invalid JSON ({exc})") from None
    try:
        schedule = json.loads(args.schedule)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parameters.schedule: invalid JSON ({exc})") from None
    data = {
        "space": {"p": args.space},
        "operator": operator,
        "experiment": "quantities",
        "parameters": {
            "quantity": quantity,
            "schedule": schedule,
            "method": args.method,
            "restarts": args.restarts,
        },
    }
    config = parse_config(json.dumps(data))
    report = run(config, _seed_override(args))
    return _emit_report(report, args.out)


def _cmd_verify(args: argparse.Namespace) -> int:
    data = {
        "space": {"p": 2},
        "operator": {"kind": "diagonal", "prefix": [], "periodic": [1.0, 2.0]},
        "experiment": "construction_suite",
        "parameters": {
            "epsilon": args.epsilon,
            "c": args.c,
            "systems": args.systems,
            "combos": args.combos,
        },
    }
    config = parse_config(json.dumps(data))
    report = run(config, _seed_override(args))
    return _emit_report(report, args.out)


def _cmd_vectors(args: argparse.Namespace) -> int:
    config = parse_config(Path(args.config).read_text(encoding="utf-8"))
    emit_test_vectors(config, args.out, _seed_override(args))
    sys.stdout.write(f"wrote {args.out}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opquant",
        description="Finite-window estimators for operator quantities on sequence spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config and emit a report")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--out", help="report path (default: config output_path or stdout)")
    p_run.add_argument("--seed", type=int, help="overrides OPQUANT_SEED and the config seed")
    p_run.set_defaults(handler=_cmd_run)

    p_q = sub.add_parser("quantities", help="evaluate one quantity along a window schedule")
    p_q.add_argument("--op", required=True, help="inline JSON operator description")
    p_q.add_argument(
        "--quantity", required=True, help="Gamma, Delta, Tau, Nabla or the letters G, D, T, N"
    )
    p_q.add_argument("--schedule", required=True, help="JSON list of [N, k, K] triples")
    p_q.add_argument("--space", default=2, help="1, 2 or inf (default 2)")
    p_q.add_argument("--method", default="auto", choices=METHOD_CHOICES)
    p_q.add_argument("--restarts", type=int, default=64)
    p_q.add_argument("--seed", type=int)
    p_q.add_argument("--out")
    p_q.set_defaults(handler=_cmd_quantities)

    p_v = sub.add_parser("verify", help="run the construction suite on a stock operator")
    p_v.add_argument("--suite", required=True, choices=["construction"])
    p_v.add_argument("--epsilon", type=float, required=True)
    p_v.add_argument("--c", type=float, required=True)
    p_v.add_argument("--systems", type=int, default=3)
    p_v.add_argument("--combos", type=int, default=200)
    p_v.add_argument("--seed", type=int)
    p_v.add_argument("--out")
    p_v.set_defaults(handler=_cmd_verify)

    p_vec = sub.add_parser("vectors", help="write a regression bundle of expected outputs")
    p_vec.add_argument("--config", required=True)
    p_vec.add_argument("--out", required=True)
    p_vec.add_argument("--seed", type=int)
    p_vec.set_defaults(handler=_cmd_vectors)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except OpquantError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
