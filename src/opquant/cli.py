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
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .construction import (
    build_biorthogonal,
    build_core_approximants,
    certify_construction,
    check_dense_intersection,
    run_invariance_case,
)
from .errors import ConfigError, OpquantError
from .operators import Diagonal, Operator, operator_from_dict, window_singular_values
from .quantities import METHODS, QUANTITIES, _descending_index, limit_estimate
from .sampling import odd_coordinate_witness, sample_lemma_functionals, sample_witness_subspace
from .seqspace import SpaceConfig, Subspace, TailVector, _p_tag, norm, space_from_tag

EXPERIMENTS = ("quantities", "construction_suite", "invariance_case", "lemma_check")
METHOD_CHOICES = ("auto", *METHODS)

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
            "space": {"p": _p_tag(self.space)},
            "operator": self.operator,
            "experiment": self.experiment,
            "parameters": self.parameters,
        }
        if self.output_path is not None:
            data["output_path"] = self.output_path
        return data


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def _dumps(obj) -> str:
    """Exactly json.dumps(obj, indent=2) + "\\n" for str-keyed JSON values.

    json falls back to its pure-Python encoder whenever indent is set.
    Here only dicts and lists holding containers are walked in Python;
    every list of plain scalars is one C-encoder call whose item
    separator carries the newline and the indentation.
    """
    parts: list[str] = []
    _encode(obj, "\n", parts)
    return "".join(parts) + "\n"


def _encode(obj, outer: str, parts: list) -> None:
    inner = outer + "  "
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        separator = "{" + inner
        for key, value in obj.items():
            parts += (separator, encode_basestring_ascii(key), ": ")
            _encode(value, inner, parts)
            separator = "," + inner
        parts.append(outer + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
        elif _SCALAR_TYPES.issuperset(map(type, obj)):
            body = json.dumps(obj, separators=("," + inner, ": "))
            parts.append("[" + inner + body[1:-1] + outer + "]")
        else:
            separator = "[" + inner
            for value in obj:
                parts.append(separator)
                _encode(value, inner, parts)
                separator = "," + inner
            parts.append(outer + "]")
    else:
        parts.append(json.dumps(obj))


def serialize_config(config: ExperimentConfig) -> str:
    return _dumps(config.to_dict())


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


_SPACE_TAGS = {1, 2, "1", "2", "inf", math.inf}


def _parse_space(data) -> SpaceConfig:
    _require(isinstance(data, dict), "space: must be an object")
    tag = data.get("p")
    if isinstance(tag, bool) or (not isinstance(tag, (int, float, str))) or tag not in _SPACE_TAGS:
        raise ConfigError("space.p: must be one of 1, 2, inf")
    return space_from_tag(tag)


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


def _finite_number(value) -> bool:
    """A number with a finite float value: no NaN, no inf (json reads 1e400 as inf), no huge int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _check_number(params: dict, key: str, predicate, message: str) -> None:
    if key in params:
        _require(_finite_number(params[key]) and predicate(params[key]), message)


def _check_count(params: dict, key: str, minimum: int) -> None:
    if key not in params:
        return
    value = params[key]
    valid = isinstance(value, int) and not isinstance(value, bool) and value >= minimum
    bound = "a nonnegative integer" if minimum == 0 else "a positive integer"
    _require(valid, f"parameters.{key}: must be {bound}")


_POSITIVE = ("delta", "c", "tol", "expected_tolerance")
# integer parameters with their smallest accepted value
_COUNTS = {
    "seed": 0,
    "restarts": 1,
    "samples": 1,
    "systems": 1,
    "functionals": 1,
    "sub_basis_samples": 0,
    "vectors": 1,
}
_CHOICES = {"quantity": QUANTITIES, "part": QUANTITIES, "method": METHOD_CHOICES}
# the names each runner reads, plus those opquant vectors reads from any
# config; README.md lists the same names.  invariance_case still accepts
# sub_basis_samples, which nothing reads: its certificate covers every
# sub-basis, so no sample count changes a report
_SHARED = frozenset({"seed", "schedule", "vectors", "witness", "epsilon", "c"})
_PARAMETERS = {
    "quantities": _SHARED | {"quantity", "method", "restarts", "expected", "expected_tolerance"},
    "construction_suite": _SHARED | {"systems"},
    "invariance_case": _SHARED | {"part", "delta", "sub_basis_samples"},
    "lemma_check": _SHARED | {"functionals", "samples", "tol"},
}


def _parse_parameters(raw, experiment: str) -> dict:
    _require(isinstance(raw, dict), "parameters: must be an object")
    for key in raw:
        _require(key in _PARAMETERS[experiment], f"parameters: unknown field {key!r}")
    params = dict(raw)
    _check_number(params, "epsilon", lambda v: 0.0 < v < 1.0, "parameters.epsilon: must lie in (0,1)")
    for key in _POSITIVE:
        _check_number(params, key, lambda v: v > 0.0, f"parameters.{key}: must be positive and finite")
    for key, minimum in _COUNTS.items():
        _check_count(params, key, minimum)
    for key, choices in _CHOICES.items():
        if key in params:
            _require(params[key] in choices, f"parameters.{key}: must be one of {', '.join(choices)}")
    if "schedule" in params:
        params["schedule"] = _parse_schedule(params["schedule"])
    elif experiment == "quantities":
        raise ConfigError("parameters.schedule: required for quantities")
    if "expected" in params:
        exp = params["expected"]
        ok = isinstance(exp, list) and all(map(_finite_number, exp))
        _require(ok, "parameters.expected: must be a list of finite numbers")
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


def _load_json(text: str, field: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{field}: invalid JSON ({exc})") from None


def parse_config(text: str) -> ExperimentConfig:
    """Validate a JSON experiment config, naming the offending field on error."""
    data = _load_json(text, "config")
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
    # every runner goes through l2 kernel projections and Gram solves
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
        return _dumps(self.to_dict())


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
    for i in range(params.get("systems", 3)):
        dim = 2 + i % 3
        M = sample_witness_subspace(np.random.default_rng([seed, i]), dim)
        system = build_biorthogonal(M, dim, space=config.space)
        ca = build_core_approximants(system, T, epsilon, c)
        certificates = certify_construction(ca)
        violations.extend(
            _violation(f"system[{i}].{name}", measured, bound, slack)
            for name, holds, measured, bound, slack in certificates
            if not holds
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
                "certified": {name: float(measured) for name, _, measured, _, _ in certificates},
            }
        )


def _witness(config: ExperimentConfig) -> Optional[Subspace]:
    """The subspace spanned by parameters.witness, or None without one."""
    if "witness" not in config.parameters:
        return None
    return Subspace(tuple(TailVector.from_dict(d) for d in config.parameters["witness"]), config.space)


def _run_invariance(config: ExperimentConfig, seed: int, results: list, violations: list) -> None:
    params = config.parameters
    T = config.build_operator()
    part = params.get("part", "Gamma")
    M = _witness(config)
    report = run_invariance_case(
        T,
        part,
        odd_coordinate_witness() if M is None else M,
        params.get("epsilon", 0.1),
        params.get("delta", 0.05),
    )
    results.append(report.to_dict())
    if not report.passed:
        violations.append(_violation(f"invariance_case.{part}", *report.margin))


def _run_lemma(config: ExperimentConfig, seed: int, results: list, violations: list) -> None:
    params = config.parameters
    count = params.get("functionals", 3)
    functionals = sample_lemma_functionals(np.random.default_rng(seed), count)
    report = check_dense_intersection(
        functionals, samples=params.get("samples", 100), tol=params.get("tol", 1e-8), seed=seed
    )
    # check_dense_intersection meets tol on every sample or raises, so a
    # lemma report always has passed: true and records no violation
    results.append({"kind": "lemma_check", **report})


_RUNNERS = {
    "quantities": _run_quantities,
    "construction_suite": _run_construction,
    "invariance_case": _run_invariance,
    "lemma_check": _run_lemma,
}


def _seed(config: ExperimentConfig, seed_override: Optional[int]) -> int:
    """The override (--seed or OPQUANT_SEED) if given, else parameters.seed, else 0."""
    return int(seed_override if seed_override is not None else config.parameters.get("seed", 0))


def run(config: ExperimentConfig, seed_override: Optional[int] = None) -> RunReport:
    """Execute one experiment; violations are collected, not fail-fast."""
    seed = _seed(config, seed_override)
    results: list = []
    violations: list = []
    _RUNNERS[config.experiment](config, seed, results, violations)
    return RunReport(__version__, seed, config, results, violations)


def emit_test_vectors(
    config: ExperimentConfig, out: str, seed_override: Optional[int] = None
) -> dict:
    """Write a deterministic (input, expected-output) bundle for regression tests."""
    seed = _seed(config, seed_override)
    params = config.parameters
    T = config.build_operator() if config.operator is not None else Diagonal(periodic_values=(1.0,))
    schedule = params.get("schedule") or [[4, 1, 2]]
    # each value is one order statistic of its window's spectrum, held one window at a time
    quantity_rows: list = [None] * len(schedule)
    for N in sorted({entry[0] for entry in schedule}):
        values = window_singular_values(T, N)
        for i, (n, k, K) in enumerate(schedule):
            if n == N:
                order = {q: float(values[_descending_index(q, N, k, K)]) for q in QUANTITIES}
                quantity_rows[i] = {"N": N, "k": k, "K": K, **order}
        del values

    M = _witness(config)
    dim = params.get("vectors", 3) if M is None else M.dim
    system = build_biorthogonal(M, dim, space=config.space)
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
    Path(out).write_text(_dumps(bundle), encoding="utf-8")
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


def _run_and_write(args: argparse.Namespace, config_text: str) -> int:
    """Parse and run a config; write its report to --out, output_path or stdout."""
    config = parse_config(config_text)
    report = run(config, _seed_override(args))
    text = report.to_json()
    target = args.out or config.output_path
    if target:
        Path(target).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return report.exit_code


def _cmd_run(args: argparse.Namespace) -> int:
    return _run_and_write(args, Path(args.config).read_text(encoding="utf-8"))


def _cmd_quantities(args: argparse.Namespace) -> int:
    quantity = QUANTITY_LETTERS.get(args.quantity, args.quantity)
    data = {
        "space": {"p": 2},
        "operator": _load_json(args.op, "operator"),
        "experiment": "quantities",
        "parameters": {
            "quantity": quantity,
            "schedule": _load_json(args.schedule, "parameters.schedule"),
            "method": args.method,
            "restarts": args.restarts,
        },
    }
    return _run_and_write(args, json.dumps(data))


def _cmd_verify(args: argparse.Namespace) -> int:
    data = {
        "space": {"p": 2},
        "operator": {"kind": "diagonal", "prefix": [], "periodic": [1.0, 2.0]},
        "experiment": "construction_suite",
        "parameters": {
            "epsilon": args.epsilon,
            "c": args.c,
            "systems": args.systems,
        },
    }
    return _run_and_write(args, json.dumps(data))


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
