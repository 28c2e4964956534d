"""The checks accept correct outputs and reject wrong ones."""

import copy
import json

import numpy as np

import checks
import reference as ref
from opquant import cli

SHIFT = {"kind": "shift", "periodic": [1.0, 0.5]}


def quantities_report(operator, quantity, method, schedule):
    config = {
        "space": {"p": 2},
        "operator": operator,
        "experiment": "quantities",
        "parameters": {"quantity": quantity, "schedule": schedule, "method": method, "restarts": 8},
    }
    return cli.run(cli.parse_config(json.dumps(config))).to_dict()


def test_exact_estimate_moved_by_1e6_is_rejected():
    report = quantities_report({"kind": "diagonal", "periodic": [2.0, 1.0]}, "Delta", "auto", [[8, 2, 4], [10, 2, 5]])
    assert checks.check_quantities_report(report, "auto") == []
    moved = copy.deepcopy(report)
    est = moved["results"][1]
    est["value"] += 1e-6
    est["bracket"] = [est["value"], est["value"]]
    problems = checks.check_quantities_report(moved, "auto")
    assert any("exact value" in p for p in problems), problems


def test_bracket_excluding_the_reference_is_rejected():
    report = quantities_report(SHIFT, "Tau", "grassmann_search", [[6, 2, 2]])
    assert checks.check_quantities_report(report, "grassmann_search") == []
    est = report["results"][0]
    est["bracket"] = [est["value"], est["value"]]  # claims to be exact
    est["value"] = est["bracket"][0]
    assert checks.check_quantities_report(report, "grassmann_search") == []
    est["value"] -= 1e-3
    est["bracket"] = [est["value"], est["value"] + 5e-4]
    problems = checks.check_quantities_report(report, "grassmann_search")
    assert any("excludes" in p for p in problems), problems


def test_search_value_on_the_wrong_side_is_rejected():
    est = {"quantity": "Gamma", "N": 6, "k": 1, "K": 1, "method": "grassmann_search", "value": 0.4, "bracket": [0.0, 0.6]}
    problems = checks.check_estimate(est, 0.5)
    assert any("not above" in p for p in problems), problems


def test_restricted_norm_from_square_compression_is_rejected():
    op = ref.Operator(SHIFT)
    L = [np.eye(6)[5]]  # e_6, whose image 0.5 e_7 lies past the 6-window
    full_image = op.window_matrix(6) @ L[0]
    square = full_image[:6]  # the compression drops the spill row
    assert checks.restricted_problems(op, L, "norm", float(np.linalg.norm(full_image)), "L")[1] == []
    value, problems = checks.restricted_problems(op, L, "norm", float(np.linalg.norm(square)), "L")
    assert value == 0.5 and problems


def test_invariance_report_passes_and_detects_a_wrong_value():
    config = {
        "space": {"p": 2},
        "operator": SHIFT,
        "experiment": "invariance_case",
        "parameters": {"part": "Gamma", "epsilon": 0.1, "delta": 0.05, "sub_basis_samples": 2},
    }
    report = cli.run(cli.parse_config(json.dumps(config))).to_dict()
    assert checks.check_invariance_report(report) == []
    report["results"][0]["measured"]["restricted_norm_L"] *= 1.0 + 1e-6
    assert checks.check_invariance_report(report)
