"""Output checks: each returns the list of problems it found, empty if none.

The checks read the library's outputs as plain data (report dicts and
serialised vectors) and compare them with `reference`, or with an
inequality the construction must satisfy.  None compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import json

import numpy as np

import reference as ref

# an exact route may differ from the reference by rounding only
EXACT_TOL = 1e-9
# Gamma/Tau search results must reach the window value this closely
SEARCH_TOL = 1e-6
# relative agreement of norms recomputed from dense coordinates
NORM_RTOL = 1e-8
# the library's own pairing tolerance for biorthogonal systems
PAIRING_TOL = 1e-10
# slack the library allows on every concluding inequality
INEQUALITY_SLACK = 1e-9

# combinations per build recomputed densely
SAMPLED = 2

EXACT_METHODS = ("subset_oracle", "svd_oracle")
UPPER_SIDE = ("Gamma", "Nabla")  # a search result bounds these from above


def agree(value: float, expected: float, scale: float = 1.0, rtol: float = NORM_RTOL) -> bool:
    return abs(value - expected) <= rtol * max(abs(expected), scale)


def check_estimate(est: dict, expected: float) -> list[str]:
    """One QuantityEstimate dict against the reference window value."""
    label = f"{est['quantity']}(N={est['N']}, k={est['k']}, K={est['K']}) by {est['method']}"
    lo, hi = est["bracket"]
    value = est["value"]
    problems = []
    if not lo <= value <= hi:
        problems.append(f"{label}: value {value!r} outside its bracket [{lo!r}, {hi!r}]")
    if not lo - EXACT_TOL <= expected <= hi + EXACT_TOL:
        problems.append(f"{label}: bracket [{lo!r}, {hi!r}] excludes the window value {expected!r}")
    if est["method"] in EXACT_METHODS:
        if not agree(value, expected, rtol=EXACT_TOL):
            problems.append(f"{label}: exact value {value!r} differs from {expected!r}")
        return problems
    upper = est["quantity"] in UPPER_SIDE
    if (value < expected - EXACT_TOL) if upper else (value > expected + EXACT_TOL):
        side = "above" if upper else "below"
        problems.append(f"{label}: search value {value!r} not {side} the window value {expected!r}")
    if est["quantity"] in ("Gamma", "Tau") and abs(value - expected) > SEARCH_TOL:
        problems.append(f"{label}: search value {value!r} misses {expected!r} by more than {SEARCH_TOL}")
    return problems


def check_quantities_out(method: str, out: dict) -> list[str]:
    problems = [] if out["exit_code"] == 0 else [f"exit code {out['exit_code']}"]
    return problems + check_quantities_report(out["report"], method)


def check_report_text(check_report, out: tuple) -> list[str]:
    """A serialised report with its exit code, as `opquant run` emits it."""
    code, text = out
    problems = [] if code == 0 else [f"exit code {code}"]
    return problems + check_report(json.loads(text))


def check_quantities_report(report: dict, method: str) -> list[str]:
    """A `quantities` run report: every window, the limit entry, exit code 0."""
    problems = []
    if report["violations"]:
        problems.append(f"violations reported: {report['violations']}")
    params = report["config"]["parameters"]
    op = ref.Operator(report["config"]["operator"])
    quantity = params["quantity"]
    *estimates, limit = report["results"]
    if len(estimates) != len(params["schedule"]):
        return problems + [f"{len(estimates)} estimates for {len(params['schedule'])} windows"]
    for est, (N, k, K) in zip(estimates, params["schedule"]):
        if quantity in ("Gamma", "Tau"):
            K = k  # single-dimension quantities ignore the outer K
        if (est["quantity"], est["N"], est["k"], est["K"]) != (quantity, N, k, K):
            problems.append(f"estimate {est} does not match window {(N, k, K)}")
            continue
        if method != "auto" and est["method"] != method:
            problems.append(f"{quantity} at N={N} ran {est['method']}, asked for {method}")
        problems += check_estimate(est, ref.window_value(op, quantity, N, k, K))
    values = [e["value"] for e in estimates]
    tail = values[-3:]
    converged = len(values) >= 3 and max(tail) - min(tail) < 1e-6
    if limit != {"kind": "limit", "quantity": quantity, "value": values[-1], "converged": converged}:
        problems.append(f"limit entry {limit} does not summarise the estimates")
    return problems


def restricted_problems(
    op: ref.Operator, basis: list[np.ndarray], which: str, reported: float | None, label: str
) -> tuple[float, list[str]]:
    """Dense restricted norm ('norm') or minimum modulus ('min') on a span.

    Returns the dense value and, when a reported value is given, the
    problem that it disagrees with the dense one.
    """
    low, high = ref.restricted_extremes(op, basis)
    expected = high if which == "norm" else low
    if reported is None or agree(reported, expected, scale=high):
        return expected, []
    return expected, [f"{label}: reported {reported!r}, dense recomputation gives {expected!r}"]


def check_invariance_report(report: dict) -> list[str]:
    """An `invariance_case` report, with L's quantity recomputed densely."""
    if report["violations"]:
        return [f"violations reported: {report['violations']}"]
    case = report["results"][0]
    params = report["config"]["parameters"]
    op = ref.Operator(report["config"]["operator"])
    part, eps, delta = case["part"], case["epsilon"], case["delta"]
    measured = case["measured"]
    problems = []
    if not case["passed"]:
        problems.append(f"{part} case did not pass: {measured}")
    if part != params["part"]:
        problems.append(f"ran part {part}, config asked for {params['part']}")
    which = "norm" if part in ("Gamma", "Delta") else "min"
    witness = [ref.dense(v) for v in case["witness_M"]["basis"]]
    _, found = restricted_problems(op, witness, which, measured["witness_quantity"], "witness quantity")
    problems += found
    upper = part in ("Gamma", "Nabla")  # the conclusion bounds L's value from above
    factor = 1.0 + delta if upper else 1.0 - delta
    if not agree(case["c"], measured["witness_quantity"] * factor, rtol=1e-12):
        problems.append(f"c = {case['c']!r} is not the witness quantity times {factor}")
    grow = (1.0 + eps) / (1.0 - eps)
    threshold = case["c"] * (grow if upper else 1.0 / grow)
    if not agree(measured["threshold"], threshold, rtol=1e-12):
        problems.append(f"threshold {measured['threshold']!r}, expected {threshold!r}")
    L = case["constructed_L"]["basis"]
    if any(any(v["tail_coeffs"]) for v in L):
        problems.append("constructed L has a vector outside the core (nonzero tail)")
    reported = measured.get({"Gamma": "restricted_norm_L", "Tau": "restricted_min_modulus_L"}.get(part))
    value, found = restricted_problems(op, [ref.dense(v) for v in L], which, reported, f"{which} on L")
    problems += found
    # L is one of the sub-bases tested for Delta/Nabla, and its image span
    # (the witness span) always triggers the test, so all four parts bound it
    if (value > threshold + INEQUALITY_SLACK) if upper else (value < threshold - INEQUALITY_SLACK):
        problems.append(f"{part}: dense value {value!r} on L breaks the threshold {threshold!r}")
    return problems


def check_lemma_report(report: dict) -> list[str]:
    params = report["config"]["parameters"]
    result = report["results"][0]
    problems = []
    if report["violations"] or not result["passed"]:
        problems.append(f"lemma check failed: {result}")
    if result["max_distance"] > result["tolerance"] or result["tolerance"] != params["tol"]:
        problems.append(f"max distance {result['max_distance']!r} above tol {params['tol']!r}")
    if (result["samples"], result["functional_count"]) != (params["samples"], params["functionals"]):
        problems.append(f"lemma ran {result['samples']} samples on {result['functional_count']} functionals")
    return problems


def check_system(vectors: list[dict], functionals: list[dict]) -> list[str]:
    """Unit norms, unit self-pairings and triangular zero pairings."""
    m = [ref.dense(v) for v in vectors]
    f = [ref.dense(x["representer"]) for x in functionals]
    problems = []
    for n in range(len(m)):
        if abs(ref.l2(m[n]) - 1.0) > PAIRING_TOL or abs(ref.l2(f[n]) - 1.0) > PAIRING_TOL:
            problems.append(f"m_{n + 1} or x'_{n + 1} is not normalised")
        if abs(ref.dot(f[n], m[n]) - 1.0) > PAIRING_TOL:
            problems.append(f"x'_{n + 1}(m_{n + 1}) is not 1")
        for i in range(n):
            if abs(ref.dot(f[i], m[n])) > PAIRING_TOL:
                problems.append(f"x'_{i + 1} does not annihilate m_{n + 1}")
    return problems


def budget(n: int, epsilon: float, c: float, T_norm: float) -> float:
    """The step-n budget 2^(1-2n) eps min{1, c/||T||}, written out apart."""
    return 2.0 ** (1 - 2 * n) * epsilon * (1.0 if T_norm == 0.0 else min(1.0, c / T_norm))


def check_core(
    op: ref.Operator,
    m: list[dict],
    z: list[dict],
    functionals: list[dict],
    gaps: list[float],
    epsilon: float,
    c: float,
    T_norm: float,
) -> list[str]:
    """Realised gaps within budget, kernel membership, certified norm."""
    problems = []
    exact = op.norm()
    if T_norm < exact - 1e-12 * max(1.0, exact):
        problems.append(f"operator norm {T_norm!r} is below the exact {exact!r}")
    f = [ref.dense(x["representer"]) for x in functionals]
    for n, (mn, zn, gap) in enumerate(zip(m, z, gaps), start=1):
        zd = ref.dense(zn)
        if any(zn["tail_coeffs"]):
            problems.append(f"z_{n} is not finitely supported")
        if gap > budget(n, epsilon, c, T_norm):
            problems.append(f"gap {gap!r} of z_{n} exceeds its budget")
        if not agree(gap, ref.l2(ref.difference(zd, ref.dense(mn))), rtol=NORM_RTOL):
            problems.append(f"recorded gap {gap!r} of z_{n} disagrees with the dense distance")
        for i in range(n - 1):
            if abs(ref.dot(f[i], zd)) > PAIRING_TOL:
                problems.append(f"x'_{i + 1}(z_{n}) = {ref.dot(f[i], zd)!r} leaves the kernel")
    return problems


def check_construction(out: dict) -> list[str]:
    """One build and its combinations: the system, the approximants, every
    inequality, and a dense recomputation of the first SAMPLED combinations."""
    op = ref.Operator(out["operator"])
    m, f, z = out["m"], out["functionals"], out["z"]
    problems = check_system(m, f)
    problems += check_core(op, m, z, f, out["gaps"], out["epsilon"], out["c"], out["T_norm"])
    names = ("coefficient", "defect", "distortion", "transfer lower", "transfer upper")
    for j, (verdicts, near, transfer) in enumerate(out["combos"]):
        failed = [name for name, ok in zip(names, verdicts) if not ok]
        if failed:
            problems.append(f"combination {j}: {', '.join(failed)} bound fails")
        if j < SAMPLED:
            problems += check_combination(op, m, z, out["coeffs"][j], near, transfer)
    return problems


def check_combination(
    op: ref.Operator, m: list[dict], z: list[dict], coeffs, near: dict, transfer: dict
) -> list[str]:
    """||z - Az||, ||z||, ||Az|| and ||Tz|| recomputed from dense coordinates."""
    zs = ref.columns([ref.dense(v) for v in z]) @ np.asarray(coeffs)
    azs = ref.columns([ref.dense(v) for v in m]) @ np.asarray(coeffs)
    scale = ref.l2(azs)
    expected = {
        "gap": ref.l2(ref.difference(zs, azs)),
        "z_norm": ref.l2(zs),
        "az_norm": scale,
        "Tz_norm": ref.l2(op.apply(zs)),
    }
    measured = {**near, "Tz_norm": transfer["z_ratio"] * near["z_norm"]}
    return [
        f"{key}: library {measured[key]!r}, dense {value!r}"
        for key, value in expected.items()
        if not agree(measured[key], value, scale=scale)
    ]
