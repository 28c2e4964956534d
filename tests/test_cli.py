"""Tests for config parsing, the experiment runner, and the command line."""

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opquant
from opquant import construction
from opquant.cli import (
    _PARAMETERS,
    ExperimentConfig,
    _dumps,
    emit_test_vectors,
    parse_config,
    run,
    serialize_config,
)
from opquant.construction import (
    build_biorthogonal,
    build_core_approximants,
    certify_construction,
    run_invariance_case,
)
from opquant.errors import ConfigError
from opquant.quantities import QUANTITIES, limit_estimate
from opquant.sampling import odd_coordinate_witness, sample_witness_subspace

MINIMAL = {
    "space": {"p": 2},
    "operator": {"kind": "diagonal", "prefix": [], "periodic": [1, 2]},
    "experiment": "quantities",
    "parameters": {"quantity": "Gamma", "schedule": [[8, 2, 2], [12, 3, 3]]},
}

IDENTITY = {
    "space": {"p": 2},
    "operator": {"kind": "diagonal", "periodic": [1.0]},
    "experiment": "quantities",
    "parameters": {"quantity": "Tau", "schedule": [[4, 1, 1], [8, 2, 2], [12, 3, 3]]},
}


def parse(data):
    return parse_config(json.dumps(data))


def with_params(base, **extra):
    return {**base, "parameters": {**base["parameters"], **extra}}


class TestParseConfig:
    def test_minimal_schema_example(self):
        config = parse(MINIMAL)
        assert config.experiment == "quantities"
        assert config.space.p == 2
        assert config.parameters["schedule"] == [[8, 2, 2], [12, 3, 3]]
        assert config.build_operator().entries(4).tolist() == [1.0, 2.0, 1.0, 2.0]

    def test_round_trip(self):
        configs = [
            MINIMAL,
            IDENTITY,
            {
                "space": {"p": 2},
                "experiment": "lemma_check",
                "parameters": {"functionals": 2, "samples": 30, "tol": 1e-8},
            },
            {
                "space": {"p": 2},
                "operator": {"kind": "shift", "periodic": [1.0, 0.5]},
                "experiment": "invariance_case",
                "parameters": {
                    "part": "Tau",
                    "epsilon": 0.1,
                    "delta": 0.05,
                    "witness": [{"prefix": [1.0], "tail_coeffs": [0.5], "tail_ratio": 0.5}],
                },
                "output_path": "report.json",
            },
        ]
        for data in configs:
            config = parse(data)
            assert parse_config(serialize_config(config)) == config

    def test_epsilon_range(self):
        with pytest.raises(ConfigError, match=r"^parameters\.epsilon: must lie in \(0,1\)$"):
            parse(with_params(MINIMAL, epsilon=1.5))

    def test_schedule_order(self):
        bad = with_params(MINIMAL, schedule=[[8, 3, 2]])
        with pytest.raises(ConfigError) as err:
            parse(bad)
        assert str(err.value) == "parameters.schedule[0]: k ≤ K required"

    def test_schedule_window(self):
        with pytest.raises(ConfigError, match=r"schedule\[1\]: K ≤ N required"):
            parse(with_params(MINIMAL, schedule=[[8, 2, 2], [4, 3, 6]]))
        with pytest.raises(ConfigError, match=r"schedule\[0\]: k ≥ 1 required"):
            parse(with_params(MINIMAL, schedule=[[8, 0, 2]]))
        with pytest.raises(ConfigError, match=r"expected \[N, k, K\] integers"):
            parse(with_params(MINIMAL, schedule=[[8, 2]]))
        with pytest.raises(ConfigError, match="required for quantities"):
            parse({**MINIMAL, "parameters": {"quantity": "Gamma"}})

    def test_field_diagnostics(self):
        cases = [
            ({"experiment": "nope"}, "experiment: must be one of"),
            ({**MINIMAL, "extra": 1}, "config: unknown field 'extra'"),
            ({**MINIMAL, "space": {"p": 3}}, "space.p: must be one of 1, 2, inf"),
            ({**MINIMAL, "space": {"p": 1}}, "space.p: quantities requires p = 2"),
            ({**MINIMAL, "operator": None}, "operator: required for quantities"),
            ({**MINIMAL, "operator": {"kind": "mystery"}}, "operator: unknown operator kind"),
            (with_params(MINIMAL, c=0.0), "parameters.c: must be positive"),
            (
                {**MINIMAL, "experiment": "invariance_case", "parameters": {"delta": -1.0}},
                "parameters.delta: must be positive",
            ),
            (with_params(MINIMAL, seed=-2), "parameters.seed: must be a nonnegative integer"),
            (with_params(MINIMAL, quantity="Sigma"), "parameters.quantity: must be one of"),
            (with_params(MINIMAL, method="magic"), "parameters.method: must be one of"),
            (with_params(MINIMAL, epsillon=0.5), "parameters: unknown field 'epsillon'"),
            (with_params(MINIMAL, expected=[1.0]), "length must match schedule"),
            ({**MINIMAL, "output_path": 7}, "output_path: must be a string"),
        ]
        for data, fragment in cases:
            with pytest.raises(ConfigError, match=fragment):
                parse(data)

    def test_non_finite_parameters_rejected(self):
        for value in (float("nan"), float("inf"), 10**400):
            with pytest.raises(ConfigError, match=r"^parameters\.expected: must be a list of finite numbers$"):
                parse(with_params(MINIMAL, expected=[1.0, value]))
        # an int too large for a float used to pass and overflow in the build
        with pytest.raises(ConfigError, match=r"^parameters\.c: must be positive and finite$"):
            parse({**MINIMAL, "experiment": "construction_suite", "parameters": {"c": 10**400}})

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")
        with pytest.raises(ConfigError, match="must be a JSON object"):
            parse_config("[1, 2]")

    def test_bad_witness_entry(self):
        bad = {
            **MINIMAL,
            "experiment": "invariance_case",
            "parameters": {
                "part": "Gamma",
                "witness": [{"prefix": [1.0], "tail_coeffs": [1.0], "tail_ratio": 2.0}],
            },
        }
        with pytest.raises(ConfigError, match=r"parameters\.witness\[0\]"):
            parse(bad)


class TestRun:
    def test_identity_all_ones(self):
        report = run(parse(IDENTITY))
        assert report.exit_code == 0
        assert report.violations == []
        points = report.results[:-1]
        assert all(r["value"] == 1.0 for r in points)
        assert report.results[-1] == {
            "kind": "limit",
            "quantity": "Tau",
            "value": 1.0,
            "converged": True,
        }

    def test_expected_mismatch_is_violation(self):
        report = run(parse(with_params(IDENTITY, expected=[1.0, 1.0, 0.5])))
        assert report.exit_code == 1
        (violation,) = report.violations
        assert violation["name"] == "Tau[2] expected value"
        assert violation["slack"] < 0

    def test_invariance_case(self):
        data = {
            "space": {"p": 2},
            "operator": {"kind": "diagonal", "periodic": [2.0, 1.0]},
            "experiment": "invariance_case",
            "parameters": {"part": "Gamma", "epsilon": 0.05, "delta": 0.05},
        }
        report = run(parse(data))
        assert report.exit_code == 0
        assert report.results[0]["passed"] is True
        assert report.results[0]["part"] == "Gamma"

    def test_construction_suite(self):
        data = {
            "space": {"p": 2},
            "operator": {"kind": "diagonal", "periodic": [1.0, 2.0]},
            "experiment": "construction_suite",
            "parameters": {"epsilon": 0.1, "c": 1.0, "systems": 2},
        }
        report = run(parse(data))
        assert report.exit_code == 0
        assert [r["dim"] for r in report.results] == [2, 3]
        for result in report.results:
            assert list(result["certified"]) == CERTIFICATES
            assert 0.0 < result["certified"]["defect"] < 0.1

    def test_lemma_check(self):
        data = {
            "space": {"p": 2},
            "experiment": "lemma_check",
            "parameters": {"functionals": 2, "samples": 30, "tol": 1e-8},
        }
        report = run(parse(data))
        assert report.exit_code == 0
        assert report.results[0]["max_distance"] <= 1e-8

    def test_seed_override_and_stamp(self):
        config = parse(with_params(IDENTITY, seed=5))
        assert run(config).seed == 5
        assert run(config, seed_override=11).seed == 11

    def test_deterministic_report(self):
        data = {
            "space": {"p": 2},
            "operator": {"kind": "dense", "block": [[1.0, 0.2], [0.0, 0.5]]},
            "experiment": "quantities",
            "parameters": {"quantity": "Nabla", "schedule": [[2, 1, 2]], "method": "grassmann_search"},
        }
        config = parse(data)
        assert run(config).to_json() == run(config).to_json()


CERTIFICATES = ["coefficient_bound", "defect", "distortion_lower", "distortion_upper", "transfer"]
ROOT = Path(__file__).resolve().parents[1]


def test_readme_lists_every_parameter():
    """The names every experiment accepts, then one line per experiment."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    bullet = re.search(r"^- `parameters` (.*?)\n(?=- |\n)", readme, re.M | re.S).group(1)
    shared, *rows = bullet.split("\n  - ")

    def names(text):
        return set(re.findall(r"`([a-z_]+)[`\s]", text))

    listed = {}
    for row in rows:
        experiment, rest = re.match(r"`([a-z_]+)`: (.*)", row, re.S).groups()
        listed[experiment] = names(shared) | names(rest)
    assert listed == _PARAMETERS


def test_pyproject_version_matches_the_package():
    # a regex, since tomllib arrived only in Python 3.11
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]*)"$', project, re.M).group(1) == opquant.__version__


ALTERNATING = {"kind": "diagonal", "periodic": [1.0, 2.0]}
SHIFT = {"kind": "shift", "prefix": [0.7, 1.3], "periodic": [1.0, 0.5]}


def violation(name, measured, bound, slack):
    return {"name": name, "measured": measured, "bound": bound, "slack": slack}


class TestViolationLists:
    """With INEQUALITY_SLACK = -1 every inequality fails, so each report
    must list every check, in order, against the checks called directly."""

    @pytest.mark.parametrize("operator", [ALTERNATING, SHIFT])
    def test_construction_suite(self, operator, monkeypatch):
        monkeypatch.setattr(construction, "INEQUALITY_SLACK", -1.0)
        seed, epsilon, c = 4, 0.1, 1.0
        config = parse(
            {
                "operator": operator,
                "experiment": "construction_suite",
                "parameters": {"epsilon": epsilon, "c": c, "systems": 3, "seed": seed},
            }
        )
        T = config.build_operator()
        expected = []
        for i in range(3):
            dim = 2 + i % 3
            M = sample_witness_subspace(np.random.default_rng([seed, i]), dim)
            ca = build_core_approximants(build_biorthogonal(M, dim), T, epsilon, c)
            certificates = certify_construction(ca)
            assert [name for name, *_ in certificates] == CERTIFICATES
            expected += [
                violation(f"system[{i}].{name}", measured, bound, slack)
                for name, holds, measured, bound, slack in certificates
                if not holds
            ]
        assert len(expected) == 15
        report = run(config)
        assert report.exit_code == 1
        assert report.violations == expected

    @pytest.mark.parametrize("operator", [ALTERNATING, SHIFT])
    @pytest.mark.parametrize("part", QUANTITIES)
    def test_invariance_case(self, operator, part, monkeypatch):
        monkeypatch.setattr(construction, "INEQUALITY_SLACK", -1.0)
        config = parse(
            {"operator": operator, "experiment": "invariance_case", "parameters": {"part": part, "seed": 2}}
        )
        case = run_invariance_case(config.build_operator(), part, odd_coordinate_witness(), 0.1, 0.05)
        assert not case.passed
        measured = case.measured
        threshold = measured["threshold"]
        if part == "Gamma":
            value = measured["restricted_norm_L"]
            expected = violation("invariance_case.Gamma", value, threshold, threshold - value)
        elif part == "Tau":
            value = measured["restricted_min_modulus_L"]
            expected = violation("invariance_case.Tau", value, threshold, value - threshold)
        else:
            margin = measured["certified_margin"]
            expected = violation(f"invariance_case.{part}", margin, threshold, margin)
        report = run(config)
        assert report.results == [case.to_dict()]
        assert report.violations == [expected]


class TestVectors:
    def test_identity_ratios(self, tmp_path):
        out = tmp_path / "vectors.json"
        bundle = emit_test_vectors(parse(IDENTITY), str(out))
        assert bundle["core"]["ratios"] == [1.0, 1.0, 1.0]
        assert bundle["core"]["budgets"] == [0.0, 0.0, 0.0]
        for row in bundle["quantities"]:
            assert {row["Gamma"], row["Tau"], row["Delta"], row["Nabla"]} == {1.0}
        # Tau on (N, k, k) reads the k-th largest singular value, so these
        # rows read every singular value of each window
        every = [[N, k, k] for N in (4, 8, 12) for k in range(1, N + 1)]
        bundle = emit_test_vectors(parse(with_params(IDENTITY, schedule=every)), str(out))
        assert [row["Tau"] for row in bundle["quantities"]] == [1.0] * len(every)

    def test_diagonal_window_sigma(self, tmp_path):
        data = {
            "space": {"p": 2},
            "operator": {"kind": "diagonal", "prefix": [1, 2, 3, 4], "periodic": [0.0]},
            "experiment": "quantities",
            "parameters": {"quantity": "Gamma", "schedule": [[4, k, k] for k in range(1, 5)]},
        }
        bundle = emit_test_vectors(parse(data), str(tmp_path / "v.json"))
        assert [row["Tau"] for row in bundle["quantities"]] == [4.0, 3.0, 2.0, 1.0]

    def test_shift_window_sigma(self, tmp_path):
        data = {
            "space": {"p": 2},
            "operator": {"kind": "shift", "periodic": [1.0, 0.5]},
            "experiment": "quantities",
            "parameters": {"quantity": "Gamma", "schedule": [[6, k, k] for k in range(1, 7)]},
        }
        bundle = emit_test_vectors(parse(data), str(tmp_path / "v.json"))
        assert [row["Tau"] for row in bundle["quantities"]] == [1.0, 1.0, 1.0, 0.5, 0.5, 0.5]
        assert bundle["quantities"][0]["Gamma"] == 0.5

    def test_rows_only(self, tmp_path):
        # a bundle writes each row's four values and no window spectrum
        schedule = [[2**16 + 1, 1, 2], [2**16, 1, 1], [2**16 + 1, 2, 3]]
        out = tmp_path / "v.json"
        bundle = emit_test_vectors(parse(with_params(MINIMAL, schedule=schedule)), str(out))
        assert "singular_values" not in bundle
        assert [[row["N"], row["k"], row["K"]] for row in bundle["quantities"]] == schedule
        assert [row["Tau"] for row in bundle["quantities"]] == [2.0, 2.0, 2.0]
        assert [row["Gamma"] for row in bundle["quantities"]] == [1.0, 1.0, 1.0]
        assert out.stat().st_size < 10_000

    @pytest.mark.parametrize(
        "operator, schedule",
        [
            # windows of 2 and 3 lie below the 4 x 4 block, 6 and 9 above it
            (
                {"kind": "dense", "block": [[1.0, 0.2, -0.4, 0.0], [0.3, -0.5, 0.1, 0.7], [0.0, 0.6, 0.2, -0.1], [0.8, 0.0, -0.3, 0.4]]},
                [[2, 1, 1], [3, 1, 2], [6, 2, 4], [9, 3, 5]],
            ),
            ({"kind": "shift", "prefix": [0.7, 1.3], "periodic": [1.0, 0.5]}, [[4, 1, 2], [6, 2, 3], [9, 2, 7]]),
        ],
    )
    def test_quantity_rows_match_limit_estimate(self, tmp_path, operator, schedule):
        data = {
            "space": {"p": 2},
            "operator": operator,
            "experiment": "quantities",
            "parameters": {"quantity": "Gamma", "schedule": schedule},
        }
        config = parse(data)
        bundle = emit_test_vectors(config, str(tmp_path / "v.json"))
        T = config.build_operator()
        assert [[row["N"], row["k"], row["K"]] for row in bundle["quantities"]] == schedule
        for row in bundle["quantities"]:
            for quantity in QUANTITIES:
                _, value, _ = limit_estimate(T, quantity, [(row["N"], row["k"], row["K"])], method="svd_oracle")
                assert row[quantity] == value, (row, quantity)

    def test_byte_identical(self, tmp_path):
        config = parse(MINIMAL)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_test_vectors(config, str(a))
        emit_test_vectors(config, str(b))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes()


def indent_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(10**40)]),
    FLOATS,
    st.sampled_from([-0.0, 5e-324, float("nan"), float("inf"), float("-inf")]),
    FLOATS.map(np.float64),
    st.text(),
    st.text(alphabet='"\\/\n\t\x00\x1f\x7féü☃\U0001d11e a'),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.lists(SCALARS),
        st.dictionaries(st.text(), children),
    ),
    max_leaves=25,
)

INVARIANCE_99 = {
    "space": {"p": 2},
    "operator": {"kind": "diagonal", "periodic": [2.0, 1.0]},
    "experiment": "invariance_case",
    "parameters": {
        "part": "Delta",
        "epsilon": 0.1,
        "witness": [v.to_dict() for v in odd_coordinate_witness(3, 0.99).basis],
    },
}


@pytest.fixture(scope="module")
def long_tail_report():
    return run(parse(INVARIANCE_99))


class TestReportBytes:
    @settings(max_examples=300)
    @given(JSON_VALUES)
    def test_matches_indent_dumps(self, obj):
        assert _dumps(obj) == indent_dumps(obj)

    def test_every_experiment_kind(self, long_tail_report):
        configs = [
            MINIMAL,
            {
                "space": {"p": 2},
                "operator": {"kind": "dense", "block": [[1.0, 0.2], [0.0, 0.5]]},
                "experiment": "construction_suite",
                "parameters": {"epsilon": 0.1, "c": 1.0, "systems": 2},
            },
            {
                "space": {"p": 2},
                "experiment": "lemma_check",
                "parameters": {"functionals": 2, "samples": 20, "tol": 1e-8},
            },
        ]
        reports = [run(parse(data)) for data in configs] + [long_tail_report]
        assert [r.config.experiment for r in reports] == [
            "quantities",
            "construction_suite",
            "lemma_check",
            "invariance_case",
        ]
        for report in reports:
            assert report.to_json() == indent_dumps(report.to_dict())
        assert len(long_tail_report.results[0]["constructed_L"]["basis"][0]["prefix"]) > 300

    def test_config_and_vectors(self, tmp_path):
        config = parse(INVARIANCE_99)
        assert serialize_config(config) == indent_dumps(config.to_dict())
        out = tmp_path / "bundle.json"
        bundle = emit_test_vectors(config, str(out))
        assert out.read_text(encoding="utf-8") == indent_dumps(bundle)

    def test_never_uses_the_python_encoder(self, long_tail_report, monkeypatch):
        # json builds this only when indent is set, and then encodes in Python
        def refuse(*args, **kwargs):
            raise AssertionError("pure-Python JSON encoder used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError):
            json.dumps([1.0], indent=2)
        assert long_tail_report.to_json()


def cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("OPQUANT_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "opquant", *args], capture_output=True, text=True, env=env
    )


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(IDENTITY))
    return str(path)


class TestCommandLine:
    def test_run_exit_zero_and_identical(self, config_file):
        first = cli("run", "--config", config_file)
        second = cli("run", "--config", config_file)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["violations"] == []

    def test_run_exit_one_on_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(with_params(IDENTITY, expected=[1.0, 1.0, 0.5])))
        result = cli("run", "--config", str(path))
        assert result.returncode == 1
        assert json.loads(result.stdout)["violations"]

    def test_run_exit_two_on_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": "nope"}')
        result = cli("run", "--config", str(path))
        assert result.returncode == 2
        assert "experiment" in result.stderr
        missing = cli("run", "--config", str(tmp_path / "absent.json"))
        assert missing.returncode == 2

    def test_run_exit_two_on_window_cap(self, tmp_path):
        witness = [{"prefix": [], "tail_coeffs": [1.0], "tail_ratio": 1.0 - 1e-9}]
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(with_params(INVARIANCE_99, part="Gamma", witness=witness)))
        result = cli("run", "--config", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: step 1 needs a window of")

    def test_quantities_exit_two_on_window_cap(self):
        # the spectrum is closed-form, so N = 100000 runs; the cap is on N itself
        shift = '{"kind": "shift", "periodic": [1.0, 0.5]}'
        result = cli("quantities", "--op", shift, "--quantity", "G", "--schedule", "[[100000, 1, 1]]")
        assert result.returncode == 0
        assert json.loads(result.stdout)["results"][0]["value"] == 0.5
        result = cli("quantities", "--op", shift, "--quantity", "G", "--schedule", "[[16777217, 1, 1]]")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: window N=16777217 is above the cap of 16777216")

    def test_quantities_exit_two_on_a_huge_diagonal_window(self):
        # numpy used to be asked for 10^12 weights and died with exit 1
        diagonal = '{"kind": "diagonal", "periodic": [2.0, 1.0]}'
        result = cli("quantities", "--op", diagonal, "--quantity", "G", "--schedule", "[[1000000000000, 1, 1]]")
        assert result.returncode == 2
        assert result.stderr.startswith("error: window N=1000000000000 is above the cap")

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["quantities", "--op", '{"kind": "diagonal", "periodic": [NaN]}', "--quantity", "G", "--schedule", "[[4, 1, 1]]"],
                "config error: operator: Diagonal weights must be finite",
            ),
            (
                ["quantities", "--op", '{"kind": "shift", "periodic": [1e400]}', "--quantity", "G", "--schedule", "[[4, 1, 1]]"],
                "config error: operator: WeightedShift weights must be finite",
            ),
            (["run", "--config", "NAN_SUITE"], "config error: operator: Diagonal weights must be finite"),
            (
                ["verify", "--suite", "construction", "--epsilon", "0.1", "--c", "1e400"],
                "config error: parameters.c: must be positive and finite",
            ),
        ],
        ids=["nan-diagonal", "infinite-shift", "nan-suite", "infinite-c"],
    )
    def test_non_finite_numbers_exit_two(self, tmp_path, args, message):
        # json.loads reads NaN, and 1e400 as inf
        suite = {"operator": {"kind": "diagonal", "periodic": [float("nan")]}, "experiment": "construction_suite"}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(suite))
        result = cli(*[str(path) if a == "NAN_SUITE" else a for a in args])
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == message + "\n"

    def test_run_exit_zero_on_a_dimension_eleven_witness(self, tmp_path):
        # 2^11 - 1 coordinate sub-bases, which no Delta/Nabla case enumerates
        witness = [v.to_dict() for v in odd_coordinate_witness(11, 0.5, anchor=22).basis]
        for part in ("Delta", "Nabla"):
            path = tmp_path / f"{part}.json"
            path.write_text(json.dumps(with_params(INVARIANCE_99, part=part, witness=witness)))
            result = cli("run", "--config", str(path))
            assert (result.returncode, result.stderr) == (0, ""), part
            (case,) = json.loads(result.stdout)["results"]
            assert case["passed"] and len(case["constructed_L"]["basis"]) == 11
            assert case["measured"]["certified_margin"] > 0.0

    def test_run_exit_two_on_a_rounding_level_modulus(self, tmp_path):
        # a rank-3 block on a dimension-4 witness: the minimal modulus is 0,
        # read as 7.4e-9 against a norm of 1.04
        witness = [v.to_dict() for v in sample_witness_subspace(np.random.default_rng(2), 4).basis]
        operator = {"kind": "dense", "block": [[1.0, 0.2, -0.4], [0.3, -0.5, 0.1], [0.0, 0.6, 0.2]]}
        parameters = {"part": "Nabla", "epsilon": 0.3, "delta": 0.01, "witness": witness}
        path = tmp_path / "rounding.json"
        path.write_text(json.dumps({**INVARIANCE_99, "operator": operator, "parameters": parameters}))
        result = cli("run", "--config", str(path))
        assert (result.returncode, result.stdout) == (2, "")
        assert "fails the rank rule" in result.stderr

    def test_run_exit_two_on_the_common_period_cap(self, tmp_path):
        # five witness tails of prime periods 101 .. 113 would need one
        # common period of 1.4e10 coordinates
        witness = [
            {"prefix": [0.0] * i + [1.0], "tail_coeffs": [k % 7 + 1.0 for k in range(p)], "tail_ratio": 0.5}
            for i, p in enumerate((101, 103, 107, 109, 113))
        ]
        path = tmp_path / "periods.json"
        path.write_text(json.dumps(with_params(INVARIANCE_99, part="Gamma", delta=0.1, witness=witness)))
        result = cli("run", "--config", str(path))
        assert (result.returncode, result.stdout) == (2, "")
        assert "need a common period of 13710311357, above the cap of 1048576" in result.stderr

    def test_run_exit_zero_on_large_coefficients_over_tiny_ratios(self, tmp_path):
        # c = 1e200 on r = 1e-200: every coordinate c r^t is in range, though
        # c^2 overflows and r^2 underflows
        witness = [
            {"prefix": [1.0], "tail_coeffs": [0.0, 1e200], "tail_ratio": 1e-200},
            {"prefix": [0.0, 1.0], "tail_coeffs": [0.0, 3e200], "tail_ratio": 1e-200},
        ]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(with_params(INVARIANCE_99, part="Gamma", delta=0.1, witness=witness)))
        result = cli("run", "--config", str(path))
        assert (result.returncode, result.stderr) == (0, "")
        (case,) = json.loads(result.stdout)["results"]
        assert case["passed"]
        assert case["measured"]["witness_quantity"] == pytest.approx(2.0, abs=1e-12)

    def test_sub_basis_samples_changes_no_report_byte(self, tmp_path):
        # accepted and ignored: the certificate covers every sub-basis
        outputs = []
        for extra in ({}, {"sub_basis_samples": 7}):
            path = tmp_path / f"case{len(outputs)}.json"
            path.write_text(json.dumps(with_params(INVARIANCE_99, **extra)))
            result = cli("run", "--config", str(path))
            assert result.returncode == 0
            outputs.append(result.stdout)
        report = json.loads(outputs[1])
        assert report["config"]["parameters"].pop("sub_basis_samples") == 7
        assert _dumps(report) == outputs[0]

    def test_run_exit_two_on_unknown_parameter(self, tmp_path):
        data = {
            "operator": {"kind": "diagonal", "periodic": [1.0, 2.0]},
            "experiment": "construction_suite",
            "parameters": {"epsillon": 0.5, "systems": 1, "combos": 5},
        }
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(data))
        result = cli("run", "--config", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "config error: parameters: unknown field 'epsillon'\n"

    @pytest.mark.parametrize(
        "parameters, name",
        [
            ({"epsilon": 0.1, "systems": 1, "combos": 5}, "combos"),
            # knobs of lemma_check and quantities given to a construction suite
            ({"samples": 5, "functionals": 2, "schedule": [[4, 1, 1]]}, "samples"),
        ],
    )
    def test_run_exit_two_on_foreign_parameter(self, tmp_path, parameters, name):
        data = {
            "operator": {"kind": "diagonal", "periodic": [1.0, 2.0]},
            "experiment": "construction_suite",
            "parameters": parameters,
        }
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps(data))
        result = cli("run", "--config", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"config error: parameters: unknown field {name!r}\n"

    def test_run_exit_two_on_functional_cap(self, tmp_path):
        path = tmp_path / "many.json"
        path.write_text(json.dumps({"experiment": "lemma_check", "parameters": {"functionals": 20000}}))
        result = cli("run", "--config", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: 20000 lemma functionals requested; at most 6")

    def test_vectors_exit_two_on_ambient_cap(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(with_params(IDENTITY, vectors=20000)))
        out = tmp_path / "bundle.json"
        result = cli("vectors", "--config", str(path), "--out", str(out))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ambient system of 20000 vectors, above the cap of 64")
        assert not out.exists()

    def test_quantities_letter_aliases(self):
        result = cli(
            "quantities",
            "--op", '{"kind": "diagonal", "periodic": [2.0, 1.0]}',
            "--quantity", "T",
            "--schedule", "[[8, 2, 2], [12, 3, 3]]",
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["results"][0]["quantity"] == "Tau"
        assert report["results"][0]["value"] == 2.0

    def test_quantities_has_no_space_flag(self, tmp_path):
        """Every experiment runs on p = 2, so quantities builds that config and takes no --space."""
        op, schedule = '{"kind":"diagonal","periodic":[2.0,1.0]}', "[[8,2,2],[12,3,3]]"
        refused = cli("quantities", "--op", op, "--quantity", "T", "--schedule", schedule, "--space", "2")
        assert refused.returncode == 2
        assert refused.stdout == ""
        assert refused.stderr.endswith("error: unrecognized arguments: --space 2\n")
        path = tmp_path / "quantities.json"
        path.write_text(json.dumps({
            "space": {"p": 2},
            "operator": json.loads(op),
            "experiment": "quantities",
            "parameters": {"quantity": "Tau", "schedule": json.loads(schedule), "method": "auto", "restarts": 64},
        }))
        readme = cli("quantities", "--op", op, "--quantity", "T", "--schedule", schedule)
        assert readme.returncode == 0
        assert readme.stdout == cli("run", "--config", str(path)).stdout

    def test_verify_construction(self):
        result = cli(
            "verify", "--suite", "construction",
            "--epsilon", "0.2", "--c", "1.0", "--systems", "1",
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["violations"] == []

    def test_verify_exit_two_on_combos(self):
        result = cli(
            "verify", "--suite", "construction",
            "--epsilon", "0.2", "--c", "1.0", "--systems", "1", "--combos", "10",
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.endswith("error: unrecognized arguments: --combos 10\n")

    def test_seed_precedence(self, tmp_path):
        data = with_params(IDENTITY, seed=3)
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(data))
        from_config = cli("run", "--config", str(path))
        from_env = cli("run", "--config", str(path), env_extra={"OPQUANT_SEED": "9"})
        from_flag = cli("run", "--config", str(path), "--seed", "4", env_extra={"OPQUANT_SEED": "9"})
        seeds = [json.loads(r.stdout)["seed"] for r in (from_config, from_env, from_flag)]
        assert seeds == [3, 9, 4]

    def test_bad_env_seed(self, config_file):
        result = cli("run", "--config", config_file, env_extra={"OPQUANT_SEED": "zebra"})
        assert result.returncode == 2
        assert "OPQUANT_SEED" in result.stderr

    def test_vectors_file_identical(self, config_file, tmp_path):
        out = tmp_path / "bundle.json"
        assert cli("vectors", "--config", config_file, "--out", str(out)).returncode == 0
        first = out.read_bytes()
        assert cli("vectors", "--config", config_file, "--out", str(out)).returncode == 0
        assert out.read_bytes() == first

    def test_report_written_to_out(self, config_file, tmp_path):
        out = tmp_path / "report.json"
        result = cli("run", "--config", config_file, "--out", str(out))
        assert result.returncode == 0
        assert result.stdout == ""
        assert json.loads(out.read_text())["results"]


def capped_cli(*args, limit=2 << 30):
    """cli(), in a child under an address-space limit and one BLAS thread, as bench/run.py runs."""

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (limit if hard == resource.RLIM_INFINITY else min(hard, limit), hard))

    env = {k: v for k, v in os.environ.items() if k != "OPQUANT_SEED"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "opquant", *args], capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120
    )


class TestSchemaEdges:
    """The largest value each cap admits runs to exit 0 under a 2 GB address-space
    limit; the refusals one past each cap are tested above."""

    def test_six_lemma_functionals(self, tmp_path):
        path = tmp_path / "lemma.json"
        path.write_text(json.dumps({"experiment": "lemma_check", "parameters": {"functionals": 6}}))
        result = capped_cli("run", "--config", str(path))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["results"][0]["passed"] is True

    def test_sixty_four_ambient_vectors(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(with_params(IDENTITY, vectors=64)))
        out = tmp_path / "bundle.json"
        result = capped_cli("vectors", "--config", str(path), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert len(json.loads(out.read_text())["biorthogonal"]["vectors"]) == 64

    def test_a_window_at_the_spectrum_cap(self):
        diagonal = '{"kind": "diagonal", "periodic": [2.0, 1.0]}'
        result = capped_cli("quantities", "--op", diagonal, "--quantity", "G", "--schedule", "[[16777216, 1, 1]]")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["results"][0]["value"] == 1.0
