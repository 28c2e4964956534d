"""Tests for config parsing, the experiment runner, and the command line."""

import json
import os
import subprocess
import sys

import pytest

from opquant.cli import (
    ExperimentConfig,
    emit_test_vectors,
    parse_config,
    run,
    serialize_config,
)
from opquant.errors import ConfigError

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
            (with_params(MINIMAL, delta=-1.0), "parameters.delta: must be positive"),
            (with_params(MINIMAL, seed=-2), "parameters.seed: must be a nonnegative integer"),
            (with_params(MINIMAL, quantity="Sigma"), "parameters.quantity: must be one of"),
            (with_params(MINIMAL, method="magic"), "parameters.method: must be one of"),
            (with_params(MINIMAL, expected=[1.0]), "length must match schedule"),
            ({**MINIMAL, "output_path": 7}, "output_path: must be a string"),
        ]
        for data, fragment in cases:
            with pytest.raises(ConfigError, match=fragment):
                parse(data)

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
            "parameters": {"epsilon": 0.1, "c": 1.0, "systems": 2, "combos": 20},
        }
        report = run(parse(data))
        assert report.exit_code == 0
        assert [r["dim"] for r in report.results] == [2, 3]
        assert all(r["worst_defect_gap"] >= 0.0 for r in report.results)

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


class TestVectors:
    def test_identity_ratios(self, tmp_path):
        out = tmp_path / "vectors.json"
        bundle = emit_test_vectors(parse(IDENTITY), str(out))
        assert bundle["core"]["ratios"] == [1.0, 1.0, 1.0]
        assert bundle["core"]["budgets"] == [0.0, 0.0, 0.0]
        for row in bundle["singular_values"]:
            assert all(v == 1.0 for v in row["values"])
        for row in bundle["quantities"]:
            assert {row["Gamma"], row["Tau"], row["Delta"], row["Nabla"]} == {1.0}

    def test_diagonal_window_sigma(self, tmp_path):
        data = {
            "space": {"p": 2},
            "operator": {"kind": "diagonal", "prefix": [1, 2, 3, 4], "periodic": [0.0]},
            "experiment": "quantities",
            "parameters": {"quantity": "Gamma", "schedule": [[4, 1, 2]]},
        }
        bundle = emit_test_vectors(parse(data), str(tmp_path / "v.json"))
        assert bundle["singular_values"] == [{"N": 4, "values": [4.0, 3.0, 2.0, 1.0]}]

    def test_shift_window_sigma(self, tmp_path):
        data = {
            "space": {"p": 2},
            "operator": {"kind": "shift", "periodic": [1.0, 0.5]},
            "experiment": "quantities",
            "parameters": {"quantity": "Gamma", "schedule": [[6, 1, 1]]},
        }
        bundle = emit_test_vectors(parse(data), str(tmp_path / "v.json"))
        assert bundle["singular_values"] == [{"N": 6, "values": [1.0, 1.0, 1.0, 0.5, 0.5, 0.5]}]
        assert bundle["quantities"][0]["Gamma"] == 0.5

    def test_byte_identical(self, tmp_path):
        config = parse(MINIMAL)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_test_vectors(config, str(a))
        emit_test_vectors(config, str(b))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes()


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

    def test_verify_construction(self):
        result = cli(
            "verify", "--suite", "construction",
            "--epsilon", "0.2", "--c", "1.0", "--systems", "1", "--combos", "10",
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["violations"] == []

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
