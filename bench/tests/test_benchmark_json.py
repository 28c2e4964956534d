"""BENCHMARK.json names exactly the per-layer metrics the tracer reports."""

import json
from pathlib import Path

import tracer

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_per_layer_names_match_the_tracer():
    declared = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    reported = [*tracer.Tracer().snapshot(), "trace.ops_per_s_untraced", "trace.ops_per_s_traced", "trace.overhead_pct"]
    assert declared == reported
