"""Spans around calls into opquant's layers, recorded from outside.

`Tracer.install` replaces each traced function with a wrapper in every
opquant module that binds it (so calls between modules are seen too) and
`uninstall` puts the originals back.  A span is (id, parent id, group,
start, end); a group's self time is its spans' durations minus the parts
covered by child spans.  A call counts towards `calls` only when it
enters the group from outside, so `restricted_norm` calling
`restriction_data` is one call of `operators.restricted`.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

import opquant
import opquant.cli
import opquant.construction
import opquant.operators
import opquant.quantities
import opquant.sampling
import opquant.seqspace


def _outer_sets(counts, args, kwargs, result):
    moduli, quantity, k = args[:3]
    K = args[3] if len(args) > 3 else kwargs.get("K")
    if quantity in ("Delta", "Nabla"):
        counts["quantities.subset_oracle.outer_sets"] += math.comb(len(moduli), K)


def _restarts(counts, args, kwargs, result):
    if len(args) == 6:  # _alternating_search(A, dim, obj_index, maximize, restarts, seed)
        counts["quantities.grassmann_search.restarts"] += args[4]


def _core_windows(counts, args, kwargs, result):
    anchors = [z.anchor for z in result.z]
    counts["construction.core.window_total"] += sum(anchors)
    counts["construction.core.window_max"] = max(counts["construction.core.window_max"], *anchors)


def _sub_bases(counts, args, kwargs, result):
    counts["construction.sub_bases_tested"] += result.measured.get("sub_bases_tested", 0)


def _lemma_window(counts, args, kwargs, result):
    counts["construction.lemma.max_window"] = max(counts["construction.lemma.max_window"], result["max_window"])


def _report_bytes(counts, args, kwargs, result):
    counts["cli.report_bytes"] += len(result.encode())


seq, ops, qty, con, smp = (
    opquant.seqspace,
    opquant.operators,
    opquant.quantities,
    opquant.construction,
    opquant.sampling,
)

# (group, owner, attribute, counter); owners are the defining module or class
TARGETS = [
    ("seqspace.inner_product", seq, "inner_product", None),
    ("seqspace.linear_combine", seq, "linear_combine", None),
    ("seqspace.norm", seq, "norm", None),
    ("seqspace.gram", seq, "gram", None),
    ("seqspace.project_into_kernels", seq, "project_into_kernels", None),
    ("seqspace.truncate", seq, "truncate", None),
    ("seqspace.TailVector", seq.TailVector, "__post_init__", None),
    ("operators.apply", ops, "apply", None),
    ("operators.restricted", ops, "restricted_norm", None),
    ("operators.restricted", ops, "restricted_min_modulus", None),
    ("operators.restricted", ops, "restricted_extremes", None),
    ("operators.restricted", ops, "restriction_data", None),
    ("operators.operator_norm", ops, "operator_norm", None),
    ("operators.operator_norm", ops, "operator_norm_bracket", None),
    ("operators.window_matrix", ops, "window_action_matrix", None),
    ("operators.window_matrix", ops, "truncate_operator", None),
    ("quantities.subset_oracle", qty, "coordinate_subset_value", _outer_sets),
    ("quantities.svd_oracle", qty, "svd_oracle", None),
    # the estimators call the private search directly, bypassing grassmann_search
    ("quantities.grassmann_search", qty, "grassmann_search", None),
    ("quantities.grassmann_search", qty, "_alternating_search", _restarts),
    ("construction.build_biorthogonal", con, "build_biorthogonal", None),
    ("construction.build_core_approximants", con, "build_core_approximants", _core_windows),
    ("construction.checks", con, "check_coefficient_bound", None),
    ("construction.checks", con, "verify_near_isometry", None),
    ("construction.checks", con, "verify_transfer_bounds", None),
    ("construction.run_invariance_case", con, "run_invariance_case", _sub_bases),
    ("construction.check_dense_intersection", con, "check_dense_intersection", _lemma_window),
    ("sampling", smp, "sample_tail_vector", None),
    ("sampling", smp, "sample_witness_subspace", None),
    ("sampling", smp, "odd_coordinate_witness", None),
    ("sampling", smp, "sample_lemma_functionals", None),
    ("cli.parse_config", opquant.cli, "parse_config", None),
    ("cli.run", opquant.cli, "run", None),
    ("cli.report", opquant.cli.RunReport, "to_json", _report_bytes),
]

GROUPS = list(dict.fromkeys(group for group, *_ in TARGETS))
LAYERS = ("seqspace", "operators", "quantities", "construction", "cli")
COUNTS = (
    "quantities.subset_oracle.outer_sets",
    "quantities.grassmann_search.restarts",
    "construction.core.window_total",
    "construction.core.window_max",
    "construction.sub_bases_tested",
    "construction.lemma.max_window",
    "cli.report_bytes",
)
MAXIMA = ("construction.core.window_max", "construction.lemma.max_window")


class Tracer:
    """Aggregates calls and self time per group; keeps the first spans."""

    def __init__(self, max_spans: int = 100_000):
        self.reset()
        self.spans: list[tuple] = []
        self.max_spans = max_spans
        self._stack: list[list] = []
        self._next_id = 0
        self._bindings = self._bind()

    def reset(self) -> None:
        """Zero the aggregates; spans already kept stay."""
        self.calls = dict.fromkeys(GROUPS, 0)
        self.self_s = dict.fromkeys(GROUPS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)

    def _wrap(self, group, fn, counter):
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [group, 0.0, span_id]  # child time accumulates in frame[1]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[group] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if parent is None or parent[0] != group:
                    self.calls[group] += 1
                if len(self.spans) < self.max_spans:
                    self.spans.append((span_id, parent[2] if parent else None, group, start, end))
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def _bind(self) -> list[tuple]:
        """(owner, name, original, wrapper) for every binding of a target."""
        modules = [m for name, m in sys.modules.items() if name == "opquant" or name.startswith("opquant.")]
        bindings = []
        for group, owner, attr, counter in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(group, original, counter)
            if isinstance(owner, type):
                bindings.append((owner, attr, original, wrapper))
                continue
            for module in modules:
                bindings += [(module, name, original, wrapper) for name, value in vars(module).items() if value is original]
        return bindings

    def install(self) -> None:
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        """Totals so far: per-group calls and self time, counts, layer sums."""
        out = {}
        for group in GROUPS:
            out[f"{group}.calls"] = self.calls[group]
            out[f"{group}.self_s"] = self.self_s[group]
        out.update(self.counts)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for g, v in self.self_s.items() if g.startswith(layer + "."))
        return out
