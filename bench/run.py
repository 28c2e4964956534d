"""opquant benchmark: one workload, timed or traced, checked against a reference.

    python3 bench/run.py --workload construction-checks --seed 1 --seconds 25 --trace 0

Run from the repository root; opquant is imported from ./src.  With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (setup_s, op_p50_s, ops_per_s, peak_rss_mb); with
--trace 1 it holds the per-layer metrics of a traced run.  A result
file, stamped with the environment, goes to bench/results/.  See
bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os
import resource

# one BLAS thread: small matrices, and steadier timings on a shared machine
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# A runaway window (the library doubles some windows without a cap) raises
# MemoryError in the operation instead of exhausting the machine; a normal
# run peaks below 400 MB of address space.  Child processes inherit the cap.
MEMORY_CAP = 2 << 30
_hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP if _hard == resource.RLIM_INFINITY else min(_hard, MEMORY_CAP), _hard))

import argparse
import contextlib
import hashlib
import json
import pickle
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

START = perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

SETUP_REPEATS = 5  # set-ups per timed run: this process and four children


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_setups(args, count: int) -> list[float]:
    """Set-up times of fresh processes, one after another."""
    times = []
    for _ in range(count):
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


class Checker:
    """A check_worker.py process that checks payloads one at a time.

    Used as a context manager: on the way out, by any path, its input
    is closed and the process is waited for, killed if it hangs.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "check_worker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def check(self, check, payload) -> list[str]:
        pickle.dump((check, payload), self.proc.stdin)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
        except OSError:  # the worker is gone already
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return False


class Round:
    """Runs every operation once per call.

    The first round checks each output in a separate process, so the
    reference's dense arrays stay out of this process's peak memory; its
    times are not used, since the checks between operations leave the
    caches cold.  Later rounds are timed and must reproduce the first
    round's output exactly.
    """

    def __init__(self, ops):
        self.ops = ops
        self.prints: list = [None] * len(ops)
        self.first_failed = [False] * len(ops)
        self.problems: list[str] = []
        self.rounds = 0

    def run(self, tracer=None) -> tuple[list[float], list[float], int]:
        """One round: (untraced times, traced times, failed attempts).

        With a tracer, each operation runs twice in a row, once traced,
        and which pass goes first alternates between operations and
        rounds, so the two times form a matched pair.
        """
        times, traced_times, failed = [], [], 0
        first = self.rounds == 0
        with Checker() if first else contextlib.nullcontext() as checker:
            for i, op in enumerate(self.ops):
                hooks = (None,) if tracer is None else (None, tracer) if (i + self.rounds) % 2 else (tracer, None)
                for hook in hooks:
                    elapsed, error = self._attempt(i, op, hook, checker)
                    (times if hook is None else traced_times).append(elapsed)
                    if first:
                        self.first_failed[i] = error is not None
                    if error is not None or self.first_failed[i]:
                        failed += 1
                        if error is not None and len(self.problems) < 20:
                            self.problems.append(error)
        self.rounds += 1
        return times, traced_times, failed

    def _attempt(self, i, op, tracer, checker) -> tuple[float, str | None]:
        """Runs operation i once: its time, and the problem found, if any."""
        if tracer is not None:
            tracer.install()
        start = perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{op.name}: raised {exc!r}"
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        if error is not None:
            return elapsed, error
        payload = op.payload(out)
        digest = hashlib.sha256(pickle.dumps(payload)).hexdigest()
        if checker is None:
            return elapsed, None if digest == self.prints[i] else f"{op.name}: output differs from round 1"
        self.prints[i] = digest
        try:
            found = checker.check(op.check, payload)
        except (OSError, EOFError, pickle.PickleError) as exc:  # the worker died
            found = [f"checker failed: {exc!r}"]
        return elapsed, f"{op.name}: {'; '.join(found)}" if found else None


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "commit": commit,
    }


def timed(args, ops, setup_times: list[float]) -> tuple[dict, dict]:
    rounds = Round(ops)
    attempted, failed = len(ops), rounds.run()[2]
    times, round_s = [], []
    began = perf_counter()
    while not times or perf_counter() - began < args.seconds:
        t, _, f = rounds.run()
        times += t
        round_s.append(sum(t))
        attempted += len(t)
        failed += f
    # each operation's median over the rounds, then the median over operations:
    # pooled samples would put the median at the edge between two operations'
    # clusters of times, where it follows the extremes of both
    per_op = {op.name: statistics.median(times[i :: len(ops)]) for i, op in enumerate(ops)}
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_s": (statistics.median(per_op.values()), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"round_op_s": round_s, "setup_samples_s": setup_times, "op_median_s": per_op,
              "problems": rounds.problems}
    return _result(rounds, attempted, failed, metrics), detail


def traced(args, ops, tracer, setup_totals: dict) -> tuple[dict, dict]:
    """Each operation runs untraced and traced in turn; per-layer figures are per round."""
    import tracer as tracing

    rounds = Round(ops)
    attempted, failed = len(ops), rounds.run()[2]
    plain, spanned = [], []
    tracer.reset()
    began = perf_counter()
    while not plain or perf_counter() - began < args.seconds:
        t, traced_t, f = rounds.run(tracer)
        plain += t
        spanned += traced_t
        attempted += len(t) + len(traced_t)
        failed += f
    n = len(spanned) // len(ops)
    per_round = tracer.snapshot()
    metrics = {}
    for key, value in per_round.items():
        if key in tracing.MAXIMA:
            total = max(value, setup_totals[key])
        elif isinstance(value, int):  # counts: every traced round is the same
            total = setup_totals[key] + value // n
        else:
            total = setup_totals[key] + value / n
        unit = "s" if key.endswith("self_s") else "bytes" if key == "cli.report_bytes" else "count"
        metrics[key] = (total, unit)
    untraced_rate = len(plain) / sum(plain)
    traced_rate = len(spanned) / sum(spanned)
    metrics["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - traced_rate / untraced_rate), "%")
    detail = {"rounds_traced": n, "op_count_per_round": len(ops),
              "spans_kept": len(tracer.spans), "problems": rounds.problems}
    return _result(rounds, attempted, failed, metrics), detail


def _result(rounds: Round, attempted: int, failed: int, metrics: dict) -> dict:
    for problem in rounds.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": failed == 0,  # a differing repeat counts as failed too
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    # a terminated run unwinds, so the processes it started are stopped and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    if not (ROOT / "src" / "opquant").is_dir():
        print(f"no opquant source under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]  # config parsing and input generation
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        ops = build(args.seed)
        tracer.uninstall()
        setup_totals = tracer.snapshot()
        result, detail = traced(args, ops, tracer, setup_totals)
    else:
        ops = build(args.seed)
        own = perf_counter() - START
        if args.setup_only:
            print(own)
            return 0
        result, detail = timed(args, ops, [own, *child_setups(args, SETUP_REPEATS - 1)])
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(), **result, **detail}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        names = list(dict.fromkeys(s[2] for s in tracer.spans))
        spans = [[i, p, names.index(g), a, b] for i, p, g, a, b in tracer.spans]
        (out_dir / f"{stem}-spans.json").write_text(json.dumps({"groups": names, "spans": spans}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
