#!/usr/bin/env python3
"""gaussgeom benchmark: exact certification, predicate checks, Monte-Carlo oracle.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify-n4 --seed 1 --seconds 35 --trace 0

or every workload in turn:

    for w in certify-n4 predicates-n5 oracle-mix; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 35 --trace 0; done

Workloads (see workloads.py and BENCHMARK.json): ``certify-n4``,
``predicates-n5`` and ``oracle-mix``. Each is a closed loop with one client,
in this process, with BLAS/OpenMP pools capped at one thread. The seed only
changes the generated inputs.

``--trace 0`` measures end to end with nothing wrapped. ``--trace 1`` runs
every op twice, untraced and traced in alternating order, and reports per-layer
busy time, calls and counters from spans recorded around gaussgeom's entry
points (tracing.py), plus the traced/untraced time ratio. Spans are written to
``.perfbench_out/`` in the checkout when the run ends.

Human-readable lines go to standard output first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BLAS_THREADS = 1
#: fresh-process set-ups are taken before the loop and again after it, so the
#: median sees the host at both ends of the run; at each end at least
#: SETUP_MIN_REPEATS of them, and more until SETUP_BUDGET_S seconds are spent
SETUP_MIN_REPEATS = 3
SETUP_BUDGET_S = 2.0
SETUP_TIMEOUT_S = 120
WORKLOAD_NAMES = ("certify-n4", "predicates-n5", "oracle-mix")


def prepare() -> str | None:
    """Cap thread pools and put the checkout's sources first on sys.path.

    Returns an error message when the checkout has no gaussgeom sources.
    Must run before numpy is imported.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    needed = (ROOT / "src" / "gaussgeom" / "__init__.py", ROOT / "scripts" / "recheck_certificate.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        return f"not a gaussgeom checkout: missing {', '.join(missing)} under {ROOT}"
    for path in (BENCH_DIR, ROOT / "scripts", ROOT / "src"):
        sys.path.insert(0, str(path))
    return None


def setup_in_fresh_processes(ns: tuple[int, ...], min_repeats: int, budget_s: float) -> list[float]:
    """Seconds of ``import gaussgeom`` plus ``lie_algebra(n)`` for each n, each
    in a new interpreter: ``min_repeats`` samples, then more until
    ``budget_s`` seconds have passed."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "setup_probe.py"),
        "--root",
        str(ROOT),
        "--n",
        *map(str, ns),
    ]
    samples = []
    start = time.perf_counter()
    while len(samples) < min_repeats or time.perf_counter() - start < budget_s:
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
        )
        report = json.loads(done.stdout.strip().splitlines()[-1])
        if Path(report["module"]).resolve().parent != (ROOT / "src" / "gaussgeom").resolve():
            raise RuntimeError(f"set-up imported gaussgeom from {report['module']}")
        samples.append(report["setup_s"])
    return samples


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g}={cut:.6g}"
    return "no tail percentile (needs >= 20 samples)"


class Loop:
    """Closed loop with one client: the next op starts when one returns."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.rounds: list[tuple[float, float]] = []  # stage1, stage2 seconds
        self.counts: dict[str, int] = {}
        self.traced_ops = 0
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.elapsed = 0.0

    def _attempt(self, op):
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = op()
        except Exception:
            self.failed += 1
            print(f"op {self.attempted} raised:", file=sys.stderr)
            traceback.print_exc()
            return time.perf_counter() - start, None
        seconds = time.perf_counter() - start
        if outcome.problems:
            self.failed += 1
            print(f"op {self.attempted} failed: {'; '.join(outcome.problems)}", file=sys.stderr)
        return seconds, outcome

    def _traced(self, op):
        self.tracer.op = self.traced_ops
        self.tracer.install()
        try:
            seconds, outcome = self._attempt(op)
        finally:
            self.tracer.uninstall()
        self.traced_ops += 1
        self.traced_s += seconds
        self._count(outcome)
        return seconds, outcome

    def _count(self, outcome) -> None:
        if outcome is not None:
            for key, value in outcome.counts.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        index = 0
        while time.perf_counter() - start < seconds:
            stage1 = stage2 = 0.0
            for op in self.workload.round_ops(index):
                if self.tracer is None:
                    _, outcome = self._attempt(op)
                    self._count(outcome)
                else:
                    # alternate the order so warm-up favours neither side
                    first_traced = (self.traced_ops % 2) == 1
                    if first_traced:
                        self._traced(op)
                    op_s, outcome = self._attempt(op)
                    if not first_traced:
                        self._traced(op)
                    self.untraced_s += op_s
                if outcome is not None:
                    stage1 += outcome.stages[0]
                    stage2 += outcome.stages[1]
            self.rounds.append((stage1, stage2))
            index += 1
        self.elapsed = time.perf_counter() - start


def end_to_end(loop: Loop, setup: list[float], workload) -> tuple[dict, list[str]]:
    stage1 = [r[0] for r in loop.rounds]
    stage2 = [r[1] for r in loop.rounds]
    completed = loop.attempted - loop.failed
    values = {
        "setup_s": (statistics.median(setup), "s", len(setup), setup),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1, None),
        "ops_per_s": (completed / loop.elapsed, "1/s", completed, None),
        "stage1_s.p50": (statistics.median(stage1), "s", len(stage1), stage1),
        "stage2_s.p50": (statistics.median(stage2), "s", len(stage2), stage2),
    }
    alias = {
        "stage1_s.p50": workload.stage_names[0] + ".p50",
        "stage2_s.p50": workload.stage_names[1] + ".p50",
    }
    lines = []
    for name, (value, unit, samples, series) in values.items():
        label = f"{alias[name]} [{name}]" if name in alias else name
        tail = f"; {tail_percentile(series)}" if series else ""
        lines.append(f"{label} = {value:.6g} {unit} ({samples} samples{tail})")
    lines.append(f"round = {workload.round_text}")
    lines.append(
        f"fail_ratio = {loop.failed}/{loop.attempted} = "
        f"{loop.failed / loop.attempted:.6g} (failed ops / attempted ops)"
    )
    if loop.counts.get("mc_samples"):
        mc_s = sum(stage1)
        lines.append(
            f"mc_samples_per_s = {loop.counts['mc_samples'] / mc_s:.6g} 1/s "
            f"({loop.counts['mc_samples']} samples in {mc_s:.4g} s)"
        )
    metrics = {name: {"value": v[0], "unit": v[1]} for name, v in values.items()}
    return metrics, lines


#: per-layer busy time: metric prefix, the spans it sums, whether calls are
#: reported too. Nested spans count in each enclosing layer (inclusive time).
BUSY = (
    ("solver.assemble", ("solver.assemble",), True),
    ("solver.residuals", ("solver.residuals",), True),
    ("exact.echelon", ("exact.echelon.insert", "exact.echelon.kernel_basis"), False),
    ("exact.build", ("exact.build",), True),
    ("exact.tensordot", ("exact.tensordot",), True),
    ("exact.reduced", ("exact.reduced",), True),
    ("tensors.to_exact_array", ("tensors.to_exact_array",), True),
    ("connections.predicate_suite", ("connections.predicate_suite",), True),
    ("connections.curvature", ("connections.curvature",), True),
    ("connections.is_conjugate_symmetric", ("connections.is_conjugate_symmetric",), False),
    ("connections.lc_difference_derivative", ("connections.lc_difference_derivative",), False),
    (
        "connections.connection_cubic_derivative",
        ("connections.connection_cubic_derivative",),
        False,
    ),
    ("connections.lc_cubic_derivative", ("connections.lc_cubic_derivative",), False),
    ("manifold.mc_oracle_metric", ("manifold.mc_oracle_metric",), False),
    ("manifold.mc_oracle_cubic", ("manifold.mc_oracle_cubic",), False),
    ("manifold.closed_forms", ("manifold.fisher_metric", "manifold.amari_cubic"), False),
    ("manifold.alpha_connection_form", ("manifold.alpha_connection_form",), False),
    ("group.pull_back_to_identity", ("group.pull_back_to_identity",), False),
    ("group.act", ("group.act", "group.act_tangent"), False),
)
MC_NS = (2, 8, 16)


def per_layer(loop: Loop) -> tuple[dict, list[str]]:
    tracer = loop.tracer
    totals = tracer.span_totals()
    c = tracer.counters()
    ops = loop.traced_ops

    def busy(names: tuple[str, ...], key: str = "s") -> float:
        return sum(totals[name][key] for name in names) / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    rows = []
    for prefix, names, with_calls in BUSY:
        rows.append((f"{prefix}.s", busy(names), "s/op"))
        if with_calls:
            rows.append((f"{prefix}.calls", busy(names, key="calls"), "calls/op"))
    estimates = loop.counts.get("mc_estimates", 0)
    within = loop.counts.get("mc_within_3se", 0)
    lie = totals["algebra.lie_algebra"]
    rows += [
        ("solver.solve.self_s", busy(("solver.solve",), key="self_s"), "s/op"),
        ("solver.rows", ratio(c["rows"], c["assemble_calls"]), "count"),
        ("solver.rows_distinct", ratio(c["rows_distinct"], c["assemble_calls"]), "count"),
        ("solver.row_nnz", ratio(c["row_nnz"], c["assemble_calls"]), "count"),
        ("exact.echelon.inserts", ratio(c["inserts"], c["eliminations"]), "count"),
        ("exact.echelon.rank", ratio(c["useful_inserts"], c["eliminations"]), "count"),
        ("exact.echelon.useful_ratio", ratio(c["useful_inserts"], c["inserts"]), "ratio"),
        ("exact.kernel.max_bit_size", c["max_bit_size"], "bits"),
        ("exact.build.setup_s", totals["exact.build"]["setup_s"], "s"),
        ("algebra.lie_algebra.s", lie["setup_s"] + lie["s"], "s"),
    ]
    for n in MC_NS:
        rate = ratio(c["mc_samples"].get(n, 0), c["mc_s"].get(n, 0.0))
        rows.append((f"manifold.mc_samples_per_s.n{n}", rate, "1/s"))
    rows += [
        ("manifold.mc.within_3se_ratio", ratio(within, estimates), "ratio"),
        ("trace.overhead_ratio", ratio(loop.traced_s, loop.untraced_s), "ratio"),
        ("trace.spans", ratio(len(tracer.spans), ops), "count/op"),
        ("trace.exceptions", sum(entry["failures"] for entry in totals.values()), "count"),
    ]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit in rows}
    lines = [f"{name} = {value:.6g} {unit}" for name, value, unit in rows]
    lines += [
        f"per-layer figures are per traced op over {ops} traced ops, busy time inclusive of nested spans",
        "wait time = 0 in every layer: one client, closed loop, no queues",
        f"exact.echelon.useful_ratio base: {c['inserts']} inserts, {c['eliminations']} eliminations",
        f"manifold.mc.within_3se_ratio base: {estimates} estimates",
        f"trace.overhead_ratio base: {loop.traced_s:.6g} s traced / {loop.untraced_s:.6g} s untraced",
        "algebra.lie_algebra.s per n: "
        + ", ".join(f"n={n} {sec:.6g} s" for n, sec in sorted(c["lie_algebra_s"].items())),
    ]
    return metrics, lines


def run(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    setup_min_repeats: int = SETUP_MIN_REPEATS,
    setup_budget_s: float = SETUP_BUDGET_S,
):
    """Set up, measure and check one workload. Returns (result, report lines)."""
    import numpy
    import scipy

    import gaussgeom.algebra as algebra
    import tracing

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "workload": workload.name,
        "seconds": seconds,
        "trace": int(trace),
    }
    lines = ["env: " + " ".join(f"{k}={v}" for k, v in env.items())]

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        for n in workload.setup_ns:
            algebra.lie_algebra(n)
    finally:
        if tracer is not None:
            tracer.uninstall()

    def fresh_setups() -> list[float]:
        if trace:
            return []
        return setup_in_fresh_processes(workload.setup_ns, setup_min_repeats, setup_budget_s)

    setup = fresh_setups()
    loop = Loop(workload, tracer)
    loop.run(seconds)
    setup += fresh_setups()

    if trace:
        metrics, more = per_layer(loop)
        path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
        tracer.write(path, {"env": env, "metrics": metrics})
        more.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics, more = end_to_end(loop, setup, workload)
    result = {
        "correct": loop.failed == 0 and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    return result, lines + more


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    error = prepare()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    import workloads

    result, lines = run(workloads.make(args.workload, args.seed), args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
