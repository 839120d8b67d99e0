#!/usr/bin/env python3
"""Benchmark a change against a parent revision and write one BENCH JSON file.

Example, from the root of a source checkout:

    python3 scripts/bench.py --parent HEAD~1 --label pr14 --note "what changed" \\
        --pairs certify-n4=10 --pairs predicates-n5=3 --pairs oracle-mix=3 \\
        --out BENCH_pr14.json

Both sides run from clean copies in a temporary directory: the parent from
the committed files of ``--parent`` (``git archive``), the change from this
checkout's tracked and unignored files as they stand, so neither side sees
build or test leftovers. The output has four parts:

- ``end_to_end_pairs``: alternating parent/change runs of the unmodified
  ``perfbench/run.py --trace 0``, each as long as BENCHMARK.json's
  ``run_seconds`` (pair i uses one seed on both sides; the
  parent runs first in even pairs), and per workload a summary of every
  end-to-end metric as ``parent_q1_median_q3`` / ``change_q1_median_q3``;
- ``perfbench_trace``: the JSON line of one 10 s ``--trace 1`` run per
  workload and side;
- ``stages``: per side and n, fresh-process seconds (``<stage>_s``) and minor
  page faults (``<stage>_minor_faults``, from ``ru_minflt``) of
  ``lie_algebra``, ``assemble``, ``solve``, ``verify_theorem`` (``verify``,
  which includes its own ``solve``) and one ``predicate_suite`` each on a
  seeded random K and on the Amari K (``predicates_random``,
  ``predicates_amari``: every predicate fails, every predicate holds), one
  ``curvature`` on each of the two connections LC + K, after one untimed
  call (``curvature_random``, which runs the dense pass, and
  ``curvature_amari``, which runs the sparse one), the comparison
  ``curvature(g) == curvature(conjugate(g))`` on LC + K_Amari, after one
  untimed call (``curvature_pair_amari``), 100 pull-backs of one
  tangent at one fresh point (``pullback``) and one ``alpha_connection_form``
  at another, after an untimed one has built the float Levi-Civita table
  (``alpha_form``), one ``mc_oracle_metric_and_cubic`` at 2^18 samples at a
  third point, run last, with the resident MB it adds (``mc``,
  ``mc_rss_growth_mb``), the recheck script's ``recheck`` of verify's
  certificate with its stdout discarded (``recheck``, and whether it passed,
  ``recheck_passed``), the certificate's rank,
  the resident MB after ``gc.collect()`` just before ``verify`` starts and
  once it has returned (``verify_rss_before_mb``, ``verify_rss_after_mb``,
  from ``/proc/self/statm``) and the process's peak RSS up to then, before
  the predicate suites and the recheck. Only calls that both sides have are
  made; verify's elimination (on the live block left by peeling singleton
  rows, rank = peeled count + block rank) shows per op as perfbench's
  ``exact.echelon.s`` under ``--trace 1``;
- ``machine`` and ``method``: what the runs were made on and how.

Runs are made one process at a time with BLAS pools capped at one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import shutil
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: length of each ``--trace 1`` run; the end-to-end runs take BENCHMARK.json's run_seconds
TRACE_SECONDS = 10.0
STAGE_NS = range(4, 9)

#: run in a fresh interpreter per n; prints one JSON line
STAGE_PROBE = """
import gc, json, os, random, resource, sys, time
from fractions import Fraction
import gaussgeom
from gaussgeom.algebra import lie_algebra
from gaussgeom.connections import (
    amari_difference, conjugate, curvature, from_difference, predicate_suite,
)
from gaussgeom.exact import QSqrt2
from gaussgeom.solver import assemble, solve, verify_theorem
from gaussgeom.tensors import SymTensor3, basis_dimension, symmetric_triples

n = int(sys.argv[1])
stages = {}
def timed(name, fn):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    out = fn()
    stages[name + "_s"] = time.perf_counter() - start
    stages[name + "_minor_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return out
timed("lie_algebra", lambda: lie_algebra(n))
system = timed("assemble", lambda: assemble(n))
counts = {"unknowns": system.unknowns, "rows_distinct": len(system.starts)}
del system  # held, it would keep the heap under it resident past verify
timed("solve", lambda: solve(n))
def resident_mb():
    gc.collect()
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
rss_before_mb = resident_mb()
cert = timed("verify", lambda: verify_theorem(n))
rss_after_mb = resident_mb()
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
# the recheck script on verify's certificate, read from this checkout's
# scripts/ and timed with its stdout discarded
import contextlib, importlib.util, io
spec = importlib.util.spec_from_file_location("recheck_certificate", "scripts/recheck_certificate.py")
recheck_script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(recheck_script)
payload = json.loads(cert.to_json())
with contextlib.redirect_stdout(io.StringIO()):
    rechecked = timed("recheck", lambda: recheck_script.recheck(payload))
# one predicate suite on each verdict branch: a seeded random K fails all four
# predicates, the Amari K passes them
rng = random.Random(n)
k = SymTensor3.from_vector(n, [
    QSqrt2(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4))),
           Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4))))
    for _ in symmetric_triples(basis_dimension(n))
])
timed("predicates_random", lambda: predicate_suite(k))
timed("predicates_amari", lambda: predicate_suite(amari_difference(n)))
# one curvature on each kind of input: the random K's products have more
# contributing entry pairs than a slice of the sum holds, the Amari K's fewer;
# each is timed after one untimed call, so that no side's time includes
# faulting in a workspace that another side's earlier stages left warm
for name, gamma in (("random", from_difference(k)), ("amari", from_difference(amari_difference(n)))):
    curvature(gamma)
    timed("curvature_" + name, lambda: curvature(gamma))
# the identity R = R* that the family op checks, on LC + K_Amari: two sparse
# curvatures and their comparison, after one untimed call
gamma = from_difference(amari_difference(n))
pair = lambda: curvature(gamma) == curvature(conjugate(gamma))
pair()
timed("curvature_pair_amari", pair)
# the float pointwise layer: 100 pull-backs at one fresh point, then one alpha
# form at another, after an untimed form at the identity has built the table.
# Imported here, not at the top: importing them before ``verify`` leaves the
# heap laid out differently and moves its resident MB by about 20 at n = 7
import numpy as np
from gaussgeom.group import pull_back_to_identity
from gaussgeom.manifold import ManifoldPoint, TangentVector, alpha_connection_form
frng = np.random.default_rng(n)
def fresh_point():
    m = frng.normal(size=(n, n))
    return ManifoldPoint(m @ m.T + n * np.eye(n), frng.normal(size=n))
def tangent():
    m = frng.normal(size=(n, n))
    return TangentVector((m + m.T) / 2.0, frng.normal(size=n))
point, t = fresh_point(), tangent()
timed("pullback", lambda: [pull_back_to_identity(point, t) for _ in range(100)])
tangents = [tangent() for _ in range(3)]
alpha_connection_form(ManifoldPoint.standard(n), 0.5, *tangents)
point = fresh_point()
timed("alpha_form", lambda: alpha_connection_form(point, 0.5, *tangents))
# one Monte-Carlo metric and cubic, last, so that its threads' arenas and
# buffers move no earlier stage's heap; its resident growth is read around it
from gaussgeom.manifold import mc_oracle_metric_and_cubic
point = fresh_point()
rss_before_mc_mb = resident_mb()
timed("mc", lambda: mc_oracle_metric_and_cubic(point, *tangents, 1 << 18, n))
stages["mc_rss_growth_mb"] = resident_mb() - rss_before_mc_mb
print(json.dumps({
    "module": gaussgeom.__file__,
    **counts,
    "rank": cert.rank,
    "passed": cert.passed,
    "recheck_passed": rechecked,
    **stages,
    "verify_rss_before_mb": rss_before_mb,
    "verify_rss_after_mb": rss_after_mb,
    "peak_rss_mb": peak_mb,
}))
"""


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] of ``values`` (inclusive method), each to 6 places."""
    if len(values) == 1:
        cut = [values[0]] * 3
    else:
        cut = statistics.quantiles(values, n=4, method="inclusive")
    return [round(v, 6) for v in cut]


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric summary of one workload's parent/change pairs.

    Each pair is ``{"parent": result, "change": result}`` with perfbench's
    result objects (``failed`` and ``metrics`` of ``{"value": ...}``);
    ``better`` maps each metric to ``"lower"`` or ``"higher"``.
    """
    summary = {
        "pairs": len(pairs),
        "failed_ops": {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")},
    }
    for name, direction in better.items():
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if direction == "higher" else -1
        summary[name] = {
            "parent_q1_median_q3": quartiles(parent),
            "change_q1_median_q3": quartiles(change),
            "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "median_ratio_change_over_parent": round(
                statistics.median(change) / statistics.median(parent), 4
            ),
        }
    return summary


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last (JSON) line of one unmodified ``perfbench/run.py`` run in ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(
        cmd, cwd=root, env=child_env(root), capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def stages(root: Path, n: int) -> dict:
    """The stage probe's record for ``n``, run in a fresh interpreter in ``root``."""
    done = subprocess.run(
        [sys.executable, "-c", STAGE_PROBE, str(n)],
        cwd=root,
        env=child_env(root),
        capture_output=True,
        text=True,
        check=True,
    )
    record = json.loads(done.stdout.strip().splitlines()[-1])
    if Path(record.pop("module")).resolve().parent != (root / "src" / "gaussgeom").resolve():
        raise RuntimeError(f"stage probe in {root} imported another gaussgeom")
    return record


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, written under ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def export_checkout(dest: Path) -> None:
    """This checkout's tracked and unignored files, as they stand, copied under ``dest``."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def parse_pairs(text: str) -> tuple[str, int]:
    workload, _, count = text.partition("=")
    return workload, int(count)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="label recorded in the output")
    parser.add_argument("--note", default="", help="one line on what the change does")
    parser.add_argument(
        "--pairs",
        type=parse_pairs,
        action="append",
        required=True,
        metavar="WORKLOAD=COUNT",
        help="alternating parent/change pairs for a workload (repeatable)",
    )
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair i uses seed + i")
    parser.add_argument("--out", type=Path, required=True, help="output JSON file")
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    parent_commit = git("rev-parse", args.parent)

    with tempfile.TemporaryDirectory() as scratch:
        sides = {side: Path(scratch) / side for side in ("parent", "change")}
        for root in sides.values():
            root.mkdir()
        export(parent_commit, sides["parent"])
        export_checkout(sides["change"])

        runs, summary = {}, {}
        for workload, count in args.pairs:
            runs[workload] = []
            for i in range(count):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"pair": i, "seed": args.seed + i, "first": order[0]}
                for side in order:
                    pair[side] = perfbench(sides[side], workload, args.seed + i, seconds, 0)
                    print(f"{workload} pair {i} {side}: {pair[side]['metrics']}", file=sys.stderr)
                runs[workload].append(pair)
            summary[workload] = summarize(runs[workload], better)

        traces = {
            workload: {
                side: perfbench(root, workload, args.seed, TRACE_SECONDS, 1)
                for side, root in sides.items()
            }
            for workload, _ in args.pairs
        }
        stage_table = {
            side: {str(n): stages(root, n) for n in STAGE_NS}
            for side, root in sides.items()
        }

    command = f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} --trace 0"
    record = {
        "label": args.label,
        "change": args.note,
        "parent_commit": parent_commit,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": 1,
        },
        "method": (
            "scripts/bench.py: the parent runs from a git archive of its commit and the change "
            "from a copy of the checkout's tracked and unignored files, each in a new temporary "
            "directory; one process at a time; pair i uses seed "
            f"{args.seed} + i on both sides and the parent runs first in even pairs; traces use "
            f"seed {args.seed} for {TRACE_SECONDS:g} s"
        ),
        "end_to_end_pairs": {"command": command, "runs": runs, "summary": summary},
        "perfbench_trace": traces,
        "stages": stage_table,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(summary, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
