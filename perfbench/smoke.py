#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes (a few seconds).

    python3 perfbench/smoke.py

Runs each workload shape for one round at tiny sizes (certify at n=2,
predicates at n=2, the oracle at n=2,3 with 4096 samples), untraced and
traced, and checks that:

- every metric named in BENCHMARK.json is printed, by name, with its unit, in
  the report lines and in the JSON result, and nothing else is;
- a tampered certificate digest and a forced wrong predicate verdict count as
  failed ops instead of crashing the run;
- in a directory holding only BENCHMARK.json and the benchmark's files the
  benchmark exits non-zero without printing a result.

Prints ``SMOKE: PASS`` and exits 0, or lists what failed and exits 1.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys

import run


def check(problems: list[str], ok: bool, what: str) -> None:
    print(f"  {what}: {'ok' if ok else 'FAIL'}")
    if not ok:
        problems.append(what)


def check_metrics(
    problems: list[str], label: str, result: dict, lines: list[str], declared: list[dict]
) -> None:
    metrics = result["metrics"]
    check(
        problems,
        sorted(metrics) == sorted(m["name"] for m in declared),
        f"{label}: JSON metrics are exactly the declared ones",
    )
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        got = metrics.get(name, {})
        value = got.get("value")
        check(
            problems,
            got.get("unit") == unit
            and isinstance(value, (int, float))
            and math.isfinite(value),
            f"{label}: {name} is a finite number in {unit}",
        )
        pattern = re.compile(rf"(^|\[){re.escape(name)}\]? = \S+ {re.escape(unit)}( |$)")
        check(
            problems,
            any(pattern.search(line) for line in lines),
            f"{label}: {name} printed with its unit",
        )


def main() -> int:
    error = run.prepare()
    if error is not None:
        print(f"smoke: {error}", file=sys.stderr)
        return 2
    import gaussgeom.connections as connections
    import workloads

    problems: list[str] = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tiny = [
        workloads.Certify(2),
        workloads.Predicates(seed=1, n=2),
        workloads.OracleMix(seed=1, ns=(2, 3), samples=1 << 12, form_max_n=3),
    ]
    for workload in tiny:
        for trace in (False, True):
            label = f"{workload.name} trace={int(trace)}"
            print(label)
            result, lines = run.run(workload, 1, 0.01, trace, setup_min_repeats=1, setup_budget_s=0)
            check(
                problems,
                result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                f"{label}: correct with no failed ops",
            )
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            check_metrics(problems, label, result, lines, declared)

    print("tampered certificate digest")
    result, _ = run.run(workloads.Certify(2, digest="0" * 64), 1, 0.01, False, setup_min_repeats=1, setup_budget_s=0)
    check(
        problems,
        result["failed"] == result["attempted"] >= 1 and not result["correct"],
        "every certify op counts as failed",
    )

    print("forced wrong predicate verdict")
    original = connections.predicate_suite

    def wrong(k):
        suite = original(k)
        return connections.PredicateSuite(
            not suite.conjugate_symmetric,
            suite.cubic_derivative_symmetric,
            suite.lc_cubic_derivative_symmetric,
            suite.lc_difference_derivative_symmetric,
        )

    connections.predicate_suite = wrong
    try:
        result, _ = run.run(workloads.Predicates(seed=1, n=2), 1, 0.01, False, setup_min_repeats=1, setup_budget_s=0)
    finally:
        connections.predicate_suite = original
    check(
        problems,
        result["failed"] == result["attempted"] == 2 and not result["correct"],
        "family and random op both count as failed",
    )

    print("directory without the program")
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(
        run.BENCH_DIR, bare / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__")
    )
    args = ["--workload", "certify-n4", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], *args],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    shutil.rmtree(bare)
    check(
        problems,
        done.returncode != 0 and not done.stdout.strip(),
        "exits non-zero and prints no result",
    )

    print("SMOKE:", "PASS" if not problems else "FAIL")
    for what in problems:
        print("  failed:", what)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
