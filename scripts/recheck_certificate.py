#!/usr/bin/env python3
"""Independently re-check a saved certificate.

Reassembles the constraint system from scratch, reads the kernel recorded
in the certificate, and confirms that (a) it annihilates every constraint
row exactly, (b) its entries match the certified nonzero pattern, (c)
the recorded rank equals the rank of the reassembled rows, recomputed by
exact elimination, with a kernel of dimension exactly 1, and (d) the
recorded metadata holds: schema version "1", the reassembled row count, the
basis dimension of n, the unknowns as the statistical space's dimension,
every recorded check true and no recorded failure.

The kernel is read by ``SymTensor3.from_labels``, the one reader of the
``Label|Label|Label -> a/b + c/d*sqrt2`` map that ``SymTensor3.labelled``
writes: the three parts of a label may come in any order, and each
unordered triple may be named at most once, so a second label of one
triple is an error, never a silent overwrite.  A file holds one
certificate object or a non-empty list of them.

Exit codes: 0 every certificate passes, 1 a check failed, 2 a certificate
could not be read (bad JSON, an empty list, ``n``, a kernel label or value,
a repeated triple, or a missing rank/kernel_dim/unknowns field).

Example:
    python3 scripts/recheck_certificate.py certificates/certificate_n3.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from gaussgeom.solver import assemble, expected_pattern
from gaussgeom.tensors import SymTensor3, basis_dimension


def kernel_tensor(payload: dict) -> SymTensor3:
    """The certificate's kernel, read by ``SymTensor3.from_labels``.

    Raises ValueError on a bad ``n``, kernel label or kernel value, or on a
    triple that the kernel names twice.
    """
    n = payload.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    kernel = payload.get("kernel")
    if not isinstance(kernel, dict):
        raise ValueError("kernel must be an object of label -> value")
    return SymTensor3.from_labels(n, kernel)


def validate(payload: object) -> None:
    """Raise ValueError unless ``payload`` is a certificate that can be
    rechecked."""
    if not isinstance(payload, dict):
        raise ValueError("not a certificate object")
    for key in ("rank", "kernel_dim", "unknowns"):
        value = payload.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{key} must be an integer, got {value!r}")
    kernel_tensor(payload)


def recheck(payload: dict) -> bool:
    kernel = kernel_tensor(payload)
    n = kernel.n

    ok = True

    def report(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        suffix = f" ({detail})" if detail else ""
        print(f"  {name}: {'PASS' if passed else 'FAIL'}{suffix}")

    system = assemble(n)
    residuals = system.residuals(kernel.canonical)
    # counted over every emitted constraint, as each distinct row stands for
    # ``multiplicity`` of them
    nonzero = residuals.parts.any(axis=0)
    bad = int(system.multiplicities @ nonzero)
    report("rows_annihilated", bad == 0, f"{system.row_count} rows, {bad} nonzero")

    expected = SymTensor3.from_entries(n, expected_pattern(n))
    mismatched = len((kernel + expected.scale(-1)).nonzero_items())
    report("pattern_match", not mismatched, f"{mismatched} mismatches")

    # uniqueness is re-derived: the rank of the reassembled rows, not the
    # recorded one, must leave a one-dimensional kernel
    rank, _ = system.kernel()
    report(
        "rank_accounting",
        payload["unknowns"] == system.unknowns
        and payload["rank"] == rank
        and payload["kernel_dim"] == system.unknowns - rank == 1,
        f"rank {rank} of {system.unknowns} unknowns",
    )
    report("status_recorded_pass", payload.get("status") == "PASS")

    checks = payload.get("checks")
    recorded = (
        ("schema_version", payload.get("schema_version") == "1"),
        ("row_count", _is_int(payload.get("row_count"), system.row_count)),
        ("dim", _is_int(payload.get("dim"), basis_dimension(n))),
        ("statistical_space_dim", _is_int(payload.get("statistical_space_dim"), system.unknowns)),
        (
            "checks",
            isinstance(checks, dict) and bool(checks) and all(v is True for v in checks.values()),
        ),
        ("failures", payload.get("failures") == []),
    )
    forged = [key for key, holds in recorded if not holds]
    report("metadata_consistent", not forged, ", ".join(forged))
    return ok


def _is_int(value: object, expected: int) -> bool:
    """``value`` is the integer ``expected``, and no bool or float equal to it."""
    return type(value) is int and value == expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("certificates", nargs="+", type=Path)
    args = parser.parse_args()

    all_ok = True
    for path in args.certificates:
        try:
            blob = json.loads(path.read_text(encoding="utf-8"))
            entries = blob if isinstance(blob, list) else [blob]
            if not entries:
                raise ValueError("the certificate list is empty")
            for payload in entries:
                validate(payload)
        except (OSError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        for payload in entries:
            print(f"{path} (n={payload['n']}):")
            all_ok = recheck(payload) and all_ok
    print("RECHECK:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
