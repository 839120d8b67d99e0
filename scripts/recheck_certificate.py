#!/usr/bin/env python3
"""Independently re-check a saved certificate.

Reassembles the constraint system from scratch, rebuilds the kernel vector
recorded in the certificate, and confirms that (a) the vector annihilates
every constraint row exactly, (b) its entries match the certified nonzero
pattern, and (c) the recorded rank equals the rank of the reassembled rows,
recomputed by exact elimination, with a kernel of dimension exactly 1.

Exit codes: 0 every certificate passes, 1 a check failed, 2 a certificate
could not be read (bad JSON, ``n``, kernel label or value, or a missing
rank/kernel_dim/unknowns field).

Example:
    python3 scripts/recheck_certificate.py certificates/certificate_n3.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from gaussgeom.algebra import basis_indices
from gaussgeom.exact import ZERO, ExactArray, QSqrt2
from gaussgeom.solver import assemble, expected_pattern
from gaussgeom.tensors import basis_dimension, symmetric_triples, triple_positions


def kernel_vector(payload: dict) -> list[QSqrt2]:
    """The certificate's kernel as a vector over the canonical triples.

    Raises ValueError on a bad ``n``, kernel label or kernel value.
    """
    n = payload.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    dim = basis_dimension(n)
    positions = triple_positions(dim)
    label_position = {idx.label(): p for p, idx in enumerate(basis_indices(n))}

    kernel = payload.get("kernel")
    if not isinstance(kernel, dict):
        raise ValueError("kernel must be an object of label -> value")
    vector = [ZERO] * len(positions)
    for label, text in kernel.items():
        parts = label.split("|")
        if len(parts) != 3 or any(part not in label_position for part in parts):
            raise ValueError(f"not a kernel label for n={n}: {label!r}")
        if not isinstance(text, str):
            raise ValueError(f"kernel value of {label} is not a string: {text!r}")
        key = tuple(sorted(label_position[part] for part in parts))
        vector[positions[key]] = QSqrt2.parse(text)
    return vector


def validate(payload: object) -> None:
    """Raise ValueError unless ``payload`` is a certificate that can be
    rechecked."""
    if not isinstance(payload, dict):
        raise ValueError("not a certificate object")
    for key in ("rank", "kernel_dim", "unknowns"):
        value = payload.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{key} must be an integer, got {value!r}")
    kernel_vector(payload)


def recheck(payload: dict) -> bool:
    values = kernel_vector(payload)
    vector = ExactArray.build((len(values),), lambda idx: values[idx[0]])
    n = payload["n"]
    triples = symmetric_triples(basis_dimension(n))

    ok = True

    def report(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        suffix = f" ({detail})" if detail else ""
        print(f"  {name}: {'PASS' if passed else 'FAIL'}{suffix}")

    system = assemble(n)
    residuals = system.residuals(vector)
    # counted over every emitted constraint, as each distinct row stands for
    # ``multiplicity`` of them
    nonzero = (residuals.rat != 0) | (residuals.irr != 0)
    bad = int(system.multiplicities @ nonzero)
    report("rows_annihilated", bad == 0, f"{system.row_count} rows, {bad} nonzero")

    pattern = expected_pattern(n)
    mismatched = [
        p
        for p, triple in enumerate(triples)
        if values[p] != pattern.get(triple, ZERO)
    ]
    report("pattern_match", not mismatched, f"{len(mismatched)} mismatches")

    # uniqueness is re-derived: the rank of the reassembled rows, not the
    # recorded one, must leave a one-dimensional kernel
    rank = system.echelon().rank
    report(
        "rank_accounting",
        payload["unknowns"] == system.unknowns
        and payload["rank"] == rank
        and payload["kernel_dim"] == system.unknowns - rank == 1,
        f"rank {rank} of {system.unknowns} unknowns",
    )
    report("status_recorded_pass", payload.get("status") == "PASS")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("certificates", nargs="+", type=Path)
    args = parser.parse_args()

    all_ok = True
    for path in args.certificates:
        try:
            blob = json.loads(path.read_text(encoding="utf-8"))
            entries = blob if isinstance(blob, list) else [blob]
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
