#!/usr/bin/env python3
"""Run the kernel certification for a range of n and save the certificates.

Example:
    python3 scripts/run_verification.py --max-n 3 --out certificates/
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from gaussgeom.solver import verify_theorem


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=3, help="verify n = 1..max-n")
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("certificates"),
        help="directory for certificate JSON files",
    )
    args = parser.parse_args()
    if args.max_n < 1:
        parser.error("--max-n must be at least 1")

    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out: cannot create directory {str(args.out)!r}: {exc.strerror}")
    all_passed = True
    for n in range(1, args.max_n + 1):
        started = time.perf_counter()
        cert = verify_theorem(n)
        elapsed = time.perf_counter() - started
        path = args.out / f"certificate_n{n}.json"
        path.write_text(cert.to_json() + "\n", encoding="utf-8")
        status = "PASS" if cert.passed else "FAILED"
        print(
            f"n={n}: {status} unknowns={cert.unknowns} rank={cert.rank} "
            f"kernel_dim={cert.kernel_dim} [{elapsed:.2f}s] -> {path}"
        )
        for failure in cert.failures:
            print(f"  failed: {failure}")
        all_passed = all_passed and cert.passed
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
