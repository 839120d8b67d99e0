#!/usr/bin/env python3
"""Time one fresh set-up of gaussgeom: import plus first-touch ``lie_algebra``.

The benchmark runs this script in a new interpreter several times per run and
reports the median, so import cost and the exact table build are measured from
a cold process every time.

    python3 perfbench/setup_probe.py --root . --n 2 8

prints one JSON object: the seconds taken and the path of the gaussgeom
module that was imported.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--n", type=int, nargs="+", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(args.root.resolve() / "src"))

    start = time.perf_counter()
    import gaussgeom
    from gaussgeom.algebra import lie_algebra
    for n in args.n:
        lie_algebra(n)
    end = time.perf_counter()
    print(json.dumps({"setup_s": end - start, "module": gaussgeom.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
