#!/usr/bin/env python3
"""Independently re-check a saved certificate.

Rebuilds the constraint rows of n with its own code, reads the kernel
recorded in the certificate, and confirms that (a) it annihilates every
constraint row exactly, (b) its entries match the certified nonzero pattern,
(c) the recorded rank equals the rank of the rebuilt rows, recomputed here,
and that rank is the unknowns minus 1, with a kernel of dimension exactly 1
and a nonzero generator, and (d) the recorded metadata holds: schema version
"1", the rebuilt row count, the basis dimension of n, the unknowns as the
statistical space's dimension, every recorded check true and no recorded
failure.  It reads the algebra's tables (``lie_algebra``), the triple
indexing, the kernel codec and the certified pattern of ``gaussgeom.tensors``,
and ``exact.csr_matvec``; it never imports ``gaussgeom.solver`` and runs no
exact elimination, so it does not trust the code that it checks.

The rows.  In the graded unknowns y_t = K_t / sqrt2^{deg t} of the triples t
(deg counts the Cov(i,i) in t), the derivative (D_x K)(s) at a basis index x
and a triple s = {i, j, k} is

    -sum_e (G[x,i,e] K(e,j,k) + G[x,j,e] K(i,e,k) + G[x,k,e] K(i,j,e))

for the Levi-Civita table G.  Each G[x,m,e] is an integer q over a common
denominator den times sqrt2^p, p the parity of deg x + deg m + deg e, so a
term G[x,m,e] K_t is (q / den) y_t times sqrt2^(p + deg t), which is
sqrt2^par * 2^((p + deg t - par) / 2) for par the parity of deg x + deg s.
Dropping the common factor sqrt2^par / den and the sign leaves the integer
table T[x, s], one linear form in y per (x, s): its entry at a column t sums
the terms q * 2^((p + deg t - par) / 2).  The emitted constraint of a quad
(a < b, g <= out) is T[a, {b,g,out}] - T[b, {a,g,out}]: it says that
(D_a K)(b, g) and (D_b K)(a, g) share their e_out component.  It stands for
the quads (a, b, g, out) and (a, b, out, g), so it weighs 1 when g = out and
2 otherwise; ``row_count`` is the summed weight of the quads whose two T
rows differ.  Each row is kept as emitted: no row is divided by its gcd, and
no two are merged.  ``gaussgeom.solver.assemble`` stores the same rows, and
a test (``tests/test_package.py``) checks that its arrays equal these, array
for array; the two are built by separate code.  A row's residual is the row
applied to both rational parts of y.

The rank.  A column that is the only nonzero entry of some row, among the
columns not yet zeroed, is zeroed, in rounds until a round zeroes none.
Each zeroed e_c lies in the row space over Q, by induction over the rounds,
and each row is its part on the live columns plus multiples of zeroed e_c;
so rank_Q = peeled + rank_Q(A) for the live block A.  Over Q,
rank(A^T A) = rank(A), and A^T A is a small square integer matrix, exact in
float64.  Its rank over GF(p), p = 2^31 - 1, is taken by elimination: a
nonzero minor mod p is a nonzero integer, so rank_p(A^T A) <= rank_Q(A),
and the recheck's rank r = peeled + rank_p(A^T A) is at most rank_Q.  A
nonzero generator that annihilates every row gives rank_Q <= U - 1 for U
unknowns, so r = U - 1 proves that the kernel is exactly the generator's
line.  An unlucky p can only lower r, which makes the recheck fail, never
pass.

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
    gaussgeom verify --max-n 3 --emit-certificate certificates.json
    python3 scripts/recheck_certificate.py certificates.json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gaussgeom.algebra import lie_algebra
from gaussgeom.exact import csr_matvec
from gaussgeom.tensors import (
    SymTensor3,
    basis_dimension,
    dense_positions,
    expected_pattern,
)

#: the rank of the live block's Gram matrix is taken modulo this prime; a
#: product of two residues stays below 2^62, inside int64
PRIME = 2**31 - 1
#: float64 holds every integer below this in magnitude exactly
_FLOAT_EXACT_BOUND = 2**53


@dataclass(frozen=True)
class Constraints:
    """The emitted constraints of one n whose two T rows differ, as CSR rows.

    Row r is T[a, {b,g,out}] - T[b, {a,g,out}] of one quad and stands for
    ``weights[r]`` emitted constraints; its nonzero entries are ``columns``
    and ``values`` from ``starts[r]`` to the next start, in column order.
    ``degrees`` are the sqrt2-degrees of the unknowns.
    """

    degrees: np.ndarray
    weights: np.ndarray
    starts: np.ndarray
    columns: np.ndarray
    values: np.ndarray

    @property
    def unknowns(self) -> int:
        return len(self.degrees)

    @property
    def row_count(self) -> int:
        return int(self.weights.sum())

    def residual_nonzero(self, kernel: SymTensor3) -> np.ndarray:
        """Whether each row leaves a nonzero residual on the graded ``kernel``,
        in either rational part."""
        graded = kernel.canonical.times_sqrt2_powers(-self.degrees)
        return csr_matvec(self.starts, self.columns, self.values, graded).parts.any(axis=0)

    def rank(self) -> int:
        """The peeled columns plus the GF(p) rank of the live block's Gram
        matrix."""
        rows = len(self.starts)
        row = np.repeat(np.arange(rows), np.diff(self.starts, append=len(self.columns)))
        column, value = self.columns, self.values
        zeroed = np.zeros(self.unknowns, dtype=bool)
        while True:
            count = np.bincount(row, minlength=rows)
            lone = column[count[row] == 1]
            if not len(lone):
                break
            zeroed[lone] = True
            live = ~zeroed[column]
            row, column, value = row[live], column[live], value[live]

        # every row left has two or more live entries; the Gram matrix of the
        # live block is exact in float64 below the bound
        in_block = np.bincount(row, minlength=rows) > 0
        block_row = np.cumsum(in_block) - 1
        block_column = np.cumsum(~zeroed) - 1
        block = np.zeros((int(in_block.sum()), self.unknowns - int(zeroed.sum())))
        block[block_row[row], block_column[column]] = value
        if len(block) * int(np.abs(value).max(initial=0)) ** 2 >= _FLOAT_EXACT_BOUND:
            raise ArithmeticError("the live block's Gram matrix is not exact in float64")
        gram = (block.T @ block).astype(np.int64) % PRIME
        return int(zeroed.sum()) + rank_mod_prime(gram)


def rank_mod_prime(matrix: np.ndarray) -> int:
    """Rank over GF(PRIME) of an integer matrix with entries in [0, PRIME),
    by elimination in place."""
    rank = 0
    for column in range(matrix.shape[1]):
        hit = np.flatnonzero(matrix[:, column])
        if not len(hit):
            continue
        pivot, others = matrix[hit[0], column:], hit[1:]
        factor = matrix[others, column] * pow(int(pivot[0]), -1, PRIME) % PRIME
        matrix[others, column:] = (matrix[others, column:] - factor[:, None] * pivot) % PRIME
        matrix[hit[0], column:] = 0
        rank += 1
    return rank


def _runs(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The owner r and the position of every entry of the runs starts[r] ..
    starts[r] + lengths[r] - 1, run after run."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    ends = np.cumsum(lengths)
    return owner, np.arange(len(owner)) - np.repeat(ends - lengths - starts, lengths)


def _summed(key: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in order and each one's summed value, zero sums
    dropped.  ``key`` is a few sorted runs end to end, which a stable sort
    merges in about linear time."""
    order = np.argsort(key, kind="stable")
    key, value = key[order], value[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    value = np.add.reduceat(value, first)
    kept = value != 0
    return key[first][kept], value[kept]


def constraints(n: int) -> Constraints:
    """T from the nonzeros of the Levi-Civita table, then each emitted
    constraint as the difference of two of its rows."""
    alg = lie_algebra(n)
    degree = np.array(alg.degrees, dtype=np.int64)
    d = len(degree)
    at = dense_positions(d)
    index = np.arange(d)
    # the triples i <= j <= k in canonical (lexicographic) order
    triple = np.nonzero((index[:, None, None] <= index[:, None]) & (index[:, None] <= index))
    unknowns = len(triple[0])
    unknown_degree = sum(degree[part] for part in triple)

    # G[x, m, e] = q * sqrt2^p / den, q an integer and p the parity of
    # deg x + deg m + deg e; the nonzeros come in (x, m, e) order, so each
    # (x, m) owns one run of them with e increasing
    parity = (degree[:, None, None] + degree[:, None] + degree) % 2
    rational, irrational = alg.levi_civita.times_sqrt2_powers(-parity).parts
    if irrational.any():
        raise ArithmeticError("Levi-Civita table is not sqrt2-graded")
    lc_x, lc_m, lc_e = np.nonzero(rational)
    lc_q = rational[lc_x, lc_m, lc_e].astype(np.int64)
    lc_p = parity[lc_x, lc_m, lc_e]
    run_length = np.bincount(lc_x * d + lc_m, minlength=d * d)
    run_start = np.cumsum(run_length) - run_length

    # row x * unknowns + s of T: each slot of s = {i, j, k} in turn is
    # contracted with G[x, slot, .]; a row's columns increase with e within
    # one slot, so each slot's keys are one sorted run
    x = np.repeat(index, unknowns)
    s = np.tile(np.arange(unknowns), d)
    row_parity = (degree[x] + unknown_degree[s]) % 2
    keys, values = [], []
    for slot, i, j in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        run = x * d + triple[slot][s]
        row, term = _runs(run_start[run], run_length[run])
        t = at[lc_e[term], triple[i][s[row]], triple[j][s[row]]]
        shift = (lc_p[term] + unknown_degree[t] - row_parity[row]) >> 1
        keys.append(row * unknowns + t)
        values.append(lc_q[term] << shift)
    key, table_values = _summed(np.concatenate(keys), np.concatenate(values))
    table_row, table_columns = np.divmod(key, unknowns)
    table_length = np.bincount(table_row, minlength=d * unknowns)
    table_start = np.cumsum(table_length) - table_length

    # the quads (a < b, g <= out) in order, each T[a, {b,g,out}] minus
    # T[b, {a,g,out}]: two sorted runs of (quad, column) keys
    ab, go = np.triu_indices(d, 1), np.triu_indices(d)
    a, b = (np.repeat(part, len(go[0])) for part in ab)
    g, out = (np.tile(part, len(ab[0])) for part in go)
    keys, values = [], []
    for ids, sign in ((a * unknowns + at[b, g, out], 1), (b * unknowns + at[a, g, out], -1)):
        quad, entry = _runs(table_start[ids], table_length[ids])
        keys.append(quad * unknowns + table_columns[entry])
        values.append(sign * table_values[entry])
    key, row_values = _summed(np.concatenate(keys), np.concatenate(values))
    quad, row_columns = np.divmod(key, unknowns)
    starts = np.flatnonzero(np.diff(quad, prepend=-1))
    kept = quad[starts]
    return Constraints(
        degrees=unknown_degree,
        weights=np.where(g[kept] == out[kept], 1, 2),
        starts=starts,
        columns=row_columns,
        values=row_values,
    )


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

    system = constraints(n)
    unknowns = system.unknowns
    # counted over every emitted constraint, as each row stands for
    # ``weights`` of them
    bad = int(system.weights @ system.residual_nonzero(kernel))
    report("rows_annihilated", bad == 0, f"{system.row_count} rows, {bad} nonzero")

    expected = SymTensor3.from_entries(n, expected_pattern(n))
    mismatched = len((kernel + expected.scale(-1)).nonzero_items())
    report("pattern_match", not mismatched, f"{mismatched} mismatches")

    # uniqueness is re-derived: the rank of the rebuilt rows, a lower bound
    # on their rank over Q, must reach unknowns - 1, which a nonzero
    # annihilating generator caps it at
    rank = system.rank()
    report(
        "rank_accounting",
        payload["unknowns"] == unknowns
        and payload["rank"] == rank == unknowns - 1
        and payload["kernel_dim"] == 1
        and not kernel.is_zero(),
        f"rank {rank} of {unknowns} unknowns",
    )
    report("status_recorded_pass", payload.get("status") == "PASS")

    checks = payload.get("checks")
    recorded = (
        ("schema_version", payload.get("schema_version") == "1"),
        ("row_count", _is_int(payload.get("row_count"), system.row_count)),
        ("dim", _is_int(payload.get("dim"), basis_dimension(n))),
        ("statistical_space_dim", _is_int(payload.get("statistical_space_dim"), unknowns)),
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("certificates", nargs="+", type=Path)
    args = parser.parse_args(argv)

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
