"""Certified kernel computation for the conjugate-symmetry constraints.

The left-invariant statistical structures on the Gaussian parameter group with
the canonical metric correspond to totally symmetric difference tensors K.
Conjugate symmetry of the induced connection is equivalent to total symmetry
of the Levi-Civita covariant derivative of K, which is a linear condition on
the entries of K.  This module assembles that linear system exactly, computes
its kernel, and certifies that the kernel is one-dimensional with the expected
coefficient pattern: the line spanned by the Amari-Chentsov difference tensor.

The system is assembled over the integers.  Each basis direction has a
sqrt2-degree (``LieAlgebra.degrees``), 1 for Cov(i,i) and 0 otherwise, and
every Levi-Civita coefficient is sqrt2 to the parity of its three degrees
times a rational.  In the graded unknowns y_t = K_t / sqrt2^{deg t} of the
triples t, every constraint is therefore sqrt2^k times a rational row; the
system keeps that integer row as emitted, one per nonzero (a < b, g <= d),
neither divided by its gcd nor merged with an equal row.  These are the
rows that ``scripts/recheck_certificate.py`` rebuilds with its own code,
array for array.  The rows are assembled as integer numpy batches (every
(a, b, g, d) term of the Levi-Civita derivative at once, summed per row)
and stored only as int64 CSR arrays.  ``kernel()`` is their one
elimination: numpy rounds first peel every row with a single live entry
off the CSR arrays (at n=4, 530 of the 560 unknowns are forced to zero),
then one fraction-free loop eliminates the distinct primitive rows that
remain on the live block of columns; the rank is the peeled count plus the
block rank.
The kernel, the residual check and the pattern checks (against
``tensors.expected_pattern``) work on ``SymTensor3``s, 1-D ``ExactArray``s
over the triples.  The certificate records the kernel as
``Label|Label|Label -> a/b + c/d*sqrt2``, written by ``SymTensor3.labelled``
and read back by ``SymTensor3.from_labels`` (``solved_difference_tensor``),
the one writer and the one reader of that map.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .algebra import lie_algebra
from .connections import alpha_connection, alpha_family_verdicts, from_difference
from .exact import (
    HALF_SQRT2,
    ExactArray,
    QSqrt2,
    SparseEchelon,
    csr_matvec,
)
from .tensors import (
    SymTensor3,
    _basis_positions,
    basis_dimension,
    dense_positions,
    expected_pattern,
    symmetric_triples,
    triple_label,
)

SCHEMA_VERSION = "1"

#: scaling that turns the normalized kernel generator into the difference
#: tensor whose cubic form is the canonical cubic table
AMARI_SCALE = QSqrt2(0, Fraction(-1, 2))  # -sqrt(2)/2

VERIFY_ALPHAS: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 3),
)


@dataclass(frozen=True, eq=False)
class ConstraintSystem:
    """Sparse integer linear system over the graded unknowns, as CSR arrays.

    Unknowns are indexed by unordered basis triples t in canonical order and
    enter as y_t = K_t / sqrt2^{degrees[t]}.  One constraint is emitted per
    (a < b, g, d), stating that the covariant derivatives (D_a K)(b, g) and
    (D_b K)(a, g) share their e_d component; it is symmetric in (g, d), so
    only g <= d is assembled.  Each nonzero constraint is one integer row,
    in emission order and as emitted (not divided by its gcd, and kept when
    an earlier row equals it): row r has sorted ``columns`` and nonzero
    ``coefficients`` from ``starts[r]`` to the next start.
    ``multiplicities[r]`` is how many nonzero (a, b, g, d) with any order of
    (g, d) it stands for: 1 when g = d and 2 otherwise.  All arrays are
    int64.
    """

    n: int
    degrees: np.ndarray
    starts: np.ndarray
    columns: np.ndarray
    coefficients: np.ndarray
    multiplicities: np.ndarray

    @property
    def unknowns(self) -> int:
        return len(self.degrees)

    @property
    def row_count(self) -> int:
        """Number of nonzero constraints over every (a < b, g, d)."""
        return int(self.multiplicities.sum())

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Read-only view as sorted (column, coefficient) pairs; certification never builds it."""
        pairs = tuple(zip(self.columns.tolist(), self.coefficients.tolist()))
        bounds = self.starts.tolist() + [len(pairs)]
        return tuple(pairs[i:j] for i, j in zip(bounds, bounds[1:]))

    def kernel(self) -> tuple[int, list[ExactArray]]:
        """The rank and a kernel basis in the entries K_t.

        Singleton rows are peeled first, on the CSR arrays alone: a column is
        zeroed when it is the only live (not yet zeroed) entry of some row, in
        rounds until one zeroes nothing.  By induction over the rounds, e_c
        lies in the row space for each zeroed c (a row whose only live entry
        is v*e_c is v*e_c plus multiples of earlier e_c'), and each row is its
        stripped live part plus multiples of zeroed e_c.  So the rank is the
        peeled count plus the rank of the stripped rows on the live columns,
        renumbered 0..s-1, and every kernel vector vanishes off them.  Each
        stripped row is made primitive with a positive first entry, and
        each distinct one is inserted once: rows equal up to scale span one
        line.  Each block kernel vector is scattered back and lifted through
        K_t = sqrt2^{deg t} y_t.
        """
        lengths = np.diff(self.starts, append=len(self.columns))
        row_id = np.repeat(np.arange(len(self.starts)), lengths)
        zeroed = np.zeros(self.unknowns, dtype=bool)
        while True:
            live = ~zeroed[self.columns]
            count = np.bincount(row_id[live], minlength=len(self.starts))
            lone = self.columns[live & (count[row_id] == 1)]
            if not len(lone):
                break
            zeroed[lone] = True

        peeled = int(zeroed.sum())
        block = np.cumsum(~zeroed) - 1
        echelon = SparseEchelon(self.unknowns - peeled)
        # every live entry now shares its row with another live entry
        columns, coefficients = block[self.columns[live]].tolist(), self.coefficients[live].tolist()
        bounds = np.flatnonzero(np.diff(row_id[live], prepend=-1)).tolist() + [len(columns)]
        distinct = set()
        for i, j in zip(bounds, bounds[1:]):
            values = coefficients[i:j]
            divisor = math.gcd(*values) if values[0] > 0 else -math.gcd(*values)
            row = tuple(zip(columns[i:j], [v // divisor for v in values]))
            if row not in distinct:
                distinct.add(row)
                echelon.insert(dict(row))

        basis = []
        for y in echelon.kernel_basis():
            graded = ExactArray.build((len(y),), lambda idx: y[idx[0]])
            parts = np.zeros((2, self.unknowns), dtype=graded.parts.dtype)
            parts[:, ~zeroed] = graded.parts
            basis.append(ExactArray(parts, graded.den).times_sqrt2_powers(self.degrees))
        return peeled + echelon.rank, basis

    def residuals(self, vector: ExactArray) -> ExactArray:
        """Each row applied to the graded coordinates of ``vector``.

        Writing K_t / sqrt2^{deg t} = u_t + v_t*sqrt2 with rational u, v,
        the residual of an integer row r is r.u + (r.v)*sqrt2, which vanishes
        exactly when r annihilates both rational parts.
        """
        if vector.shape != (self.unknowns,):
            raise ValueError(f"expected {self.unknowns} entries, got {vector.shape}")
        graded = vector.times_sqrt2_powers(-self.degrees)
        return csr_matvec(self.starts, self.columns, self.coefficients, graded)

    def satisfied_by(self, vector: ExactArray) -> bool:
        return self.residuals(vector).is_zero()


def assemble(n: int) -> ConstraintSystem:
    """Emit every nonzero symmetry constraint on the covariant derivative of
    K as an integer row over the graded unknowns, one per (a < b, g <= d),
    in that order."""
    alg = lie_algebra(n)
    degree = np.array(alg.degrees, dtype=np.int64)
    d = len(degree)
    unknown_degree = degree[np.array(symmetric_triples(d))].sum(axis=1)
    unknowns = len(unknown_degree)
    at = dense_positions(d)

    # Levi-Civita coefficient [x, s, e] = q * sqrt2^p / den, q an integer and
    # p the parity of deg x + deg s + deg e; its nonzero entries are listed
    # in (x, s, e) order, so each (x, s) owns one contiguous run of them
    parity = (degree[:, None, None] + degree[:, None] + degree) % 2
    graded = alg.levi_civita.times_sqrt2_powers(-parity)
    rational, irrational = graded.parts
    if irrational.any():
        raise ArithmeticError("Levi-Civita table is not sqrt2-graded")
    q_table = rational.astype(np.int64)
    lc_x, lc_s, lc_e = np.nonzero(q_table)
    lc_q, lc_p = q_table[lc_x, lc_s, lc_e], parity[lc_x, lc_s, lc_e]
    run_length = np.bincount(lc_x * d + lc_s, minlength=d * d)
    run_start = np.cumsum(run_length) - run_length

    # the constraints (a < b, g <= out) in emission order
    ab, go = np.triu_indices(d, 1), np.triu_indices(d)
    a, b = (np.repeat(i, len(go[0])) for i in ab)
    g, out = (np.tile(i, len(ab[0])) for i in go)
    row_parity = (degree[a] + degree[b] + degree[g] + degree[out]) % 2

    # (D_x K)(y, g, out) = -sum_e (G[x,y,e] K(e,g,out) + G[x,g,e] K(y,e,out)
    #   + G[x,out,e] K(y,g,e)) is the e_out component of (D_x K)(y, g)
    # lowered by the metric connection G, so the row is symmetric in
    # (g, out); the overall sign is dropped.  A term G * K_t carries
    # sqrt2^(p + deg t), which is 2^shift * sqrt2^parity.
    row_ids, columns, values = [], [], []
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for slot, i, j in ((y, g, out), (g, y, out), (out, y, g)):
            length = run_length[x * d + slot]
            row = np.repeat(np.arange(len(a)), length)
            offset = np.arange(len(row)) - np.repeat(np.cumsum(length) - length, length)
            term = run_start[x * d + slot][row] + offset
            t = at[lc_e[term], i[row], j[row]]
            shift = (lc_p[term] + unknown_degree[t] - row_parity[row]) >> 1
            row_ids.append(row)
            columns.append(t)
            values.append(sign * lc_q[term] << shift)

    # sum the terms of each (row, column), in row-major order; a quad whose
    # sums all vanish emits no row
    key = np.concatenate(row_ids) * unknowns + np.concatenate(columns)
    order = np.argsort(key)
    key, value = key[order], np.concatenate(values)[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    key, value = key[first], np.add.reduceat(value, first)
    key, value = key[value != 0], value[value != 0]
    row, column = np.divmod(key, unknowns)
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    quad = row[starts]
    return ConstraintSystem(
        n=n,
        degrees=unknown_degree,
        starts=starts,
        columns=column,
        coefficients=value,
        multiplicities=np.where(g[quad] == out[quad], 1, 2),
    )


@dataclass
class TheoremCertificate:
    """Machine-checkable record of one kernel verification run."""

    n: int
    dim: int
    unknowns: int
    row_count: int
    rank: int
    kernel_dim: int
    normalization: str
    kernel: dict[str, str] = field(default_factory=dict)  # label -> exact scalar
    checks: dict[str, bool] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(self.checks.values()) and not self.failures

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = ok
        if not ok:
            self.failures.append(f"{name}{': ' + detail if detail else ''}")

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "dim": self.dim,
            "unknowns": self.unknowns,
            "statistical_space_dim": self.unknowns,
            "row_count": self.row_count,
            "rank": self.rank,
            "kernel_dim": self.kernel_dim,
            "normalization": self.normalization,
            "kernel": dict(sorted(self.kernel.items())),
            "checks": dict(sorted(self.checks.items())),
            "failures": list(self.failures),
            "status": "PASS" if self.passed else "FAILED",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def solve(n: int) -> TheoremCertificate:
    """Compute the kernel and check it against the certified pattern."""
    system = assemble(n)
    rank, basis_vectors = system.kernel()
    cert = TheoremCertificate(
        n=n,
        dim=basis_dimension(n),
        unknowns=system.unknowns,
        row_count=system.row_count,
        rank=rank,
        kernel_dim=len(basis_vectors),
        normalization="K[Mean(1)|Mean(1)|Cov(1,1)] = 1",
    )
    cert.record("rank_nullity", rank + len(basis_vectors) == system.unknowns)
    cert.record("kernel_dim_is_one", len(basis_vectors) == 1, f"dim={len(basis_vectors)}")
    if len(basis_vectors) != 1:
        return cert

    kernel = SymTensor3(n, basis_vectors[0])
    mean, cov = _basis_positions(n)
    anchor = kernel.get(mean(1), mean(1), cov(1, 1))
    if not anchor:
        cert.record("anchor_entry_nonzero", False, "normalizing entry vanishes")
        return cert
    cert.record("anchor_entry_nonzero", True)
    kernel = kernel.scale(anchor.inverse())

    cert.record("kernel_in_row_space_kernel", system.satisfied_by(kernel.canonical))

    expected = SymTensor3.from_entries(n, expected_pattern(n))
    mismatches = [
        f"{triple_label(n, t)}: got {kernel.get(*t)}, want {expected.get(*t)}"
        for t, _ in (kernel + expected.scale(-1)).nonzero_items()
    ]
    cert.record("nonzero_pattern", not mismatches, "; ".join(mismatches[:5]))

    def anchored(i: int) -> QSqrt2:
        return kernel.get(mean(i), mean(i), cov(i, i))

    ratio_double = all(
        kernel.get(cov(i, i), cov(i, i), cov(i, i)) == anchored(i) * 2
        for i in range(1, n + 1)
    )
    cert.record("ratio_diagonal_cube_is_doubled", ratio_double)

    ratio_mixed = all(
        kernel.get(mean(i), mean(j), cov(i, j)) == anchored(i) * HALF_SQRT2
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )
    cert.record("ratio_mixed_pair_is_half_sqrt2", ratio_mixed)

    # scaling the generator by -sqrt2/2 must reproduce the cubic table
    # through the pairing C = -2 <K(., .), .>
    cubic = SymTensor3.from_dense(n, lie_algebra(n).cubic)
    cert.record("cubic_table_reproduced", kernel.scale(AMARI_SCALE * -2) == cubic)

    cert.kernel = kernel.labelled()
    return cert


def solved_difference_tensor(cert: TheoremCertificate) -> SymTensor3:
    """Reconstruct the normalized kernel generator recorded in a certificate."""
    return SymTensor3.from_labels(cert.n, cert.kernel)


def verify_theorem(n: int) -> TheoremCertificate:
    """Solve, then confirm the kernel line carries every certified property.

    The alpha checks come from ``alpha_family_verdicts`` and cost two
    curvatures for the whole family LC + alpha K: the Levi-Civita table is
    metric and K symmetric, so the conjugate of LC + s K is LC - s K and
    R*(s) = R(-s), while R(s) - R(-s) = 2 s R1.  Conjugate symmetry at every
    recorded alpha != 0 is therefore R1 = 0, read off the two dually-flat
    curvatures R(c) and R(-c) at the Amari scale c.
    """
    cert = solve(n)
    if not cert.passed:
        return cert

    generator = solved_difference_tensor(cert)
    family = alpha_family_verdicts(generator, VERIFY_ALPHAS, AMARI_SCALE)
    for alpha, suite in zip(VERIFY_ALPHAS, family.suites):
        cert.record(f"conjugate_symmetric_alpha_{alpha}", suite.conjugate_symmetric)
        cert.record(f"predicates_agree_alpha_{alpha}", suite.all_true())

    cert.record("dually_flat_plus", family.dually_flat_plus)
    cert.record("dually_flat_minus", family.dually_flat_minus)
    cert.record(
        "alpha_family_matches_levi_civita_offset",
        from_difference(generator.scale(AMARI_SCALE)) == alpha_connection(n, 1),
    )
    return cert
