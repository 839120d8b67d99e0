"""Certified kernel computation for the conjugate-symmetry constraints.

The left-invariant statistical structures on the Gaussian parameter group with
the canonical metric correspond to totally symmetric difference tensors K.
Conjugate symmetry of the induced connection is equivalent to total symmetry
of the Levi-Civita covariant derivative of K, which is a linear condition on
the entries of K.  This module assembles that linear system exactly, computes
its kernel, and certifies that the kernel is one-dimensional with the expected
coefficient pattern: the line spanned by the Amari-Chentsov difference tensor.

The system is assembled over the integers.  Each basis direction has a
sqrt2-degree, 1 for Cov(i,i) and 0 otherwise, and every Levi-Civita
coefficient is sqrt2 to the parity of its three degrees times a rational.
In the graded unknowns y_t = K_t / sqrt2^{deg t} of the triples t, every
constraint is therefore sqrt2^k times a rational row; the system keeps each
distinct row once, as a primitive integer row.  Elimination runs over Q, and
sqrt2 enters only at the certificate boundary, where the kernel is lifted
back to K_t = sqrt2^{deg t} y_t and written as ``a/b + c/d*sqrt2``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import BasisIndex, basis_indices, lie_algebra
from .connections import (
    alpha_connection,
    curvature,
    from_difference,
    predicate_suite,
)
from .exact import HALF_SQRT2, ONE, SQRT2, ZERO, QSqrt2, SparseEchelon
from .tensors import SymTensor3, basis_dimension, symmetric_triples, triple_positions

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

#: sqrt2^k and sqrt2^-k for the degrees 0..3 of an unknown triple
_SQRT2_POWERS = (ONE, SQRT2, QSqrt2(2), QSqrt2(0, 2))
_INVERSE_SQRT2_POWERS = (
    ONE,
    HALF_SQRT2,
    QSqrt2(Fraction(1, 2)),
    QSqrt2(0, Fraction(1, 4)),
)

IntegerRow = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ConstraintSystem:
    """Sparse integer linear system over the graded unknowns.

    Unknowns are indexed by unordered basis triples t in canonical order and
    enter as y_t = K_t / sqrt2^{degrees[t]}.  One constraint is emitted per
    (a < b, g, d), stating that the covariant derivatives (D_a K)(b, g) and
    (D_b K)(a, g) share their e_d component; it is symmetric in (g, d), so
    only g <= d is assembled.  ``rows`` holds each distinct constraint once as
    a primitive integer row (sorted (column, coefficient) pairs, first
    coefficient positive), ``labels`` the first (a, b, g, d) that emitted it,
    and ``multiplicities`` how many of the nonzero (a, b, g, d) with any order
    of (g, d) emit it.
    """

    n: int
    unknown_triples: tuple[tuple[int, int, int], ...]
    degrees: tuple[int, ...]
    rows: tuple[IntegerRow, ...]
    labels: tuple[tuple[int, int, int, int], ...]
    multiplicities: tuple[int, ...]

    @property
    def unknowns(self) -> int:
        return len(self.unknown_triples)

    @property
    def row_count(self) -> int:
        """Number of nonzero constraints over every (a < b, g, d)."""
        return sum(self.multiplicities)

    def residuals(self, vector: Sequence[QSqrt2]) -> list[QSqrt2]:
        """Each distinct row applied to the graded coordinates of ``vector``.

        Writing K_t / sqrt2^{deg t} = u_t + v_t*sqrt2 with rational u, v,
        the residual of an integer row r is r.u + (r.v)*sqrt2, which vanishes
        exactly when r annihilates both rational parts.
        """
        if len(vector) != self.unknowns:
            raise ValueError(f"expected {self.unknowns} entries, got {len(vector)}")
        graded = [
            k * _INVERSE_SQRT2_POWERS[deg] for k, deg in zip(vector, self.degrees)
        ]
        den = math.lcm(*(y.a.denominator for y in graded), *(y.b.denominator for y in graded))
        u = [y.a.numerator * (den // y.a.denominator) for y in graded]
        v = [y.b.numerator * (den // y.b.denominator) for y in graded]
        out = []
        for row in self.rows:
            ru = sum(c * u[t] for t, c in row)
            rv = sum(c * v[t] for t, c in row)
            out.append(
                QSqrt2(Fraction(ru, den), Fraction(rv, den)) if ru or rv else ZERO
            )
        return out

    def satisfied_by(self, vector: Sequence[QSqrt2]) -> bool:
        return all(not r for r in self.residuals(vector))


def _graded_levi_civita(
    n: int, degree: Sequence[int]
) -> dict[tuple[int, int], list[tuple[int, int, int]]]:
    """(a, b) -> [(g, q, p)] with Levi-Civita coefficient q * sqrt2^p / den,
    q an integer and p the parity of deg a + deg b + deg g."""
    lc = lie_algebra(n).levi_civita
    rat, irr = lc.rat.tolist(), lc.irr.tolist()
    d = len(degree)
    graded: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for a in range(d):
        for b in range(d):
            for g in range(d):
                p = (degree[a] + degree[b] + degree[g]) % 2
                q, stray = (irr, rat) if p else (rat, irr)
                if stray[a][b][g]:
                    raise ArithmeticError("Levi-Civita table is not sqrt2-graded")
                if q[a][b][g]:
                    graded.setdefault((a, b), []).append((g, int(q[a][b][g]), p))
    return graded


def assemble(n: int) -> ConstraintSystem:
    """Emit every symmetry constraint on the covariant derivative of K as a
    primitive integer row over the graded unknowns."""
    indices = basis_indices(n)
    d = len(indices)
    degree = [int(idx.j == idx.i) for idx in indices]
    triples = symmetric_triples(d)
    pos = triple_positions(d)
    at = [
        [[pos[tuple(sorted((i, j, k)))] for k in range(d)] for j in range(d)]
        for i in range(d)
    ]
    unknown_degree = tuple(degree[i] + degree[j] + degree[k] for i, j, k in triples)
    graded = _graded_levi_civita(n, degree)

    rows: list[IntegerRow] = []
    labels: list[tuple[int, int, int, int]] = []
    multiplicities: list[int] = []
    seen: dict[IntegerRow, int] = {}
    for a in range(d):
        for b in range(a + 1, d):
            for g in range(d):
                for out in range(g, d):
                    # the row is sqrt2^parity times a rational row in y
                    parity = (degree[a] + degree[b] + degree[g] + degree[out]) % 2
                    # (D_x K)(y, g, out) = -sum_e (G[x,y,e] K(e,g,out)
                    #   + G[x,g,e] K(y,e,out) + G[x,out,e] K(y,g,e)) is the
                    # e_out component of (D_x K)(y, g) lowered by the metric
                    # connection G, so the row is symmetric in (g, out); the
                    # overall sign is dropped.  A term G * K_t carries
                    # sqrt2^(p + deg t), which is 2^shift * sqrt2^parity.
                    row: dict[int, int] = {}
                    for x, y, sign in ((a, b, 1), (b, a, -1)):
                        for slot, i, j in ((y, g, out), (g, y, out), (out, y, g)):
                            for e, q, p in graded.get((x, slot), ()):
                                t = at[e][i][j]
                                shift = (p + unknown_degree[t] - parity) >> 1
                                row[t] = row.get(t, 0) + (sign * q << shift)
                    entries = sorted((t, c) for t, c in row.items() if c)
                    if not entries:
                        continue
                    scale = math.gcd(*(c for _, c in entries))
                    if entries[0][1] < 0:
                        scale = -scale
                    key = tuple((t, c // scale) for t, c in entries)
                    index = seen.setdefault(key, len(rows))
                    if index == len(rows):
                        rows.append(key)
                        labels.append((a, b, g, out))
                        multiplicities.append(0)
                    multiplicities[index] += 1 if g == out else 2

    return ConstraintSystem(
        n=n,
        unknown_triples=triples,
        degrees=unknown_degree,
        rows=tuple(rows),
        labels=tuple(labels),
        multiplicities=tuple(multiplicities),
    )


def expected_pattern(n: int) -> dict[tuple[int, int, int], QSqrt2]:
    """Nonzero certified kernel entries, normalized so every
    (Mean(i), Mean(i), Cov(i,i)) entry equals 1."""
    position = {idx: p for p, idx in enumerate(basis_indices(n))}

    def mean(i: int) -> int:
        return position[BasisIndex.mean(i)]

    def cov(i: int, j: int) -> int:
        return position[BasisIndex.cov(i, j)]

    two = QSqrt2(2)
    pattern: dict[tuple[int, int, int], QSqrt2] = {}
    for i in range(1, n + 1):
        pattern[tuple(sorted((mean(i), mean(i), cov(i, i))))] = ONE
        pattern[(cov(i, i),) * 3] = two
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            pattern[tuple(sorted((cov(i, i), cov(i, j), cov(i, j))))] = ONE
            pattern[tuple(sorted((cov(j, j), cov(i, j), cov(i, j))))] = ONE
            pattern[tuple(sorted((mean(i), mean(j), cov(i, j))))] = HALF_SQRT2
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                pattern[tuple(sorted((cov(i, j), cov(j, k), cov(i, k))))] = HALF_SQRT2
    return pattern


def _triple_label(n: int, triple: tuple[int, int, int]) -> str:
    indices = basis_indices(n)
    return "|".join(indices[p].label() for p in triple)


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


def _kernel_vector(system: ConstraintSystem) -> tuple[list[list[QSqrt2]], int]:
    """Kernel basis in the entries K_t and the rank: the integer rows are
    eliminated over Q, then each graded kernel vector is lifted back through
    K_t = sqrt2^{deg t} y_t."""
    echelon = SparseEchelon(system.unknowns)
    for row in system.rows:
        echelon.insert(dict(row))
    basis = [
        [y * _SQRT2_POWERS[deg] for y, deg in zip(vector, system.degrees)]
        for vector in echelon.kernel_basis()
    ]
    return basis, echelon.rank


def solve(n: int) -> TheoremCertificate:
    """Compute the kernel and check it against the certified pattern."""
    system = assemble(n)
    basis_vectors, rank = _kernel_vector(system)
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

    vector = basis_vectors[0]
    positions = triple_positions(basis_dimension(n))
    anchor = positions[
        tuple(
            sorted(
                (
                    0,  # Mean(1)
                    0,
                    n,  # Cov(1,1) follows the n mean directions
                )
            )
        )
    ]
    if not vector[anchor]:
        cert.record("anchor_entry_nonzero", False, "normalizing entry vanishes")
        return cert
    cert.record("anchor_entry_nonzero", True)
    inv = vector[anchor].inverse()
    vector = [v * inv for v in vector]

    cert.record("kernel_in_row_space_kernel", system.satisfied_by(vector))

    pattern = expected_pattern(n)
    mismatches = []
    for p, triple in enumerate(system.unknown_triples):
        expected = pattern.get(triple, ZERO)
        if vector[p] != expected:
            mismatches.append(
                f"{_triple_label(n, triple)}: got {vector[p]}, want {expected}"
            )
    cert.record("nonzero_pattern", not mismatches, "; ".join(mismatches[:5]))

    indices = basis_indices(n)
    position = {idx: p for p, idx in enumerate(indices)}

    def entry(*parts: BasisIndex) -> QSqrt2:
        key = tuple(sorted(position[part] for part in parts))
        return vector[positions[key]]

    ratio_double = all(
        entry(BasisIndex.cov(i, i), BasisIndex.cov(i, i), BasisIndex.cov(i, i))
        == entry(BasisIndex.mean(i), BasisIndex.mean(i), BasisIndex.cov(i, i)) * 2
        for i in range(1, n + 1)
    )
    cert.record("ratio_diagonal_cube_is_doubled", ratio_double)

    ratio_mixed = all(
        entry(BasisIndex.mean(i), BasisIndex.mean(j), BasisIndex.cov(i, j))
        == entry(BasisIndex.mean(i), BasisIndex.mean(i), BasisIndex.cov(i, i))
        * HALF_SQRT2
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    )
    cert.record("ratio_mixed_pair_is_half_sqrt2", ratio_mixed)

    # scaling the generator by -sqrt2/2 must reproduce the cubic table
    # through the pairing C = -2 <K(., .), .>
    cubic = lie_algebra(n).cubic
    scaled = [v * AMARI_SCALE * (-2) for v in vector]
    cubic_ok = all(
        scaled[p] == cubic.item(*triple)
        for p, triple in enumerate(system.unknown_triples)
    )
    cert.record("cubic_table_reproduced", cubic_ok)

    cert.kernel = {
        _triple_label(n, triple): vector[p].to_string()
        for p, triple in enumerate(system.unknown_triples)
        if vector[p]
    }
    return cert


def solved_difference_tensor(cert: TheoremCertificate) -> SymTensor3:
    """Reconstruct the normalized kernel generator recorded in a certificate."""
    n = cert.n
    indices = basis_indices(n)
    position = {idx.label(): p for p, idx in enumerate(indices)}
    entries: dict[tuple[int, int, int], QSqrt2] = {}
    for label, value in cert.kernel.items():
        triple = tuple(sorted(position[part] for part in label.split("|")))
        entries[triple] = QSqrt2.parse(value)
    return SymTensor3.from_entries(n, entries)


def verify_theorem(n: int) -> TheoremCertificate:
    """Solve, then confirm the kernel line carries every certified property."""
    cert = solve(n)
    if not cert.passed:
        return cert

    generator = solved_difference_tensor(cert)
    amari = generator.scale(AMARI_SCALE)

    for alpha in VERIFY_ALPHAS:
        suite = predicate_suite(generator.scale(alpha))
        cert.record(f"conjugate_symmetric_alpha_{alpha}", suite.conjugate_symmetric)
        cert.record(f"predicates_agree_alpha_{alpha}", suite.all_true())

    cert.record(
        "dually_flat_plus", curvature(from_difference(amari)).is_zero()
    )
    cert.record(
        "dually_flat_minus",
        curvature(from_difference(amari.scale(-1))).is_zero(),
    )
    cert.record(
        "alpha_family_matches_levi_civita_offset",
        from_difference(amari) == alpha_connection(n, 1),
    )
    return cert


def perturbation_breaks_constraints(
    system: ConstraintSystem,
    vector: Sequence[QSqrt2],
    unit_positions: Iterable[int],
) -> bool:
    """True when adding any listed unit entry to ``vector`` violates at least
    one constraint row."""
    for p in unit_positions:
        perturbed = list(vector)
        perturbed[p] = perturbed[p] + ONE
        if system.satisfied_by(perturbed):
            return False
    return True
