"""Lie algebra of the triangular affine group acting on Gaussian parameters.

The canonical basis consists of mean directions e_i and covariance directions
e_ij (i <= j), realized as (n+1) x (n+1) matrices: e_i carries a single 1 in
the translation column, e_ij (i < j) a single 1 at (i, j), and e_ii the value
1/sqrt(2) at (i, i).  This normalization makes the basis orthonormal for the
inner product induced by the Fisher metric at the identity.

The tables are built in the sqrt2-graded basis: e_a = E_a / sqrt2^deg(a) with
E_a a 0/1 matrix unit and deg(a) = 1 for Cov(i,i), else 0.  The structure
constants, inner product and cubic form are int64 contractions of the matrix
units, each scaled entrywise by a power of sqrt2 only when it becomes an
exact array; the closed-form tables these reproduce are pinned down in the
test suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exact import ExactArray, QSqrt2, SparseEchelon

_LABEL_RE = re.compile(r"^(Mean|Cov)\((\d+)(?:,(\d+))?\)$")


@dataclass(frozen=True)
class BasisIndex:
    """Mean(i) or Cov(i, j) with 1-based indices and i <= j."""

    i: int
    j: int | None = None

    def __post_init__(self) -> None:
        if self.i < 1:
            raise ValueError("indices are 1-based")
        if self.j is not None and self.j < self.i:
            raise ValueError("covariance index requires i <= j")

    def sort_key(self) -> tuple[int, int, int]:
        # canonical order: all mean directions first, then covariance pairs
        if self.j is None:
            return (0, self.i, 0)
        return (1, self.i, self.j)

    def __lt__(self, other: BasisIndex) -> bool:
        return self.sort_key() < other.sort_key()

    @classmethod
    def mean(cls, i: int) -> BasisIndex:
        return cls(i)

    @classmethod
    def cov(cls, i: int, j: int) -> BasisIndex:
        return cls(i, j)

    @property
    def is_mean(self) -> bool:
        return self.j is None

    def label(self) -> str:
        if self.is_mean:
            return f"Mean({self.i})"
        return f"Cov({self.i},{self.j})"

    @classmethod
    def parse(cls, label: str) -> BasisIndex:
        m = _LABEL_RE.match(label.strip())
        if m is None:
            raise ValueError(f"not a basis label: {label!r}")
        kind, i, j = m.group(1), int(m.group(2)), m.group(3)
        if kind == "Mean":
            if j is not None:
                raise ValueError(f"not a basis label: {label!r}")
            return cls.mean(i)
        if j is None:
            raise ValueError(f"not a basis label: {label!r}")
        return cls.cov(i, int(j))


def basis_indices(n: int) -> tuple[BasisIndex, ...]:
    """Canonical order: Mean(1..n), then Cov(i,j) lexicographically."""
    if n < 1:
        raise ValueError("n must be at least 1")
    means = [BasisIndex.mean(i) for i in range(1, n + 1)]
    covs = [
        BasisIndex.cov(i, j)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    ]
    return tuple(means + covs)


@lru_cache(maxsize=None)
def basis_units(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only int arrays (rows, cols, degrees) in canonical order: e_a is
    E_a / sqrt2^degrees[a], E_a the 0/1 (n+1) x (n+1) matrix unit at
    (rows[a], cols[a]); column n is the translation column."""
    indices = basis_indices(n)
    rows = np.array([idx.i - 1 for idx in indices])
    cols = np.array([n if idx.is_mean else idx.j - 1 for idx in indices])
    # degree 1 exactly on the diagonal units Cov(i,i)
    degrees = (rows == cols).astype(np.int64)
    for part in (rows, cols, degrees):
        part.flags.writeable = False
    return rows, cols, degrees


class ClosureError(RuntimeError):
    """A computed matrix fell outside the span of the basis."""


def _sqrt2_scaled(table: np.ndarray, power: np.ndarray) -> ExactArray:
    """The integer ``table`` times sqrt2^``power``, entrywise, reduced."""
    return ExactArray(table, np.zeros_like(table), 1).times_sqrt2_powers(power)


def _commutator_table(units: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """[units[a], units[b]] at (rows[g], cols[g]) as an integer (a, b, g) table.

    Raises ClosureError if a commutator has a nonzero entry outside the
    support of the basis.
    """
    product = units[:, None] @ units
    commutator = product - product.transpose(1, 0, 2, 3)
    support = np.zeros(units.shape[1:], dtype=bool)
    support[rows, cols] = True
    if commutator[:, :, ~support].any():
        raise ClosureError("a commutator has an entry outside the algebra span")
    return commutator[:, :, rows, cols]


# ---------------------------------------------------------------------------
# Tables, built once per n.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieAlgebra:
    """All exact tables of the algebra for a fixed n."""

    n: int
    indices: tuple[BasisIndex, ...]
    degrees: tuple[int, ...]  # [a] -> sqrt2-degree: 1 for Cov(i,i), else 0
    commutators: np.ndarray  # [a, b, g] -> E_g coefficient of [E_a, E_b], int64
    structure: ExactArray  # [a, b, g] -> e_g coefficient of [e_a, e_b]
    gram: ExactArray  # [a, b] -> inner product (identity matrix)
    cubic: ExactArray  # [a, b, c] -> cubic form on basis directions
    u_coeffs: ExactArray  # [a, b, g] -> e_g coefficient of U(e_a, e_b)
    levi_civita: ExactArray  # [a, b, g] -> e_g coefficient of the derivative

    @property
    def dim(self) -> int:
        return len(self.indices)

    def position(self, index: BasisIndex) -> int:
        return self.indices.index(index)


@lru_cache(maxsize=None)
def lie_algebra(n: int) -> LieAlgebra:
    if n < 1:
        raise ValueError("n must be at least 1")
    indices = basis_indices(n)
    d = len(indices)
    rows, cols, deg = basis_units(n)
    units = np.zeros((d, n + 1, n + 1), dtype=np.int64)
    units[np.arange(d), rows, cols] = 1

    # [e_a, e_b] has e_g coefficient [E_a, E_b] at (rows[g], cols[g]) times
    # sqrt2^(deg g - deg a - deg b)
    commutators = _commutator_table(units, rows, cols)
    structure = _sqrt2_scaled(commutators, deg - deg[:, None, None] - deg[:, None])

    # At the identity, fisher_metric and amari_cubic of tangents (X, v) are
    # tr(A_s A_t) / 2 and tr(A_s A_t A_w) in A = [[X, v], [v^T, 0]]; for e_a,
    # A = (E_a + E_a^T) / sqrt2^deg(a)
    sym = units + units.transpose(0, 2, 1)
    pair_deg = deg[:, None] + deg
    gram = _sqrt2_scaled(np.einsum("aij,bji->ab", sym, sym), -2 - pair_deg)
    if not gram == ExactArray(np.eye(d, dtype=np.int64), np.zeros((d, d), dtype=np.int64), 1):
        raise RuntimeError("canonical basis failed orthonormality")

    # tr(A_a A_b A_c) = (A_a A_b)[cols c, rows c] + (A_a A_b)[rows c, cols c],
    # and (A_a A_b)^T = A_b A_a
    half = (sym[:, None] @ sym)[:, :, rows, cols]
    cubic = _sqrt2_scaled(half + half.transpose(1, 0, 2), -(pair_deg[:, :, None] + deg))

    # 2 <U(x, y), z> = <[z, x], y> + <x, [z, y]> against an orthonormal basis;
    # as arrays U[x, y, z] = (structure[z, x, y] + structure[z, y, x]) / 2
    u_coeffs = (
        structure.transpose((1, 2, 0)) + structure.transpose((2, 1, 0))
    ).scale(Fraction(1, 2))

    levi = structure.scale(Fraction(1, 2)) + u_coeffs

    return LieAlgebra(
        n=n,
        indices=indices,
        degrees=tuple(deg.tolist()),
        commutators=commutators,
        structure=structure,
        gram=gram,
        cubic=cubic,
        u_coeffs=u_coeffs,
        levi_civita=levi.reduced(),
    )


def inner(n: int, x: BasisIndex, y: BasisIndex) -> QSqrt2:
    alg = lie_algebra(n)
    return alg.gram.item(alg.position(x), alg.position(y))


def cubic(n: int, x: BasisIndex, y: BasisIndex, z: BasisIndex) -> QSqrt2:
    alg = lie_algebra(n)
    return alg.cubic.item(alg.position(x), alg.position(y), alg.position(z))


def u_map(n: int, x: BasisIndex, y: BasisIndex) -> list[QSqrt2]:
    alg = lie_algebra(n)
    a, b = alg.position(x), alg.position(y)
    return [alg.u_coeffs.item(a, b, g) for g in range(alg.dim)]


def derived_series_dims(n: int) -> list[int]:
    """Dimensions of the derived series; ends at zero iff solvable.

    Brackets the matrix units E_a, which span the same subspaces as the
    e_a = E_a / sqrt2^deg(a), in int64: a commutator of two of them is 0 or
    +-1 times one, so every generator is a 0/+-1 vector and nothing grows.
    """
    table = lie_algebra(n).commutators
    d = len(table)
    current = np.eye(d, dtype=np.int64)
    dims = [d]
    for _ in range(d + 1):
        # brackets[i, :, j] = [x_i, x_j] for the generators x = current
        brackets = np.tensordot(np.tensordot(current, table, ([1], [0])), current, ([1], [1]))
        first, second = np.triu_indices(len(current), 1)
        echelon = SparseEchelon(d)
        generators = [
            z
            for z in brackets[first, :, second]
            if echelon.insert({int(g): int(z[g]) for g in z.nonzero()[0]})
        ]
        dims.append(echelon.rank)
        if echelon.rank == 0:
            return dims
        current = np.array(generators)
    raise RuntimeError("derived series did not terminate")
