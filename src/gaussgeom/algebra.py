"""Lie algebra of the triangular affine group acting on Gaussian parameters.

The canonical basis consists of mean directions e_i and covariance directions
e_ij (i <= j), realized as (n+1) x (n+1) matrices: e_i carries a single 1 in
the translation column, e_ij (i < j) a single 1 at (i, j), and e_ii the value
1/sqrt(2) at (i, i).  This normalization makes the basis orthonormal for the
inner product induced by the Fisher metric at the identity.

All structure constants are computed from matrix commutators, and the inner
product and cubic form are evaluated on the matrix representatives; the
closed-form tables these reproduce are pinned down in the test suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import (
    HALF_SQRT2,
    ONE,
    SQRT2,
    ZERO,
    ExactArray,
    QSqrt2,
    SparseEchelon,
)
from .tensors import ConnCoeffs

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


SparseMatrix = dict[tuple[int, int], QSqrt2]


@dataclass(frozen=True)
class BasisMatrix:
    """(n+1) x (n+1) matrix realization of a basis direction."""

    index: BasisIndex
    n: int
    nonzero: tuple[int, int, QSqrt2]  # 0-based (row, col, value)

    @property
    def size(self) -> int:
        return self.n + 1

    def sparse(self) -> SparseMatrix:
        r, c, v = self.nonzero
        return {(r, c): v}

    def entries(self) -> tuple[tuple[QSqrt2, ...], ...]:
        r0, c0, v = self.nonzero
        return tuple(
            tuple(v if (r, c) == (r0, c0) else ZERO for c in range(self.size))
            for r in range(self.size)
        )


def _basis_matrix(n: int, index: BasisIndex) -> BasisMatrix:
    if index.is_mean:
        return BasisMatrix(index, n, (index.i - 1, n, ONE))
    if index.i == index.j:
        return BasisMatrix(index, n, (index.i - 1, index.i - 1, HALF_SQRT2))
    return BasisMatrix(index, n, (index.i - 1, index.j - 1, ONE))


def basis(n: int) -> list[tuple[BasisIndex, BasisMatrix]]:
    """All basis directions of the algebra for a given n."""
    return [(idx, _basis_matrix(n, idx)) for idx in basis_indices(n)]


def _sparse_commutator(x: SparseMatrix, y: SparseMatrix) -> SparseMatrix:
    out: SparseMatrix = {}

    def accumulate(a: SparseMatrix, b: SparseMatrix, sign: int) -> None:
        for (i, j), u in a.items():
            for (k, l), v in b.items():
                if j != k:
                    continue
                acc = out.get((i, l), ZERO) + (u * v if sign > 0 else -(u * v))
                if acc:
                    out[(i, l)] = acc
                else:
                    out.pop((i, l), None)

    accumulate(x, y, +1)
    accumulate(y, x, -1)
    return out


class ClosureError(RuntimeError):
    """A computed matrix fell outside the span of the basis."""


def _expand_sparse(n: int, matrix: SparseMatrix) -> list[QSqrt2]:
    """Exact expansion of an algebra element in the canonical basis."""
    indices = basis_indices(n)
    position = {idx: p for p, idx in enumerate(indices)}
    coeffs = [ZERO] * len(indices)
    for (r, c), v in matrix.items():
        if not v:
            continue
        if c == n and r < n:
            coeffs[position[BasisIndex.mean(r + 1)]] = v
        elif r < n and c < n and r < c:
            coeffs[position[BasisIndex.cov(r + 1, c + 1)]] = v
        elif r < n and r == c:
            coeffs[position[BasisIndex.cov(r + 1, r + 1)]] = v * SQRT2
        else:
            raise ClosureError(f"entry at {(r, c)} outside the algebra span")
    return coeffs


def bracket(x: BasisMatrix, y: BasisMatrix) -> list[QSqrt2]:
    """Commutator of two basis matrices, expanded exactly in the basis."""
    if x.n != y.n:
        raise ValueError("basis matrices of different n")
    return _expand_sparse(x.n, _sparse_commutator(x.sparse(), y.sparse()))


# ---------------------------------------------------------------------------
# Inner product and cubic form on matrix representatives.
# ---------------------------------------------------------------------------


def _representative(mat: BasisMatrix) -> tuple[int | None, SparseMatrix]:
    """Split a basis matrix into (mean slot, symmetrized covariance part).

    The covariance part is the image U + U^T of the triangular block under the
    tangent identification with the Gaussian parameter space.
    """
    r, c, v = mat.nonzero
    if c == mat.n:
        return r, {}
    if r == c:
        return None, {(r, c): v * 2}
    return None, {(r, c): v, (c, r): v}


def _trace3(a: SparseMatrix, b: SparseMatrix, c: SparseMatrix) -> QSqrt2:
    total = ZERO
    for (i, j), u in a.items():
        for (k, l), v in b.items():
            if k != j:
                continue
            w = c.get((l, i))
            if w:
                total = total + u * v * w
    return total


def _inner_entry(x: BasisMatrix, y: BasisMatrix) -> QSqrt2:
    mx, hx = _representative(x)
    my, hy = _representative(y)
    if mx is not None and my is not None:
        return ONE if mx == my else ZERO
    if mx is not None or my is not None:
        return ZERO
    # tr(UV) + tr(UV^T) equals half the trace of the symmetrized product
    total = ZERO
    for (i, j), u in hx.items():
        v = hy.get((j, i))
        if v:
            total = total + u * v
    return total * Fraction(1, 2)


def _cubic_entry(x: BasisMatrix, y: BasisMatrix, z: BasisMatrix) -> QSqrt2:
    mx, hx = _representative(x)
    my, hy = _representative(y)
    mz, hz = _representative(z)
    means = [m for m in (mx, my, mz) if m is not None]
    if not means:
        return _trace3(hx, hy, hz)
    if len(means) == 2:
        # one covariance direction paired against two mean directions
        cov = hx or hy or hz
        return cov.get((means[0], means[1]), ZERO)
    return ZERO


# ---------------------------------------------------------------------------
# Tables, built once per n.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieAlgebra:
    """All exact tables of the algebra for a fixed n."""

    n: int
    indices: tuple[BasisIndex, ...]
    matrices: tuple[BasisMatrix, ...]
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

    def structure_sparse(self) -> dict[tuple[int, int], list[tuple[int, QSqrt2]]]:
        out: dict[tuple[int, int], list[tuple[int, QSqrt2]]] = {}
        for (a, b, g), v in self.structure.iter_items():
            if v:
                out.setdefault((a, b), []).append((g, v))
        return out


@lru_cache(maxsize=None)
def lie_algebra(n: int) -> LieAlgebra:
    if n < 1:
        raise ValueError("n must be at least 1")
    pairs = basis(n)
    indices = tuple(idx for idx, _ in pairs)
    matrices = tuple(mat for _, mat in pairs)
    d = len(indices)

    bracket_table = [[bracket(x, y) for y in matrices] for x in matrices]
    structure = ExactArray.build(
        (d, d, d), lambda idx: bracket_table[idx[0]][idx[1]][idx[2]]
    )

    gram = ExactArray.build(
        (d, d), lambda idx: _inner_entry(matrices[idx[0]], matrices[idx[1]])
    )
    if not gram == ExactArray.build((d, d), lambda idx: ONE if idx[0] == idx[1] else ZERO):
        raise RuntimeError("canonical basis failed orthonormality")

    cubic = ExactArray.build(
        (d, d, d),
        lambda idx: _cubic_entry(matrices[idx[0]], matrices[idx[1]], matrices[idx[2]]),
    )

    # 2 <U(x, y), z> = <[z, x], y> + <x, [z, y]> against an orthonormal basis;
    # as arrays U[x, y, z] = (structure[z, x, y] + structure[z, y, x]) / 2
    u_coeffs = (
        structure.transpose((1, 2, 0)) + structure.transpose((2, 1, 0))
    ).scale(Fraction(1, 2))

    levi = structure.scale(Fraction(1, 2)) + u_coeffs

    return LieAlgebra(
        n=n,
        indices=indices,
        matrices=matrices,
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


def levi_civita(n: int) -> ConnCoeffs:
    """Levi-Civita connection of the left-invariant metric, as coefficients."""
    return ConnCoeffs(n, lie_algebra(n).levi_civita)


def derived_series_dims(n: int) -> list[int]:
    """Dimensions of the derived series; ends at zero iff solvable."""
    alg = lie_algebra(n)
    d = alg.dim
    sparse_structure = alg.structure_sparse()

    def bracket_vectors(x: dict[int, QSqrt2], y: dict[int, QSqrt2]) -> dict[int, QSqrt2]:
        out: dict[int, QSqrt2] = {}
        for a, xa in x.items():
            for b, yb in y.items():
                for g, c in sparse_structure.get((a, b), ()):
                    acc = out.get(g, ZERO) + xa * yb * c
                    if acc:
                        out[g] = acc
                    else:
                        out.pop(g, None)
        return out

    current: list[dict[int, QSqrt2]] = [{i: ONE} for i in range(d)]
    dims = [d]
    for _ in range(d + 1):
        echelon = SparseEchelon(d)
        generators: list[dict[int, QSqrt2]] = []
        for i, x in enumerate(current):
            for y in current[i + 1 :]:
                z = bracket_vectors(x, y)
                if z and echelon.insert(z):
                    generators.append(z)
        dims.append(echelon.rank)
        current = generators
        if echelon.rank == 0:
            return dims
    raise RuntimeError("derived series did not terminate")

