"""Exact rank-3 and rank-4 tensor containers over a fixed orthonormal basis.

Indices are integer basis positions in the canonical order (mean directions
first, then covariance directions); the algebra module owns the labelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .exact import ZERO, ExactArray, QSqrt2, Rational, as_qsqrt2


def basis_dimension(n: int) -> int:
    """Number of basis directions: n means plus n(n+1)/2 covariances."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return n + n * (n + 1) // 2


@lru_cache(maxsize=None)
def symmetric_triples(dim: int) -> tuple[tuple[int, int, int], ...]:
    """Unordered basis triples i <= j <= k in lexicographic order."""
    return tuple(
        (i, j, k)
        for i in range(dim)
        for j in range(i, dim)
        for k in range(j, dim)
    )


@lru_cache(maxsize=None)
def triple_positions(dim: int) -> dict[tuple[int, int, int], int]:
    return {t: p for p, t in enumerate(symmetric_triples(dim))}


@lru_cache(maxsize=None)
def _dense_positions(dim: int) -> np.ndarray:
    """(dim, dim, dim) table of the canonical position of each index's triple."""
    pos = triple_positions(dim)
    table = np.empty((dim,) * 3, dtype=np.intp)
    for idx in np.ndindex(*table.shape):
        table[idx] = pos[tuple(sorted(idx))]
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class SymTensor3:
    """Totally symmetric rank-3 tensor stored once per unordered triple."""

    n: int
    values: tuple[QSqrt2, ...]

    def __post_init__(self) -> None:
        expected = len(symmetric_triples(basis_dimension(self.n)))
        if len(self.values) != expected:
            raise ValueError(
                f"expected {expected} canonical triples, got {len(self.values)}"
            )

    @property
    def dim(self) -> int:
        return basis_dimension(self.n)

    @classmethod
    def zeros(cls, n: int) -> SymTensor3:
        return cls(n, (ZERO,) * len(symmetric_triples(basis_dimension(n))))

    @classmethod
    def from_entries(
        cls, n: int, entries: Mapping[tuple[int, int, int], QSqrt2 | Rational]
    ) -> SymTensor3:
        dim = basis_dimension(n)
        values = [ZERO] * len(symmetric_triples(dim))
        pos = triple_positions(dim)
        for triple, value in entries.items():
            values[pos[tuple(sorted(triple))]] = as_qsqrt2(value)
        return cls(n, tuple(values))

    @classmethod
    def from_vector(cls, n: int, vector: Sequence[QSqrt2]) -> SymTensor3:
        return cls(n, tuple(vector))

    @classmethod
    def from_dense(cls, n: int, dense: ExactArray) -> SymTensor3:
        return cls(
            n,
            tuple(dense.item(*t) for t in symmetric_triples(basis_dimension(n))),
        )

    def get(self, i: int, j: int, k: int) -> QSqrt2:
        key = tuple(sorted((i, j, k)))
        return self.values[triple_positions(self.dim)[key]]

    def scale(self, factor: QSqrt2 | Rational) -> SymTensor3:
        q = as_qsqrt2(factor)
        return SymTensor3(self.n, tuple(v * q for v in self.values))

    def __add__(self, other: SymTensor3) -> SymTensor3:
        if self.n != other.n:
            raise ValueError("mismatched bases")
        return SymTensor3(
            self.n, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def nonzero_items(self) -> list[tuple[tuple[int, int, int], QSqrt2]]:
        triples = symmetric_triples(self.dim)
        return [(triples[p], v) for p, v in enumerate(self.values) if v]

    def to_exact_array(self) -> ExactArray:
        """Dense (d, d, d) array, gathered from the canonical values."""
        values = self.values
        canonical = ExactArray.build((len(values),), lambda idx: values[idx[0]])
        table = _dense_positions(self.dim)
        return ExactArray(canonical.rat[table], canonical.irr[table], canonical.den)

    def is_zero(self) -> bool:
        return not any(self.values)


@dataclass(frozen=True)
class ConnCoeffs:
    """Coefficients of a left-invariant connection over the canonical basis.

    ``coeffs`` has shape (d, d, d); entry [a, b, g] is the e_g component of
    the covariant derivative of e_b along e_a.
    """

    n: int
    coeffs: ExactArray

    @property
    def dim(self) -> int:
        return basis_dimension(self.n)

    def entry(self, a: int, b: int, g: int) -> QSqrt2:
        return self.coeffs.item(a, b, g)

    def torsion_defect(self, structure: ExactArray) -> ExactArray:
        """Antisymmetrized coefficients minus structure constants; zero iff
        the connection is torsion free."""
        return self.coeffs - self.coeffs.transpose((1, 0, 2)) - structure

    def nonzero_items(self) -> list[tuple[tuple[int, int, int], QSqrt2]]:
        return [(idx, v) for idx, v in self.coeffs.iter_items() if v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConnCoeffs):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs


@dataclass(frozen=True)
class CurvatureTensor:
    """Curvature coefficients; entry [a, b, g, d] is the e_d component of
    R(e_a, e_b) e_g."""

    n: int
    values: ExactArray

    @property
    def dim(self) -> int:
        return basis_dimension(self.n)

    def entry(self, a: int, b: int, g: int, d: int) -> QSqrt2:
        return self.values.item(a, b, g, d)

    def is_zero(self) -> bool:
        return self.values.is_zero()

    def is_antisymmetric(self) -> bool:
        return self.values == -self.values.transpose((1, 0, 2, 3))

    def nonzero_items(self) -> list[tuple[tuple[int, int, int, int], QSqrt2]]:
        return [(idx, v) for idx, v in self.values.iter_items() if v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CurvatureTensor):
            return NotImplemented
        return self.n == other.n and self.values == other.values
