"""Totally symmetric rank-3 tensors over a fixed orthonormal basis.

Indices are integer basis positions in the canonical order (mean directions
first, then covariance directions); the algebra module owns the labelling.
A symmetric rank-3 tensor keeps one ``ExactArray`` entry per unordered triple
and expands to the dense array by a gather.  Connections and curvatures are
plain dense ``ExactArray``s of shape (d, d, d) and (d, d, d, d); see
``connections``.
"""

from __future__ import annotations

import math
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


def basis_order(dim: int) -> int:
    """The n whose basis has ``dim`` = n(n+3)/2 directions."""
    n = (math.isqrt(9 + 8 * dim) - 3) // 2 if dim > 0 else 0
    if n < 1 or basis_dimension(n) != dim:
        raise ValueError(f"{dim} is not a basis dimension n(n+3)/2")
    return n


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
def dense_positions(dim: int) -> np.ndarray:
    """(dim, dim, dim) table of the canonical position of each index's triple."""
    pos = triple_positions(dim)
    table = np.empty((dim,) * 3, dtype=np.intp)
    for idx in np.ndindex(*table.shape):
        table[idx] = pos[tuple(sorted(idx))]
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class SymTensor3:
    """Totally symmetric rank-3 tensor stored once per unordered triple.

    ``canonical`` is a reduced 1-D ``ExactArray`` over ``symmetric_triples``,
    so scaling, addition and the dense expansion are integer array
    operations; ``values`` reads it back as ``QSqrt2`` scalars.
    """

    n: int
    canonical: ExactArray

    def __post_init__(self) -> None:
        expected = len(symmetric_triples(basis_dimension(self.n)))
        shape = self.canonical.shape if isinstance(self.canonical, ExactArray) else None
        if shape != (expected,):
            raise ValueError(f"expected {expected} canonical triples, got {shape}")

    @property
    def dim(self) -> int:
        return basis_dimension(self.n)

    @property
    def values(self) -> tuple[QSqrt2, ...]:
        return tuple(self.canonical.item(p) for p in range(self.canonical.shape[0]))

    @classmethod
    def zeros(cls, n: int) -> SymTensor3:
        return cls(n, ExactArray.zeros((len(symmetric_triples(basis_dimension(n))),)))

    @classmethod
    def from_entries(
        cls, n: int, entries: Mapping[tuple[int, int, int], QSqrt2 | Rational]
    ) -> SymTensor3:
        pos = triple_positions(basis_dimension(n))
        by_position = {pos[tuple(sorted(t))]: value for t, value in entries.items()}
        return cls(
            n,
            ExactArray.build(
                (len(pos),), lambda idx: as_qsqrt2(by_position.get(idx[0], ZERO))
            ),
        )

    @classmethod
    def from_vector(cls, n: int, vector: Sequence[QSqrt2]) -> SymTensor3:
        return cls(n, ExactArray.build((len(vector),), lambda idx: vector[idx[0]]))

    @classmethod
    def from_dense(cls, n: int, dense: ExactArray) -> SymTensor3:
        i, j, k = np.array(symmetric_triples(basis_dimension(n))).T
        return cls(
            n, ExactArray(dense.rat[i, j, k], dense.irr[i, j, k], dense.den).reduced()
        )

    def get(self, i: int, j: int, k: int) -> QSqrt2:
        return self.canonical.item(triple_positions(self.dim)[tuple(sorted((i, j, k)))])

    def scale(self, factor: QSqrt2 | Rational) -> SymTensor3:
        return SymTensor3(self.n, self.canonical.scale(factor))

    def __add__(self, other: SymTensor3) -> SymTensor3:
        if self.n != other.n:
            raise ValueError("mismatched bases")
        return SymTensor3(self.n, (self.canonical + other.canonical).reduced())

    def nonzero_items(self) -> list[tuple[tuple[int, int, int], QSqrt2]]:
        triples = symmetric_triples(self.dim)
        return [(triples[p], v) for (p,), v in self.canonical.nonzero_items()]

    def to_exact_array(self) -> ExactArray:
        """Dense (d, d, d) array, gathered from the canonical entries."""
        table = dense_positions(self.dim)
        c = self.canonical
        return ExactArray(c.rat[table], c.irr[table], c.den)

    def is_zero(self) -> bool:
        return self.canonical.is_zero()
