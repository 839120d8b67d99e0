"""Totally symmetric rank-3 tensors over a fixed orthonormal basis.

Indices are integer basis positions in the canonical order (mean directions
first, then covariance directions); the algebra module owns the labelling.
A symmetric rank-3 tensor keeps one ``ExactArray`` entry per unordered triple
and expands to the dense array by a gather.  Its text form, the certificate's
kernel map ``Label|Label|Label -> a/b + c/d*sqrt2``, is written only by
``SymTensor3.labelled`` and read only by ``SymTensor3.from_labels``.
Connections and curvatures are plain dense ``ExactArray``s of shape (d, d, d)
and (d, d, d, d); see ``connections``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .algebra import basis_labels
from .exact import ExactArray, QSqrt2, Rational, as_qsqrt2


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
def dense_positions(dim: int) -> np.ndarray:
    """(dim, dim, dim) table of the canonical position of each index's triple."""
    triples = np.array(symmetric_triples(dim))
    # every index is one of the 6 orderings of its sorted triple
    orderings = triples[:, list(itertools.permutations(range(3)))]
    table = np.empty((dim,) * 3, dtype=np.intp)
    table[tuple(orderings.T)] = np.arange(len(triples))
    table.flags.writeable = False
    return table


def triple_label(n: int, triple: Sequence[int]) -> str:
    """``Label|Label|Label`` of a basis triple, in the given order."""
    labels = basis_labels(n)
    return "|".join(labels[p] for p in triple)


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
        """Zero except at the given entries, whose triples may be in any order."""
        dim = basis_dimension(n)
        table = dense_positions(dim)
        by_position = {int(table[t]): as_qsqrt2(v) for t, v in entries.items()}
        values = list(by_position.values())
        given = ExactArray.build((len(values),), lambda idx: values[idx[0]])
        parts = np.zeros((2, len(symmetric_triples(dim))), dtype=given.parts.dtype)
        parts[:, list(by_position)] = given.parts
        return cls(n, ExactArray(parts, given.den))

    @classmethod
    def from_labels(cls, n: int, labelled: Mapping[str, str]) -> SymTensor3:
        """Read a ``labelled()`` map, zero at every triple it leaves out.

        The three parts of a label may come in any order.  Raises ValueError,
        naming the label, on an unknown or ill-formed label, a value that is
        not a ``QSqrt2.parse`` string, or a second label of one triple.
        """
        position = {label: p for p, label in enumerate(basis_labels(n))}
        entries: dict[tuple[int, int, int], QSqrt2] = {}
        for label, text in labelled.items():
            parts = label.split("|")
            if len(parts) != 3 or any(part not in position for part in parts):
                raise ValueError(f"not a kernel label for n={n}: {label!r}")
            triple = tuple(sorted(position[part] for part in parts))
            if triple in entries:
                raise ValueError(f"kernel label {label} repeats a triple named before it")
            if not isinstance(text, str):
                raise ValueError(f"kernel value of {label} is not a string: {text!r}")
            try:
                entries[triple] = QSqrt2.parse(text)
            except ValueError as exc:
                raise ValueError(f"kernel value of {label}: {exc}") from None
        return cls.from_entries(n, entries)

    def labelled(self) -> dict[str, str]:
        """Each nonzero entry as canonical ``Label|Label|Label`` -> ``a/b + c/d*sqrt2``."""
        return {triple_label(self.n, t): v.to_string() for t, v in self.nonzero_items()}

    @classmethod
    def from_vector(cls, n: int, vector: Sequence[QSqrt2]) -> SymTensor3:
        return cls(n, ExactArray.build((len(vector),), lambda idx: vector[idx[0]]))

    @classmethod
    def from_dense(cls, n: int, dense: ExactArray) -> SymTensor3:
        i, j, k = np.array(symmetric_triples(basis_dimension(n))).T
        return cls(n, ExactArray(dense.parts[:, i, j, k], dense.den).reduced())

    def get(self, i: int, j: int, k: int) -> QSqrt2:
        return self.canonical.item(dense_positions(self.dim)[i, j, k])

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
        """Dense (d, d, d) array, gathered from the canonical entries into
        C-ordered parts."""
        table = dense_positions(self.dim)
        # take keeps the part axis outermost; a fancy index would leave it
        # innermost, which slows every later reduction over it
        return ExactArray(self.canonical.parts.take(table, axis=1), self.canonical.den)

    def is_zero(self) -> bool:
        return self.canonical.is_zero()
