"""The solvable group of triangular affine maps acting on normal parameters.

Elements are pairs (A, b) with A upper triangular with positive diagonal; the
action (A, b) . (Sigma, mu) = (A Sigma A^T, A mu + b) is simply transitive, and
the triangular Cholesky factorization identifies the group with the manifold.
Tangent vectors pull back along this identification to coefficient vectors
over the canonical orthonormal basis at the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import basis_units
from .manifold import SYMMETRY_TOL, ManifoldPoint, TangentVector, _as_float_array

#: squared-pivot threshold, relative to the largest diagonal entry of the
#: matrix, below which it is rejected as not positive definite for
#: factorization purposes
PIVOT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Pair (a, b): upper-triangular a with positive diagonal, translation b."""

    a: np.ndarray
    b: np.ndarray

    def __init__(self, a, b) -> None:
        a = _as_float_array(a, "a")
        b = _as_float_array(b, "b").reshape(-1)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
            raise ValueError("expected square matrix and matching vector")
        lower = np.tril(a, k=-1)
        if lower.size and float(np.max(np.abs(lower))) > SYMMETRY_TOL:
            raise ValueError("matrix part must be upper triangular")
        a = np.triu(a)
        if np.any(np.diag(a) <= 0.0):
            raise ValueError("diagonal entries must be positive")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    @classmethod
    def identity(cls, n: int) -> GroupElement:
        return cls(np.eye(n), np.zeros(n))


def group_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    """Block product (A, b)(A', b') = (A A', A b' + b)."""
    return GroupElement(g.a @ h.a, g.a @ h.b + g.b)


def group_inv(g: GroupElement) -> GroupElement:
    a_inv = np.linalg.solve(g.a, np.eye(g.n))
    return GroupElement(a_inv, -a_inv @ g.b)


def act(g: GroupElement, p: ManifoldPoint) -> ManifoldPoint:
    return ManifoldPoint(g.a @ p.sigma @ g.a.T, g.a @ p.mu + g.b)


def act_tangent(g: GroupElement, t: TangentVector) -> TangentVector:
    return TangentVector(g.a @ t.x @ g.a.T, g.a @ t.v)


def upper_cholesky(sigma: np.ndarray) -> np.ndarray:
    """Factor Sigma = A A^T with A upper triangular, positive diagonal.

    Computed by reversing the index order of the classical lower-triangular
    factorization; unique for positive definite input.
    """
    sigma = np.asarray(sigma, dtype=float)
    try:
        reversed_factor = np.linalg.cholesky(sigma[::-1, ::-1])
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc
    factor = reversed_factor[::-1, ::-1].copy()
    if np.any(np.diag(factor) ** 2 < PIVOT_TOL * np.max(np.diag(sigma))):
        raise ValueError("matrix is numerically singular")
    return factor


def phi(g: GroupElement) -> ManifoldPoint:
    """Identification of the group with the manifold: (A, b) -> (A A^T, b)."""
    return ManifoldPoint(g.a @ g.a.T, g.b)


def phi_inv(p: ManifoldPoint) -> GroupElement:
    return GroupElement(upper_cholesky(p.sigma), p.mu)


def pull_back_to_identity(p: ManifoldPoint, t: TangentVector) -> np.ndarray:
    """Coefficients of a tangent vector at p over the identity basis.

    Transports t to the identity with the inverse of the group element sitting
    over p, which p factors once and holds (``ManifoldPoint.to_identity``),
    then inverts the tangent identification: the triangular generator
    has the strict upper part of the transported X and half its diagonal, so
    the coefficient of e_a = E_a / sqrt2^deg(a) is the entry of [X | v] under
    the matrix unit E_a divided by sqrt2^deg(a).
    """
    moved = act_tangent(p.to_identity, t)
    rows, cols, degrees = basis_units(p.n)
    generator = np.hstack([moved.x, moved.v[:, None]])
    return generator[rows, cols] / math.sqrt(2.0) ** degrees
