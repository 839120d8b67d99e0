"""Left-invariant statistical connections as exact coefficient arrays.

A connection is determined by its coefficients at the identity: a (d, d, d)
``ExactArray`` whose entry [a, b, g] is the e_g component of the covariant
derivative of e_b along e_a.  Its curvature is a (d, d, d, d) ``ExactArray``
whose entry [a, b, g, d] is the e_d component of R(e_a, e_b) e_g.
Torsion-free metric connections correspond to totally symmetric difference
tensors K via coefficients = (Levi-Civita) + K, and every such structure
carries a cubic form C = -2 <K(., .), .>.  This module implements
conjugation, curvature, the covariant derivatives of K and C, and the
conjugate-symmetry predicate, all in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import lie_algebra
from .exact import ExactArray, QSqrt2, Rational, as_qsqrt2
from .tensors import SymTensor3, basis_order


@lru_cache(maxsize=None)
def amari_difference(n: int) -> SymTensor3:
    """Difference tensor of the Amari-Chentsov connection: K = -C/2 with C
    the cubic form on the orthonormal basis."""
    return SymTensor3.from_dense(n, lie_algebra(n).cubic.scale(Fraction(-1, 2)))


def from_difference(k: SymTensor3) -> ExactArray:
    """Connection coefficients (Levi-Civita) + K for a symmetric K."""
    return lie_algebra(k.n).levi_civita + k.to_exact_array()


def alpha_connection(n: int, alpha: QSqrt2 | Rational) -> ExactArray:
    """Member of the Amari-Chentsov family: Levi-Civita + alpha * K."""
    return from_difference(amari_difference(n).scale(as_qsqrt2(alpha)))


def conjugate(gamma: ExactArray) -> ExactArray:
    """Conjugate connection with respect to the left-invariant metric.

    For left-invariant data the defining relation
    X g(Y, Z) = g(D_X Y, Z) + g(Y, D*_X Z) has vanishing left side, so the
    conjugate coefficients are entry[a, b, g] = -entry[a, g, b].
    """
    return -gamma.transpose((0, 2, 1))


def curvature(gamma: ExactArray) -> ExactArray:
    """Curvature R(x, y)z = D_x D_y z - D_y D_x z - D_[x,y] z on
    left-invariant fields, as exact coefficients."""
    structure = lie_algebra(basis_order(gamma.shape[0])).structure
    prod = gamma.tensordot(gamma, axes=([2], [1]))  # [x,y,z,w] = G[x,y,e) G[z,e,w]
    term_xy = prod.transpose((2, 0, 1, 3))  # [a,b,g,d] = prod[b,g,a,d]
    term_yx = prod.transpose((0, 2, 1, 3))  # [a,b,g,d] = prod[a,g,b,d]
    term_bracket = structure.tensordot(gamma, axes=([2], [0]))
    return (term_xy - term_yx - term_bracket).reduced()


def is_conjugate_symmetric(gamma: ExactArray) -> bool:
    """Whether the curvature equals the curvature of the conjugate."""
    return curvature(gamma) == curvature(conjugate(gamma))


def lc_difference_derivative(k: SymTensor3) -> ExactArray:
    """Levi-Civita covariant derivative of the difference tensor.

    Shape (d, d, d, d); entry [a, b, g, d] is the e_d component of
    (D_a K)(b, g).
    """
    hat = lie_algebra(k.n).levi_civita
    dense = k.to_exact_array()
    t1 = dense.tensordot(hat, axes=([2], [1])).transpose((2, 0, 1, 3))
    t2 = hat.tensordot(dense, axes=([2], [0]))
    t3 = hat.tensordot(dense, axes=([2], [1])).transpose((0, 2, 1, 3))
    return (t1 - t2 - t3).reduced()


def _cubic_derivative(gamma: ExactArray, cubic: ExactArray) -> ExactArray:
    # (D_a C)(b, g, d) for a left-invariant (0,3)-tensor C
    t1 = gamma.tensordot(cubic, axes=([2], [0]))
    t2 = gamma.tensordot(cubic, axes=([2], [1])).transpose((0, 2, 1, 3))
    t3 = gamma.tensordot(cubic, axes=([2], [2])).transpose((0, 2, 3, 1))
    return -(t1 + t2 + t3)


def connection_cubic_derivative(k: SymTensor3) -> ExactArray:
    """Covariant derivative of the cubic form along the connection built
    from k itself."""
    gamma = from_difference(k)
    cubic = k.to_exact_array().scale(-2)
    return _cubic_derivative(gamma, cubic).reduced()


def lc_cubic_derivative(k: SymTensor3) -> ExactArray:
    """Covariant derivative of the cubic form along the Levi-Civita
    connection."""
    hat = lie_algebra(k.n).levi_civita
    cubic = k.to_exact_array().scale(-2)
    return _cubic_derivative(hat, cubic).reduced()


def _symmetric_in_first_pair(t: ExactArray) -> bool:
    # the remaining slots are symmetric by construction, so symmetry in the
    # first two indices is full total symmetry
    return t == t.transpose((1, 0, 2, 3))


@dataclass(frozen=True)
class PredicateSuite:
    """The four equivalent characterizations, evaluated independently."""

    conjugate_symmetric: bool
    cubic_derivative_symmetric: bool
    lc_cubic_derivative_symmetric: bool
    lc_difference_derivative_symmetric: bool

    def as_tuple(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.conjugate_symmetric,
            self.cubic_derivative_symmetric,
            self.lc_cubic_derivative_symmetric,
            self.lc_difference_derivative_symmetric,
        )

    def agree(self) -> bool:
        return len(set(self.as_tuple())) == 1

    def all_true(self) -> bool:
        return all(self.as_tuple())


def predicate_suite(k: SymTensor3) -> PredicateSuite:
    """Evaluate the four characterizations for the structure built from k."""
    return PredicateSuite(
        conjugate_symmetric=is_conjugate_symmetric(from_difference(k)),
        cubic_derivative_symmetric=_symmetric_in_first_pair(
            connection_cubic_derivative(k)
        ),
        lc_cubic_derivative_symmetric=_symmetric_in_first_pair(
            lc_cubic_derivative(k)
        ),
        lc_difference_derivative_symmetric=_symmetric_in_first_pair(
            lc_difference_derivative(k)
        ),
    )
