"""Left-invariant statistical connections as exact coefficient arrays.

A connection is determined by its coefficients at the identity: a (d, d, d)
``ExactArray`` whose entry [a, b, g] is the e_g component of the covariant
derivative of e_b along e_a.  Its curvature is a (d, d, d, d) ``ExactArray``
whose entry [a, b, g, d] is the e_d component of R(e_a, e_b) e_g.
Torsion-free metric connections correspond to totally symmetric difference
tensors K via coefficients = (Levi-Civita) + K, and every such structure
carries a cubic form C = -2 <K(., .), .>.  This module implements
conjugation, curvature, the covariant derivatives of K and C, and the
conjugate-symmetry predicate, all in exact arithmetic.  Each (d, d, d, d)
formula is written once, as the (products, terms) of one
``exact.contraction_sum`` of transposed products.  On the alpha family its
operands (LC, the structure constants, K) are sparse enough that the sum
runs over contributing entry pairs alone; on a dense K it runs as BLAS
products.  The index work of a sparse sum (which pairs meet, where each
lands) depends on the operands' nonzero pattern alone, and LC + alpha K
has one pattern for every alpha but 0 and +-1, so ``exact`` plans it once
per pattern and every later call along the line runs only the numeric
phase.  A sparse sum comes back as its nonzero entries alone: a curvature
is compared, tested for zero, transposed and listed entry by entry without
its d^4 parts being built, so the identity R = R* on the family compares
two lists of a few thousand entries.  ``predicate_suite`` decides the four characterizations at one K as
four ``exact.contraction_vanishes`` tests of those formulas (R - R*,
written in the two products of R alone, and each derivative minus its
transpose in the first pair), with no d^4 result array;
``alpha_family_verdicts`` decides them along a whole line LC + alpha K from
tensors that do not depend on alpha.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import lie_algebra
from .exact import ExactArray, QSqrt2, Rational, as_qsqrt2, contraction_sum, contraction_vanishes
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


def _curvature_formula(gamma: ExactArray):
    """(products, terms) of ``curvature(gamma)`` for ``exact.contraction_sum``."""
    structure = lie_algebra(basis_order(gamma.shape[0])).structure
    return (
        [
            (gamma, gamma, ([2], [1])),  # prod[x,y,z,w] = G[x,y,e] G[z,e,w]
            (structure, gamma, ([2], [0])),  # the bracket term
        ],
        [
            (-1, 1, None),
            (1, 0, (2, 0, 1, 3)),  # [a,b,g,d] = prod[b,g,a,d]
            (-1, 0, (0, 2, 1, 3)),  # [a,b,g,d] = prod[a,g,b,d]
        ],
    )


def curvature(gamma: ExactArray) -> ExactArray:
    """Curvature R(x, y)z = D_x D_y z - D_y D_x z - D_[x,y] z on
    left-invariant fields, as exact coefficients."""
    return contraction_sum(*_curvature_formula(gamma))


def _conjugate_gap(gamma: ExactArray):
    """(products, terms) of R(gamma) - R(conjugate(gamma)), from the two
    products of ``curvature(gamma)`` alone.

    With conjugate(gamma)[a, b, g] = -gamma[a, g, b], the products of the
    conjugate's curvature are those of gamma's transposed: writing
    P = gamma.gamma and Q = structure.gamma as in ``_curvature_formula``,
    (conjugate . conjugate)[x, y, z, w] = P[z, w, x, y] and
    (structure . conjugate)[x, y, z, w] = -Q[x, y, w, z].  So the gap is the
    curvature's terms minus R* written in P and Q, and no conjugate array is
    built.
    """
    products, terms = _curvature_formula(gamma)
    return products, terms + [
        (-1, 1, (0, 1, 3, 2)),  # [a,b,g,d] = -Q[a,b,d,g], the bracket term
        (-1, 0, (0, 2, 3, 1)),  # [a,b,g,d] = -P[a,d,b,g]
        (1, 0, (2, 0, 3, 1)),  # [a,b,g,d] = P[b,d,a,g]
    ]


def is_conjugate_symmetric(gamma: ExactArray) -> bool:
    """Whether the curvature equals the curvature of the conjugate."""
    return contraction_vanishes(*_conjugate_gap(gamma))


def _difference_formula(k: SymTensor3):
    """(products, terms) of ``lc_difference_derivative(k)``."""
    hat = lie_algebra(k.n).levi_civita
    dense = k.to_exact_array()
    # K is symmetric, so hat contracted with K's slot 1 is hat contracted
    # with its slot 0, middle slots swapped
    return (
        [(dense, hat, ([2], [1])), (hat, dense, ([2], [0]))],
        [(-1, 1, None), (1, 0, (2, 0, 1, 3)), (-1, 1, (0, 2, 1, 3))],
    )


def lc_difference_derivative(k: SymTensor3) -> ExactArray:
    """Levi-Civita covariant derivative of the difference tensor.

    Shape (d, d, d, d); entry [a, b, g, d] is the e_d component of
    (D_a K)(b, g).
    """
    return contraction_sum(*_difference_formula(k))


def _cubic_formula(gamma: ExactArray, cubic: ExactArray):
    """(products, terms) of ``_cubic_derivative(gamma, cubic)``; raises
    ``ArithmeticError`` unless ``cubic`` is totally symmetric."""
    # (D_a C)(b, g, d) for a left-invariant, totally symmetric (0,3)-tensor
    # C: gamma contracted with any slot of C is the same product, so the
    # terms for slots 1 and 2 are transposes of the term for slot 0
    if not cubic == cubic.transpose((1, 0, 2)) == cubic.transpose((0, 2, 1)):
        raise ArithmeticError("cubic form is not totally symmetric")
    return (
        [(gamma, cubic, ([2], [0]))],
        [(-1, 0, None), (-1, 0, (0, 2, 1, 3)), (-1, 0, (0, 2, 3, 1))],
    )


def _cubic_derivative(gamma: ExactArray, cubic: ExactArray) -> ExactArray:
    return contraction_sum(*_cubic_formula(gamma, cubic))


def connection_cubic_derivative(k: SymTensor3) -> ExactArray:
    """Covariant derivative of the cubic form along the connection built
    from k itself."""
    return _cubic_derivative(from_difference(k), k.to_exact_array().scale(-2))


def lc_cubic_derivative(k: SymTensor3) -> ExactArray:
    """Covariant derivative of the cubic form along the Levi-Civita
    connection."""
    return _cubic_derivative(lie_algebra(k.n).levi_civita, k.to_exact_array().scale(-2))


def _symmetric_in_first_pair(t: ExactArray) -> bool:
    # the remaining slots are symmetric by construction, so symmetry in the
    # first two indices is full total symmetry
    return t == t.transpose((1, 0, 2, 3))


def _first_pair_antisymmetric(formula):
    """(products, terms) of t - t.transpose((1, 0, 2, 3)), t the sum of
    ``formula``: each term, and each term negated with the first two
    entries of its perm swapped."""
    products, terms = formula
    swapped = [
        (-sign, index, (1, 0, 2, 3) if perm is None else (perm[1], perm[0], *perm[2:]))
        for sign, index, perm in terms
    ]
    return products, terms + swapped


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
    """Evaluate the four characterizations for the structure built from k,
    each as one exact vanishing test, with no (d, d, d, d) result array."""
    gamma = from_difference(k)
    cubic = k.to_exact_array().scale(-2)
    hat = lie_algebra(k.n).levi_civita
    # the three derivatives in PredicateSuite's field order
    derivatives = (_cubic_formula(gamma, cubic), _cubic_formula(hat, cubic), _difference_formula(k))
    return PredicateSuite(
        is_conjugate_symmetric(gamma),
        *(contraction_vanishes(*_first_pair_antisymmetric(formula)) for formula in derivatives),
    )


@dataclass(frozen=True)
class AlphaFamilyVerdicts:
    """The predicate suites of LC + alpha K, one per alpha in the order given,
    and whether LC + c K and LC - c K are flat."""

    suites: tuple[PredicateSuite, ...]
    dually_flat_plus: bool
    dually_flat_minus: bool


def alpha_family_verdicts(
    k: SymTensor3, alphas: Sequence[QSqrt2 | Rational], flat_scale: QSqrt2 | Rational
) -> AlphaFamilyVerdicts:
    """``predicate_suite(k.scale(alpha))`` for every alpha, and the flatness of
    ``from_difference(k.scale(c))`` and ``from_difference(k.scale(-c))`` for
    c = ``flat_scale``, computed from two curvatures.

    Write G(s) = LC + s K.  The Levi-Civita table is metric, i.e.
    conjugate(LC) == LC (checked here exactly, never assumed), and K is
    symmetric, so conjugate(G(s)) = G(-s) and R*(s) = R(-s).  The curvature
    is quadratic in s, R(s) = R0 + s R1 + s^2 R2, hence
    R(s) - R*(s) = R(s) - R(-s) = 2 s R1: conjugate symmetry holds at s = 0
    and, at every s != 0, exactly when R1 = 0, that is when R(c) == R(-c).
    Those two curvatures also decide the flatness verdicts.

    The cubic derivative along G(s) of C(s) = -2 s K has first-pair
    antisymmetric part s A1 + s^2 A2, with A1 that part of the Levi-Civita
    cubic derivative of K and A2 that of the derivative of -2K along K; it
    vanishes exactly when s = 0 or A1 + s A2 = 0.  Both Levi-Civita
    derivatives are linear in s, so each is s times its value at K.  Every
    verdict is exact at every alpha, including alpha = 0.
    """
    if not flat_scale:
        raise ValueError("the flat scale must be nonzero")
    hat = lie_algebra(k.n).levi_civita
    if conjugate(hat) != hat:
        raise ArithmeticError("Levi-Civita table is not metric: conjugate(LC) != LC")

    # sparse-pass curvatures (the alpha family's) hold their nonzero entries
    # alone, and these verdicts read no more; a dense one is dropped as soon
    # as its verdicts are read
    plus = curvature(from_difference(k.scale(flat_scale)))
    minus = curvature(from_difference(k.scale(-flat_scale)))
    flat_plus, flat_minus, r1_zero = plus.is_zero(), minus.is_zero(), plus == minus
    del plus, minus
    lc_difference_ok = _symmetric_in_first_pair(lc_difference_derivative(k))
    dense = k.to_exact_array()
    quadratic = _cubic_derivative(dense, dense.scale(-2))
    if _symmetric_in_first_pair(quadratic):
        # A2 = 0, so the verdict at every alpha != 0 is A1 = 0; this holds
        # for every symmetric K on the orthonormal basis, but is not assumed
        quadratic = None
    linear = lc_cubic_derivative(k)
    lc_cubic_ok = _symmetric_in_first_pair(linear)

    suites = []
    for alpha in alphas:
        if not alpha:
            suites.append(PredicateSuite(True, True, True, True))
            continue
        cubic_ok = (
            lc_cubic_ok
            if quadratic is None
            else _symmetric_in_first_pair(linear + quadratic.scale(alpha))
        )
        suites.append(PredicateSuite(r1_zero, cubic_ok, lc_cubic_ok, lc_difference_ok))
    return AlphaFamilyVerdicts(tuple(suites), flat_plus, flat_minus)
