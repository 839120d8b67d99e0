from __future__ import annotations

from fractions import Fraction

import pytest

from gaussgeom.algebra import (
    BasisIndex,
    basis_indices,
    cubic,
    derived_series_dims,
    inner,
    lie_algebra,
    u_map,
)
from gaussgeom.exact import ONE, SQRT2, ZERO, ExactArray, QSqrt2

INV_SQRT2 = QSqrt2(0, Fraction(1, 2))  # 1/sqrt(2)
HALF = QSqrt2(Fraction(1, 2))
QUARTER_SQRT2 = QSqrt2(0, Fraction(1, 4))  # 1/(2 sqrt(2))


def mean(i):
    return BasisIndex.mean(i)


def cov(i, j):
    return BasisIndex.cov(i, j)


def bracket(n: int, x: BasisIndex, y: BasisIndex) -> list[QSqrt2]:
    """Coefficients of [x, y] in the canonical basis, read from the table."""
    alg = lie_algebra(n)
    a, b = alg.position(x), alg.position(y)
    return [alg.structure.item(a, b, g) for g in range(alg.dim)]


# --- closed-form tables used as oracles --------------------------------------


def expected_bracket(x: BasisIndex, y: BasisIndex) -> dict[BasisIndex, QSqrt2]:
    """Nonzero commutators among basis directions (antisymmetric closure)."""
    if x.is_mean and not y.is_mean:
        i, (k, l) = x.i, (y.i, y.j)
        if k == l == i:
            return {mean(i): -INV_SQRT2}
        if l == i and k < l:
            return {mean(k): -ONE}
        return {}
    if not x.is_mean and y.is_mean:
        return {k: -v for k, v in expected_bracket(y, x).items()}
    if x.is_mean and y.is_mean:
        return {}
    (i, j), (k, l) = (x.i, x.j), (y.i, y.j)
    if i == j:  # diagonal on the left
        if k == i and k < l:
            return {cov(k, l): INV_SQRT2}
        if l == i and k < l:
            return {cov(k, l): -INV_SQRT2}
        return {}
    if k == l:
        if k == j:
            return {cov(i, j): INV_SQRT2}
        if k == i:
            return {cov(i, j): -INV_SQRT2}
        return {}
    if j == k:  # chain i<j=k<l
        return {cov(i, l): ONE}
    if l == i:
        return {cov(k, j): -ONE}
    return {}


def expected_u(x: BasisIndex, y: BasisIndex) -> dict[BasisIndex, QSqrt2]:
    if y < x:
        x, y = y, x
    if x.is_mean and y.is_mean:
        i, j = x.i, y.i
        if i == j:
            return {cov(i, i): INV_SQRT2}
        return {cov(i, j): HALF}
    if x.is_mean and not y.is_mean:
        i, (k, l) = x.i, (y.i, y.j)
        if k == l == i:
            return {mean(i): -QUARTER_SQRT2}
        if k == i and k < l:
            return {mean(l): -HALF}
        return {}
    (i, j), (k, l) = (x.i, x.j), (y.i, y.j)
    if (i, j) == (k, l):
        if i == j:
            return {}
        return {cov(i, i): INV_SQRT2, cov(j, j): -INV_SQRT2}
    if i == j:  # diagonal first
        if k == i and k < l:
            return {cov(k, l): -QUARTER_SQRT2}
        return {}
    if k == l:
        if k == j:
            return {cov(i, j): QUARTER_SQRT2}
        return {}
    # two distinct off-diagonal pairs
    if j == l and i != k:
        lo, hi = sorted((i, k))
        return {cov(lo, hi): HALF}
    if i == k and j != l:
        lo, hi = sorted((j, l))
        return {cov(lo, hi): -HALF}
    if j == k or i == l:
        return {}
    return {}


def expected_levi_civita(x: BasisIndex, y: BasisIndex) -> dict[BasisIndex, QSqrt2]:
    if x.is_mean and y.is_mean:
        i, j = x.i, y.i
        if i == j:
            return {cov(i, i): INV_SQRT2}
        return {cov(min(i, j), max(i, j)): HALF}
    if x.is_mean and not y.is_mean:
        i, (k, l) = x.i, (y.i, y.j)
        if k == l == i:
            return {mean(i): -INV_SQRT2}
        if k == i and k < l:
            return {mean(l): -HALF}
        if l == i and k < l:
            # forced by torsion freeness against [e_j, e_ij] = -e_i
            return {mean(k): -HALF}
        return {}
    if not x.is_mean and y.is_mean:
        (i, j), k = (x.i, x.j), y.i
        if i == j:
            return {}
        if k == i:
            return {mean(j): -HALF}
        if k == j:
            return {mean(i): HALF}
        return {}
    (i, j), (k, l) = (x.i, x.j), (y.i, y.j)
    if i == j:
        return {}
    if (i, j) == (k, l):
        return {cov(i, i): INV_SQRT2, cov(j, j): -INV_SQRT2}
    if k == l:
        if k == i:
            return {cov(i, j): -INV_SQRT2}
        if k == j:
            return {cov(i, j): INV_SQRT2}
        return {}
    if j == k:
        return {cov(i, l): HALF}
    if i == k and j != l:
        lo, hi = sorted((j, l))
        return {cov(lo, hi): -HALF}
    if j == l and i != k:
        lo, hi = sorted((i, k))
        return {cov(lo, hi): HALF}
    if l == i:
        return {cov(k, j): -HALF}
    return {}


def expected_cubic(x: BasisIndex, y: BasisIndex, z: BasisIndex) -> QSqrt2:
    key = tuple(sorted([x, y, z]))
    means = [b for b in key if b.is_mean]
    covs = [b for b in key if not b.is_mean]
    if len(means) == 2 and len(covs) == 1:
        i, j = means[0].i, means[1].i
        (k, l) = covs[0].i, covs[0].j
        if i == j == k == l:
            return SQRT2
        if (min(i, j), max(i, j)) == (k, l) and i != j:
            return ONE
        return ZERO
    if len(covs) == 3:
        pairs = [(b.i, b.j) for b in covs]
        if pairs[0] == pairs[1] == pairs[2] and pairs[0][0] == pairs[0][1]:
            return QSqrt2(0, 2)  # 2*sqrt2
        diag = [p for p in pairs if p[0] == p[1]]
        off = [p for p in pairs if p[0] != p[1]]
        if len(diag) == 1 and len(off) == 2 and off[0] == off[1]:
            if diag[0][0] in off[0]:
                return SQRT2
            return ZERO
        if len(off) == 3:
            edges = set()
            verts = set()
            for p in off:
                edges.add(p)
                verts.update(p)
            if len(edges) == 3 and len(verts) == 3:
                deg = {v: sum(v in p for p in off) for v in verts}
                if all(c == 2 for c in deg.values()):
                    return ONE
        return ZERO
    return ZERO


# --- tests -------------------------------------------------------------------


class TestBasis:
    @pytest.mark.parametrize("n,d", [(1, 2), (2, 5), (3, 9), (4, 14)])
    def test_dimension(self, n, d):
        assert len(basis_indices(n)) == d
        assert lie_algebra(n).dim == d

    def test_rejects_n_zero(self):
        with pytest.raises(ValueError):
            basis_indices(0)
        with pytest.raises(ValueError):
            lie_algebra(0)

    def test_canonical_order(self):
        labels = [idx.label() for idx in basis_indices(2)]
        assert labels == ["Mean(1)", "Mean(2)", "Cov(1,1)", "Cov(1,2)", "Cov(2,2)"]

    def test_matrix_support(self):
        # e_kk = E_kk / sqrt2 acts on a direction supported at (r, c) by
        # [e_kk, E_rc] = (delta_kr - delta_kc) E_rc / sqrt2; a mean direction
        # sits in the translation column, which no k reaches
        alg = lie_algebra(3)
        for a, idx in enumerate(alg.indices):
            r, c = (idx.i, None) if idx.is_mean else (idx.i, idx.j)
            assert alg.degrees[a] == (0 if idx.is_mean or r != c else 1)
            for k in (1, 2, 3):
                weight = INV_SQRT2 * (int(k == r) - int(k == c))
                expected = [ZERO] * alg.dim
                expected[a] = weight
                assert bracket(3, cov(k, k), idx) == expected, (k, idx)

    def test_label_round_trip(self):
        for idx in basis_indices(3):
            assert BasisIndex.parse(idx.label()) == idx


class TestBracket:
    def test_mean_against_matching_diagonal(self):
        assert bracket(1, mean(1), cov(1, 1)) == [-INV_SQRT2, ZERO]

    def test_chain_rule(self):
        alg = lie_algebra(3)
        expected = [ZERO] * alg.dim
        expected[alg.position(cov(1, 3))] = ONE
        assert bracket(3, cov(1, 2), cov(2, 3)) == expected

    def test_means_commute(self):
        assert all(v == ZERO for v in bracket(2, mean(1), mean(2)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_table_matches_closed_form(self, n):
        alg = lie_algebra(n)
        for a, x in enumerate(alg.indices):
            for b, y in enumerate(alg.indices):
                expected = expected_bracket(x, y)
                for g, z in enumerate(alg.indices):
                    assert alg.structure.item(a, b, g) == expected.get(z, ZERO), (
                        x,
                        y,
                        z,
                    )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_antisymmetry(self, n):
        alg = lie_algebra(n)
        assert alg.structure == -alg.structure.transpose((1, 0, 2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_jacobi_identity(self, n):
        c = lie_algebra(n).structure
        t = c.tensordot(c, axes=([2], [0]))
        jac = t + t.transpose((1, 2, 0, 3)) + t.transpose((2, 0, 1, 3))
        assert jac.is_zero()


class TestInnerAndCubic:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_orthonormality(self, n):
        for x in basis_indices(n):
            for y in basis_indices(n):
                assert inner(n, x, y) == (ONE if x == y else ZERO)

    def test_cubic_examples(self):
        assert inner(2, cov(1, 2), cov(1, 2)) == ONE
        assert cubic(1, cov(1, 1), cov(1, 1), cov(1, 1)) == QSqrt2(0, 2)
        assert cubic(3, cov(1, 2), cov(2, 3), cov(1, 3)) == ONE

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_cubic_table(self, n):
        alg = lie_algebra(n)
        for a, x in enumerate(alg.indices):
            for b, y in enumerate(alg.indices):
                for g, z in enumerate(alg.indices):
                    assert alg.cubic.item(a, b, g) == expected_cubic(x, y, z), (x, y, z)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cubic_total_symmetry(self, n):
        c = lie_algebra(n).cubic
        assert c == c.transpose((1, 0, 2))
        assert c == c.transpose((0, 2, 1))


class TestUMap:
    def test_examples(self):
        alg = lie_algebra(2)
        coeffs = u_map(2, mean(1), mean(1))
        assert coeffs[alg.position(cov(1, 1))] == INV_SQRT2
        coeffs = u_map(2, cov(1, 2), cov(1, 2))
        assert coeffs[alg.position(cov(1, 1))] == INV_SQRT2
        assert coeffs[alg.position(cov(2, 2))] == -INV_SQRT2
        coeffs = u_map(2, mean(1), mean(2))
        assert coeffs[alg.position(cov(1, 2))] == HALF

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_table_matches_closed_form(self, n):
        alg = lie_algebra(n)
        for a, x in enumerate(alg.indices):
            for b, y in enumerate(alg.indices):
                expected = expected_u(x, y)
                for g, z in enumerate(alg.indices):
                    assert alg.u_coeffs.item(a, b, g) == expected.get(z, ZERO), (
                        x,
                        y,
                        z,
                    )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetric(self, n):
        u = lie_algebra(n).u_coeffs
        assert u == u.transpose((1, 0, 2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_defining_identity(self, n):
        # 2 <U(x,y), z> == <[z,x], y> + <x, [z,y]>, checked entrywise
        alg = lie_algebra(n)
        for a in range(alg.dim):
            for b in range(alg.dim):
                for g in range(alg.dim):
                    lhs = alg.u_coeffs.item(a, b, g) * 2
                    rhs = alg.structure.item(g, a, b) + alg.structure.item(g, b, a)
                    assert lhs == rhs


class TestLeviCivita:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_table_matches_closed_form(self, n):
        conn = lie_algebra(n).levi_civita
        alg = lie_algebra(n)
        for a, x in enumerate(alg.indices):
            for b, y in enumerate(alg.indices):
                expected = expected_levi_civita(x, y)
                for g, z in enumerate(alg.indices):
                    assert conn.item(a, b, g) == expected.get(z, ZERO), (x, y, z)

    def test_named_entries(self):
        conn = lie_algebra(2).levi_civita
        alg = lie_algebra(2)
        m1, c11 = alg.position(mean(1)), alg.position(cov(1, 1))
        assert conn.item(m1, m1, c11) == INV_SQRT2
        c12, c22 = alg.position(cov(1, 2)), alg.position(cov(2, 2))
        assert conn.item(c12, c12, c11) == INV_SQRT2
        assert conn.item(c12, c12, c22) == -INV_SQRT2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_diagonal_directions_are_flat(self, n):
        # derivatives along every Cov(i,i) direction vanish identically
        conn = lie_algebra(n).levi_civita
        alg = lie_algebra(n)
        for idx in alg.indices:
            if idx.is_mean or idx.i != idx.j:
                continue
            a = alg.position(idx)
            for b in range(alg.dim):
                for g in range(alg.dim):
                    assert conn.item(a, b, g) == ZERO

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_torsion_free(self, n):
        conn = lie_algebra(n).levi_civita
        defect = conn - conn.transpose((1, 0, 2)) - lie_algebra(n).structure
        assert defect.is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_metric_compatibility(self, n):
        coeffs = lie_algebra(n).levi_civita
        assert coeffs == -coeffs.transpose((0, 2, 1))


class TestSolvability:
    def test_smallest_case(self):
        assert derived_series_dims(1) == [2, 1, 0]

    @pytest.mark.parametrize(
        "n,dims",
        [
            (1, [2, 1, 0]),
            (2, [5, 3, 1, 0]),
            (3, [9, 6, 3, 0]),
            (4, [14, 10, 6, 1, 0]),
            (5, [20, 15, 10, 3, 0]),
            (6, [27, 21, 15, 6, 0]),
            (7, [35, 28, 21, 10, 0]),
        ],
    )
    def test_dims_pinned(self, n, dims):
        assert derived_series_dims(n) == dims

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_terminates_at_zero(self, n):
        dims = derived_series_dims(n)
        assert dims[-1] == 0
        assert all(a > b for a, b in zip(dims, dims[1:]) if a > 0)
