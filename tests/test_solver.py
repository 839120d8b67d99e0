from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import qsqrt2s
from gaussgeom import connections, solver
from gaussgeom.algebra import BasisIndex, basis_indices
from gaussgeom.connections import (
    amari_difference,
    curvature,
    from_difference,
    lc_difference_derivative,
    predicate_suite,
)
from gaussgeom.exact import HALF_SQRT2, ONE, SQRT2, ZERO, ExactArray, QSqrt2, SparseEchelon
from gaussgeom.solver import (
    AMARI_SCALE,
    TheoremCertificate,
    assemble,
    expected_pattern,
    solve,
    solved_difference_tensor,
    verify_theorem,
)
from gaussgeom.tensors import (
    SymTensor3,
    basis_dimension,
    symmetric_triples,
)

#: SHA-256 of ``verify_theorem(n).to_json()`` (UTF-8) under certificate
#: schema v1, taken before the constraint rows were assembled over the
#: integers; these bytes must not change
CERTIFICATE_SHA256 = {
    1: "b70379d4b4205c9205aaf93b0e3dd5237cae8e87a571df9c07823b27ad9dc515",
    2: "a0d3dfbe8515ba7cb7eeb1ca080fe5446acb141f712dcc105ac062f56c52d67f",
    3: "494748863e470eacde1369fdd10f8fa718ed3ad933dad0c482dee2b2c91ef7da",
    4: "96bf80bddc3df83ff9ad67721a97e553b50e21e83a24775d35b8a4900708ccc5",
}

#: SHA-256 of ``repr((rows, multiplicities, degrees))`` of the
#: ``primitive_view`` of ``assemble(n)``, each read back as tuples; the
#: system must not change.  Taken from the assembler that stored the
#: distinct primitive rows and emitted a first label per row beside these
#: three, where the hash of all four matched the pins of the per-quadruple
#: Python assembler that the integer batches replaced
SYSTEM_SHA256 = {
    1: "24a64c34200cea3682e7b5fe0552617b587cf33c0f3cd59db0a8b90a76d37b07",
    2: "e333c32501620222036668b3d39b838b5e3ca07f476b03e363ecbcf65d7a0087",
    3: "09fad6c02738719e2c7ade6e8d1768b37ff33d993c02d4b017eb1243544dd8a2",
    4: "5c7a32a46b29cea43eb90a885d34b697e023eaa1dd4e504110b2d51290bc58d7",
}


def primitive_view(system):
    """The stored rows, each made primitive with a positive first entry, the
    first of equal rows kept in its place and their multiplicities summed."""
    kept = {}
    for row, weight in zip(system.rows, system.multiplicities.tolist()):
        coeffs = [c for _, c in row]
        divisor = math.gcd(*coeffs) * (1 if coeffs[0] > 0 else -1)
        primitive = tuple((t, c // divisor) for t, c in row)
        kept[primitive] = kept.get(primitive, 0) + weight
    return tuple(kept), tuple(kept.values())


def positions(n):
    return {idx: p for p, idx in enumerate(basis_indices(n))}


def exact_vector(values) -> ExactArray:
    return ExactArray.build((len(values),), lambda idx: values[idx[0]])


def kernel_entry(cert, *parts: BasisIndex) -> QSqrt2:
    vec = solved_difference_tensor(cert)
    pos = positions(cert.n)
    return vec.get(*(pos[p] for p in parts))


class TestCounting:
    @pytest.mark.parametrize("n,count", [(1, 4), (2, 35), (3, 165), (4, 560)])
    def test_unknown_count(self, n, count):
        assert len(symmetric_triples(basis_dimension(n))) == count

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_assembled_system_shape(self, n):
        system = assemble(n)
        assert system.unknowns == len(symmetric_triples(basis_dimension(n)))
        assert len(system.rows) == len(system.multiplicities)


class TestIntegerRows:
    @pytest.mark.parametrize("n,emitted", [(1, 4), (2, 222), (3, 2590), (4, 15694)])
    def test_emitted_row_count(self, n, emitted):
        assert assemble(n).row_count == emitted

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_are_distinct_primitive_integer_rows(self, n):
        # stored as emitted: one integer row per nonzero quad, standing for
        # one quad when g = out and two otherwise
        system = assemble(n)
        for row in system.rows:
            cols = [t for t, _ in row]
            assert cols == sorted(set(cols))
            assert all(type(c) is int and c for _, c in row)
        assert set(system.multiplicities.tolist()) <= {1, 2}
        # up to scale, the distinct rows are primitive with coefficients at
        # most 4 in magnitude
        rows, multiplicities = primitive_view(system)
        assert len(set(rows)) == len(rows)
        assert sum(multiplicities) == system.row_count
        for row in rows:
            cols = [t for t, _ in row]
            coeffs = [c for _, c in row]
            assert cols == sorted(set(cols))
            assert all(type(c) is int and 0 < abs(c) <= 4 for c in coeffs)
            assert coeffs[0] > 0
            assert math.gcd(*coeffs) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degrees_count_diagonal_covariances(self, n):
        indices = basis_indices(n)
        system = assemble(n)
        assert system.degrees.tolist() == [
            sum(indices[p].j == indices[p].i for p in triple)
            for triple in symmetric_triples(basis_dimension(n))
        ]

    @pytest.mark.parametrize("n", [1, 2])
    def test_rows_match_dense_derivative(self, n):
        # column t of the constraint matrix, independently: the dense
        # Levi-Civita derivative of the unit tensor e_t, antisymmetrised in
        # (a, b); each nonzero dense row must be a multiple of one assembled
        # row, read back in the ungraded entries K_t = sqrt2^{deg t} y_t
        system = assemble(n)
        d = basis_dimension(n)
        columns = [
            lc_difference_derivative(SymTensor3.from_entries(n, {t: ONE}))
            for t in symmetric_triples(d)
        ]

        def normalized(entries):
            inv = next(v for v in entries if v).inverse()
            return tuple(v * inv for v in entries)

        dense_rows = []
        for a in range(d):
            for b in range(a + 1, d):
                for g in range(d):
                    for out in range(d):
                        entries = [
                            col.item(a, b, g, out) - col.item(b, a, g, out)
                            for col in columns
                        ]
                        if any(entries):
                            dense_rows.append(normalized(entries))

        assembled = set()
        for row in system.rows:
            entries = [ZERO] * system.unknowns
            for t, c in row:
                entries[t] = QSqrt2(c)
                for _ in range(system.degrees[t]):
                    entries[t] = entries[t] * HALF_SQRT2
            assembled.add(normalized(entries))
        assert len(dense_rows) == system.row_count
        assert set(dense_rows) == assembled

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_system_pinned(self, n):
        system = assemble(n)
        text = repr((*primitive_view(system), tuple(system.degrees.tolist())))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SYSTEM_SHA256[n]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sqrt2_part_of_every_entry_is_checked(self, n):
        system = assemble(n)
        amari = list(amari_difference(n).values)
        for p in range(system.unknowns):
            perturbed = list(amari)
            perturbed[p] = perturbed[p] + SQRT2
            assert not system.satisfied_by(exact_vector(perturbed))

    def test_residuals_reject_wrong_length(self):
        with pytest.raises(ValueError):
            assemble(1).residuals(exact_vector([ONE]))

    @given(
        st.lists(
            st.one_of(
                qsqrt2s(),
                st.builds(QSqrt2, st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70)),
            ),
            min_size=35,
            max_size=35,
        )
    )
    def test_residuals_match_per_row_formula(self, vector):
        # per row: K_t / sqrt2^{deg t} = u_t + v_t*sqrt2 over a common
        # denominator, then r.u + (r.v)*sqrt2; entries past 2^62 force the
        # arbitrary-precision path
        system = assemble(2)
        graded = []
        for k, deg in zip(vector, system.degrees):
            for _ in range(deg):
                k = k * HALF_SQRT2
            graded.append(k)
        den = math.lcm(*(y.a.denominator for y in graded), *(y.b.denominator for y in graded))
        u = [y.a.numerator * (den // y.a.denominator) for y in graded]
        v = [y.b.numerator * (den // y.b.denominator) for y in graded]
        expected = [
            QSqrt2(
                Fraction(sum(c * u[t] for t, c in row), den),
                Fraction(sum(c * v[t] for t, c in row), den),
            )
            for row in system.rows
        ]
        residuals = system.residuals(exact_vector(vector))
        assert [residuals.item(r) for r in range(len(system.rows))] == expected
        assert system.satisfied_by(exact_vector(vector)) == (not any(expected))


def csr_system(cols: int, rows: list[dict[int, int]]) -> solver.ConstraintSystem:
    """A system on ``cols`` unknowns whose CSR arrays hold ``rows`` in order."""
    lengths = [len(row) for row in rows]
    return dataclasses.replace(
        assemble(1),
        degrees=np.zeros(cols, dtype=np.int64),
        starts=np.cumsum([0] + lengths, dtype=np.int64)[:-1],
        columns=np.array([c for row in rows for c in sorted(row)], dtype=np.int64),
        coefficients=np.array([row[c] for row in rows for c in sorted(row)], dtype=np.int64),
        multiplicities=np.ones(len(rows), dtype=np.int64),
    )


COEFFICIENTS = st.integers(-3, 3).filter(bool)


@st.composite
def csr_systems(draw):
    """Small systems: singleton chains whose extra rows vanish once the chain
    is peeled, all-singleton rows, rows of two or more entries only, or any
    mix, in shuffled row order."""
    cols = draw(st.integers(2, 8))

    def rows(lo, hi, among=None):
        return st.dictionaries(
            st.sampled_from(among or range(cols)), COEFFICIENTS, min_size=lo, max_size=hi
        )

    shape = draw(st.sampled_from(["chain", "singletons", "no_singletons", "mixed"]))
    if shape == "chain":
        # {c0}, {c0, c1}, {c1, c2}, ...: one column is peeled per round
        chain = draw(st.permutations(range(cols)))[: draw(st.integers(1, cols))]
        drawn = [{chain[0]: draw(COEFFICIENTS)}]
        drawn += [{p: draw(COEFFICIENTS), c: draw(COEFFICIENTS)} for p, c in zip(chain, chain[1:])]
        drawn += draw(st.lists(rows(1, len(chain), chain), max_size=4))
        drawn += draw(st.lists(rows(2, cols), max_size=4))
    elif shape == "singletons":
        drawn = draw(st.lists(rows(1, 1), max_size=10))
    elif shape == "no_singletons":
        drawn = draw(st.lists(rows(2, cols), max_size=10))
    else:
        drawn = draw(st.lists(rows(1, cols), max_size=12))
    return csr_system(cols, draw(st.permutations(drawn)))


def straight_echelon(system: solver.ConstraintSystem) -> SparseEchelon:
    """Reference: every row inserted whole, in row order, without peeling."""
    echelon = SparseEchelon(system.unknowns)
    columns, coefficients = system.columns.tolist(), system.coefficients.tolist()
    bounds = system.starts.tolist() + [len(columns)]
    for i, j in zip(bounds, bounds[1:]):
        echelon.insert(dict(zip(columns[i:j], coefficients[i:j])))
    return echelon


def reduced_basis(vectors: list[list[QSqrt2]]) -> list[tuple[Fraction, ...]]:
    """Reduced row echelon form over Q of rational vectors: equal exactly when
    the vectors span the same space."""
    assert all(not v.b for vector in vectors for v in vector)
    pending = [[v.a for v in vector] for vector in vectors]
    reduced = []
    for col in range(len(pending[0]) if pending else 0):
        pivot = next((row for row in pending if row[col]), None)
        if pivot is None:
            continue
        pending.remove(pivot)
        pivot = [x / pivot[col] for x in pivot]

        def eliminate(row):
            return [x - row[col] * p for x, p in zip(row, pivot)]

        pending = [eliminate(row) for row in pending]
        reduced = [eliminate(row) for row in reduced] + [pivot]
    return sorted(map(tuple, reduced))


class TestPeeledEchelon:
    """``kernel()`` peels singleton rows, eliminates the live block and keeps the
    straight loop's rank and kernel."""

    @given(csr_systems())
    def test_matches_straight_elimination(self, system):
        (rank, basis), straight = system.kernel(), straight_echelon(system)
        assert rank == straight.rank
        # every degree is 0, so the kernel vectors are rational and unlifted
        vectors = [[v.item(p) for p in range(system.unknowns)] for v in basis]
        assert reduced_basis(vectors) == reduced_basis(straight.kernel_basis())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_straight_elimination_on_assembled_rows(self, n):
        system = assemble(n)
        (rank, basis), straight = system.kernel(), straight_echelon(system)
        assert rank == straight.rank == system.unknowns - 1
        # a one-dimensional kernel has one normalized generator
        lifted = [
            exact_vector(y).times_sqrt2_powers(system.degrees)
            for y in straight.kernel_basis()
        ]
        assert basis == lifted

    def test_peeled_inserts_at_n4(self, monkeypatch):
        # 530 of the 560 columns are peeled and inserted as nothing; at most
        # 197 rows keep two live entries, each eliminated on the block of the
        # 30 live columns, against 5 078 rows inserted one by one without peeling
        system = assemble(4)
        inserted = []
        original = SparseEchelon.insert

        def counted(self, row):
            inserted.append(dict(row))
            return original(self, row)

        monkeypatch.setattr(SparseEchelon, "insert", counted)
        rank, basis = system.kernel()
        assert rank == system.unknowns - 1 and len(basis) == 1
        assert 0 < len(inserted) <= 197
        assert all(len(row) >= 2 for row in inserted)
        assert all(0 <= c < 30 for row in inserted for c in row)

    def test_live_rows_equal_up_to_scale_are_inserted_once(self, monkeypatch):
        # column 3 is peeled; every other row's live part is a multiple of
        # e0 + 2 e1 or of e1 - e2, at either sign, so two rows are inserted
        system = csr_system(
            4,
            [
                {0: 2, 1: 4},
                {3: 5},
                {0: -1, 1: -2},
                {1: -3, 2: 3},
                {0: 3, 1: 6, 3: 1},
                {1: 1, 2: -1, 3: -7},
                {1: 2, 2: -2},
            ],
        )
        inserted = []
        original = SparseEchelon.insert

        def counted(self, row):
            inserted.append(dict(row))
            return original(self, row)

        monkeypatch.setattr(SparseEchelon, "insert", counted)
        rank, basis = system.kernel()
        assert inserted == [{0: 1, 1: 2}, {1: 1, 2: -1}]
        assert rank == 3 and len(basis) == 1
        assert rank == straight_echelon(system).rank


class TestSystem:
    def test_n1_by_hand(self):
        # the four constraints reduce to: K_MMM = 0, K_MCC = 0, K_CCC = 2 K_MMC
        cert = solve(1)
        assert cert.rank == 3
        assert cert.kernel == {
            "Mean(1)|Mean(1)|Cov(1,1)": ONE.to_string(),
            "Cov(1,1)|Cov(1,1)|Cov(1,1)": QSqrt2(2).to_string(),
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_amari_tensor_satisfies_every_row(self, n):
        system = assemble(n)
        amari = amari_difference(n)
        assert system.satisfied_by(exact_vector(list(amari.values)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kernel_dim_one(self, n):
        cert = solve(n)
        assert cert.kernel_dim == 1
        assert cert.rank + 1 == cert.unknowns

    def test_kernel_dim_one_n4(self):
        cert = solve(4)
        assert cert.kernel_dim == 1
        assert cert.passed


class TestKernelPattern:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pattern_and_checks(self, n):
        cert = solve(n)
        assert cert.passed, cert.failures
        assert cert.checks["nonzero_pattern"]
        assert cert.checks["cubic_table_reproduced"]

    def test_pattern_mismatch_names_each_triple(self, monkeypatch):
        real = solver.expected_pattern

        def wrong(n):
            return {**real(n), (0, 0, n): QSqrt2(3)}

        monkeypatch.setattr(solver, "expected_pattern", wrong)
        cert = solve(1)
        assert cert.checks["nonzero_pattern"] is False
        assert (
            "nonzero_pattern: Mean(1)|Mean(1)|Cov(1,1): got 1/1 + 0/1*sqrt2, want 3/1 + 0/1*sqrt2"
            in cert.failures
        )

    def test_mean_cov_cov_entries_vanish(self):
        # any entry pairing one mean direction with two covariance directions
        cert = solve(3)
        vec = solved_difference_tensor(cert)
        idx = basis_indices(3)
        for a in range(len(idx)):
            for b in range(a, len(idx)):
                for c in range(b, len(idx)):
                    kinds = sum(1 for p in (a, b, c) if idx[p].is_mean)
                    if kinds == 1:
                        assert vec.get(a, b, c) == ZERO

    def test_pure_mean_entries_vanish(self):
        cert = solve(3)
        vec = solved_difference_tensor(cert)
        pos = positions(3)
        means = [BasisIndex.mean(i) for i in (1, 2, 3)]
        for a in means:
            for b in means:
                for c in means:
                    assert vec.get(pos[a], pos[b], pos[c]) == ZERO

    def test_repeated_offdiagonal_entries_vanish(self):
        cert = solve(3)
        pos = positions(3)
        vec = solved_difference_tensor(cert)
        c12, c13, c23 = (
            pos[BasisIndex.cov(1, 2)],
            pos[BasisIndex.cov(1, 3)],
            pos[BasisIndex.cov(2, 3)],
        )
        assert vec.get(c12, c12, c13) == ZERO
        assert vec.get(c12, c12, c12) == ZERO
        assert vec.get(c13, c13, c23) == ZERO

    def test_mixed_mean_pair_with_own_offdiagonal_vanishes(self):
        cert = solve(2)
        pos = positions(2)
        vec = solved_difference_tensor(cert)
        m1, m2 = pos[BasisIndex.mean(1)], pos[BasisIndex.mean(2)]
        c12 = pos[BasisIndex.cov(1, 2)]
        assert vec.get(m1, m1, c12) == ZERO
        assert vec.get(m2, m2, c12) == ZERO

    def test_certified_ratios(self):
        cert = solve(3)
        for i in (1, 2, 3):
            assert kernel_entry(
                cert, BasisIndex.cov(i, i), BasisIndex.cov(i, i), BasisIndex.cov(i, i)
            ) == kernel_entry(
                cert, BasisIndex.mean(i), BasisIndex.mean(i), BasisIndex.cov(i, i)
            ) * 2
        assert kernel_entry(
            cert, BasisIndex.mean(1), BasisIndex.mean(2), BasisIndex.cov(1, 2)
        ) == HALF_SQRT2
        assert kernel_entry(
            cert, BasisIndex.cov(1, 2), BasisIndex.cov(2, 3), BasisIndex.cov(1, 3)
        ) == HALF_SQRT2

    @pytest.mark.parametrize("n", [1, 2])
    def test_pattern_filtered_by_n(self, n):
        # families indexed by i<j or i<j<k only appear once n admits them
        pattern = expected_pattern(n)
        assert len(pattern) == {1: 2, 2: 7}[n]

    def test_scaled_generator_is_amari_difference(self):
        for n in (1, 2, 3):
            cert = solve(n)
            generator = solved_difference_tensor(cert)
            assert generator.scale(AMARI_SCALE) == amari_difference(n)


def perturbation_breaks_constraints(system, vector, unit_positions) -> bool:
    """True when adding any listed unit entry to ``vector`` violates at least
    one constraint row."""
    for p in unit_positions:
        perturbed = list(vector)
        perturbed[p] = perturbed[p] + ONE
        if system.satisfied_by(exact_vector(perturbed)):
            return False
    return True


class TestPerturbation:
    @pytest.mark.parametrize("n", [1, 2])
    def test_every_unit_perturbation_breaks_a_constraint(self, n):
        system = assemble(n)
        amari = list(amari_difference(n).values)
        assert perturbation_breaks_constraints(
            system, amari, range(system.unknowns)
        )

    def test_sampled_unit_perturbations_n3(self):
        system = assemble(3)
        amari = list(amari_difference(3).values)
        rng = random.Random(5)
        sample = rng.sample(range(system.unknowns), 25)
        assert perturbation_breaks_constraints(system, amari, sample)


class TestCertificate:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_verify_theorem_passes(self, n):
        cert = verify_theorem(n)
        assert cert.passed, cert.failures
        for alpha in (1, -1, 2, -2, Fraction(1, 3)):
            assert cert.checks[f"conjugate_symmetric_alpha_{alpha}"]
            assert cert.checks[f"predicates_agree_alpha_{alpha}"]
        assert cert.checks["dually_flat_plus"]
        assert cert.checks["dually_flat_minus"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_certificate_bytes_pinned(self, n):
        text = verify_theorem(n).to_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CERTIFICATE_SHA256[n]

    def test_json_is_deterministic(self):
        assert verify_theorem(2).to_json() == verify_theorem(2).to_json()

    def test_json_contents(self):
        payload = json.loads(verify_theorem(2).to_json())
        assert payload["status"] == "PASS"
        assert payload["kernel_dim"] == 1
        assert payload["unknowns"] == 35
        assert payload["kernel"]["Mean(1)|Mean(1)|Cov(1,1)"] == "1/1 + 0/1*sqrt2"

    def test_failed_certificate_reports_entries(self):
        cert = TheoremCertificate(
            n=1,
            dim=2,
            unknowns=4,
            row_count=4,
            rank=3,
            kernel_dim=2,
            normalization="",
        )
        cert.record("kernel_dim_is_one", False, "dim=2")
        assert not cert.passed
        assert cert.to_json_dict()["status"] == "FAILED"
        assert any("kernel_dim_is_one" in f for f in cert.failures)

    def test_certificate_round_trip_through_json(self):
        cert = solve(2)
        payload = json.loads(cert.to_json())
        rebuilt = {
            label: QSqrt2.parse(text) for label, text in payload["kernel"].items()
        }
        assert rebuilt == {
            label: QSqrt2.parse(text) for label, text in cert.kernel.items()
        }

    def test_certificate_conforms_to_published_schema(self):
        import jsonschema  # in the test extras: a missing install fails here
        schema_path = (
            Path(__file__).resolve().parent.parent
            / "docs"
            / "certificate.schema.v1.json"
        )
        schema = json.loads(schema_path.read_text())
        for n in (1, 2):
            jsonschema.validate(verify_theorem(n).to_json_dict(), schema)


class TestAlphaFamilyChecks:
    """``verify_theorem`` decides every alpha check from two curvatures."""

    def test_generator_with_r1_nonzero_fails_at_every_alpha(self, monkeypatch):
        solved = solved_difference_tensor

        def perturbed(cert):
            # the generator plus one entry: (Mean(1), Mean(1), Mean(1)) += 1
            return solved(cert) + SymTensor3.from_entries(cert.n, {(0, 0, 0): ONE})

        monkeypatch.setattr(solver, "solved_difference_tensor", perturbed)
        cert = verify_theorem(2)
        k = perturbed(solve(2))
        # R(c) - R(-c) = 2c R1, so R1 != 0
        step = k.scale(AMARI_SCALE)
        assert curvature(from_difference(step)) != curvature(from_difference(step.scale(-1)))
        for alpha in solver.VERIFY_ALPHAS:
            assert not predicate_suite(k.scale(alpha)).conjugate_symmetric
            assert cert.checks[f"conjugate_symmetric_alpha_{alpha}"] is False
            assert cert.checks[f"predicates_agree_alpha_{alpha}"] is False
        assert cert.to_json_dict()["status"] == "FAILED"

    def test_non_metric_levi_civita_fails_loudly(self, monkeypatch):
        real = connections.lie_algebra

        def non_metric(n):
            alg = real(n)
            unit = ExactArray.zeros(alg.levi_civita.shape)
            unit.parts[0, 0, 1, 1] = 1
            # symmetric in its last two slots, so conjugate(LC + unit) = LC - unit
            return dataclasses.replace(alg, levi_civita=alg.levi_civita + unit)

        monkeypatch.setattr(connections, "lie_algebra", non_metric)
        with pytest.raises(ArithmeticError, match="not metric"):
            verify_theorem(2)

    def test_two_curvatures_and_no_predicate_suite(self, monkeypatch):
        calls = {"curvature": 0, "predicate_suite": 0}

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)

            return counted

        for name in calls:
            monkeypatch.setattr(connections, name, counting(name, getattr(connections, name)))
        assert verify_theorem(3).passed
        assert calls == {"curvature": 2, "predicate_suite": 0}
