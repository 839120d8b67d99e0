"""Acceptance suite: every certified behavior, one test per criterion.

Each test prints an ``ACCEPTANCE <k> <name>: PASS/FAIL`` line (visible with
``pytest -s``); exact criteria assert equality in Q(sqrt2), statistical ones
use the stated three-standard-error or relative tolerances.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import random_spd, random_symmetric, rel_close
from gaussgeom.algebra import (
    basis_indices,
    derived_series_dims,
    lie_algebra,
)
from gaussgeom.cli import main as cli_main
from gaussgeom.connections import alpha_connection, curvature, is_conjugate_symmetric, predicate_suite
from gaussgeom.exact import ONE, ZERO, QSqrt2
from gaussgeom.group import act, act_tangent, pull_back_to_identity
from gaussgeom.manifold import (
    ManifoldPoint,
    TangentVector,
    amari_cubic,
    fisher_metric,
    log_pdf,
    log_pdf_direction,
    mc_oracle_cubic,
    mc_oracle_metric,
)
from gaussgeom.solver import verify_theorem
from gaussgeom.tensors import SymTensor3, basis_dimension, symmetric_triples
from test_algebra import expected_levi_civita
from test_group import random_group


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def random_tangent(rng, n):
    return TangentVector(random_symmetric(rng, n), rng.normal(size=n))


def random_point(rng, n):
    return ManifoldPoint(random_spd(rng, n), rng.normal(size=n))


def test_criterion_1_theorem_verification():
    with criterion(1, "theorem verification (exact)"):
        started = time.perf_counter()
        for n in (1, 2, 3):
            cert = verify_theorem(n)
            assert cert.passed, cert.failures
            assert cert.kernel_dim == 1
            assert cert.checks["nonzero_pattern"]
            assert cert.checks["ratio_diagonal_cube_is_doubled"]
            assert cert.checks["ratio_mixed_pair_is_half_sqrt2"]
            assert cert.checks["cubic_table_reproduced"]
        elapsed = time.perf_counter() - started
        print(f"  verify n=1..3 took {elapsed:.2f}s")
        assert elapsed < 5.0


@pytest.mark.skipif(
    not os.environ.get("GAUSSGEOM_ACCEPT_N4"),
    reason="n=4 verification is opt-in (set GAUSSGEOM_ACCEPT_N4=1)",
)
def test_criterion_1_optional_n4():
    with criterion(1, "theorem verification n=4 (optional)"):
        started = time.perf_counter()
        cert = verify_theorem(4)
        elapsed = time.perf_counter() - started
        assert cert.passed, cert.failures
        print(f"  verify n=4 took {elapsed:.2f}s")
        assert elapsed < 120.0


def test_criterion_2_dual_flatness():
    with criterion(2, "dual flatness (exact)"):
        for n in (1, 2, 3):
            assert curvature(alpha_connection(n, 1)).is_zero()
            assert curvature(alpha_connection(n, -1)).is_zero()


def test_criterion_3_conjugate_symmetry_of_family():
    with criterion(3, "conjugate symmetry of the alpha family (exact)"):
        alphas = (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))
        for n in (1, 2, 3):
            for alpha in alphas:
                assert is_conjugate_symmetric(alpha_connection(n, alpha)), (n, alpha)


def test_criterion_4_levi_civita_table():
    with criterion(4, "Levi-Civita table (exact)"):
        for n in (1, 2, 3, 4):
            conn = lie_algebra(n).levi_civita
            indices = basis_indices(n)
            for a, x in enumerate(indices):
                for b, y in enumerate(indices):
                    expected = expected_levi_civita(x, y)
                    for g, z in enumerate(indices):
                        assert conn.item(a, b, g) == expected.get(z, ZERO), (n, x, y, z)
            # derivatives along every diagonal covariance direction vanish
            for a, x in enumerate(indices):
                if x.is_mean or x.i != x.j:
                    continue
                for b in range(len(indices)):
                    for g in range(len(indices)):
                        assert conn.item(a, b, g) == ZERO


def test_criterion_5_algebra_sanity():
    with criterion(5, "algebra sanity (exact)"):
        for n in (1, 2, 3, 4):
            alg = lie_algebra(n)
            d = alg.dim
            for a in range(d):
                for b in range(d):
                    assert alg.gram.item(a, b) == (ONE if a == b else ZERO)
            prod = alg.structure.tensordot(alg.structure, axes=([2], [0]))
            jacobi = (
                prod
                + prod.transpose((1, 2, 0, 3))
                + prod.transpose((2, 0, 1, 3))
            )
            assert jacobi.is_zero()
            conn = alg.levi_civita
            assert (conn - conn.transpose((1, 0, 2)) - alg.structure).is_zero()
            assert conn == -conn.transpose((0, 2, 1))
            dims = derived_series_dims(n)
            assert dims[-1] == 0
        print(f"  derived series n=4: {derived_series_dims(4)}")


def test_criterion_6_equivalence_suite():
    with criterion(6, "equivalence of the four characterizations (property)"):
        rng = random.Random(20240601)
        for n in (1, 2, 3):
            triples = len(symmetric_triples(basis_dimension(n)))
            for trial in range(200):
                values = [
                    QSqrt2(
                        Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4])),
                        Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4])),
                    )
                    for _ in range(triples)
                ]
                suite = predicate_suite(SymTensor3.from_vector(n, values))
                assert suite.agree(), (n, trial, suite)


def test_criterion_7_monte_carlo_oracle():
    with criterion(7, "closed forms vs integral oracle (statistical)"):
        rng = np.random.default_rng(2024)
        step = 1e-5
        for n in (1, 2):
            for trial in range(5):
                point = random_point(rng, n)
                s, t, w = (random_tangent(rng, n) for _ in range(3))
                seed = int(rng.integers(1 << 30))

                est = mc_oracle_metric(point, s, t, 1_000_000, seed)
                assert abs(est.value - fisher_metric(point, s, t)) <= 3.0 * est.stderr

                est = mc_oracle_cubic(point, s, t, w, 1_000_000, seed)
                assert abs(est.value - amari_cubic(point, s, t, w)) <= 3.0 * est.stderr

                x = rng.normal(size=n)
                analytic = log_pdf_direction(point, s, x)
                plus = ManifoldPoint(point.sigma + step * s.x, point.mu + step * s.v)
                minus = ManifoldPoint(point.sigma - step * s.x, point.mu - step * s.v)
                numeric = (log_pdf(plus, x) - log_pdf(minus, x)) / (2 * step)
                assert rel_close(analytic, numeric, 1e-6)


def test_criterion_8_left_invariance():
    with criterion(8, "left invariance (numeric)"):
        rng = np.random.default_rng(77)
        for trial in range(20):
            n = int(rng.integers(1, 4))
            g = random_group(rng, n)
            p = random_point(rng, n)
            s, t, w = (random_tangent(rng, n) for _ in range(3))
            q = act(g, p)
            gs, gt, gw = (act_tangent(g, v) for v in (s, t, w))
            assert rel_close(
                fisher_metric(q, gs, gt), fisher_metric(p, s, t), 1e-9
            )
            assert rel_close(
                amari_cubic(q, gs, gt, gw), amari_cubic(p, s, t, w), 1e-9
            )
            flat = float(pull_back_to_identity(p, s) @ pull_back_to_identity(p, t))
            assert rel_close(flat, fisher_metric(p, s, t), 1e-9)


def test_criterion_9_determinism():
    with criterion(9, "determinism (byte-identical reruns)"):
        assert verify_theorem(2).to_json() == verify_theorem(2).to_json()

        point = ManifoldPoint.standard(2)
        s = TangentVector(np.eye(2), [0.4, -0.2])
        first = mc_oracle_metric(point, s, s, 150_000, seed=31)
        second = mc_oracle_metric(point, s, s, 150_000, seed=31)
        assert first == second

        runner = CliRunner()
        for args in (
            ["verify", "--max-n", "2", "--format", "json"],
            ["oracle", "--n", "2", "--samples", "60000", "--seed", "5"],
            ["tensors", "--n", "2", "--what", "levi-civita"],
        ):
            out1 = runner.invoke(cli_main, args, catch_exceptions=False).output
            out2 = runner.invoke(cli_main, args, catch_exceptions=False).output
            assert out1 == out2 and out1
        payload = json.loads(
            runner.invoke(
                cli_main, ["verify", "--n", "2", "--format", "json"]
            ).output
        )
        assert payload[0]["status"] == "PASS"
