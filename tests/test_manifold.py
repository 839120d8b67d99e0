from __future__ import annotations

import math
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import random_spd, random_symmetric, rel_close
from gaussgeom.algebra import BasisIndex, lie_algebra
from gaussgeom.group import pull_back_to_identity
from gaussgeom.manifold import (
    BLOCK_VALUES,
    SHARD_SIZE,
    ManifoldPoint,
    TangentVector,
    alpha_connection_form,
    amari_cubic,
    basis_tangent,
    fisher_metric,
    log_pdf,
    log_pdf_direction,
    mc_oracle_cubic,
    mc_oracle_metric,
    mc_oracle_metric_and_cubic,
)


def random_tangent(rng, n):
    return TangentVector(random_symmetric(rng, n), rng.normal(size=n))


def random_point(rng, n):
    return ManifoldPoint(random_spd(rng, n), rng.normal(size=n))


class TestPointValidation:
    def test_rejects_asymmetric_sigma(self):
        with pytest.raises(ValueError, match="asymmetric"):
            ManifoldPoint([[1.0, 0.5], [0.2, 1.0]], [0.0, 0.0])

    def test_rejects_indefinite_sigma(self):
        with pytest.raises(ValueError, match="positive definite"):
            ManifoldPoint([[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0])

    def test_symmetrizes_roundoff(self):
        sigma = np.array([[2.0, 1.0 + 1e-14], [1.0, 2.0]])
        p = ManifoldPoint(sigma, [0.0, 0.0])
        assert np.array_equal(p.sigma, p.sigma.T)

    def test_tangent_requires_symmetric_x(self):
        with pytest.raises(ValueError):
            TangentVector([[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0])


class TestLogPdf:
    def test_standard_normal_mode(self):
        p = ManifoldPoint([[1.0]], [0.0])
        assert math.isclose(log_pdf(p, [0.0]), -0.5 * math.log(2 * math.pi))

    def test_two_dimensional_mode(self):
        p = ManifoldPoint.standard(2)
        assert math.isclose(log_pdf(p, [0.0, 0.0]), -math.log(2 * math.pi))

    def test_shifted_scaled(self):
        p = ManifoldPoint([[4.0]], [1.0])
        assert math.isclose(log_pdf(p, [3.0]), -0.5 * math.log(8 * math.pi) - 0.5)

    def test_density_integrates_to_one_1d(self):
        p = ManifoldPoint([[2.0]], [0.5])
        xs = np.linspace(-12, 13, 20001)
        density = np.exp([log_pdf(p, [x]) for x in xs])
        assert math.isclose(np.trapezoid(density, xs), 1.0, rel_tol=1e-8)


class TestFisherMetric:
    def test_unit_mean_direction(self):
        p = ManifoldPoint.standard(2)
        e1 = TangentVector(np.zeros((2, 2)), [1.0, 0.0])
        assert fisher_metric(p, e1, e1) == 1.0

    def test_mean_cov_block_orthogonal(self):
        p = ManifoldPoint.standard(2)
        e1 = TangentVector(np.zeros((2, 2)), [1.0, 0.0])
        x = TangentVector(np.eye(2), [0.0, 0.0])
        assert fisher_metric(p, e1, x) == 0.0

    def test_covariance_block_value(self):
        p = ManifoldPoint(2.0 * np.eye(2), np.zeros(2))
        x = TangentVector(np.eye(2), np.zeros(2))
        assert math.isclose(fisher_metric(p, x, x), 0.25)

    def test_symmetric_bilinear_positive(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            p = random_point(rng, n)
            s, t = random_tangent(rng, n), random_tangent(rng, n)
            assert rel_close(fisher_metric(p, s, t), fisher_metric(p, t, s), 1e-12)
            a, b = 0.7, -1.3
            combo = TangentVector(a * s.x + b * t.x, a * s.v + b * t.v)
            assert rel_close(
                fisher_metric(p, combo, t),
                a * fisher_metric(p, s, t) + b * fisher_metric(p, t, t),
                1e-12,
            )
            assert fisher_metric(p, s, s) > 0.0


class TestAmariCubic:
    def test_pure_mean_block_vanishes(self):
        p = ManifoldPoint.standard(2)
        e1 = TangentVector(np.zeros((2, 2)), [1.0, 0.0])
        assert amari_cubic(p, e1, e1, e1) == 0.0

    def test_mixed_block(self):
        p = ManifoldPoint.standard(2)
        x = TangentVector(np.diag([1.0, 0.0]), np.zeros(2))
        e1 = TangentVector(np.zeros((2, 2)), [1.0, 0.0])
        assert math.isclose(amari_cubic(p, x, e1, e1), 1.0)

    def test_covariance_block(self):
        p = ManifoldPoint.standard(2)
        x = TangentVector(np.diag([1.0, 0.0]), np.zeros(2))
        assert math.isclose(amari_cubic(p, x, x, x), 1.0)

    def test_total_symmetry(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            p = random_point(rng, n)
            s, t, w = (random_tangent(rng, n) for _ in range(3))
            reference = amari_cubic(p, s, t, w)
            for args in ((s, w, t), (t, s, w), (t, w, s), (w, s, t), (w, t, s)):
                assert rel_close(amari_cubic(p, *args), reference, 1e-12)


class TestDirectionalDerivative:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        step = 1e-5
        for n in (1, 2, 3):
            p = random_point(rng, n)
            t = random_tangent(rng, n)
            x = rng.normal(size=n)
            analytic = log_pdf_direction(p, t, x)
            plus = ManifoldPoint(p.sigma + step * t.x, p.mu + step * t.v)
            minus = ManifoldPoint(p.sigma - step * t.x, p.mu - step * t.v)
            numeric = (log_pdf(plus, x) - log_pdf(minus, x)) / (2 * step)
            assert rel_close(analytic, numeric, 1e-6)


class TestMonteCarloOracle:
    def test_requires_samples(self):
        p = ManifoldPoint.standard(1)
        t = TangentVector([[0.0]], [1.0])
        with pytest.raises(ValueError):
            mc_oracle_metric(p, t, t, 0, seed=1)

    def test_single_sample_has_infinite_stderr(self):
        p = ManifoldPoint.standard(1)
        t = TangentVector([[0.0]], [1.0])
        assert mc_oracle_metric(p, t, t, 1, seed=1).stderr == math.inf

    def test_deterministic_given_seed(self):
        p = ManifoldPoint.standard(2)
        s = TangentVector(np.eye(2), [0.3, -0.1])
        first = mc_oracle_metric(p, s, s, 70_000, seed=42)
        second = mc_oracle_metric(p, s, s, 70_000, seed=42)
        assert first == second

    def test_mean_direction_variance(self):
        p = ManifoldPoint.standard(1)
        t = TangentVector([[0.0]], [1.0])
        est = mc_oracle_metric(p, t, t, 200_000, seed=7)
        assert abs(est.value - 1.0) <= 3.0 * est.stderr

    def test_cross_block_vanishes(self):
        p = ManifoldPoint.standard(2)
        mean_dir = TangentVector(np.zeros((2, 2)), [1.0, 0.0])
        cov_dir = TangentVector(np.eye(2), np.zeros(2))
        est = mc_oracle_metric(p, mean_dir, cov_dir, 200_000, seed=3)
        assert abs(est.value) <= 3.0 * est.stderr

    def test_matches_closed_forms_at_random_points(self):
        rng = np.random.default_rng(2024)
        for n in (1, 2):
            p = random_point(rng, n)
            s, t = random_tangent(rng, n), random_tangent(rng, n)
            est = mc_oracle_metric(p, s, t, 300_000, seed=int(rng.integers(1 << 30)))
            assert abs(est.value - fisher_metric(p, s, t)) <= 3.0 * est.stderr

    def test_matches_closed_forms_n3_at_million_samples(self):
        rng = np.random.default_rng(314)
        p = random_point(rng, 3)
        s, t, w = (random_tangent(rng, 3) for _ in range(3))
        est = mc_oracle_metric(p, s, t, 1_000_000, seed=314)
        assert abs(est.value - fisher_metric(p, s, t)) <= 3.0 * est.stderr
        est = mc_oracle_cubic(p, s, t, w, 1_000_000, seed=314)
        assert abs(est.value - amari_cubic(p, s, t, w)) <= 3.0 * est.stderr

    def test_shard_schedule_is_the_contract(self):
        # a run spanning several shards equals the manual accumulation over
        # child seeds [seed, shard], so parallel shard execution in order
        # reproduces the serial estimate exactly
        p = ManifoldPoint.standard(2)
        s = TangentVector(np.eye(2), [0.5, 0.0])
        t = TangentVector(np.diag([1.0, -1.0]), [0.0, 0.3])
        seed, samples = 17, 150_000
        est = mc_oracle_metric(p, s, t, samples, seed)

        inv = p.sigma_inv
        total = total_sq = 0.0
        consts = [-0.5 * float(np.trace(inv @ u.x)) for u in (s, t)]
        remaining, shard = samples, 0
        while remaining > 0:
            count = min(remaining, 1 << 16)
            rng = np.random.default_rng([seed, shard])
            z = rng.standard_normal((count, 2))
            w = (z @ p.chol.T) @ inv
            product = np.ones(count)
            for u, const in zip((s, t), consts):
                quad = 0.5 * np.einsum("ij,jk,ik->i", w, u.x, w)
                product = product * (const + quad + w @ u.v)
            total += float(product.sum())
            total_sq += float((product * product).sum())
            remaining -= count
            shard += 1
        assert est.value == total / samples
        variance = max(total_sq - total * total / samples, 0.0) / (samples - 1)
        assert est.stderr == math.sqrt(variance / samples)

    def test_cubic_oracle_n1(self):
        p = ManifoldPoint.standard(1)
        cov_dir = TangentVector([[1.0]], [0.0])
        mean_dir = TangentVector([[0.0]], [1.0])
        est = mc_oracle_cubic(p, cov_dir, mean_dir, mean_dir, 300_000, seed=5)
        closed = amari_cubic(p, cov_dir, mean_dir, mean_dir)
        assert abs(est.value - closed) <= 3.0 * est.stderr

    def test_cubic_estimator_symmetric_under_permutation(self):
        # same seed draws the same sample set, and the integrand is symmetric
        p = ManifoldPoint.standard(2)
        s = TangentVector(np.eye(2), [0.1, 0.0])
        t = TangentVector(np.diag([1.0, 0.0]), [0.0, 0.2])
        w = TangentVector(np.zeros((2, 2)), [1.0, 1.0])
        reference = mc_oracle_cubic(p, s, t, w, 10_000, seed=9)
        permuted = mc_oracle_cubic(p, w, s, t, 10_000, seed=9)
        assert reference.value == permuted.value
        assert reference.stderr == permuted.stderr


#: (n, samples) -> float.hex of (value, stderr) of the metric and the cubic
#: estimate at seed 11, as the serial estimator gave them when it drew and
#: scored each shard whole; 2**18 + 5 samples are four full shards and a
#: partial one, 70 000 are a full shard and a partial one with a partial block
MC_PINS = {
    (1, 2): (('0x1.5853a495a2458p-2', '0x1.65a2c44493e46p-2'), ('0x1.bbeffd11a5d5cp-4', '0x1.c5f9c79a112ecp-4')),
    (1, 70000): (('0x1.455fdff9980e4p-2', '0x1.bcac0bbefde96p-10'), ('-0x1.1b66b421d3eefp-4', '0x1.62e1b9af5de91p-10')),
    (1, 262149): (('0x1.4503b8cf5d542p-2', '0x1.cef7cb3d3b730p-11'), ('-0x1.12e8e75c9faaep-4', '0x1.6894d98e47acdp-11')),
    (2, 2): (('0x1.bf67c9502fbe1p-3', '0x1.9351c84c69afdp-3'), ('0x1.1c18e48b22fc4p-5', '0x1.932d4d51407a6p-5')),
    (2, 70000): (('0x1.cfd04b3441716p-7', '0x1.ca858d5970237p-9'), ('0x1.b8259eac36144p-3', '0x1.d955f41c0698ep-7')),
    (2, 262149): (('0x1.590faa2a4d854p-7', '0x1.daf25bb70f1fep-10'), ('0x1.c094c9757ca31p-3', '0x1.efbb309580c9cp-8')),
    (3, 2): (('0x1.21c41155de4dap-2', '0x1.450dcefd99b2fp-4'), ('-0x1.d6b6b600a6f1cp-8', '0x1.aecc1b0263666p-5')),
    (3, 70000): (('0x1.c8d72a7472f77p-2', '0x1.c836542800556p-9'), ('0x1.59b61be61db1fp-6', '0x1.0f7a6bea1f33fp-8')),
    (3, 262149): (('0x1.ce66bb12ffb81p-2', '0x1.df6ca7804239cp-10'), ('0x1.8442887351907p-6', '0x1.1b8b56af71701p-9')),
    (8, 2): (('-0x1.b0edbdc13a7d6p-8', '0x1.905e73f5b1d05p-6'), ('-0x1.006c239685770p-10', '0x1.60d3f9723b741p-7')),
    (8, 70000): (('-0x1.e530b011ac691p-4', '0x1.240f71a915000p-9'), ('0x1.e00843e6f7c7dp-5', '0x1.0b965ad256599p-9')),
    (8, 262149): (('-0x1.e39ce09b8f580p-4', '0x1.30f75a5334d87p-10'), ('0x1.e79e8fe401652p-5', '0x1.202deb226405ap-10')),
    (16, 2): (('-0x1.9c6972d8588b9p-3', '0x1.6b94304cf26c1p-3'), ('0x1.5bc8c1040b978p-3', '0x1.18bac57f169c5p-3')),
    (16, 70000): (('0x1.ed835b7b22223p-10', '0x1.5ff57f0dc776dp-9'), ('0x1.2f975b72c07f3p-6', '0x1.27561d3c4ab40p-9')),
    (16, 262149): (('0x1.319a3a275f7c4p-13', '0x1.6d3f06b173b80p-10'), ('0x1.5146382dfb766p-6', '0x1.3157b5656e3d5p-10')),
}


def pin_inputs(n):
    rng = np.random.default_rng([2026, n])
    p = random_point(rng, n)
    s, t, w = (random_tangent(rng, n) for _ in range(3))
    return p, s, t, w


def hex_pair(estimate):
    return estimate.value.hex(), estimate.stderr.hex()


class TestMonteCarloPins:
    @pytest.mark.parametrize("n,samples", list(MC_PINS))
    def test_estimates_are_pinned_bit_for_bit(self, n, samples):
        p, s, t, w = pin_inputs(n)
        metric = mc_oracle_metric(p, s, t, samples, 11)
        cubic = mc_oracle_cubic(p, s, t, w, samples, 11)
        assert (hex_pair(metric), hex_pair(cubic)) == MC_PINS[n, samples]
        assert mc_oracle_metric_and_cubic(p, s, t, w, samples, 11) == (metric, cubic)

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    def test_cpu_count_does_not_change_the_estimates(self, monkeypatch, cpus):
        # five shards: one thread, two threads whose buffers serve a full
        # shard and then the 5-sample one, or one thread per shard
        p, s, t, w = pin_inputs(3)
        samples = (1 << 18) + 5
        default = mc_oracle_metric_and_cubic(p, s, t, w, samples, 11)
        monkeypatch.setattr("gaussgeom.manifold._available_cpus", lambda: cpus)
        assert mc_oracle_metric_and_cubic(p, s, t, w, samples, 11) == default

    def test_shards_follow_the_callers_floating_point_error_handling(self):
        # the squared products overflow; numpy's error state is per thread
        p = ManifoldPoint([[1e-300]], [0.0])
        t = TangentVector([[0.0]], [1.0])
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            mc_oracle_metric(p, t, t, 10, seed=1)

    def test_a_shard_that_raises_hands_its_buffers_back(self, monkeypatch):
        # one worker and two shards: the second shard takes the buffers that
        # the first held when it raised, and would wait for them forever
        monkeypatch.setattr("gaussgeom.manifold._available_cpus", lambda: 1)
        p = ManifoldPoint([[1e-300]], [0.0])
        t = TangentVector([[0.0]], [1.0])
        raised = []

        def overflowing_call():
            with np.errstate(over="raise"):
                try:
                    mc_oracle_metric(p, t, t, 70_000, seed=1)
                except FloatingPointError:
                    raised.append(True)

        thread = threading.Thread(target=overflowing_call, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert raised
        p, s, t, _ = pin_inputs(2)
        assert hex_pair(mc_oracle_metric(p, s, t, 70_000, 11)) == MC_PINS[2, 70_000][0]

    def test_shards_allocate_nothing_past_the_callers_buffers(self, monkeypatch):
        # two workers at n = 16, each with its set: two (rows, n) blocks,
        # three (rows,) vectors and the (2, SHARD_SIZE) product rows
        monkeypatch.setattr("gaussgeom.manifold._available_cpus", lambda: 2)
        p, s, t, w = pin_inputs(16)
        rows = BLOCK_VALUES // 16
        buffers = 2 * 8 * (2 * rows * 16 + 3 * rows + 2 * SHARD_SIZE)
        tracemalloc.start()
        try:
            mc_oracle_metric_and_cubic(p, s, t, w, (1 << 18) + 5, 11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= buffers + (128 << 10)

    def test_no_thread_outlives_a_call(self):
        p, s, t, w = pin_inputs(2)
        before = threading.active_count()
        mc_oracle_metric(p, s, t, (1 << 18) + 5, 11)
        mc_oracle_cubic(p, s, t, w, (1 << 18) + 5, 11)
        assert threading.active_count() == before


class TestAlphaConnectionForm:
    def test_zero_alpha_is_levi_civita_term(self):
        rng = np.random.default_rng(8)
        p = random_point(rng, 2)
        s, t, w = (random_tangent(rng, 2) for _ in range(3))
        base = alpha_connection_form(p, 0.0, s, t, w)
        plus = alpha_connection_form(p, 1.5, s, t, w)
        minus = alpha_connection_form(p, -1.5, s, t, w)
        assert rel_close((plus + minus) / 2.0, base, 1e-12)

    def test_amari_connection_kills_mean_mean_diagonal(self):
        # at the identity: Levi-Civita gives 1/sqrt2, the cubic term sqrt2,
        # and alpha = 1 cancels them exactly
        p = ManifoldPoint.standard(1)
        e1 = basis_tangent(1, BasisIndex.mean(1))
        e11 = basis_tangent(1, BasisIndex.cov(1, 1))
        lc = alpha_connection_form(p, 0.0, e1, e1, e11)
        assert rel_close(lc, 1.0 / math.sqrt(2.0), 1e-12)
        value = alpha_connection_form(p, 1.0, e1, e1, e11)
        assert abs(value) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_levi_civita_pairing_matches_einsum(self, n):
        rng = np.random.default_rng([13, n])
        p = random_point(rng, n)
        s, t, w = (random_tangent(rng, n) for _ in range(3))
        table = lie_algebra(n).levi_civita.to_float()
        cs, ct, cw = (pull_back_to_identity(p, v) for v in (s, t, w))
        lc = float(np.einsum("a,b,c,abc->", cs, ct, cw, table))
        assert rel_close(alpha_connection_form(p, 0.0, s, t, w), lc, 1e-12)
