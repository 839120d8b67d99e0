"""Pointwise geometry of the manifold of n-variate normal distributions.

Closed forms for the canonical metric and cubic form at an arbitrary point
(Sigma, mu), together with a seeded Monte-Carlo oracle that estimates the same
quantities from their defining expectations over the distribution itself.
The oracle runs its shards on a thread pool of one thread per available CPU
and draws and scores each shard in cache-sized blocks of rows; the estimate
does not depend on the number of threads.  The calling thread allocates
every array a shard writes, one set per worker, before the pool starts, so
the workers allocate nothing per block (a thread that did would keep its own
malloc arena resident).  The pool assumes BLAS runs at one thread: with
OpenBLAS's own threads the block products at n = 16 contend with the shards
and the pool gains nothing.
Floating point lives here; all exact arithmetic stays in the algebra layer.
"""

from __future__ import annotations

import math
import os
import queue
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .algebra import BasisIndex, lie_algebra

if TYPE_CHECKING:
    from .group import GroupElement

SYMMETRY_TOL = 1e-12

#: samples per Monte-Carlo shard; shard k draws from its own child seed
#: [seed, k] and the shards' partial sums are added in shard order, so running
#: the shards on any number of threads reproduces the serial result bit-for-bit
SHARD_SIZE = 1 << 16
#: values per block: a shard is drawn and scored in blocks of the largest
#: power-of-two number of rows whose rows * n is at most this (2048 rows at
#: n = 16), so that a worker's block buffers stay in cache: two (rows, n)
#: blocks of at most 256 KiB each and three vectors of rows entries; with one
#: 512 KiB product row per tangent past the first, a worker holds 1.55 MiB for
#: a cubic estimate at n = 16. A generator's stream does
#: not depend on how the shard is split, and a row's score depends only on the
#: row wherever BLAS computes a product row the same way at any row count; a
#: BLAS that picks its kernel by matrix size can change the last bits for some
#: n (OpenBLAS 0.3.31 does for some n above 16), never with the thread count
BLOCK_VALUES = 1 << 15


class NonFiniteError(ValueError):
    """An array that must hold finite numbers holds an inf or a nan."""


def _as_float_array(values, shape_hint: str) -> np.ndarray:
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{shape_hint} must be an array of finite numbers") from exc
    if arr.ndim == 0:
        raise ValueError(f"{shape_hint} must be an array of finite numbers")
    # numpy reads None as nan; inf and nan would pass every later check
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{shape_hint} must be an array of finite numbers")
    return arr


def _checked_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    # m - m.T overflows for opposite-signed entries past half the float range;
    # the gap is relative to the largest entry, as rounding in A Sigma A^T is
    with np.errstate(over="ignore"):
        gap = float(np.max(np.abs(m - m.T), initial=0.0))
    if gap > SYMMETRY_TOL * max(1.0, float(np.max(np.abs(m), initial=0.0))):
        size = f"{gap:.3e}" if math.isfinite(gap) else f"more than {sys.float_info.max:.3e}"
        raise ValueError(f"{name} is asymmetric by {size}")
    # m + m.T would overflow for entries past half the float range
    return m + (m.T - m) / 2.0


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A normal distribution, stored as (covariance, mean)."""

    sigma: np.ndarray
    mu: np.ndarray

    def __init__(self, sigma, mu) -> None:
        sigma = _checked_symmetric(_as_float_array(sigma, "sigma"), "sigma")
        mu = _as_float_array(mu, "mu").reshape(-1)
        if mu.shape[0] != sigma.shape[0]:
            raise ValueError("mean and covariance dimensions differ")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise ValueError("sigma is not positive definite") from exc
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "mu", mu)
        # the lower factor of the check above, kept so that it is not computed again
        object.__setattr__(self, "chol", chol)

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @classmethod
    def standard(cls, n: int) -> ManifoldPoint:
        return cls(np.eye(n), np.zeros(n))

    @cached_property
    def to_identity(self) -> GroupElement:
        """The group element that moves this point to the identity, the
        inverse of the element over it: factored on first use and held by the
        point.  A point that cannot be factored raises on every use."""
        from .group import group_inv, phi_inv

        return group_inv(phi_inv(self))

    @cached_property
    def sigma_inv(self) -> np.ndarray:
        inv = np.linalg.inv(self.sigma)
        return (inv + inv.T) / 2.0

    @cached_property
    def log_det(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Tangent direction (symmetric covariance part, mean part)."""

    x: np.ndarray
    v: np.ndarray

    def __init__(self, x, v) -> None:
        x = _checked_symmetric(_as_float_array(x, "x"), "x")
        v = _as_float_array(v, "v").reshape(-1)
        if v.shape[0] != x.shape[0]:
            raise ValueError("tangent parts have different dimensions")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return self.v.shape[0]


def basis_tangent(n: int, index: BasisIndex) -> TangentVector:
    """Tangent vector at the identity point matching a basis direction."""
    x = np.zeros((n, n))
    v = np.zeros(n)
    if index.is_mean:
        v[index.i - 1] = 1.0
    elif index.i == index.j:
        x[index.i - 1, index.i - 1] = math.sqrt(2.0)
    else:
        x[index.i - 1, index.j - 1] = 1.0
        x[index.j - 1, index.i - 1] = 1.0
    return TangentVector(x, v)


def log_pdf(point: ManifoldPoint, x) -> float:
    """Log density of the distribution at a sample point."""
    x = np.asarray(x, dtype=float).reshape(-1)
    centered = x - point.mu
    z = np.linalg.solve(point.chol, centered)
    return -0.5 * (point.n * math.log(2.0 * math.pi) + point.log_det + float(z @ z))


def log_pdf_direction(point: ManifoldPoint, t: TangentVector, x) -> float:
    """Directional derivative of log_pdf in a parameter direction.

    For direction (X, v):  -tr(S X)/2 + (x-mu)^T S X S (x-mu)/2 + v^T S (x-mu)
    with S the inverse covariance.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    s = point.sigma_inv
    w = s @ (x - point.mu)
    return (
        -0.5 * float(np.trace(s @ t.x))
        + 0.5 * float(w @ t.x @ w)
        + float(t.v @ w)
    )


def fisher_metric(point: ManifoldPoint, s: TangentVector, t: TangentVector) -> float:
    """Metric value: v_s^T S v_t + tr(S X_s S X_t) / 2."""
    inv = point.sigma_inv
    mean_part = float(s.v @ inv @ t.v)
    cov_part = 0.5 * float(np.trace(inv @ s.x @ inv @ t.x))
    return mean_part + cov_part


def amari_cubic(
    point: ManifoldPoint, s: TangentVector, t: TangentVector, w: TangentVector
) -> float:
    """Cubic form: tr(S X_s S X_t S X_w) plus the mixed matrix/vector blocks,
    totally symmetric in its three arguments."""
    inv = point.sigma_inv
    xs, xt, xw = inv @ s.x, inv @ t.x, inv @ w.x
    value = float(np.trace(xs @ xt @ xw))
    value += float(t.v @ inv @ s.x @ inv @ w.v)
    value += float(s.v @ inv @ t.x @ inv @ w.v)
    value += float(s.v @ inv @ w.x @ inv @ t.v)
    return value


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    samples: int


def _shard_counts(samples: int) -> list[int]:
    full, rest = divmod(samples, SHARD_SIZE)
    return [SHARD_SIZE] * full + ([rest] if rest else [])


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mc_expectations(point, tangents, samples: int, seed: int) -> list[MCEstimate]:
    """Estimates of the expected product of the score values in the first 2,
    3, ... tangents, all from the same samples."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    n = point.n
    chol_t = point.chol.T
    inv = point.sigma_inv
    consts = [-0.5 * float(np.trace(inv @ t.x)) for t in tangents]
    counts = _shard_counts(samples)
    rows = min(max(1, BLOCK_VALUES >> (n - 1).bit_length()), counts[0])
    workers = min(len(counts), _available_cpus())
    # every array a shard writes, one set per worker, allocated here so that
    # the pool's threads allocate nothing per block: the draws, whitened in
    # place, the scored product, the quadratic and linear terms, the running
    # product, and the shard's product rows
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put((
            np.empty((rows, n)),
            np.empty((rows, n)),
            np.empty(rows),
            np.empty(rows),
            np.empty(rows),
            np.empty((len(tangents) - 1, counts[0])),
        ))
    # numpy's floating-point error handling is set per thread: the shards
    # follow the caller's
    errstate = {**np.geterr(), "call": np.geterrcall()}

    def shard_sums(shard: int, count: int) -> list[tuple[float, float]]:
        buffers = free.get()
        try:
            draws, scored, quads, linears, running, products = buffers
            rng = np.random.default_rng([seed, shard])
            with np.errstate(**errstate):
                for start in range(0, count, rows):
                    size = min(rows, count - start)
                    w, wx = draws[:size], scored[:size]
                    quad, lin, product = quads[:size], linears[:size], running[:size]
                    # w = (z @ chol_t) @ inv, then per tangent
                    # product *= const + 0.5 * ((w @ x) * w).sum(1) + w @ v,
                    # each operation the same as on fresh arrays, in order
                    rng.standard_normal(out=w)
                    np.matmul(w, chol_t, out=wx)
                    np.matmul(wx, inv, out=w)
                    product.fill(1.0)
                    for k, (t, const) in enumerate(zip(tangents, consts)):
                        np.matmul(w, t.x, out=wx)
                        np.multiply(wx, w, out=wx)
                        np.sum(wx, axis=1, out=quad)
                        quad *= 0.5
                        quad += const
                        quad += np.matmul(w, t.v, out=lin)
                        product *= quad
                        if k:
                            products[k - 1, start : start + size] = product
                sums = []
                for row in products[:, :count]:
                    total = float(row.sum())
                    # squared in place: no temporary of the row's size
                    np.multiply(row, row, out=row)
                    sums.append((total, float(row.sum())))
                return sums
        finally:
            free.put(buffers)

    with ThreadPoolExecutor(workers) as pool:
        per_shard = list(pool.map(shard_sums, range(len(counts)), counts))
    estimates = []
    for sums in zip(*per_shard):
        # added in shard order, one by one: sum() is compensated from Python 3.12
        total = 0.0
        total_sq = 0.0
        for shard_total, shard_total_sq in sums:
            total += shard_total
            total_sq += shard_total_sq
        estimates.append(_estimate(total, total_sq, samples))
    return estimates


def _estimate(total: float, total_sq: float, samples: int) -> MCEstimate:
    value = total / samples
    if samples == 1:
        return MCEstimate(value=value, stderr=math.inf, samples=1)
    variance = max(total_sq - total * total / samples, 0.0) / (samples - 1)
    return MCEstimate(
        value=value, stderr=math.sqrt(variance / samples), samples=samples
    )


def mc_oracle_metric(
    point: ManifoldPoint,
    s: TangentVector,
    t: TangentVector,
    samples: int,
    seed: int,
) -> MCEstimate:
    """Monte-Carlo estimate of the expected product of two directional score
    values; converges to fisher_metric."""
    (metric,) = _mc_expectations(point, (s, t), samples, seed)
    return metric


def mc_oracle_cubic(
    point: ManifoldPoint,
    s: TangentVector,
    t: TangentVector,
    w: TangentVector,
    samples: int,
    seed: int,
) -> MCEstimate:
    """Monte-Carlo estimate of the expected triple product of directional
    score values; converges to amari_cubic."""
    _, cubic = _mc_expectations(point, (s, t, w), samples, seed)
    return cubic


def mc_oracle_metric_and_cubic(
    point: ManifoldPoint,
    s: TangentVector,
    t: TangentVector,
    w: TangentVector,
    samples: int,
    seed: int,
) -> tuple[MCEstimate, MCEstimate]:
    """``mc_oracle_metric(point, s, t, ...)`` and ``mc_oracle_cubic(point, s,
    t, w, ...)`` with the same seed, bit-for-bit, from one pass over the
    samples: the cubic product is the metric product times the score in w."""
    metric, cubic = _mc_expectations(point, (s, t, w), samples, seed)
    return metric, cubic


@lru_cache(maxsize=None)
def _levi_civita_float(n: int) -> np.ndarray:
    return lie_algebra(n).levi_civita.to_float()


def alpha_connection_form(
    point: ManifoldPoint,
    alpha: float,
    s: TangentVector,
    t: TangentVector,
    w: TangentVector,
) -> float:
    """Metric pairing of the alpha-connection derivative with w.

    The Levi-Civita term is evaluated by pulling the arguments back to the
    identity, where the connection coefficients are exact, and pairing them
    with the table as three BLAS products; the cubic term uses the closed
    form at the point.  Left invariance makes the two consistent.
    """
    from .group import pull_back_to_identity

    cs = pull_back_to_identity(point, s)
    ct = pull_back_to_identity(point, t)
    cw = pull_back_to_identity(point, w)
    d = cs.shape[0]
    table = _levi_civita_float(point.n).reshape(d, d * d)
    lc = float(cw @ (ct @ (cs @ table).reshape(d, d)))
    return lc - 0.5 * alpha * amari_cubic(point, s, t, w)
