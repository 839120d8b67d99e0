"""Pointwise geometry of the manifold of n-variate normal distributions.

Closed forms for the canonical metric and cubic form at an arbitrary point
(Sigma, mu), together with a seeded Monte-Carlo oracle that estimates the same
quantities from their defining expectations over the distribution itself.
Floating point lives here; all exact arithmetic stays in the algebra layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import BasisIndex, lie_algebra

SYMMETRY_TOL = 1e-12

#: samples per Monte-Carlo shard; each shard draws from its own child seed so
#: a parallel reduction in shard order reproduces the serial result bit-for-bit
SHARD_SIZE = 1 << 16


def _as_float_array(values, shape_hint: str) -> np.ndarray:
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{shape_hint} must be an array of finite numbers") from exc
    # numpy reads None as nan; inf and nan would pass every later check
    if arr.ndim == 0 or not np.isfinite(arr).all():
        raise ValueError(f"{shape_hint} must be an array of finite numbers")
    return arr


def _checked_symmetric(m: np.ndarray, name: str) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    gap = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if gap > SYMMETRY_TOL:
        raise ValueError(f"{name} is asymmetric by {gap:.3e}")
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
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise ValueError("sigma is not positive definite") from exc
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "mu", mu)

    @property
    def n(self) -> int:
        return self.mu.shape[0]

    @classmethod
    def standard(cls, n: int) -> ManifoldPoint:
        return cls(np.eye(n), np.zeros(n))

    @cached_property
    def chol(self) -> np.ndarray:
        return np.linalg.cholesky(self.sigma)

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


def _mc_expectation(point, tangents, samples: int, seed: int) -> MCEstimate:
    if samples < 1:
        raise ValueError("samples must be at least 1")
    chol_t = point.chol.T
    inv = point.sigma_inv
    consts = [-0.5 * float(np.trace(inv @ t.x)) for t in tangents]
    total = 0.0
    total_sq = 0.0
    for shard, count in enumerate(_shard_counts(samples)):
        rng = np.random.default_rng([seed, shard])
        z = rng.standard_normal((count, point.n))
        centered = z @ chol_t
        w = centered @ inv
        product = np.ones(count)
        for t, const in zip(tangents, consts):
            quad = 0.5 * ((w @ t.x) * w).sum(1)
            product = product * (const + quad + w @ t.v)
        total += float(product.sum())
        total_sq += float((product * product).sum())
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
    return _mc_expectation(point, (s, t), samples, seed)


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
    return _mc_expectation(point, (s, t, w), samples, seed)


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
    identity, where the connection coefficients are exact; the cubic term uses
    the closed form at the point.  Left invariance makes the two consistent.
    """
    from .group import pull_back_to_identity

    cs = pull_back_to_identity(point, s)
    ct = pull_back_to_identity(point, t)
    cw = pull_back_to_identity(point, w)
    lc = float(np.einsum("a,b,c,abc->", cs, ct, cw, _levi_civita_float(point.n)))
    return lc - 0.5 * alpha * amari_cubic(point, s, t, w)
