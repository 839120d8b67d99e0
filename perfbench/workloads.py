"""The benchmark's workloads: seeded inputs, calls into gaussgeom, checks.

Each workload is a closed loop with one client. A *round* is one op of each
kind the workload cycles through; :meth:`Workload.round_ops` draws the
round's inputs from the seed before any timing starts and returns one callable
per op. An op returns an :class:`Outcome` with the seconds spent in the
workload's two stages and every check that failed.

All gaussgeom functions are looked up on their module at call time, so the
tracer's wrappers are seen when it is installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

import gaussgeom.connections as connections
import gaussgeom.group as group
import gaussgeom.manifold as manifold
import gaussgeom.solver as solver
import gaussgeom.tensors as tensors
import recheck_certificate
from gaussgeom.exact import QSqrt2

#: SHA-256 of ``verify_theorem(n).to_json()`` encoded as UTF-8, taken at the
#: commit that defined this benchmark; certificate schema v1 must keep these
#: bytes.
CERTIFICATE_SHA256 = {
    2: "a0d3dfbe8515ba7cb7eeb1ca080fe5446acb141f712dcc105ac062f56c52d67f",
    4: "96bf80bddc3df83ff9ad67721a97e553b50e21e83a24775d35b8a4900708ccc5",
}

#: relative tolerance of the pointwise float checks, as in the acceptance suite
REL_TOL = 1e-9
#: a Monte-Carlo estimate further than this many standard errors from the
#: closed form fails the op; with fixed seeds a 3-sigma rule would fail some
#: seeds on every run, so 3 sigma is only counted
MC_FAIL_Z = 6.0
MC_REPORT_Z = 3.0


def rel_close(x: float, y: float, tol: float = REL_TOL) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


@dataclass
class Outcome:
    stages: tuple[float, float]
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)


class Workload:
    name: str
    #: n values whose ``lie_algebra`` tables set-up builds before the first op
    setup_ns: tuple[int, ...]
    #: names of the two stages, reported as stage1_s / stage2_s
    stage_names: tuple[str, str]
    #: what one round runs, for the report
    round_text: str

    def round_ops(self, index: int) -> list[Callable[[], Outcome]]:
        raise NotImplementedError


class Certify(Workload):
    """``verify_theorem(n)`` and its JSON, then the recheck script on the
    parsed JSON. The seed does not change the input."""

    stage_names = ("verify_s", "recheck_s")

    def __init__(self, n: int = 4, digest: str | None = None) -> None:
        self.n = n
        self.digest = CERTIFICATE_SHA256[n] if digest is None else digest
        self.name = f"certify-n{n}"
        self.setup_ns = (n,)
        self.round_text = f"verify_theorem({n}).to_json() + recheck()"

    def round_ops(self, index: int) -> list[Callable[[], Outcome]]:
        return [self._op]

    def _op(self) -> Outcome:
        t0 = time.perf_counter()
        text = solver.verify_theorem(self.n).to_json()
        t1 = time.perf_counter()
        payload = json.loads(text)
        with contextlib.redirect_stdout(io.StringIO()):
            rechecked = recheck_certificate.recheck(payload)
        t2 = time.perf_counter()

        problems = []
        if hashlib.sha256(text.encode("utf-8")).hexdigest() != self.digest:
            problems.append("certificate bytes differ from the pinned SHA-256")
        if payload.get("status") != "PASS":
            problems.append(f"status is {payload.get('status')!r}")
        if not rechecked:
            problems.append("recheck did not pass")
        return Outcome((t1 - t0, t2 - t1), problems)


def _qsqrt2_values(rng: np.random.Generator, count: int) -> list[QSqrt2]:
    nums = rng.integers(-9, 10, size=(count, 2))
    dens = rng.choice([1, 2, 4], size=(count, 2))
    return [
        QSqrt2(Fraction(int(a), int(b)), Fraction(int(c), int(d)))
        for (a, c), (b, d) in zip(nums, dens)
    ]


class Predicates(Workload):
    """Alternates a family op (the alpha-family at a seeded rational alpha:
    all four predicates and the curvature identity must hold) and a random op
    (a dense random symmetric tensor: the four verdicts must agree)."""

    stage_names = ("family_s", "random_s")

    def __init__(self, seed: int, n: int = 5) -> None:
        self.seed = seed
        self.n = n
        self.name = f"predicates-n{n}"
        self.setup_ns = (n,)
        self.round_text = "one family op + one random op"
        self.triples = len(tensors.symmetric_triples(tensors.basis_dimension(n)))

    def round_ops(self, index: int) -> list[Callable[[], Outcome]]:
        rng = np.random.default_rng([self.seed, index])
        alpha = Fraction(
            int(rng.choice([-1, 1]) * rng.integers(1, 10)), int(rng.integers(1, 5))
        )
        k = tensors.SymTensor3.from_vector(self.n, _qsqrt2_values(rng, self.triples))
        return [lambda: self._family(alpha), lambda: self._random(k)]

    def _family(self, alpha: Fraction) -> Outcome:
        t0 = time.perf_counter()
        suite = connections.predicate_suite(
            connections.amari_difference(self.n).scale(alpha)
        )
        conn = connections.alpha_connection(self.n, alpha)
        same = connections.curvature(conn) == connections.curvature(
            connections.conjugate(conn)
        )
        t1 = time.perf_counter()
        problems = []
        if not suite.all_true():
            problems.append(f"alpha={alpha}: predicates {suite.as_tuple()}")
        if not same:
            problems.append(f"alpha={alpha}: curvature differs from the conjugate's")
        return Outcome((t1 - t0, 0.0), problems)

    def _random(self, k) -> Outcome:
        t0 = time.perf_counter()
        suite = connections.predicate_suite(k)
        t1 = time.perf_counter()
        problems = [] if suite.agree() else [f"verdicts disagree: {suite.as_tuple()}"]
        return Outcome((0.0, t1 - t0), problems)


def _symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2.0


class OracleMix(Workload):
    """Cycles n through ``ns``. Per op: the Monte-Carlo metric and cubic
    estimates against the closed forms, then the pointwise checks (group
    invariance, pull-back consistency, the alpha-connection form)."""

    stage_names = ("mc_s", "pointwise_s")

    def __init__(
        self,
        seed: int,
        ns: tuple[int, ...] = (2, 8, 16),
        samples: int = 1 << 18,
        form_max_n: int = 8,
    ) -> None:
        self.seed = seed
        self.ns = ns
        self.samples = samples
        # alpha_connection_form at n=16 first builds lie_algebra(16) exactly,
        # tens of seconds; it is left out only to keep a run short
        self.form_max_n = form_max_n
        self.name = "oracle-mix"
        self.setup_ns = tuple(n for n in ns if n <= form_max_n)
        self.round_text = f"one op at each n in {ns}, {samples} MC samples per estimate"

    def round_ops(self, index: int) -> list[Callable[[], Outcome]]:
        ops = []
        for n in self.ns:
            rng = np.random.default_rng([self.seed, index, n])
            m = rng.normal(size=(n, n))
            point = manifold.ManifoldPoint(m @ m.T + n * np.eye(n), rng.normal(size=n))
            s, t, w = (
                manifold.TangentVector(_symmetric(rng, n), rng.normal(size=n))
                for _ in range(3)
            )
            a = np.triu(0.5 * rng.normal(size=(n, n)), 1) + np.diag(
                np.exp(0.3 * rng.normal(size=n))
            )
            g = group.GroupElement(a, rng.normal(size=n))
            mc_seed = int(rng.integers(1 << 30))
            alpha = float(rng.uniform(-2.0, 2.0))
            ops.append(
                lambda point=point, s=s, t=t, w=w, g=g, mc_seed=mc_seed, alpha=alpha: (
                    self._op(point, s, t, w, g, mc_seed, alpha)
                )
            )
        return ops

    def _op(self, point, s, t, w, g, mc_seed: int, alpha: float) -> Outcome:
        n = point.n
        t0 = time.perf_counter()
        metric_est = manifold.mc_oracle_metric(point, s, t, self.samples, mc_seed)
        cubic_est = manifold.mc_oracle_cubic(point, s, t, w, self.samples, mc_seed)
        t1 = time.perf_counter()
        metric = manifold.fisher_metric(point, s, t)
        cubic = manifold.amari_cubic(point, s, t, w)
        moved = group.act(g, point)
        gs, gt, gw = (group.act_tangent(g, v) for v in (s, t, w))
        moved_metric = manifold.fisher_metric(moved, gs, gt)
        moved_cubic = manifold.amari_cubic(moved, gs, gt, gw)
        flat = float(
            group.pull_back_to_identity(point, s) @ group.pull_back_to_identity(point, t)
        )
        forms = None
        if n <= self.form_max_n:
            forms = (
                manifold.alpha_connection_form(point, alpha, s, t, w),
                manifold.alpha_connection_form(moved, alpha, gs, gt, gw),
            )
        t2 = time.perf_counter()

        problems = []
        within = 0
        for what, est, exact in (("metric", metric_est, metric), ("cubic", cubic_est, cubic)):
            z = (est.value - exact) / est.stderr
            if not (math.isfinite(est.value) and math.isfinite(z)):
                problems.append(f"n={n} {what}: non-finite estimate {est}")
            elif abs(z) > MC_FAIL_Z:
                problems.append(f"n={n} {what}: {z:+.2f} standard errors off")
            within += abs(z) <= MC_REPORT_Z
        if not rel_close(moved_metric, metric):
            problems.append(f"n={n}: metric not invariant ({moved_metric} vs {metric})")
        if not rel_close(moved_cubic, cubic):
            problems.append(f"n={n}: cubic not invariant ({moved_cubic} vs {cubic})")
        if not rel_close(flat, metric):
            problems.append(f"n={n}: pulled-back metric {flat} vs {metric}")
        if forms is not None and not rel_close(*forms):
            problems.append(f"n={n}: alpha form not invariant {forms}")
        counts = {
            "mc_estimates": 2,
            "mc_within_3se": within,
            "mc_samples": metric_est.samples + cubic_est.samples,
        }
        return Outcome((t1 - t0, t2 - t1), problems, counts)


def make(name: str, seed: int) -> Workload:
    if name == "certify-n4":
        return Certify(4)
    if name == "predicates-n5":
        return Predicates(seed, 5)
    if name == "oracle-mix":
        return OracleMix(seed)
    raise KeyError(name)

