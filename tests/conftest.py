from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from gaussgeom.exact import QSqrt2

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict[str, str]:
    """The environment with ``src`` first on PYTHONPATH, for subprocesses
    that import gaussgeom from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@st.composite
def fractions(draw, max_num: int = 9, max_den: int = 4) -> Fraction:
    num = draw(st.integers(min_value=-max_num, max_value=max_num))
    den = draw(st.sampled_from([1, 2, 3, 4][: max_den]))
    return Fraction(num, den)


@st.composite
def qsqrt2s(draw, max_num: int = 9) -> QSqrt2:
    return QSqrt2(draw(fractions(max_num)), draw(fractions(max_num)))


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2.0


def rel_close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))
