from __future__ import annotations

import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from gaussgeom import exact
from gaussgeom.exact import ExactArray, QSqrt2

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


def as_objects(a: ExactArray) -> np.ndarray:
    """The entries of ``a`` as an object array of exact scalars: the all-object
    reference that every storage dtype must agree with."""
    values = [a.item(*idx) for idx in np.ndindex(*a.shape)]
    return np.array(values, dtype=object).reshape(a.shape)


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n))
    return m @ m.T + n * np.eye(n)


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2.0


def rel_close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def _count_calls(monkeypatch, names: dict[str, str]) -> dict[str, int]:
    """Calls from here on of each ``exact`` helper named in ``names``,
    under its key."""
    calls = dict.fromkeys(names, 0)
    for key, name in names.items():
        helper = getattr(exact, name)

        def counted(*args, _key=key, _helper=helper):
            calls[_key] += 1
            return _helper(*args)

        monkeypatch.setattr(exact, name, counted)
    return calls


@pytest.fixture
def full_passes(monkeypatch) -> dict[str, int]:
    """Calls of each full pass of ``exact.contraction_sum`` from here on:
    "sparse" counts ``_sparse_sum``, "dense" counts ``_signed_sum``."""
    return _count_calls(monkeypatch, {"sparse": "_sparse_sum", "dense": "_signed_sum"})


@pytest.fixture
def probes(monkeypatch) -> dict[str, int]:
    """Calls of ``exact._probe``, the slice that ``contraction_vanishes``
    tries ahead of the dense pass, from here on, under "probe"."""
    return _count_calls(monkeypatch, {"probe": "_probe"})
