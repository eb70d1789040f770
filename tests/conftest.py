"""Shared fixtures: analytic benchmark functions and their exact indices,
unit-uniform random vectors, and a record of the process pools started."""

import math
from collections import namedtuple

# pcesobol first: importing it pins the BLAS threads before numpy loads its
# BLAS, so the session runs one BLAS thread a process and sweeps on a pool
from pcesobol import Marginal, RandomVector, evaluation

import numpy as np
import pytest


def unit_rv(m):
    return RandomVector(
        tuple(f"x{i}" for i in range(m)),
        tuple(Marginal.uniform(-1.0, 1.0) for _ in range(m)),
    )


Pool = namedtuple("Pool", "max_workers mp_context")


@pytest.fixture
def pools(monkeypatch):
    """Every process pool ``evaluation`` starts in the test, as a ``Pool``."""
    started = []

    class RecordingPool(evaluation.ProcessPoolExecutor):
        def __init__(self, max_workers=None, mp_context=None, **kwargs):
            started.append(Pool(max_workers, mp_context))
            super().__init__(max_workers=max_workers, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingPool)
    return started


def ishigami(x, a=7.0, b=0.1):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return (
        np.sin(x[:, 0])
        + a * np.sin(x[:, 1]) ** 2
        + b * x[:, 2] ** 4 * np.sin(x[:, 0])
    )


def ishigami_analytic(a=7.0, b=0.1):
    """Closed-form decomposition with uniform inputs on [-pi, pi].

    V1 = (1 + b pi^4 / 5)^2 / 2, V2 = a^2 / 8, V3 = 0,
    V13 = b^2 pi^8 (1/18 - 1/50), all other interactions zero.
    """
    pi = math.pi
    v1 = 0.5 * (1.0 + b * pi**4 / 5.0) ** 2
    v2 = a**2 / 8.0
    v13 = b**2 * pi**8 * (1.0 / 18.0 - 1.0 / 50.0)
    d = v1 + v2 + v13
    return {
        "mean": a / 2.0,
        "variance": d,
        "S1": v1 / d,
        "S2": v2 / d,
        "S3": 0.0,
        "S13": v13 / d,
        "ST1": (v1 + v13) / d,
        "ST2": v2 / d,
        "ST3": v13 / d,
    }


G_FUNCTION_A = np.array([0.0, 1.0, 4.5, 9.0, 99.0, 99.0, 99.0, 99.0])


def g_function(x, a=G_FUNCTION_A):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return np.prod((np.abs(4.0 * x - 2.0) + a) / (1.0 + a), axis=1)


def g_function_first_order(a=G_FUNCTION_A):
    """Product formula: V_i = (1/3)(1+a_i)^-2, D = prod(1+V_i) - 1."""
    vi = (1.0 / 3.0) / (1.0 + a) ** 2
    d = np.prod(1.0 + vi) - 1.0
    return vi / d


@pytest.fixture(scope="session")
def ishigami_rv():
    return RandomVector(
        ("x1", "x2", "x3"),
        tuple(Marginal.uniform(-math.pi, math.pi) for _ in range(3)),
    )


@pytest.fixture(scope="session")
def gfunction_rv():
    names = tuple(f"x{i + 1}" for i in range(len(G_FUNCTION_A)))
    return RandomVector(
        names, tuple(Marginal.uniform(0.0, 1.0) for _ in G_FUNCTION_A)
    )
