"""Input random vectors and the physical/standardized coordinate map.

Uniform marginals standardize affinely onto [-1, 1] (the Legendre weight)
and gaussian marginals onto the standard normal (the probabilists' Hermite
weight), so each coordinate of a standardized point feeds directly into the
matching orthonormal polynomial family.  Standardized and physical points
are plain float arrays; which space an array lives in is a documented
convention, not a wrapper type.

Out-of-support physical coordinates are rejected, never clamped: silent
clamping would distort every variance-based quantity computed downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNIFORM = "uniform"
GAUSSIAN = "gaussian"

# slack for round-trip float noise at support endpoints
_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class Marginal:
    """One-dimensional input distribution.

    Parameters
    ----------
    kind : {"uniform", "gaussian"}
        Distribution family.
    a, b : float
        Lower/upper bound for a uniform marginal, mean/standard deviation
        for a gaussian one.  Use the :meth:`uniform` and :meth:`gaussian`
        constructors rather than spelling the slots out.
    """

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind == UNIFORM:
            if not self.a < self.b:
                raise ValueError(
                    f"uniform marginal needs lower < upper, got [{self.a}, {self.b}]"
                )
        elif self.kind == GAUSSIAN:
            if not self.b > 0:
                raise ValueError(f"gaussian marginal needs sd > 0, got {self.b}")
        else:
            raise ValueError(f"unknown marginal kind {self.kind!r}")

    @classmethod
    def uniform(cls, lower: float, upper: float) -> "Marginal":
        return cls(UNIFORM, float(lower), float(upper))

    @classmethod
    def gaussian(cls, mean: float, sd: float) -> "Marginal":
        return cls(GAUSSIAN, float(mean), float(sd))

    @property
    def family(self) -> str:
        """Orthonormal polynomial family matching this marginal."""
        return "legendre" if self.kind == UNIFORM else "hermite"

    def to_standard(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == UNIFORM:
            lo, hi = self.a, self.b
            span = hi - lo
            bad = (x < lo - _EDGE_TOL * span) | (x > hi + _EDGE_TOL * span)
            if np.any(bad):
                raise ValueError(
                    f"coordinate outside uniform support [{lo}, {hi}]: "
                    f"{np.asarray(x)[bad].flat[0]!r}"
                )
            return np.clip(2.0 * (x - lo) / span - 1.0, -1.0, 1.0)
        return (x - self.a) / self.b

    def from_standard(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == UNIFORM:
            return self.a + 0.5 * (u + 1.0) * (self.b - self.a)
        return self.a + self.b * u

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == UNIFORM:
            return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)
        from scipy.special import ndtr  # loaded on first use: fits never call it

        return ndtr((x - self.a) / self.b)

    def ppf(self, p):
        p = np.asarray(p, dtype=float)
        if self.kind == UNIFORM:
            return self.a + p * (self.b - self.a)
        from scipy.special import ndtri  # loaded on first use: fits never call it

        return ndtri(p) * self.b + self.a

    def in_support(self, x):
        if self.kind == UNIFORM:
            return (np.asarray(x) >= self.a) & (np.asarray(x) <= self.b)
        return np.isfinite(np.asarray(x))


@dataclass(frozen=True)
class RandomVector:
    """Ordered collection of independent named marginals.

    Independence is structural: the type carries no correlation data, and
    everything downstream (tensorized bases, Sobol' decompositions) relies
    on it.
    """

    names: tuple
    marginals: tuple

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "marginals", tuple(self.marginals))
        if len(self.names) != len(self.marginals):
            raise ValueError("names and marginals must have equal length")
        if len(self.marginals) < 1:
            raise ValueError("a random vector needs at least one marginal")
        if len(set(self.names)) != len(self.names):
            raise ValueError("marginal names must be unique")

    @property
    def m(self) -> int:
        return len(self.marginals)

    @property
    def families(self) -> tuple:
        return tuple(marg.family for marg in self.marginals)

    def _check_dim(self, arr):
        if arr.shape[-1] != self.m:
            raise ValueError(
                f"point dimension {arr.shape[-1]} does not match M={self.m}"
            )

    def to_standard(self, x):
        """Map physical-space point(s) to standardized space.

        Accepts a length-M vector or an (N, M) array; returns the same
        shape.  Uniform coordinates outside their bounds raise.
        """
        x = np.asarray(x, dtype=float)
        self._check_dim(x)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        out = np.empty_like(pts)
        for j, marg in enumerate(self.marginals):
            out[:, j] = marg.to_standard(pts[:, j])
        return out[0] if single else out

    def from_standard(self, u):
        """Inverse of :meth:`to_standard`."""
        u = np.asarray(u, dtype=float)
        self._check_dim(u)
        single = u.ndim == 1
        pts = np.atleast_2d(u)
        out = np.empty_like(pts)
        for j, marg in enumerate(self.marginals):
            out[:, j] = marg.from_standard(pts[:, j])
        return out[0] if single else out

    def in_support(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self._check_dim(x)
        ok = np.ones(x.shape[0], dtype=bool)
        for j, marg in enumerate(self.marginals):
            ok &= marg.in_support(x[:, j])
        return ok
