"""Sobol' indices, screening and univariate effects from expansion coefficients.

Everything here is pure post-processing of stored coefficients: with an
orthonormal basis, the variance contribution of any variable subset u is
the sum of squared coefficients over the multi-indices supported exactly
on u, so the complete ladder of indices is read off one partition of the
variance by exact support, with no model evaluations.

The squared non-constant coefficients partition exactly into the subsets,
hence sum-of-all-indices = 1 holds to roundoff; indices are invariant
under positive rescaling of the responses but NOT under a logarithmic
transform, so every report carries the response scale it was computed in.

A report stores what it cannot derive: its ``unimportant`` list is read
off ``important``, and ``univariate_effect`` returns the effect's values
at the caller's grid points, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import eval_orthonormal_all
from .regression import SparsePce, adaptive_fit_draws, checked_responses
# not called here: perfbench's trace plan wraps this name
from .regression import adaptive_fit  # noqa: F401
from .sampling import ExperimentalDesign


def moments(pce: SparsePce):
    """Mean and standard deviation implied by the coefficients.

    The mean is the zero-index coefficient; the variance is the sum of the
    remaining squared coefficients.  Both refer to the fit scale.
    """
    return float(pce.coefficients[0]), float(np.sqrt(total_variance(pce)))


def total_variance(pce: SparsePce) -> float:
    return float(np.sum(pce.coefficients[1:] ** 2))


def _partition(pce: SparsePce) -> dict:
    """Variance share of each exact support set, ``{(i, j, ...): share}``.

    Each share is the sum of its own squared coefficients, in term order,
    divided once by the total variance, so an index reads the same number
    from whichever function reports it.  Empty for a constant expansion.
    """
    d_tot = total_variance(pce)
    if d_tot == 0.0:
        return {}
    members: dict = {}
    for k, alpha in enumerate(pce.active_set.degrees):
        support = tuple(np.flatnonzero(alpha).tolist())
        if support:
            members.setdefault(support, []).append(k)
    sq = pce.coefficients**2
    return {u: float(np.sum(sq[ks]) / d_tot) for u, ks in members.items()}


def _indices(pce: SparsePce):
    """First-order and total index per variable and the nonzero
    second-order indices, all read off one partition."""
    m = pce.active_set.m
    first, total, second = np.zeros(m), np.zeros(m), {}
    for u, share in _partition(pce).items():
        total[list(u)] += share
        if len(u) == 1:
            first[u[0]] = share
        elif len(u) == 2 and share > 0.0:
            second[u] = share
    return first, total, second


def sobol_first(pce: SparsePce) -> np.ndarray:
    """First-order (main effect) index per variable."""
    return _indices(pce)[0]


def sobol_second(pce: SparsePce) -> dict:
    """Second-order indices as a sparse map {(i, j): index}, i < j.

    Only pairs with a nonzero contribution appear; in sparse expansions
    the vast majority of the M(M-1)/2 pairs carry nothing.
    """
    return _indices(pce)[2]


def sobol_total(pce: SparsePce) -> np.ndarray:
    """Total index per variable: every term in which the variable appears.

    Exactly zero for a variable absent from the active set.
    """
    return _indices(pce)[1]


@dataclass
class SobolReport:
    """Full ladder of indices with screening verdicts and grouped sums."""

    variable_names: tuple
    response_scale: str
    mean: float
    total_variance: float
    first_order: np.ndarray
    total: np.ndarray
    second_order: dict
    screening_threshold: float
    important: list
    grouped_sums: dict | None = None

    @property
    def unimportant(self) -> list:
        """Variables whose total index is below the threshold, in order."""
        return [n for n in self.variable_names if n not in self.important]

    def ranked(self, top: int | None = None):
        """Variables by descending total index: [(name, total, first), ...]."""
        order = np.argsort(self.total)[::-1]
        if top is not None:
            order = order[:top]
        return [
            (self.variable_names[i], float(self.total[i]), float(self.first_order[i]))
            for i in order
        ]

    def to_dict(self) -> dict:
        return {
            "format": "pcesobol.sobol-report/1",
            "response_scale": self.response_scale,
            "mean": self.mean,
            "total_variance": self.total_variance,
            "screening_threshold": self.screening_threshold,
            "variables": [
                {
                    "name": n,
                    "first_order": float(self.first_order[i]),
                    "total": float(self.total[i]),
                    "important": n in self.important,
                }
                for i, n in enumerate(self.variable_names)
            ],
            "second_order": [
                {
                    "i": self.variable_names[i],
                    "j": self.variable_names[j],
                    "index": v,
                }
                for (i, j), v in sorted(
                    self.second_order.items(), key=lambda kv: -kv[1]
                )
            ],
            "grouped_sums": self.grouped_sums,
        }


def sobol_report(
    pce: SparsePce,
    threshold: float = 0.01,
    grouping: dict | None = None,
) -> SobolReport:
    """Assemble the complete report from a fitted expansion.

    A variable is important when its total index is at least ``threshold``.
    ``grouping``, if given, maps every variable name to a label, e.g. its
    physical property type; the report then sums the first-order indices
    per label, and those sums add up to the total first-order sum exactly.
    """
    names = tuple(pce.random_vector.names)
    first, tot, second = _indices(pce)
    important = [name for i, name in enumerate(names) if tot[i] >= threshold]
    sums = None
    if grouping is not None:
        missing = [n for n in names if n not in grouping]
        if missing:
            raise ValueError(f"grouping misses variables: {missing[:5]}")
        sums = {}
        for i, name in enumerate(names):
            label = grouping[name]
            sums[label] = sums.get(label, 0.0) + float(first[i])
    return SobolReport(
        variable_names=names,
        response_scale=pce.response_scale,
        mean=moments(pce)[0],
        total_variance=total_variance(pce),
        first_order=first,
        total=tot,
        second_order=second,
        screening_threshold=threshold,
        important=important,
        grouped_sums=sums,
    )


def univariate_effect(pce: SparsePce, i: int, grid) -> np.ndarray:
    """The first-order summand of variable ``i`` at each point of a
    physical ``grid``.

    The effect is the conditional expectation of the surrogate given the
    variable, minus the mean, so it integrates to zero against the
    marginal.
    """
    if not (0 <= i < pce.active_set.m):
        raise ValueError(f"variable index {i} out of range")
    degrees = pce.active_set.degrees
    mask = (degrees[:, i] > 0) & (np.count_nonzero(degrees, axis=1) == 1)
    degs = degrees[mask, i].astype(int)
    coeffs = pce.coefficients[mask]
    grid = np.asarray(grid, dtype=float).ravel()
    marg = pce.random_vector.marginals[i]
    u = marg.to_standard(grid)
    if not degs.size:
        return np.zeros_like(u)
    table = eval_orthonormal_all(marg.family, int(degs.max()), u)
    return table[:, degs] @ coeffs


@dataclass
class SubsampleStudy:
    """Distributions of total indices over repeated random subsamples."""

    variable_names: tuple
    totals: np.ndarray        # (repetitions, M)

    def summary(self) -> dict:
        """Boxplot statistics per variable: median and quartiles."""
        return {
            "variable": list(self.variable_names),
            "median": np.median(self.totals, axis=0),
            "q25": np.percentile(self.totals, 25, axis=0),
            "q75": np.percentile(self.totals, 75, axis=0),
        }


def repeated_subsample_study(
    design: ExperimentalDesign,
    responses,
    rv,
    subset_size: int = 200,
    repetitions: int = 100,
    seed: int = 0,
    p_range=range(1, 13),
    q: float = 1.0,
    scale: str = "original",
) -> SubsampleStudy:
    """Robustness of total indices under random design subsampling.

    Each repetition draws ``subset_size`` points without replacement from
    the design (per-repetition streams derived from the root seed, so
    repetitions are independent and order-insensitive), runs the adaptive
    fit and records the total indices.  All repetitions go to
    ``adaptive_fit_draws`` as one list of draws, so their fits share one
    worker per available core.  The responses are checked once, as a fit
    checks them, before any draw, so an error names design rows.
    """
    y = checked_responses(responses, design, scale)
    if not (0 < subset_size <= design.n):
        raise ValueError("subset size must lie in [1, N]")
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    draws = []
    for stream in np.random.SeedSequence(seed).spawn(repetitions):
        rng = np.random.default_rng(stream)
        rows = rng.choice(design.n, size=subset_size, replace=False)
        draws.append((ExperimentalDesign(design.names, design.points[rows]), y[rows]))
    fits = adaptive_fit_draws(draws, rv, p_range, q, scale)
    totals = np.array([sobol_total(pce) for pce, _ in fits])
    return SubsampleStudy(tuple(design.names), totals)
