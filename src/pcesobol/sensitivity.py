"""Sobol' indices, screening and univariate effects from expansion coefficients.

Everything here is pure post-processing of stored coefficients: with an
orthonormal basis, the variance contribution of any variable subset u is
the sum of squared coefficients over the multi-indices supported exactly
on u, so the complete ladder of indices costs a few masked reductions and
no model evaluations.

The squared non-constant coefficients partition exactly into the subsets,
hence sum-of-all-indices = 1 holds to roundoff; indices are invariant
under positive rescaling of the responses but NOT under a logarithmic
transform, so every report carries the response scale it was computed in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import eval_orthonormal_all
from .regression import SparsePce, adaptive_fit
from .sampling import ExperimentalDesign


def moments(pce: SparsePce):
    """Mean and standard deviation implied by the coefficients.

    The mean is the zero-index coefficient; the variance is the sum of the
    remaining squared coefficients.  Both refer to the fit scale.
    """
    mean = float(pce.coefficients[0])
    var = float(np.sum(pce.coefficients[1:] ** 2))
    return mean, float(np.sqrt(var))


def total_variance(pce: SparsePce) -> float:
    return float(np.sum(pce.coefficients[1:] ** 2))


def _masks(pce: SparsePce):
    nz = pce.active_set.degrees > 0
    return nz, nz.sum(axis=1)


def sobol_first(pce: SparsePce) -> np.ndarray:
    """First-order (main effect) index per variable."""
    nz, support = _masks(pce)
    d_tot = total_variance(pce)
    out = np.zeros(pce.active_set.m)
    if d_tot == 0.0:
        return out
    sq = pce.coefficients**2
    for i in range(out.size):
        out[i] = sq[nz[:, i] & (support == 1)].sum() / d_tot
    return out


def sobol_second(pce: SparsePce) -> dict:
    """Second-order indices as a sparse map {(i, j): index}, i < j.

    Only pairs with a nonzero contribution appear; in sparse expansions
    the vast majority of the M(M-1)/2 pairs carry nothing.
    """
    nz, support = _masks(pce)
    d_tot = total_variance(pce)
    out: dict = {}
    if d_tot == 0.0:
        return out
    members: dict = {}
    for k in np.nonzero(support == 2)[0]:
        i, j = np.nonzero(nz[k])[0]
        members.setdefault((int(i), int(j)), []).append(int(k))
    for key, ks in members.items():
        # same masked-sum-then-divide form as sobol_group, so pair groups
        # reproduce these values exactly
        value = float(np.sum(pce.coefficients[ks] ** 2) / d_tot)
        if value > 0.0:
            out[key] = value
    return out


def sobol_total(pce: SparsePce) -> np.ndarray:
    """Total index per variable: every term in which the variable appears.

    Exactly zero for a variable absent from the active set.
    """
    nz, _ = _masks(pce)
    d_tot = total_variance(pce)
    out = np.zeros(pce.active_set.m)
    if d_tot == 0.0:
        return out
    sq = pce.coefficients**2
    for i in range(out.size):
        out[i] = sq[nz[:, i]].sum() / d_tot
    return out


def sobol_group(pce: SparsePce, u) -> float:
    """Index of a variable subset: terms supported on exactly that subset."""
    u = sorted(set(int(i) for i in u))
    if not u:
        raise ValueError("the variable subset must be nonempty")
    nz, support = _masks(pce)
    d_tot = total_variance(pce)
    if d_tot == 0.0:
        return 0.0
    mask = (support == len(u)) & np.all(nz[:, u], axis=1)
    return float(np.sum(pce.coefficients[mask] ** 2) / d_tot)


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
    unimportant: list
    grouped_sums: dict | None = None

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


def screen(report: SobolReport, threshold: float = 0.01):
    """Partition variables into (important, unimportant) by total index."""
    important, unimportant = [], []
    for i, name in enumerate(report.variable_names):
        (important if report.total[i] >= threshold else unimportant).append(name)
    return important, unimportant


def grouped_sums(report: SobolReport, grouping: dict) -> dict:
    """Sum first-order indices per label, e.g. per physical property type.

    ``grouping`` maps variable name to label; the per-label sums add up to
    the total first-order sum exactly.
    """
    missing = [n for n in report.variable_names if n not in grouping]
    if missing:
        raise ValueError(f"grouping misses variables: {missing[:5]}")
    out: dict = {}
    for i, name in enumerate(report.variable_names):
        label = grouping[name]
        out[label] = out.get(label, 0.0) + float(report.first_order[i])
    return out


def sobol_report(
    pce: SparsePce,
    threshold: float = 0.01,
    grouping: dict | None = None,
) -> SobolReport:
    """Assemble the complete report from a fitted expansion."""
    mean, sd = moments(pce)
    first = sobol_first(pce)
    tot = sobol_total(pce)
    report = SobolReport(
        variable_names=tuple(pce.random_vector.names),
        response_scale=pce.response_scale,
        mean=mean,
        total_variance=sd**2,
        first_order=first,
        total=tot,
        second_order=sobol_second(pce),
        screening_threshold=threshold,
        important=[],
        unimportant=[],
    )
    report.important, report.unimportant = screen(report, threshold)
    if grouping is not None:
        report.grouped_sums = grouped_sums(report, grouping)
    return report


@dataclass
class UnivariateEffect:
    """First-order summand of one variable: a 1-D polynomial and its values.

    The effect is the conditional expectation of the surrogate given the
    variable, minus the mean, so it integrates to zero against the
    marginal.
    """

    variable: int
    degrees: np.ndarray
    coefficients: np.ndarray
    grid: np.ndarray
    values: np.ndarray


def univariate_effect(pce: SparsePce, i: int, grid) -> UnivariateEffect:
    """Evaluate the first-order summand of variable ``i`` on a physical grid."""
    if not (0 <= i < pce.active_set.m):
        raise ValueError(f"variable index {i} out of range")
    nz, support = _masks(pce)
    mask = nz[:, i] & (support == 1)
    degs = pce.active_set.degrees[mask, i].astype(int)
    coeffs = pce.coefficients[mask]
    grid = np.asarray(grid, dtype=float).ravel()
    marg = pce.random_vector.marginals[i]
    u = marg.to_standard(grid)
    if degs.size:
        table = eval_orthonormal_all(marg.family, int(degs.max()), u)
        values = table[:, degs] @ coeffs
    else:
        values = np.zeros_like(u)
    return UnivariateEffect(i, degs, coeffs, grid, values)


@dataclass
class SubsampleStudy:
    """Distributions of total indices over repeated random subsamples."""

    variable_names: tuple
    totals: np.ndarray        # (repetitions, M)
    subset_size: int
    seed: int

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
    fit and records the total indices.
    """
    y = np.asarray(responses, dtype=float).ravel()
    if y.shape[0] != design.n:
        raise ValueError("responses do not match design size")
    if not (0 < subset_size <= design.n):
        raise ValueError("subset size must lie in [1, N]")
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    totals = np.empty((repetitions, rv.m))
    streams = np.random.SeedSequence(seed).spawn(repetitions)
    for r, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        rows = rng.choice(design.n, size=subset_size, replace=False)
        sub = ExperimentalDesign(
            design.names,
            design.points[rows],
            seed=design.seed,
            provenance=f"subsample({r})",
        )
        pce, _ = adaptive_fit(sub, y[rows], rv, p_range, q, scale)
        totals[r] = sobol_total(pce)
    return SubsampleStudy(tuple(design.names), totals, subset_size, seed)
