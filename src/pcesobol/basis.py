"""Orthonormal polynomial families and hyperbolic multi-index sets.

Conventions, fixed throughout the package:

* Legendre polynomials are orthonormal against the uniform density 1/2 on
  [-1, 1], i.e. psi_n = sqrt(2n+1) * P_n.
* Hermite polynomials are the probabilists' family normalized by
  1/sqrt(n!), orthonormal against the standard normal density.
* Multi-index sets are ordered graded-lexicographically (total degree
  first, then lexicographic on the degree tuple) so coefficient vectors
  are comparable across runs.

With orthonormal (not merely orthogonal) one-dimensional families, the
variance of an expansion is the plain sum of squared coefficients, with no
norm factors anywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LEGENDRE = "legendre"
HERMITE = "hermite"

# slack when testing the q-quasi-norm against the degree bound; sums of
# fractional powers of small integers can tie the bound exactly in reals
# but drift by an ulp in floats (e.g. sqrt(2)+sqrt(2) vs sqrt(8))
_NORM_TOL = 1e-9


def eval_orthonormal_all(family: str, max_degree: int, u) -> np.ndarray:
    """All orthonormal polynomial values of degree 0..max_degree at ``u``.

    Returns an array of shape ``u.shape + (max_degree + 1,)``.  Evaluation
    uses the orthonormal three-term recurrences, which stay well
    conditioned far beyond degree 30.
    """
    if max_degree < 0:
        raise ValueError("degree must be nonnegative")
    u = np.asarray(u, dtype=float)
    if family == LEGENDRE:
        if np.any(np.abs(u) > 1.0 + 1e-12):
            raise ValueError("legendre evaluation requires u in [-1, 1]")
    elif family != HERMITE:
        raise ValueError(f"unknown family {family!r}")
    out = np.empty(u.shape + (max_degree + 1,))
    out[..., 0] = 1.0
    if max_degree == 0:
        return out
    if family == LEGENDRE:
        out[..., 1] = math.sqrt(3.0) * u
        for n in range(1, max_degree):
            out[..., n + 1] = (math.sqrt(2 * n + 3) / (n + 1)) * (
                math.sqrt(2 * n + 1) * u * out[..., n]
                - (n / math.sqrt(2 * n - 1)) * out[..., n - 1]
            )
    else:
        out[..., 1] = u
        for n in range(1, max_degree):
            out[..., n + 1] = (
                u * out[..., n] - math.sqrt(n) * out[..., n - 1]
            ) / math.sqrt(n + 1)
    return out


def count_total_degree(m: int, p: int) -> int:
    """Size of the full total-degree basis, binom(m + p, p), exactly."""
    return math.comb(m + p, p)


@dataclass(frozen=True)
class MultiIndexSet:
    """Ordered set of tensor-degree tuples under a hyperbolic truncation.

    ``degrees`` has one row per multi-index.  The zero index is always
    present (and first), rows are unique, every row satisfies the q-norm
    bound, and the ordering is graded-lexicographic.
    """

    degrees: np.ndarray
    p: int
    q: float

    def __post_init__(self):
        degrees = np.atleast_2d(np.asarray(self.degrees))
        if degrees.dtype.kind not in "iu":
            degrees = degrees.astype(np.int64)
        object.__setattr__(self, "degrees", degrees)
        if np.any(degrees < 0):
            raise ValueError("multi-index degrees must be nonnegative")
        if not (0.0 < self.q <= 1.0):
            raise ValueError(f"q must lie in (0, 1], got {self.q}")
        order = _graded_lex_order(degrees)
        if not np.array_equal(order, np.arange(len(degrees))):
            raise ValueError("multi-index rows must be graded-lex sorted")
        if np.any(degrees[0] != 0):
            raise ValueError("the zero multi-index must be present")
        if len(degrees) > 1:
            dup = np.all(degrees[1:] == degrees[:-1], axis=1)
            if np.any(dup):
                raise ValueError("duplicate multi-indices")
        norms = np.sum(degrees.astype(float) ** self.q, axis=1)
        if np.any(norms > self.p**self.q + _NORM_TOL):
            raise ValueError("a multi-index violates the q-norm bound")

    @property
    def m(self) -> int:
        return self.degrees.shape[1]

    def __len__(self) -> int:
        return self.degrees.shape[0]

    def factors(self):
        """Row numbers of each row's two factors, or None if one is missing.

        A row's *last* factor keeps only its last nonzero degree, and its
        *parent* is the rest, so parent + last == row.  A row over one
        input has the zero row as parent; the zero row is its own parent
        and last.  Since ``eval_basis_matrix`` multiplies in coordinate
        order, every column equals its parent column times its last column
        bit for bit.  Returns ``(parent, last)`` integer arrays aligned with
        the rows, or None when some factor is not a row of the set, as
        happens in a set that is not downward closed.
        """
        deg = self.degrees
        n, m = deg.shape
        rows = np.arange(n)
        j_last = m - 1 - np.argmax(deg[:, ::-1] != 0, axis=1)
        last = np.zeros_like(deg)
        last[rows, j_last] = deg[rows, j_last]
        # each row's bytes as one opaque key; sorted, they are searchable
        keys = _row_keys(deg)
        order = np.argsort(keys)
        found = []
        for part in (deg - last, last):  # one at a time: N x M each
            wanted = _row_keys(part)
            at = order[np.minimum(np.searchsorted(keys, wanted, sorter=order), n - 1)]
            if not np.all(keys[at] == wanted):
                return None
            found.append(at)
        return found[0], found[1]

    def to_sparse_pairs(self) -> list:
        """Rows as lists of (coordinate, degree) pairs, zero entries elided."""
        out = []
        for row in self.degrees:
            nz = np.nonzero(row)[0]
            out.append([(int(j), int(row[j])) for j in nz])
        return out


def _row_keys(degrees: np.ndarray) -> np.ndarray:
    rows = np.ascontiguousarray(degrees)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def _graded_lex_order(degrees: np.ndarray) -> np.ndarray:
    keys = [degrees[:, j] for j in range(degrees.shape[1] - 1, -1, -1)]
    keys.append(degrees.sum(axis=1))
    return np.lexsort(keys)


def enumerate_hyperbolic(m: int, p: int, q: float) -> MultiIndexSet:
    """All multi-indices with (sum_i a_i^q)^(1/q) <= p, graded-lex ordered.

    The set grows one coordinate at a time: every admissible row over the
    first j coordinates is extended by each degree that keeps its running
    sum of a_i^q within p^q.  No total-degree hypercube is filtered, and no
    intermediate array outgrows the result, because a row over j
    coordinates padded with zeros is itself a member of the final set.
    """
    if m < 1:
        raise ValueError("dimension must be at least 1")
    if p < 0:
        raise ValueError("max degree must be nonnegative")
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must lie in (0, 1], got {q}")

    budget = float(p) ** q + _NORM_TOL
    cost = np.arange(p + 1, dtype=float) ** q
    rows = np.zeros((1, 0), dtype=np.int16)
    norms = np.zeros(1)
    for _ in range(m):
        r, d = np.nonzero(norms[:, None] + cost <= budget)
        rows = np.column_stack([rows[r], d.astype(np.int16)])
        norms = norms[r] + cost[d]
    return MultiIndexSet(rows[_graded_lex_order(rows)], p, q)


def eval_basis_matrix(mset: MultiIndexSet, u_points, families) -> np.ndarray:
    """Evaluate every basis polynomial at every standardized point.

    ``u_points`` is (N, M) or (M,) in standardized space; returns (N, card)
    with one column per multi-index (entry = product of the univariate
    orthonormal values; the zero-index column is identically 1).
    """
    u = np.atleast_2d(np.asarray(u_points, dtype=float))
    if u.shape[1] != mset.m:
        raise ValueError(f"points have dimension {u.shape[1]}, basis has {mset.m}")
    if len(families) != mset.m:
        raise ValueError("one polynomial family is needed per coordinate")
    max_deg = mset.degrees.max(axis=0)
    tables = [
        eval_orthonormal_all(fam, int(max_deg[j]), u[:, j])
        for j, fam in enumerate(families)
    ]
    out = np.ones((u.shape[0], len(mset)))
    for k, row in enumerate(mset.degrees):
        for j in np.nonzero(row)[0]:
            out[:, k] *= tables[j][:, row[j]]
    return out
