"""Latin hypercube experimental designs and nested enrichment.

Every design is deterministic under its seed.  Each coordinate draws from
its own random stream derived from the root seed by a fixed splitting
rule (``SeedSequence.spawn``), so appending coordinates never perturbs the
samples of earlier ones.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .probability import RandomVector

# keeps gaussian ppf finite when a stratum sample lands on probability 0
_P_FLOOR = 1e-15


@dataclass
class ExperimentalDesign:
    """A set of physical-space input points, optionally with responses."""

    names: tuple
    points: np.ndarray
    responses: np.ndarray | None = None

    def __post_init__(self):
        self.names = tuple(self.names)
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.points.shape[1] != len(self.names):
            raise ValueError("points width does not match number of names")
        if self.responses is not None:
            self.responses = np.asarray(self.responses, dtype=float).ravel()
            if self.responses.shape[0] != self.points.shape[0]:
                raise ValueError(
                    f"{self.responses.shape[0]} responses for "
                    f"{self.points.shape[0]} points"
                )

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def m(self) -> int:
        return self.points.shape[1]

    def check_names(self, names) -> None:
        """Raise ``ValueError`` unless the columns are ``names``, in order;
        the message names the first column that differs."""
        names = tuple(names)
        if len(names) != self.m:
            raise ValueError(f"design has {self.m} columns for {len(names)} inputs")
        for k, (have, want) in enumerate(zip(self.names, names)):
            if have != want:
                raise ValueError(f"design column {k} is {have!r}, expected {want!r}")

    def with_responses(self, responses) -> "ExperimentalDesign":
        return ExperimentalDesign(self.names, self.points, responses)

    def stacked(self, other: "ExperimentalDesign") -> "ExperimentalDesign":
        """Row-concatenate two designs over the same variables."""
        if other.names != self.names:
            raise ValueError("cannot stack designs over different variables")
        if (self.responses is None) != (other.responses is None):
            raise ValueError("cannot stack designs with and without responses")
        responses = None
        if self.responses is not None:
            responses = np.concatenate([self.responses, other.responses])
        return ExperimentalDesign(
            self.names,
            np.vstack([self.points, other.points]),
            responses,
        )

    # -- CSV interchange: header row of names, one row per point; responses
    #    in a separate single-column file aligned by row index.

    def to_csv(self, path) -> None:
        write_csv(path, self.names, self.points)

    def responses_to_csv(self, path) -> None:
        if self.responses is None:
            raise ValueError("design has no responses")
        write_csv(path, ("response",), self.responses[:, None])

    @classmethod
    def from_csv(cls, path, responses_path=None) -> "ExperimentalDesign":
        with open(path) as fh:
            names = tuple(fh.readline().strip().split(","))
            body = fh.read()
        if body.strip():
            points = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        else:
            points = np.empty((0, len(names)))
        responses = load_responses_csv(responses_path) if responses_path else None
        return cls(names, points, responses)


def write_csv(path, header, rows) -> None:
    """Write a header line, then one comma-separated line per row.

    Numbers are written with 17 significant digits, so they read back
    exactly; strings are written as they are.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) + "\n"
            )


def load_responses_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline()
        if header.strip() != "response":
            raise ValueError(f"{path}: expected single 'response' column header")
        body = fh.read()
    if not body.strip():
        return np.empty(0)
    return np.loadtxt(io.StringIO(body), ndmin=1)


def _column_streams(seed, m):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(m)]


def lhs(n: int, rv: RandomVector, seed: int) -> ExperimentalDesign:
    """Latin hypercube design of ``n`` points over ``rv``.

    For every coordinate, exactly one sample falls in each of the ``n``
    equal-probability strata of the marginal; placement within a stratum
    is uniform random.  Output is deterministic for fixed ``(n, rv, seed)``.
    """
    if n < 1:
        raise ValueError("design size must be at least 1")
    cols = []
    for marg, rng in zip(rv.marginals, _column_streams(seed, rv.m)):
        p = (rng.permutation(n) + rng.random(n)) / n
        cols.append(marg.ppf(np.maximum(p, _P_FLOOR)))
    return ExperimentalDesign(rv.names, np.column_stack(cols))


def nested_lhs_enrich(
    base: ExperimentalDesign, n_add: int, rv: RandomVector, seed: int
) -> ExperimentalDesign:
    """Enrich an LHS design so the union is approximately an LHS again.

    Stratum filling, coordinate by coordinate: on the refined
    ``(N + n_add)``-level equal-probability grid, each new point takes its
    own stratum among those the base design left empty (one uniform sample
    inside it); column pairings of the new points are then randomly
    permuted.  When ``n_add`` equals the base size the union is an exact
    Latin hypercube per coordinate.
    """
    if n_add < 1:
        raise ValueError("enrichment size must be at least 1")
    base.check_names(rv.names)
    n_total = base.n + n_add
    cols = []
    for j, (marg, rng) in enumerate(zip(rv.marginals, _column_streams(seed, rv.m))):
        p_base = marg.cdf(base.points[:, j])
        occupied = np.floor(p_base * n_total).astype(int)
        occupied = np.clip(occupied, 0, n_total - 1)
        # N base points occupy at most N of the N + n_add strata
        empty = np.setdiff1d(np.arange(n_total), occupied)
        strata = rng.choice(empty, size=n_add, replace=False)
        p_new = (strata + rng.random(n_add)) / n_total
        col = marg.ppf(np.maximum(p_new, _P_FLOOR))
        cols.append(col[rng.permutation(n_add)])
    return ExperimentalDesign(rv.names, np.column_stack(cols))
