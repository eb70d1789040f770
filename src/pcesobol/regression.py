"""Sparse expansion coefficients by hybrid least angle regression.

LAR ranks candidate basis polynomials; each path prefix is then refit by
ordinary least squares and scored with the leave-one-out error computed in
closed form from the leverages of that single fit.  The prefix with the
smallest corrected LOO error wins.  No regularization constant is ever
tuned: model size along the path plays its role.

Both jobs run in one pass over one thin QR of ``[1, psi_order...]``: each
LAR pick is orthogonalized once by a column-append step that also checks
and scores the prefix it completes, and the QR yields the next equiangular
direction, so no Gram matrix is formed or factored.  The QR keeps R^-1,
not R: the correction term and the equiangular direction read it, and the
best prefix's coefficients are R^-1 Q^T y, so no triangular solve runs
either.  The basis matrix
``psi`` is never centered: the correlations follow the LARS update, with
one product ``psi^T v`` per step.  The path reads ``psi`` only through
that product, the columns it picks and the centered column norms, and it
holds ``psi`` in one of two forms:

* *factored*: only the constant, single-input, parent and last columns
  are evaluated and held.  Every column over two or more inputs is its
  parent column (the term without its last nonzero degree) times its last
  column (that degree alone), bit for bit, so any other column is made on
  demand, and ``psi^T v`` over those columns is read off one small product
  ``(psi_firsts * v)^T psi_seconds``: each column's first factor is the
  lower of its two held columns, and its second the higher.  On the
  78-input screening set at p = 6, q = 0.5 and 500 points, that is 469 of
  9478 columns, 1.8 MiB instead of 36.2 MiB, and a 78 x 155 product, since
  each pair term's degree-1 factor comes first; parents and lasts would
  give 154 x 154.
* *dense*: the whole matrix, and the plain ``psi^T v``.

A fit holds its basis factored when its candidate set holds every parent
and last (``MultiIndexSet.factors``) and has at least 8 times as many
multi-input columns as distinct parent and last columns; otherwise, and
always for ``lar_path``, which is given a matrix, it holds it dense.  The
rule reads the candidate set alone, before anything is evaluated, and is
not a knob.  Either form hands each picked column to the QR as a
contiguous vector equal to that column of ``psi``, so the active set,
coefficients and LOO errors are those of ``psi`` in both forms; only
roundoff in the correlations differs.  ``loo_error`` runs the same
column-append step.

Degeneracy handling is explicit: a prefix that loses rank, whose condition
estimate exceeds 1e12, or whose leverage saturates (some h_i within 1e-10
of 1, i.e. the fit memorizes point i) is never selected, and it ends the
path, since every longer prefix contains it.  The path also ends once 100
picks have passed without a new best corrected LOO error (patience), when
every residual correlation is below 1e-12, when no step length is left, or
when the candidates run out; the fit records which.

A degree sweep (``adaptive_fit``, and ``adaptive_fit_draws`` over many
row draws) runs its fits through ``evaluation.map_scheduled`` on one
worker per available core; ``taskset -c 0`` runs them in this process.
The highest degrees the sweep is sure to reach start first.  On more
than one worker, at most one degree per worker past those may be started
too; such a fit is dropped, or ended once the sweep stops, so the
selected model and the sweep table are the same.
"""

from __future__ import annotations

import json
import math
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .basis import MultiIndexSet, enumerate_hyperbolic, eval_basis_matrix
from .evaluation import map_scheduled, worker_count
from .probability import Marginal, RandomVector
from .sampling import ExperimentalDesign

_CORR_TOL = 1e-12       # residual-correlation floor: below it the path ends
_FACTOR_RATIO = 8       # fewest multi-input columns per factor column run factored
_PATIENCE = 100         # picks without a new best corrected LOO that end the path
_COND_LIMIT = 1e12      # condition estimate above which a prefix is skipped
_LEVERAGE_TOL = 1e-10   # h_i >= 1 - tol means the fit memorizes point i

# not called here: perfbench's trace plan counts calls through this name
cho_factor = None

ORIGINAL = "original"
LOG = "log"
_PCE_FORMAT = "pcesobol.sparse-pce/1"


@dataclass
class SparsePce:
    """A fitted sparse polynomial chaos expansion.

    Coefficients are in the orthonormal-basis convention and aligned with
    ``active_set`` (graded-lex order, zero index first, so
    ``coefficients[0]`` is the mean in the fit scale).
    """

    random_vector: RandomVector
    active_set: MultiIndexSet
    coefficients: np.ndarray
    degree: int
    q: float
    err_loo: float
    err_loo_corrected: float
    sparsity_index: float
    candidate_size: int
    response_scale: str = ORIGINAL
    err_gen: float | None = None
    # the pick count of the LAR path that chose the active set, why it
    # ended and which product it ran; not saved, since pce.json's
    # provenance sweep lists all three
    picks: int | None = None
    path_end: str | None = None
    product: str | None = None

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float).ravel()
        if len(self.coefficients) != len(self.active_set):
            raise ValueError("coefficient vector does not match active set size")
        if not (0.0 < self.sparsity_index <= 1.0):
            raise ValueError("sparsity index must lie in (0, 1]")
        if self.response_scale not in (ORIGINAL, LOG):
            raise ValueError(f"unknown response scale {self.response_scale!r}")

    def predict(self, points):
        """Surrogate values in the fit scale at physical-space points."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        u = self.random_vector.to_standard(np.atleast_2d(pts))
        psi = eval_basis_matrix(self.active_set, u, self.random_vector.families)
        out = psi @ self.coefficients
        return float(out[0]) if single else out

    def predict_original(self, points):
        """Surrogate values in the original response scale."""
        out = self.predict(points)
        if self.response_scale == LOG:
            out = np.exp(out)
        return out

    def to_dict(self) -> dict:
        return {
            "format": _PCE_FORMAT,
            "random_vector": [
                {"name": n, "kind": marg.kind, "a": marg.a, "b": marg.b}
                for n, marg in zip(
                    self.random_vector.names, self.random_vector.marginals
                )
            ],
            "truncation": {"p": int(self.degree), "q": float(self.q)},
            "response_scale": self.response_scale,
            "candidate_size": int(self.candidate_size),
            "sparsity_index": float(self.sparsity_index),
            "errors": {
                "loo": float(self.err_loo),
                "loo_corrected": float(self.err_loo_corrected),
                "generalization": None if self.err_gen is None else float(self.err_gen),
            },
            "active_set": self.active_set.to_sparse_pairs(),
            "coefficients": [float(c) for c in self.coefficients],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SparsePce":
        tag = doc.get("format")
        if tag != _PCE_FORMAT:
            raise ValueError(
                f"unsupported PCE format tag {tag!r}; expected {_PCE_FORMAT!r}"
            )
        names = [e["name"] for e in doc["random_vector"]]
        margs = [Marginal(e["kind"], e["a"], e["b"]) for e in doc["random_vector"]]
        rv = RandomVector(tuple(names), tuple(margs))
        # rows in file order: MultiIndexSet refuses any but graded-lex order
        degrees = np.zeros((len(doc["active_set"]), rv.m), dtype=np.int64)
        for k, row in enumerate(doc["active_set"]):
            for j, d in row:
                degrees[k, int(j)] = int(d)
        errors = doc["errors"]
        return cls(
            random_vector=rv,
            active_set=MultiIndexSet(
                degrees, doc["truncation"]["p"], doc["truncation"]["q"]
            ),
            coefficients=doc["coefficients"],
            degree=doc["truncation"]["p"],
            q=doc["truncation"]["q"],
            err_loo=errors["loo"],
            err_loo_corrected=errors["loo_corrected"],
            sparsity_index=doc["sparsity_index"],
            candidate_size=doc["candidate_size"],
            response_scale=doc["response_scale"],
            err_gen=errors["generalization"],
        )

    @classmethod
    def load(cls, path) -> "SparsePce":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class FitDiagnostics:
    """Per-degree sweep table of an adaptive fit."""

    rows: list = field(default_factory=list)

    def add(self, p, candidate_size, pce: SparsePce | None = None, status="ok"):
        """One row for degree ``p``; ``pce`` is None when the fit failed."""
        self.rows.append(
            {
                "p": int(p),
                "candidate_size": int(candidate_size),
                "active_size": None if pce is None else len(pce.active_set),
                "err_loo_corrected": None if pce is None else float(pce.err_loo_corrected),
                "picks": None if pce is None else pce.picks,
                "path_end": None if pce is None else pce.path_end,
                "product": None if pce is None else pce.product,
                "status": status,
            }
        )


def lar_path(design_matrix, y):
    """Least angle regression inclusion order over basis columns.

    Column 0 is the constant; it never competes and is handled by
    centering.  Returns the ordered list of selected column indices (into
    ``design_matrix``); its prefixes are the nested candidate active sets.
    This is the path every fit walks: one pass orthogonalizes each pick
    once against ``[1, psi_order...]`` and scores each prefix on the way,
    so the path ends when every residual correlation drops below 1e-12,
    when no step length is left, when the candidates run out, 100 picks
    after the best-scoring prefix so far (patience), or at the first prefix
    the scan rejects (rank loss, condition estimate above 1e12, saturated
    leverage or card(A) >= N): no later prefix would ever be scored.  The
    rejected pick is not in the returned order.
    """
    psi = np.asarray(design_matrix, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != psi.shape[0]:
        raise ValueError("responses do not match design matrix rows")
    return _hybrid_path(_Basis(psi), y).order


def loo_error(psi, y, coeffs) -> float:
    """Relative leave-one-out error from a single fit, via leverages.

    ``(1/N) sum_i ((y_i - yhat_i) / (1 - h_i))^2`` with ``h_i`` the
    diagonal of the hat matrix of ``psi``, normalized by the empirical
    response variance.  Requires full column rank and non-saturated
    leverage.  The leverages come from the same column-append step the
    fit's prefix scan runs.
    """
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    qr = _ThinQr(y, psi.shape[1])
    for col in psi.T:
        qr.append(col)
    return qr.loo(y - psi @ np.asarray(coeffs, dtype=float))


def generalization_error(pce: SparsePce, validation: ExperimentalDesign) -> float:
    """Relative mean-square surrogate-vs-model gap on a validation set.

    Always evaluated in the original response scale: a log-scale expansion
    is exponentiated before comparison.
    """
    if validation.responses is None:
        raise ValueError("validation design has no responses")
    y = validation.responses
    var = float(np.var(y, ddof=1)) if y.size > 1 else 0.0
    if var <= 0.0:
        raise ValueError("validation responses have zero variance")
    yhat = pce.predict_original(validation.points)
    return float(np.mean((y - yhat) ** 2) / var)


def _zero_floor(y: np.ndarray) -> float:
    # squared roundoff scale of an exact fit
    return (1e-12 * max(1.0, float(np.max(np.abs(y), initial=0.0)))) ** 2


class _Degenerate(ValueError):
    """A model that cannot be fit or scored: every superset inherits it."""


class _ThinQr:
    """Thin QR of a growing set of columns, with the OLS fit of ``y`` on it.

    ``append`` orthogonalizes one more column (classical Gram-Schmidt,
    applied twice), updates the leverages, the residuals, R^-1 and
    tr((Psi^T Psi)^-1), the squared Frobenius norm of R^-1, in O(N k), and
    checks and scores the prefix it completes.  Leverage only grows and
    conditioning only worsens along nested column sets, so a refused
    column or model ends every extension.  R itself is not kept: the OLS
    coefficients on the first k columns are ``r_inv[:k, :k] @ qty[:k]``.
    """

    def __init__(self, y, max_cols):
        n = y.shape[0]
        self.y = y
        self.zero_floor = _zero_floor(y)
        self.var = float(np.var(y, ddof=1)) if n > 1 else 0.0
        self.qt = np.empty((max_cols, n))  # row k is orthonormal column k
        self.r_inv = np.zeros((max_cols, max_cols))
        self.qty = np.empty(max_cols)
        self.h = np.zeros(n)
        self.resid = y.copy()
        self.fro2 = 0.0
        self.k = 0
        self.rd_min, self.rd_max = np.inf, 0.0

    def append(self, v) -> tuple[float, float]:
        """Add column ``v``; return the prefix's (LOO, corrected LOO)."""
        k = self.k
        qt = self.qt[:k]
        head = qt @ v
        w = v - head @ qt
        extra = qt @ w
        w -= extra @ qt
        head += extra
        rho = math.sqrt(w @ w)
        if rho <= 1e-13 * max(math.sqrt(v @ v), 1.0):
            raise _Degenerate("design matrix is rank deficient")
        rd_min, rd_max = min(self.rd_min, rho), max(self.rd_max, rho)
        if rd_max / rd_min > _COND_LIMIT:
            raise _Degenerate("design matrix is ill-conditioned")
        self.rd_min, self.rd_max = rd_min, rd_max
        q = w / rho
        self.qt[k] = q
        new_col = -self.r_inv[:k, :k] @ head / rho
        self.r_inv[:k, k] = new_col
        self.r_inv[k, k] = 1.0 / rho
        self.fro2 += float(new_col @ new_col) + 1.0 / rho**2
        self.qty[k] = q @ self.y
        self.h += q**2
        self.resid -= q * self.qty[k]
        self.k = k + 1
        if self.h.max() >= 1.0 - _LEVERAGE_TOL:
            raise _Degenerate(
                "saturated leverage: the model memorizes at least one point"
            )
        err = self.loo(self.resid)
        return err, err * self.correction()

    def correction(self) -> float:
        """Corrected-over-plain LOO factor (1 + tr) / (1 - card(A)/N)."""
        n = self.h.shape[0]
        if self.k >= n:
            raise _Degenerate("correction requires card(A) < N")
        return (1.0 + self.fro2) / (1.0 - self.k / n)

    def loo(self, resid) -> float:
        """Relative LOO error of residuals ``resid`` under these leverages."""
        e = resid / (1.0 - self.h)
        err_abs = float(np.add.reduce(e * e) / e.shape[0])
        if err_abs <= self.zero_floor:
            return 0.0
        if self.var <= 0.0:
            raise _Degenerate("responses have zero variance but nonzero error")
        return err_abs / self.var


@dataclass
class _HybridPath:
    """A LAR path with its best-scoring prefix."""

    order: list                 # selected columns of psi, in inclusion order
    best_k: int | None          # number of selected terms beside the constant
    err_loo: float
    err_corrected: float
    coeffs: np.ndarray | None   # aligned with [0] + order[:best_k]
    path_end: str               # why the path ended
    product: str                # "factored" or "dense": how psi^T v ran

    @property
    def picks(self) -> int:
        return len(self.order)


class _Basis:
    """The candidate basis matrix ``psi`` (N x P), as the LAR path reads it.

    This dense form holds ``psi`` itself; ``_FactoredBasis`` holds only the
    columns its product and its other columns are made from.
    """

    form = "dense"

    def __init__(self, psi):
        self.held = np.asarray(psi, dtype=float)
        self.n, self.size = self.held.shape

    def t_product(self, v) -> np.ndarray:
        """``psi^T v``."""
        return self.held.T @ v

    def columns(self, lo, hi) -> np.ndarray:
        """Columns ``lo`` to ``hi - 1`` of ``psi``, as an (N, hi - lo) array
        laid out row by row, so that column sums add in the same order in
        both forms."""
        return self.held[:, lo:hi]

    def column(self, j) -> np.ndarray:
        """Column ``j`` of ``psi`` as a contiguous vector."""
        return np.ascontiguousarray(self.columns(j, j + 1)[:, 0])

    def centered_norms(self) -> np.ndarray:
        """Norms of the centered columns 1..P-1, formed 256 at a time:
        sqrt(sum psi^2 - N mean^2) would cancel on a column with a large
        offset and a small spread."""
        norms = np.empty(self.size - 1)
        for j in range(1, self.size, 256):
            block = self.columns(j, j + 256)
            norms[j - 1 : j + 255] = np.linalg.norm(block - block.mean(axis=0), axis=0)
        return norms


class _FactoredBasis(_Basis):
    """``psi`` kept as its held columns: the zero, single-input, parent and
    last rows of the candidate set (``MultiIndexSet.factors``).

    Column j is ``held[:, left[j]] * held[:, right[j]]``: a held column
    times the constant column, which is exact, or the lower times the
    higher of its parent and last column, which ``factors`` guarantees is
    ``psi[:, j]`` bit for bit.  ``psi^T v`` over the multi-input columns is
    read off one small product ``(psi_firsts * v)^T psi_seconds``, with
    each column under its lower held column.  ``parent_at`` and
    ``last_at`` are the held columns of the ``multi`` rows' factors.
    """

    form = "factored"

    def __init__(self, held, size, rows, multi, parent_at, last_at):
        self.held = held
        self.n, self.size = held.shape[0], size
        self.rows, self.multi = rows, multi
        lower, higher = np.minimum(parent_at, last_at), np.maximum(parent_at, last_at)
        self.left = np.zeros(size, dtype=np.intp)
        self.left[rows] = np.arange(len(rows))
        self.left[multi] = lower
        # a held column's second factor is held column 0, the constant
        self.right = np.zeros(size, dtype=np.intp)
        self.right[multi] = higher
        firsts, first_of = np.unique(lower, return_inverse=True)
        seconds, second_of = np.unique(higher, return_inverse=True)
        self.flat = first_of * len(seconds) + second_of  # place in the product
        self.firsts_t = np.ascontiguousarray(held[:, firsts].T)
        self.seconds = np.ascontiguousarray(held[:, seconds])

    def t_product(self, v) -> np.ndarray:
        out = np.empty(self.size)
        out[self.rows] = v @ self.held
        out[self.multi] = ((self.firsts_t * v) @ self.seconds).ravel()[self.flat]
        return out

    def columns(self, lo, hi) -> np.ndarray:
        left, right = self.left[lo:hi], self.right[lo:hi]
        out = np.empty((self.n, len(left)))
        return np.multiply(self.held[:, left], self.held[:, right], out=out)


def _candidate_basis(candidate: MultiIndexSet, u, families) -> _Basis:
    """The basis of ``candidate`` at standardized points ``u``, in the form
    the module docstring's rule picks from ``candidate.factors()`` before
    anything is evaluated."""
    factors = candidate.factors()
    if factors is not None:
        parent, last = factors
        multi = np.flatnonzero(parent > 0)
        parents, lasts = np.unique(parent[multi]), np.unique(last[multi])
        if multi.size and multi.size >= _FACTOR_RATIO * (len(parents) + len(lasts)):
            # graded-lex rows that include the zero row: a valid set
            rows = np.union1d(np.flatnonzero(parent == 0), np.union1d(parents, lasts))
            held = MultiIndexSet(candidate.degrees[rows], candidate.p, candidate.q)
            return _FactoredBasis(
                eval_basis_matrix(held, u, families),
                len(candidate),
                rows,
                multi,
                np.searchsorted(rows, parent[multi]),
                np.searchsorted(rows, last[multi]),
            )
    return _Basis(eval_basis_matrix(candidate, u, families))


def _hybrid_path(basis: _Basis, y) -> _HybridPath:
    """LAR over the non-constant columns of ``basis``, every prefix scored.

    Each pick goes through ``_ThinQr.append``, whose first refusal ends the
    path.  With X_A the centered, unit-norm active columns, D their
    centered norms and s the correlation signs, X_A S = Q_1 R_11 D^-1 S, so
    the equiangular direction is Q_1 t with t = R_11^-T D s, and
    1^T (S X_A^T X_A S)^-1 1 = |t|^2.  The centered response and every
    direction v are orthogonal to the constant column, so X^T v is
    psi^T v / D: one ``basis.t_product`` with the uncentered ``psi`` per
    step.  The path ends ``_PATIENCE`` picks after its best prefix.
    """
    norms = basis.centered_norms()
    # columns that are constant up to roundoff never compete
    inactive = norms > 1e-13 * max(1.0, float(np.max(norms, initial=0.0)))
    norms[~inactive] = 1.0

    qr = _ThinQr(y, min(basis.n, int(np.count_nonzero(inactive)) + 1))
    # columns of psi[:, 1:] in inclusion order: active[:k] after k picks
    active = np.empty(qr.qt.shape[0], dtype=np.intp)
    k = 0
    best_k, best = None, (np.inf, np.inf)
    path_end = "candidates exhausted"
    try:
        best_k, best = 0, qr.append(basis.column(0))
        c = basis.t_product(qr.resid)[1:] / norms  # resid: the centered response
        with np.errstate(divide="ignore", invalid="ignore"):
            while np.any(inactive):
                c_in = np.where(inactive, np.abs(c), -np.inf)
                j_new = int(np.argmax(c_in))
                big_c = float(c_in[j_new])
                if big_c < _CORR_TOL:
                    path_end = "correlation floor"
                    break
                scored = qr.append(basis.column(j_new + 1))
                active[k] = j_new
                k += 1
                inactive[j_new] = False
                if scored[1] < best[1]:
                    best_k, best = k, scored
                elif k - best_k >= _PATIENCE:
                    path_end = "patience"
                    break

                picked = active[:k]
                signs = np.sign(c[picked])
                signs[signs == 0] = 1.0
                t = qr.r_inv[1 : k + 1, 1 : k + 1].T @ (norms[picked] * signs)
                a_norm = 1.0 / math.sqrt(t @ t)
                u_dir = (t * a_norm) @ qr.qt[1 : k + 1]
                a = basis.t_product(u_dir)[1:] / norms
                c_inact, a_inact = c[inactive], a[inactive]
                g1 = (big_c - c_inact) / (a_norm - a_inact)
                g2 = (big_c + c_inact) / (a_norm + a_inact)
                gammas = np.concatenate([g1, g2])
                gammas = gammas[np.isfinite(gammas) & (gammas > _CORR_TOL)]
                if gammas.size == 0:
                    path_end = "no step length" if np.any(inactive) else "candidates exhausted"
                    break
                c -= float(np.min(gammas)) * a  # the LARS update (Efron et al. 2004)
    except _Degenerate as exc:
        path_end = str(exc)

    order = (active[:k] + 1).tolist()
    coeffs = None
    if best_k is not None:
        terms = best_k + 1
        coeffs = qr.r_inv[:terms, :terms] @ qr.qty[:terms]
    return _HybridPath(order, best_k, best[0], best[1], coeffs, path_end, basis.form)


def _checked_responses(responses, design: ExperimentalDesign, scale: str):
    """Responses as a float vector, after the checks every fit needs."""
    y = np.asarray(responses, dtype=float).ravel()
    if y.shape[0] != design.n:
        raise ValueError("responses do not match design size")
    if design.n <= 2:
        raise ValueError("need more than two design points")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        rows = ", ".join(str(i) for i in bad[:10]) + (", ..." if bad.size > 10 else "")
        raise ValueError(f"{bad.size} non-finite responses, at rows {rows}")
    if scale == LOG:
        if np.any(y <= 0):
            raise ValueError("log-scale fit requires strictly positive responses")
    elif scale != ORIGINAL:
        raise ValueError(f"unknown response scale {scale!r}")
    return y


def hybrid_fit(
    candidate: MultiIndexSet,
    design: ExperimentalDesign,
    responses,
    rv: RandomVector,
    scale: str = ORIGINAL,
) -> SparsePce:
    """Fit a sparse expansion on a fixed candidate basis.

    LAR selects the predictors; every path prefix is refit by OLS and the
    prefix with the smallest corrected LOO error is returned.  The design's
    columns must be named as ``rv``'s inputs, in order.
    """
    design.check_names(rv.names)
    y = _checked_responses(responses, design, scale)
    if scale == LOG:
        y = np.log(y)

    u = rv.to_standard(design.points)
    path = _hybrid_path(_candidate_basis(candidate, u, rv.families), y)
    if path.best_k is None:
        raise RuntimeError("every candidate model along the path was degenerate")

    cols = [0] + path.order[: path.best_k]
    # candidate rows are graded-lex sorted, so sorting the row numbers
    # puts the active rows in that order too
    perm = np.argsort(cols)
    active = MultiIndexSet(candidate.degrees[cols][perm], candidate.p, candidate.q)
    coeffs = np.asarray(path.coeffs)[perm]

    return SparsePce(
        random_vector=rv,
        active_set=active,
        coefficients=coeffs,
        degree=candidate.p,
        q=candidate.q,
        err_loo=path.err_loo,
        err_loo_corrected=path.err_corrected,
        sparsity_index=len(active) / len(candidate),
        candidate_size=len(candidate),
        response_scale=scale,
        picks=path.picks,
        path_end=path.path_end,
        product=path.product,
    )


def _fit_degree(job):
    """One fit of a sweep: ``(candidate size, pce, None)``, or ``(candidate
    size, None, message)`` when the fit failed as a degree may fail."""
    design, y, rv, p, q, scale = job
    candidate = enumerate_hyperbolic(rv.m, p, q)
    try:
        return len(candidate), hybrid_fit(candidate, design, y, rv, scale), None
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        return len(candidate), None, str(exc)


class _Sweep:
    """The early-stop rule of one degree sweep, fed fits in any order.

    A fit is a callable that returns what ``_fit_degree`` returns, or
    raises what it raised.  It is called, in ascending degree, once every
    lower degree's fit has come in.  The walk stops three degrees after the
    last improvement, once a degree has been fitted; fits past the stop
    are never called, so an error they hold is dropped.
    """

    def __init__(self, p_list):
        self.p_list = p_list
        self.diag = FitDiagnostics()
        self.best: SparsePce | None = None
        self.stall = 0
        self.last_error = None
        self.walked = 0  # p_list[:walked] have been walked
        self.stopped = False
        self._waiting = {}  # fits above the walk, by index into p_list

    def add(self, index, fit):
        self._waiting[index] = fit
        while not self.stopped and self.walked in self._waiting:
            self._step(self._waiting.pop(self.walked))

    def _step(self, fit):
        p = self.p_list[self.walked]
        self.walked += 1
        candidate_size, pce, error = fit()
        if pce is None:
            self.diag.add(p, candidate_size, status=f"failed: {error}")
            self.last_error = error
            self.stall += 1
        else:
            self.diag.add(p, candidate_size, pce)
            if self.best is None or pce.err_loo_corrected < self.best.err_loo_corrected:
                self.best, self.stall = pce, 0
            else:
                self.stall += 1
        finished = self.walked == len(self.p_list)
        self.stopped = finished or (self.stall >= 3 and self.best is not None)

    def reach(self):
        """The highest index into ``p_list`` the walk of a sweep not yet
        stopped is sure to reach, whatever the fits still to come say."""
        ahead = 3 if self.best is None else 2 - self.stall
        return min(self.walked + ahead, len(self.p_list) - 1)

    def result(self):
        if self.best is None:
            raise RuntimeError(f"every degree in the sweep failed: {self.last_error}")
        return self.best, self.diag


def adaptive_fit_draws(
    draws,
    rv: RandomVector,
    p_range,
    q: float,
    scale: str = ORIGINAL,
):
    """Degree-adaptive fit of each draw, a ``(design, responses)`` pair.

    Returns one ``(best_pce, diagnostics)`` per draw, in draw order, each
    as ``adaptive_fit`` describes.  The fits run through ``map_scheduled``
    on ``worker_count()`` workers: one per available core, when each runs
    one BLAS thread (``taskset -c 0`` runs them in this process).  Each
    fit starts as a worker frees up: of the degrees any draw's sweep is
    sure to reach, plus on more than one worker at most ``workers``
    beyond them, the highest not yet started goes first, so the longest
    fits start at once.  On one worker no degree past a sweep's stop is
    fitted.  On more, such a fit is dropped, with any error it raised, so
    the selected models and sweep tables are the same; once every sweep
    has stopped, such fits still running are ended, not awaited.  A fit
    the sweep reaches that raises anything other than ``RuntimeError`` or
    ``LinAlgError`` raises here.
    """
    p_list = sorted(set(int(p) for p in p_range))
    if not p_list or p_list[0] < 1:
        raise ValueError("p_range must contain degrees >= 1")
    # input-contract problems would repeat identically at every degree
    draws = [(design, _checked_responses(y, design, scale)) for design, y in draws]
    sweeps = [_Sweep(p_list) for _ in draws]
    started = [set() for _ in draws]
    workers = worker_count()
    # on a pool, a degree a worker past the window keeps every worker busy
    ahead = workers if workers > 1 else 0

    def next_fit():
        # the highest unstarted degree of any draw's window; ties to the first draw
        pick = None
        for d, sweep in enumerate(sweeps):
            if sweep.stopped:
                continue
            top = min(sweep.reach() + ahead, len(p_list) - 1)
            index = next((i for i in range(top, -1, -1) if i not in started[d]), -1)
            if pick is None or index > pick[1]:
                pick = (d, index)
        if pick is None or pick[1] < 0:
            return None
        d, index = pick
        started[d].add(index)
        return pick, (*draws[d], rv, p_list[index], q, scale)

    with closing(map_scheduled(_fit_degree, next_fit, workers)) as fits:
        for (d, index), future in fits:
            sweeps[d].add(index, future.result)
            if all(sweep.stopped for sweep in sweeps):
                break  # closing the map ends the fits past the stops
    return [sweep.result() for sweep in sweeps]


def adaptive_fit(
    design: ExperimentalDesign,
    responses,
    rv: RandomVector,
    p_range,
    q: float,
    scale: str = ORIGINAL,
):
    """Degree-adaptive fit: sweep p, keep the smallest corrected LOO error.

    ``p_range`` is an iterable of candidate maximum degrees, walked in
    ascending order.  Once a degree has been fitted, the sweep ends after
    three consecutive degrees without improvement.  Ties go to the smaller
    degree.  A degree whose fit fails keeps a ``failed: ...`` row.
    Returns ``(best_pce, diagnostics)``.

    This is ``adaptive_fit_draws`` with one draw: the degrees are fitted on
    one worker per available core, highest first within the degrees the
    sweep is sure to reach, and on more than one, up to that many degrees
    past the stop may be fitted too and then dropped, with the same
    result.
    """
    return adaptive_fit_draws([(design, responses)], rv, p_range, q, scale)[0]
