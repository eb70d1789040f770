"""Sparse expansion coefficients by hybrid least angle regression.

LAR ranks candidate basis polynomials; each path prefix is then refit by
ordinary least squares and scored with the leave-one-out error computed in
closed form from the leverages of that single fit.  The prefix with the
smallest corrected LOO error wins.  No regularization constant is ever
tuned: model size along the path plays its role.

Both jobs run in one pass over one thin QR of ``[1, psi_order...]``: each
LAR pick is orthogonalized once by a column-append step that also checks
and scores the prefix it completes, and the QR yields the next equiangular
direction, so no Gram matrix is formed or factored.  The basis matrix is
never centered: the correlations follow the LARS update, with one product
with it per step.  ``loo_error`` and ``corrected_loo`` run the same
column-append step.

Degeneracy handling is explicit: a prefix that loses rank, whose condition
estimate exceeds 1e12, or whose leverage saturates (some h_i within 1e-10
of 1, i.e. the fit memorizes point i) is never selected, and it ends the
path, since every longer prefix contains it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
# not called here: perfbench's trace plan counts calls through this name
from scipy.linalg import cho_factor  # noqa: F401

from .basis import (
    MultiIndexSet,
    _graded_lex_order,
    enumerate_hyperbolic,
    eval_basis_matrix,
)
from .probability import Marginal, RandomVector
from .sampling import ExperimentalDesign

_CORR_TOL = 1e-12       # residual-correlation floor: below it the path ends
_COND_LIMIT = 1e12      # condition estimate above which a prefix is skipped
_LEVERAGE_TOL = 1e-10   # h_i >= 1 - tol means the fit memorizes point i

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

    def save(self, path, extra: dict | None = None) -> None:
        doc = self.to_dict()
        if extra:
            doc["provenance"] = extra
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

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
        pairs = [[(int(j), int(d)) for j, d in row] for row in doc["active_set"]]
        aset = MultiIndexSet.from_sparse_pairs(
            pairs, rv.m, doc["truncation"]["p"], doc["truncation"]["q"]
        )
        # rebuild coefficient order alongside the (re-sorted) active set
        key = {tuple(sorted(row)): k for k, row in enumerate(pairs)}
        coeffs = np.empty(len(pairs))
        for k, row in enumerate(aset.to_sparse_pairs()):
            coeffs[k] = doc["coefficients"][key[tuple(sorted(row))]]
        errors = doc["errors"]
        return cls(
            random_vector=rv,
            active_set=aset,
            coefficients=coeffs,
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
    selected_p: int | None = None

    def add(self, p, candidate_size, active_size, err_loo_corrected, status="ok"):
        self.rows.append(
            {
                "p": int(p),
                "candidate_size": int(candidate_size),
                "active_size": None if active_size is None else int(active_size),
                "err_loo_corrected": None
                if err_loo_corrected is None
                else float(err_loo_corrected),
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
    when no step length is left, or at the first prefix the scan rejects
    (rank loss, condition estimate above 1e12, saturated leverage or
    card(A) >= N): no later prefix would ever be scored.  The rejected
    pick is not in the returned order.
    """
    psi = np.asarray(design_matrix, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != psi.shape[0]:
        raise ValueError("responses do not match design matrix rows")
    return _hybrid_path(psi, y).order


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
    qr = _orthogonalize(psi, y)
    return qr.loo(y - psi @ np.asarray(coeffs, dtype=float))


def corrected_loo(err_loo, psi) -> float:
    """Finite-sample corrected LOO error of a fit on ``psi`` (N x card(A)).

    Multiplies the LOO error by ``(1 - card(A)/N)^-1 (1 + tr((Psi^T Psi)^-1))``,
    with the trace taken as the squared Frobenius norm of ``R^-1`` from the
    fit's thin QR.  Both factors are >= 1.  A design the fit's prefix scan
    refuses (see ``_ThinQr.append``) raises ``ValueError``.
    """
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    return float(err_loo) * _orthogonalize(psi, np.zeros(psi.shape[0])).correction()


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
    applied twice), updates the leverages, the residuals and
    tr((Psi^T Psi)^-1), the squared Frobenius norm of R^-1, in O(N k), and
    checks and scores the prefix it completes.  Leverage only grows and
    conditioning only worsens along nested column sets, so a refused
    column or model ends every extension.
    """

    def __init__(self, y, max_cols):
        n = y.shape[0]
        self.y = y
        self.var = float(np.var(y, ddof=1)) if n > 1 else 0.0
        self.qt = np.empty((max_cols, n))  # row k is orthonormal column k
        self.r = np.zeros((max_cols, max_cols))
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
        rho = float(np.linalg.norm(w))
        if rho <= 1e-13 * max(float(np.linalg.norm(v)), 1.0):
            raise _Degenerate("design matrix is rank deficient")
        rd_min, rd_max = min(self.rd_min, rho), max(self.rd_max, rho)
        if rd_max / rd_min > _COND_LIMIT:
            raise _Degenerate("design matrix is ill-conditioned")
        self.rd_min, self.rd_max = rd_min, rd_max
        q = w / rho
        self.qt[k] = q
        self.r[:k, k] = head
        self.r[k, k] = rho
        new_col = -self.r_inv[:k, :k] @ head / rho
        self.r_inv[:k, k] = new_col
        self.r_inv[k, k] = 1.0 / rho
        self.fro2 += float(new_col @ new_col) + 1.0 / rho**2
        self.qty[k] = q @ self.y
        self.h += q**2
        self.resid -= q * self.qty[k]
        self.k = k + 1
        if np.any(self.h >= 1.0 - _LEVERAGE_TOL):
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
        err_abs = float(np.mean((resid / (1.0 - self.h)) ** 2))
        if err_abs <= _zero_floor(self.y):
            return 0.0
        if self.var <= 0.0:
            raise _Degenerate("responses have zero variance but nonzero error")
        return err_abs / self.var


def _orthogonalize(psi, y) -> _ThinQr:
    qr = _ThinQr(y, psi.shape[1])
    for col in psi.T:
        qr.append(col)
    return qr


@dataclass
class _HybridPath:
    """A LAR path with its best-scoring prefix."""

    order: list                 # selected columns of psi, in inclusion order
    best_k: int | None          # number of selected terms beside the constant
    err_loo: float
    err_corrected: float
    coeffs: np.ndarray | None   # aligned with [0] + order[:best_k]


def _hybrid_path(psi, y) -> _HybridPath:
    """LAR over the non-constant columns of ``psi``, every prefix scored.

    Each pick goes through ``_ThinQr.append``, whose first refusal ends the
    path.  With X_A the centered, unit-norm active columns, D their
    centered norms and s the correlation signs, X_A S = Q_1 R_11 D^-1 S, so
    the equiangular direction is Q_1 t with t = R_11^-T D s, and
    1^T (S X_A^T X_A S)^-1 1 = |t|^2.  The centered response and every
    direction v are orthogonal to the constant column, so X^T v is
    psi^T v / D: one product with the uncentered ``psi`` per step.
    """
    n = psi.shape[0]
    # centered 256 columns at a time: sqrt(sum psi^2 - N mean^2) would
    # cancel on a column with a large offset and a small spread
    norms = np.empty(psi.shape[1] - 1)
    for j in range(1, psi.shape[1], 256):
        block = psi[:, j : j + 256]
        norms[j - 1 : j + 255] = np.linalg.norm(block - block.mean(axis=0), axis=0)
    # columns that are constant up to roundoff never compete
    inactive = norms > 1e-13 * max(1.0, float(np.max(norms, initial=0.0)))
    norms[~inactive] = 1.0

    qr = _ThinQr(y, min(n, int(np.count_nonzero(inactive)) + 1))
    active: list[int] = []  # columns of psi[:, 1:], in inclusion order
    best_k, best = None, (np.inf, np.inf)
    try:
        best_k, best = 0, qr.append(psi[:, 0])
        c = (psi.T @ qr.resid)[1:] / norms  # resid: the centered response
        while np.any(inactive):
            c_in = np.where(inactive, np.abs(c), -np.inf)
            j_new = int(np.argmax(c_in))
            big_c = float(c_in[j_new])
            if big_c < _CORR_TOL:
                break
            scored = qr.append(psi[:, j_new + 1])
            active.append(j_new)
            inactive[j_new] = False
            if scored[1] < best[1]:
                best_k, best = len(active), scored

            k = len(active)
            signs = np.sign(c[active])
            signs[signs == 0] = 1.0
            t = qr.r_inv[1 : k + 1, 1 : k + 1].T @ (norms[active] * signs)
            a_norm = 1.0 / float(np.linalg.norm(t))
            u_dir = (t * a_norm) @ qr.qt[1 : k + 1]
            a = (psi.T @ u_dir)[1:] / norms
            with np.errstate(divide="ignore", invalid="ignore"):
                g1 = (big_c - c) / (a_norm - a)
                g2 = (big_c + c) / (a_norm + a)
            gammas = np.concatenate([g1[inactive], g2[inactive]])
            gammas = gammas[np.isfinite(gammas) & (gammas > _CORR_TOL)]
            if gammas.size == 0:
                break
            c -= float(np.min(gammas)) * a  # the LARS update (Efron et al. 2004)
    except _Degenerate:
        pass

    coeffs = None
    if best_k is not None:
        k = best_k + 1
        coeffs = solve_triangular(qr.r[:k, :k], qr.qty[:k], lower=False)
    order = [j + 1 for j in active]
    return _HybridPath(order, best_k, best[0], best[1], coeffs)


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
    prefix with the smallest corrected LOO error is returned.
    """
    y = _checked_responses(responses, design, scale)
    if scale == LOG:
        y = np.log(y)

    u = rv.to_standard(design.points)
    psi = eval_basis_matrix(candidate, u, rv.families)
    path = _hybrid_path(psi, y)
    if path.best_k is None:
        raise RuntimeError("every candidate model along the path was degenerate")

    cols = [0] + path.order[: path.best_k]
    rows = candidate.degrees[cols]
    perm = _graded_lex_order(rows)
    active = MultiIndexSet(rows[perm], candidate.p, candidate.q)
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
    )


def adaptive_fit(
    design: ExperimentalDesign,
    responses,
    rv: RandomVector,
    p_range,
    q: float,
    scale: str = ORIGINAL,
    early_stop: bool = True,
):
    """Degree-adaptive fit: sweep p, keep the smallest corrected LOO error.

    ``p_range`` is an iterable of candidate maximum degrees, swept in
    ascending order.  With ``early_stop`` (default) the sweep ends after
    three consecutive degrees without improvement.  Ties go to the smaller
    degree.  Returns ``(best_pce, diagnostics)``.
    """
    p_list = sorted(set(int(p) for p in p_range))
    if not p_list or p_list[0] < 1:
        raise ValueError("p_range must contain degrees >= 1")
    # input-contract problems would repeat identically at every degree
    y = _checked_responses(responses, design, scale)

    diag = FitDiagnostics()
    best: SparsePce | None = None
    stall = 0
    last_error: Exception | None = None
    for p in p_list:
        candidate = enumerate_hyperbolic(rv.m, p, q)
        try:
            pce = hybrid_fit(candidate, design, y, rv, scale)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            diag.add(p, len(candidate), None, None, f"failed: {exc}")
            last_error = exc
            stall += 1
            if early_stop and stall >= 3 and best is not None:
                break
            continue
        diag.add(p, len(candidate), len(pce.active_set), pce.err_loo_corrected)
        if best is None or pce.err_loo_corrected < best.err_loo_corrected:
            best = pce
            stall = 0
        else:
            stall += 1
            if early_stop and stall >= 3:
                break
    if best is None:
        raise RuntimeError(f"every degree in the sweep failed: {last_error}")
    diag.selected_p = best.degree
    return best, diag
