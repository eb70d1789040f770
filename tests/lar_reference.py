"""Reference implementations that the fit is checked against.

``gram_lar_path`` is least angle regression as first written for this
package: it rebuilds the active Gram matrix and factors it by Cholesky at
every step.  ``best_prefix`` scores every prefix of a path with its own
least-squares fit, hat matrix and matrix inverse.  Neither shares code with
``pcesobol.regression``.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

CORR_TOL = 1e-12
COND_LIMIT = 1e12
LEVERAGE_TOL = 1e-10


def gram_lar_path(psi, y):
    """LAR inclusion order over the non-constant columns (column 0 is the
    constant); ends on a correlation floor, a failed Cholesky factorization
    or after min(N - 1, P) steps."""
    n, n_cols = psi.shape
    cand = list(range(1, n_cols))
    x = psi[:, cand] - psi[:, cand].mean(axis=0)
    norms = np.linalg.norm(x, axis=0)
    usable = norms > 1e-13 * max(1.0, float(np.max(norms, initial=0.0)))
    cand = [j for j, u in zip(cand, usable) if u]
    x = x[:, usable] / norms[usable]
    max_terms = min(n - 1, len(cand))
    if max_terms == 0:
        return []

    yc = y - y.mean()
    mu = np.zeros(n)
    order = []
    inactive = np.ones(len(cand), dtype=bool)
    while len(order) < max_terms:
        c = x.T @ (yc - mu)
        c_in = np.where(inactive, np.abs(c), -np.inf)
        big_c = float(np.max(c_in))
        if big_c < CORR_TOL:
            break
        j_new = int(np.argmax(c_in))
        order.append(j_new)
        inactive[j_new] = False

        signs = np.sign(c[order])
        signs[signs == 0] = 1.0
        xa = x[:, order] * signs
        try:
            chol = cho_factor(xa.T @ xa, lower=True)
        except np.linalg.LinAlgError:
            order.pop()
            break
        w = cho_solve(chol, np.ones(len(order)))
        s = float(np.sum(w))
        if s <= 0:
            order.pop()
            break
        a_norm = 1.0 / np.sqrt(s)
        u_dir = xa @ (w * a_norm)

        if len(order) == max_terms or not np.any(inactive):
            break
        a = x.T @ u_dir
        with np.errstate(divide="ignore", invalid="ignore"):
            g1 = (big_c - c) / (a_norm - a)
            g2 = (big_c + c) / (a_norm + a)
        gammas = np.concatenate([g1[inactive], g2[inactive]])
        gammas = gammas[np.isfinite(gammas) & (gammas > CORR_TOL)]
        if gammas.size == 0:
            break
        mu += float(np.min(gammas)) * u_dir
    return [cand[j] for j in order]


def best_prefix(psi, y, order):
    """``(k, coefficients)`` of the prefix ``[0] + order[:k]`` with the
    smallest corrected LOO error.  The first prefix that is rank deficient,
    conditioned beyond 1e12, saturated or as large as N ends the scan."""
    n = len(y)
    var = float(np.var(y, ddof=1))
    floor = (1e-12 * max(1.0, float(np.max(np.abs(y))))) ** 2
    best_k, best_err, best_beta = None, np.inf, None
    for k in range(len(order) + 1):
        a = psi[:, [0] + list(order[:k])]
        if a.shape[1] >= n:
            break
        q, r = np.linalg.qr(a)
        rd = np.abs(np.diag(r))
        if rd.min() <= 1e-13 * max(rd.max(), 1.0) or rd.max() / rd.min() > COND_LIMIT:
            break
        h = np.sum(q**2, axis=1)
        if np.any(h >= 1.0 - LEVERAGE_TOL):
            break
        beta, *_ = np.linalg.lstsq(a, y, rcond=None)
        err_abs = float(np.mean(((y - a @ beta) / (1.0 - h)) ** 2))
        err = 0.0 if err_abs <= floor else err_abs / var
        # tr((A^T A)^-1) = |R^-1|_F^2; inverting A^T A would square cond(A)
        trace = float(np.sum(np.linalg.inv(r) ** 2))
        corrected = err * (1.0 + trace) / (1.0 - a.shape[1] / n)
        if corrected < best_err:
            best_k, best_err, best_beta = k, corrected, beta
    return best_k, best_beta
