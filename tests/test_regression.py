import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pcesobol import (
    ExperimentalDesign,
    MultiIndexSet,
    SparsePce,
    adaptive_fit,
    enumerate_hyperbolic,
    eval_basis_matrix,
    generalization_error,
    hybrid_fit,
    lar_path,
    lhs,
    load_responses_csv,
    loo_error,
)
from pcesobol import aquifer
from pcesobol.regression import _Basis, _candidate_basis, _hybrid_path
from conftest import unit_rv
from lar_reference import best_prefix, gram_lar_path


def orthonormal_centered_columns(n, p, rng):
    """Columns orthonormal and zero-mean (orthogonal to the constant)."""
    raw = rng.normal(size=(n, p))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    return q


def naive_refit_loo(psi, y):
    n = len(y)
    errors = np.empty(n)
    for i in range(n):
        keep = np.arange(n) != i
        beta, *_ = np.linalg.lstsq(psi[keep], y[keep], rcond=None)
        errors[i] = (y[i] - psi[i] @ beta) ** 2
    return errors.mean() / np.var(y, ddof=1)


class TestLarPath:
    def test_perfectly_correlated_column_selected_first(self):
        rng = np.random.default_rng(0)
        psi = np.column_stack([np.ones(40), rng.normal(size=(40, 5))])
        y = 2.0 * psi[:, 3]
        assert lar_path(psi, y)[0] == 3

    def test_orthonormal_design_gives_descending_correlation_order(self):
        rng = np.random.default_rng(1)
        q = orthonormal_centered_columns(60, 8, rng)
        psi = np.column_stack([np.ones(60), q])
        y = q @ rng.normal(size=8) + 0.1 * rng.normal(size=60)
        yc = y - y.mean()
        expected = (1 + np.argsort(-np.abs(q.T @ yc))).tolist()
        assert lar_path(psi, y) == expected

    def test_path_prefixes_are_nested_and_unique(self):
        rng = np.random.default_rng(2)
        psi = np.column_stack([np.ones(50), rng.normal(size=(50, 20))])
        y = rng.normal(size=50)
        order = lar_path(psi, y)
        assert len(order) == len(set(order))
        assert 0 not in order  # constant column never competes

    def test_rank_collapse_truncates_path(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(30, 3))
        psi = np.column_stack([np.ones(30), base, base[:, 0]])  # duplicate column
        y = base @ np.array([1.0, -2.0, 0.5])
        order = lar_path(psi, y)
        assert len(order) <= 4

    def test_path_ends_before_card_reaches_n(self):
        rng = np.random.default_rng(4)
        psi = np.column_stack([np.ones(12), rng.normal(size=(12, 30))])
        y = rng.normal(size=12)
        assert len(lar_path(psi, y)) <= 10


def lar_path_problems():
    """The design matrices and responses of the LAR path tests above, and a
    near-constant column."""
    rng = np.random.default_rng(0)
    psi = np.column_stack([np.ones(40), rng.normal(size=(40, 5))])
    yield psi, 2.0 * psi[:, 3]
    rng = np.random.default_rng(1)
    q = orthonormal_centered_columns(60, 8, rng)
    y = q @ rng.normal(size=8) + 0.1 * rng.normal(size=60)
    yield np.column_stack([np.ones(60), q]), y
    rng = np.random.default_rng(2)
    yield np.column_stack([np.ones(50), rng.normal(size=(50, 20))]), rng.normal(size=50)
    rng = np.random.default_rng(3)
    base = rng.normal(size=(30, 3))
    y = base @ np.array([1.0, -2.0, 0.5])
    yield np.column_stack([np.ones(30), base, base[:, 0]]), y
    rng = np.random.default_rng(4)
    yield np.column_stack([np.ones(12), rng.normal(size=(12, 30))]), rng.normal(size=12)
    # offset 1e3, spread 1e-6, beside an exactly constant column: only the
    # first competes, and sqrt(sum psi^2 - N mean^2) would cancel to noise
    rng = np.random.default_rng(5)
    base = rng.normal(size=(40, 3))
    z = rng.normal(size=40)
    y = base @ np.array([1.0, -0.5, 0.25]) + 0.3 * z + 0.1 * rng.normal(size=40)
    yield np.column_stack([np.ones(40), base, 1e3 + 1e-6 * z, np.full(40, 2.0)]), y


class TestAgainstGramLar:
    """The one-pass path against the Gram/Cholesky LAR and a separate
    least-squares scan of its prefixes: same inclusion order, same
    selected prefix."""

    @pytest.mark.parametrize(
        "psi,y",
        list(lar_path_problems()),
        ids=["correlated", "orthonormal", "random", "duplicate", "wide", "near-constant"],
    )
    def test_lar_path_problems(self, psi, y):
        path = _hybrid_path(_Basis(psi), y)
        ref_order = gram_lar_path(psi, y)
        assert path.order == ref_order[: len(path.order)]
        ref_k, ref_beta, ref_err = best_prefix(psi, y, ref_order)
        assert path.best_k == ref_k
        scale = np.abs(ref_beta).max()
        assert np.allclose(path.coeffs, ref_beta, rtol=1e-9, atol=1e-9 * scale)
        assert path.err_corrected == pytest.approx(ref_err, rel=1e-9, abs=0.0)

    def test_random_hybrid_fits(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            m = int(rng.integers(2, 6))
            p, q = int(rng.integers(2, 6)), float(rng.choice([0.5, 0.8, 1.0]))
            candidate = enumerate_hyperbolic(m, p, q)
            n = int(rng.integers(15, 90))
            rv = unit_rv(m)
            design = lhs(n, rv, seed=int(rng.integers(1 << 30)))
            u = rv.to_standard(design.points)
            psi = eval_basis_matrix(candidate, u, rv.families)
            size = min(len(candidate), 6)
            rows = rng.choice(len(candidate), size=size, replace=False)
            y = psi[:, rows] @ rng.normal(size=len(rows)) + 0.05 * rng.normal(size=n)

            pce = hybrid_fit(candidate, design, y, rv)
            order = lar_path(psi, y)
            ref_order = gram_lar_path(psi, y)
            assert order == ref_order[: len(order)]
            ref_k, ref_beta, _ = best_prefix(psi, y, ref_order)
            fitted = dict(zip(map(tuple, pce.active_set.degrees), pce.coefficients))
            ref_cols = [0] + ref_order[:ref_k]
            assert set(fitted) == {tuple(candidate.degrees[c]) for c in ref_cols}
            ref = np.array([fitted[tuple(candidate.degrees[c])] for c in ref_cols])
            scale = np.abs(ref_beta).max()
            assert np.allclose(ref, ref_beta, rtol=1e-8, atol=1e-8 * scale)


class TestPathEnd:
    def test_patience_keeps_the_best_prefix(self):
        # three signal columns among 400 of noise: the best prefix comes
        # early, and the path ends 100 picks after it instead of at N - 1
        rng = np.random.default_rng(11)
        x = rng.normal(size=(300, 403))
        y = x[:, :3] @ np.array([2.0, -1.5, 1.0]) + 0.5 * rng.normal(size=300)
        psi = np.column_stack([np.ones(300), x])
        path = _hybrid_path(_Basis(psi), y)
        ref_order = gram_lar_path(psi, y)
        assert len(ref_order) == 299
        assert path.order == ref_order[: len(path.order)]
        ref_k, ref_beta, _ = best_prefix(psi, y, ref_order)
        assert path.best_k == ref_k
        scale = np.abs(ref_beta).max()
        assert np.allclose(path.coeffs, ref_beta, rtol=1e-9, atol=1e-9 * scale)
        assert len(path.order) == path.best_k + 100
        assert path.path_end == "patience"

    def test_exact_linear_data_ends_on_correlation_floor(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(40, 6))
        psi = np.column_stack([np.ones(40), x])
        path = _hybrid_path(_Basis(psi), 0.5 + 2.0 * x[:, 1] - x[:, 4])
        assert sorted(path.order) == [2, 5]
        assert path.path_end == "correlation floor"
        assert path.err_corrected == 0.0

    def test_sweep_rows_record_how_each_path_ended(self):
        rv = unit_rv(2)
        design = lhs(40, rv, seed=7)
        y = np.sin(design.points[:, 0]) + 0.1 * design.points[:, 1] ** 3
        pce, diag = adaptive_fit(design, y, rv, range(1, 5), q=1.0)
        for row in diag.rows:
            assert row["status"] == "ok"
            assert row["picks"] >= row["active_size"] - 1
            assert row["path_end"]
        # p = 1: both terms enter and nothing is left to pick
        assert diag.rows[0]["picks"] == 2
        assert diag.rows[0]["path_end"] == "candidates exhausted"
        row = diag.rows[pce.degree - 1]
        assert (row["picks"], row["path_end"]) == (pce.picks, pce.path_end)
        assert {row["product"] for row in diag.rows} == {"dense"} == {pce.product}

    def test_failed_degree_keeps_its_status(self, monkeypatch):
        from pcesobol import regression

        fit = regression.hybrid_fit

        def refuse_p2(candidate, *args, **kwargs):
            if candidate.p == 2:
                raise RuntimeError("every candidate model along the path was degenerate")
            return fit(candidate, *args, **kwargs)

        monkeypatch.setattr(regression, "hybrid_fit", refuse_p2)
        rv = unit_rv(2)
        design = lhs(30, rv, seed=6)
        _, diag = adaptive_fit(design, design.points[:, 0] ** 3, rv, [1, 2, 3], q=1.0)
        assert diag.rows[1] == {
            "p": 2, "candidate_size": 6, "active_size": None,
            "err_loo_corrected": None, "picks": None, "path_end": None,
            "product": None, "status": "failed: every candidate model along the path was degenerate",
        }
        assert diag.rows[0]["picks"] == 2 and diag.rows[2]["path_end"]


SCREENING_RESPONSES = (
    Path(__file__).resolve().parent.parent / "perfbench" / "data" / "screening_responses.csv"
)


def test_screening_coefficients_match_lstsq():
    # the coefficients come from R^-1 Q^T y; a least-squares solve on the
    # active columns must agree to well within the fit's conditioning
    rv = aquifer.random_vector(aquifer.default_model())
    design = lhs(500, rv, seed=42)
    y = load_responses_csv(SCREENING_RESPONSES)
    u = rv.to_standard(design.points)
    for scale in ("original", "log"):
        target = np.log(y) if scale == "log" else y
        for p in range(1, 7):
            pce = hybrid_fit(enumerate_hyperbolic(rv.m, p, 0.5), design, y, rv, scale)
            psi = eval_basis_matrix(pce.active_set, u, rv.families)
            ref = np.linalg.lstsq(psi, target, rcond=None)[0]
            dev = np.max(np.abs(pce.coefficients - ref)) / np.max(np.abs(ref))
            assert dev <= 1e-10, (scale, p, dev)


def test_screening_sweep_models_pinned():
    # the 12 screening fits (both scales, p 1-6, q 0.5) on the stored
    # responses, pinned to the models chosen when every path ran to its end
    rv = aquifer.random_vector(aquifer.default_model())
    design = lhs(500, rv, seed=42)
    y = load_responses_csv(SCREENING_RESPONSES)
    fits = [
        hybrid_fit(enumerate_hyperbolic(rv.m, p, 0.5), design, y, rv, scale)
        for scale in ("original", "log")
        for p in range(1, 7)
    ]
    assert [len(f.active_set) for f in fits] == [
        16, 20, 26, 105, 105, 125,
        20, 21, 32, 123, 128, 89,
    ]
    blob = np.concatenate([f.active_set.degrees for f in fits]).tobytes()
    assert hashlib.sha256(blob).hexdigest() == (
        "0d35e2f452b0facf4609f3ae7c25437f5a95c90b75815f45b4fbe52b44b206fa"
    )
    loo = [f.err_loo_corrected for f in fits]
    assert np.allclose(loo, [
        0.4102315739821108, 0.35113144182043926, 0.34466002946766955,
        0.22808357358710504, 0.21871628453738767, 0.19087231577737726,
        0.27141085249889196, 0.23653984845673307, 0.21874344710117552,
        0.1483694078763311, 0.1505309717942028, 0.13402869801763556,
    ], rtol=1e-12, atol=0.0)
    # p 1 runs out of candidates; every longer path stops on patience
    assert [f.picks for f in fits] == [78, 119, 125, 204, 204, 224,
                                       78, 120, 131, 222, 227, 188]
    assert fits[0].path_end == fits[6].path_end == "candidates exhausted"
    assert {f.path_end for f in fits[1:6] + fits[7:]} == {"patience"}
    # p <= 3 has no multi-input terms; p 4-6 run the factored product
    assert [f.product for f in fits] == 2 * (3 * ["dense"] + 3 * ["factored"])


class TestFactoredProduct:
    @staticmethod
    def both_forms(mset, n, seed):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1, 1, size=(n, mset.m))
        families = ["legendre"] * mset.m
        return _candidate_basis(mset, u, families), eval_basis_matrix(mset, u, families)

    # the screening set at p 6, and 5456 rows with 406 pair parents
    FACTORED_SETS = ((78, 6, 0.5), (30, 3, 1.0))

    def test_matches_the_dense_product(self):
        for seed, (m, p, q) in enumerate(self.FACTORED_SETS, start=31):
            mset = enumerate_hyperbolic(m, p, q)
            basis, psi = self.both_forms(mset, 60, seed)
            assert basis.form == "factored"
            assert basis.size == len(mset)
            rng = np.random.default_rng(seed)
            for v in (rng.normal(size=60), psi[:, 5] - psi[:, 5].mean()):
                bound = np.abs(psi).T @ np.abs(v)
                assert np.all(np.abs(basis.t_product(v) - psi.T @ v) <= 1e-13 * bound)
            # every column bit for bit, and contiguous
            for lo in range(0, len(mset), 1000):
                assert basis.columns(lo, lo + 1000).tobytes() == np.ascontiguousarray(
                    psi[:, lo : lo + 1000]
                ).tobytes()
            col = basis.column(len(mset) - 1)
            assert col.flags["C_CONTIGUOUS"] and col.tobytes() == psi[:, -1].tobytes()
            assert basis.centered_norms().tobytes() == _Basis(psi).centered_norms().tobytes()

    def test_holds_only_the_factor_columns(self):
        mset = enumerate_hyperbolic(30, 3, 1.0)
        parent, last = mset.factors()
        multi = parent > 0
        assert np.count_nonzero(multi[np.unique(parent[multi])]) == 406
        basis, _ = self.both_forms(mset, 8, 35)
        held = np.union1d(np.flatnonzero(~multi), np.union1d(parent[multi], last[multi]))
        assert basis.rows.tolist() == held.tolist()
        assert basis.held.shape == (8, 1 + 90 + 406)

    def test_product_takes_the_smaller_grouping(self):
        for (m, p, q), shape in zip(self.FACTORED_SETS, ((78, 155), (30, 465))):
            mset = enumerate_hyperbolic(m, p, q)
            parent, last = mset.factors()
            multi = parent > 0
            by_parent = len(np.unique(parent[multi])) * len(np.unique(last[multi]))
            basis, _ = self.both_forms(mset, 8, 37)
            rows, cols = basis.firsts_t.shape[0], basis.seconds.shape[1]
            # one grouping: each column under its lower held column
            assert (rows, cols) == shape
            assert rows * cols <= by_parent

    def test_chosen_from_the_candidate_set(self):
        def form(mset):
            u = np.zeros((5, mset.m))
            return _candidate_basis(mset, u, ["legendre"] * mset.m).form

        # not downward closed: (1, 1) has no parent (1, 0)
        assert form(MultiIndexSet(np.array([[0, 0], [0, 1], [1, 1]]), 2, 1.0)) == "dense"
        # screening at p <= 3: no multi-input columns
        assert form(enumerate_hyperbolic(78, 3, 0.5)) == "dense"
        # Ishigami at p 12: 418 pair and triple columns from 99 factors
        assert form(enumerate_hyperbolic(3, 12, 1.0)) == "dense"
        # 780 pair columns from 78 factors
        assert form(enumerate_hyperbolic(40, 4, 0.5)) == "factored"

    def test_path_is_the_dense_path(self):
        for m, p, q in ((40, 4, 0.5), (30, 3, 1.0)):
            rng = np.random.default_rng(32)
            rv = unit_rv(m)
            mset = enumerate_hyperbolic(m, p, q)
            design = lhs(200, rv, seed=33)
            u = rv.to_standard(design.points)
            psi = eval_basis_matrix(mset, u, rv.families)
            truth = rng.choice(len(mset), size=8, replace=False)
            y = psi[:, truth] @ rng.normal(size=8) + 0.1 * rng.normal(size=200)
            dense = _hybrid_path(_Basis(psi), y)
            factored = _hybrid_path(_candidate_basis(mset, u, rv.families), y)
            assert (dense.product, factored.product) == ("dense", "factored")
            assert factored.order == dense.order
            assert factored.best_k == dense.best_k
            assert factored.coeffs.tobytes() == dense.coeffs.tobytes()
            assert (factored.err_corrected, factored.path_end) == (
                dense.err_corrected, dense.path_end
            )
            assert hybrid_fit(mset, design, y, rv).product == "factored"

    def test_fit_never_evaluates_the_full_set(self, monkeypatch):
        from pcesobol import regression

        rv = unit_rv(78)
        mset = enumerate_hyperbolic(78, 6, 0.5)
        design = lhs(200, rv, seed=36)
        x = design.points
        y = x[:, 0] + x[:, 1] * x[:, 2] ** 2 + 0.1 * np.sin(3 * x[:, 3])
        shapes = []

        def recording(*args, **kwargs):
            out = eval_basis_matrix(*args, **kwargs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(regression, "eval_basis_matrix", recording)
        tracemalloc.start()
        try:
            pce = hybrid_fit(mset, design, y, rv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pce.product == "factored"
        assert max(cols for _, cols in shapes) <= 1 + 78 * 6
        assert peak < 200 * len(mset) * 8 / 2


class TestLooError:
    def test_exact_linear_data_gives_zero(self):
        x = np.linspace(-1, 1, 20)
        psi = np.column_stack([np.ones_like(x), x])
        y = 3.0 - 2.0 * x
        coeffs = np.array([3.0, -2.0])
        assert loo_error(psi, y, coeffs) < 1e-12

    def test_interpolating_fit_rejected(self):
        rng = np.random.default_rng(5)
        psi = np.column_stack([np.ones(5), rng.normal(size=(5, 4))])
        y = rng.normal(size=5)
        beta, *_ = np.linalg.lstsq(psi, y, rcond=None)
        with pytest.raises(ValueError, match="leverage"):
            loo_error(psi, y, beta)

    def test_hat_matrix_identity_matches_naive_refit(self):
        rng = np.random.default_rng(6)
        psi = np.column_stack([np.ones(30), rng.normal(size=(30, 6))])
        y = psi @ rng.normal(size=7) + 0.3 * rng.normal(size=30)
        beta, *_ = np.linalg.lstsq(psi, y, rcond=None)
        fast = loo_error(psi, y, beta)
        slow = naive_refit_loo(psi, y)
        assert fast == pytest.approx(slow, rel=1e-9)

    def test_rank_deficient_rejected(self):
        psi = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(ValueError, match="rank"):
            loo_error(psi, np.arange(10.0), np.zeros(2))


class TestCorrectedLoo:
    """The corrected LOO error of the selected prefix, as the fit reports
    it; ``TestAgainstGramLar`` checks its value against a separate scan."""

    def test_zero_error_stays_zero(self):
        rv = unit_rv(1)
        design = lhs(20, rv, seed=3)
        y = 3.0 - 2.0 * design.points[:, 0]
        pce = hybrid_fit(enumerate_hyperbolic(1, 3, 1.0), design, y, rv)
        assert pce.err_loo == 0.0
        assert pce.err_loo_corrected == 0.0

    def test_correction_factor_at_least_one(self):
        rng = np.random.default_rng(7)
        psi = np.column_stack([np.ones(50), rng.normal(size=(50, 4))])
        path = _hybrid_path(_Basis(psi), rng.normal(size=50))
        assert path.err_loo > 0.0
        assert path.err_corrected >= path.err_loo

    def test_factor_shrinks_with_sample_size(self):
        rng = np.random.default_rng(8)
        factors = []
        for n in (20, 2000):
            x = rng.normal(size=(n, 3))
            y = x @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=n)
            path = _hybrid_path(_Basis(np.column_stack([np.ones(n), x])), y)
            assert path.best_k == 3
            factors.append(path.err_corrected / path.err_loo)
        assert factors[1] < factors[0]

    def test_saturated_model_rejected(self):
        # a saturated design memorizes every point; the leverage check
        # behind the corrected error refuses it
        with pytest.raises(ValueError, match="leverage"):
            loo_error(np.eye(4), np.arange(4.0), np.full(4, 0.5))


def synthetic_sparse_truth(rng, n, m=4, p=4, q=0.8, n_terms=5, scale=1.0):
    rv = unit_rv(m)
    candidate = enumerate_hyperbolic(m, p, q)
    design = lhs(n, rv, seed=int(rng.integers(1 << 30)))
    u = rv.to_standard(design.points)
    psi = eval_basis_matrix(candidate, u, rv.families)
    rows = [0] + sorted(
        rng.choice(np.arange(1, len(candidate)), size=n_terms - 1, replace=False)
    )
    coeffs = scale * rng.normal(size=n_terms)
    y = psi[:, rows] @ coeffs
    return rv, candidate, design, y, rows, coeffs


class TestHybridFit:
    def test_recovers_synthetic_sparse_truth(self):
        rng = np.random.default_rng(9)
        rv, candidate, design, y, rows, coeffs = synthetic_sparse_truth(rng, n=50)
        pce = hybrid_fit(candidate, design, y, rv)
        truth = {
            tuple(candidate.degrees[r]): c for r, c in zip(rows, coeffs)
        }
        fitted = {
            tuple(a): c
            for a, c in zip(pce.active_set.degrees, pce.coefficients)
        }
        for alpha, c in truth.items():
            assert fitted.get(alpha, 0.0) == pytest.approx(c, rel=1e-8, abs=1e-10)
        for alpha, c in fitted.items():
            if alpha not in truth:
                assert abs(c) < 1e-8

    def test_constant_responses(self):
        rv = unit_rv(2)
        design = lhs(12, rv, seed=1)
        candidate = enumerate_hyperbolic(2, 3, 1.0)
        pce = hybrid_fit(candidate, design, np.full(12, 7.0), rv)
        assert len(pce.active_set) == 1
        assert pce.coefficients[0] == pytest.approx(7.0)
        assert pce.err_loo == 0.0

    def test_active_set_contains_zero_index_and_is_sorted(self):
        rng = np.random.default_rng(10)
        rv, candidate, design, y, _, _ = synthetic_sparse_truth(rng, n=60)
        pce = hybrid_fit(candidate, design, y + 0.01 * rng.normal(size=60), rv)
        assert np.all(pce.active_set.degrees[0] == 0)
        totals = pce.active_set.degrees.sum(axis=1)
        assert np.all(np.diff(totals) >= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        rv, candidate, design, y, _, _ = synthetic_sparse_truth(rng, n=40)
        y = y + 0.05 * np.sin(np.arange(40))
        one = hybrid_fit(candidate, design, y, rv)
        two = hybrid_fit(candidate, design, y, rv)
        assert np.array_equal(one.coefficients, two.coefficients)
        assert np.array_equal(one.active_set.degrees, two.active_set.degrees)

    def test_training_rms_bounded_by_loo(self):
        rng = np.random.default_rng(12)
        rv, candidate, design, y, _, _ = synthetic_sparse_truth(rng, n=80)
        y = y + 0.1 * rng.normal(size=80)
        pce = hybrid_fit(candidate, design, y, rv)
        resid = y - pce.predict(design.points)
        rel_rms = np.sqrt(np.mean(resid**2) / np.var(y, ddof=1))
        assert rel_rms <= np.sqrt(pce.err_loo) + 1e-12

    def test_sparsity_index_range(self):
        rng = np.random.default_rng(13)
        rv, candidate, design, y, _, _ = synthetic_sparse_truth(rng, n=50)
        pce = hybrid_fit(candidate, design, y, rv)
        assert 0.0 < pce.sparsity_index <= 1.0

    def test_non_finite_responses_name_their_rows(self):
        rv = unit_rv(2)
        design = lhs(30, rv, seed=4)
        y = design.points[:, 0] ** 2
        y[[4, 17]] = np.nan
        candidate = enumerate_hyperbolic(2, 3, 1.0)
        with pytest.raises(ValueError, match="rows 4, 17"):
            hybrid_fit(candidate, design, y, rv)
        with pytest.raises(ValueError, match="rows 4, 17"):
            adaptive_fit(design, y, rv, range(1, 4), q=1.0)

    def test_design_names_must_match_inputs(self):
        rv = unit_rv(2)
        design = lhs(20, rv, seed=1)
        swapped = ExperimentalDesign(("x1", "x0"), design.points)
        with pytest.raises(ValueError, match="column 0 is 'x1', expected 'x0'"):
            hybrid_fit(
                enumerate_hyperbolic(2, 2, 1.0), swapped, design.points[:, 0], rv
            )

    def test_too_few_points_rejected(self):
        rv = unit_rv(2)
        design = lhs(2, rv, seed=3)
        candidate = enumerate_hyperbolic(2, 1, 1.0)
        with pytest.raises(ValueError):
            hybrid_fit(candidate, design, np.zeros(2), rv)


class TestGeneralizationError:
    def test_zero_on_perfectly_fit_model(self):
        rng = np.random.default_rng(14)
        rv, candidate, design, y, _, _ = synthetic_sparse_truth(rng, n=50)
        pce = hybrid_fit(candidate, design, y, rv)
        assert generalization_error(pce, design.with_responses(y)) < 1e-10

    def test_synthetic_validation_set(self):
        rng = np.random.default_rng(15)
        rv, candidate, design, y, rows, coeffs = synthetic_sparse_truth(rng, n=60)
        pce = hybrid_fit(candidate, design, y, rv)
        val = lhs(100, rv, seed=77)
        u = rv.to_standard(val.points)
        psi = eval_basis_matrix(candidate, u, rv.families)
        y_val = psi[:, rows] @ coeffs
        assert generalization_error(pce, val.with_responses(y_val)) < 1e-10

    def test_zero_variance_rejected(self):
        rng = np.random.default_rng(16)
        rv, candidate, design, y, _, _ = synthetic_sparse_truth(rng, n=40)
        pce = hybrid_fit(candidate, design, y, rv)
        with pytest.raises(ValueError):
            generalization_error(pce, design.with_responses(np.ones(40)))

    def test_non_finite_validation_response_rejected(self):
        rng = np.random.default_rng(16)
        rv, candidate, design, y, _, _ = synthetic_sparse_truth(rng, n=40)
        pce = hybrid_fit(candidate, design, y, rv)
        y = y.copy()
        y[5] = np.inf
        with pytest.raises(ValueError, match="at rows 5"):
            generalization_error(pce, design.with_responses(y))


class TestAdaptiveFit:
    def test_quadratic_truth_selects_degree_two(self):
        rv = unit_rv(2)
        design = lhs(60, rv, seed=5)
        x = design.points
        y = 1.0 + x[:, 0] + 0.5 * x[:, 1] ** 2
        pce, _ = adaptive_fit(design, y, rv, range(1, 7), q=1.0)
        assert pce.degree == 2

    def test_single_degree_range(self):
        rv = unit_rv(2)
        design = lhs(30, rv, seed=6)
        y = design.points[:, 0] ** 2
        pce, diag = adaptive_fit(design, y, rv, [3], q=1.0)
        assert pce.degree == 3
        assert len(diag.rows) == 1

    def test_sweep_table_has_one_row_per_degree(self):
        rv = unit_rv(2)
        design = lhs(40, rv, seed=7)
        y = np.sin(design.points[:, 0])
        _, diag = adaptive_fit(design, y, rv, range(1, 5), q=0.5)
        assert [row["p"] for row in diag.rows] == [1, 2, 3, 4]

    def test_redundant_candidates_do_not_hurt_selection(self):
        rng = np.random.default_rng(17)
        rv = unit_rv(3)
        design = lhs(80, rv, seed=8)
        x = design.points
        y = x[:, 0] + x[:, 1] * x[:, 0] + 0.02 * rng.normal(size=80)
        lean, _ = adaptive_fit(design, y, rv, range(1, 3), q=1.0)
        rich, _ = adaptive_fit(design, y, rv, range(1, 6), q=1.0)
        assert rich.err_loo_corrected <= lean.err_loo_corrected * (1 + 1e-9)

    def test_early_stop_truncates_sweep(self):
        rv = unit_rv(2)
        design = lhs(50, rv, seed=9)
        y = design.points[:, 0]  # linear truth: no degree beyond 1 helps
        _, diag = adaptive_fit(design, y, rv, range(1, 12), q=1.0)
        assert len(diag.rows) < 11

    def test_log_scale_fit(self):
        rv = unit_rv(2)
        design = lhs(50, rv, seed=10)
        x = design.points
        y = np.exp(1.0 + 0.5 * x[:, 0] - 0.25 * x[:, 1])
        pce, _ = adaptive_fit(design, y, rv, [1], q=1.0, scale="log")
        assert pce.response_scale == "log"
        assert np.allclose(pce.predict_original(x), y, rtol=1e-8)
        with pytest.raises(ValueError):
            adaptive_fit(design, y - 5.0, rv, [1], q=1.0, scale="log")


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        rv, candidate, design, y, _, _ = synthetic_sparse_truth(rng, n=50)
        pce = hybrid_fit(candidate, design, y, rv)
        path = tmp_path / "pce.json"
        path.write_text(json.dumps({**pce.to_dict(), "provenance": {"seed": 18}}))
        back = SparsePce.load(path)
        assert np.array_equal(back.active_set.degrees, pce.active_set.degrees)
        assert np.array_equal(back.coefficients, pce.coefficients)
        assert back.response_scale == pce.response_scale
        assert back.err_loo_corrected == pytest.approx(pce.err_loo_corrected)
        probe = lhs(7, rv, seed=99).points
        assert np.allclose(back.predict(probe), pce.predict(probe))

    def test_format_tag_checked(self):
        rng = np.random.default_rng(18)
        rv, candidate, design, y, _, _ = synthetic_sparse_truth(rng, n=50)
        doc = hybrid_fit(candidate, design, y, rv).to_dict()
        doc["format"] = "pcesobol.sparse-pce/2"
        with pytest.raises(ValueError, match="pcesobol.sparse-pce/2"):
            SparsePce.from_dict(doc)
        del doc["format"]
        with pytest.raises(ValueError, match="format tag None"):
            SparsePce.from_dict(doc)

    def test_derived_fields_round_trip_and_checked(self):
        rng = np.random.default_rng(18)
        rv, candidate, design, y, _, _ = synthetic_sparse_truth(rng, n=50)
        doc = hybrid_fit(candidate, design, y, rv).to_dict()
        assert SparsePce.from_dict(doc).to_dict() == doc
        doc["candidate_size"] = len(doc["active_set"]) - 1
        with pytest.raises(ValueError, match="larger than the candidate set"):
            SparsePce.from_dict(doc)
