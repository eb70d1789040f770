import numpy as np
import pytest

from pcesobol import (
    ExperimentalDesign,
    Marginal,
    MultiIndexSet,
    RandomVector,
    SparsePce,
    adaptive_fit,
    corrected_loo,
    enumerate_hyperbolic,
    eval_basis_matrix,
    generalization_error,
    hybrid_fit,
    lar_path,
    lhs,
    loo_error,
)
from pcesobol.regression import _hybrid_path
from lar_reference import best_prefix, gram_lar_path


def unit_rv(m):
    return RandomVector(
        tuple(f"x{i}" for i in range(m)),
        tuple(Marginal.uniform(-1.0, 1.0) for _ in range(m)),
    )


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
        path = _hybrid_path(psi, y)
        ref_order = gram_lar_path(psi, y)
        assert path.order == ref_order[: len(path.order)]
        ref_k, ref_beta = best_prefix(psi, y, ref_order)
        assert path.best_k == ref_k
        scale = np.abs(ref_beta).max()
        assert np.allclose(path.coeffs, ref_beta, rtol=1e-9, atol=1e-9 * scale)

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
            ref_k, ref_beta = best_prefix(psi, y, ref_order)
            fitted = dict(zip(map(tuple, pce.active_set.degrees), pce.coefficients))
            ref_cols = [0] + ref_order[:ref_k]
            assert set(fitted) == {tuple(candidate.degrees[c]) for c in ref_cols}
            ref = np.array([fitted[tuple(candidate.degrees[c])] for c in ref_cols])
            scale = np.abs(ref_beta).max()
            assert np.allclose(ref, ref_beta, rtol=1e-8, atol=1e-8 * scale)


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
    def test_zero_error_stays_zero(self):
        psi = np.column_stack([np.ones(20), np.linspace(-1, 1, 20)])
        assert corrected_loo(0.0, psi) == 0.0

    def test_correction_factor_at_least_one(self):
        rng = np.random.default_rng(7)
        psi = np.column_stack([np.ones(50), rng.normal(size=(50, 4))])
        assert corrected_loo(1.0, psi) >= 1.0

    def test_factor_shrinks_with_sample_size(self):
        rng = np.random.default_rng(8)
        small = np.column_stack([np.ones(20), rng.normal(size=(20, 3))])
        big = np.column_stack([np.ones(2000), rng.normal(size=(2000, 3))])
        assert corrected_loo(1.0, big) < corrected_loo(1.0, small)

    def test_saturated_model_rejected(self):
        psi = np.eye(4)
        with pytest.raises(ValueError):
            corrected_loo(0.5, psi)


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
        totals = pce.active_set.total_degrees()
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


class TestAdaptiveFit:
    def test_quadratic_truth_selects_degree_two(self):
        rv = unit_rv(2)
        design = lhs(60, rv, seed=5)
        x = design.points
        y = 1.0 + x[:, 0] + 0.5 * x[:, 1] ** 2
        pce, diag = adaptive_fit(design, y, rv, range(1, 7), q=1.0, early_stop=False)
        assert pce.degree == 2
        assert diag.selected_p == 2

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
        _, diag = adaptive_fit(design, y, rv, range(1, 5), q=0.5, early_stop=False)
        assert [row["p"] for row in diag.rows] == [1, 2, 3, 4]

    def test_redundant_candidates_do_not_hurt_selection(self):
        rng = np.random.default_rng(17)
        rv = unit_rv(3)
        design = lhs(80, rv, seed=8)
        x = design.points
        y = x[:, 0] + x[:, 1] * x[:, 0] + 0.02 * rng.normal(size=80)
        lean, _ = adaptive_fit(design, y, rv, range(1, 3), q=1.0)
        rich, _ = adaptive_fit(design, y, rv, range(1, 6), q=1.0, early_stop=False)
        assert rich.err_loo_corrected <= lean.err_loo_corrected * (1 + 1e-9)

    def test_early_stop_truncates_sweep(self):
        rv = unit_rv(2)
        design = lhs(50, rv, seed=9)
        y = design.points[:, 0]  # linear truth: no degree beyond 1 helps
        _, diag = adaptive_fit(design, y, rv, range(1, 12), q=1.0, early_stop=True)
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
        pce.save(path, extra={"seed": 18})
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
