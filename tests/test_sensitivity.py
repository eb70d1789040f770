import numpy as np
import pytest

from pcesobol import (
    Marginal,
    MultiIndexSet,
    RandomVector,
    SparsePce,
    adaptive_fit,
    eval_orthonormal_all,
    lhs,
    moments,
    repeated_subsample_study,
    sobol_first,
    sobol_report,
    sobol_second,
    sobol_total,
    total_variance,
    univariate_effect,
)
from conftest import ishigami, ishigami_analytic
from sobol_reference import group_index


def pce_from_terms(terms, rv, p=4, q=1.0):
    """Hand-built expansion: terms maps degree tuple -> coefficient."""
    degrees = np.array(sorted(terms, key=lambda a: (sum(a), a)))
    coeffs = np.array([terms[tuple(a)] for a in degrees])
    aset = MultiIndexSet(degrees, p=p, q=q)
    return SparsePce(
        random_vector=rv,
        active_set=aset,
        coefficients=coeffs,
        err_loo=0.0,
        err_loo_corrected=0.0,
        candidate_size=len(degrees),
    )


@pytest.fixture
def two_var_pce():
    rv = RandomVector(
        ("x1", "x2"), (Marginal.uniform(-1, 1), Marginal.uniform(-1, 1))
    )
    return pce_from_terms(
        {(0, 0): 2.0, (1, 0): 3.0, (0, 1): 1.0, (1, 1): 2.0}, rv
    )


class TestMoments:
    def test_constant_only(self):
        rv = RandomVector(("x",), (Marginal.uniform(-1, 1),))
        pce = pce_from_terms({(0,): 7.0}, rv)
        assert moments(pce) == (7.0, 0.0)

    def test_worked_example(self, two_var_pce):
        mean, sd = moments(two_var_pce)
        assert mean == 2.0
        assert sd**2 == pytest.approx(14.0)

    def test_against_monte_carlo_on_surrogate(self, two_var_pce):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(1_000_000, 2))
        y = two_var_pce.predict(x)
        mean, sd = moments(two_var_pce)
        assert mean == pytest.approx(np.mean(y), abs=5e-3 * sd)
        assert sd == pytest.approx(np.std(y), rel=5e-3)


class TestIndices:
    def test_first_order_worked_example(self, two_var_pce):
        assert sobol_first(two_var_pce) == pytest.approx([9 / 14, 1 / 14])

    def test_second_order_worked_example(self, two_var_pce):
        assert sobol_second(two_var_pce) == {(0, 1): pytest.approx(4 / 14)}

    def test_total_worked_example(self, two_var_pce):
        assert sobol_total(two_var_pce) == pytest.approx([13 / 14, 5 / 14])

    def test_group_worked_example(self, two_var_pce):
        assert group_index(two_var_pce, (0, 1)) == pytest.approx(4 / 14)

    def test_additive_model(self):
        rv = RandomVector(
            ("a", "b"), (Marginal.uniform(-1, 1), Marginal.uniform(-1, 1))
        )
        pce = pce_from_terms({(0, 0): 1.0, (2, 0): 2.0, (0, 1): 1.0}, rv)
        first = sobol_first(pce)
        assert first.sum() == pytest.approx(1.0)
        assert sobol_second(pce) == {}
        assert sobol_total(pce) == pytest.approx(first)

    def test_groups_partition_to_one(self, two_var_pce):
        total = (
            group_index(two_var_pce, (0,))
            + group_index(two_var_pce, (1,))
            + group_index(two_var_pce, (0, 1))
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_singleton_group_equals_first_order(self, two_var_pce):
        first = sobol_first(two_var_pce)
        for i in range(2):
            assert group_index(two_var_pce, (i,)) == pytest.approx(first[i])

    def test_pair_group_equals_second_order(self, two_var_pce):
        assert group_index(two_var_pce, (0, 1)) == pytest.approx(
            sobol_second(two_var_pce)[(0, 1)]
        )

    def test_absent_variable_total_is_exactly_zero(self):
        rv = RandomVector(
            ("a", "b", "c"), tuple(Marginal.uniform(-1, 1) for _ in range(3))
        )
        pce = pce_from_terms({(0, 0, 0): 1.0, (2, 0, 0): 1.0}, rv)
        assert sobol_total(pce)[1] == 0.0
        assert sobol_total(pce)[2] == 0.0

    def test_scale_invariance(self, two_var_pce):
        scaled = pce_from_terms(
            {
                tuple(a): 3.7 * c
                for a, c in zip(
                    two_var_pce.active_set.degrees, two_var_pce.coefficients
                )
            },
            two_var_pce.random_vector,
        )
        assert sobol_first(scaled) == pytest.approx(sobol_first(two_var_pce))
        assert sobol_total(scaled) == pytest.approx(sobol_total(two_var_pce))

    def test_against_masked_sums(self):
        # reference: each index as its own masked sum over the terms
        rng = np.random.default_rng(4)
        rv = RandomVector(
            tuple("abcd"), tuple(Marginal.uniform(-1, 1) for _ in range(4))
        )
        degrees = {(0, 0, 0, 0)} | {
            tuple(rng.integers(0, 3, size=4) * (rng.random(4) < 0.5))
            for _ in range(60)
        }
        pce = pce_from_terms({a: rng.normal() for a in degrees}, rv, p=8)
        nz = pce.active_set.degrees > 0
        support = nz.sum(axis=1)
        sq = pce.coefficients**2
        d_tot = sq[1:].sum()
        first = [sq[nz[:, i] & (support == 1)].sum() / d_tot for i in range(4)]
        total = [sq[nz[:, i]].sum() / d_tot for i in range(4)]
        assert np.array_equal(sobol_first(pce), first)
        assert np.allclose(sobol_total(pce), total, rtol=0, atol=1e-15)
        for (i, j), value in sobol_second(pce).items():
            mask = (support == 2) & nz[:, i] & nz[:, j]
            assert value == sq[mask].sum() / d_tot


class TestReportAndScreening:
    def test_report_fields(self, two_var_pce):
        report = sobol_report(
            two_var_pce, threshold=0.5, grouping={"x1": "left", "x2": "right"}
        )
        assert report.important == ["x1"]
        assert report.unimportant == ["x2"]
        assert report.grouped_sums == {
            "left": pytest.approx(9 / 14),
            "right": pytest.approx(1 / 14),
        }
        assert report.response_scale == "original"

    def test_screen_all_zero_totals(self):
        rv = RandomVector(("x",), (Marginal.uniform(-1, 1),))
        report = sobol_report(pce_from_terms({(0,): 3.0}, rv))
        assert report.important == []
        assert report.unimportant == ["x"]

    def test_screen_threshold_one(self, two_var_pce):
        report = sobol_report(two_var_pce, threshold=1.0001)
        assert report.important == []
        assert len(report.unimportant) == 2

    def test_single_group_sums_to_total_first_order(self, two_var_pce):
        report = sobol_report(two_var_pce, grouping={"x1": "all", "x2": "all"})
        assert report.grouped_sums["all"] == pytest.approx(report.first_order.sum())

    def test_grouped_sums_requires_full_grouping(self, two_var_pce):
        with pytest.raises(ValueError, match="misses variables"):
            sobol_report(two_var_pce, grouping={"x1": "only"})

    def test_ranked_descending(self, two_var_pce):
        ranked = sobol_report(two_var_pce).ranked()
        assert [name for name, _, _ in ranked] == ["x1", "x2"]
        assert ranked[0][1] >= ranked[1][1]

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_report_variance_is_total_variance(self, ishigami_rv, seed):
        # designs on which squaring the standard deviation of ``moments``
        # does not give back the sum of squares in the last bit
        design = lhs(200, ishigami_rv, seed=seed)
        y = ishigami(design.points)
        pce, _ = adaptive_fit(design, y, ishigami_rv, range(1, 8), q=1.0)
        assert sobol_report(pce).total_variance == total_variance(pce)
        assert moments(pce)[1] == np.sqrt(total_variance(pce))

    def test_report_serializes(self, two_var_pce):
        doc = sobol_report(two_var_pce, grouping={"x1": "g", "x2": "g"}).to_dict()
        assert doc["variables"][0]["name"] == "x1"
        assert doc["second_order"][0]["index"] == pytest.approx(4 / 14)


class TestUnivariateEffect:
    def test_absent_variable_identically_zero(self):
        rv = RandomVector(
            ("a", "b"), (Marginal.uniform(-1, 1), Marginal.uniform(-1, 1))
        )
        pce = pce_from_terms({(0, 0): 1.0, (1, 0): 2.0}, rv)
        eff = univariate_effect(pce, 1, np.linspace(-1, 1, 11))
        assert np.all(eff == 0.0)

    def test_effect_values_match_basis(self, two_var_pce):
        grid = np.linspace(-1, 1, 9)
        eff = univariate_effect(two_var_pce, 0, grid)
        expected = 3.0 * eval_orthonormal_all("legendre", 1, grid)[..., 1]
        assert np.allclose(eff, expected)

    def test_integrates_to_zero_against_marginal(self):
        rv = RandomVector(
            ("a", "g"), (Marginal.uniform(2, 6), Marginal.gaussian(1, 2))
        )
        pce = pce_from_terms(
            {(0, 0): 1.0, (1, 0): 0.7, (3, 0): -0.4, (0, 2): 0.5, (1, 1): 0.2},
            rv,
        )
        # uniform marginal: Gauss-Legendre in standard coordinates
        xs, ws = np.polynomial.legendre.leggauss(30)
        eff = univariate_effect(pce, 0, 4.0 + 2.0 * xs)  # U(2, 6)
        assert abs(np.sum(eff * ws / 2.0)) < 1e-10
        # gaussian marginal: Gauss-Hermite (probabilists')
        xs, ws = np.polynomial.hermite_e.hermegauss(30)
        ws = ws / np.sqrt(2 * np.pi)
        eff_g = univariate_effect(pce, 1, 1.0 + 2.0 * xs)  # N(1, 2^2)
        assert abs(np.sum(eff_g * ws)) < 1e-10

    def test_matches_conditional_expectation_monte_carlo(self, two_var_pce):
        rng = np.random.default_rng(1)
        grid = np.array([-0.6, 0.1, 0.8])
        eff = univariate_effect(two_var_pce, 0, grid)
        mean, _ = moments(two_var_pce)
        n = 100_000
        for gval, eval_ in zip(grid, eff):
            x = np.column_stack([np.full(n, gval), rng.uniform(-1, 1, n)])
            cond = two_var_pce.predict(x)
            mc = np.mean(cond) - mean
            se = np.std(cond) / np.sqrt(n)
            assert abs(eval_ - mc) < 3 * se + 1e-12

    def test_bad_variable_index(self, two_var_pce):
        with pytest.raises(ValueError):
            univariate_effect(two_var_pce, 5, [0.0])


class TestSubsampleStudy:
    def test_single_repetition(self, ishigami_rv):
        design = lhs(120, ishigami_rv, seed=2)
        y = ishigami(design.points)
        study = repeated_subsample_study(
            design, y, ishigami_rv, subset_size=100, repetitions=1, seed=3,
            p_range=range(1, 9),
        )
        assert study.totals.shape == (1, 3)
        summary = study.summary()
        assert summary["median"] == pytest.approx(study.totals[0])

    def test_self_consistency_with_full_design(self, ishigami_rv):
        design = lhs(400, ishigami_rv, seed=4)
        y = ishigami(design.points)
        full, _ = adaptive_fit(design, y, ishigami_rv, range(1, 11), q=1.0)
        full_totals = sobol_total(full)
        study = repeated_subsample_study(
            design, y, ishigami_rv, subset_size=150, repetitions=5, seed=5,
            p_range=range(1, 11),
        )
        medians = study.summary()["median"]
        assert np.all(np.abs(medians - full_totals) < 0.05)

    def test_deterministic_under_seed(self, ishigami_rv):
        design = lhs(100, ishigami_rv, seed=6)
        y = ishigami(design.points)
        kwargs = dict(subset_size=80, repetitions=2, seed=7, p_range=range(1, 7))
        one = repeated_subsample_study(design, y, ishigami_rv, **kwargs)
        two = repeated_subsample_study(design, y, ishigami_rv, **kwargs)
        assert np.array_equal(one.totals, two.totals)

    def test_bad_sizes_rejected(self, ishigami_rv):
        design = lhs(50, ishigami_rv, seed=8)
        y = ishigami(design.points)
        with pytest.raises(ValueError):
            repeated_subsample_study(design, y, ishigami_rv, subset_size=51)
        with pytest.raises(ValueError):
            repeated_subsample_study(
                design, y, ishigami_rv, subset_size=10, repetitions=0
            )

    @pytest.mark.parametrize("repetitions", [10, 3])
    def test_non_finite_response_named_by_design_row(self, repetitions):
        """Checked once over the whole design: the error names the design
        row, and a row no draw picks is refused too (seed 0 with three
        repetitions draws none of row 50)."""
        rv = RandomVector(("x0", "x1"), (Marginal.uniform(0, 1),) * 2)
        design = lhs(60, rv, 1)
        y = design.points[:, 0] + design.points[:, 1] ** 2
        y[50] = np.nan
        with pytest.raises(ValueError, match=r"1 non-finite responses, at rows 50$"):
            repeated_subsample_study(
                design, y, rv, subset_size=30, repetitions=repetitions, seed=0,
                p_range=range(1, 3),
            )


class TestLadderOnRealFit:
    def test_ishigami_ladder_consistency(self, ishigami_rv):
        design = lhs(200, ishigami_rv, seed=9)
        y = ishigami(design.points)
        pce, _ = adaptive_fit(design, y, ishigami_rv, range(1, 13), q=1.0)
        first = sobol_first(pce)
        total = sobol_total(pce)
        assert np.all(first >= -1e-15)
        assert np.all(total + 1e-12 >= first)
        assert np.all(total <= 1.0 + 1e-12)
        # exact partition of squared coefficients
        second = sobol_second(pce)
        higher = 1.0 - first.sum() - sum(second.values())
        analytic = ishigami_analytic()
        assert first[0] == pytest.approx(analytic["S1"], abs=0.02)
        assert abs(higher) < 0.05
