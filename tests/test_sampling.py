import io

import numpy as np
import pytest

from pcesobol import (
    ExperimentalDesign,
    Marginal,
    RandomVector,
    lhs,
    load_responses_csv,
    nested_lhs_enrich,
)
from pcesobol.sampling import write_csv


def rv2():
    return RandomVector(
        ("a", "b"), (Marginal.uniform(0, 1), Marginal.uniform(-2, 6))
    )


def strata(rv, points, n_levels):
    """Per-column equal-probability stratum ids."""
    out = []
    for j, marg in enumerate(rv.marginals):
        p = marg.cdf(points[:, j])
        out.append(np.clip(np.floor(p * n_levels).astype(int), 0, n_levels - 1))
    return out


class TestLhs:
    def test_each_column_hits_every_stratum(self):
        rv = rv2()
        design = lhs(4, rv, seed=3)
        for ids in strata(rv, design.points, 4):
            assert sorted(ids.tolist()) == [0, 1, 2, 3]

    def test_gaussian_columns_stratified_too(self):
        rv = RandomVector(
            ("g", "u"), (Marginal.gaussian(1, 2), Marginal.uniform(0, 1))
        )
        design = lhs(10, rv, seed=11)
        for ids in strata(rv, design.points, 10):
            assert sorted(ids.tolist()) == list(range(10))

    def test_deterministic_under_seed(self):
        rv = rv2()
        one = lhs(50, rv, seed=42)
        two = lhs(50, rv, seed=42)
        assert np.array_equal(one.points, two.points)
        assert not np.array_equal(one.points, lhs(50, rv, seed=43).points)

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            lhs(0, rv2(), seed=1)

    def test_paper_scale_design(self):
        rv = RandomVector(
            tuple(f"v{i}" for i in range(78)),
            tuple(Marginal.uniform(0, 1) for _ in range(78)),
        )
        design = lhs(2000, rv, seed=1)
        assert design.points.shape == (2000, 78)
        for j in (0, 17, 77):
            ids = np.floor(design.points[:, j] * 2000).astype(int)
            assert sorted(ids.tolist()) == list(range(2000))

    def test_points_in_support(self):
        rv = rv2()
        design = lhs(100, rv, seed=5)
        assert bool(np.all(rv.in_support(design.points)))


class TestNestedEnrichment:
    def test_union_fills_refined_grid(self):
        rv = RandomVector(("a",), (Marginal.uniform(0, 1),))
        base = lhs(2, rv, seed=1)
        extra = nested_lhs_enrich(base, 2, rv, seed=2)
        union = np.concatenate([base.points[:, 0], extra.points[:, 0]])
        assert sorted(np.floor(union * 4).astype(int).tolist()) == [0, 1, 2, 3]

    def test_union_coverage_at_scale(self):
        rv = rv2()
        base = lhs(200, rv, seed=7)
        extra = nested_lhs_enrich(base, 200, rv, seed=8)
        both = np.vstack([base.points, extra.points])
        for ids in strata(rv, both, 400):
            assert len(set(ids.tolist())) / 400 >= 0.9

    def test_no_duplicate_points(self):
        rv = rv2()
        base = lhs(300, rv, seed=9)
        extra = nested_lhs_enrich(base, 300, rv, seed=10)
        merged = np.vstack([base.points, extra.points])
        assert len(np.unique(merged, axis=0)) == 600

    def test_dimension_mismatch(self):
        base = lhs(4, rv2(), seed=1)
        other = RandomVector(("a",), (Marginal.uniform(0, 1),))
        with pytest.raises(ValueError):
            nested_lhs_enrich(base, 4, other, seed=2)


class TestDesignIO:
    def test_csv_round_trip(self, tmp_path):
        rv = rv2()
        design = lhs(8, rv, seed=21).with_responses(np.arange(8.0) ** 2)
        dpath, rpath = tmp_path / "d.csv", tmp_path / "r.csv"
        design.to_csv(dpath)
        design.responses_to_csv(rpath)
        back = ExperimentalDesign.from_csv(dpath, rpath)
        assert back.names == design.names
        assert np.array_equal(back.points, design.points)
        assert np.array_equal(back.responses, design.responses)

    def test_csv_bytes_deterministic(self, tmp_path):
        rv = rv2()
        for k in (1, 2):
            lhs(16, rv, seed=4).to_csv(tmp_path / f"d{k}.csv")
        assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()

    def test_write_csv_numbers_match_savetxt(self, tmp_path):
        values = np.array(
            [0.1, -0.0, 1e-300, 5e-324, np.nan, np.inf, -np.inf, 2**53 + 1]
        )
        table = np.column_stack([values, values[::-1]])
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), table)
        expected = io.StringIO()
        np.savetxt(expected, table, fmt="%.17g", delimiter=",")
        assert path.read_text() == "a,b\n" + expected.getvalue()

        write_csv(path, ("name", "v"), [("x:1", 0.1), ("y", -0.0)])
        assert path.read_text() == "name,v\nx:1,0.10000000000000001\ny,-0\n"

    def test_empty_responses_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("response\n")
        assert load_responses_csv(path).size == 0

    def test_response_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ExperimentalDesign(("a",), np.zeros((3, 1)), responses=np.zeros(2))
