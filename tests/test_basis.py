import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from pcesobol import (
    MultiIndexSet,
    count_total_degree,
    enumerate_hyperbolic,
    eval_basis_matrix,
    eval_orthonormal_all,
)


def legendre_exact(n, x: Fraction) -> Fraction:
    """Classical recurrence in exact rational arithmetic."""
    p_prev, p = Fraction(1), x
    if n == 0:
        return p_prev
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p


def hermite_exact(n, x: Fraction) -> Fraction:
    """Probabilists' recurrence in exact rational arithmetic."""
    h_prev, h = Fraction(1), x
    if n == 0:
        return h_prev
    for k in range(1, n):
        h_prev, h = h, x * h - k * h_prev
    return h


class TestOrthonormal1d:
    def test_legendre_degree_one_at_one(self):
        value = eval_orthonormal_all("legendre", 1, 1.0)[..., 1]
        assert value == pytest.approx(math.sqrt(3))

    def test_hermite_degree_two_at_zero(self):
        assert eval_orthonormal_all("hermite", 2, 0.0)[..., 2] == pytest.approx(
            -1.0 / math.sqrt(2)
        )

    def test_legendre_degree_eight_against_exact_recurrence(self):
        exact = float(legendre_exact(8, Fraction(3, 10))) * math.sqrt(2 * 8 + 1)
        got = eval_orthonormal_all("legendre", 8, 0.3)[..., 8]
        assert got == pytest.approx(exact, abs=1e-13)

    @pytest.mark.parametrize("degree", [20, 30, 35])
    def test_legendre_stable_at_high_degree(self, degree):
        x = Fraction(-7, 9)
        exact = float(legendre_exact(degree, x)) * math.sqrt(2 * degree + 1)
        got = eval_orthonormal_all("legendre", degree, float(x))[..., degree]
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("degree", [12, 30])
    def test_hermite_stable_at_high_degree(self, degree):
        x = Fraction(13, 8)
        exact = float(hermite_exact(degree, x)) / math.sqrt(
            float(math.factorial(degree))
        )
        got = eval_orthonormal_all("hermite", degree, float(x))[..., degree]
        assert got == pytest.approx(exact, rel=1e-11)

    def test_legendre_domain_enforced(self):
        with pytest.raises(ValueError):
            eval_orthonormal_all("legendre", 3, 1.5)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            eval_orthonormal_all("laguerre", 1, 0.5)

    @pytest.mark.parametrize("family,nodes", [("legendre", 40), ("hermite", 40)])
    def test_gram_matrix_is_identity(self, family, nodes):
        # Gauss quadrature with >= 2p+1 nodes integrates the products exactly
        if family == "legendre":
            x, w = np.polynomial.legendre.leggauss(nodes)
            w = w / 2.0  # uniform density on [-1, 1]
        else:
            x, w = np.polynomial.hermite_e.hermegauss(nodes)
            w = w / math.sqrt(2 * math.pi)  # standard normal density
        table = eval_orthonormal_all(family, 15, x)
        gram = (table * w[:, None]).T @ table
        assert np.max(np.abs(gram - np.eye(16))) < 1e-10


class TestEnumeration:
    def test_small_total_degree_count(self):
        assert len(enumerate_hyperbolic(2, 2, 1.0)) == 6

    def test_paper_scale_counts(self):
        assert len(enumerate_hyperbolic(78, 8, 0.5)) == 18643

    @pytest.mark.parametrize(
        "m,q,sizes,digest",
        [
            (78, 0.5, [79, 157, 235, 3316, 3394, 9478],
             "7336d77a735e97d0ba299f2cec56cfdc4eb51a686ec9deb9d3f4183776f5275e"),
            (3, 1.0, [4, 10, 20, 35, 56, 84, 120, 165, 220, 286, 364, 455],
             "24111ec210ee49cc2ba4ad6bb3437798761a82d7bd94d17a0c4a93152dfe13ac"),
        ],
        ids=["screening", "ishigami"],
    )
    def test_workload_sweeps_pinned(self, m, q, sizes, digest):
        # the degree sweeps of the screening and Ishigami fits; at m = 78
        # no brute force can check the sets, so their bytes are pinned
        sets = [enumerate_hyperbolic(m, p, q).degrees for p in range(1, len(sizes) + 1)]
        assert all(d.dtype == np.int16 for d in sets)
        assert [len(d) for d in sets] == sizes
        blob = np.concatenate(sets).tobytes()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            enumerate_hyperbolic(3, 2, 0.0)
        with pytest.raises(ValueError):
            enumerate_hyperbolic(3, 2, 1.5)

    def test_zero_index_first_and_graded_lex(self):
        mset = enumerate_hyperbolic(3, 3, 0.75)
        assert np.all(mset.degrees[0] == 0)
        totals = mset.degrees.sum(axis=1)
        assert np.all(np.diff(totals) >= 0)
        # within a grade, lexicographic ascending
        grade_one = mset.degrees[totals == 1]
        assert [tuple(r) for r in grade_one] == sorted(tuple(r) for r in grade_one)

    @pytest.mark.parametrize("m,p", [(2, 3), (4, 4), (6, 6)])
    def test_q_one_matches_binomial(self, m, p):
        assert len(enumerate_hyperbolic(m, p, 1.0)) == count_total_degree(m, p)

    def test_truncation_monotone_in_q(self):
        small = enumerate_hyperbolic(4, 5, 0.4)
        large = enumerate_hyperbolic(4, 5, 0.9)
        assert {tuple(r) for r in small.degrees} <= {tuple(r) for r in large.degrees}

    def test_truncation_monotone_in_p(self):
        small = enumerate_hyperbolic(4, 3, 0.6)
        large = enumerate_hyperbolic(4, 6, 0.6)
        assert {tuple(r) for r in small.degrees} <= {tuple(r) for r in large.degrees}

    def test_members_satisfy_bound_exactly(self):
        mset = enumerate_hyperbolic(5, 4, 0.5)
        norms = np.sum(mset.degrees.astype(float) ** 0.5, axis=1) ** 2
        assert np.all(norms <= 4.0 + 1e-6)
        # brute-force cross-check on the q=0.5 set
        brute = 0
        for row in np.ndindex(*(5 * (5,))):
            if sum(d**0.5 for d in row) <= 4.0**0.5 + 1e-9:
                brute += 1
        assert len(mset) == brute


class TestCountTotalDegree:
    def test_trivial_values(self):
        assert count_total_degree(2, 2) == 6
        assert count_total_degree(17, 0) == 1

    def test_paper_scale_value_is_exact(self):
        assert count_total_degree(78, 8) == 53_060_358_690


class TestMultiIndexSet:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            MultiIndexSet(np.array([[1, 0]]), p=1, q=1.0)  # missing zero index
        with pytest.raises(ValueError):
            MultiIndexSet(np.array([[0, 0], [3, 3]]), p=2, q=1.0)  # over bound


def basis_matrix_by_rows(mset, u, families):
    """``eval_basis_matrix`` as first written: one column at a time, each
    multiplied by its row's univariate factors in ascending coordinate
    order."""
    u = np.atleast_2d(u)
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


class TestBasisRows:
    def test_zero_index_only(self):
        mset = enumerate_hyperbolic(3, 0, 1.0)
        u = np.array([0.3, -0.2, 0.9])
        row = eval_basis_matrix(mset, u, ["legendre"] * 3)[0]
        assert row.tolist() == [1.0]

    def test_tensor_product_value(self):
        mset = enumerate_hyperbolic(2, 2, 1.0)
        row = eval_basis_matrix(mset, np.array([1.0, 1.0]), ["legendre"] * 2)[0]
        k = [tuple(r) for r in mset.degrees].index((1, 1))
        assert row[k] == pytest.approx(3.0)

    def test_matches_univariate_products(self):
        rng = np.random.default_rng(12)
        mset = enumerate_hyperbolic(4, 4, 0.7)
        families = ["legendre", "hermite", "legendre", "hermite"]
        u = np.where(
            [f == "legendre" for f in families],
            rng.uniform(-1, 1, 4),
            rng.normal(size=4),
        )
        row = eval_basis_matrix(mset, u, families)[0]
        for k, alpha in enumerate(mset.degrees):
            expected = 1.0
            for j, d in enumerate(alpha):
                table = eval_orthonormal_all(families[j], int(d), u[j])
                expected *= table[..., int(d)]
            assert row[k] == pytest.approx(expected, abs=1e-14)

    def test_matrix_matches_rows(self):
        rng = np.random.default_rng(13)
        mset = enumerate_hyperbolic(3, 3, 1.0)
        pts = rng.uniform(-1, 1, size=(6, 3))
        mat = eval_basis_matrix(mset, pts, ["legendre"] * 3)
        for i in range(6):
            assert np.allclose(
                mat[i], eval_basis_matrix(mset, pts[i], ["legendre"] * 3)[0]
            )

    @pytest.mark.parametrize(
        "families, p, q",
        [
            (["legendre"] * 78, 6, 0.5),  # the screening candidate set
            (["legendre", "hermite", "hermite", "legendre", "hermite"], 7, 0.8),
        ],
        ids=["screening", "mixed"],
    )
    def test_matrix_equals_row_by_row_oracle(self, families, p, q):
        rng = np.random.default_rng(14)
        mset = enumerate_hyperbolic(len(families), p, q)
        hermite = np.array([f == "hermite" for f in families])
        u = np.where(
            hermite,
            rng.normal(size=(40, len(families))),
            rng.uniform(-1, 1, size=(40, len(families))),
        )
        assert np.array_equal(
            eval_basis_matrix(mset, u, families), basis_matrix_by_rows(mset, u, families)
        )

    def test_dimension_mismatch(self):
        mset = enumerate_hyperbolic(3, 2, 1.0)
        with pytest.raises(ValueError):
            eval_basis_matrix(mset, np.zeros(2), ["legendre"] * 3)
        with pytest.raises(ValueError):
            eval_basis_matrix(mset, np.zeros((4, 3)), ["legendre"] * 2)


class TestFactors:
    @pytest.mark.parametrize(
        "families, p, q",
        [
            (["legendre"] * 4, 5, 1.0),
            (["hermite"] * 4, 5, 1.0),
            (["legendre", "hermite", "legendre", "hermite", "legendre"], 5, 0.75),
            (["hermite"] * 5, 6, 0.7),
        ],
    )
    def test_every_column_is_its_parent_times_its_last(self, families, p, q):
        rng = np.random.default_rng(21)
        mset = enumerate_hyperbolic(len(families), p, q)
        assert np.max(np.count_nonzero(mset.degrees, axis=1)) >= 3
        parent, last = mset.factors()
        deg = mset.degrees
        assert np.array_equal(deg[parent] + deg[last], deg)
        # the last factor is the row's last nonzero degree alone
        assert np.all(np.count_nonzero(deg[last], axis=1) <= 1)
        j_last = np.argmax(deg[last], axis=1)
        assert all(not deg[parent][k, j_last[k]:].any() for k in range(len(deg)))
        u = np.column_stack([
            rng.uniform(-1, 1, 30) if f == "legendre" else rng.normal(size=30)
            for f in families
        ])
        psi = eval_basis_matrix(mset, u, families)
        assert np.array_equal(psi, psi[:, parent] * psi[:, last])

    def test_zero_and_one_input_rows(self):
        parent, last = enumerate_hyperbolic(3, 2, 1.0).factors()
        # rows: 0, (0,0,1), (0,1,0), (1,0,0), (0,0,2), (0,1,1), ...
        assert (parent[0], last[0]) == (0, 0)
        assert parent[1:5].tolist() == [0, 0, 0, 0]
        assert last[1:5].tolist() == [1, 2, 3, 4]
        assert (parent[5], last[5]) == (2, 1)

    def test_set_without_some_factor_has_none(self):
        # (1, 1) without its parent (1, 0)
        assert MultiIndexSet(np.array([[0, 0], [0, 1], [1, 1]]), 2, 1.0).factors() is None
        # (1, 1) without its last (0, 1)
        assert MultiIndexSet(np.array([[0, 0], [1, 0], [1, 1]]), 2, 1.0).factors() is None
