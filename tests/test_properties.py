"""Property tests (hypothesis) for the enumeration, the ``pce.json`` round
trip, the Sobol' partition and the Latin hypercube designs, on small random
inputs."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcesobol import (
    Marginal,
    MultiIndexSet,
    RandomVector,
    SparsePce,
    enumerate_hyperbolic,
    lhs,
    nested_lhs_enrich,
)
from sobol_reference import group_index

PROPERTY = settings(max_examples=50, deadline=None)

q_values = st.floats(min_value=0.1, max_value=1.0)


@st.composite
def random_vectors(draw, max_m=3):
    """1 to ``max_m`` independent uniform or gaussian inputs."""
    margs = []
    for _ in range(draw(st.integers(1, max_m))):
        lo = draw(st.floats(-100.0, 100.0))
        if draw(st.booleans()):
            margs.append(Marginal.uniform(lo, lo + draw(st.floats(0.1, 50.0))))
        else:
            margs.append(Marginal.gaussian(lo, draw(st.floats(0.1, 50.0))))
    return RandomVector(tuple(f"x{i}" for i in range(len(margs))), tuple(margs))


def strata(marg, column, levels):
    """Equal-probability stratum of each value on a ``levels``-level grid."""
    ids = np.floor(marg.cdf(column) * levels).astype(int)
    return np.clip(ids, 0, levels - 1)


@st.composite
def sparse_pces(draw):
    """A random expansion in 1-4 inputs: a subset of a hyperbolic set that
    keeps the zero index, with nonzero variance."""
    rv = draw(random_vectors(max_m=4))
    p = draw(st.integers(1, 5))
    q = draw(q_values)
    full = enumerate_hyperbolic(rv.m, p, q)
    keep = [0] + sorted(
        draw(st.sets(st.integers(1, len(full) - 1), min_size=1, max_size=12))
    )
    coeffs = draw(
        st.lists(
            st.floats(-1e3, 1e3).filter(lambda c: abs(c) > 1e-3),
            min_size=len(keep),
            max_size=len(keep),
        )
    )
    aset = MultiIndexSet(full.degrees[keep], p, q)
    return SparsePce(
        random_vector=rv,
        active_set=aset,
        coefficients=np.array(coeffs),
        degree=p,
        q=q,
        err_loo=0.1,
        err_loo_corrected=0.2,
        sparsity_index=len(keep) / len(full),
        candidate_size=len(full),
    )


def physical_points(rv, seed, n=16):
    t = np.random.default_rng(seed).uniform(0.0, 1.0, (n, rv.m))
    cols = []
    for j, marg in enumerate(rv.marginals):
        if marg.kind == "uniform":
            cols.append(marg.a + (marg.b - marg.a) * t[:, j])
        else:
            cols.append(marg.a + marg.b * 6.0 * (t[:, j] - 0.5))
    return np.column_stack(cols)


@PROPERTY
@given(st.integers(1, 4), st.integers(0, 6), q_values)
def test_hyperbolic_set_matches_brute_force(m, p, q):
    bound = p**q + 1e-9
    expected = {
        a
        for a in itertools.product(range(p + 1), repeat=m)
        if sum(d**q for d in a if d) <= bound
    }
    mset = enumerate_hyperbolic(m, p, q)
    assert len(mset) == len(expected)
    assert {tuple(int(d) for d in row) for row in mset.degrees} == expected


@PROPERTY
@given(sparse_pces(), st.integers(0, 2**32 - 1))
def test_pce_json_round_trip_predicts_the_same(pce, seed):
    loaded = SparsePce.from_dict(json.loads(json.dumps(pce.to_dict())))
    x = physical_points(pce.random_vector, seed)
    assert np.array_equal(loaded.active_set.degrees, pce.active_set.degrees)
    expected = pce.predict(x)
    np.testing.assert_allclose(
        loaded.predict(x), expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max()
    )


@PROPERTY
@given(sparse_pces())
def test_sobol_partition_sums_to_one(pce):
    m = pce.active_set.m
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(m), k) for k in range(1, m + 1)
    )
    assert abs(sum(group_index(pce, u) for u in subsets) - 1.0) < 1e-12


@PROPERTY
@given(sparse_pces(), st.data())
def test_pce_json_with_rows_out_of_order_refused(pce, data):
    doc = json.loads(json.dumps(pce.to_dict()))
    rows = st.integers(0, len(pce.active_set) - 1)
    i, j = sorted(data.draw(st.sets(rows, min_size=2, max_size=2)))
    for key in ("active_set", "coefficients"):
        doc[key][i], doc[key][j] = doc[key][j], doc[key][i]
    with pytest.raises(ValueError, match="graded-lex"):
        SparsePce.from_dict(doc)


@PROPERTY
@given(st.integers(1, 40), random_vectors(), st.integers(0, 2**32 - 1))
def test_lhs_one_point_per_stratum(n, rv, seed):
    design = lhs(n, rv, seed)
    for j, marg in enumerate(rv.marginals):
        assert sorted(strata(marg, design.points[:, j], n)) == list(range(n))


@PROPERTY
@given(
    st.integers(1, 30),
    st.integers(1, 30),
    random_vectors(),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)
def test_enrichment_fills_empty_strata(n, n_add, rv, seed, seed_add):
    base = lhs(n, rv, seed)
    extra = nested_lhs_enrich(base, n_add, rv, seed_add)
    levels = n + n_add
    for j, marg in enumerate(rv.marginals):
        new = strata(marg, extra.points[:, j], levels)
        assert len(set(new)) == n_add
        assert not set(new) & set(strata(marg, base.points[:, j], levels))


@PROPERTY
@given(st.integers(1, 30), random_vectors(), st.integers(0, 2**32 - 1))
def test_enrichment_of_equal_size_is_latin_hypercube(n, rv, seed):
    base = lhs(n, rv, seed)
    union = base.stacked(nested_lhs_enrich(base, n, rv, seed + 1))
    for j, marg in enumerate(rv.marginals):
        assert sorted(strata(marg, union.points[:, j], 2 * n)) == list(range(2 * n))
