"""Property tests (hypothesis) for the enumeration, the ``pce.json`` round
trip and the Sobol' partition, on small random inputs."""

import itertools
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pcesobol import (
    Marginal,
    MultiIndexSet,
    RandomVector,
    SparsePce,
    enumerate_hyperbolic,
    sobol_group,
)

PROPERTY = settings(max_examples=50, deadline=None)

q_values = st.floats(min_value=0.1, max_value=1.0)


@st.composite
def sparse_pces(draw):
    """A random expansion in 1-4 inputs: a subset of a hyperbolic set that
    keeps the zero index, with nonzero variance."""
    m = draw(st.integers(1, 4))
    p = draw(st.integers(1, 5))
    q = draw(q_values)
    full = enumerate_hyperbolic(m, p, q)
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
    margs = []
    for _ in range(m):
        lo = draw(st.floats(-100.0, 100.0))
        if draw(st.booleans()):
            margs.append(Marginal.uniform(lo, lo + draw(st.floats(0.1, 50.0))))
        else:
            margs.append(Marginal.gaussian(lo, draw(st.floats(0.1, 50.0))))
    rv = RandomVector(tuple(f"x{i}" for i in range(m)), tuple(margs))
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
    assert abs(sum(sobol_group(pce, u) for u in subsets) - 1.0) < 1e-12
