import numpy as np
import pytest

from pcesobol import Marginal, RandomVector


def mixed_rv():
    return RandomVector(
        ("u1", "g1", "u2"),
        (
            Marginal.uniform(5.0, 25.0),
            Marginal.gaussian(2.0, 3.0),
            Marginal.uniform(0.01, 1.0),
        ),
    )


def from_standard(rv, u):
    """Standardized points back to physical ones, the inverse of
    ``to_standard`` written out: onto [a, b] for a uniform marginal, mean
    plus sd times u for a gaussian one."""
    cols = []
    for j, marg in enumerate(rv.marginals):
        if marg.kind == "uniform":
            cols.append(marg.a + 0.5 * (u[:, j] + 1.0) * (marg.b - marg.a))
        else:
            cols.append(marg.a + marg.b * u[:, j])
    return np.column_stack(cols)


class TestMarginal:
    def test_uniform_midpoint_maps_to_center(self):
        assert Marginal.uniform(5, 25).to_standard(15.0) == pytest.approx(0.0)

    def test_uniform_upper_bound_maps_to_one(self):
        assert Marginal.uniform(0.01, 1.0).to_standard(1.0) == pytest.approx(1.0)

    def test_gaussian_standardizes(self):
        assert Marginal.gaussian(2, 3).to_standard(8.0) == pytest.approx(2.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Marginal.uniform(2.0, 2.0)
        with pytest.raises(ValueError):
            Marginal.gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            Marginal("triangular", 0.0, 1.0)

    def test_out_of_support_rejected_not_clamped(self):
        with pytest.raises(ValueError):
            Marginal.uniform(0, 1).to_standard(1.5)
        with pytest.raises(ValueError):
            Marginal.uniform(0, 1).to_standard(-0.1)

    def test_families(self):
        assert Marginal.uniform(0, 1).family == "legendre"
        assert Marginal.gaussian(0, 1).family == "hermite"


class TestRandomVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            RandomVector((), ())
        with pytest.raises(ValueError):
            RandomVector(("a", "a"), (Marginal.uniform(0, 1),) * 2)

    def test_dimension_mismatch(self):
        rv = mixed_rv()
        with pytest.raises(ValueError):
            rv.to_standard(np.zeros(2))
        with pytest.raises(ValueError):
            rv.in_support(np.zeros((4, 4)))

    def test_round_trip_many_points(self):
        rv = mixed_rv()
        rng = np.random.default_rng(7)
        x = np.column_stack(
            [
                rng.uniform(5, 25, 1000),
                rng.normal(2, 3, 1000),
                rng.uniform(0.01, 1, 1000),
            ]
        )
        back = from_standard(rv, rv.to_standard(x))
        assert np.max(np.abs(back - x)) < 1e-12

    def test_round_trip_other_direction(self):
        rv = mixed_rv()
        rng = np.random.default_rng(8)
        u = np.column_stack(
            [rng.uniform(-1, 1, 500), rng.normal(size=500), rng.uniform(-1, 1, 500)]
        )
        again = rv.to_standard(from_standard(rv, u))
        assert np.max(np.abs(again - u)) < 1e-12

    def test_uniform_standard_components_in_unit_interval(self):
        rv = mixed_rv()
        rng = np.random.default_rng(9)
        x = np.column_stack(
            [
                rng.uniform(5, 25, 200),
                rng.normal(2, 3, 200),
                rng.uniform(0.01, 1, 200),
            ]
        )
        u = rv.to_standard(x)
        assert np.all(np.abs(u[:, [0, 2]]) <= 1.0)

    def test_strictly_monotone_per_coordinate(self):
        rv = mixed_rv()
        for j, marg in enumerate(rv.marginals):
            if marg.kind == "uniform":
                xs = np.linspace(marg.a, marg.b, 50)
            else:
                xs = np.linspace(marg.a - 4 * marg.b, marg.a + 4 * marg.b, 50)
            us = marg.to_standard(xs)
            assert np.all(np.diff(us) > 0)

    def test_single_point_shape(self):
        rv = mixed_rv()
        u = rv.to_standard(np.array([15.0, 2.0, 0.5]))
        assert u.shape == (3,)
