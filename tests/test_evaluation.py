"""The row driver that every caller of a model goes through."""

import time

import numpy as np
import pytest

from pcesobol import aquifer as aq
from pcesobol import evaluate_rows, lhs


def double_unless_negative(point):
    if point[0] < 0:
        raise ValueError(f"negative input {point[0]}")
    return 2.0 * point[0]


def sleep_then_echo(point):
    # earlier rows take longer, so they finish after the later ones
    time.sleep(point[0])
    return point[0]


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_row_is_nan_and_the_others_finish(workers):
    points = np.array([[1.0], [-1.0], [3.0], [-4.0], [5.0]])
    results = list(evaluate_rows(double_unless_negative, points, workers))
    assert [i for i, _, _ in results] == [0, 1, 2, 3, 4]
    values = np.array([v for _, v, _ in results])
    assert values[[0, 2, 4]].tolist() == [2.0, 6.0, 10.0]
    assert np.isnan(values[[1, 3]]).all()
    assert [err for _, _, err in results] == [
        "", "negative input -1.0", "", "negative input -4.0", "",
    ]


def test_results_come_back_in_row_order():
    points = np.array([[0.3], [0.2], [0.1], [0.0]])
    results = list(evaluate_rows(sleep_then_echo, points, workers=2))
    assert results == [(i, p, "") for i, p in enumerate([0.3, 0.2, 0.1, 0.0])]


def test_pool_equals_serial_aquifer_bit_for_bit():
    # row 68 of the screening design takes the coupled fallback
    model = aq.default_model()
    points = lhs(500, aq.random_vector(model), 42).points[[0, 1, 68]]
    serial = [aq.evaluate(row, model) for row in points]
    results = list(evaluate_rows(aq.evaluate, points, workers=2))
    assert [err for _, _, err in results] == ["", "", ""]
    assert [value for _, value, _ in results] == serial
