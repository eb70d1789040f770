"""Degree sweeps on a pool of workers against the same sweeps in-process.

The worker count is forced through ``regression.worker_count``, the
helper the sweep reads: 1 runs the sweep in-process, 2 on a pool.
"""

import multiprocessing
import time
from pathlib import Path

import numpy as np
import pytest

from pcesobol import (
    adaptive_fit,
    aquifer,
    lhs,
    load_responses_csv,
    repeated_subsample_study,
)
from pcesobol import regression
from conftest import ishigami, unit_rv

SCREENING_RESPONSES = (
    Path(__file__).resolve().parent.parent / "perfbench" / "data" / "screening_responses.csv"
)


@pytest.fixture
def on_workers(monkeypatch, pools):
    """``run(workers, fn, *args)``: call ``fn`` with the sweep on that many
    workers; ``run.pools()`` is the size of every pool started."""

    def run(workers, fn, *args, **kwargs):
        monkeypatch.setattr(regression, "worker_count", lambda: workers)
        return fn(*args, **kwargs)

    run.pools = lambda: [pool.max_workers for pool in pools]
    return run


def fingerprint(fit):
    pce, diag = fit
    return pce.degree, pce.coefficients.tobytes(), pce.active_set.degrees.tobytes(), diag.rows


def test_screening_sweep_same_on_pool(on_workers):
    rv = aquifer.random_vector(aquifer.default_model())
    design = lhs(500, rv, seed=42)
    y = load_responses_csv(SCREENING_RESPONSES)
    serial = on_workers(1, adaptive_fit, design, y, rv, range(1, 5), q=0.5)
    pooled = on_workers(2, adaptive_fit, design, y, rv, range(1, 5), q=0.5)
    assert on_workers.pools() == [2]
    assert [row["p"] for row in serial[1].rows] == [1, 2, 3, 4]
    assert fingerprint(pooled) == fingerprint(serial)


def counting(monkeypatch, log, fail_at=None):
    """Log the degree of every ``hybrid_fit`` call to the file ``log``, from
    this process or a forked worker; raise ValueError at ``fail_at``."""
    fit = regression.hybrid_fit

    def counted(candidate, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{candidate.p}\n")
        if candidate.p == fail_at:
            raise ValueError(f"broken at p {fail_at}")
        return fit(candidate, *args, **kwargs)

    monkeypatch.setattr(regression, "hybrid_fit", counted)
    return lambda: [int(p) for p in log.read_text().split()] if log.exists() else []


def test_early_stop_same_on_pool(on_workers, monkeypatch, tmp_path):
    rv = unit_rv(2)
    design = lhs(50, rv, seed=9)
    y = design.points[:, 0]  # linear truth: no degree beyond 1 helps
    serial_calls = counting(monkeypatch, tmp_path / "serial")
    serial = on_workers(1, adaptive_fit, design, y, rv, range(1, 12), q=1.0)
    # one worker: no pool, and no degree past the stop is fitted
    assert on_workers.pools() == []
    assert sorted(serial_calls()) == [row["p"] for row in serial[1].rows] == [1, 2, 3, 4]
    pool_calls = counting(monkeypatch, tmp_path / "pool")
    pooled = on_workers(2, adaptive_fit, design, y, rv, range(1, 12), q=1.0)
    assert on_workers.pools() == [2]
    assert fingerprint(pooled) == fingerprint(serial)
    # two workers: at most two degrees past the stop
    assert {1, 2, 3, 4} <= set(pool_calls()) <= {1, 2, 3, 4, 5, 6}
    assert len(pool_calls()) == len(set(pool_calls()))


def test_error_past_the_stop_is_dropped_on_pool(on_workers, monkeypatch, tmp_path):
    rv = unit_rv(2)
    design = lhs(50, rv, seed=9)
    y = design.points[:, 0]  # the sweep stops at p 4
    serial = on_workers(1, adaptive_fit, design, y, rv, range(1, 12), q=1.0)
    calls = counting(monkeypatch, tmp_path / "pool", fail_at=6)
    pooled = on_workers(2, adaptive_fit, design, y, rv, range(1, 12), q=1.0)
    assert 6 in calls()  # started first, as the longest fit in reach
    assert fingerprint(pooled) == fingerprint(serial)


def test_fits_past_the_stop_are_ended_not_awaited(on_workers, monkeypatch):
    rv = unit_rv(2)
    design = lhs(50, rv, seed=9)
    y = design.points[:, 0]  # the sweep stops at p 4
    serial = on_workers(1, adaptive_fit, design, y, rv, range(1, 12), q=1.0)
    fit = regression.hybrid_fit

    def slow_p6(candidate, *args, **kwargs):
        if candidate.p == 6:
            time.sleep(120)
        return fit(candidate, *args, **kwargs)

    monkeypatch.setattr(regression, "hybrid_fit", slow_p6)
    start = time.perf_counter()
    pooled = on_workers(2, adaptive_fit, design, y, rv, range(1, 12), q=1.0)
    assert time.perf_counter() - start < 60
    assert fingerprint(pooled) == fingerprint(serial)
    assert multiprocessing.active_children() == []


def test_failed_degree_keeps_its_row_on_pool(on_workers, monkeypatch):
    fit = regression.hybrid_fit

    def refuse_p2(candidate, *args, **kwargs):
        if candidate.p == 2:
            raise np.linalg.LinAlgError("singular matrix")
        return fit(candidate, *args, **kwargs)

    monkeypatch.setattr(regression, "hybrid_fit", refuse_p2)
    rv = unit_rv(2)
    design = lhs(30, rv, seed=6)
    y = design.points[:, 0] ** 3
    serial = on_workers(1, adaptive_fit, design, y, rv, [1, 2, 3], q=1.0)
    pooled = on_workers(2, adaptive_fit, design, y, rv, [1, 2, 3], q=1.0)
    assert on_workers.pools() == [2]
    assert pooled[1].rows[1]["status"] == "failed: singular matrix"
    assert fingerprint(pooled) == fingerprint(serial)


@pytest.mark.parametrize("workers", [1, 2])
def test_other_errors_in_a_worker_propagate(on_workers, monkeypatch, workers):
    fit = regression.hybrid_fit

    def broken_p2(candidate, *args, **kwargs):
        if candidate.p == 2:
            raise ValueError("broken at p 2")
        return fit(candidate, *args, **kwargs)

    monkeypatch.setattr(regression, "hybrid_fit", broken_p2)
    rv = unit_rv(2)
    design = lhs(30, rv, seed=6)
    with pytest.raises(ValueError, match="broken at p 2"):
        on_workers(workers, adaptive_fit, design, design.points[:, 0], rv, [1, 2, 3], q=1.0)
    assert on_workers.pools() == ([2] if workers == 2 else [])


def test_subsample_study_totals_same_on_pool(on_workers, ishigami_rv):
    design = lhs(300, ishigami_rv, seed=6)
    y = ishigami(design.points)
    kwargs = dict(subset_size=120, repetitions=4, seed=7, p_range=range(1, 9))
    serial = on_workers(1, repeated_subsample_study, design, y, ishigami_rv, **kwargs)
    pooled = on_workers(2, repeated_subsample_study, design, y, ishigami_rv, **kwargs)
    assert on_workers.pools() == [2]
    assert pooled.totals.tobytes() == serial.totals.tobytes()
