"""The row driver that every caller of a model goes through."""

import multiprocessing
import os
import subprocess
import sys
import time
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

from pcesobol import aquifer as aq
from pcesobol import Marginal, RandomVector, adaptive_fit, evaluate_rows, evaluation, lhs

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_closing_early_ends_the_running_rows():
    # row 1 sleeps 120 s; row 0 is read, then the rows are closed
    points = np.array([[0.0], [120.0], [0.0]])
    start = time.perf_counter()
    with closing(evaluate_rows(sleep_then_echo, points, workers=2)) as rows:
        assert next(rows) == (0, 0.0, "")
    assert time.perf_counter() - start < 60
    assert multiprocessing.active_children() == []


def test_pool_equals_serial_aquifer_bit_for_bit():
    # row 68 of the screening design takes the coupled fallback
    model = aq.default_model()
    points = lhs(500, aq.random_vector(model), 42).points[[0, 1, 68]]
    serial = [aq.evaluate(row, model) for row in points]
    results = list(evaluate_rows(aq.evaluate, points, workers=2))
    assert [err for _, _, err in results] == ["", "", ""]
    assert [value for _, value, _ in results] == serial


def rows_and_sweep(_):
    # run inside a pool worker, which is a daemonic process
    points = np.array([[1.0], [-1.0], [3.0]])
    rows = list(evaluate_rows(double_unless_negative, points, workers=2))
    rv = RandomVector(("x0", "x1"), (Marginal.uniform(-1.0, 1.0),) * 2)
    design = lhs(40, rv, seed=7)
    pce, diag = adaptive_fit(design, np.sin(design.points[:, 0]), rv, range(1, 5), q=1.0)
    return rows, pce.coefficients.tobytes(), diag.rows


def test_no_pool_inside_a_daemonic_process():
    here = rows_and_sweep(None)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.map(rows_and_sweep, [None])[0]
    assert inside[1:] == here[1:]
    # NaN != NaN: compare the failed row's message and the others' values
    assert [(i, err) for i, _, err in inside[0]] == [(i, err) for i, _, err in here[0]]
    assert [inside[0][k][1] for k in (0, 2)] == [here[0][k][1] for k in (0, 2)] == [2.0, 6.0]


def worker_count_in_python(imports, **thread_vars):
    """``evaluation.worker_count()`` in a fresh interpreter that runs
    ``imports`` first, with only ``thread_vars`` of the thread variables set."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    env.update(thread_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"{imports}; from pcesobol import evaluation; print(evaluation.worker_count())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return int(proc.stdout)


def test_one_available_core_means_one_worker():
    # as under taskset -c 0: the process may run on one core only
    one_core = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})"
    assert worker_count_in_python(one_core) == 1


def test_workers_follow_the_blas_threads_numpy_loaded_with():
    cores = len(os.sched_getaffinity(0))
    # pcesobol first: the pin takes effect, one worker per core
    assert worker_count_in_python("import pcesobol, numpy") == cores
    # numpy first with nothing set: its BLAS runs a thread per core, so the
    # fits stay in-process rather than compete with it
    assert worker_count_in_python("import numpy, pcesobol") == 1
    # numpy first, the user pinned the threads: the pin holds
    assert worker_count_in_python("import numpy, pcesobol", OMP_NUM_THREADS="1") == cores
    # the user's two threads a process: half the cores, at least one
    two = worker_count_in_python("import pcesobol", OPENBLAS_NUM_THREADS="2")
    assert two == max(1, cores // 2)


def test_no_fork_means_in_process_fits(monkeypatch, pools):
    # Windows: no fork and no affinity call
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.delattr(os, "sched_getaffinity")
    assert evaluation.worker_count() == 1
    # model rows still use a pool, on the platform's default start method
    points = np.array([[1.0], [3.0]])
    assert list(evaluate_rows(double_unless_negative, points, workers=2)) == [
        (0, 2.0, ""),
        (1, 6.0, ""),
    ]
    assert [pool.mp_context for pool in pools] == [None]


def test_macos_fits_run_in_process(monkeypatch):
    # fork exists there, but CPython holds it unsafe
    monkeypatch.setattr(sys, "platform", "darwin")
    assert evaluation.worker_count() == 1
