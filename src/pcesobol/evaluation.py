"""Run a model on the rows of a design, in this process or on workers."""

from concurrent.futures import ProcessPoolExecutor
from functools import partial


def _run_row(row_fn, job):
    index, point = job
    try:
        return index, float(row_fn(point)), ""
    except Exception as exc:  # recorded per row, the run continues
        return index, float("nan"), str(exc)


def evaluate_rows(row_fn, points, workers):
    """Yield ``(index, value, error)`` of ``row_fn(points[index])`` in row order.

    A row that raises gives NaN and its message; the other rows still run.
    With ``workers > 1`` and more than one row, rows go to a process pool
    one at a time, so ``row_fn`` must pickle by name.
    """
    jobs = list(enumerate(points))
    run = partial(_run_row, row_fn)
    if workers <= 1 or len(jobs) <= 1:
        yield from map(run, jobs)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(run, jobs, chunksize=1)
