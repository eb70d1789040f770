"""Run jobs in this process or on workers: model rows, and fits.

``map_scheduled`` is the package's one job map: it runs the jobs a
caller hands out as workers free up and yields each one's future as it
finishes.  Model rows (``evaluate_rows``) and the fits of a degree sweep
(``regression.adaptive_fit_draws``) go through it.  On one worker, and
inside a daemonic process, which may not start children, each job runs
in this process.  On more, the jobs go to a ``ProcessPoolExecutor`` one
at a time, forked where the platform forks safely: a fork pool of 2
starts in about 20 ms, where a spawned worker would spend about 0.5 s
importing the package again.  Elsewhere (Windows, macOS) the pool uses
the platform's default start method.

``worker_count()`` is the number of workers a sweep's fits run on: the
cores this process may run on, divided by the BLAS threads each process
runs, so ``taskset -c 0`` runs the fits serially.  Model rows run on
``model.workers`` processes instead.

Importing this module, which the package does before it loads numpy,
sets each BLAS and OpenMP thread variable the user left unset to 1, and
records how many threads the BLAS library numpy loads will run.  A
BLAS library reads these variables once, when numpy loads it: when numpy
was imported before this package with them unset, its BLAS runs one
thread per core, and the fits then run serially rather than make forked
workers compete for the cores.
"""

import multiprocessing
import os
import signal
import sys
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from contextlib import closing
from functools import partial

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads a BLAS library started with this environment runs: its own
    variable, else ``OMP_NUM_THREADS``, else one per core; the most of
    OpenBLAS, MKL and BLIS, as which of them numpy uses is not known."""
    threads = []
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        value = os.environ.get(var) or os.environ.get("OMP_NUM_THREADS", "")
        try:
            threads.append(max(1, int(value.split(",")[0])))
        except ValueError:  # unset or unreadable: the library's default
            threads.append(_cores())
    return max(threads)


def _pin_blas_threads() -> int:
    """Set each unset thread variable to 1 and return the threads numpy's
    BLAS runs."""
    before = _blas_threads()
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    # a BLAS that numpy has loaded read the variables before the pin
    return before if "numpy" in sys.modules else _blas_threads()


_BLAS_THREADS = _pin_blas_threads()


def _forks() -> bool:
    """Whether pools fork: not on Windows, which has no fork, nor on macOS,
    where CPython holds fork unsafe and spawns by default."""
    return sys.platform != "darwin" and "fork" in multiprocessing.get_all_start_methods()


def _announce(pids):
    pids.put(os.getpid())


def worker_count() -> int:
    """Workers a sweep's fits run on: the cores this process may run on over
    the BLAS threads each runs, at least 1; and 1 inside a daemonic process
    or where pools do not fork, so that fits never pay a spawn."""
    if not _forks() or multiprocessing.current_process().daemon:
        return 1
    return max(1, _cores() // _BLAS_THREADS)


def map_scheduled(fn, next_job, workers):
    """Run ``fn`` over the jobs ``next_job()`` hands out, on ``workers``
    processes; yield ``(key, future)`` as each finishes.

    ``next_job()`` returns ``(key, job)``, or None when nothing is to start
    until a running job finishes; it is called until two jobs a worker
    run, and again whenever one finishes, after the caller has taken every
    future yielded so far.  The map ends when nothing runs and
    ``next_job()`` returns None.  The caller reads each result, or meets
    its exception, through its future, and may leave it unread.  On one
    worker, or in a daemonic process, each job runs here and its future
    comes done.  On a pool, ``fn`` must pickle by name, the jobs and
    results must pickle, and closing the map (``contextlib.closing``) ends
    the jobs still running rather than wait for them.
    """
    if workers <= 1 or multiprocessing.current_process().daemon:
        while (handed := next_job()) is not None:
            key, job = handed
            future = Future()
            try:
                future.set_result(fn(job))
            except Exception as exc:  # the caller meets it through the future
                future.set_exception(exc)
            yield key, future
        return
    # each worker reports its process id, so that a closed map can end it
    pids = multiprocessing.SimpleQueue()
    context = multiprocessing.get_context("fork") if _forks() else None
    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=context, initializer=_announce, initargs=(pids,)
    )
    running = {}
    try:
        while True:
            # two jobs a worker, so that none waits on this process between jobs
            while len(running) < 2 * workers and (handed := next_job()) is not None:
                key, job = handed
                running[pool.submit(fn, job)] = key
            if not running:
                return
            finished, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in finished:
                yield running.pop(future), future
    finally:
        if running:
            # a worker ended this way breaks the pool, which then ends the rest
            while not pids.empty():
                os.kill(pids.get(), signal.SIGTERM)
        pool.shutdown(cancel_futures=True)
        pids.close()


def _run_row(row_fn, point):
    try:
        return float(row_fn(point)), ""
    except Exception as exc:  # recorded per row, the run continues
        return float("nan"), str(exc)


def evaluate_rows(row_fn, points, workers):
    """Yield ``(index, value, error)`` of ``row_fn(points[index])`` in row order.

    A row that raises gives NaN and its message; the other rows still run.
    The rows go through ``map_scheduled`` on ``min(workers, len(points))``
    processes, so with more than one ``row_fn`` must pickle by name.
    Forked workers inherit the modules this process has loaded: resolving
    ``row_fn`` before the map, as ``aquifer.evaluate`` is resolved, loads
    its imports once here rather than once in each worker.  Closing this
    generator before its last row ends the rows still running on workers;
    an external command such a row started is not itself killed.
    """
    next_row = partial(next, enumerate(points), None)
    workers = min(workers, len(points))
    done, first = {}, 0  # rows finished ahead of row ``first``, the next to yield
    with closing(map_scheduled(partial(_run_row, row_fn), next_row, workers)) as finished:
        for index, future in finished:
            done[index] = future.result()
            while first in done:
                yield first, *done.pop(first)
                first += 1
