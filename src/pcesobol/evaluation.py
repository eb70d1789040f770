"""Run jobs in this process or on workers: model rows, and fits.

Two maps share the package's one pool constructor, ``_pool``.
``map_jobs`` maps a function over a list of jobs and yields the results
in job order; model rows go through it (``evaluate_rows``).  It runs the
jobs in this process on one worker, and inside a daemonic process, which
may not start children.  ``map_scheduled`` runs the jobs a caller hands
out as workers free up and yields each one's future as it finishes, so
the caller can decide what to start next from what has finished; the
fits of a degree sweep go through it (``regression.adaptive_fit_draws``),
which runs its fits in this process itself where ``worker_count()`` is 1.
On a pool the jobs go to a ``ProcessPoolExecutor`` one at a time.  Its
workers are forked where the platform forks safely: a fork pool of 2
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
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
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


def _pool(workers, **options):
    context = multiprocessing.get_context("fork") if _forks() else None
    return ProcessPoolExecutor(max_workers=workers, mp_context=context, **options)


def _announce(pids):
    pids.put(os.getpid())


def worker_count() -> int:
    """Workers a sweep's fits run on: the cores this process may run on over
    the BLAS threads each runs, at least 1; and 1 inside a daemonic process
    or where pools do not fork, so that fits never pay a spawn."""
    if not _forks() or multiprocessing.current_process().daemon:
        return 1
    return max(1, _cores() // _BLAS_THREADS)


def map_jobs(fn, jobs, workers):
    """Yield ``fn(job)`` for each job, in job order.

    With ``workers > 1`` and more than one job, outside a daemonic process,
    the jobs go to the pool one at a time, so ``fn`` must pickle by name
    and the jobs and results must pickle.  An exception ``fn`` raises
    reaches the caller at that job's place in the order.
    """
    jobs = list(jobs)
    if workers <= 1 or len(jobs) <= 1 or multiprocessing.current_process().daemon:
        yield from map(fn, jobs)
        return
    with _pool(workers) as pool:
        yield from pool.map(fn, jobs, chunksize=1)


def map_scheduled(fn, next_job, workers):
    """Run ``fn`` on a pool of ``workers`` processes over the jobs
    ``next_job()`` hands out; yield ``(key, future)`` as each finishes.

    ``next_job()`` returns ``(key, job)``, or None when nothing is to start
    until a running job finishes; it is called until the pool holds two
    jobs a worker, and again whenever one finishes, after the caller has
    taken every future yielded so far.  The map ends
    when nothing runs and ``next_job()`` returns None.  A caller that needs
    no more results closes the map (``contextlib.closing``), which ends the
    jobs still running at once rather than wait for them.  The caller
    reads each job's result, or meets its exception, through its future,
    and may leave unread a result it turns out not to need.  Jobs pickle
    as for ``map_jobs``.  A caller that would run one worker, or runs in a
    daemonic process, calls ``fn`` itself instead (``worker_count``).
    """
    # each worker reports its process id, so that a closed map can end it
    pids = multiprocessing.SimpleQueue()
    pool = _pool(workers, initializer=_announce, initargs=(pids,))
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


def _run_row(row_fn, job):
    index, point = job
    try:
        return index, float(row_fn(point)), ""
    except Exception as exc:  # recorded per row, the run continues
        return index, float("nan"), str(exc)


def evaluate_rows(row_fn, points, workers):
    """Yield ``(index, value, error)`` of ``row_fn(points[index])`` in row order.

    A row that raises gives NaN and its message; the other rows still run.
    The rows go through ``map_jobs`` on ``workers`` processes, so with more
    than one worker ``row_fn`` must pickle by name.  Forked workers inherit
    the modules this process has loaded: resolving ``row_fn`` before the map,
    as ``aquifer.evaluate`` is resolved, loads its imports once here rather
    than once in each worker.
    """
    yield from map_jobs(partial(_run_row, row_fn), enumerate(points), workers)
