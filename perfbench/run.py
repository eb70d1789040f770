"""Benchmark of the pcesobol pipeline: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the workload's unit of work is repeated for ``--seconds``
seconds and the end-to-end metrics are reported; set-up time is measured in
separate fresh processes afterwards.  With ``--trace 1`` the layers' public
functions are wrapped from outside and the per-layer metrics are reported;
the wrappers are never installed during a timed run.  Every run checks the
workload's outputs.  The last line of standard output is the result, a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the run's details and the machine.  Metric names
and units come from ``BENCHMARK.json``.  ``--self-check`` runs every
workload's checks at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchenv

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
RESULTS = HERE / "results"
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="run every workload's checks at tiny sizes")
    p.add_argument("--probe-setup", action="store_true",
                   help="set the workload up, print 'ready' and exit (used to time set-up)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not args.self_check and not args.workload:
        p.error("--workload is required")
    return args


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until the workload is set up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def timed_phase(wl, seconds: float):
    """Repeat whole batches until ``seconds`` have passed; returns the batch
    times, each batch's rate of completed operations, the wall time of the
    phase and the peak RSS in MB.

    A batch's inputs are made before its timer starts.  One CLI invocation
    runs one batch's worth of work, and the process's high-water mark creeps
    up over repeated fits, so its own peak is read after the first batch.
    Evaluation workers are fresh processes in every batch; the largest of
    all of them counts.
    """
    batch_times, rates, rss = [], [], None
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        k = len(batch_times)
        wl.prepare(k)
        done = wl.attempted - wl.failed
        t0 = time.perf_counter()
        wl.batch(k)
        dt = time.perf_counter() - t0
        batch_times.append(dt)
        rates.append((wl.attempted - wl.failed - done) / dt)
        if rss is None:
            rss = peak_rss_mb(resource.RUSAGE_SELF)
    wall = time.perf_counter() - t_start
    if wl.rss_includes_workers:
        rss = max(rss, peak_rss_mb(resource.RUSAGE_CHILDREN))
    return batch_times, rates, wall, rss


def run_workload(args, ps, workloads, real_stdout) -> int:
    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = cls(ps, args.seed, workdir)
        if args.probe_setup:
            wl.setup()
            wl.prepare(0)
            print("ready", file=real_stdout, flush=True)
            return 0

        details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "operation": cls.ops_name,
                   "machine": benchenv.machine_facts()}
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
            with tracer.installed([(ps, "lhs", lambda f: tracer.span("sampling.lhs", f))]):
                wl.setup()
            values = wl.traced(args.seconds)
            values["sampling.lhs_s"] = tracer.stat("sampling.lhs").total_s
            names = spec["per_layer"]
            # a layer the workload leaves idle reads 0
            metrics = {m["name"]: {"value": float(values.pop(m["name"], 0.0)),
                                   "unit": m["unit"]} for m in names}
            if values:
                raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(values)}")
        else:
            wl.setup()
            batch_times, rates, wall, rss = timed_phase(wl, args.seconds)
            setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            values = {
                "setup_s": statistics.median(setups),
                "batch_s": statistics.median(batch_times),
                "ops_per_s": statistics.median(rates),
                "peak_rss_mb": rss,
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            details.update(batch_times=batch_times, setup_samples=setups,
                           timed_wall_s=wall)
        try:
            details["checks"] = wl.check()
            correct = True
        except workloads.CheckFailed as exc:
            details["checks"] = {"failed": str(exc)}
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
            correct = False
        result = {"correct": correct, "attempted": wl.attempted, "failed": wl.failed,
                  "metrics": metrics}
        details["result"] = result
        RESULTS.mkdir(exist_ok=True)
        with open(RESULTS / "results.jsonl", "a") as fh:
            fh.write(json.dumps(details) + "\n")
        print(json.dumps(details), file=real_stdout)
        print(json.dumps(result), file=real_stdout, flush=True)
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def self_check(ps, workloads, real_stdout) -> int:
    """Every workload's set-up, one unit of work and checks, at tiny sizes."""
    ok = True
    for name, cls in workloads.WORKLOADS.items():
        workdir = OUT / f"self-check-{name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        try:
            wl = cls(ps, 1, workdir, tiny=True)
            wl.setup()
            wl.prepare(0)
            wl.batch(0)
            figures = wl.check()
            status = "PASS"
        except workloads.CheckFailed as exc:
            figures, status, ok = str(exc), "FAIL", False
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{status} {name} ({time.perf_counter() - t0:.1f} s): {figures}",
              file=real_stdout, flush=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    benchenv.pin_threads()
    real_stdout = sys.stdout
    # the program reports progress on stdout; keep it off the result stream
    sys.stdout = sys.stderr
    try:
        ps = benchenv.import_program()
        import workloads

        if args.self_check:
            return self_check(ps, workloads, real_stdout)
        return run_workload(args, ps, workloads, real_stdout)
    except (benchenv.SetupError, FileNotFoundError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.stdout = real_stdout


if __name__ == "__main__":
    sys.exit(main())
