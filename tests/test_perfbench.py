"""The benchmark's workloads still run and pass their own checks.

``perfbench/run.py --self-check`` sets every workload up at tiny sizes, runs
one unit of work through the program's entry points and checks the outputs
against computations made apart from the program, so a program change that
breaks a workload fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_self_check_passes_every_workload():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    passed = [line for line in proc.stdout.splitlines() if line.startswith("PASS ")]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(passed) == 3, proc.stdout
