"""How fast the host runs right now, from two fixed calibration jobs.

On a shared host, other tenants' load slows identical code by up to 1.7x in
bursts of seconds and in regimes lasting minutes.  Measured on a 2-vCPU VM
(Xeon, 2.0 GHz): a fixed pure-Python loop took 7 ms quiet and 10-21 ms
loaded, and raw op times of one workload spread by up to 30% across
ten 30-second runs.  So each timed call is paired with a calibration job of
the same kind, run just before it:

- ``compute_factor`` for a call inside this process: the benchmark's own
  reference PLCM over 20,000 steps;
- ``process_factor`` for a call that is a fresh process:
  ``python -c "import numpy"``.

A factor is the job's time over its nominal time (roughly its time on that
VM when quiet), and a time divided by its factor is that time at nominal
host speed.  Neither job runs chaosteg code, so no change to the program
moves a factor; the nominal times only set the scale.
"""

from __future__ import annotations

import subprocess
import sys
from time import monotonic_ns

import checks

NOMINAL_COMPUTE_S = 0.02
NOMINAL_PROCESS_S = 0.14


def compute_factor() -> float:
    t0 = monotonic_ns()
    checks.reference_terms(0x0123456789ABCDEF, 0x0FEDCBA987654321, 0.3, 0, 1000, 20000)
    return (monotonic_ns() - t0) / 1e9 / NOMINAL_COMPUTE_S


def process_factor() -> float:
    t0 = monotonic_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return (monotonic_ns() - t0) / 1e9 / NOMINAL_PROCESS_S
