"""Run the chaosteg CLI with the benchmark's wrappers installed.

The traced run starts this script in place of ``python -m chaosteg``, with
``src`` on PYTHONPATH and the CLI's arguments unchanged.  Two environment
variables link it to the parent: BENCH_SPAWN_NS, the monotonic time at
which the parent started the process, BENCH_TRACE_OUT, the file that
receives this process's spans and counters when the CLI returns, and
BENCH_COUNT_CALLS, 1 when the parent's tracer counts calls (see spans.py).
"""

import os
import sys
from time import monotonic_ns

import chaosteg.cli

imported = monotonic_ns()

import json  # noqa: E402  (imports below are tracing cost, not the CLI's)

from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.install(count_calls=os.environ["BENCH_COUNT_CALLS"] == "1")
tracer.record("cli.import", int(os.environ["BENCH_SPAWN_NS"]), imported)
tracer.record("bench.trace_install", imported, monotonic_ns())
with tracer.span("cli.main"):
    code = chaosteg.cli.main(sys.argv[1:])
sys.stdout.flush()
tracer.uninstall()
with open(os.environ["BENCH_TRACE_OUT"], "w") as f:
    json.dump(tracer.dump(), f)
sys.exit(code)
