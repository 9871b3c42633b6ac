"""Run the benchmark on several seeds and report each metric's spread.

From the repository root:

    python3 bench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 1]

Runs the command in BENCHMARK.json once per workload and seed, for its
``run_seconds``.  Prints one JSON object: the environment, and per workload
the median, quartiles and interquartile spread (as a share of the median)
of every metric the runs print, gated or detail, with its unit; each gated
spread is judged against a third of its bound.  Per-run results go to
stderr as they arrive.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def summarize(values: list[float], bound: float | None) -> dict:
    if len(values) < 2:
        return {"median": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}
    if median:
        out["spread"] = (q3 - q1) / abs(median)
        if bound is not None:
            out["within_third_of_bound"] = out["spread"] < bound / 3
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"environment": environment(), "run_seconds": spec["run_seconds"],
              "seeds": args.seeds, "trace": args.trace, "workloads": {}}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            out = subprocess.run(
                [*spec["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            run = json.loads(lines[-1])
            for k, v in json.loads(lines[-2])["detail"].items():
                if isinstance(v["value"], (int, float)):
                    run["metrics"].setdefault(k, v)
            runs.append(run)
            shown = {k: round(v["value"], 4) for k, v in run["metrics"].items()
                     if args.trace == 0 or k.startswith("trace.")}
            print(name, seed, run["correct"], run["attempted"], run["failed"], shown,
                  file=sys.stderr, flush=True)
        metrics = {
            m: {"unit": v["unit"], **summarize([r["metrics"][m]["value"] for r in runs],
                                              bounds.get(m))}
            for m, v in runs[0]["metrics"].items() if all(m in r["metrics"] for r in runs)
        }
        result["workloads"][name] = {
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
