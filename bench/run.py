"""chaosteg benchmark: keyed round trip, CLI session and verdict lab.

Run from the repository root:

    python3 bench/run.py --workload roundtrip-keyed-512 --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop with one caller; see workloads.py):

  roundtrip-keyed-512  load_pgm, keyed embed (n_iter=65536), detect_nonblind
                       and psnr on a seeded 512x512 PGM, fresh key per op
  cli-session-256      four fresh ``python -m chaosteg`` processes per op
                       (embed ciis, detect, lscs, embed cids) on a 256x256 PGM
  lab-full4            run_suite("full", 4, seed_i, threads=2)

The program is imported from ``src`` next to this directory and nowhere
else.  Inputs come from ``--seed`` only.  The loop runs ops until their
timed parts add up to ``--seconds``; every op's output is checked
(checks.py) outside the timed part.

With ``--trace 0`` the last stdout line holds the gated end-to-end metrics:

  setup_s      median over fresh processes of the time to import chaosteg
               and build the workload's inputs; the probes alternate with
               stretches of ops, so one burst of load cannot slow them all
  op_p50_s     sum over the op's timed calls of each call's median time
  peak_rss_mb  peak RSS of this process, or of the CLI children

Both times are at nominal host speed: each probe and each timed call is
divided by the host factor (host.py) measured just before it.  The line
before the metrics is {"detail": ...}: each call's median on the same
scale, failed_ratio, the host factor, and the raw times, which move with
the host's load and are reported, not gated.  A table of both comes first.

With ``--trace 1`` the run times untraced ops, then as many seconds of ops
with wrappers around each layer's public names (spans.py), then one op with
call counters, and prints per-layer metrics as means per traced op with the
tracing overhead.  The spans are written to .bench_traces/ at the end.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("roundtrip-keyed-512", "cli-session-256", "lab-full4")
SETUP_PROBES = 3
RUN_LIMIT_S = 150  # stop starting ops after this, to exit well within 180 s
STARTED = monotonic_ns()


def load_program(workload: str, seed: int, workdir: Path):
    """Import chaosteg from this checkout's src and build the workload."""
    if not (SRC / "chaosteg" / "__init__.py").is_file():
        raise SystemExit(f"error: no chaosteg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import chaosteg

    if not Path(chaosteg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: chaosteg was imported from {chaosteg.__file__}, not {SRC}")
    import workloads

    return workloads.WORKLOADS[workload](seed, workdir)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process: import chaosteg and build the inputs."""
    t0 = monotonic_ns()
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        load_program(workload, seed, workdir)
        return (monotonic_ns() - t0) / 1e9
    finally:
        shutil.rmtree(workdir)


def probe_setup(workload: str, seed: int) -> float:
    """Run setup_probe in a fresh process and return its time."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def run_ops(w, seconds: float, tracer, tally: dict) -> list[tuple[int, dict, dict]]:
    """Closed loop of at least one op, until the timed calls add up to ``seconds``.

    Returns (op id, seconds per timed call, host factor per timed call) for
    each op that passed its checks.
    """
    done = []
    busy = 0.0
    first = tally["attempted"] + 1
    while tally["attempted"] < first or (
            busy < seconds and (monotonic_ns() - STARTED) / 1e9 < RUN_LIMIT_S):
        inputs = w.draw()
        tally["attempted"] += 1
        op = tally["attempted"]
        if tracer is not None:
            tracer.begin_op(op)
        t0 = monotonic_ns()
        try:
            if tracer is None:
                stages, factors, outputs = w.op(inputs, None)
            else:
                with tracer.span("bench.op"):
                    stages, factors, outputs = w.op(inputs, tracer)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            busy += (monotonic_ns() - t0) / 1e9
            fail(tally, op, [f"raised {type(exc).__name__}: {exc}"])
            continue
        busy += sum(stages.values())
        problems, rejects = w.check(inputs, outputs)
        tally["chance_rejects"] += rejects
        if problems:
            fail(tally, op, problems)
        else:
            done.append((op, stages, factors))
    return done


def fail(tally: dict, op: int, problems: list[str]) -> None:
    tally["failed"] += 1
    for p in problems:
        print(f"op {op}: {p}", file=sys.stderr)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(w, done, setups, tally) -> tuple[dict, dict]:
    """The gated metrics, and the per-workload detail printed above them.

    ``setups`` holds (seconds, host factor) per set-up probe.  Gated times
    are at nominal host speed: each time over the host factor measured just
    before it.
    """
    if not done:
        raise SystemExit("error: no op completed without a problem; nothing to report")
    calls = {name: [stages[name] / factors[name] for _, stages, factors in done]
             for name in done[0][1]}
    raw = [sum(stages.values()) for _, stages, _ in done]
    metrics = {
        "setup_s": metric(statistics.median(t / f for t, f in setups), "s"),
        "op_p50_s": metric(sum(statistics.median(v) for v in calls.values()), "s"),
        "peak_rss_mb": metric(w.peak_rss_kb() / 1024, "MB"),
    }
    detail = {f"{name}_p50_s": metric(statistics.median(v), "s") for name, v in calls.items()}
    detail.update({
        "failed_ratio": metric(tally["failed"] / tally["attempted"], "ratio"),
        "host_factor_p50": metric(
            statistics.median(f for _, _, factors in done for f in factors.values()), "x"),
        "raw_ops_per_s": metric(len(done) / sum(raw), "1/s"),
        "raw_op_p50_s": metric(statistics.median(raw), "s"),
        "raw_setup_s": metric([t for t, _ in setups], "s"),
    })
    if w.name == "lab-full4":
        detail["stego_analysis.chance_rejects"] = metric(tally["chance_rejects"], "count")
    return metrics, detail


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def traced(w, seconds: float, tally: dict, trace_file: Path) -> tuple[dict, dict]:
    """Untraced ops, then traced ops, then one op with call counters."""
    from spans import Tracer, layer_metrics

    plain = run_ops(w, seconds, None, tally)
    tracer = Tracer()
    tracer.install()
    try:
        marked = run_ops(w, seconds, tracer, tally)
    finally:
        tracer.uninstall()
    tracer.install(count_calls=True)
    try:
        counted = run_ops(w, 0, tracer, tally)
    finally:
        tracer.uninstall()
    if not (plain and marked and counted):
        raise SystemExit("error: a phase had no op that passed its checks; nothing to report")
    values = layer_metrics(tracer, [op for op, _, _ in marked], [op for op, _, _ in counted])
    values["stego_analysis.chance_rejects"] = tally["chance_rejects"]
    untraced = statistics.fmean(sum(stages.values()) for _, stages, _ in plain)
    values["trace.untraced_op_s"] = untraced
    values["trace.overhead_s"] = values["trace.self_sum_s"] - untraced
    detail = {"untraced_ops": metric(len(plain), "count"),
              "traced_ops": metric(len(marked), "count"),
              "call_counted_ops": metric(len(counted), "count")}
    trace_file.parent.mkdir(exist_ok=True)
    with open(trace_file, "w") as f:
        json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
                   "spans": tracer.spans}, f)
    return {k: metric(v, unit_of(k)) for k, v in sorted(values.items())}, detail


def show(name: str, m: dict) -> str:
    """One metric as a line of the human-readable table."""
    value = m["value"]
    if isinstance(value, float):
        value = f"{value:.6g}"
    elif isinstance(value, list):
        value = " ".join(f"{v:.4g}" for v in value)
    return f"  {name:38s} {value} {m['unit']}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        t0 = monotonic_ns()
        w = load_program(args.workload, args.seed, workdir)
        first_setup = (monotonic_ns() - t0) / 1e9
        tally = {"attempted": 0, "failed": 0, "chance_rejects": 0}
        if args.trace:
            trace_file = ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.json"
            metrics, detail = traced(w, args.seconds, tally, trace_file)
        else:
            import host

            # set-up probes alternate with stretches of ops, so that one burst
            # of load from elsewhere on the host cannot slow all of them
            setups, done = [], []
            for _ in range(SETUP_PROBES):
                factor = host.process_factor()
                setups.append((probe_setup(args.workload, args.seed), factor))
                done += run_ops(w, args.seconds / SETUP_PROBES, None, tally)
            metrics, detail = end_to_end(w, done, setups, tally)
        once = w.check_once()
    finally:
        shutil.rmtree(workdir)
    for p in once:
        print(f"once per run: {p}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"first set-up in this process {first_setup:.4g} s")
    for name, m in {**metrics, **detail}.items():
        print(show(name, m))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally["failed"] == 0 and not once,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
