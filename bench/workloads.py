"""The benchmark's three workloads.

Each is a closed loop with one caller.  ``draw`` makes the next op's inputs
from the seed, ``op`` runs the program on them and times each call into it,
and ``check`` judges the outputs with the functions in ``checks``.  Untraced,
``op`` also returns the host factor (host.py) of each call, measured just
before it and outside its time.  Calls go through module attributes
(``media.load_pgm``, not a bound copy) so that the traced run's wrappers
see them.

Importing this module imports chaosteg; ``run.py`` times that as set-up.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic_ns

import numpy as np

import checks
import host
from chaosteg import hiding, media, report, strategies, suite
from chaosteg.fixedpoint import Fixed64

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LAUNCHER = BENCH_DIR / "cli_launcher.py"
CALL_TIMEOUT_S = 60


def random_pgm(seed: int, side: int) -> bytes:
    """A seeded side x side 8-bit binary PGM with the canonical header."""
    rng = np.random.default_rng([seed, 0x9C0])
    header = f"P5\n{side} {side}\n255\n".encode("ascii")
    return header + rng.integers(0, 256, size=side * side, dtype=np.uint8).tobytes()


def key_draws(seed: int):
    """Endless (key, message, p): two 64-bit words and p uniform in [0.05, 0.45).

    The p range is the one the verdict lab derives its own keys from.
    """
    rng = np.random.default_rng([seed, 0x6E7])
    while True:
        key, message = (int(v) for v in rng.integers(0, 1 << 64, size=2, dtype=np.uint64))
        yield key, message, float(0.05 + 0.4 * rng.random())


class Roundtrip:
    """load_pgm, keyed embed, detect_nonblind and psnr on a 512x512 cover."""

    name = "roundtrip-keyed-512"
    side = 512
    n_iter = 65536

    def __init__(self, seed: int, workdir: Path) -> None:
        self.n_cells = self.side * self.side
        self.cover = random_pgm(seed, self.side)
        self.keys = key_draws(seed)
        self.first = None

    def draw(self):
        key, message, p = next(self.keys)
        km = strategies.KeyMaterial(key=Fixed64(key), message=Fixed64(message),
                                    params=strategies.PlcmParams(p), n_cells=self.n_cells)
        config = hiding.EmbeddingConfig(key_material=km, n_iter=self.n_iter,
                                        strategy_mode="ciis")
        if self.first is None:
            self.first = config
        return config

    def op(self, config, tracer):
        factor = host.compute_factor() if tracer is None else 1.0
        t0 = monotonic_ns()
        cover = media.load_pgm(self.cover)
        t1 = monotonic_ns()
        marked = hiding.embed(cover, config)
        t2 = monotonic_ns()
        result = hiding.detect_nonblind(cover, marked, config)
        t3 = monotonic_ns()
        ratio = media.psnr(cover, marked)
        t4 = monotonic_ns()
        stages = {"load_pgm": (t1 - t0) / 1e9, "embed": (t2 - t1) / 1e9,
                  "detect": (t3 - t2) / 1e9, "psnr": (t4 - t3) / 1e9}
        return stages, dict.fromkeys(stages, factor), (marked.payload, result, ratio)

    def check(self, config, outputs) -> tuple[list[str], int]:
        payload, result, ratio = outputs
        km = config.key_material
        problems = []
        if not (result.match and result.distance == 0):
            problems.append(f"detect gave {result.verdict} at distance {result.distance}")
        terms = checks.reference_terms(km.key.raw, km.message.raw, km.params.p,
                                       km.burn_in, self.n_cells, self.n_iter)
        problems += checks.check_marked(self.cover, payload, self.n_cells, terms)
        problems += checks.check_psnr(self.cover, payload, self.n_cells, ratio)
        return problems, 0

    def check_once(self) -> list[str]:
        """The program's keystream against the reference map, term for term."""
        km = self.first.key_material
        got = np.array(strategies.ciis_strategy(km, self.n_iter).prefix(self.n_iter))
        want = checks.reference_terms(km.key.raw, km.message.raw, km.params.p,
                                      km.burn_in, self.n_cells, self.n_iter)
        bad = np.flatnonzero(got != want)
        if bad.size:
            return [f"keystream differs from the reference map at {bad.size} terms, "
                    f"first at term {int(bad[0])}"]
        return []

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CliSession:
    """Four fresh CLI processes per op on a 256x256 cover written at set-up."""

    name = "cli-session-256"
    side = 256

    def __init__(self, seed: int, workdir: Path) -> None:
        self.n_cells = self.side * self.side
        self.dir = workdir
        self.cover = random_pgm(seed, self.side)
        self.cover_path = workdir / "cover.pgm"
        self.cover_path.write_bytes(self.cover)
        self.keys = key_draws(seed)
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
        self.max_rss_kb = 0

    def draw(self):
        return next(self.keys)

    def _call(self, args: list[str], tracer) -> tuple[int, str, float]:
        """Run one CLI process to completion: exit code, stdout, wall seconds."""
        out_path = self.dir / "stdout.txt"
        trace_path = self.dir / "trace.json"
        env = self.env
        start = monotonic_ns()
        if tracer is None:
            argv = [sys.executable, "-m", "chaosteg", *args]
        else:
            argv = [sys.executable, str(LAUNCHER), *args]
            env = dict(env, BENCH_SPAWN_NS=str(start), BENCH_TRACE_OUT=str(trace_path),
                       BENCH_COUNT_CALLS=str(int(tracer.counting_calls)))
        with open(out_path, "wb") as out, open(self.dir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            # wait4, unlike Popen.wait, gives this child's own peak RSS
            watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        end = monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer is None:
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        else:
            sid = tracer.record("cli.process", start, end, tracer.current)
            tracer.merge(json.loads(trace_path.read_text()), sid)
        return proc.returncode, out_path.read_text(), (end - start) / 1e9

    def op(self, inputs, tracer):
        key, message, p = inputs
        keyed = ["--key", f"{key:016x}", "--message", f"{message:016x}", "--p", repr(p)]
        cover = str(self.cover_path)
        marked = str(self.dir / "marked.pgm")
        calls = {
            "cli_embed": ["embed", "--mode", "ciis", *keyed, "--in", cover, "--out", marked],
            "cli_detect": ["detect", "--mode", "ciis", *keyed,
                           "--original", cover, "--suspect", marked],
            "cli_lscs": ["lscs", "--in", cover],
            "cli_cids": ["embed", "--mode", "cids", "--in", cover,
                         "--out", str(self.dir / "cids.pgm")],
        }
        stages, factors, results = {}, {}, {}
        for name, args in calls.items():
            factors[name] = host.process_factor() if tracer is None else 1.0
            code, stdout, seconds = self._call(args, tracer)
            stages[name] = seconds
            results[name] = (code, stdout)
        return stages, factors, results

    def check(self, inputs, results) -> tuple[list[str], int]:
        key, message, p = inputs
        n = self.n_cells
        marked = (self.dir / "marked.pgm").read_bytes()
        cids = (self.dir / "cids.pgm").read_bytes()

        def cli(name: str, expected: dict[str, str]) -> list[str]:
            code, stdout = results[name]
            return checks.check_cli(name, code, 0, stdout, expected)

        terms = checks.reference_terms(key, message, p, strategies.DEFAULT_BURN_IN, n, n)
        changes = checks.lsc_changes(self.cover, marked, n)
        problems = cli("cli_embed", {"n_cells": str(n), "lsc_changes": str(changes)})
        problems += checks.check_marked(self.cover, marked, n, terms)
        problems += cli("cli_detect", {"verdict": "match", "distance": "0"})
        problems += cli("cli_lscs", {"n_cells": str(n), "lscs": checks.lsb_bitstring(self.cover, n)})
        problems += cli("cli_cids", {"n_cells": str(n)})
        problems += checks.check_cids_plane(cids, n)
        return problems, 0

    def check_once(self) -> list[str]:
        return []

    def peak_rss_kb(self) -> int:
        return self.max_rss_kb


class Lab:
    """The full verdict suite at N=4 with the defaults CLI analyze uses here."""

    name = "lab-full4"
    n_cells = 4
    threads = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        import jsonschema

        self.rng = np.random.default_rng([seed, 0x1AB])
        self.validator = jsonschema.Draft202012Validator(report.REPORT_SCHEMA)
        self.first = None

    def draw(self) -> int:
        return int(self.rng.integers(0, 1 << 31))

    def op(self, seed: int, tracer):
        factor = host.compute_factor() if tracer is None else 1.0
        t0 = monotonic_ns()
        result = suite.run_suite("full", self.n_cells, seed, threads=self.threads)
        return {"suite": (monotonic_ns() - t0) / 1e9}, {"suite": factor}, result.json

    def check(self, seed: int, text: str) -> tuple[list[str], int]:
        if self.first is None:
            self.first = (seed, text)
        return checks.check_report(text, self.validator)

    def check_once(self) -> list[str]:
        """Replay the first op's seed; the report must come back byte for byte."""
        seed, text = self.first
        again = suite.run_suite("full", self.n_cells, seed, threads=self.threads).json
        return checks.check_replay(text, again)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {w.name: w for w in (Roundtrip, CliSession, Lab)}
