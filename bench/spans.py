"""Spans and counters recorded around calls into chaosteg's modules.

The traced run replaces names in chaosteg's module namespaces with timing
wrappers and puts the originals back afterwards; the untraced run leaves the
program alone.  Each wrapper records one span (name, start, end, parent, op)
and, for some layers, counters read from the call's arguments or result.
Patching the name in the module that *calls* it (``chaosteg.hiding.iterate``
rather than ``chaosteg.dynamics.iterate``) is what makes a ``from .x import
y`` binding visible to the wrapper.

All timestamps come from ``time.monotonic_ns`` (CLOCK_MONOTONIC, shared by
every process on the host), so spans recorded in a CLI child nest inside the
parent's span for that child.  Wrapped call sites are all on the calling
thread; the suite's Monte Carlo worker threads run unwrapped code only.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import monotonic_ns

# span name -> per-layer metric that sums its self time
SELF_TIME_METRICS = {
    "cli.import": "cli.import_s",
    "cli.main": "cli.main_s",
    "cli.process": "cli.interp_s",
    "strategies.ciis": "strategies.ciis_s",
    "strategies.cids": "strategies.cids_s",
    "dynamics.iterate": "dynamics.iterate_s",
    "dynamics.to_bitstring": "dynamics.to_bitstring_s",
    "media.load_pgm": "media.load_pgm_s",
    "media.extract": "media.extract_s",
    "media.inject": "media.inject_s",
    "media.psnr": "media.psnr_s",
    "media.save_pgm": "media.save_pgm_s",
    "hiding.embed": "hiding.embed_self_s",
    "hiding.detect": "hiding.detect_self_s",
    "stego_analysis.ciis_stego": "stego_analysis.ciis_stego_s",
    "stego_analysis.mc_exact": "stego_analysis.mc_exact_s",
    "stego_analysis.cids_not_stego": "stego_analysis.cids_not_stego_s",
    "stego_analysis.state_dependence": "stego_analysis.state_dependence_s",
    "chaos_probes.expansivity": "chaos_probes.expansivity_s",
    "chaos_probes.mixing": "chaos_probes.mixing_s",
    "chaos_probes.sensitivity": "chaos_probes.sensitivity_s",
    "chaos_probes.regularity": "chaos_probes.regularity_s",
    "report.emit": "report.emit_s",
    "suite": "suite.self_s",
    "bench.op": "bench.op_self_s",
    "bench.trace_install": "bench.trace_install_s",
}

# counters read by span hooks, summed per op and reported as a mean per op
COUNT_METRICS = (
    "strategies.ciis_calls",
    "strategies.map_steps",
    "dynamics.iterate_terms",
    "media.cells_moved",
    "stego_analysis.mc_samples",
    "chaos_probes.pair_classes",
)

# counters of calls too many and too short to wrap while timing: they are
# taken in a separate op, so their cost never inflates a span's self time
CALL_COUNT_METRICS = (
    "fixedpoint.from_float_calls",
    "fixedpoint.rne_div_calls",
    "dynamics.step_calls",
)


def _keystream(tracer: "Tracer", args, kwargs, result) -> None:
    km = args[0]
    n_iter = args[1] if len(args) > 1 else kwargs["n_iter"]
    if n_iter is None:
        return
    c = tracer.count
    c["strategies.ciis_calls"] += 1
    c["strategies.map_steps"] += km.burn_in + n_iter
    c["strategies.burnin_steps"] += km.burn_in
    tracer.keys[tracer.op].add(
        (km.key.raw, km.message.raw, km.params.p, km.n_cells, km.burn_in, n_iter))


def _iterate_terms(tracer, args, kwargs, result) -> None:
    tracer.count["dynamics.iterate_terms"] += args[3] if len(args) > 3 else kwargs["n_iter"]


def _cells_out(tracer, args, kwargs, result) -> None:
    tracer.count["media.cells_moved"] += result.n_cells


def _cells_in(tracer, args, kwargs, result) -> None:
    tracer.count["media.cells_moved"] += args[1].n_cells


def _mc_samples(tracer, args, kwargs, result) -> None:
    tracer.count["stego_analysis.mc_samples"] += kwargs["sample_count"]


def _pair_classes(tracer, args, kwargs, result) -> None:
    tracer.count["chaos_probes.pair_classes"] += result["pair_classes"]


# (calling module, name it is bound under, span name, counter hook)
SPANNED = (
    ("chaosteg.cli", "load_pgm", "media.load_pgm", None),
    ("chaosteg.media", "load_pgm", "media.load_pgm", None),
    ("chaosteg.cli", "extract_lscs", "media.extract", _cells_out),
    ("chaosteg.hiding", "extract_lscs", "media.extract", _cells_out),
    ("chaosteg.hiding", "inject_lscs", "media.inject", _cells_in),
    ("chaosteg.cli", "psnr", "media.psnr", None),
    ("chaosteg.media", "psnr", "media.psnr", None),
    ("chaosteg.cli", "save_pgm", "media.save_pgm", None),
    ("chaosteg.cli", "embed", "hiding.embed", None),
    ("chaosteg.hiding", "embed", "hiding.embed", None),
    ("chaosteg.cli", "detect_nonblind", "hiding.detect", None),
    ("chaosteg.hiding", "detect_nonblind", "hiding.detect", None),
    ("chaosteg.hiding", "ciis_strategy", "strategies.ciis", _keystream),
    ("chaosteg.stego_analysis", "ciis_strategy", "strategies.ciis", _keystream),
    ("chaosteg.hiding", "cids_strategy", "strategies.cids", None),
    ("chaosteg.stego_analysis", "cids_strategy", "strategies.cids", None),
    ("chaosteg.hiding", "iterate", "dynamics.iterate", _iterate_terms),
    ("chaosteg.stego_analysis", "iterate", "dynamics.iterate", _iterate_terms),
    ("chaosteg.chaos_probes", "iterate", "dynamics.iterate", _iterate_terms),
    ("chaosteg.dynamics.BitState", "to_bitstring", "dynamics.to_bitstring", None),
    ("chaosteg.suite", "verify_ciis_stego", "stego_analysis.ciis_stego", _mc_samples),
    ("chaosteg.suite", "mc_exact_agreement", "stego_analysis.mc_exact", _mc_samples),
    ("chaosteg.suite", "verify_cids_not_stego", "stego_analysis.cids_not_stego", None),
    ("chaosteg.suite", "strategy_state_dependence", "stego_analysis.state_dependence", None),
    ("chaosteg.suite", "expansivity_probe", "chaos_probes.expansivity", _pair_classes),
    ("chaosteg.suite", "mixing_probe", "chaos_probes.mixing", None),
    ("chaosteg.suite", "sensitivity_probe", "chaos_probes.sensitivity", None),
    ("chaosteg.suite", "regularity_probe", "chaos_probes.regularity", None),
    ("chaosteg.suite", "emit_report", "report.emit", None),
    ("chaosteg.suite", "run_suite", "suite", None),
)

# (calling module, name, counter) for CALL_COUNT_METRICS
COUNTED = (
    ("chaosteg.strategies", "rne_div", "fixedpoint.rne_div_calls"),
    ("chaosteg.chaos_probes", "step", "dynamics.step_calls"),
)


def _owner(path: str):
    """Module or class named by a dotted path such as chaosteg.dynamics.BitState."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Tracer:
    """Spans and per-op counters, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, op)
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.keys: dict[int, set] = defaultdict(set)
        self.op = 0
        self.count = self.counts[0]
        self.counting_calls = False
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    def begin_op(self, op: int) -> None:
        self.op = op
        self.count = self.counts[op]

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @property
    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def record(self, name: str, start_ns: int, end_ns: int, parent: int | None = None) -> int:
        sid = self._new_id()
        self.spans.append((sid, name, start_ns, end_ns, parent, self.op))
        return sid

    @contextmanager
    def span(self, name: str):
        sid = self._new_id()
        parent = self.current
        self._stack.append(sid)
        start = monotonic_ns()
        try:
            yield sid
        finally:
            end = monotonic_ns()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op))

    def _spanned(self, fn, name: str, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._new_id()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = monotonic_ns()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.op))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.count[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, count_calls: bool = False) -> None:
        """Wrap every name in SPANNED; with ``count_calls``, COUNTED and
        ``Fixed64.from_float`` too."""
        self.counting_calls = count_calls
        for path, attr, name, hook in SPANNED:
            owner = _owner(path)
            self._patch(owner, attr, self._spanned(getattr(owner, attr), name, hook))
        if not count_calls:
            return
        for path, attr, name in COUNTED:
            owner = _owner(path)
            self._patch(owner, attr, self._counted(getattr(owner, attr), name))
        fixed = _owner("chaosteg.fixedpoint.Fixed64")
        original = fixed.__dict__["from_float"].__func__
        self._patch(fixed, "from_float",
                    classmethod(self._counted(original, "fixedpoint.from_float_calls")))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # exchange with a CLI child -------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": {str(op): dict(c) for op, c in self.counts.items() if c},
            "keys": {str(op): sorted(k) for op, k in self.keys.items()},
        }

    def merge(self, child: dict, parent: int) -> None:
        """Adopt a child's spans under ``parent`` and its counts into this op."""
        base = self._next_id
        for sid, name, start, end, cparent, _ in child["spans"]:
            self.spans.append((base + sid, name, start, end,
                               parent if cparent is None else base + cparent, self.op))
            self._next_id = max(self._next_id, base + sid)
        for counts in child["counts"].values():
            self.count.update(counts)
        for keys in child["keys"].values():
            self.keys[self.op].update(tuple(k) for k in keys)


def self_times(spans) -> list[tuple[str, int, float]]:
    """(name, op, self seconds) for every span: its duration minus its children's."""
    child_ns: Counter = Counter()
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    return [(name, op, (end - start - child_ns[sid]) / 1e9)
            for sid, name, start, end, _, op in spans]


def layer_metrics(tracer: Tracer, ops: list[int], counted_ops: list[int]) -> dict[str, float]:
    """Per-layer metrics as means per op, plus ratios over all ops.

    Times, hook counters and ratios come from ``ops``; CALL_COUNT_METRICS
    from ``counted_ops``, which ran with the call counters installed.
    """
    wanted = set(ops)
    n = len(ops)
    totals: Counter = Counter()
    for name, op, seconds in self_times(tracer.spans):
        if op in wanted:
            totals[SELF_TIME_METRICS[name]] += seconds
    counts: Counter = Counter()
    for op in ops:
        counts.update(tracer.counts[op])
    distinct = sum(len(tracer.keys[op]) for op in ops)

    out = {metric: totals[metric] / n for metric in SELF_TIME_METRICS.values()}
    out.update({metric: counts[metric] / n for metric in COUNT_METRICS})
    calls: Counter = Counter()
    for op in counted_ops:
        calls.update(tracer.counts[op])
    out.update({metric: calls[metric] / max(len(counted_ops), 1) for metric in CALL_COUNT_METRICS})
    steps = counts["strategies.map_steps"]
    keystreams = counts["strategies.ciis_calls"]
    terms = counts["dynamics.iterate_terms"]
    out["strategies.ns_per_map_step"] = 1e9 * totals["strategies.ciis_s"] / steps if steps else 0.0
    out["strategies.burnin_share"] = counts["strategies.burnin_steps"] / steps if steps else 0.0
    out["strategies.keystream_useful_ratio"] = distinct / keystreams if keystreams else 0.0
    out["dynamics.ns_per_term"] = 1e9 * totals["dynamics.iterate_s"] / terms if terms else 0.0
    out["trace.self_sum_s"] = sum(totals.values()) / n
    return out
