"""The names and outputs the benchmark relies on must exist where it looks.

``bench/spans.py`` patches chaosteg names in place by ``(owner, name)`` and
reads counters off their arguments and results; ``bench/checks.py`` holds
the full suite to a fixed verdict set.  Breaking either would show only at
benchmark time, so the contract is held here.
"""

import importlib.util
from pathlib import Path

import pytest

from chaosteg import suite

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
TARGETS = sorted({(path, attr) for path, attr, *_ in spans.SPANNED + spans.COUNTED}
                 | {("chaosteg.fixedpoint.Fixed64", "from_float")})


@pytest.mark.parametrize(("path", "attr"), TARGETS)
def test_traced_name_resolves_in_owner(path, attr):
    owner = spans._owner(path)
    assert attr in owner.__dict__, f"{path} no longer binds {attr}"


def test_full_suite_verdicts_and_traced_counters():
    checks = _load("checks")
    tracer = spans.Tracer()
    tracer.install(count_calls=True)
    try:
        result = suite.run_suite("full", 2, 0, sample_count=20_000)
    finally:
        tracer.uninstall()
    verdicts = result.verdicts
    assert set(verdicts) == checks.FULL_SUITE_VERDICTS
    assert tracer.count["chaos_probes.pair_classes"] == verdicts["expansivity"]["pair_classes"]
    assert tracer.count["stego_analysis.mc_samples"] == (
        verdicts["ciis_stego"]["monte_carlo"]["sample_count"]
        + verdicts["mc_exact_agreement"]["sample_count"])
    assert tracer.count["dynamics.step_calls"] > 0
