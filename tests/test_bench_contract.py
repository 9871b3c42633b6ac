"""The names the benchmark's traced run wraps must exist where it looks.

``bench/spans.py`` patches chaosteg names in place by ``(owner, name)``;
deleting or moving one of them would break ``bench/run.py --trace 1`` only
at benchmark time, so the contract is held here.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
TARGETS = sorted({(path, attr) for path, attr, *_ in spans.SPANNED + spans.COUNTED}
                 | {("chaosteg.fixedpoint.Fixed64", "from_float")})


@pytest.mark.parametrize(("path", "attr"), TARGETS)
def test_traced_name_resolves_in_owner(path, attr):
    owner = spans._owner(path)
    assert attr in owner.__dict__, f"{path} no longer binds {attr}"
