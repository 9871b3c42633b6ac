import json

import jsonschema
import pytest

from chaosteg.errors import ContractError
from chaosteg.report import REPORT_SCHEMA
from chaosteg.suite import SUITES, run_suite, suite_cap


def test_suite_caps():
    assert suite_cap("stego") == 10
    assert suite_cap("chaos") == 4
    assert suite_cap("full") == 4
    with pytest.raises(ContractError):
        suite_cap("everything")


def test_run_suite_validates_inputs():
    with pytest.raises(ContractError):
        run_suite("stego", 13, 0)
    with pytest.raises(ContractError):
        run_suite("full", 0, 0)
    with pytest.raises(ContractError):
        run_suite("full", 2, -1)
    for suite in SUITES:
        for bad in (20000.0, True, False, 0, -5, "64", None):
            with pytest.raises(ContractError):
                run_suite(suite, 2, 0, sample_count=bad)
            with pytest.raises(ContractError):
                run_suite(suite, 2, 0, n_iter=bad)


def test_stego_suite_members():
    r = run_suite("stego", 3, 2, sample_count=20_000)
    assert set(r.verdicts) == {"ciis_stego", "cids_not_stego",
                               "mc_exact_agreement", "strategy_state_dependence"}
    assert r.overall_pass is True


def test_chaos_suite_members_and_schema():
    r = run_suite("chaos", 3, 0)
    assert set(r.verdicts) == {"expansivity", "mixing", "sensitivity", "regularity"}
    doc = json.loads(r.json)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["verdicts"]["expansivity"]["witness"]["iterate_index"] >= 0


def test_full_suite_single_cell():
    # the degenerate but legal smallest system: no sensitivity sampling
    r = run_suite("full", 1, 0, sample_count=20_000)
    assert "sensitivity" not in r.verdicts
    assert r.overall_pass is True
    assert r.verdicts["expansivity"]["equal_state_infimum"] is None


def test_suite_json_reflects_config_not_threads():
    r = run_suite("stego", 2, 4, sample_count=20_000, threads=6)
    doc = json.loads(r.json)
    assert doc["config"]["sample_count"] == 20_000
    assert doc["seed"] == 4
    assert "threads" not in doc["config"]


def test_suite_thread_count_invariance():
    base = run_suite("stego", 4, 3, sample_count=40_000, threads=1).json
    for threads in (2, 8, 64):
        assert run_suite("stego", 4, 3, sample_count=40_000, threads=threads).json == base


@pytest.mark.parametrize("suite", SUITES)
def test_all_suites_report_pass_at_small_scale(suite):
    r = run_suite(suite, 2, 1, sample_count=20_000)
    assert r.overall_pass is True
    assert json.loads(r.json)["overall_pass"] is True
