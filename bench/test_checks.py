"""Positive and negative controls for the benchmark's own checks.

Run from the repository root:

    python3 -m pytest -q bench/test_checks.py

Each check must pass on the program's real output and flag a deliberately
broken copy of it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from chaosteg import cli, hiding, media, report, strategies, suite  # noqa: E402
from chaosteg.fixedpoint import Fixed64  # noqa: E402

SIDE = 16
N = SIDE * SIDE


def flip_lsb(pgm: bytes, cell: int) -> bytes:
    data = bytearray(pgm)
    data[len(pgm) - N + cell] ^= 1
    return bytes(data)


@pytest.fixture
def keyed():
    """A 16x16 cover, its keyed embedding and the reference keystream."""
    cover = workloads.random_pgm(7, SIDE)
    key, message, p = next(workloads.key_draws(7))
    km = strategies.KeyMaterial(key=Fixed64(key), message=Fixed64(message),
                                params=strategies.PlcmParams(p), n_cells=N)
    config = hiding.EmbeddingConfig(key_material=km, n_iter=N, strategy_mode="ciis")
    marked = hiding.embed(media.load_pgm(cover), config).payload
    terms = checks.reference_terms(key, message, p, km.burn_in, N, N)
    return cover, marked, terms, config


@pytest.fixture(scope="module")
def small_report() -> str:
    return suite.run_suite("full", 2, 5, sample_count=2000).json


@pytest.fixture(scope="module")
def validator():
    return jsonschema.Draft202012Validator(report.REPORT_SCHEMA)


def test_reference_map_matches_program_keystream():
    for key, message, p in [next(workloads.key_draws(s)) for s in range(3)]:
        km = strategies.KeyMaterial(key=Fixed64(key), message=Fixed64(message),
                                    params=strategies.PlcmParams(p), n_cells=1000)
        program = strategies.ciis_strategy(km, 400).prefix(400)
        assert list(checks.reference_terms(key, message, p, km.burn_in, 1000, 400)) == list(program)


def test_real_embedding_passes(keyed):
    cover, marked, terms, _ = keyed
    assert checks.check_marked(cover, marked, N, terms) == []
    ratio = media.psnr(media.load_pgm(cover), media.load_pgm(marked))
    assert checks.check_psnr(cover, marked, N, ratio) == []


def test_one_flipped_lsb_is_flagged(keyed):
    cover, marked, terms, _ = keyed
    broken = flip_lsb(marked, 100)
    assert checks.check_marked(cover, broken, N, terms)
    # embed printed the changes of the file it wrote; the flipped file has one more or less
    printed = f"lsc_changes={checks.lsc_changes(cover, marked, N)}\n"
    assert checks.check_cli("embed", 0, 0, printed,
                            {"lsc_changes": str(checks.lsc_changes(cover, broken, N))})


def test_one_flipped_lsb_fails_detection(keyed):
    cover, marked, _, config = keyed
    result = hiding.detect_nonblind(media.load_pgm(cover),
                                    media.load_pgm(flip_lsb(marked, 3)), config)
    assert (result.match, result.distance) == (False, 1)


def test_non_lsb_change_is_flagged(keyed):
    cover, marked, terms, _ = keyed
    data = bytearray(marked)
    data[-1] ^= 2
    assert any("other than the LSBs" in p for p in checks.check_marked(cover, bytes(data), N, terms))


def test_collapsed_keystream_is_flagged(keyed):
    cover, _, _, _ = keyed
    # an orbit stuck on the fixed point 0 reads cell 1 every step; at even
    # N the flips cancel and the "marked" file is the cover itself
    terms = np.ones(N, dtype=np.int64)
    assert any("degenerate" in p for p in checks.check_marked(cover, cover, N, terms))


def test_altered_lscs_string_is_flagged(tmp_path, capsys):
    cover = workloads.random_pgm(3, SIDE)
    path = tmp_path / "cover.pgm"
    path.write_bytes(cover)
    assert cli.main(["lscs", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    expected = {"n_cells": str(N), "lscs": checks.lsb_bitstring(cover, N)}
    assert checks.check_cli("lscs", 0, 0, out, expected) == []
    i = out.index("lscs=") + len("lscs=") + 9
    altered = out[:i] + ("1" if out[i] == "0" else "0") + out[i + 1:]
    assert checks.check_cli("lscs", 0, 0, altered, expected)
    assert checks.check_cli("lscs", 2, 0, out, expected)


def test_cids_plane_outside_two_states_is_flagged(tmp_path, capsys):
    cover = workloads.random_pgm(4, SIDE)
    (tmp_path / "c.pgm").write_bytes(cover)
    assert cli.main(["embed", "--mode", "cids", "--in", str(tmp_path / "c.pgm"),
                     "--out", str(tmp_path / "d.pgm")]) == 0
    capsys.readouterr()
    assert checks.check_cids_plane((tmp_path / "d.pgm").read_bytes(), N) == []
    zero = bytes(b & 0xFE for b in cover[-N:])
    assert checks.check_cids_plane(zero, N) == []
    assert checks.check_cids_plane(flip_lsb(cover[:-N] + zero, 0), N) == []
    assert checks.check_cids_plane(flip_lsb(cover[:-N] + zero, 1), N)


def test_report_that_replays_differently_is_flagged(small_report):
    assert checks.check_replay(small_report, suite.run_suite("full", 2, 5, sample_count=2000).json) == []
    assert checks.check_replay(small_report, small_report.replace("0", "1", 1))


def test_report_gates(small_report, validator):
    assert checks.check_report(small_report, validator) == ([], 0)
    doc = json.loads(small_report)
    doc["verdicts"]["mixing"]["pass"] = False
    doc["overall_pass"] = False
    problems, _ = checks.check_report(json.dumps(doc), validator)
    assert any("mixing" in p for p in problems)
    doc = json.loads(small_report)
    doc["verdicts"]["mc_exact_agreement"]["pass"] = False
    doc["overall_pass"] = False
    assert checks.check_report(json.dumps(doc), validator) == ([], 1)
    del doc["scheme"]
    assert checks.check_report(json.dumps(doc), validator)[0]


def test_monte_carlo_rejection_is_counted_not_failed(validator):
    # seed 3 is one of the ~1 in 100 seeds the chi-square gate rejects
    problems, rejects = checks.check_report(suite.run_suite("full", 4, 3).json, validator)
    assert problems == [] and rejects == 1


def test_tracer_restores_names_and_self_times_add_up(keyed):
    cover, _, _, config = keyed
    original = hiding.iterate
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_op(1)
        with tracer.span("bench.op"):
            hiding.detect_nonblind(media.load_pgm(cover),
                                   hiding.embed(media.load_pgm(cover), config), config)
    finally:
        tracer.uninstall()
    assert hiding.iterate is original
    values = spans.layer_metrics(tracer, [1], [])
    (op_span,) = [s for s in tracer.spans if s[1] == "bench.op"]
    assert values["trace.self_sum_s"] == pytest.approx((op_span[3] - op_span[2]) / 1e9)
    assert values["strategies.ciis_calls"] == 2
    assert values["strategies.keystream_useful_ratio"] == 0.5
