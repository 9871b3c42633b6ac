"""One test per acceptance criterion, each printing its own pass/fail line.

The criteria pin the scheme's load-bearing claims at desk scale: the
degenerate two-output behavior of the cover-driven mode, distributional
invisibility of the keyed mode along exact and sampled routes, the four
chaos properties of the underlying iteration system, and pipeline-level
integrity, determinism, and distortion bounds.

Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

import json
import time

import numpy as np
import pytest

from chaosteg.cli import main
from chaosteg.chaos_probes import expansivity_probe, mixing_probe, regularity_probe
from chaosteg.dynamics import state_distance
from chaosteg.fixedpoint import Fixed64
from chaosteg.hiding import EmbeddingConfig, detect_nonblind, embed
from chaosteg.media import extract_lscs, load_pgm, psnr
from chaosteg.stego_analysis import (
    DistributionTable,
    exact_distribution_step,
    mc_exact_agreement,
    verify_ciis_stego,
    verify_cids_not_stego,
)
from chaosteg.strategies import KeyMaterial, PlcmParams


def report(number, label, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number} [{label}]: {status} in {elapsed:.3f}s "
          f"(budget {budget:g}s){suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.3f}s"


def test_criterion_1_cids_two_outputs():
    t0 = time.perf_counter()
    r = verify_cids_not_stego(8, n_iter=8)
    elapsed = time.perf_counter() - t0
    ok = (r["pass"] and r["reachable"] == ["00000000", "10000000"]
          and r["all_ones_reached"] is False)
    report(1, "cover-driven mode reaches exactly two states", ok, elapsed, 1.0,
           detail=f"covers={r['covers']}")


def test_criterion_2_exact_uniform_fixed_point():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    uniform = DistributionTable.uniform(10)
    worst = 0.0
    for _ in range(100):
        q = rng.dirichlet(np.ones(10))
        out = exact_distribution_step(uniform, q)
        worst = max(worst, float(np.abs(out.probs - 1.0 / 1024).max()))
    elapsed = time.perf_counter() - t0
    report(2, "uniform law is an exact fixed point", worst < 1e-9, elapsed, 10.0,
           detail=f"max deviation {worst:.2e}")


def test_criterion_3_monte_carlo_uniformity():
    t0 = time.perf_counter()
    r = verify_ciis_stego(n_cells=8, sample_count=1_000_000, seed=0)
    elapsed = time.perf_counter() - t0
    p = r["monte_carlo"]["p_value"]
    report(3, "keyed embedding passes chi-square uniformity", r["pass"], elapsed,
           30.0, detail=f"p={p:.4f} over {r['monte_carlo']['bins']} bins")


def test_criterion_4_expansivity_constant_one():
    t0 = time.perf_counter()
    r = expansivity_probe(n_cells=4, horizon=8, max_period=4)
    elapsed = time.perf_counter() - t0
    ok = (r["pass"] and r["infimum"] >= 1.0 and r["equal_state_infimum"] >= 2.0)
    report(4, "expansivity constant is 1", ok, elapsed, 10.0,
           detail=f"infimum={r['infimum']}, equal-state={r['equal_state_infimum']:.4f}, "
                  f"classes={r['pair_classes']}")


def test_criterion_5_topological_mixing():
    t0 = time.perf_counter()
    r = mixing_probe(n_cells=4, prefix_len=3)
    elapsed = time.perf_counter() - t0
    ok = r["pass"] and r["max_horizon"] <= 7
    report(5, "every state reached from every ball", ok, elapsed, 5.0,
           detail=f"max horizon {r['max_horizon']} <= {r['reach_bound']}")


def test_criterion_6_regularity():
    t0 = time.perf_counter()
    r = regularity_probe(n_cells=3, epsilon=1e-2)
    elapsed = time.perf_counter() - t0
    report(6, "periodic point inside every 1e-2 ball", r["pass"], elapsed, 5.0,
           detail=f"balls={r['balls']}, worst distance {r['max_center_distance']:.2e}")


def test_criterion_7_pipeline_integrity():
    rng = np.random.default_rng(42)
    data = b"P5\n512 512\n255\n" + rng.integers(0, 256, size=512 * 512,
                                                dtype=np.uint8).tobytes()
    t0 = time.perf_counter()
    cover = load_pgm(data)
    km = KeyMaterial(key=Fixed64.from_float(0.123456),
                     message=Fixed64.from_float(0.654321),
                     params=PlcmParams(0.43), n_cells=cover.n_cells)
    cfg = EmbeddingConfig(key_material=km, n_iter=65536, strategy_mode="ciis")
    marked = embed(cover, cfg)
    res = detect_nonblind(cover, marked, cfg)
    ratio = psnr(cover, marked)
    elapsed = time.perf_counter() - t0

    a = np.frombuffer(cover.payload, dtype=np.uint8).astype(np.int16)
    b = np.frombuffer(marked.payload, dtype=np.uint8).astype(np.int16)
    max_per_byte = int(np.abs(a - b).max())
    flips = state_distance(extract_lscs(cover), extract_lscs(marked))
    ok = (res.match and res.distance == 0 and max_per_byte <= 1 and ratio > 48.1
          and flips > 0)
    report(7, "512x512 embed/detect round trip", ok, elapsed, 1.0,
           detail=f"distance={res.distance}, per-byte<={max_per_byte}, "
                  f"psnr={ratio:.2f}dB, flips={flips}")


def test_criterion_8_analyze_determinism(tmp_path, capsys):
    args = ["analyze", "--suite", "full", "--n-cells", "3", "--seed", "11"]
    t0 = time.perf_counter()
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code_a = main(args + ["--report", str(first), "--threads", "1"])
    code_b = main(args + ["--report", str(second), "--threads", "8"])
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    identical = first.read_bytes() == second.read_bytes()
    ok = identical and code_a == code_b == 0
    with capsys.disabled():
        report(8, "analyze twice gives identical bytes", ok, elapsed, 60.0,
               detail=f"{len(first.read_bytes())} bytes, exit {code_a}")
    doc = json.loads(first.read_text())
    assert doc["overall_pass"] is True


def test_criterion_9_sampled_vs_exact_agreement():
    t0 = time.perf_counter()
    r = mc_exact_agreement(n_cells=4, sample_count=1_000_000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = r["pass"] and r["total_variation"] < 0.01
    report(9, "sampled law within 0.01 TV of exact law", ok, elapsed, 30.0,
           detail=f"tv={r['total_variation']:.5f}")
