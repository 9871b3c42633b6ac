"""Preset verdict suites behind the analyze command."""

from __future__ import annotations

from dataclasses import dataclass

from .chaos_probes import (
    expansivity_probe,
    mixing_probe,
    regularity_probe,
    sensitivity_probe,
    witness_to_dict,
)
from .errors import ContractError
from .report import emit_report
from .stego_analysis import (
    mc_exact_agreement,
    require_positive_ints,
    strategy_state_dependence,
    verify_ciis_stego,
    verify_cids_not_stego,
)

__all__ = ["SUITES", "SuiteResult", "run_suite", "suite_cap"]

SUITES = ("full", "stego", "chaos")

# regularity caps the chaos family at 4 cells; the exact stego oracle at 10
_CAPS = {"stego": 10, "chaos": 4, "full": 4}

DEFAULT_SAMPLE_COUNT = 1_000_000
DEFAULT_N_ITER = 64
_MIXING_PREFIX_LEN = 3
_EXPANSIVITY_HORIZON = 8
_SENSITIVITY_TRIALS = 200
_SENSITIVITY_HORIZON = 16
_REGULARITY_EPSILON = 0.01


@dataclass(frozen=True)
class SuiteResult:
    json: str
    verdicts: dict
    overall_pass: bool


def suite_cap(suite: str) -> int:
    if suite not in SUITES:
        raise ContractError(f"suite must be one of {SUITES}, got {suite!r}")
    return _CAPS[suite]


def run_suite(suite: str, n_cells: int, seed: int,
              sample_count: int = DEFAULT_SAMPLE_COUNT,
              n_iter: int = DEFAULT_N_ITER, threads: int = 1) -> SuiteResult:
    """Run the requested verdicts and emit their deterministic report.

    ``threads`` is accepted for compatibility and ignored: the verdicts
    run on one thread, and the report never depended on it.
    """
    cap = suite_cap(suite)
    if not isinstance(n_cells, int) or not 1 <= n_cells <= cap:
        raise ContractError(
            f"suite {suite!r} supports n_cells 1..{cap}, got {n_cells!r}"
        )
    if not isinstance(seed, int) or seed < 0:
        raise ContractError(f"seed must be a non-negative integer, got {seed!r}")
    require_positive_ints(sample_count=sample_count, n_iter=n_iter)

    verdicts: dict = {}
    if suite in ("full", "stego"):
        verdicts["ciis_stego"] = verify_ciis_stego(
            n_cells, n_iter=n_iter, sample_count=sample_count, seed=seed)
        verdicts["cids_not_stego"] = verify_cids_not_stego(n_cells)
        verdicts["mc_exact_agreement"] = mc_exact_agreement(
            n_cells, n_iter=n_iter, sample_count=sample_count, seed=seed)
        verdicts["strategy_state_dependence"] = strategy_state_dependence(
            min(n_cells, 6), seed=seed)
    if suite in ("full", "chaos"):
        expansivity = expansivity_probe(n_cells, _EXPANSIVITY_HORIZON, seed=seed)
        for key in ("witness", "equal_state_witness"):
            if expansivity.get(key) is not None:
                expansivity[key] = witness_to_dict(expansivity[key])
        verdicts["expansivity"] = expansivity
        verdicts["mixing"] = mixing_probe(n_cells, _MIXING_PREFIX_LEN)
        if n_cells >= 2:
            verdicts["sensitivity"] = sensitivity_probe(
                n_cells, _SENSITIVITY_TRIALS, _SENSITIVITY_HORIZON, seed=seed)
        verdicts["regularity"] = regularity_probe(n_cells, _REGULARITY_EPSILON)

    config = {
        "suite": suite,
        "n_cells": n_cells,
        "seed": seed,
        "sample_count": sample_count,
        "n_iter": n_iter,
        "mixing_prefix_len": _MIXING_PREFIX_LEN,
        "expansivity_horizon": _EXPANSIVITY_HORIZON,
        "sensitivity_trials": _SENSITIVITY_TRIALS,
        "sensitivity_horizon": _SENSITIVITY_HORIZON,
        "regularity_epsilon": _REGULARITY_EPSILON,
    }
    overall = all(bool(v["pass"]) for v in verdicts.values() if "pass" in v)
    return SuiteResult(json=emit_report(verdicts, config, seed),
                       verdicts=verdicts, overall_pass=overall)
