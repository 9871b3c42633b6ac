"""Distribution-level verdicts for the hiding scheme.

The keyed mode is checked along two independent routes: an exact push
forward of state distributions through one iteration (the convolution
step, small cell counts only) and a seeded Monte Carlo embedding of
uniform covers judged by a chi-square goodness-of-fit test.  The
cover-driven mode is checked by exhaustively enumerating the watermarked
states it can produce.

Monte Carlo sampling always uses a fixed layout of 8 substream chunks
seeded ``[seed, chunk]``, so results are byte-identical across runs (the
aggregates are integer histograms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dynamics import BitState, Strategy, iterate, vector_negation
from .errors import ContractError, UnderpoweredTestError
from .fixedpoint import Fixed64
from .strategies import KeyMaterial, PlcmParams, ciis_strategy, cids_strategy

__all__ = [
    "CHI_SQUARE_P_THRESHOLD",
    "EXACT_DEVIATION_TOLERANCE",
    "DistributionTable",
    "exact_distribution_step",
    "exact_pushforward",
    "mc_exact_agreement",
    "strategy_state_dependence",
    "verify_ciis_stego",
    "verify_cids_not_stego",
]

CHI_SQUARE_P_THRESHOLD = 0.01
EXACT_DEVIATION_TOLERANCE = 1e-9
TV_FLOOR = 0.01
_MC_CHUNKS = 8
_MAX_TABLE_CELLS = 12


@dataclass(frozen=True)
class DistributionTable:
    """A probability for each of the 2^n_cells states, indexed by state value."""

    n_cells: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.n_cells, int) or not 1 <= self.n_cells <= _MAX_TABLE_CELLS:
            raise ContractError(
                f"n_cells must be an integer in 1..{_MAX_TABLE_CELLS}, got {self.n_cells!r}"
            )
        probs = np.array(self.probs, dtype=np.float64, copy=True)
        if probs.shape != (1 << self.n_cells,):
            raise ContractError(
                f"expected {1 << self.n_cells} probabilities, got shape {probs.shape}"
            )
        if probs.min() < 0.0:
            raise ContractError("probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ContractError(f"probabilities sum to {probs.sum()!r}, expected 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, n_cells: int) -> "DistributionTable":
        size = 1 << n_cells
        return cls(n_cells, np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, state: BitState) -> "DistributionTable":
        probs = np.zeros(1 << state.n_cells)
        probs[state.value] = 1.0
        return cls(state.n_cells, probs)


def exact_distribution_step(dist: DistributionTable,
                            strategy_dist: Sequence[float]) -> DistributionTable:
    """Exact one-step push-forward under an independent strategy symbol.

    With q_k the probability of selecting cell k and B_k the single-bit
    state at cell k, the negation update gives

        P(next = e) = sum_k P(prev = e XOR B_k) * q_k,

    a convex combination of bit-flip permutations, so mass is conserved
    and the uniform table is a fixed point for every q.
    """
    q = np.asarray(strategy_dist, dtype=np.float64)
    if q.shape != (dist.n_cells,):
        raise ContractError(
            f"strategy distribution needs {dist.n_cells} entries, got shape {q.shape}"
        )
    if q.min() < 0.0 or abs(float(q.sum()) - 1.0) > 1e-9:
        raise ContractError("strategy distribution must be non-negative and sum to 1")
    idx = np.arange(dist.probs.size)
    out = np.zeros_like(dist.probs)
    for k in range(dist.n_cells):
        if q[k] != 0.0:
            out += q[k] * dist.probs[idx ^ (1 << k)]
    return DistributionTable(dist.n_cells, out)


def exact_pushforward(dist: DistributionTable, terms: Iterable[int]) -> DistributionTable:
    """Push a distribution through a fixed term sequence (point-mass steps).

    Each point-mass step is the bit-flip permutation of its cell, so the
    whole run is one XOR permutation by the parity mask of the terms.
    """
    terms = tuple(terms)
    mask = iterate(vector_negation, BitState.zeros(dist.n_cells),
                   Strategy.finite(terms, dist.n_cells), len(terms)).value
    return DistributionTable(dist.n_cells, dist.probs[np.arange(dist.probs.size) ^ mask])


def require_positive_ints(**budgets: object) -> None:
    """Refuse any budget that is not a positive ``int``; ``bool`` is refused too."""
    for name, value in budgets.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ContractError(f"{name} must be a positive integer, got {value!r}")


def _keyed_run(n_cells: int, cap: int, n_iter: int, sample_count: int, seed: int,
               km: KeyMaterial | None, tag: int) -> tuple[tuple[int, ...], np.ndarray, dict]:
    """One keyed run over uniform covers: terms, embedded histogram, report fields.

    Key material defaults to a reproducible derivation from ``[seed, tag]``.
    The histogram counts ``uniform cover XOR parity mask`` over the fixed
    8-chunk layout, ``sample_count`` covers in all.
    """
    if not isinstance(n_cells, int) or not 1 <= n_cells <= cap:
        raise ContractError(f"n_cells must be an integer in 1..{cap}, got {n_cells!r}")
    require_positive_ints(sample_count=sample_count, n_iter=n_iter)
    bins = 1 << n_cells
    if sample_count < 10 * bins:
        raise UnderpoweredTestError(
            f"{sample_count} samples over {bins} bins; "
            f"need at least {10 * bins} for 10 expected counts per bin"
        )
    if km is None:
        rng = np.random.default_rng([seed, tag])
        key = Fixed64(int(rng.integers(0, 1 << 64, dtype=np.uint64)))
        message = Fixed64(int(rng.integers(0, 1 << 64, dtype=np.uint64)))
        km = KeyMaterial(key=key, message=message,
                         params=PlcmParams(float(0.05 + 0.4 * rng.random())),
                         n_cells=n_cells, burn_in=997)
    strategy = ciis_strategy(km, n_iter)
    mask = iterate(vector_negation, BitState.zeros(n_cells), strategy, n_iter).value
    counts = np.zeros(bins, dtype=np.int64)
    base, extra = divmod(sample_count, _MC_CHUNKS)
    for c in range(_MC_CHUNKS):
        rng = np.random.default_rng([seed, c])
        samples = rng.integers(0, bins, size=base + (c < extra), dtype=np.int64)
        counts += np.bincount(samples ^ mask, minlength=bins)
    fields = {
        "n_cells": n_cells,
        "n_iter": n_iter,
        "seed": seed,
        "key": km.key.to_hex(),
        "message": km.message.to_hex(),
        "p": km.params.p,
        "burn_in": km.burn_in,
    }
    return strategy.prefix(n_iter), counts, fields


def verify_ciis_stego(n_cells: int, n_iter: int = 64, sample_count: int = 1_000_000,
                      seed: int = 0, km: KeyMaterial | None = None) -> dict:
    """Two-route check that keyed embedding preserves a uniform cover law.

    Exact route: starting from the uniform table, apply the one-step push
    forward ``n_iter`` times using the empirical index distribution of the
    generated keystream; the output must stay uniform to within 1e-9.
    Monte Carlo route: embed ``sample_count`` uniform covers under one
    fixed key and test the watermarked histogram against uniform by
    chi-square; the verdict needs p > 0.01.

    Key material defaults to a reproducible derivation from ``seed``.
    """
    terms, counts, fields = _keyed_run(n_cells, 10, n_iter, sample_count, seed, km, 0x5EC0)

    q_emp = np.bincount(np.asarray(terms) - 1, minlength=n_cells) / n_iter
    table = DistributionTable.uniform(n_cells)
    for _ in range(n_iter):
        table = exact_distribution_step(table, q_emp)
    deviation = float(np.max(np.abs(table.probs - 1.0 / (1 << n_cells))))
    exact_pass = deviation < EXACT_DEVIATION_TOLERANCE

    bins = 1 << n_cells
    expected = sample_count / bins
    statistic = float(((counts - expected) ** 2 / expected).sum())
    # scipy is imported here, not at module level, so that embedding and
    # detection never pay for it
    from scipy.special import chdtrc
    p_value = float(chdtrc(bins - 1, statistic))
    mc_pass = bool(p_value > CHI_SQUARE_P_THRESHOLD)

    return {
        "check": "ciis_stego",
        "method": "exact push-forward fixed point + chi-square on embedded uniform covers",
        **fields,
        "exact": {
            "max_deviation": deviation,
            "tolerance": EXACT_DEVIATION_TOLERANCE,
            "steps": n_iter,
            "pass": bool(exact_pass),
        },
        "monte_carlo": {
            "sample_count": sample_count,
            "bins": bins,
            "dof": bins - 1,
            "statistic": statistic,
            "p_value": p_value,
            "threshold": CHI_SQUARE_P_THRESHOLD,
            "pass": mc_pass,
        },
        "pass": bool(exact_pass and mc_pass),
    }


def mc_exact_agreement(n_cells: int = 4, n_iter: int = 64, sample_count: int = 1_000_000,
                       seed: int = 0, km: KeyMaterial | None = None) -> dict:
    """Total-variation distance between sampled and exactly computed output laws.

    The sampled law embeds uniform covers as in :func:`verify_ciis_stego`;
    the exact law pushes the uniform table through the same term sequence
    step by step.  The pass threshold is 0.01 plus an allowance for
    multinomial sampling noise, ``1.5 * sqrt(bins / samples)``, so small
    desk-scale runs stay meaningful and the canonical configuration
    (n_cells=4, one million samples) is judged at 0.01 itself.
    """
    terms, counts, fields = _keyed_run(n_cells, _MAX_TABLE_CELLS, n_iter, sample_count,
                                       seed, km, 0xA6EE)
    exact = exact_pushforward(DistributionTable.uniform(n_cells), terms)
    empirical = counts / sample_count
    tv = 0.5 * float(np.abs(empirical - exact.probs).sum())
    bins = 1 << n_cells
    threshold = max(TV_FLOOR, 1.5 * float(np.sqrt(bins / sample_count)))

    return {
        "check": "mc_exact_agreement",
        "method": "total variation between embedded-cover histogram and exact push-forward",
        **fields,
        "sample_count": sample_count,
        "bins": bins,
        "total_variation": tv,
        "threshold": threshold,
        "pass": bool(tv < threshold),
    }


def verify_cids_not_stego(n_cells: int, n_iter: int | None = None) -> dict:
    """Exhaustive reachable-set check for the cover-driven mode.

    Embeds every possible cover (all 2^n_cells LSC vectors) for at least
    n_cells steps.  For n_cells >= 2 the watermarked set must be exactly
    the zero state and the state with only cell 1 set; the all-ones state
    in particular is never produced, so the output law cannot match any
    cover law with full support.  At n_cells = 1 those two states exhaust
    the space and only the computed support is asserted.
    """
    if not isinstance(n_cells, int) or not 1 <= n_cells <= _MAX_TABLE_CELLS:
        raise ContractError(
            f"n_cells must be an integer in 1..{_MAX_TABLE_CELLS}, got {n_cells!r}"
        )
    if n_iter is None:
        n_iter = n_cells
    if n_iter < n_cells:
        raise ContractError(
            f"the two-output claim needs n_iter >= n_cells, got {n_iter} < {n_cells}"
        )
    reachable: set[int] = set()
    for v in range(1 << n_cells):
        x = BitState(v, n_cells)
        y = iterate(vector_negation, x, cids_strategy(x, n_iter), n_iter)
        reachable.add(y.value)
    expected = {0, 1}  # the zero state and 10...0 (cell 1 set)
    all_ones = (1 << n_cells) - 1
    if n_cells >= 2:
        ok = reachable == expected and all_ones not in reachable
        claim = "reachable set is exactly {0^N, 10^(N-1)} and 1^N is unreached"
    else:
        ok = reachable <= {0, 1}
        claim = "reachable set lies in {0, 1} (the two coincide with 0^N, 10^(N-1), 1^N)"
    return {
        "check": "cids_not_stego",
        "method": "exhaustive embedding of all covers",
        "n_cells": n_cells,
        "n_iter": n_iter,
        "covers": 1 << n_cells,
        "reachable": sorted(BitState(v, n_cells).to_bitstring() for v in reachable),
        "all_ones_reached": bool(all_ones in reachable),
        "claim": claim,
        "pass": bool(ok),
    }


def strategy_state_dependence(n_cells: int, trials: int = 2000, n_iter: int = 16,
                              seed: int = 0, burn_in: int = 64) -> dict:
    """Diagnostic: empirical dependence between the strategy head and the state.

    The exact route above treats the selected cell index as independent of
    the current state.  Under one fixed key the index sequence is a
    constant, so the diagnostic samples fresh (key, message, parameter)
    triples and covers, records the pair (last term, last state), and
    reports the plug-in mutual information of the joint histogram without
    asserting it to be zero.  A short burn-in keeps the diagnostic cheap;
    it does not claim the production default.
    """
    if not isinstance(n_cells, int) or not 1 <= n_cells <= 8:
        raise ContractError(f"n_cells must be an integer in 1..8, got {n_cells!r}")
    if trials < 1 or n_iter < 1:
        raise ContractError("trials and n_iter must be positive")
    rng = np.random.default_rng([seed, 0xD1A6])
    joint = np.zeros((n_cells, 1 << n_cells))
    for _ in range(trials):
        km = KeyMaterial(
            key=Fixed64(int(rng.integers(0, 1 << 64, dtype=np.uint64))),
            message=Fixed64(int(rng.integers(0, 1 << 64, dtype=np.uint64))),
            params=PlcmParams(float(0.05 + 0.4 * rng.random())),
            n_cells=n_cells, burn_in=burn_in,
        )
        strategy = ciis_strategy(km, n_iter)
        cover = BitState(int(rng.integers(0, 1 << n_cells)), n_cells)
        last_state = iterate(vector_negation, cover, strategy, n_iter - 1)
        joint[strategy.term(n_iter - 1) - 1, last_state.value] += 1
    pj = joint / trials
    pi = pj.sum(axis=1, keepdims=True)
    px = pj.sum(axis=0, keepdims=True)
    nz = pj > 0
    mi = float((pj[nz] * np.log2(pj[nz] / (pi @ px)[nz])).sum())
    return {
        "check": "strategy_state_dependence",
        "method": "plug-in mutual information over sampled keys, last step",
        "diagnostic": True,
        "n_cells": n_cells,
        "trials": trials,
        "n_iter": n_iter,
        "burn_in": burn_in,
        "seed": seed,
        "mutual_information_bits": mi,
    }
