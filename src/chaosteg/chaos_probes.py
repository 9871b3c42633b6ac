"""Chaos verdicts for the iteration system, quantified over finite families.

The phase space (strategy, state) is uncountable, so each probe quantifies
over the finite family its target property actually exercises: periodic
strategies and sampled prefixes for expansivity and sensitivity, prefix
balls and difference-cell segments for mixing and regularity.  Every
verdict records the family it ran over, and separations claimed by a
witness are replayed through the scalar step pipeline before being
reported.

All probes drive the negation update map, the one the hiding scheme uses.

A translation fact keeps the expansivity search exact and fast: under the
negation update the state difference after n steps is the initial
difference XOR the parity masks of the two consumed prefixes, independent
of the absolute states.  Pairs are therefore classified by (strategy A,
strategy B, state difference D), and each class stands for every concrete
state pair with that difference.  The metric's integer part is the Hamming
distance between states, so every class with D != 0 already sits at
distance >= popcount(D) >= 1 at n = 0; only the equal-state classes are
swept.  The same fact builds the continuations of mixing and regularity:
flipping each cell set in a difference once moves a state by exactly it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DEFAULT_DEPTH,
    BitState,
    Strategy,
    SystemPoint,
    _primitive,
    iterate,
    point_distance,
    step,
    vector_negation,
)
from .errors import ContractError, DomainError

__all__ = [
    "ChaosWitness",
    "expansivity_probe",
    "mixing_probe",
    "regularity_probe",
    "sensitivity_probe",
    "witness_to_dict",
]


@dataclass(frozen=True)
class ChaosWitness:
    """A pair of points and the iterate at which they achieve a distance.

    ``replay`` re-runs the iteration from the stored pair; equality with
    ``achieved_distance`` is the witness invariant.
    """

    point_a: SystemPoint
    point_b: SystemPoint
    iterate_index: int
    achieved_distance: float

    def replay(self, depth: int = DEFAULT_DEPTH) -> float:
        a, b = self.point_a, self.point_b
        for _ in range(self.iterate_index):
            a = step(vector_negation, a)
            b = step(vector_negation, b)
        return point_distance(a, b, depth).value


def witness_to_dict(w: ChaosWitness) -> dict:
    return {
        "state_a": w.point_a.state.to_bitstring(),
        "state_b": w.point_b.state.to_bitstring(),
        "strategy_a": w.point_a.strategy.describe(),
        "strategy_b": w.point_b.strategy.describe(),
        "iterate_index": w.iterate_index,
        "distance": w.achieved_distance,
    }


def _primitive_patterns(n_cells: int, max_period: int) -> list[tuple[int, ...]]:
    pats = []
    for length in range(1, max_period + 1):
        for pat in itertools.product(range(1, n_cells + 1), repeat=length):
            if _primitive(pat) == pat:
                pats.append(pat)
    return pats


def _separation(a: SystemPoint, b: SystemPoint, horizon: int,
                depth: int) -> tuple[int, float]:
    """Step both points ``horizon`` times; first iterate at the largest distance."""
    best_n, best_d = 0, point_distance(a, b, depth).value
    for n in range(1, horizon + 1):
        a = step(vector_negation, a)
        b = step(vector_negation, b)
        d = point_distance(a, b, depth).value
        if d > best_d:
            best_n, best_d = n, d
    return best_n, best_d


def _pair_witness(strat_a: Strategy, strat_b: Strategy, diff: int, n_cells: int,
                  horizon: int, depth: int) -> ChaosWitness:
    """Replay a pair class through the scalar pipeline, keep its best iterate."""
    a = SystemPoint(strat_a, BitState.zeros(n_cells))
    b = SystemPoint(strat_b, BitState(diff, n_cells))
    return ChaosWitness(a, b, *_separation(a, b, horizon, depth))


def expansivity_probe(n_cells: int, horizon: int, max_period: int = 4,
                      prefix_samples: int = 32, seed: int = 0,
                      depth: int = DEFAULT_DEPTH) -> dict:
    """Check that every distinct pair separates to distance >= 1.

    Quantifies over every periodic strategy with primitive period at most
    ``max_period``, plus ``prefix_samples`` random finite prefixes, against
    every state difference; the translation fact above folds the absolute
    states away exactly.  Family members must be pairwise distinguishable
    within the first ``horizon`` terms (guaranteed for periods up to 4 at
    horizon 8, enforced otherwise), since a pair with equal states cannot
    separate before its strategies first differ.

    Reports the infimum over pair classes of the best separation achieved
    within the horizon.  Classes whose states differ are settled by the
    metric's integer part: they start at distance >= 1, and the one-cell
    difference under one shared strategy stays at exactly 1.  Only the
    equal-state classes are swept; they separate to at least 2 and their
    own infimum is reported alongside.  So the infimum is
    min(1, equal-state infimum), and its witness is replayed like the rest.
    """
    if not isinstance(n_cells, int) or not 1 <= n_cells <= 5:
        raise ContractError(f"n_cells must be an integer in 1..5, got {n_cells!r}")
    if not isinstance(horizon, int) or horizon < 1:
        raise ContractError(f"horizon must be a positive integer, got {horizon!r}")
    if not isinstance(max_period, int) or max_period < 1:
        raise ContractError(f"max_period must be a positive integer, got {max_period!r}")

    window = horizon + depth
    family: list[Strategy] = []
    rows: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for pat in _primitive_patterns(n_cells, max_period):
        s = Strategy.periodic(pat, n_cells)
        key = s.prefix(horizon)
        if key in seen:
            raise ContractError(
                "two periodic strategies share their first "
                f"{horizon} terms; raise horizon or lower max_period"
            )
        seen.add(key)
        family.append(s)
        rows.append(s.prefix(window))

    rng = np.random.default_rng([seed, 0xE8A])
    sampled = 0
    if n_cells > 1:
        for _ in range(prefix_samples):
            for _attempt in range(1000):
                terms = tuple(int(v) for v in rng.integers(1, n_cells + 1, size=window))
                if terms[:horizon] not in seen:
                    break
            else:
                raise ContractError("could not sample a fresh strategy prefix")
            seen.add(terms[:horizon])
            family.append(Strategy.finite(terms, n_cells))
            rows.append(terms)
            sampled += 1

    S = len(family)
    # classes whose states differ start at distance >= popcount(D) >= 1, and
    # the one-cell difference under one shared strategy stays at exactly 1
    infimum = 1.0
    witness = _pair_witness(family[0], family[0], 1, n_cells, horizon, depth)
    eq_infimum = eq_witness = None
    if S > 1:
        T = np.array(rows, dtype=np.int64)
        masks = np.zeros((S, horizon + 1), dtype=np.uint8)
        for j in range(horizon):
            masks[:, j + 1] = masks[:, j] ^ (1 << (T[:, j] - 1)).astype(np.uint8)

        weights = np.array([9.0 / n_cells * 10.0 ** -(k + 1) for k in range(depth)])
        DS = np.empty((S, S, horizon + 1))
        for n in range(horizon + 1):
            win = T[:, n:n + depth].astype(np.float64)
            DS[:, :, n] = np.abs(win[:, None, :] - win[None, :, :]).dot(weights)

        pop = np.array([bin(v).count("1") for v in range(1 << n_cells)], dtype=np.float64)
        m_pair = masks[:, None, :] ^ masks[None, :, :]
        sep = (pop[m_pair] + DS).max(axis=2)
        np.fill_diagonal(sep, np.inf)
        a, b = np.unravel_index(np.argmin(sep), sep.shape)
        eq_infimum = float(sep[a, b])
        eq_witness = _pair_witness(family[a], family[b], 0, n_cells, horizon, depth)
        if eq_infimum <= 1.0:
            infimum, witness = eq_infimum, eq_witness

    return {
        "check": "expansivity",
        "method": "exhaustive pair classes (strategy pair x state difference), "
                  "states folded by translation invariance",
        "n_cells": n_cells,
        "horizon": horizon,
        "max_period": max_period,
        "prefix_samples": sampled,
        "seed": seed,
        "depth": depth,
        "family_size": S,
        "family_rule": f"pairwise distinct first {horizon} terms",
        "pair_classes": S * S * (1 << n_cells) - S,
        "infimum": infimum,
        "equal_state_infimum": eq_infimum,
        "witness": witness,
        "equal_state_witness": eq_witness,
        "pass": bool(infimum >= 1.0),
    }


def _balls(n_cells: int, prefix_len: int):
    """Every prefix ball as (start state, fixed prefix, state after the prefix)."""
    for value in range(1 << n_cells):
        start = BitState(value, n_cells)
        for prefix in itertools.product(range(1, n_cells + 1), repeat=prefix_len):
            yield start, prefix, iterate(vector_negation, start,
                                         Strategy.finite(prefix, n_cells), prefix_len)


def _flip_segment(d: int, n_cells: int) -> tuple[int, ...]:
    """The cells set in ``d``, in order: flipping each once XORs a state by ``d``."""
    return tuple(k for k in range(1, n_cells + 1) if (d >> (k - 1)) & 1)


def mixing_probe(n_cells: int, prefix_len: int) -> dict:
    """Reach every state from every prefix ball within prefix_len + n_cells steps.

    A ball fixes a start state and the first ``prefix_len`` strategy terms
    and allows every continuation.  For each target the continuation is
    constructed as the list of cells where the post-prefix state and the
    target differ; flipping each of those cells once lands exactly on the
    target, which the probe verifies by running the iteration.
    """
    if not isinstance(n_cells, int) or not 1 <= n_cells <= 5:
        raise ContractError(f"n_cells must be an integer in 1..5, got {n_cells!r}")
    if not isinstance(prefix_len, int) or prefix_len < 0:
        raise ContractError(f"prefix_len must be a non-negative integer, got {prefix_len!r}")
    bound = prefix_len + n_cells
    size = 1 << n_cells
    balls = 0
    max_horizon = -1
    example = None
    all_reached = True
    for start, prefix, mid in _balls(n_cells, prefix_len):
        balls += 1
        for target in range(size):
            segment = _flip_segment(mid.value ^ target, n_cells)
            h = prefix_len + len(segment)
            reached = iterate(vector_negation, start,
                              Strategy.finite(prefix + segment, n_cells), h)
            if reached.value != target:
                all_reached = False
                continue
            if h > max_horizon:
                max_horizon = h
                example = {
                    "state": start.to_bitstring(),
                    "prefix": list(prefix),
                    "target": BitState(target, n_cells).to_bitstring(),
                    "segment": list(segment),
                    "reached_at": h,
                }
    return {
        "check": "mixing",
        "method": "difference-cell segments from every prefix ball, verified by iteration",
        "n_cells": n_cells,
        "prefix_len": prefix_len,
        "balls": balls,
        "targets_per_ball": size,
        "reach_bound": bound,
        "max_horizon": max_horizon,
        "example": example,
        "pass": bool(all_reached and max_horizon <= bound),
    }


def sensitivity_probe(n_cells: int, trials: int, horizon: int, seed: int,
                      depth: int = DEFAULT_DEPTH) -> dict:
    """Nearby pairs (equal states, long shared prefix) still separate to >= 1.

    Each trial samples a state, a shared prefix of random length below the
    horizon, two different next terms, and independent random tails, then
    tracks the largest point distance over the horizon.  Needs at least
    two cells: with one cell the only strategy is constant and no distinct
    nearby pair exists.
    """
    if not isinstance(n_cells, int) or n_cells < 2:
        raise ContractError(f"sensitivity sampling needs n_cells >= 2, got {n_cells!r}")
    if trials < 1 or horizon < 1:
        raise ContractError("trials and horizon must be positive")
    rng = np.random.default_rng([seed, 0x5E45])
    separations = []
    initial = []
    for _ in range(trials):
        state = BitState(int(rng.integers(0, 1 << n_cells)), n_cells)
        m = int(rng.integers(0, horizon))
        shared = [int(v) for v in rng.integers(1, n_cells + 1, size=m)]
        head_a, head_b = (int(v) + 1 for v in rng.choice(n_cells, size=2, replace=False))
        tail_len = horizon + depth - m - 1
        tails = rng.integers(1, n_cells + 1, size=(2, tail_len))
        x = SystemPoint(Strategy.finite(shared + [head_a] + [int(v) for v in tails[0]],
                                        n_cells), state)
        y = SystemPoint(Strategy.finite(shared + [head_b] + [int(v) for v in tails[1]],
                                        n_cells), state)
        initial.append(point_distance(x, y, depth).value)
        separations.append(_separation(x, y, horizon, depth)[1])
    return {
        "check": "sensitivity",
        "method": "sampled nearby pairs, max point distance over the horizon",
        "n_cells": n_cells,
        "trials": trials,
        "horizon": horizon,
        "seed": seed,
        "depth": depth,
        "min_separation": float(min(separations)),
        "mean_separation": float(np.mean(separations)),
        "max_separation": float(max(separations)),
        "mean_initial_distance": float(np.mean(initial)),
        "pass": bool(min(separations) >= 1.0),
    }


def _farthest(term: int, n_cells: int) -> int:
    return 1 if term - 1 > n_cells - term else n_cells


def regularity_probe(n_cells: int, epsilon: float, depth: int = DEFAULT_DEPTH) -> dict:
    """Every prefix ball of radius epsilon contains an exactly periodic point.

    For each state E and each strategy prefix of length ceil(-log10(eps)),
    the candidate keeps the prefix and appends the cells where the
    post-prefix state differs from E, so one period returns the state to E
    and the strategy to itself; periodicity is verified by the step fold
    and proximity against an adversarial ball member whose continuation is
    chosen maximally far, with the truncation error bound added in.
    """
    if not isinstance(n_cells, int) or not 1 <= n_cells <= 4:
        raise ContractError(f"n_cells must be an integer in 1..4, got {n_cells!r}")
    if not isinstance(epsilon, float) or not epsilon > 0.0:
        raise DomainError(f"epsilon must be a positive float, got {epsilon!r}")
    prefix_len = max(0, math.ceil(-math.log10(epsilon)))
    if prefix_len > depth:
        raise ContractError(
            f"epsilon {epsilon!r} needs {prefix_len} agreed terms, "
            f"beyond the metric truncation depth {depth}"
        )
    balls = 0
    max_period = 0
    max_center_distance = 0.0
    all_ok = True
    for state, prefix, mid in _balls(n_cells, prefix_len):
        balls += 1
        segment = _flip_segment(mid.value ^ state.value, n_cells)
        pattern = prefix + segment or (1, 1)
        period = len(pattern)
        candidate = SystemPoint(Strategy.periodic(pattern, n_cells), state)

        p = candidate
        for _ in range(period):
            p = step(vector_negation, p)
        periodic_ok = p == candidate

        adv = list(prefix) + [
            _farthest(candidate.strategy.term(j), n_cells)
            for j in range(prefix_len, depth)
        ]
        center = SystemPoint(Strategy.finite(adv, n_cells), state)
        dist = point_distance(center, candidate, depth)
        worst = dist.value + dist.error_bound
        max_center_distance = max(max_center_distance, worst)
        max_period = max(max_period, period)
        if not (periodic_ok and worst < epsilon):
            all_ok = False
    return {
        "check": "regularity",
        "method": "constructed periodic point per prefix ball, exact period check",
        "n_cells": n_cells,
        "epsilon": epsilon,
        "prefix_len": prefix_len,
        "balls": balls,
        "max_period": max_period,
        "max_center_distance": max_center_distance,
        "pass": bool(all_ok),
    }
