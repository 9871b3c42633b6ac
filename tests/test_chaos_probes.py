import itertools

import numpy as np
import pytest

from chaosteg.chaos_probes import (
    ChaosWitness,
    expansivity_probe,
    mixing_probe,
    regularity_probe,
    sensitivity_probe,
    witness_to_dict,
)
from chaosteg.dynamics import (
    BitState,
    Strategy,
    SystemPoint,
    iterate,
    point_distance,
    step,
    vector_negation,
)
from chaosteg.errors import ContractError, DomainError


# --- witnesses ------------------------------------------------------------


def test_witness_replay_invariant():
    a = SystemPoint(Strategy.periodic((1, 2), 2), BitState.from_bits((0, 0)))
    b = SystemPoint(Strategy.periodic((2, 1), 2), BitState.from_bits((0, 0)))
    d = point_distance(a, b).value
    w = ChaosWitness(a, b, 0, d)
    assert w.replay() == d
    dump = witness_to_dict(w)
    assert dump["state_a"] == "00" and dump["iterate_index"] == 0
    assert dump["strategy_a"] == {"kind": "periodic", "pattern": [1, 2]}


# --- expansivity ------------------------------------------------------------


def test_expansivity_differing_states_separate_immediately():
    # states apart by one bit sit at distance >= 1 already at iterate 0
    s = Strategy.periodic((1,), 3)
    a = SystemPoint(s, BitState.from_bits((0, 0, 0)))
    b = SystemPoint(s, BitState.from_bits((0, 1, 0)))
    assert point_distance(a, b).value >= 1.0


def test_expansivity_equal_states_reach_two():
    # equal states, strategies first differing at index 0: after that step
    # the states differ in one cell and the strategies still differ
    a = SystemPoint(Strategy.periodic((1,), 4), BitState.zeros(4))
    b = SystemPoint(Strategy.periodic((2,), 4), BitState.zeros(4))
    a1, b1 = step(vector_negation, a), step(vector_negation, b)
    assert point_distance(a1, b1).value >= 2.0


def test_expansivity_probe_small_exact():
    r = expansivity_probe(n_cells=2, horizon=8, max_period=2, prefix_samples=8, seed=0)
    assert r["pass"] is True
    assert r["infimum"] == 1.0
    assert r["equal_state_infimum"] >= 2.0
    # the reported witnesses replay to their recorded distances exactly
    assert r["witness"].replay() == r["infimum"]
    assert r["equal_state_witness"].replay() == r["equal_state_infimum"]


def test_expansivity_probe_matches_direct_iteration_spot_checks():
    # scanning the witness pair over the horizon reproduces the probe's value
    r = expansivity_probe(n_cells=3, horizon=6, max_period=2, prefix_samples=4, seed=1)
    w = r["witness"]
    a, b = w.point_a, w.point_b
    seen = []
    for _ in range(r["horizon"] + 1):
        seen.append(point_distance(a, b).value)
        a, b = step(vector_negation, a), step(vector_negation, b)
    assert max(seen) == pytest.approx(w.achieved_distance)
    assert seen[w.iterate_index] == pytest.approx(w.achieved_distance)


def _expansivity_family(n, horizon, max_period, prefix_samples, seed, depth=16):
    """The probe's family, rebuilt: primitive periodic patterns, then sampled prefixes."""
    family, seen = [], set()
    for length in range(1, max_period + 1):
        for pat in itertools.product(range(1, n + 1), repeat=length):
            if all(pat != pat[:p] * (length // p) for p in range(1, length) if length % p == 0):
                family.append(Strategy.periodic(pat, n))
                seen.add(family[-1].prefix(horizon))
    rng = np.random.default_rng([seed, 0xE8A])
    for _ in range(prefix_samples):
        terms = tuple(int(v) for v in rng.integers(1, n + 1, size=horizon + depth))
        while terms[:horizon] in seen:
            terms = tuple(int(v) for v in rng.integers(1, n + 1, size=horizon + depth))
        seen.add(terms[:horizon])
        family.append(Strategy.finite(terms, n))
    return family


@pytest.mark.parametrize(("n", "seed"), [(2, 0), (2, 3), (3, 1), (3, 2)])
def test_expansivity_probe_matches_brute_force_over_every_class(n, seed):
    # every (strategy pair, state difference) class scanned through step and
    # point_distance, first strict minimum kept in the probe's class order
    horizon, samples = 6, 3
    family = _expansivity_family(n, horizon, 2, samples, seed)
    best = best_eq = None
    for diff in range(1 << n):
        for i, sa in enumerate(family):
            for j, sb in enumerate(family):
                if diff == 0 and i == j:
                    continue
                x = SystemPoint(sa, BitState.zeros(n))
                y = SystemPoint(sb, BitState(diff, n))
                dists = []
                for _ in range(horizon + 1):
                    dists.append(point_distance(x, y).value)
                    x, y = step(vector_negation, x), step(vector_negation, y)
                sep = max(dists)
                found = (sep, sa, sb, diff, dists.index(sep))
                if best is None or sep < best[0] - 1e-12:
                    best = found
                if diff == 0 and (best_eq is None or sep < best_eq[0] - 1e-12):
                    best_eq = found

    r = expansivity_probe(n, horizon, max_period=2, prefix_samples=samples, seed=seed)
    assert r["family_size"] == len(family)
    assert r["pair_classes"] == len(family) ** 2 * (1 << n) - len(family)
    assert r["infimum"] == pytest.approx(best[0], abs=1e-12)
    assert r["equal_state_infimum"] == pytest.approx(best_eq[0], abs=1e-12)
    for w, (_, sa, sb, diff, index) in ((r["witness"], best),
                                        (r["equal_state_witness"], best_eq)):
        assert (w.point_a.strategy, w.point_b.strategy) == (sa, sb)
        assert w.point_a.state.value ^ w.point_b.state.value == diff
        assert w.iterate_index == index


def test_expansivity_single_cell_family():
    # only the constant strategy exists; no distinct equal-state pairs
    r = expansivity_probe(n_cells=1, horizon=4, max_period=3)
    assert r["equal_state_infimum"] is None
    assert r["pass"] is True
    assert r["infimum"] == 1.0  # the lone pair class: states 0 and 1


def test_expansivity_family_rule_enforced():
    # periods up to 4 disagree within 8 terms; horizon 2 cannot tell some apart
    with pytest.raises(ContractError):
        expansivity_probe(n_cells=3, horizon=2, max_period=4)


def test_expansivity_bounds():
    with pytest.raises(ContractError):
        expansivity_probe(n_cells=6, horizon=8)
    with pytest.raises(ContractError):
        expansivity_probe(n_cells=2, horizon=0)


# --- mixing ------------------------------------------------------------------


def test_mixing_trivial_target_is_start():
    # target equal to the post-prefix state needs an empty segment
    start = BitState.from_bits((1, 0))
    prefix = (1, 2)
    mid = iterate(vector_negation, start, Strategy.finite(prefix, 2), 2)
    r = mixing_probe(n_cells=2, prefix_len=2)
    assert r["pass"] is True
    # reconstruct the probe's segment rule for this ball
    segment = tuple(k for k in range(1, 3) if (mid.value ^ mid.value) >> (k - 1) & 1)
    assert segment == ()


def test_mixing_j_bit_targets_reached_at_k_plus_j():
    n, k = 3, 2
    start = BitState.zeros(n)
    prefix = (1, 1)
    mid = iterate(vector_negation, start, Strategy.finite(prefix, n), k)
    for target in range(1 << n):
        d = mid.value ^ target
        j = bin(d).count("1")
        segment = tuple(c for c in range(1, n + 1) if (d >> (c - 1)) & 1)
        reached = iterate(vector_negation, start,
                          Strategy.finite(prefix + segment, n), k + j)
        assert reached.value == target


def test_mixing_probe_exhaustive_n4():
    r = mixing_probe(n_cells=4, prefix_len=3)
    assert r["pass"] is True
    assert r["max_horizon"] <= r["reach_bound"] == 7
    assert r["balls"] == 16 * 4 ** 3
    assert r["example"]["reached_at"] == r["max_horizon"]


def test_mixing_zero_prefix():
    r = mixing_probe(n_cells=3, prefix_len=0)
    assert r["pass"] is True
    assert r["balls"] == 8
    assert r["reach_bound"] == 3


def test_mixing_bounds():
    with pytest.raises(ContractError):
        mixing_probe(n_cells=6, prefix_len=1)
    with pytest.raises(ContractError):
        mixing_probe(n_cells=3, prefix_len=-1)


# --- sensitivity --------------------------------------------------------------


def test_sensitivity_probe_separates():
    r = sensitivity_probe(n_cells=4, trials=100, horizon=12, seed=0)
    assert r["pass"] is True
    assert r["min_separation"] >= 1.0
    assert r["mean_initial_distance"] < 1.0  # nearby pairs start close


def test_sensitivity_equal_state_pairs_reach_two():
    # the structural mechanism asserted directly: same state, heads differ
    n = 4
    state = BitState.from_bits((1, 0, 1, 0))
    x = SystemPoint(Strategy.finite((2,) + (1,) * 17, n), state)
    y = SystemPoint(Strategy.finite((3,) + (2,) * 17, n), state)
    x1, y1 = step(vector_negation, x), step(vector_negation, y)
    assert point_distance(x1, y1).value >= 2.0


def test_sensitivity_deterministic():
    assert (sensitivity_probe(n_cells=3, trials=50, horizon=10, seed=7)
            == sensitivity_probe(n_cells=3, trials=50, horizon=10, seed=7))


def test_sensitivity_single_cell_rejected():
    with pytest.raises(ContractError):
        sensitivity_probe(n_cells=1, trials=10, horizon=5, seed=0)


# --- regularity ----------------------------------------------------------------


def test_regularity_whole_space_ball():
    # epsilon past the metric diameter: any periodic point qualifies
    r = regularity_probe(n_cells=3, epsilon=5.0)
    assert r["prefix_len"] == 0
    assert r["pass"] is True


def test_regularity_derived_example():
    # prefix (1), E=(0,0): candidate strategy repeats (1,1), period 2
    state = BitState.from_bits((0, 0))
    candidate = SystemPoint(Strategy.periodic((1, 1), 2), state)
    p = candidate
    for _ in range(2):
        p = step(vector_negation, p)
    assert p == candidate
    assert candidate.strategy.prefix(4) == (1, 1, 1, 1)


def test_regularity_probe_small_epsilon():
    r = regularity_probe(n_cells=3, epsilon=1e-2)
    assert r["pass"] is True
    assert r["prefix_len"] == 2
    assert r["max_center_distance"] < 1e-2
    assert r["balls"] == 8 * 9


def test_regularity_every_candidate_exactly_periodic():
    # re-run the construction independently and check G^period(x) = x
    n = 2
    for value in range(1 << n):
        state = BitState(value, n)
        for prefix in itertools.product(range(1, n + 1), repeat=2):
            mid = iterate(vector_negation, state, Strategy.finite(prefix, n), 2)
            d = mid.value ^ value
            segment = tuple(k for k in range(1, n + 1) if (d >> (k - 1)) & 1)
            pattern = prefix + segment or (1, 1)
            point = SystemPoint(Strategy.periodic(pattern, n), state)
            q = point
            for _ in range(len(pattern)):
                q = step(vector_negation, q)
            assert q == point


def test_regularity_bounds():
    with pytest.raises(DomainError):
        regularity_probe(n_cells=3, epsilon=0.0)
    with pytest.raises(ContractError):
        regularity_probe(n_cells=5, epsilon=0.1)
    with pytest.raises(ContractError):
        regularity_probe(n_cells=2, epsilon=1e-20)  # finer than the truncation depth
