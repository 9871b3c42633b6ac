import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosteg.dynamics import BitState, Strategy, iterate, vector_negation
from chaosteg.errors import ContractError, UnderpoweredTestError
from chaosteg.stego_analysis import (
    DistributionTable,
    exact_distribution_step,
    exact_pushforward,
    mc_exact_agreement,
    strategy_state_dependence,
    verify_ciis_stego,
    verify_cids_not_stego,
)


# --- distribution tables -----------------------------------------------------


def test_table_constructors():
    u = DistributionTable.uniform(3)
    assert u.probs.shape == (8,)
    assert float(u.probs.sum()) == pytest.approx(1.0)
    pm = DistributionTable.point_mass(BitState.from_bits((1, 0)))
    assert pm.probs[1] == 1.0 and pm.probs.sum() == 1.0


def test_table_validation():
    with pytest.raises(ContractError):
        DistributionTable(2, np.array([0.5, 0.5]))  # wrong size
    with pytest.raises(ContractError):
        DistributionTable(1, np.array([0.7, 0.7]))  # sums past 1
    with pytest.raises(ContractError):
        DistributionTable(1, np.array([-0.1, 1.1]))
    with pytest.raises(ContractError):
        DistributionTable(13, np.full(1 << 13, 1.0 / (1 << 13)))


def test_table_is_frozen_against_writes():
    u = DistributionTable.uniform(2)
    with pytest.raises(ValueError):
        u.probs[0] = 0.9


# --- the exact one-step operator ----------------------------------------------


def test_point_mass_spreads_one_flip_from_zero():
    n = 4
    out = exact_distribution_step(DistributionTable.point_mass(BitState.zeros(n)),
                                  np.full(n, 1.0 / n))
    for k in range(n):
        assert out.probs[1 << k] == pytest.approx(1.0 / n)
    assert out.probs[0] == 0.0


def test_point_mass_strategy_is_a_permutation():
    # q = point mass on k pairs e with e XOR B_k, checked against brute force
    n = 4
    rng = np.random.default_rng(2)
    raw = rng.random(1 << n)
    dist = DistributionTable(n, raw / raw.sum())
    for k in range(n):
        q = np.zeros(n)
        q[k] = 1.0
        out = exact_distribution_step(dist, q)
        for e in range(1 << n):
            assert out.probs[e] == pytest.approx(dist.probs[e ^ (1 << k)], abs=1e-15)


@given(st.data())
@settings(max_examples=50)
def test_step_conserves_mass_and_uniform_fixed_point(data):
    n = data.draw(st.integers(1, 6))
    q = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if q.sum() == 0.0:
        q = np.ones(n)
    q = q / q.sum()
    out = exact_distribution_step(DistributionTable.uniform(n), q)
    assert float(np.abs(out.probs - 1.0 / (1 << n)).max()) < 1e-12
    rng_raw = np.abs(np.array(data.draw(
        st.lists(st.floats(0.01, 1.0), min_size=1 << n, max_size=1 << n))))
    dist = DistributionTable(n, rng_raw / rng_raw.sum())
    pushed = exact_distribution_step(dist, q)
    assert float(pushed.probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_step_validates_strategy_distribution():
    u = DistributionTable.uniform(2)
    with pytest.raises(ContractError):
        exact_distribution_step(u, [0.5, 0.4])
    with pytest.raises(ContractError):
        exact_distribution_step(u, [1.5, -0.5])
    with pytest.raises(ContractError):
        exact_distribution_step(u, [1.0])


def test_pushforward_fixed_terms_tracks_iteration():
    n = 3
    start = BitState.from_bits((1, 0, 1))
    terms = (2, 3, 3, 1)
    out = exact_pushforward(DistributionTable.point_mass(start), terms)
    final = iterate(vector_negation, start, Strategy.finite(terms, n), len(terms))
    assert out.probs[final.value] == pytest.approx(1.0)


def test_pushforward_rejects_out_of_range_terms():
    u = DistributionTable.point_mass(BitState.from_bits((1, 0, 0)))
    for terms in ((0,), (1, 4), (2, -1), (1.0,), (True,)):
        with pytest.raises(ContractError):
            exact_pushforward(u, terms)


def _stepwise_pushforward(dist, terms):
    """The point-mass route, one exact_distribution_step per term."""
    for t in terms:
        q = np.zeros(dist.n_cells)
        q[t - 1] = 1.0
        dist = exact_distribution_step(dist, q)
    return dist


@given(st.data())
@settings(max_examples=60)
def test_pushforward_equals_stepwise_route(data):
    n = data.draw(st.integers(1, 7))
    raw = np.array(data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=1 << n, max_size=1 << n)))
    raw[0] += 0.5
    dist = DistributionTable(n, raw / raw.sum())
    terms = data.draw(st.lists(st.integers(1, n), max_size=40))
    out = exact_pushforward(dist, terms)
    assert out.probs.tobytes() == _stepwise_pushforward(dist, terms).probs.tobytes()


# --- keyed-mode verdict -----------------------------------------------------------


def test_verify_ciis_stego_passes_at_desk_scale():
    r = verify_ciis_stego(n_cells=6, sample_count=20_000, seed=3)
    assert r["pass"] is True
    assert r["exact"]["max_deviation"] < r["exact"]["tolerance"] == 1e-9
    assert r["monte_carlo"]["p_value"] > r["monte_carlo"]["threshold"] == 0.01
    assert r["check"] == "ciis_stego"


def test_verify_ciis_stego_underpowered_guard():
    with pytest.raises(UnderpoweredTestError):
        verify_ciis_stego(n_cells=8, sample_count=100)


def test_verify_ciis_stego_bounds():
    with pytest.raises(ContractError):
        verify_ciis_stego(n_cells=11)
    with pytest.raises(ContractError):
        verify_ciis_stego(n_cells=0)


def test_verify_ciis_stego_deterministic():
    a = verify_ciis_stego(n_cells=4, sample_count=20_000, seed=9)
    b = verify_ciis_stego(n_cells=4, sample_count=20_000, seed=9)
    assert a == b


def test_mc_exact_agreement_floor_threshold_for_large_runs():
    # 1.5 * sqrt(16 / 640_000) = 0.0075, below the 0.01 floor.
    r = mc_exact_agreement(n_cells=4, sample_count=640_000, seed=0)
    assert r["threshold"] == 0.01
    assert r["total_variation"] < 0.01
    assert r["pass"] is True


def test_mc_exact_agreement_threshold_scales_for_small_runs():
    r = mc_exact_agreement(n_cells=8, sample_count=30_000, seed=0)
    assert r["threshold"] == pytest.approx(max(0.01, 1.5 * np.sqrt(256 / 30_000)))


@pytest.mark.parametrize("verdict", [verify_ciis_stego, mc_exact_agreement])
@pytest.mark.parametrize("budget", [dict(sample_count=20_000.0), dict(sample_count=True),
                                    dict(sample_count="20000"), dict(n_iter=True),
                                    dict(n_iter=0), dict(n_iter=8.0)],
                         ids=["float-count", "bool-count", "str-count",
                              "bool-n_iter", "zero-n_iter", "float-n_iter"])
def test_keyed_verdicts_refuse_non_int_budgets(verdict, budget):
    # the same rule as run_suite: a positive int, and bool is not an int here
    name = next(iter(budget))
    with pytest.raises(ContractError, match=name):
        verdict(n_cells=2, seed=0, **{"sample_count": 20_000, "n_iter": 8, **budget})


# --- cover-driven verdict -----------------------------------------------------------


def test_cids_not_stego_exhaustive():
    r = verify_cids_not_stego(8)
    assert r["reachable"] == ["00000000", "10000000"]
    assert r["all_ones_reached"] is False
    assert r["pass"] is True


@pytest.mark.parametrize("n", range(2, 13))
def test_cids_not_stego_all_supported_sizes(n):
    r = verify_cids_not_stego(n)
    assert r["pass"] is True
    assert r["covers"] == 1 << n
    assert len(r["reachable"]) == 2


def test_cids_not_stego_single_cell():
    r = verify_cids_not_stego(1)
    assert set(r["reachable"]) <= {"0", "1"}
    assert r["pass"] is True


def test_cids_not_stego_budget_contract():
    with pytest.raises(ContractError):
        verify_cids_not_stego(4, n_iter=3)
    r = verify_cids_not_stego(4, n_iter=9)
    assert r["pass"] is True


# --- dependence diagnostic -----------------------------------------------------------


def test_dependence_diagnostic_reports_without_gating():
    r = strategy_state_dependence(n_cells=3, trials=300, seed=1)
    assert r["diagnostic"] is True
    assert "pass" not in r
    assert r["mutual_information_bits"] >= 0.0


def test_dependence_diagnostic_deterministic():
    assert (strategy_state_dependence(n_cells=3, trials=200, seed=4)
            == strategy_state_dependence(n_cells=3, trials=200, seed=4))
