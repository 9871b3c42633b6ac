import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosteg.dynamics import (
    BitState,
    Strategy,
    SystemPoint,
    apply_component,
    iterate,
    point_distance,
    state_distance,
    step,
    strategy_distance,
    vector_negation,
)
from chaosteg.errors import ContractError, IterationBudgetError

from conftest import naive_iterate

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=12)


# --- states ---------------------------------------------------------------


def test_bitstate_cell_order():
    s = BitState.from_bits((1, 0, 1, 1))
    assert s.bit(1) == 1 and s.bit(2) == 0 and s.bit(3) == 1 and s.bit(4) == 1
    assert s.value == 0b1101  # cell 1 is the least significant bit
    assert s.to_bitstring() == "1011"


@given(bit_lists)
def test_bitstate_round_trips(bits):
    s = BitState.from_bits(bits)
    assert list(s.bits()) == bits
    assert BitState.from_bitstring(s.to_bitstring()) == s


def test_bitstate_rejects_bad_input():
    with pytest.raises(ContractError):
        BitState.from_bits(())
    with pytest.raises(ContractError):
        BitState.from_bits((0, 2))
    with pytest.raises(ContractError):
        BitState(4, 2)
    with pytest.raises(ContractError):
        BitState.from_bitstring("01x")


def test_vector_negation_examples():
    assert vector_negation(BitState.from_bits((1, 0, 1))).bits() == (0, 1, 0)
    assert vector_negation(BitState.zeros(4)) == BitState.ones(4)


@given(bit_lists)
def test_vector_negation_involution(bits):
    s = BitState.from_bits(bits)
    assert vector_negation(vector_negation(s)) == s


# --- strategies -----------------------------------------------------------


def test_strategy_finite_contract():
    s = Strategy.finite((1, 3, 2), 3)
    assert s.prefix(3) == (1, 3, 2)
    assert s.length == 3
    with pytest.raises(IterationBudgetError):
        s.term(3)
    with pytest.raises(ContractError):
        Strategy.finite((0,), 3)
    with pytest.raises(ContractError):
        Strategy.finite((4,), 3)
    for junk in ((1.0,), (True,), ("1",)):
        with pytest.raises(ContractError):
            Strategy.finite(junk, 3)
    with pytest.raises(ContractError):
        Strategy.periodic((), 3)


def test_strategy_periodic_repeats_and_reduces():
    s = Strategy.periodic((2, 1), 2)
    assert s.prefix(5) == (2, 1, 2, 1, 2)
    assert Strategy.periodic((1, 2, 1, 2), 2) == s.shift(1)
    assert s.shift(2) == s
    assert Strategy.periodic((1, 1, 1), 3).pattern == (1,)


def test_strategy_shift_views():
    s = Strategy.finite((1, 2, 3, 4), 4)
    assert s.shift(2).prefix(2) == (3, 4)
    assert s.shift(0) is s
    assert s.shift(1).term(0) == 2
    assert s.term(1) == 2  # shifting leaves the original value intact
    assert s.shift(4).length == 0
    with pytest.raises(IterationBudgetError):
        s.shift(2).prefix(3)


def test_strategy_value_semantics():
    assert Strategy.finite((1, 2), 2) == Strategy.finite((1, 2), 2)
    assert Strategy.finite((1, 2), 2) != Strategy.finite((1, 2), 3)
    assert hash(Strategy.periodic((1, 2), 2)) == hash(Strategy.periodic((1, 2, 1, 2), 2))
    assert Strategy.periodic((1,), 2) != Strategy.finite((1,), 2)


# --- single-cell update and step -------------------------------------------


def test_apply_component_examples():
    assert apply_component(vector_negation, 2,
                           BitState.from_bits((1, 0, 1, 1))).bits() == (1, 1, 1, 1)
    assert apply_component(vector_negation, 1, BitState.from_bits((0,))).bits() == (1,)
    x = BitState.from_bits((0, 1, 1, 0))
    for k in range(1, 5):
        assert apply_component(lambda s: s, k, x) == x


def test_apply_component_exhaustive_small():
    # against a per-cell rebuild of the definition, all cells and states
    for n in (1, 2, 3, 4):
        for v in range(1 << n):
            x = BitState(v, n)
            for k in range(1, n + 1):
                got = apply_component(vector_negation, k, x)
                want = list(x.bits())
                want[k - 1] ^= 1
                assert got.bits() == tuple(want)


def test_apply_component_bad_cell():
    with pytest.raises(ContractError):
        apply_component(vector_negation, 0, BitState.zeros(3))
    with pytest.raises(ContractError):
        apply_component(vector_negation, 4, BitState.zeros(3))


def test_apply_component_checks_image():
    def broken(state):
        return BitState.zeros(state.n_cells + 1)

    with pytest.raises(ContractError):
        apply_component(broken, 1, BitState.zeros(2))


def test_step_examples():
    p = SystemPoint(Strategy.finite((2, 1), 4), BitState.from_bits((1, 0, 1, 1)))
    q = step(vector_negation, p)
    assert q.state.bits() == (1, 1, 1, 1)
    assert q.strategy.prefix(1) == (1,)

    r = step(lambda s: s, p)
    assert r.state == p.state
    assert r.strategy.prefix(1) == (1,)


def test_two_steps_toggle_back():
    p = SystemPoint(Strategy.finite((1, 1), 2), BitState.zeros(2))
    assert step(vector_negation, step(vector_negation, p)).state == BitState.zeros(2)


def test_system_point_cell_mismatch():
    with pytest.raises(ContractError):
        SystemPoint(Strategy.finite((1,), 3), BitState.zeros(2))


# --- iterate ---------------------------------------------------------------


def test_iterate_trivial_cases():
    x = BitState.from_bits((1, 0, 1))
    assert iterate(vector_negation, x, Strategy.finite((), 3), 0) == x
    assert iterate(vector_negation, BitState.zeros(4),
                   Strategy.finite((1, 2, 3, 4), 4), 4) == BitState.ones(4)


def test_iterate_derived_example():
    # S=(1,1,2) from (1,0): flip 1, flip 1, flip 2
    got = iterate(vector_negation, BitState.from_bits((1, 0)),
                  Strategy.finite((1, 1, 2), 2), 3)
    assert got.bits() == (1, 1)
    oracle = naive_iterate(vector_negation, BitState.from_bits((1, 0)), (1, 1, 2))
    assert got == oracle


@given(st.data())
@settings(max_examples=150)
def test_iterate_matches_naive_replay(data):
    n = data.draw(st.integers(1, 6))
    v = data.draw(st.integers(0, (1 << n) - 1))
    terms = data.draw(st.lists(st.integers(1, n), max_size=32))
    start = BitState(v, n)
    fast = iterate(vector_negation, start, Strategy.finite(terms, n), len(terms))
    assert fast == naive_iterate(vector_negation, start, terms)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_iterate_matches_naive_replay_at_scale(data):
    # cell counts off the byte grid and prefixes on both sides of the
    # short-fold cutoff, drawn from a small pool so that cells repeat
    n = data.draw(st.integers(1, 70))
    v = data.draw(st.integers(0, (1 << n) - 1))
    pool = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=8))
    length = data.draw(st.integers(0, 300))
    terms = data.draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))
    start = BitState(v, n)
    fast = iterate(vector_negation, start, Strategy.finite(terms, n), len(terms))
    assert fast == naive_iterate(vector_negation, start, terms)


@given(st.data())
def test_iterate_fast_path_equals_generic_fold(data):
    # the negation shortcut must agree with folding apply_component
    n = data.draw(st.integers(1, 5))
    v = data.draw(st.integers(0, (1 << n) - 1))
    terms = data.draw(st.lists(st.integers(1, n), max_size=24))
    start = BitState(v, n)
    strat = Strategy.finite(terms, n)
    fast = iterate(vector_negation, start, strat, len(terms))
    slow = start
    for i in range(len(terms)):
        slow = apply_component(vector_negation, strat.term(i), slow)
    assert fast == slow


@given(st.data())
def test_iterate_semigroup(data):
    n = data.draw(st.integers(1, 5))
    v = data.draw(st.integers(0, (1 << n) - 1))
    terms = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=20))
    split = data.draw(st.integers(0, len(terms)))
    s = Strategy.finite(terms, n)
    whole = iterate(vector_negation, BitState(v, n), s, len(terms))
    middle = iterate(vector_negation, BitState(v, n), s, split)
    rest = iterate(vector_negation, middle, s.shift(split), len(terms) - split)
    assert whole == rest


def test_iterate_rejects_bad_budget():
    with pytest.raises(ContractError):
        iterate(vector_negation, BitState.zeros(2), Strategy.finite((1,), 2), -1)
    with pytest.raises(ContractError):
        iterate(vector_negation, BitState.zeros(2), Strategy.finite((1,), 3), 1)


# --- metric ----------------------------------------------------------------


def test_state_distance_examples():
    assert state_distance(BitState.from_bits((1, 0)), BitState.from_bits((1, 0))) == 0
    assert state_distance(BitState.from_bits((1, 0)), BitState.from_bits((0, 0))) == 1
    for n in (1, 3, 8):
        for v in range(1 << min(n, 4)):
            x = BitState(v % (1 << n), n)
            assert state_distance(x, vector_negation(x)) == n
    with pytest.raises(ContractError):
        state_distance(BitState.zeros(2), BitState.zeros(3))


def test_strategy_distance_worked_examples():
    # N=10: first terms 1 vs 10, identical afterwards
    a = Strategy.finite((1,) + (5,) * 20, 10)
    b = Strategy.finite((10,) + (5,) * 20, 10)
    d = strategy_distance(a, b)
    assert d.value == pytest.approx(0.81, abs=1e-12)

    # N=2: (1,2,1,...) vs (2,2,1,...), differing only in the first term
    a2 = Strategy.finite((1, 2, 1) + (1,) * 18, 2)
    b2 = Strategy.finite((2, 2, 1) + (1,) * 18, 2)
    assert strategy_distance(a2, b2).value == pytest.approx(0.45, abs=1e-12)

    assert strategy_distance(a, a).value == 0.0


def test_strategy_distance_error_bound():
    a = Strategy.periodic((1,), 10)
    b = Strategy.periodic((10,), 10)
    d = strategy_distance(a, b, depth=4)
    # dropped tail of the series is worth at most (N-1)/(N*10^depth)
    assert d.error_bound == pytest.approx(9 / (10 * 10.0 ** 4))
    exact = sum(9 / 10 * 9 / 10.0 ** (k + 1) for k in range(100))
    assert d.value <= exact <= d.value + d.error_bound + 1e-15


@given(st.data())
def test_strategy_distance_metric_axioms(data):
    n = data.draw(st.integers(2, 6))
    depth = 8
    mk = lambda: Strategy.finite(data.draw(
        st.lists(st.integers(1, n), min_size=depth, max_size=depth)), n)
    a, b, c = mk(), mk(), mk()
    dab = strategy_distance(a, b, depth).value
    dba = strategy_distance(b, a, depth).value
    dac = strategy_distance(a, c, depth).value
    dbc = strategy_distance(b, c, depth).value
    assert dab == dba
    assert dab >= 0.0
    assert (dab == 0.0) == (a.prefix(depth) == b.prefix(depth))
    assert dac <= dab + dbc + 1e-12


@given(st.data())
def test_point_distance_integer_part_is_state_distance(data):
    n = data.draw(st.integers(1, 6))
    va = data.draw(st.integers(0, (1 << n) - 1))
    vb = data.draw(st.integers(0, (1 << n) - 1))
    ta = data.draw(st.lists(st.integers(1, n), min_size=16, max_size=16))
    tb = data.draw(st.lists(st.integers(1, n), min_size=16, max_size=16))
    pa = SystemPoint(Strategy.finite(ta, n), BitState(va, n))
    pb = SystemPoint(Strategy.finite(tb, n), BitState(vb, n))
    d = point_distance(pa, pb)
    assert math.floor(d.value) == state_distance(pa.state, pb.state)


def test_point_distance_examples():
    s = Strategy.periodic((1, 2), 4)
    a = SystemPoint(s, BitState.from_bits((0, 0, 1, 1)))
    assert point_distance(a, a).value == 0.0
    b = SystemPoint(s, BitState.from_bits((1, 1, 1, 1)))
    assert point_distance(a, b).value == 2.0


def test_point_distance_prefix_agreement_shrinks():
    # agreeing on the first m terms forces the strategy part below 10^-m
    n = 4
    state = BitState.zeros(n)
    for m in (1, 3, 6):
        shared = (2,) * m
        a = SystemPoint(Strategy.finite(shared + (1,) * 16, n), state)
        b = SystemPoint(Strategy.finite(shared + (4,) * 16, n), state)
        d = point_distance(a, b)
        assert 0.0 < d.value < 10.0 ** -m
