from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from chaosteg.dynamics import BitState
from chaosteg.errors import ContractError, DomainError
from chaosteg.fixedpoint import SCALE, Fixed64
from chaosteg.strategies import (
    DEFAULT_BURN_IN,
    KeyMaterial,
    PlcmParams,
    cids_strategy,
    ciis_strategy,
    plcm_eval,
    xor_mix,
)

from conftest import rational_keystream, rational_plcm_step


# --- map parameters ---------------------------------------------------------


def test_params_accept_open_interval():
    PlcmParams(0.25)
    PlcmParams(1e-10)
    PlcmParams(0.49999)


def test_params_reject_boundary_and_junk():
    for bad in (0.0, 0.5, -0.1, 0.7, 1):
        with pytest.raises(ContractError):
            PlcmParams(bad)
    with pytest.raises(ContractError):
        PlcmParams(1e-25)  # truncates to zero on the 64-bit grid


# --- the map -------------------------------------------------------------------


def _f(x: float) -> Fixed64:
    return Fixed64.from_float(x)


def test_plcm_float_examples():
    # float-valued examples, run on the fixed-point grid
    p = PlcmParams(0.25)
    assert plcm_eval(_f(0.0), p).raw == 0
    assert plcm_eval(_f(0.2), p).to_float() == pytest.approx(0.8, abs=1e-12)
    assert plcm_eval(_f(0.3), p).to_float() == pytest.approx(0.2, abs=1e-12)
    assert plcm_eval(_f(0.7), p).to_float() == pytest.approx(0.2, abs=1e-12)
    assert plcm_eval(_f(0.75), p) == plcm_eval(_f(1.0 - 0.75), p)


def test_plcm_totality_at_the_seams():
    p = PlcmParams(0.25)
    # F(1/2) = 1, whose 64-bit fraction is 0; F(1) = F(0) = 0
    assert plcm_eval(_f(0.5), p).raw == 0
    assert plcm_eval(_f(1.0), p) == plcm_eval(_f(0.0), p) == Fixed64(0)
    assert plcm_eval(_f(0.25), p).raw == 0  # x = p enters the second branch


def test_plcm_float_domain_error():
    # values outside [0, 1] are refused on the way onto the grid, and
    # plcm_eval itself takes only grid values
    p = PlcmParams(0.25)
    with pytest.raises(DomainError):
        plcm_eval(_f(-0.2), p)
    with pytest.raises(DomainError):
        plcm_eval(_f(1.2), p)
    with pytest.raises(ContractError):
        plcm_eval(0.2, p)


@given(st.floats(0.0, 1.0, allow_nan=False), st.floats(0.01, 0.49))
def test_plcm_float_stays_in_unit_interval(x, p):
    y = plcm_eval(_f(x), PlcmParams(p)).to_float()
    assert 0.0 <= y <= 1.0


def test_plcm_fixed_wraps_only_at_half():
    p = PlcmParams(0.25)
    half = Fixed64(1 << 63)
    assert plcm_eval(half, p).raw == 0  # F(1/2) = 1, whose fraction is 0
    assert plcm_eval(Fixed64(0), p).raw == 0
    # either neighbour of 1/2 stays just below 1
    assert plcm_eval(Fixed64((1 << 63) - 1), p).raw == SCALE - 4
    assert plcm_eval(Fixed64((1 << 63) + 1), p).raw == SCALE - 4


@given(st.integers(0, SCALE - 1), st.floats(0.01, 0.49))
@settings(max_examples=300)
def test_plcm_fixed_matches_rational_oracle(raw, p):
    params = PlcmParams(p)
    got = plcm_eval(Fixed64(raw), params)
    assert got.raw == rational_plcm_step(raw, params.p_fixed.raw)


@given(st.integers(0, SCALE - 1))
def test_plcm_fixed_reflection_symmetry(raw):
    p = PlcmParams(0.3)
    mirrored = (SCALE - raw) % SCALE
    assert plcm_eval(Fixed64(raw), p) == plcm_eval(Fixed64(mirrored), p)


def test_plcm_fixed_tracks_float_route():
    # against the map written out in double arithmetic
    p = PlcmParams(0.3)
    rng = np.random.default_rng(5)
    for x in rng.random(200):
        fixed = plcm_eval(Fixed64.from_float(float(x)), p).to_float()
        xf = min(x, 1.0 - x)
        direct = xf / 0.3 if xf < 0.3 else (xf - 0.3) / (0.5 - 0.3)
        assert fixed == pytest.approx(direct, abs=1e-9)


def test_plcm_equidistribution():
    # one long fixed-point orbit, judged the same way the MC verdicts are
    p = PlcmParams(0.43)
    x = Fixed64.from_float(0.123456789)
    counts = np.zeros(64, dtype=np.int64)
    n = 100_000
    for _ in range(n):
        x = plcm_eval(x, p)
        counts[x.raw >> 58] += 1
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.01


# --- mixing and cell mapping --------------------------------------------------


def test_xor_mix_examples():
    assert xor_mix(0.5, 0.0) == Fixed64.from_float(0.5)
    assert float(xor_mix(0.5, 0.25)) == 0.75
    assert xor_mix(1.0, 0.0).raw == 0


@given(st.floats(0.0, 1.0, allow_nan=False))
def test_xor_mix_self_inverse(x):
    assert xor_mix(x, x).raw == 0
    assert xor_mix(Fixed64.from_float(x), Fixed64(0)) == Fixed64.from_float(x)


def test_xor_mix_rejects_junk():
    with pytest.raises(ContractError):
        xor_mix("0.5", 0.25)
    with pytest.raises(DomainError):
        xor_mix(1.5, 0.25)


@given(st.integers(0, SCALE - 1), st.integers(1, 64))
def test_fixed_cell_index_in_range(raw, n):
    # the exact integer form used by the keystream: floor(n * x) + 1
    k = (n * raw >> 64) + 1
    assert 1 <= k <= n
    assert k == (n * raw) // SCALE + 1


def test_fixed_cell_index_agrees_with_float_on_exact_values():
    # on values the double grid represents exactly the two routes coincide
    for n in (1, 2, 7, 8, 64):
        for raw in (0, 1 << 62, 1 << 63, 3 << 62, SCALE - (1 << 12)):
            k = (n * raw >> 64) + 1
            assert k == int(n * (raw / SCALE)) + 1


# --- keyed strategy -----------------------------------------------------------


def _km(key=0.5, message=0.25, p=0.3, n_cells=4, burn_in=2):
    return KeyMaterial(key=Fixed64.from_float(key), message=Fixed64.from_float(message),
                       params=PlcmParams(p), n_cells=n_cells, burn_in=burn_in)


def test_key_material_coerces_floats():
    km = KeyMaterial(key=0.5, message=0.25, params=PlcmParams(0.3), n_cells=4)
    assert km.key == Fixed64.from_float(0.5)
    assert km.burn_in == DEFAULT_BURN_IN


def test_key_material_validation():
    with pytest.raises(ContractError):
        KeyMaterial(key=0.5, message=0.25, params=0.3, n_cells=4)
    with pytest.raises(ContractError):
        KeyMaterial(key=0.5, message=0.25, params=PlcmParams(0.3), n_cells=0)
    with pytest.raises(ContractError):
        KeyMaterial(key=0.5, message=0.25, params=PlcmParams(0.3), n_cells=4, burn_in=-1)


def test_ciis_derived_sequence():
    # km=(key=0.5, message=0.25, p=0.3, D=2, n_cells=4), n_iter=5
    km = _km()
    got = ciis_strategy(km, 5).prefix(5)
    oracle = rational_keystream(km.key.raw, km.message.raw, km.params.p_fixed.raw,
                                km.burn_in, km.n_cells, 5)
    assert list(got) == oracle
    assert got == (3, 3, 4, 1, 4)


@given(st.integers(0, SCALE - 1), st.integers(0, SCALE - 1),
       st.floats(0.05, 0.45), st.integers(1, 16), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_ciis_matches_rational_oracle(key_raw, msg_raw, p, n_cells, burn_in):
    km = KeyMaterial(key=Fixed64(key_raw), message=Fixed64(msg_raw),
                     params=PlcmParams(p), n_cells=n_cells, burn_in=burn_in)
    got = ciis_strategy(km, 12).prefix(12)
    want = rational_keystream(key_raw, msg_raw, km.params.p_fixed.raw,
                              burn_in, n_cells, 12)
    assert list(got) == want


@pytest.mark.parametrize(("key_raw", "msg_raw", "p"), [
    (1 << 63, 0, 0.3),    # seed x = 1/2: F wraps it to 0 on the first step
    (1 << 63, 0, 0.25),
    (0x9E3779B97F4A7C15, 0x0123456789ABCDEF, 0.25),
    (0x9E3779B97F4A7C15, 0x0123456789ABCDEF, 0.375),
])
def test_ciis_matches_rational_oracle_at_the_seams(key_raw, msg_raw, p):
    km = KeyMaterial(key=Fixed64(key_raw), message=Fixed64(msg_raw),
                     params=PlcmParams(p), n_cells=1000)
    got = ciis_strategy(km, 300).prefix(300)
    want = rational_keystream(key_raw, msg_raw, km.params.p_fixed.raw,
                              DEFAULT_BURN_IN, 1000, 300)
    assert list(got) == want


def test_keystream_builds_no_fixed64_per_step(monkeypatch):
    # a wall-clock-free guard: per-step Fixed64 work would make the counts
    # grow with the number of terms
    km = _km(p=0.3)
    calls = Counter()
    post_init = Fixed64.__post_init__
    from_float = Fixed64.__dict__["from_float"].__func__

    def counted_post_init(self):
        calls["constructed"] += 1
        post_init(self)

    def counted_from_float(cls, x):
        calls["from_float"] += 1
        return from_float(cls, x)

    monkeypatch.setattr(Fixed64, "__post_init__", counted_post_init)
    monkeypatch.setattr(Fixed64, "from_float", classmethod(counted_from_float))

    def counts_for(n_iter):
        calls.clear()
        ciis_strategy(km, n_iter)
        return dict(calls)

    short, long = counts_for(10), counts_for(10_000)
    assert short == long
    assert short["from_float"] == 1  # p is quantized once per keystream


def test_ciis_zero_iterate_yields_cell_one():
    # orbit stuck at zero (key = message) keeps selecting cell 1
    km = _km(key=0.25, message=0.25)
    assert ciis_strategy(km, 4).prefix(4) == (1, 1, 1, 1)


def test_strategies_need_a_bounded_budget():
    for n_iter in (None, 0, -1, 2.0):
        with pytest.raises(ContractError):
            ciis_strategy(_km(), n_iter)
        with pytest.raises(ContractError):
            cids_strategy(BitState.zeros(3), n_iter)
    fin = ciis_strategy(_km(), 9)
    assert fin.kind == "finite" and fin.length == 9


def test_ciis_independent_of_anything_but_km():
    km = _km()
    assert ciis_strategy(km, 6).prefix(6) == ciis_strategy(km, 6).prefix(6)
    with pytest.raises(ContractError):
        ciis_strategy(km, 0)


# --- cover-driven strategy ------------------------------------------------------


def test_cids_examples():
    assert cids_strategy(BitState.from_bits((0, 0, 0, 0)), 6).prefix(6) == (1,) * 6
    assert cids_strategy(BitState.from_bits((1, 1, 1)), 3).prefix(3) == (1, 2, 3)
    assert cids_strategy(BitState.from_bits((0, 1, 0, 1)), 6).prefix(6) == (1, 2, 1, 4, 1, 1)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=10))
def test_cids_rule_everywhere(bits):
    cover = BitState.from_bits(bits)
    n = cover.n_cells
    s = cids_strategy(cover, 2 * n + 3)
    assert s.length == 2 * n + 3
    for i in range(2 * n + 3):
        k = i + 1
        want = k if k <= n and bits[k - 1] == 1 else 1
        assert s.term(i) == want


def test_cids_budget_validation():
    with pytest.raises(ContractError):
        cids_strategy(BitState.zeros(3), 0)
