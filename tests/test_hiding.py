import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaosteg.dynamics import BitState, state_distance
from chaosteg.errors import ContractError, DomainError
from chaosteg.fixedpoint import Fixed64
from chaosteg.hiding import DetectionResult, EmbeddingConfig, detect_nonblind, embed
from chaosteg.media import extract_lscs, inject_lscs, load_pgm, raw_cover, save_pgm
from chaosteg.strategies import DEFAULT_BURN_IN, KeyMaterial, PlcmParams, ciis_strategy

from conftest import naive_iterate, rational_keystream


def km_for(n_cells, key=0.5, message=0.25, p=0.3, burn_in=2):
    return KeyMaterial(key=Fixed64.from_float(key), message=Fixed64.from_float(message),
                       params=PlcmParams(p), n_cells=n_cells, burn_in=burn_in)


def ciis_config(n_cells, n_iter, **kw):
    return EmbeddingConfig(key_material=km_for(n_cells, **kw), n_iter=n_iter,
                           strategy_mode="ciis")


def test_config_validation():
    with pytest.raises(ContractError):
        EmbeddingConfig(key_material=None, n_iter=4, strategy_mode="ciis")
    with pytest.raises(ContractError):
        EmbeddingConfig(key_material=None, n_iter=0, strategy_mode="cids")
    with pytest.raises(ContractError):
        EmbeddingConfig(key_material=None, n_iter=4, strategy_mode="lsb")
    EmbeddingConfig(key_material=None, n_iter=4, strategy_mode="cids")


def test_even_flips_of_one_cell_leave_cover_unchanged():
    cover = raw_cover(bytes([7, 8, 9, 10]))
    km = km_for(4, key=0.25, message=0.25)  # zero seed: strategy is constant 1
    out = embed(cover, EmbeddingConfig(key_material=km, n_iter=6, strategy_mode="ciis"))
    assert out.payload == cover.payload


def test_embed_ciis_derived_case():
    # cover LSCs (1,0,1,0), km=(0.5, 0.25, p=0.3, D=2), n_iter=4
    cover = raw_cover(bytes([1, 2, 3, 4]))
    assert extract_lscs(cover).bits() == (1, 0, 1, 0)
    cfg = ciis_config(4, 4)
    got = extract_lscs(embed(cover, cfg))

    km = cfg.key_material
    terms = rational_keystream(km.key.raw, km.message.raw, km.params.p_fixed.raw,
                               km.burn_in, 4, 4)
    from chaosteg.dynamics import vector_negation
    oracle = naive_iterate(vector_negation, BitState.from_bits((1, 0, 1, 0)), terms)
    assert got == oracle
    assert got.bits() == (0, 0, 1, 1)  # terms (3,3,4,1): cells 4 and 1 net-flip


def test_embed_touches_only_the_lsc_plane():
    rng = np.random.default_rng(11)
    payload = rng.integers(0, 256, size=128, dtype=np.uint8).tobytes()
    cover = raw_cover(payload)
    out = embed(cover, ciis_config(128, 64))
    assert all((a & 0xFE) == (b & 0xFE) for a, b in zip(payload, out.payload))


def test_embed_cids_exhaustive_two_outputs():
    # the cover-driven mode funnels every cover into one of two states
    for n in (2, 4, 8):
        cfg = EmbeddingConfig(key_material=None, n_iter=n, strategy_mode="cids")
        reached = set()
        for v in range(1 << n):
            payload = bytes(((v >> i) & 1) for i in range(n))
            out = embed(raw_cover(payload), cfg)
            reached.add(extract_lscs(out).value)
        assert reached == {0, 1}


def test_embedded_plane_is_cover_xor_oracle_parity_at_512x512():
    side, n_iter = 512, 4096
    n = side * side
    rng = np.random.default_rng(29)
    pixels = rng.integers(0, 256, size=n, dtype=np.uint8)
    cover = load_pgm(f"P5\n{side} {side}\n255\n".encode() + pixels.tobytes())
    km = KeyMaterial(key=Fixed64(0x9E3779B97F4A7C15), message=Fixed64(0x0123456789ABCDEF),
                     params=PlcmParams(0.3), n_cells=n, burn_in=DEFAULT_BURN_IN)
    marked = embed(cover, EmbeddingConfig(key_material=km, n_iter=n_iter,
                                          strategy_mode="ciis"))
    terms = rational_keystream(km.key.raw, km.message.raw, km.params.p_fixed.raw,
                               DEFAULT_BURN_IN, n, n_iter)
    parity = np.bincount(np.array(terms) - 1, minlength=n) & 1
    out = np.frombuffer(marked.payload, dtype=np.uint8, offset=marked.pixel_offset)
    assert np.array_equal(out & 1, (pixels & 1) ^ parity)
    assert np.array_equal(out & 0xFE, pixels & 0xFE)


def test_embed_refuses_a_pixel_above_an_even_maxval():
    # pixel 254 under maxval 254 would need its LSB set: 255 is not a valid sample
    cover = load_pgm(b"P5\n2 1\n254\n" + bytes([254, 10]))
    cids = EmbeddingConfig(key_material=None, n_iter=1, strategy_mode="cids")
    with pytest.raises(DomainError):
        embed(cover, cids)
    # a plane that keeps that LSB clear still embeds and reloads
    two_flips = EmbeddingConfig(key_material=None, n_iter=2, strategy_mode="cids")
    marked = embed(cover, two_flips)
    assert load_pgm(save_pgm(marked)).payload[-2:] == bytes([254, 10])


def test_embed_key_material_cover_size_mismatch():
    with pytest.raises(ContractError):
        embed(raw_cover(bytes(8)), ciis_config(4, 4))


def test_embed_deterministic_and_key_independent_of_cover():
    cfg = ciis_config(16, 32)
    a = bytes(range(16))
    b = bytes(range(100, 116))
    mask_a = extract_lscs(embed(raw_cover(a), cfg)).value ^ extract_lscs(raw_cover(a)).value
    mask_b = extract_lscs(embed(raw_cover(b), cfg)).value ^ extract_lscs(raw_cover(b)).value
    assert mask_a == mask_b  # keyed strategy never reads the cover
    assert embed(raw_cover(a), cfg).payload == embed(raw_cover(a), cfg).payload


def test_non_lsc_edits_do_not_change_the_embedded_plane():
    cfg = ciis_config(8, 16)
    base = bytes([10, 20, 30, 40, 50, 60, 70, 80])
    edited = bytes([b | 2 for b in base])  # touch bit 1 of every byte, LSBs intact
    assert (extract_lscs(embed(raw_cover(base), cfg))
            == extract_lscs(embed(raw_cover(edited), cfg)))


# --- detection -----------------------------------------------------------------


def test_detect_round_trip_matches():
    cover = raw_cover(bytes(range(32)))
    cfg = ciis_config(32, 64)
    marked = embed(cover, cfg)
    res = detect_nonblind(cover, marked, cfg)
    assert res == DetectionResult(match=True, distance=0, n_cells=32)
    assert res.verdict == "match"


def test_detect_single_flip_distance_one():
    cover = raw_cover(bytes(range(32)))
    cfg = ciis_config(32, 64)
    marked = embed(cover, cfg)
    tampered = inject_lscs(
        marked, BitState(extract_lscs(marked).value ^ (1 << 5), 32))
    res = detect_nonblind(cover, tampered, cfg)
    assert not res.match
    assert res.distance == 1
    assert res.verdict == "mismatch"


def test_detect_unmarked_distance_equals_change_count():
    cover = raw_cover(bytes(range(64)))
    cfg = ciis_config(64, 64)
    marked = embed(cover, cfg)
    changes = state_distance(extract_lscs(cover), extract_lscs(marked))
    res = detect_nonblind(cover, cover, cfg)
    assert res.distance == changes > 0


def test_detect_wrong_key_mean_distance():
    # over random wrong keys the distance statistic concentrates near N/2
    n = 64
    cover = raw_cover(bytes(range(n)))
    right = ciis_config(n, n, key=0.123456)
    marked = embed(cover, right)
    rng = np.random.default_rng(17)
    distances = []
    for _ in range(60):
        wrong = EmbeddingConfig(
            key_material=KeyMaterial(
                key=Fixed64(int(rng.integers(0, 1 << 64, dtype=np.uint64))),
                message=Fixed64.from_float(0.25),
                params=PlcmParams(0.3), n_cells=n, burn_in=2),
            n_iter=n, strategy_mode="ciis")
        distances.append(detect_nonblind(cover, marked, wrong).distance)
    mean = float(np.mean(distances))
    assert 0.3 * n < mean < 0.7 * n


def test_detect_shape_mismatch_rejected():
    cfg = EmbeddingConfig(key_material=None, n_iter=4, strategy_mode="cids")
    pgm = load_pgm(b"P5\n64 64\n255\n" + bytes(4096))
    pairs = [
        (raw_cover(bytes(4)), raw_cover(bytes(5))),
        (pgm, raw_cover(bytes(len(pgm.payload)))),
        (pgm, raw_cover(bytes(4096))),                          # same cell count
        (pgm, load_pgm(b"P5\n32 128\n255\n" + bytes(4096))),  # same cell count
        (pgm, load_pgm(b"P5\n64 64\n127\n" + bytes(4096))),   # other maxval
    ]
    for original, suspect in pairs:
        with pytest.raises(ContractError, match="geometry"):
            detect_nonblind(original, suspect, cfg)


def test_detect_cids_on_pgm_round_trip():
    pgm = load_pgm(b"P5\n4 2\n255\n" + bytes([1, 2, 3, 4, 5, 6, 7, 8]))
    cfg = EmbeddingConfig(key_material=None, n_iter=8, strategy_mode="cids")
    marked = embed(pgm, cfg)
    assert marked.kind == "pgm"
    assert detect_nonblind(pgm, marked, cfg).match
    assert extract_lscs(marked).value in (0, 1)


_PRINTABLE = st.characters(min_codepoint=0x20, max_codepoint=0x7E)
_COMMENT = st.builds("#{}{}".format, st.text(_PRINTABLE, max_size=8), st.sampled_from("\n\r"))
_SEPARATOR = st.lists(st.one_of(st.text(" \t\r\n\x0b\x0c", min_size=1, max_size=3), _COMMENT),
                      min_size=1, max_size=3).map("".join)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 255),
       st.lists(_SEPARATOR, min_size=3, max_size=3), st.sampled_from(" \t\r\n\x0b\x0c"),
       st.data())
def test_any_p5_header_round_trips_to_a_match(w, h, maxval, seps, last, data):
    n = w * h
    header = f"P5{seps[0]}{w}{seps[1]}{h}{seps[2]}{maxval}{last}".encode()
    pixels = bytes(data.draw(st.lists(st.integers(0, maxval), min_size=n, max_size=n)))
    cover = load_pgm(header + pixels)
    assert cover.pixel_offset == len(header)
    cfg = ciis_config(n, 2 * n)
    try:
        marked = embed(cover, cfg)
    except DomainError:  # a pixel at an even maxval would need its LSB set
        assert maxval % 2 == 0 and maxval in pixels
        return
    assert marked.payload[:len(header)] == header
    reloaded = load_pgm(save_pgm(marked))
    assert detect_nonblind(cover, reloaded, cfg) == DetectionResult(True, 0, n)
    out = np.frombuffer(reloaded.payload, dtype=np.uint8, offset=reloaded.pixel_offset)
    assert np.array_equal(out | 1, np.frombuffer(pixels, dtype=np.uint8) | 1)


def test_embeds_agree_with_direct_strategy_iteration():
    cover = raw_cover(bytes(range(24)))
    cfg = ciis_config(24, 40)
    x = extract_lscs(cover)
    from chaosteg.dynamics import iterate, vector_negation
    want = iterate(vector_negation, x, ciis_strategy(cfg.key_material, 40), 40)
    assert extract_lscs(embed(cover, cfg)) == want
