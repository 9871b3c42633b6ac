import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaosteg.dynamics import BitState
from chaosteg.errors import ContractError, ParseError
from chaosteg.media import (
    CoverMedia,
    extract_lscs,
    inject_lscs,
    load_pgm,
    psnr,
    raw_cover,
    save_pgm,
)


def pgm_bytes(width, height, pixels, maxval=255, header=None):
    head = header if header is not None else f"P5\n{width} {height}\n{maxval}\n".encode()
    return head + bytes(pixels)


# --- raw covers -------------------------------------------------------------


def test_raw_cover_region():
    c = raw_cover(b"\x00\x01\x02\x03", start=1, count=2)
    assert list(c.lsc_map) == [1, 2]
    assert c.n_cells == 2


def test_raw_cover_rejects_bad_region():
    with pytest.raises(ContractError):
        raw_cover(b"")
    with pytest.raises(ContractError):
        raw_cover(b"abc", start=2, count=2)
    with pytest.raises(ContractError):
        raw_cover(b"abc", start=-1)


def test_cover_media_validation():
    with pytest.raises(ContractError):
        CoverMedia(payload=b"ab", kind="raw", lsc_map=(1, 0))
    with pytest.raises(ContractError):
        CoverMedia(payload=b"ab", kind="raw", lsc_map=(0, 5))
    with pytest.raises(ContractError):
        CoverMedia(payload=b"ab", kind="raw", lsc_map=(0,), width=2)
    with pytest.raises(ContractError):
        CoverMedia(payload=b"ab", kind="jpeg", lsc_map=(0,))


# --- the LSC plane ----------------------------------------------------------


def test_extract_examples():
    assert extract_lscs(raw_cover(bytes([0x00, 0x01, 0xFE]))).bits() == (0, 1, 0)
    assert extract_lscs(raw_cover(bytes([2, 4, 6, 8]))) == BitState.zeros(4)


def test_inject_examples():
    c = raw_cover(bytes([0x01, 0x03]))
    out = inject_lscs(c, BitState.zeros(2))
    assert out.payload == bytes([0x00, 0x02])


@given(st.binary(min_size=1, max_size=64), st.data())
def test_inject_extract_round_trip(payload, data):
    cover = raw_cover(payload)
    target = BitState(data.draw(st.integers(0, (1 << cover.n_cells) - 1)),
                      cover.n_cells)
    out = inject_lscs(cover, target)
    assert extract_lscs(out) == target
    # identity round trip
    assert inject_lscs(cover, extract_lscs(cover)).payload == payload


@given(st.binary(min_size=1, max_size=64), st.data())
def test_inject_perturbs_each_byte_by_at_most_one(payload, data):
    cover = raw_cover(payload)
    target = BitState(data.draw(st.integers(0, (1 << cover.n_cells) - 1)),
                      cover.n_cells)
    out = inject_lscs(cover, target).payload
    assert all(abs(a - b) <= 1 for a, b in zip(payload, out))


def test_sparse_lsc_map_touches_only_mapped_bytes():
    payload = bytes(range(16))
    cover = CoverMedia(payload=payload, kind="raw", lsc_map=(1, 5, 11))
    out = inject_lscs(cover, BitState.ones(3)).payload
    for i in range(16):
        if i in (1, 5, 11):
            assert out[i] == payload[i] | 1
        else:
            assert out[i] == payload[i]


def test_inject_cell_count_mismatch():
    with pytest.raises(ContractError):
        inject_lscs(raw_cover(b"abc"), BitState.zeros(2))


# --- PGM --------------------------------------------------------------------


def test_load_pgm_basic():
    data = pgm_bytes(2, 2, [10, 11, 12, 13])
    c = load_pgm(data)
    assert (c.width, c.height, c.maxval) == (2, 2, 255)
    assert extract_lscs(c).bits() == (0, 1, 0, 1)


def test_pgm_round_trip_canonical():
    data = pgm_bytes(3, 2, range(6))
    assert save_pgm(load_pgm(data)) == data


def test_pgm_comments_and_whitespace():
    data = b"P5 # magic\n# a comment line\n 2\t2 #dims\n255\n" + bytes(4)
    c = load_pgm(data)
    assert (c.width, c.height) == (2, 2)
    # canonical rewrite drops the comments but keeps the pixels
    assert save_pgm(c) == pgm_bytes(2, 2, bytes(4))


def test_pgm_rejections():
    with pytest.raises(ParseError):
        load_pgm(b"P4\n1 1\n255\n\x00")
    with pytest.raises(ParseError):
        load_pgm(pgm_bytes(2, 2, bytes(4), header=b"P5\n2 2\n65535\n"))
    with pytest.raises(ParseError):
        load_pgm(pgm_bytes(2, 2, bytes(3)))  # truncated pixels
    with pytest.raises(ParseError):
        load_pgm(pgm_bytes(2, 2, bytes(5)))  # trailing bytes
    with pytest.raises(ParseError):
        load_pgm(pgm_bytes(0, 2, b""))
    with pytest.raises(ParseError):
        load_pgm(b"P5\n2 2\n255")  # header cut off before the separator
    with pytest.raises(ParseError):
        load_pgm(pgm_bytes(2, 1, bytes([254, 255]), maxval=254))  # pixel above maxval
    assert load_pgm(pgm_bytes(2, 1, bytes([253, 254]), maxval=254)).maxval == 254


def test_pgm_cover_shape_contract():
    data = pgm_bytes(2, 2, bytes(4))
    c = load_pgm(data)
    with pytest.raises(ContractError):
        CoverMedia(payload=c.payload, kind="pgm", lsc_map=range(0, 4),
                   width=2, height=2, maxval=255, pixel_offset=c.pixel_offset)


@given(st.integers(1, 9), st.integers(1, 9), st.data())
def test_pgm_embedding_surface_round_trip(w, h, data):
    pixels = bytes(data.draw(st.lists(st.integers(0, 255), min_size=w * h,
                                      max_size=w * h)))
    cover = load_pgm(pgm_bytes(w, h, pixels))
    target = BitState(data.draw(st.integers(0, (1 << (w * h)) - 1)), w * h)
    out = inject_lscs(cover, target)
    assert extract_lscs(out) == target
    reloaded = load_pgm(save_pgm(out))
    assert extract_lscs(reloaded) == target


# --- distortion ---------------------------------------------------------------


def test_psnr_identical_is_infinite():
    c = raw_cover(bytes(range(32)))
    assert math.isinf(psnr(c, c))


def test_psnr_single_lsb_flip_value():
    base = bytes(64)
    a = raw_cover(base)
    b = raw_cover(bytes([1]) + base[1:])
    # mse = 1/64, psnr = 10*log10(255^2 * 64)
    assert psnr(a, b) == pytest.approx(10 * math.log10(255 ** 2 * 64))


def test_psnr_pgm_ignores_header_bytes():
    a = load_pgm(pgm_bytes(2, 2, [10, 11, 12, 13]))
    b = load_pgm(b"P5 #note\n2 2\n255\n" + bytes([10, 11, 12, 13]))
    assert math.isinf(psnr(a, b))


def test_psnr_lsb_floor():
    # flipping every LSB is the worst LSB-only distortion: 10*log10(255^2) dB
    rng = np.random.default_rng(3)
    payload = rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
    cover = raw_cover(payload)
    flipped = inject_lscs(
        cover,
        BitState(extract_lscs(cover).value ^ ((1 << cover.n_cells) - 1),
                 cover.n_cells),
    )
    floor = 10 * math.log10(255 ** 2)
    assert psnr(cover, flipped) == pytest.approx(floor, abs=1e-9)
    assert floor > 48.1


def test_psnr_shape_mismatch():
    with pytest.raises(ContractError):
        psnr(raw_cover(b"ab"), raw_cover(b"abc"))
