"""Cover containers and the least-significant-bit plane.

A cover is a byte payload (a raw stream or a binary PGM image) plus an
ordered map of byte offsets whose least significant bits form the state
vector the dynamics act on.  Extraction and injection touch only those
bits, so any embedding perturbs each byte by at most 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dynamics import BitState
from .errors import ContractError, DomainError, ParseError

__all__ = [
    "CoverMedia",
    "extract_lscs",
    "inject_lscs",
    "load_pgm",
    "psnr",
    "raw_cover",
    "save_pgm",
]

_WHITESPACE = b" \t\r\n\x0b\x0c"


@dataclass(frozen=True)
class CoverMedia:
    """A byte payload plus the offsets carrying its LSC plane.

    ``lsc_map`` positions must be strictly increasing and inside the
    payload; cell i of the extracted state comes from position i.  A
    contiguous map is held as a ``range``, so equal maps compare equal.  For
    PGM covers the map covers exactly the pixel bytes in row-major order,
    starting at ``pixel_offset``.
    """

    payload: bytes
    kind: str
    lsc_map: Sequence[int]
    width: int | None = None
    height: int | None = None
    maxval: int | None = None
    pixel_offset: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("raw", "pgm"):
            raise ContractError(f"kind must be 'raw' or 'pgm', got {self.kind!r}")
        if not isinstance(self.payload, bytes):
            raise ContractError("payload must be bytes")
        if len(self.lsc_map) == 0:
            raise ContractError("lsc_map must not be empty")
        if isinstance(self.lsc_map, range):
            if self.lsc_map.step != 1:
                raise ContractError("a range lsc_map must have step 1")
            lo, hi = self.lsc_map.start, self.lsc_map.stop - 1
        else:
            object.__setattr__(self, "lsc_map", tuple(self.lsc_map))
            for a, b in zip(self.lsc_map, self.lsc_map[1:]):
                if b <= a:
                    raise ContractError("lsc_map positions must be strictly increasing")
            lo, hi = self.lsc_map[0], self.lsc_map[-1]
            if hi - lo == len(self.lsc_map) - 1:  # contiguous: held as a range
                object.__setattr__(self, "lsc_map", range(lo, hi + 1))
        if lo < 0 or hi >= len(self.payload):
            raise ContractError("lsc_map positions fall outside the payload")
        if self.kind == "pgm":
            self._check_pgm_fields()
        elif not (self.width is self.height is self.maxval is self.pixel_offset is None):
            raise ContractError("raw covers carry no image fields")

    def _check_pgm_fields(self) -> None:
        w, h, mv, po = self.width, self.height, self.maxval, self.pixel_offset
        if None in (w, h, mv, po) or w < 1 or h < 1 or not 1 <= mv <= 255:
            raise ContractError("pgm covers need width, height, maxval <= 255, pixel_offset")
        n = w * h
        # strictly increasing + matching endpoints + matching length forces
        # the map to be exactly the contiguous pixel run
        if (len(self.lsc_map) != n or self.lsc_map[0] != po
                or self.lsc_map[-1] != po + n - 1):
            raise ContractError("pgm lsc_map must cover exactly the pixel bytes in order")

    @property
    def n_cells(self) -> int:
        return len(self.lsc_map)


def raw_cover(payload: bytes, start: int = 0, count: int | None = None) -> CoverMedia:
    """Wrap a byte stream; the LSC plane is the LSB of every byte.

    ``start``/``count`` select a contiguous byte region instead of the
    whole stream.
    """
    if not isinstance(payload, bytes):
        raise ContractError("payload must be bytes")
    if count is None:
        count = len(payload) - start
    if start < 0 or count < 1 or start + count > len(payload):
        raise ContractError(
            f"region [{start}, {start + count}) outside payload of {len(payload)} bytes"
        )
    return CoverMedia(payload=payload, kind="raw", lsc_map=range(start, start + count))


def _lsc_index(cover: CoverMedia) -> slice | np.ndarray:
    """Index of the mapped bytes: a slice for a range map, else an array."""
    m = cover.lsc_map
    if isinstance(m, range):
        return slice(m.start, m.stop)
    return np.asarray(m, dtype=np.intp)


def extract_lscs(cover: CoverMedia) -> BitState:
    """LSB of each mapped byte, as a state (cell i from position i)."""
    data = np.frombuffer(cover.payload, dtype=np.uint8)
    bits = data[_lsc_index(cover)] & 1
    packed = np.packbits(bits, bitorder="little").tobytes()
    return BitState(int.from_bytes(packed, "little"), int(bits.size))


def inject_lscs(cover: CoverMedia, state: BitState) -> CoverMedia:
    """Write ``state`` into the LSBs at the mapped positions.

    Everything outside those bits is byte-identical to the input, so
    ``extract_lscs(inject_lscs(c, s)) == s`` and per-byte change is <= 1.
    A PGM pixel equal to an even ``maxval`` cannot take a set LSB; writing
    one raises :class:`DomainError` rather than produce an invalid image.
    """
    if state.n_cells != cover.n_cells:
        raise ContractError(
            f"state has {state.n_cells} cells, cover maps {cover.n_cells} positions"
        )
    arr = np.frombuffer(cover.payload, dtype=np.uint8).copy()
    idx = _lsc_index(cover)
    nbytes = (state.n_cells + 7) // 8
    bits = np.unpackbits(
        np.frombuffer(state.value.to_bytes(nbytes, "little"), dtype=np.uint8),
        bitorder="little", count=state.n_cells,
    )
    marked = (arr[idx] & 0xFE) | bits
    if cover.kind == "pgm" and cover.maxval % 2 == 0:
        over = np.flatnonzero(marked > cover.maxval)
        if over.size:
            raise DomainError(
                f"pixel {int(over[0])} would become {int(marked[over[0]])}, "
                f"above maxval {cover.maxval}; this cover cannot carry that plane"
            )
    arr[idx] = marked
    return replace(cover, payload=arr.tobytes())


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == 0x23:  # '#' comment runs to end of line
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != 0x23:
        pos += 1
    if start == pos:
        raise ParseError("unexpected end of PGM header")
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, name: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    if not token.isdigit():
        raise ParseError(f"bad PGM {name}: {token!r}")
    return int(token), pos


def load_pgm(data: bytes) -> CoverMedia:
    """Parse a binary PGM (magic P5, maxval up to 255, row-major pixels)."""
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise ParseError(f"not a binary PGM (P5) file, magic is {magic!r}")
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise ParseError(f"bad PGM dimensions {width}x{height}")
    if maxval > 255:
        raise ParseError(f"maxval {maxval} exceeds 255; multi-byte samples are unsupported")
    if maxval < 1:
        raise ParseError("maxval must be at least 1")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise ParseError("PGM header must end with a single whitespace byte")
    pos += 1
    n = width * height
    if len(data) - pos < n:
        raise ParseError(f"truncated PGM pixel data: expected {n} bytes, found {len(data) - pos}")
    if len(data) - pos > n:
        raise ParseError(f"{len(data) - pos - n} trailing bytes after PGM pixel data")
    peak = int(np.frombuffer(data, dtype=np.uint8, offset=pos).max())
    if peak > maxval:
        raise ParseError(f"pixel value {peak} exceeds maxval {maxval}")
    return CoverMedia(payload=data, kind="pgm", lsc_map=range(pos, pos + n),
                      width=width, height=height, maxval=maxval, pixel_offset=pos)


def save_pgm(cover: CoverMedia) -> bytes:
    """Serialize with a canonical header: ``P5\\n<w> <h>\\n<maxval>\\n``."""
    if cover.kind != "pgm":
        raise ContractError("save_pgm needs a pgm cover")
    header = f"P5\n{cover.width} {cover.height}\n{cover.maxval}\n".encode("ascii")
    start = cover.pixel_offset
    return header + cover.payload[start:start + cover.width * cover.height]


def _samples(cover: CoverMedia) -> np.ndarray:
    data = np.frombuffer(cover.payload, dtype=np.uint8)
    if cover.kind == "pgm":
        start = cover.pixel_offset
        return data[start:start + cover.width * cover.height]
    return data


def psnr(original: CoverMedia, modified: CoverMedia) -> float:
    """Peak signal-to-noise ratio over the 8-bit samples, peak 255.

    Returns ``inf`` for identical sample content.
    """
    if original.kind != modified.kind:
        raise ContractError("covers differ in kind")
    a = _samples(original).astype(np.float64)
    b = _samples(modified).astype(np.float64)
    if a.size != b.size:
        raise ContractError("covers differ in sample count")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)
