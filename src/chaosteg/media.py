"""Cover containers and the least-significant-bit plane.

A cover is its file bytes plus the offset where its samples start; the
samples run from there to the end of the payload.  A raw cover's samples
are all its bytes, a binary PGM's are its pixels.  The LSB of each sample
is one cell of the state vector the dynamics act on, so any embedding
perturbs each sample by at most 1 and never touches a header byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    """A byte payload whose samples run from ``pixel_offset`` to its end.

    Cell i of the LSC plane is the LSB of sample i.  Raw covers start at
    offset 0 and carry no image fields; PGM covers hold exactly
    ``width * height`` pixel bytes, in row-major order, after their header.
    """

    payload: bytes
    kind: str
    width: int | None = None
    height: int | None = None
    maxval: int | None = None
    pixel_offset: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("raw", "pgm"):
            raise ContractError(f"kind must be 'raw' or 'pgm', got {self.kind!r}")
        if not isinstance(self.payload, bytes):
            raise ContractError("payload must be bytes")
        po = self.pixel_offset
        if not isinstance(po, int) or not 0 <= po < len(self.payload):
            raise ContractError(
                f"pixel_offset {po!r} leaves no sample in a payload of {len(self.payload)} bytes"
            )
        if self.kind == "raw":
            if po or not (self.width is self.height is self.maxval is None):
                raise ContractError("raw covers start at offset 0 and carry no image fields")
            return
        w, h, mv = self.width, self.height, self.maxval
        if None in (w, h, mv) or w < 1 or h < 1 or not 1 <= mv <= 255:
            raise ContractError("pgm covers need width, height >= 1 and maxval in 1..255")
        if w * h != self.n_cells:
            raise ContractError(f"{w}x{h} image, but {self.n_cells} bytes follow the header")

    @property
    def n_cells(self) -> int:
        return len(self.payload) - self.pixel_offset


def raw_cover(payload: bytes) -> CoverMedia:
    """Wrap a byte stream; the LSC plane is the LSB of every byte."""
    return CoverMedia(payload=payload, kind="raw")


def _samples(cover: CoverMedia) -> np.ndarray:
    return np.frombuffer(cover.payload, dtype=np.uint8, offset=cover.pixel_offset)


def extract_lscs(cover: CoverMedia) -> BitState:
    """LSB of each sample, as a state (cell i from sample i)."""
    bits = _samples(cover) & 1
    packed = np.packbits(bits, bitorder="little").tobytes()
    return BitState(int.from_bytes(packed, "little"), int(bits.size))


def inject_lscs(cover: CoverMedia, state: BitState) -> CoverMedia:
    """Write ``state`` into the sample LSBs.

    Everything outside those bits is byte-identical to the input, so
    ``extract_lscs(inject_lscs(c, s)) == s`` and per-byte change is <= 1.
    A PGM pixel equal to an even ``maxval`` cannot take a set LSB; writing
    one raises :class:`DomainError` rather than produce an invalid image.
    """
    if state.n_cells != cover.n_cells:
        raise ContractError(
            f"state has {state.n_cells} cells, cover has {cover.n_cells} samples"
        )
    nbytes = (state.n_cells + 7) // 8
    bits = np.unpackbits(
        np.frombuffer(state.value.to_bytes(nbytes, "little"), dtype=np.uint8),
        bitorder="little", count=state.n_cells,
    )
    marked = (_samples(cover) & 0xFE) | bits
    if cover.kind == "pgm" and cover.maxval % 2 == 0:
        over = np.flatnonzero(marked > cover.maxval)
        if over.size:
            raise DomainError(
                f"pixel {int(over[0])} would become {int(marked[over[0]])}, "
                f"above maxval {cover.maxval}; this cover cannot carry that plane"
            )
    header = cover.payload[:cover.pixel_offset]
    return replace(cover, payload=header + marked.tobytes())


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
    return CoverMedia(payload=data, kind="pgm", width=width, height=height,
                      maxval=maxval, pixel_offset=pos)


def save_pgm(cover: CoverMedia) -> bytes:
    """Serialize with a canonical header: ``P5\\n<w> <h>\\n<maxval>\\n``."""
    if cover.kind != "pgm":
        raise ContractError("save_pgm needs a pgm cover")
    header = f"P5\n{cover.width} {cover.height}\n{cover.maxval}\n".encode("ascii")
    return header + cover.payload[cover.pixel_offset:]


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
