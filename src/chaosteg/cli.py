"""Command-line front end: embed, detect, analyze, lscs.

Standard output carries machine-parseable key=value lines or JSON only;
diagnostics go to standard error.  Exit codes: 0 for success, match, or a
passing suite; 1 for a detection mismatch or a failed verdict; 2 and above
for usage, parse, and I/O errors.

Options may come from a ``key=value`` config file (one pair per line,
``#`` comments); explicit flags win over the file, the file wins over
defaults.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from .dynamics import state_distance
from .errors import ChaostegError, ParseError
from .fixedpoint import Fixed64
from .hiding import EmbeddingConfig, detect_nonblind, embed
from .media import CoverMedia, extract_lscs, load_pgm, psnr, raw_cover, save_pgm
from .strategies import DEFAULT_BURN_IN, KeyMaterial, PlcmParams
from .suite import DEFAULT_N_ITER, DEFAULT_SAMPLE_COUNT, SUITES, run_suite

__all__ = ["main"]

_HEX16 = re.compile(r"^[0-9a-fA-F]{16}$")
# netpbm magics that --format auto refuses rather than read as raw bytes,
# since LSB flips in their headers would corrupt the file
_OTHER_NETPBM = (b"P1", b"P2", b"P3", b"P4", b"P6", b"P7")

_CONFIG_TYPES = {
    "mode": str,
    "key": str,
    "message": str,
    "message_file": str,
    "p": float,
    "burn_in": int,
    "n_iter": int,
    "format": str,
    "suite": str,
    "n_cells": int,
    "seed": int,
    "sample_count": int,
    "threads": int,
}


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read config file {path!r}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, sep, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ParseError(f"{path}:{lineno}: expected key=value, got {text!r}")
        if key not in _CONFIG_TYPES:
            raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _convert(key: str, text: str):
    kind = _CONFIG_TYPES[key]
    if kind is str:
        return text
    try:
        return kind(text)
    except ValueError:
        raise ParseError(f"config key {key!r}: cannot read {text!r} as {kind.__name__}") from None


def _effective(ns: argparse.Namespace, defaults: dict) -> dict:
    cfg = _load_config(ns.config) if getattr(ns, "config", None) else {}
    out = {}
    for name, default in defaults.items():
        flag = getattr(ns, name, None)
        if flag is not None:
            out[name] = flag
        elif name in cfg:
            out[name] = _convert(name, cfg[name])
        else:
            out[name] = default
    return out


def _parse_unit(text: str) -> Fixed64:
    """16 hex digits read as the raw fixed-point encoding, else a decimal."""
    if _HEX16.match(text):
        return Fixed64.from_hex(text)
    try:
        v = float(text)
    except ValueError:
        raise ParseError(
            f"expected 16 hex digits or a decimal in [0, 1], got {text!r}"
        ) from None
    if not 0.0 <= v <= 1.0:
        raise ParseError(f"decimal key material must lie in [0, 1], got {text!r}")
    return Fixed64.from_float(v)


def _message_from_file(path: str) -> Fixed64:
    data = Path(path).read_bytes()
    return Fixed64(int.from_bytes(data[:8].ljust(8, b"\x00"), "big"))


def _load_cover(data: bytes, fmt: str) -> CoverMedia:
    if fmt not in ("auto", "raw", "pgm"):
        raise ParseError(f"format must be auto, raw, or pgm, got {fmt!r}")
    if fmt == "auto" and data[:2] in _OTHER_NETPBM:
        raise ParseError(
            f"magic {data[:2].decode()} is a netpbm format other than binary PGM (P5); "
            "pass --format raw to use every byte as a sample"
        )
    if fmt == "pgm" or (fmt == "auto" and data[:2] == b"P5"):
        return load_pgm(data)
    return raw_cover(data)


_EMBED_DEFAULTS = {
    "mode": None,
    "key": None,
    "message": None,
    "message_file": None,
    "p": 0.4,
    "burn_in": DEFAULT_BURN_IN,
    "n_iter": None,
    "format": "auto",
}


def _embed_settings(ns: argparse.Namespace) -> dict:
    eff = _effective(ns, _EMBED_DEFAULTS)
    if eff["mode"] not in ("ciis", "cids"):
        raise ParseError(f"--mode must be ciis or cids, got {eff['mode']!r}")
    if eff["mode"] == "ciis" and not eff["key"]:
        raise ParseError("ciis mode needs --key (16 hex digits or a decimal in [0, 1])")
    if eff["message"] and eff["message_file"]:
        raise ParseError("--message and --message-file are mutually exclusive")
    return eff


def _embedding_config(eff: dict, n_cells: int) -> EmbeddingConfig:
    n_iter = eff["n_iter"] if eff["n_iter"] is not None else n_cells
    km = None
    if eff["mode"] == "ciis":
        if eff["message_file"]:
            message = _message_from_file(eff["message_file"])
        elif eff["message"]:
            message = _parse_unit(eff["message"])
        else:
            message = Fixed64(0)
        km = KeyMaterial(key=_parse_unit(eff["key"]), message=message,
                         params=PlcmParams(float(eff["p"])), n_cells=n_cells,
                         burn_in=eff["burn_in"])
    return EmbeddingConfig(key_material=km, n_iter=n_iter, strategy_mode=eff["mode"])


def cmd_embed(ns: argparse.Namespace) -> int:
    eff = _embed_settings(ns)
    cover = _load_cover(Path(ns.infile).read_bytes(), eff["format"])
    config = _embedding_config(eff, cover.n_cells)
    marked = embed(cover, config)
    out_bytes = save_pgm(marked) if marked.kind == "pgm" else marked.payload
    Path(ns.outfile).write_bytes(out_bytes)
    changes = state_distance(extract_lscs(cover), extract_lscs(marked))
    ratio = psnr(cover, marked)
    print(f"n_cells={cover.n_cells}")
    print(f"lsc_changes={changes}")
    print(f"psnr={'inf' if math.isinf(ratio) else format(ratio, '.6g')}")
    return 0


def cmd_detect(ns: argparse.Namespace) -> int:
    eff = _embed_settings(ns)
    original = _load_cover(Path(ns.original).read_bytes(), eff["format"])
    suspect = _load_cover(Path(ns.suspect).read_bytes(), eff["format"])
    config = _embedding_config(eff, original.n_cells)
    result = detect_nonblind(original, suspect, config)
    print(f"verdict={result.verdict}")
    print(f"distance={result.distance}")
    return 0 if result.match else 1


def cmd_analyze(ns: argparse.Namespace) -> int:
    eff = _effective(ns, {
        "suite": "full",
        "n_cells": 4,
        "seed": 0,
        "sample_count": DEFAULT_SAMPLE_COUNT,
        "n_iter": DEFAULT_N_ITER,
        "threads": None,  # still parsed and type-checked, but has no effect
    })
    result = run_suite(eff["suite"], eff["n_cells"], eff["seed"],
                       sample_count=eff["sample_count"], n_iter=eff["n_iter"])
    payload = (result.json + "\n").encode("ascii")
    if ns.report:
        Path(ns.report).write_bytes(payload)
        for name, verdict in result.verdicts.items():
            status = ("pass" if verdict["pass"] else "fail") if "pass" in verdict else "reported"
            print(f"{name}={status}")
        print(f"overall={'pass' if result.overall_pass else 'fail'}")
        print(f"report={ns.report}")
    else:
        sys.stdout.write(payload.decode("ascii"))
    return 0 if result.overall_pass else 1


def cmd_lscs(ns: argparse.Namespace) -> int:
    eff = _effective(ns, {"format": "auto"})
    cover = _load_cover(Path(ns.infile).read_bytes(), eff["format"])
    state = extract_lscs(cover)
    print(f"n_cells={state.n_cells}")
    print(f"lscs={state.to_bitstring()}")
    return 0


def _add_scheme_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("ciis", "cids"), default=None,
                   help="strategy mode: keyed (ciis) or cover-driven (cids)")
    p.add_argument("--key", default=None,
                   help="16 hex digits (raw fixed-point) or a decimal in [0, 1]")
    p.add_argument("--message", default=None,
                   help="message as 16 hex digits or a decimal in [0, 1]")
    p.add_argument("--message-file", dest="message_file", default=None,
                   help="read the message from a file (first 64 bits)")
    p.add_argument("--p", type=float, default=None,
                   help="chaotic map control parameter in (0, 1/2), default 0.4")
    p.add_argument("--burn-in", dest="burn_in", type=int, default=None,
                   help=f"discarded map iterates, default {DEFAULT_BURN_IN}")
    p.add_argument("--n-iter", type=int, dest="n_iter", default=None,
                   help="iteration count; defaults to the cover's LSC count")
    p.add_argument("--format", choices=("auto", "raw", "pgm"), default=None,
                   help="cover format, default auto (sniffs the PGM magic)")
    p.add_argument("--config", default=None, help="key=value config file; flags win")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaosteg",
        description="Chaotic-iterations information hiding and its security lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="watermark a cover file")
    p.add_argument("--in", dest="infile", required=True, help="cover file")
    p.add_argument("--out", dest="outfile", required=True, help="watermarked output")
    _add_scheme_options(p)

    p = sub.add_parser("detect", help="non-blind check of a suspect against an original")
    p.add_argument("--original", required=True, help="original cover file")
    p.add_argument("--suspect", required=True, help="file to check")
    _add_scheme_options(p)

    p = sub.add_parser("analyze", help="run a security verdict suite")
    p.add_argument("--suite", choices=SUITES, default=None)
    p.add_argument("--n-cells", dest="n_cells", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sample-count", dest="sample_count", type=int, default=None)
    p.add_argument("--n-iter", dest="n_iter", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--report", default=None,
                   help="write the JSON report here; summary goes to stdout")
    p.add_argument("--config", default=None, help="key=value config file; flags win")

    p = sub.add_parser("lscs", help="dump a cover's LSC plane as a bit string")
    p.add_argument("--in", dest="infile", required=True, help="cover file")
    p.add_argument("--format", choices=("auto", "raw", "pgm"), default=None)
    p.add_argument("--config", default=None, help="key=value config file; flags win")

    return parser


_HANDLERS = {
    "embed": cmd_embed,
    "detect": cmd_detect,
    "analyze": cmd_analyze,
    "lscs": cmd_lscs,
}


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[ns.command](ns)
    except ChaostegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
