"""Correctness checks the benchmark applies to every op.

Each check returns a list of problems; an empty list means the op's output
is correct.  The checks read outputs with numpy and recompute the keyed
strategy with the benchmark's own integer map, never with chaosteg, so a
defect in the code under test cannot vouch for itself.
"""

from __future__ import annotations

import json

import numpy as np

SCALE = 1 << 64
HALF = 1 << 63

FULL_SUITE_VERDICTS = frozenset({
    "ciis_stego", "cids_not_stego", "mc_exact_agreement", "strategy_state_dependence",
    "expansivity", "mixing", "sensitivity", "regularity",
})


def reference_terms(key_raw: int, message_raw: int, p: float, burn_in: int,
                    n_cells: int, n_iter: int) -> np.ndarray:
    """Keyed strategy terms from a plain integer PLCM on the 2^-64 grid.

    The seed is key XOR message and ``p`` is truncated to 64 fractional
    bits.  A step reflects x above 1/2, divides by p on [0, p) or by
    1/2 - p past it, rounds to nearest with ties to even, and wraps 1 to 0.
    After ``burn_in`` steps, each iterate x gives the term
    floor(n_cells * x) + 1.
    """
    pr = int(p * SCALE)
    qr = HALF - pr
    x = key_raw ^ message_raw
    terms = [0] * n_iter
    for i in range(burn_in + n_iter):
        if i >= burn_in:
            terms[i - burn_in] = (n_cells * x >> 64) + 1
        if x > HALF:
            x = SCALE - x
        if x < pr:
            num, den = x << 64, pr
        else:
            num, den = (x - pr) << 64, qr
        x, r = divmod(num, den)
        r += r
        if r > den or (r == den and x & 1):
            x += 1
        if x == SCALE:
            x = 0
    return np.array(terms, dtype=np.int64)


def parity_plane(terms: np.ndarray, n_cells: int) -> np.ndarray:
    """Cells flipped an odd number of times by the negation walk."""
    return (np.bincount(terms - 1, minlength=n_cells) & 1).astype(np.uint8)


def pixels(pgm: bytes, n_cells: int) -> np.ndarray:
    return np.frombuffer(pgm, dtype=np.uint8)[len(pgm) - n_cells:]


def lsc_changes(cover: bytes, marked: bytes, n_cells: int) -> int:
    """Hamming distance between the two files' LSB planes."""
    return int(((pixels(cover, n_cells) ^ pixels(marked, n_cells)) & 1).sum())


def check_marked(cover: bytes, marked: bytes, n_cells: int, terms: np.ndarray) -> list[str]:
    """A keyed embedding of ``cover`` under ``terms``, and not a degenerate one.

    Only LSBs may change, each byte by at most 1, and the LSB plane must be
    the cover's XOR the parity fold of the terms.  A keystream with fewer
    than two distinct terms, or a plane with at most one change, is the
    collapsed orbit of a digital PLCM and counts as a failure.
    """
    if len(marked) != len(cover):
        return [f"marked file has {len(marked)} bytes, cover has {len(cover)}"]
    header = len(cover) - n_cells
    if marked[:header] != cover[:header]:
        return ["marked file header differs from the cover's"]
    a, b = pixels(cover, n_cells), pixels(marked, n_cells)
    problems = []
    if int(np.abs(a.astype(np.int16) - b).max()) > 1:
        problems.append("a byte changed by more than 1")
    if not np.array_equal(a & 0xFE, b & 0xFE):
        problems.append("bits other than the LSBs changed")
    parity = parity_plane(terms, n_cells)
    wrong = int(np.count_nonzero((a & 1) ^ parity ^ (b & 1)))
    if wrong:
        problems.append(f"{wrong} LSBs differ from cover XOR parity fold of the keystream")
    changes = int(np.count_nonzero((a ^ b) & 1))
    if changes != int(parity.sum()):
        problems.append(f"{changes} LSB changes, parity fold has {int(parity.sum())}")
    if len(np.unique(terms)) < 2 or changes <= 1:
        problems.append(f"degenerate keystream: {len(np.unique(terms))} distinct terms, "
                        f"{changes} LSB changes")
    return problems


def check_psnr(cover: bytes, marked: bytes, n_cells: int, value: float) -> list[str]:
    diff = pixels(cover, n_cells).astype(np.float64) - pixels(marked, n_cells)
    expected = 10.0 * np.log10(255.0 ** 2 / np.mean(diff ** 2))
    if not abs(value - expected) <= 1e-9 * expected:
        return [f"psnr {value!r}, numpy gives {expected!r}"]
    return []


def parse_kv(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def check_cli(name: str, code: int, expected_code: int, stdout: str,
              expected: dict[str, str]) -> list[str]:
    """Exit code and the ``key=value`` lines a CLI call must print."""
    problems = []
    if code != expected_code:
        problems.append(f"{name}: exit code {code}, expected {expected_code}")
    seen = parse_kv(stdout)
    for key, value in expected.items():
        got = seen.get(key)
        if got != value:
            shown = got if got is None or len(got) <= 40 else got[:40] + "..."
            problems.append(f"{name}: {key}={shown}, expected {value[:40]}")
    return problems


def lsb_bitstring(pgm: bytes, n_cells: int) -> str:
    """The LSB plane as numpy reads it, cell 1 first."""
    return ((pixels(pgm, n_cells) & 1) + ord("0")).tobytes().decode("ascii")


def check_cids_plane(pgm: bytes, n_cells: int) -> list[str]:
    """The cover-driven mode only ever outputs 0^N or 10^(N-1)."""
    plane = pixels(pgm, n_cells) & 1
    if np.count_nonzero(plane[1:]):
        return [f"cids output plane has {int(np.count_nonzero(plane[1:]))} set cells "
                "past cell 1; only 0^N and 10^(N-1) are possible"]
    return []


def check_report(text: str, validator) -> tuple[list[str], int]:
    """Schema, full-suite verdict set and deterministic gates of one report.

    Returns the problems and the number of Monte Carlo rejections.  The
    chi-square and total-variation gates reject about one seed in a hundred
    by design, so a rejection there is counted, not failed.
    """
    doc = json.loads(text)
    problems = [f"schema: {e.message}" for e in validator.iter_errors(doc)]
    if problems:
        return problems, 0
    verdicts = doc["verdicts"]
    if set(verdicts) != FULL_SUITE_VERDICTS:
        problems.append(f"verdicts {sorted(verdicts)} are not the full suite's")
    rejects = 0
    for name, verdict in sorted(verdicts.items()):
        if name == "mc_exact_agreement":
            rejects += not verdict["pass"]
        elif name == "ciis_stego":
            rejects += not verdict["monte_carlo"]["pass"]
            if not verdict["exact"]["pass"]:
                problems.append("ciis_stego: exact push-forward is not uniform")
        elif "pass" in verdict and not verdict["pass"]:
            problems.append(f"deterministic verdict {name} failed")
    overall = all(v["pass"] for v in verdicts.values() if "pass" in v)
    if doc["overall_pass"] != overall:
        problems.append(f"overall_pass is {doc['overall_pass']}, verdicts give {overall}")
    return problems, rejects


def check_replay(first: str, second: str) -> list[str]:
    if first != second:
        return [f"replaying the seed gave a different report ({len(first)} vs {len(second)} bytes)"]
    return []
