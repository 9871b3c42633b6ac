"""Strategy generation: the keyed keystream mode and the cover-driven mode.

The keyed mode (``ciis``) mixes a message and a key into a seed, iterates a
piecewise linear chaotic map on it, and reads each iterate as a cell index,
so the strategy is independent of any cover content.  The cover-driven mode
(``cids``) takes its terms straight off the cover's least significant bits
and is deliberately the degenerate counterpart: see
:func:`chaosteg.stego_analysis.verify_cids_not_stego`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import BitState, Strategy
from .errors import ContractError
from .fixedpoint import FRACTION_BITS, SCALE, Fixed64, rne_div

__all__ = [
    "DEFAULT_BURN_IN",
    "KeyMaterial",
    "PlcmParams",
    "ciis_strategy",
    "cids_strategy",
    "plcm_eval",
    "xor_mix",
]

DEFAULT_BURN_IN = 997
"""Map iterates discarded before the first strategy term is read."""

_HALF = SCALE // 2


@dataclass(frozen=True)
class PlcmParams:
    """Control parameter of the piecewise linear chaotic map.

    ``p`` must sit strictly inside (0, 1/2) and must survive quantization
    to 64 fractional bits, since the keystream runs on that grid.
    """

    p: float

    def __post_init__(self) -> None:
        p = self.p
        if not isinstance(p, float) or not 0.0 < p < 0.5:
            raise ContractError(
                f"control parameter must be a float strictly inside (0, 1/2), got {p!r}"
            )
        if int(p * SCALE) == 0:
            raise ContractError(
                f"control parameter {p!r} truncates to zero at 64 fractional bits"
            )

    @property
    def p_fixed(self) -> Fixed64:
        return Fixed64.from_float(self.p)


def plcm_eval(x: Fixed64, params: PlcmParams) -> Fixed64:
    """Evaluate the piecewise linear chaotic map F at ``x``.

    F(x) = x / p on [0, p), (x - p) / (1/2 - p) on [p, 1/2], and F(1 - x)
    for x above 1/2.  The reflection is applied once, before the branch
    test, which makes the map total: F(1/2) = 1 and F(1) = F(0) = 0.

    The map runs on the 64-bit integer grid (division rounded to nearest
    even); the single value-1 output, reached only at x = 1/2 exactly,
    wraps to 0.
    """
    if not isinstance(x, Fixed64):
        raise ContractError(f"map input must be a Fixed64, got {x!r}")
    pr = params.p_fixed.raw
    return Fixed64(_plcm_step(x.raw, pr, _HALF - pr))


def _plcm_step(xr: int, pr: int, qr: int) -> int:
    """One map step on raw 64-bit fractions: ``pr`` is p, ``qr`` is 1/2 - p."""
    if xr > _HALF:
        xr = SCALE - xr
    if xr < pr:
        raw = rne_div(xr << FRACTION_BITS, pr)
    else:
        raw = rne_div((xr - pr) << FRACTION_BITS, qr)
    return 0 if raw == SCALE else raw


def xor_mix(message, key) -> Fixed64:
    """Bitwise XOR of two [0, 1] values as 64-bit fixed-point fractions.

    Floats are truncated toward zero first, so ``xor_mix(x, 0.0)`` returns
    the Fixed64 form of ``x`` and ``xor_mix(x, x)`` is zero.
    """
    return _as_fixed(message) ^ _as_fixed(key)


def _as_fixed(v) -> Fixed64:
    if isinstance(v, Fixed64):
        return v
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return Fixed64.from_float(float(v))
    raise ContractError(f"expected a float in [0, 1] or a Fixed64, got {v!r}")


@dataclass(frozen=True)
class KeyMaterial:
    """Everything the keyed strategy generator consumes.

    ``key`` and ``message`` accept floats in [0, 1] or :class:`Fixed64`
    values; floats are stored truncated to 64 fractional bits.  ``burn_in``
    is the number of map iterates discarded before the first term.
    """

    key: Fixed64
    message: Fixed64
    params: PlcmParams
    n_cells: int
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", _as_fixed(self.key))
        object.__setattr__(self, "message", _as_fixed(self.message))
        if not isinstance(self.params, PlcmParams):
            raise ContractError(f"params must be PlcmParams, got {self.params!r}")
        if not isinstance(self.n_cells, int) or self.n_cells < 1:
            raise ContractError(f"n_cells must be a positive integer, got {self.n_cells!r}")
        if not isinstance(self.burn_in, int) or self.burn_in < 0:
            raise ContractError(f"burn_in must be a non-negative integer, got {self.burn_in!r}")


def _check_budget(n_iter) -> None:
    if not isinstance(n_iter, int) or n_iter < 1:
        raise ContractError(f"n_iter must be a positive integer, got {n_iter!r}")


def ciis_strategy(km: KeyMaterial, n_iter: int) -> Strategy:
    """Keyed strategy: term n is ``floor(n_cells * K_{n+D}) + 1``.

    The seed is ``K_0 = message XOR key``; subsequent iterates come from
    the chaotic map under ``km.params`` and the first ``D = km.burn_in``
    of them are discarded.  The cell index is computed exactly in integer
    arithmetic from the 64-bit iterate, so the output is bit-reproducible
    and never depends on any cover content.  The ``n_iter`` terms are
    computed in one keystream pass over raw integers, with p and 1/2 - p
    quantized once per call.
    """
    _check_budget(n_iter)
    n = km.n_cells
    pr = km.params.p_fixed.raw
    qr = _HALF - pr
    k = xor_mix(km.message, km.key).raw
    for _ in range(km.burn_in):
        k = _plcm_step(k, pr, qr)
    terms = [(n * k >> FRACTION_BITS) + 1]
    for _ in range(n_iter - 1):
        k = _plcm_step(k, pr, qr)
        terms.append((n * k >> FRACTION_BITS) + 1)
    return Strategy.finite(terms, n)


def cids_strategy(cover_lscs: BitState, n_iter: int) -> Strategy:
    """Cover-driven strategy read off the initial LSC vector.

    Term k (1-based) is k when k <= n_cells and cell k of ``cover_lscs``
    is 1, and 1 otherwise; past the cell count every term is 1.  The whole
    sequence is fixed by the initial vector.
    """
    _check_budget(n_iter)
    bits = cover_lscs.to_bitstring()[:n_iter]
    terms = [k if b == "1" else 1 for k, b in enumerate(bits, start=1)]
    terms += [1] * (n_iter - len(terms))
    return Strategy.finite(terms, cover_lscs.n_cells)
