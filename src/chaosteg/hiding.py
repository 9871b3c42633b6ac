"""The end-to-end hiding pipeline.

Embedding extracts the cover's LSC plane, runs the iteration system on it
under the configured strategy mode for ``n_iter`` steps with the negation
update map, and injects the final state back.  Detection is non-blind: it
recomputes the marked plane from the original and compares LSC planes,
which is plumbing on top of the scheme, not part of it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import BitState, Strategy, iterate, state_distance, vector_negation
from .errors import ContractError
from .media import CoverMedia, extract_lscs, inject_lscs
from .strategies import KeyMaterial, ciis_strategy, cids_strategy

__all__ = ["DetectionResult", "EmbeddingConfig", "detect_nonblind", "embed"]

MODES = ("ciis", "cids")


@dataclass(frozen=True)
class EmbeddingConfig:
    """The effective embedding key: key material, iteration count, mode."""

    key_material: KeyMaterial | None
    n_iter: int
    strategy_mode: str

    def __post_init__(self) -> None:
        if self.strategy_mode not in MODES:
            raise ContractError(f"strategy_mode must be one of {MODES}, got {self.strategy_mode!r}")
        if not isinstance(self.n_iter, int) or self.n_iter < 1:
            raise ContractError(f"n_iter must be a positive integer, got {self.n_iter!r}")
        if self.strategy_mode == "ciis" and self.key_material is None:
            raise ContractError("ciis mode needs key material")
        if self.key_material is not None and not isinstance(self.key_material, KeyMaterial):
            raise ContractError(f"key_material must be KeyMaterial, got {self.key_material!r}")


@dataclass(frozen=True)
class DetectionResult:
    match: bool
    distance: int
    n_cells: int

    @property
    def verdict(self) -> str:
        return "match" if self.match else "mismatch"


def _strategy_for(config: EmbeddingConfig, cover_state: BitState) -> Strategy:
    if config.strategy_mode == "ciis":
        km = config.key_material
        if km.n_cells != cover_state.n_cells:
            raise ContractError(
                f"key material sized for {km.n_cells} cells, cover has {cover_state.n_cells}"
            )
        return ciis_strategy(km, config.n_iter)
    return cids_strategy(cover_state, config.n_iter)


def _marked_plane(x: BitState, config: EmbeddingConfig) -> BitState:
    """The cover plane ``x`` after ``n_iter`` negation steps under the strategy."""
    return iterate(vector_negation, x, _strategy_for(config, x), config.n_iter)


def embed(cover: CoverMedia, config: EmbeddingConfig) -> CoverMedia:
    """Replace the cover's LSC plane by its image under the iteration system.

    Deterministic in (cover, config); bytes outside the LSC plane are
    untouched, and for the keyed mode the strategy itself never depends on
    the cover, so non-LSC edits cannot change the embedded plane.  A PGM
    pixel at an even ``maxval`` that would need its LSB set raises
    :class:`DomainError`.
    """
    return inject_lscs(cover, _marked_plane(extract_lscs(cover), config))


def detect_nonblind(original: CoverMedia, suspect: CoverMedia,
                    config: EmbeddingConfig) -> DetectionResult:
    """Recompute the marked plane from ``original`` and compare LSC planes."""
    same_shape = (
        original.kind == suspect.kind
        and len(original.payload) == len(suspect.payload)
        and original.lsc_map == suspect.lsc_map
        and (original.width, original.height, original.maxval)
        == (suspect.width, suspect.height, suspect.maxval)
    )
    if not same_shape:
        raise ContractError("original and suspect covers differ in shape")
    expected = _marked_plane(extract_lscs(original), config)
    observed = extract_lscs(suspect)
    d = state_distance(expected, observed)
    return DetectionResult(match=(d == 0), distance=d, n_cells=expected.n_cells)
