"""Information hiding through chaotic iterations, with a security lab.

The library iterates the vectorial negation over the least significant
part of a cover, one cell per step, following either a keyed chaotic
strategy (ciis) or a cover-driven one (cids).  The ``stego_analysis``
and ``chaos_probes`` modules turn the scheme's security claims into
machine-checkable verdicts at small cell counts.
"""

from __future__ import annotations

from .dynamics import (
    BitState,
    Strategy,
    SystemPoint,
    TruncatedDistance,
    apply_component,
    iterate,
    point_distance,
    state_distance,
    step,
    strategy_distance,
    vector_negation,
)
from .errors import (
    ChaostegError,
    ContractError,
    DomainError,
    IterationBudgetError,
    ParseError,
    UnderpoweredTestError,
)
from .fixedpoint import FRACTION_BITS, Fixed64, rne_div
from .hiding import DetectionResult, EmbeddingConfig, detect_nonblind, embed
from .media import (
    CoverMedia,
    extract_lscs,
    inject_lscs,
    load_pgm,
    psnr,
    raw_cover,
    save_pgm,
)
from .report import canonical_json, emit_report
from .strategies import (
    DEFAULT_BURN_IN,
    KeyMaterial,
    PlcmParams,
    cids_strategy,
    ciis_strategy,
    plcm_eval,
    xor_mix,
)
from .suite import SUITES, SuiteResult, run_suite, suite_cap

__version__ = "0.1.0"

__all__ = [
    "BitState",
    "ChaostegError",
    "ContractError",
    "CoverMedia",
    "DEFAULT_BURN_IN",
    "DetectionResult",
    "DomainError",
    "EmbeddingConfig",
    "FRACTION_BITS",
    "Fixed64",
    "IterationBudgetError",
    "KeyMaterial",
    "ParseError",
    "PlcmParams",
    "SUITES",
    "Strategy",
    "SuiteResult",
    "SystemPoint",
    "TruncatedDistance",
    "UnderpoweredTestError",
    "apply_component",
    "canonical_json",
    "cids_strategy",
    "ciis_strategy",
    "detect_nonblind",
    "embed",
    "emit_report",
    "extract_lscs",
    "inject_lscs",
    "iterate",
    "load_pgm",
    "plcm_eval",
    "point_distance",
    "psnr",
    "raw_cover",
    "rne_div",
    "run_suite",
    "save_pgm",
    "state_distance",
    "step",
    "strategy_distance",
    "suite_cap",
    "vector_negation",
    "xor_mix",
    "__version__",
]
