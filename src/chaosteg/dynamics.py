"""States, strategies, and the asynchronous iteration system.

A state is a vector of ``n_cells`` binary cells.  One iteration step picks
a single cell, named by the head of a strategy (a sequence of cell indices),
and overwrites it with the value an update map ``f`` assigns to that cell;
every other cell is left untouched.  Iterating the step from a start state
under a strategy is the whole dynamical system studied here, and the module
also provides the metric it lives under: an integer Hamming part on states
plus a decimally decaying series on strategies, so two points are close when
their states agree and their strategies agree on a long prefix.

Cell indices are 1-based in every public interface; term positions within a
strategy are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import ContractError, IterationBudgetError

__all__ = [
    "DEFAULT_DEPTH",
    "BitState",
    "IterationFunction",
    "Strategy",
    "SystemPoint",
    "TruncatedDistance",
    "apply_component",
    "iterate",
    "point_distance",
    "state_distance",
    "step",
    "strategy_distance",
    "vector_negation",
]

DEFAULT_DEPTH = 16
"""Default number of strategy terms compared by the truncated metric."""

_SHORT_FOLD = 64
"""Longest prefix the negation fold toggles term by term.  Up to here the
loop beat the vectorised count, which pays about 9 us of fixed numpy cost
per call on a 2-vCPU x86 host, at every cell count measured (4 to 262,144).
The chaos probes fold 2-15 terms per call; the hiding pipeline thousands."""


@dataclass(frozen=True)
class BitState:
    """Immutable vector of ``n_cells`` binary cells.

    Cell ``k`` (1-based) is stored as bit ``k - 1`` of ``value``, so the
    bit-string rendering reads cell 1 first.
    """

    value: int
    n_cells: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_cells, int) or self.n_cells < 1:
            raise ContractError(f"n_cells must be a positive integer, got {self.n_cells!r}")
        if not isinstance(self.value, int) or not 0 <= self.value < (1 << self.n_cells):
            raise ContractError(
                f"state value {self.value!r} is out of range for {self.n_cells} cells"
            )

    @classmethod
    def zeros(cls, n_cells: int) -> "BitState":
        return cls(0, n_cells)

    @classmethod
    def ones(cls, n_cells: int) -> "BitState":
        return cls((1 << n_cells) - 1, n_cells)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitState":
        """Build a state from cell values listed in cell order (cell 1 first)."""
        value = 0
        n = 0
        for n, b in enumerate(bits, start=1):
            if b not in (0, 1):
                raise ContractError(f"cell values must be 0 or 1, got {b!r}")
            value |= b << (n - 1)
        if n == 0:
            raise ContractError("a state needs at least one cell")
        return cls(value, n)

    @classmethod
    def from_bitstring(cls, text: str) -> "BitState":
        if not text or set(text) - {"0", "1"}:
            raise ContractError(f"expected a non-empty string over 0/1, got {text!r}")
        return cls.from_bits(int(c) for c in text)

    def bit(self, k: int) -> int:
        """Value of cell ``k`` (1-based)."""
        if not 1 <= k <= self.n_cells:
            raise ContractError(f"cell index {k} out of range 1..{self.n_cells}")
        return (self.value >> (k - 1)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple(map(int, self.to_bitstring()))

    def to_bitstring(self) -> str:
        """Render as ``b_1 b_2 ... b_N`` with cell 1 leftmost."""
        return format(self.value, f"0{self.n_cells}b")[::-1]

    def __repr__(self) -> str:
        return f"BitState({self.to_bitstring()!r})"


class Strategy:
    """A sequence of cell indices in ``[1..n_cells]``, queried by position.

    One immutable term tuple and a periodic flag hold both kinds:

    * :meth:`finite` holds exactly its terms; reading past the end raises
      :class:`IterationBudgetError` (the iteration budget is spent).
    * :meth:`periodic` repeats a pattern forever.  The pattern is reduced
      to its primitive (shortest) form, so equal sequences compare equal.

    Terms are checked once, when the strategy is built.  Instances are
    immutable values; :meth:`shift` returns a new strategy with the first
    ``k`` terms dropped.
    """

    __slots__ = ("n_cells", "_terms", "_periodic")

    def __init__(self, terms: Iterable[int], n_cells: int, periodic: bool = False) -> None:
        if not isinstance(n_cells, int) or n_cells < 1:
            raise ContractError(f"n_cells must be a positive integer, got {n_cells!r}")
        terms = tuple(terms)
        if terms and not (set(map(type, terms)) <= {int}
                          and min(terms) >= 1 and max(terms) <= n_cells):
            bad = next(t for t in terms if type(t) is not int or not 1 <= t <= n_cells)
            raise ContractError(f"strategy terms must be integers in 1..{n_cells}, got {bad!r}")
        if periodic:
            if not terms:
                raise ContractError("a periodic strategy needs a non-empty pattern")
            terms = _primitive(terms)
        self.n_cells = n_cells
        self._terms = terms
        self._periodic = periodic

    @classmethod
    def finite(cls, terms: Iterable[int], n_cells: int) -> "Strategy":
        return cls(terms, n_cells)

    @classmethod
    def periodic(cls, pattern: Iterable[int], n_cells: int) -> "Strategy":
        return cls(pattern, n_cells, periodic=True)

    def _derived(self, terms: tuple[int, ...]) -> "Strategy":
        """Same kind and cell count over ``terms``, already checked."""
        s = object.__new__(Strategy)
        s.n_cells, s._terms, s._periodic = self.n_cells, terms, self._periodic
        return s

    # sequence contract ---------------------------------------------------

    def term(self, i: int) -> int:
        """The strategy term at 0-based position ``i``."""
        if not isinstance(i, int) or i < 0:
            raise ContractError(f"term positions are non-negative integers, got {i!r}")
        if self._periodic:
            return self._terms[i % len(self._terms)]
        if i >= len(self._terms):
            raise IterationBudgetError(
                f"strategy holds {len(self._terms)} terms, strategy term {i} was requested"
            )
        return self._terms[i]

    def prefix(self, n: int) -> tuple[int, ...]:
        """The first ``n`` terms."""
        if not isinstance(n, int) or n < 0:
            raise ContractError(f"prefix length must be a non-negative integer, got {n!r}")
        if self._periodic:
            q, r = divmod(n, len(self._terms))
            return self._terms * q + self._terms[:r]
        if n > len(self._terms):
            raise IterationBudgetError(
                f"strategy holds {len(self._terms)} terms, {n} were requested"
            )
        return self._terms[:n]

    def shift(self, k: int = 1) -> "Strategy":
        """Drop the first ``k`` terms."""
        if not isinstance(k, int) or k < 0:
            raise ContractError(f"shift count must be a non-negative integer, got {k!r}")
        if k == 0:
            return self
        if self._periodic:
            r = k % len(self._terms)
            return self._derived(self._terms[r:] + self._terms[:r])
        return self._derived(self._terms[k:])

    @property
    def kind(self) -> str:
        return "periodic" if self._periodic else "finite"

    @property
    def length(self) -> int | None:
        """Number of available terms, or None when unbounded."""
        return None if self._periodic else len(self._terms)

    @property
    def pattern(self) -> tuple[int, ...] | None:
        return self._terms if self._periodic else None

    def describe(self) -> dict:
        """A JSON-ready summary used in reports."""
        if self._periodic:
            return {"kind": "periodic", "pattern": list(self._terms)}
        return {"kind": "finite", "length": len(self._terms), "terms": list(self._terms[:64])}

    # value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Strategy):
            return NotImplemented
        return ((self.n_cells, self._periodic, self._terms)
                == (other.n_cells, other._periodic, other._terms))

    def __hash__(self) -> int:
        return hash((self.n_cells, self._periodic, self._terms))

    def __repr__(self) -> str:
        if self._periodic:
            return f"Strategy.periodic({list(self._terms)}, n_cells={self.n_cells})"
        head = list(self._terms[:8])
        tail = "..." if len(self._terms) > 8 else ""
        return f"Strategy.finite({head}{tail}, n_cells={self.n_cells})"


def _primitive(pattern: tuple[int, ...]) -> tuple[int, ...]:
    """Shortest pattern generating the same repeated sequence."""
    n = len(pattern)
    for p in range(1, n + 1):
        if n % p == 0 and pattern == pattern[:p] * (n // p):
            return pattern[:p]
    return pattern


@dataclass(frozen=True)
class SystemPoint:
    """A point of the phase space: a strategy paired with a state."""

    strategy: Strategy
    state: BitState

    def __post_init__(self) -> None:
        if self.strategy.n_cells != self.state.n_cells:
            raise ContractError(
                f"strategy is over {self.strategy.n_cells} cells, "
                f"state has {self.state.n_cells}"
            )

    @property
    def n_cells(self) -> int:
        return self.state.n_cells


IterationFunction = Callable[[BitState], BitState]
"""A pure total map from states to states on a fixed cell count."""


def vector_negation(state: BitState) -> BitState:
    """Flip every cell: the update map used by the hiding scheme."""
    mask = (1 << state.n_cells) - 1
    return BitState(state.value ^ mask, state.n_cells)


def apply_component(f: IterationFunction, k: int, state: BitState) -> BitState:
    """Overwrite cell ``k`` with ``f(state)`` at that cell; keep the rest.

    This is the single-cell update the whole system is built from.
    """
    if not 1 <= k <= state.n_cells:
        raise ContractError(f"cell index {k} out of range 1..{state.n_cells}")
    image = f(state)
    if not isinstance(image, BitState) or image.n_cells != state.n_cells:
        raise ContractError("update map must return a state with the same cell count")
    bit = (image.value >> (k - 1)) & 1
    value = (state.value & ~(1 << (k - 1))) | (bit << (k - 1))
    return BitState(value, state.n_cells)


def step(f: IterationFunction, point: SystemPoint) -> SystemPoint:
    """One step of the full system: update the head cell, shift the strategy."""
    head = point.strategy.term(0)
    return SystemPoint(point.strategy.shift(1), apply_component(f, head, point.state))


def iterate(f: IterationFunction, initial: BitState, strategy: Strategy,
            n_iter: int) -> BitState:
    """Fold ``n_iter`` steps of the system, returning the final state.

    For :func:`vector_negation` the fold collapses to XOR-ing the start
    state with the parity mask of the selected cells (updating a cell to
    its negation is a plain toggle).  Past a short prefix the mask is the
    per-cell term count mod 2, counted in one vectorised pass, which keeps
    large budgets cheap.  The shortcut is semantically identical to the
    generic fold and the test suite holds the two routes equal.
    """
    if not isinstance(n_iter, int) or n_iter < 0:
        raise ContractError(f"n_iter must be a non-negative integer, got {n_iter!r}")
    if strategy.n_cells != initial.n_cells:
        raise ContractError(
            f"strategy is over {strategy.n_cells} cells, state has {initial.n_cells}"
        )
    if f is vector_negation:
        n = initial.n_cells
        terms = strategy.prefix(n_iter)
        if n_iter <= _SHORT_FOLD:
            mask = 0
            for t in terms:
                mask ^= 1 << (t - 1)
        else:
            counts = np.bincount(np.fromiter(terms, dtype=np.intp, count=n_iter) - 1,
                                 minlength=n)
            mask = int.from_bytes(
                np.packbits(counts & 1, bitorder="little").tobytes(), "little")
        return BitState(initial.value ^ mask, n)
    state = initial
    for t in strategy.prefix(n_iter):
        state = apply_component(f, t, state)
    return state


class TruncatedDistance(NamedTuple):
    """A distance computed from finitely many strategy terms.

    ``value`` underestimates the true distance by at most ``error_bound``.
    """

    value: float
    error_bound: float


def state_distance(a: BitState, b: BitState) -> int:
    """Hamming distance between two states of equal cell count."""
    if a.n_cells != b.n_cells:
        raise ContractError(f"cell counts differ: {a.n_cells} vs {b.n_cells}")
    return (a.value ^ b.value).bit_count()


def strategy_distance(a: Strategy, b: Strategy, depth: int = DEFAULT_DEPTH) -> TruncatedDistance:
    """Decaying-series distance between strategies, truncated at ``depth`` terms.

    The k-th compared term pair contributes ``(9/N) * |a_k - b_k| / 10^k``
    with the first pair at weight ``1/10``, so the value always sits in
    ``[0, 1)`` and is zero exactly when the compared prefixes agree.  The
    discarded tail is worth at most ``(N - 1) / (N * 10^depth)``, which is
    returned as the error bound.
    """
    if a.n_cells != b.n_cells:
        raise ContractError(f"cell counts differ: {a.n_cells} vs {b.n_cells}")
    if not isinstance(depth, int) or depth < 0:
        raise ContractError(f"depth must be a non-negative integer, got {depth!r}")
    n = a.n_cells
    total = 0.0
    for j in reversed(range(depth)):
        total += abs(a.term(j) - b.term(j)) / 10.0 ** (j + 1)
    return TruncatedDistance(9.0 * total / n, (n - 1) / (n * 10.0 ** depth))


def point_distance(a: SystemPoint, b: SystemPoint, depth: int = DEFAULT_DEPTH) -> TruncatedDistance:
    """Sum of the state and strategy distances.

    The integer part is carried by the state distance (the strategy part
    stays below 1), so distinct states force a distance of at least 1.
    """
    ds = strategy_distance(a.strategy, b.strategy, depth)
    return TruncatedDistance(state_distance(a.state, b.state) + ds.value, ds.error_bound)
