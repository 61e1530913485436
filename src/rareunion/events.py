"""Event-pattern algebra for unions of dependent events.

A *pattern* is a boolean vector recording which of the events
``A_1, ..., A_d`` occurred in one realization; its sum is the exceedance
count ``E``.  This module provides the exact integer identities used by
the estimators (binomial event-count terms, alternating residual terms),
the disjoint partition of ``{E >= m}`` into cells indexed by m-subsets,
and exhaustive enumeration oracles over finite pattern distributions.

Events are indexed from 0 internally; serialized forms are 1-based.
Pattern enumeration order is lexicographic with event 0 as the most
significant bit: index ``k`` has bit ``i`` set iff ``(k >> (d-1-i)) & 1``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ModelSpecError, _dimension

__all__ = [
    "binomial_term",
    "residual_term",
    "residual_term_table",
    "exceedance_count",
    "payoff_alternating_table",
    "enumerate_patterns",
    "PartitionCell",
    "partition_cells",
    "cell_for_pattern",
    "brute_force_union",
    "brute_force_tail_expectation",
]

def binomial_term(count: int, order: int) -> int:
    """``C(E, i) * 1{E >= i}`` with exact integer arithmetic.

    Summing this over one realization counts the i-subsets of occurred
    events, which is what ties the inclusion-exclusion summands to the
    exceedance count.
    """
    return math.comb(_dimension(count, "count", least=0), _dimension(order, "order", least=0))


def residual_term(count: int, order: int) -> int:
    """Alternating remainder ``[sum_{i<=n} (-1)^i C(E, i)] * 1{E >= n+1}``.

    This is the random term left over after the first ``n`` layers of the
    inclusion-exclusion expansion are computed deterministically.  It
    vanishes unless at least ``n + 1`` events occurred.
    """
    count, order = _dimension(count, "count", least=0), _dimension(order, "order", least=0)
    return 0 if count <= order else (-1) ** order * math.comb(count - 1, order)


def residual_term_table(d: int, order: int) -> np.ndarray:
    """``residual_term(E, order)`` for ``E = 0..d``, as floats.

    The alternating sums are exact integers converted once, so vectorized
    estimators can index the table by observed counts.
    """
    return payoff_alternating_table(d, order) * (np.arange(d + 1) > order)


def payoff_alternating_table(d: int, order: int) -> np.ndarray:
    """``sum_{i<=order} (-1)^i C(E, i)`` for ``E = 0..d`` (no indicator).

    Pascal's rule telescopes the sum to ``(-1)^order C(E - 1, order)`` for
    ``E >= 1``; at ``E = 0`` it is 1.
    """
    d, order = _dimension(d, "d", least=0), _dimension(order, "order", least=0)
    return np.array([1] + [(-1) ** order * math.comb(e - 1, order) for e in range(1, d + 1)], dtype=float)


def exceedance_count(patterns) -> np.ndarray:
    """The exceedance count ``E`` of each row of a ``(rows, d)`` boolean
    pattern array, exact for any d, in the smallest unsigned type holding d.

    The rows are read as bytes and summed by ``einsum`` in that type: on
    narrow rows, a sum of booleans along the short axis widens every
    element to ``intp`` and is several times slower (4-6x at d = 4)."""
    patterns = np.asarray(patterns, dtype=bool)
    return np.einsum("ij->i", patterns.view(np.uint8), dtype=np.min_scalar_type(patterns.shape[1]))


@lru_cache(maxsize=None)
def _patterns_cached(d: int) -> np.ndarray:
    idx = np.arange(1 << d, dtype=np.uint32)
    cols = [(idx >> (d - 1 - i)) & 1 for i in range(d)]
    out = np.stack(cols, axis=1).astype(bool)
    out.setflags(write=False)
    return out


def enumerate_patterns(d: int) -> np.ndarray:
    """All ``2**d`` patterns as a read-only boolean array in lexicographic order."""
    d = _dimension(d)
    if d > 20:
        raise ModelSpecError(f"pattern enumeration supports 1 <= d <= 20, got {d}")
    return _patterns_cached(d)


@dataclass(frozen=True)
class PartitionCell:
    """One cell ``B_I C_I`` of the disjoint decomposition of ``{E >= m}``.

    ``events`` is the index set I (all must occur); ``blocked`` are the
    indices outside I that precede max(I) in the event order and must all
    fail.  Together the cells with ``|I| = m`` partition ``{E >= m}``.
    """

    events: tuple[int, ...]
    blocked: tuple[int, ...]

    def required_mask(self, patterns: np.ndarray) -> np.ndarray:
        """1{B_I}: all events in the cell's index set occurred."""
        return patterns[:, list(self.events)].all(axis=1)

    def blocked_clear(self, patterns: np.ndarray) -> np.ndarray:
        """1{C_I}: none of the blocked indices occurred."""
        if not self.blocked:
            return np.ones(patterns.shape[0], dtype=bool)
        return ~patterns[:, list(self.blocked)].any(axis=1)

    def contains(self, patterns: np.ndarray) -> np.ndarray:
        """1{B_I C_I}."""
        return self.required_mask(patterns) & self.blocked_clear(patterns)


def partition_cells(d: int, m: int) -> list[PartitionCell]:
    """All ``C(d, m)`` cells partitioning ``{E >= m}``.

    Events are scanned in index order: the cell of an index set I blocks
    every index below max(I) that is not in I.
    """
    d, m = _dimension(d), _dimension(m, "m")
    if m > d:
        raise ModelSpecError(f"need 1 <= m <= d, got m={m}, d={d}")
    cells = []
    for combo in itertools.combinations(range(d), m):
        blocked = tuple(e for e in range(combo[-1]) if e not in combo)
        cells.append(PartitionCell(events=combo, blocked=blocked))
    return cells


def cell_for_pattern(pattern, m: int) -> Optional[PartitionCell]:
    """The unique cell containing ``pattern``, or None when fewer than m events occurred.

    The containing cell's index set consists of the first m occurred events
    in index order; all earlier non-occurrences are then blocked indices.
    """
    m = _dimension(m, "m")
    arr = np.asarray(pattern, dtype=bool)
    if arr.ndim != 1 or arr.size < 1:
        raise ModelSpecError("a pattern must be a non-empty boolean vector")
    hits = np.flatnonzero(arr)
    if hits.size < m:
        return None
    chosen = tuple(int(e) for e in hits[:m])
    blocked = tuple(int(e) for e in np.flatnonzero(~arr[: chosen[-1]]))
    return PartitionCell(events=chosen, blocked=blocked)


def _finite_model(model):
    """``model`` itself when it is a :class:`FinitePatternModel`, the one law
    an exhaustive expectation can enumerate."""
    from .models import FinitePatternModel  # not at module level: models imports events

    if not isinstance(model, FinitePatternModel):
        raise ModelSpecError(
            f"exhaustive expectations need a finite pattern model, got {type(model).__name__}"
        )
    return model


def brute_force_union(model) -> float:
    """Exact union probability of a :class:`FinitePatternModel`."""
    return brute_force_tail_expectation(model, 1)


def brute_force_tail_expectation(model, n: int, payoff: Optional[Callable] = None) -> float:
    """Exact ``E[Y 1{E >= n}]`` over a :class:`FinitePatternModel`.

    ``payoff`` is called as ``payoff(x, patterns)`` on the full enumeration
    (with x the patterns as floats) and must return one value per pattern;
    None means Y identically one.
    """
    model = _finite_model(model)
    n = _dimension(n, "n", least=0)
    patterns = model.patterns
    counts = exceedance_count(patterns)
    if payoff is None:
        y = np.ones(patterns.shape[0])
    else:
        y = np.asarray(payoff(patterns.astype(float), patterns), dtype=float)
    mask = counts >= n
    return float((model.pmf[mask] * y[mask]).sum())
