"""Conditional entropies of finite probability tables, all in bits (base 2).

The three quantities share one averaging structure: a table assigns a weight
to each context and an outcome distribution within it. Min-entropy averages
the best guessing probability, the Renyi family averages alpha-th powers of
the outcome probabilities, and the Shannon form averages per-context
entropies. Renyi orders are restricted to (1, 2] because that is the range
the min-entropy chaining step accepts. Every Renyi entropy in the package,
of tables, trials and Bloch grid points, comes from one cancellation-free
reduction here, accurate down to the Shannon limit alpha -> 1. The one
exception is :func:`entrobound.verify.surface_entropy`, ``-log2(P)/s`` of a
power-sum value, whose rounding error grows as ``1/s``; it is kept for the
tests' checks of the Bloch surfaces.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import _LN2, _require_alpha
from .tables import ConditionalTable


def cond_min_entropy(table: ConditionalTable) -> float:
    """-log2 of the weighted average best guessing probability.

    Lies in [0, log2 of the alphabet size]: 0 for deterministic tables,
    the full log for uniform ones.
    """
    guess = float(np.dot(table.weight_vector, table.prob_matrix.max(axis=1)))
    return -math.log2(guess) + 0.0  # + 0.0 turns -log2(1) = -0.0 into 0.0


def _term(p, s: float) -> np.ndarray:
    """``p expm1(s ln p)`` elementwise: the excess term of one entry.

    Terms share the sign of ``s``, so their sums keep their relative accuracy
    at any order; p = 0 gives ``0 * expm1(-inf) = -0.0`` and needs no mask.
    """
    with np.errstate(divide="ignore"):
        return p * np.expm1(s * np.log(p))


def _row_excess(probs: np.ndarray, s: float) -> np.ndarray:
    """Per-row ``sum_x p expm1(s ln p)``: the power sum of order 1+s minus 1, uncancelled."""
    return _term(probs, s).sum(axis=-1)


def _excess_bits(excess, s: float) -> np.ndarray:
    """Renyi entropy ``-log1p(E) / (s ln 2)`` of order 1+s, in bits, of a table excess E."""
    return -np.log1p(excess) / (s * _LN2)


def _excess_entropies(weights, excess: np.ndarray, s: float) -> np.ndarray:
    """Renyi entropies of row excesses on the last axis: bits of ``sum_c w_c e_c``."""
    return _excess_bits((excess * weights).sum(axis=-1), s)


def renyi_power_sum(table: ConditionalTable, alpha: float) -> float:
    """Weighted sum of alpha-th powers of the outcome probabilities."""
    s = _require_alpha(alpha) - 1.0
    return 1.0 + float(np.dot(table.weight_vector, _row_excess(table.prob_matrix, s)))


def renyi_entropies(weights: np.ndarray, probs: np.ndarray, alpha: float) -> np.ndarray:
    """Conditional Renyi entropies of order alpha of a stack of tables.

    ``probs`` holds validated rows with shape (..., contexts, outcomes) and
    ``weights`` broadcasts against (..., contexts); the result has the
    leading shape. Each entry is ``log2`` of the weighted power sum over
    ``1 - alpha``, computed from the row excesses of :func:`_row_excess`.
    """
    s = _require_alpha(alpha) - 1.0
    return _excess_entropies(weights, _row_excess(probs, s), s)


def cond_renyi_entropy(table: ConditionalTable, alpha: float) -> float:
    """Conditional Renyi entropy of order alpha in (1, 2].

    Meets :func:`cond_shannon_entropy` as alpha -> 1, and is never smaller
    than :func:`cond_min_entropy` of the same table.
    """
    # + 0.0 turns a deterministic table's -log1p(0) / (s ln 2) = -0.0 into 0.0
    return float(renyi_entropies(table.weight_vector, table.prob_matrix, alpha)) + 0.0


def cond_shannon_entropy(table: ConditionalTable) -> float:
    """Weighted average of per-context Shannon entropies, with 0 log 0 = 0."""
    probs = table.prob_matrix
    terms = np.zeros_like(probs)
    mask = probs > 0.0
    terms[mask] = -probs[mask] * np.log2(probs[mask])
    return float(np.dot(table.weight_vector, terms.sum(axis=1)))
