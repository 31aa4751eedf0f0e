"""Conditional entropies of finite probability tables, all in bits (base 2).

The three quantities share one averaging structure: a table assigns a weight
to each context and an outcome distribution within it. Min-entropy averages
the best guessing probability, the Renyi family averages alpha-th powers of
the outcome probabilities, and the Shannon form averages per-context
entropies. Renyi orders are restricted to (1, 2] because that is the range
the min-entropy chaining step accepts.
"""

from __future__ import annotations

import math

import numpy as np

from .tables import ConditionalTable


def _require_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"Renyi order alpha must lie in (1, 2], got {alpha!r}")
    return alpha


def cond_min_entropy(table: ConditionalTable) -> float:
    """-log2 of the weighted average best guessing probability.

    Lies in [0, log2 of the alphabet size]: 0 for deterministic tables,
    the full log for uniform ones.
    """
    guess = float(np.dot(table.weight_vector, table.prob_matrix.max(axis=1)))
    return -math.log2(guess)


def _power_sums(weights: np.ndarray, probs: np.ndarray, alpha: float) -> np.ndarray:
    return ((probs**alpha).sum(axis=-1) * weights).sum(axis=-1)


def renyi_power_sum(table: ConditionalTable, alpha: float) -> float:
    """Weighted sum of alpha-th powers of the outcome probabilities."""
    alpha = _require_alpha(alpha)
    return float(_power_sums(table.weight_vector, table.prob_matrix, alpha))


def renyi_entropies(weights: np.ndarray, probs: np.ndarray, alpha: float) -> np.ndarray:
    """Conditional Renyi entropies of order alpha of a stack of tables.

    ``probs`` holds validated rows with shape (..., contexts, outcomes) and
    ``weights`` broadcasts against (..., contexts); the result has the
    leading shape. Each entry is log2 of the weighted power sum, scaled by
    1/(1 - alpha).
    """
    alpha = _require_alpha(alpha)
    return np.log2(_power_sums(weights, probs, alpha)) / (1.0 - alpha)


def cond_renyi_entropy(table: ConditionalTable, alpha: float) -> float:
    """Conditional Renyi entropy of order alpha in (1, 2].

    Computed as log2 of the weighted power sum, scaled by 1/(1 - alpha).
    Never smaller than :func:`cond_min_entropy` of the same table.
    """
    return float(renyi_entropies(table.weight_vector, table.prob_matrix, alpha))


def cond_shannon_entropy(table: ConditionalTable) -> float:
    """Weighted average of per-context Shannon entropies, with 0 log 0 = 0."""
    probs = table.prob_matrix
    terms = np.zeros_like(probs)
    mask = probs > 0.0
    terms[mask] = -probs[mask] * np.log2(probs[mask])
    return float(np.dot(table.weight_vector, terms.sum(axis=1)))


def binary_entropy(p: float) -> float:
    """Shannon entropy in bits of a coin with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
