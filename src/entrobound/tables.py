"""Classical conditional probability tables over (side-information, basis) contexts.

A table holds one row of outcome probabilities per context, where a context
is a pair of a preparation label ``k`` and a basis-string label ``theta``.
The context weight is the joint probability of that pair, so the weights sum
to one across the whole table and each outcome row sums to one on its own.

The on-disk format consumed by the command line interface is a JSON document

    {"contexts": [{"k": str, "theta": str, "weight": num, "p_x": [num, ...]}, ...]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Probabilities below this are treated as exact zeros: measurement simulation
# produces exact zeros up to rounding, and log-of-zero noise must not leak in.
ZERO_PROB = 1e-15

# Normalisation drift up to this is silently corrected by rescaling; larger
# deviations indicate a construction bug and raise.
NORM_TOL = 1e-9

_ENTRY_TOL = 1e-12


@dataclass(frozen=True)
class Context:
    """One (k, theta) conditioning context and its outcome distribution."""

    k: str
    theta: str
    weight: float
    outcome_probs: tuple[float, ...]


def _checked_weights(weights: np.ndarray) -> np.ndarray:
    """Checked, normalised copy of a ``(tables, contexts)`` weight stack.

    Raises when a weight is negative beyond rounding or not finite, or when
    a table's weights sum to 1 only beyond ``NORM_TOL``; weights below
    ``ZERO_PROB`` become exact zeros before each sum is renormalised to 1.
    A valid stack is decided by two whole-stack reductions, its least weight
    and its largest deviation of a sum from 1 (a NaN fails both, an
    infinite weight the second). Only when that verdict fails does
    :func:`_refuse_weights` check weight by weight, to name the first
    problem.
    """
    cleaned = np.where(weights < ZERO_PROB, 0.0, weights)
    with np.errstate(over="ignore"):  # an infinite total fails the verdict below
        totals = cleaned.sum(axis=1)
    if not (
        weights.size
        and weights.min() >= -_ENTRY_TOL
        and np.abs(totals - 1.0).max() <= NORM_TOL
    ):
        _refuse_weights(weights, totals)
    return cleaned / totals[:, None]


def _refuse_weights(weights: np.ndarray, totals: np.ndarray) -> None:
    """Raise at the first bad weight, else at the first table whose ``totals`` is off 1."""
    finite = np.isfinite(weights)
    bad = ~finite | (weights < -_ENTRY_TOL)
    if np.any(bad):
        t, i = np.argwhere(bad)[0]
        problem = "is negative" if finite[t, i] else "is not finite"
        raise ValueError(f"contexts[{i}].weight = {float(weights[t, i])!r} {problem}")
    off = np.abs(totals - 1.0) > NORM_TOL
    if np.any(off):
        total = float(totals[np.argmax(off)])
        raise ValueError(f"context weights sum to {total!r}, expected 1 within {NORM_TOL}")


def _checked_rows(probs: np.ndarray) -> np.ndarray:
    """Checked, normalised copy of a ``(tables, contexts, outcomes)`` row stack.

    Row ``i`` of a table is reported as ``contexts[i].p_x``: an entry
    outside [0, 1] beyond rounding (or not finite) raises, as does a row
    that sums to 1 only beyond ``NORM_TOL``. Entries below ``ZERO_PROB``
    become exact zeros, entries just above 1 are clipped, and each row is
    renormalised. A valid stack is decided by three whole-stack reductions:
    its least and largest entries (a NaN fails both) and its largest
    deviation of a row sum from 1. Only when that verdict fails does
    :func:`_refuse_rows` check row by row and report the first offending
    row, an entry before its sum.
    """
    cleaned = np.minimum(np.where(probs < ZERO_PROB, 0.0, probs), 1.0)
    totals = cleaned.sum(axis=2)
    if not (
        probs.size
        and probs.min() >= -_ENTRY_TOL and probs.max() <= 1.0 + _ENTRY_TOL
        and np.abs(totals - 1.0).max() <= NORM_TOL
    ):
        _refuse_rows(probs, totals)
    return cleaned / totals[..., None]


def _refuse_rows(probs: np.ndarray, totals: np.ndarray) -> None:
    """Raise at the first row with an entry outside [0, 1] or a ``totals`` entry off 1."""
    bad_entry = ~((probs >= -_ENTRY_TOL) & (probs <= 1.0 + _ENTRY_TOL))
    bad_row = bad_entry.any(axis=2) | (np.abs(totals - 1.0) > NORM_TOL)
    if np.any(bad_row):
        t, i = np.argwhere(bad_row)[0]
        if bad_entry[t, i].any():
            j = int(np.argmax(bad_entry[t, i]))
            entry = float(probs[t, i, j])
            raise ValueError(f"contexts[{i}].p_x[{j}] = {entry!r} is not a probability")
        raise ValueError(
            f"contexts[{i}].p_x sums to {float(totals[t, i])!r}, expected 1 within {NORM_TOL}"
        )


def validated_arrays(weights, probs) -> tuple[np.ndarray, np.ndarray]:
    """Checked, normalised, read-only copies of table weights and outcome rows.

    The one validation pass behind every table. ``probs`` has shape
    ``(..., contexts, outcomes)`` and ``weights`` shape ``(..., contexts)``;
    leading axes index a stack of same-size tables, each checked as a table
    of its own, and messages name the offending field of that table. A
    valid stack is decided by a few whole-stack reductions; the per-entry
    checks run only when that verdict fails, to name the problem.
    """
    # C order: np.where keeps its input's layout, and a sum over F order adds in another order
    weights = np.asarray(weights, dtype=float, order="C")
    probs = np.asarray(probs, dtype=float, order="C")
    if probs.ndim < 2 or weights.shape != probs.shape[:-1]:
        raise ValueError(
            f"weights of shape {weights.shape} do not match outcome rows of shape {probs.shape}"
        )
    checked_weights = _checked_weights(weights.reshape(-1, weights.shape[-1]))
    checked_probs = _checked_rows(probs.reshape(-1, *probs.shape[-2:]))
    checked_weights = checked_weights.reshape(weights.shape)
    checked_probs = checked_probs.reshape(probs.shape)
    checked_weights.setflags(write=False)
    checked_probs.setflags(write=False)
    return checked_weights, checked_probs


def _fits_float(value) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


class ConditionalTable:
    """Validated, immutable collection of outcome distributions per context.

    A table is its labels plus the read-only arrays that one pass of
    :func:`validated_arrays` returned: all contexts share one outcome
    alphabet size, and weights and rows are renormalised when they drift
    from 1 by no more than ``NORM_TOL`` and rejected beyond that. Build one
    with :meth:`from_arrays` or from ``Context`` records; ``contexts`` is a
    view, built only when read.
    """

    def __init__(self, contexts: Iterable[Context]):
        ctx = list(contexts)
        self._set(
            [c.k for c in ctx],
            [c.theta for c in ctx],
            [c.weight for c in ctx],
            [c.outcome_probs for c in ctx],
        )

    @classmethod
    def from_arrays(cls, ks, thetas, weights, probs) -> "ConditionalTable":
        """Table from parallel label sequences, a weight vector and a row matrix.

        ``probs`` is (contexts x outcomes), as an array or a sequence of rows,
        validated once, in one vectorised pass, with the checks and messages
        of the ``Context`` constructor; no ``Context`` is built.
        """
        table = cls.__new__(cls)
        table._set(ks, thetas, weights, probs)
        return table

    def _set(self, ks, thetas, weights, rows) -> None:
        """Shape checks of every constructor, then one pass of :func:`validated_arrays`.

        An integer too large for a float is only looked for once a conversion
        has overflowed, and is then reported by field.
        """
        try:
            probs = np.array(rows, dtype=float)
        except ValueError:
            sizes = {len(row) for row in rows}
            if len(sizes) > 1:
                raise ValueError(
                    f"contexts disagree on outcome alphabet size: {sorted(sizes)}"
                ) from None
            raise
        except OverflowError:
            i, j = next(
                (i, j)
                for i, row in enumerate(rows)
                for j, p in enumerate(row)
                if not _fits_float(p)
            )
            raise ValueError(f"contexts[{i}].p_x[{j}] is too large for a float") from None
        if probs.ndim > 0 and len(probs) == 0:
            raise ValueError("conditional table must contain at least one context")
        if probs.ndim != 2:
            raise ValueError(
                "outcome probabilities must form a (contexts x outcomes) matrix, "
                f"got shape {probs.shape}"
            )
        if probs.shape[1] == 0:
            raise ValueError("contexts must have a nonempty outcome alphabet")
        try:
            weights = np.array(weights, dtype=float)
        except OverflowError:
            i = next(i for i, weight in enumerate(weights) if not _fits_float(weight))
            raise ValueError(f"contexts[{i}].weight is too large for a float") from None
        if weights.ndim != 1:
            raise ValueError(f"context weights must form a vector, got shape {weights.shape}")
        if len(weights) != len(probs):
            raise ValueError(f"{len(weights)} context weights for {len(probs)} outcome rows")
        self._weights, self._probs = validated_arrays(weights, probs)
        self._ks = tuple(ks)
        self._thetas = tuple(thetas)
        if not len(self._ks) == len(self._thetas) == len(self._weights):
            raise ValueError(
                f"{len(self._ks)} k labels and {len(self._thetas)} theta labels "
                f"for {len(self._weights)} contexts"
            )
        self._contexts: tuple[Context, ...] | None = None

    @property
    def contexts(self) -> tuple[Context, ...]:
        if self._contexts is None:
            records = zip(self._ks, self._thetas, self._weights.tolist(), self._probs.tolist())
            self._contexts = tuple(Context(k, t, w, tuple(p)) for k, t, w, p in records)
        return self._contexts

    @property
    def num_outcomes(self) -> int:
        return self._probs.shape[1]

    @property
    def weight_vector(self) -> np.ndarray:
        """Read-only context weights, aligned with ``contexts``."""
        return self._weights

    @property
    def prob_matrix(self) -> np.ndarray:
        """Read-only (contexts x outcomes) probability matrix."""
        return self._probs

    def __len__(self) -> int:
        return len(self._weights)

    def subtables_by_k(self) -> dict[str, "ConditionalTable"]:
        """Per-k tables, weights renormalised within each group; zero-weight groups are dropped."""
        groups: dict[str, list[int]] = {}
        for i, k in enumerate(self._ks):
            groups.setdefault(k, []).append(i)
        out = {}
        for k, rows in groups.items():
            weights = self._weights[rows]
            total = weights.sum()
            if total > 0.0:
                thetas = [self._thetas[i] for i in rows]
                out[k] = ConditionalTable.from_arrays(
                    [k] * len(rows), thetas, weights / total, self._probs[rows]
                )
        return out

    def to_json_dict(self) -> dict:
        records = zip(self._ks, self._thetas, self._weights.tolist(), self._probs.tolist())
        return {"contexts": [{"k": k, "theta": t, "weight": w, "p_x": p} for k, t, w, p in records]}


def table_from_json_dict(doc: object) -> ConditionalTable:
    """Build a table from a parsed JSON document, naming any offending field."""
    if not isinstance(doc, dict):
        raise ValueError("table document must be a JSON object")
    if "contexts" not in doc:
        raise ValueError('table document is missing the "contexts" field')
    raw = doc["contexts"]
    if not isinstance(raw, list):
        raise ValueError('"contexts" must be a JSON array')
    ks, thetas, weights, rows = [], [], [], []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"contexts[{i}] must be a JSON object")
        for field in ("k", "theta", "weight", "p_x"):
            if field not in entry:
                raise ValueError(f"contexts[{i}] is missing the {field!r} field")
        if not isinstance(entry["k"], str):
            raise ValueError(f"contexts[{i}].k must be a string")
        if not isinstance(entry["theta"], str):
            raise ValueError(f"contexts[{i}].theta must be a string")
        if not isinstance(entry["weight"], (int, float)) or isinstance(entry["weight"], bool):
            raise ValueError(f"contexts[{i}].weight must be a number")
        p_x = entry["p_x"]
        if not isinstance(p_x, list) or not all(
            isinstance(p, (int, float)) and not isinstance(p, bool) for p in p_x
        ):
            raise ValueError(f"contexts[{i}].p_x must be an array of numbers")
        ks.append(entry["k"])
        thetas.append(entry["theta"])
        weights.append(entry["weight"])
        rows.append(p_x)
    return ConditionalTable.from_arrays(ks, thetas, weights, rows)


def load_table(path: str) -> ConditionalTable:
    """Load a table from a JSON file, with diagnostics naming bad fields."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"table file {path!r} is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ValueError(f"table file {path!r} is nested too deeply to parse") from None
    return table_from_json_dict(doc)


def uniform_table(num_bases: int, num_outcomes: int, k: str = "0") -> ConditionalTable:
    """Table with uniform outcomes in every one of ``num_bases`` contexts."""
    thetas = [str(theta) for theta in range(num_bases)]
    weights = [1.0 / num_bases for _ in thetas]
    row = [1.0 / num_outcomes for _ in range(num_outcomes)]
    return ConditionalTable.from_arrays([k] * num_bases, thetas, weights, [row] * num_bases)
