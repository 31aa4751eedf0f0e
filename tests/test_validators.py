"""The validators' whole-stack verdicts against their entry-by-entry references.

``validated_densities`` and the weight and row checks of
``validated_arrays`` decide a valid stack by a few whole-stack
reductions (for states, one Cholesky factorisation) and run their per-entry
checks only when that verdict fails. On any input each must return the
reference's array bit for bit, or raise the reference's ``ValueError`` text.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrobound import tables
from entrobound.simulator import ATOL, validated_densities
from entrobound.tables import NORM_TOL, validated_arrays
from helpers import (
    reference_checked_rows,
    reference_checked_weights,
    reference_random_density,
    reference_validated_densities,
)

TAU = ATOL  # the tolerance of a state whose entries lie in [-1, 1]


def cholesky_margin(dim: int) -> float:
    """``k_d`` of the state validator's docstring: ``delta = k_d * tau``."""
    return (dim**3 + 4 * dim * (dim + 2) + 4) * 2.0**-53 / ATOL


def bits(array: np.ndarray):
    return array.dtype.str, array.shape, array.tobytes()


def outcome(fn, *args):
    """What a validator does with ``args``: its arrays' bits, or its message.

    Floating-point warnings (an infinite sum, say) are not compared.
    """
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except ValueError as exc:
        return str(exc)
    return [bits(a) for a in out] if isinstance(out, tuple) else bits(out)


def assert_same(fn, reference, *args):
    assert outcome(fn, *args) == outcome(reference, *args)


def reference_arrays(weights, probs):
    """``validated_arrays`` as it was: both checks on the stacks as given."""
    weights = np.asarray(weights, dtype=float)
    probs = np.asarray(probs, dtype=float)
    checked_weights = reference_checked_weights(weights.reshape(-1, weights.shape[-1]))
    checked_probs = reference_checked_rows(probs.reshape(-1, *probs.shape[-2:]))
    return checked_weights.reshape(weights.shape), checked_probs.reshape(probs.shape)


# ---------------------------------------------------------------- states


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def planted_state(dim: int, lowest: float, zeros: int, seed: int) -> np.ndarray:
    """``U diag(lambda) U^dagger`` of unit trace whose least eigenvalue is ``lowest``.

    ``zeros`` further eigenvalues are 0; the rest are random and positive.
    """
    rng = np.random.default_rng(seed)
    zeros = min(zeros, dim - 2)
    positive = rng.random(dim - 1 - zeros) + 0.05
    positive *= (1.0 - lowest) / positive.sum()
    spectrum = np.concatenate([[lowest], np.zeros(zeros), positive])
    u = haar_unitary(rng, dim)
    return (u * spectrum) @ u.conj().T


def lowest_factors(dim: int) -> list[float]:
    """Planted least eigenvalues, as multiples of ``-tau``.

    Either side of the refusal threshold ``-tau``, at ``-tau + delta`` and
    ``-tau - delta``, and either side of ``-(tau - delta)``, where the
    shifted matrix that the Cholesky verdict factors becomes singular.
    """
    k = cholesky_margin(dim)
    edge = 1.0 - k
    return [1.0 - 1e-6, 1.0 + 1e-6, 1.0 - k, 1.0 + k, edge * (1.0 - 1e-6), edge * (1.0 + 1e-6)]


def state_case(dim: int, kind: str, seed: int, variant: int) -> np.ndarray:
    """One matrix of a stack: valid, planted at an eigenvalue edge, or faulty."""
    n = dim.bit_length() - 1
    if kind == "random":
        return reference_random_density(n, 1 + seed % dim, seed)
    if kind == "planted":
        factors = lowest_factors(dim)
        return planted_state(dim, -TAU * factors[variant % len(factors)], seed % dim, seed)
    matrix = reference_random_density(n, 1 + seed % dim, seed).copy()
    if kind == "non-hermitian":
        matrix[0, dim - 1] += (0.5, 2.0, 1e-3)[variant % 3] * TAU
    elif kind == "off-trace":
        matrix *= 1.0 + (0.5 * TAU, 2.0 * TAU, 0.2)[variant % 3]
    else:
        bad = (math.nan, math.inf, complex(0.0, -math.inf))[variant % 3]
        matrix[variant % dim, (variant // dim) % dim] = bad
    return matrix


KINDS = ("random", "planted", "non-hermitian", "off-trace", "non-finite")


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 4, 8, 16, 32]),
    st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(0, 2**32 - 1), st.integers(0, 63)),
        min_size=1,
        max_size=5,
    ),
)
@example(4, [("planted", 1, 1)])
@example(16, [("random", 3, 0), ("planted", 5, 3), ("off-trace", 2, 0)])
@example(8, [("random", 7, 0), ("non-hermitian", 2, 0), ("non-finite", 9, 4)])
def test_states_match_the_reference(dim, cases):
    matrices = np.stack([state_case(dim, kind, seed, variant) for kind, seed, variant in cases])
    assert_same(validated_densities, reference_validated_densities, matrices)


@pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
@pytest.mark.parametrize("variant", range(6))
def test_planted_edges_match_the_reference(dim, variant):
    # 40 seeds per edge: near -tau the reference's own verdict is decided by
    # rounding, so a shortcut accepting on the wrong side shows on some seed.
    for seed in range(40):
        matrix = planted_state(dim, -TAU * lowest_factors(dim)[variant], seed % dim, seed)
        assert_same(validated_densities, reference_validated_densities, matrix[None])


def test_the_edge_band_covers_the_trial_dimensions():
    assert cholesky_margin(16) < 1.0 <= cholesky_margin(32)


def test_valid_stacks_up_to_16_are_decided_without_eigvalsh(monkeypatch):
    stacks = [
        np.stack([reference_random_density(n, rank, 10 * n + rank) for rank in range(1, 2**n + 1)])
        for n in (1, 2, 3, 4)
    ]
    expected = [outcome(reference_validated_densities, stack) for stack in stacks]

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh ran on a valid stack")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert [outcome(validated_densities, stack) for stack in stacks] == expected


def test_states_above_16_are_decided_by_eigvalsh(monkeypatch):
    stack = np.stack([reference_random_density(5, rank, rank) for rank in (1, 7, 32)])
    expected = outcome(reference_validated_densities, stack)

    def refuse(*args, **kwargs):
        raise AssertionError("cholesky ran where its margin exceeds the tolerance")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    assert outcome(validated_densities, stack) == expected


# ---------------------------------------------------------------- probabilities and tables

# Entries at and either side of each edge the checks draw: the entry
# tolerance below 0 and above 1, the zero threshold, and non-finite values.
EDGE_ENTRIES = (
    -1e-12, np.nextafter(-1e-12, -1.0), 1.0 + 1e-12, np.nextafter(1.0 + 1e-12, 2.0),
    0.0, -0.0, 1e-15, 1e-16, 1.0, np.nextafter(1.0, 2.0), math.nan, math.inf, -math.inf,
    -0.5, 2.0,
)
# Row scales putting sums just inside and just outside 1 +- NORM_TOL.
EDGE_SCALES = tuple(1.0 + sign * NORM_TOL * f for sign in (1, -1) for f in (1 - 1e-6, 1 + 1e-6))


@st.composite
def stacks(draw, shapes):
    """Rows normalised along the last axis, with edge entries and edge row sums."""
    shape = draw(shapes)
    seed = draw(st.integers(0, 2**32 - 1))
    raw = np.random.default_rng(seed).random(shape) ** 3 + 1e-3
    rows = raw / raw.sum(axis=-1, keepdims=True)
    for _ in range(draw(st.integers(0, 3))):
        index = tuple(draw(st.integers(0, size - 1)) for size in shape)
        rows[index] = draw(st.sampled_from(EDGE_ENTRIES))
    for _ in range(draw(st.integers(0, 2))):
        index = tuple(draw(st.integers(0, size - 1)) for size in shape[:-1])
        rows[index] *= draw(st.sampled_from(EDGE_SCALES))
    return rows


def sizes(*bounds):
    return st.tuples(*(st.integers(1, bound) for bound in bounds))


@settings(max_examples=200, deadline=None)
@given(stacks(sizes(3, 10, 12)))
@example(np.array([[[0.5, 0.5 + 1e-12, -1e-12]]]))
@example(np.array([[[1.0 + 1e-12, 0.0], [0.5, 0.5 * (1 + NORM_TOL * (1 - 1e-6))]]]))
def test_rows_match_the_reference(probs):
    assert_same(tables._checked_rows, reference_checked_rows, probs)


@settings(max_examples=200, deadline=None)
@given(stacks(sizes(3, 12)))
@example(np.array([[-1e-12, 0.5, 0.5]]))
def test_weights_match_the_reference(weights):
    assert_same(tables._checked_weights, reference_checked_weights, weights)


@settings(max_examples=100, deadline=None)
@given(stacks(sizes(2, 4, 10)), st.booleans())
def test_arrays_of_any_layout_match_the_reference(probs, fortran):
    # np.where keeps the input's layout; the references sum a C-order copy
    weights = np.full(probs.shape[:2], 1.0 / probs.shape[1])
    if fortran:
        weights, probs = np.asfortranarray(weights), np.asfortranarray(probs)
    assert_same(validated_arrays, reference_arrays, weights, probs)


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 2)])
def test_empty_stacks_match_the_reference(shape):
    assert_same(tables._checked_weights, reference_checked_weights, np.zeros((1,) + shape[-1:]))
    assert_same(tables._checked_rows, reference_checked_rows, np.zeros((1,) + shape))


def test_edge_valid_tables_are_decided_by_the_verdict(monkeypatch):
    # entries exactly at -1e-12 and 1 + 1e-12, and sums just inside NORM_TOL
    inside = 1.0 + NORM_TOL * (1 - 1e-6)
    weights = np.array([[-1e-12, 0.5, 0.5], [0.25, 0.25, 0.5 * inside]])
    probs = np.array([
        [[-1e-12, 1.0], [1.0 + 1e-12, 0.0], [0.5, 0.5]],
        [[0.5, 0.5 * inside], [1.0, 0.0], [0.0, 1.0]],
    ])
    expected = outcome(reference_checked_weights, weights), outcome(reference_checked_rows, probs)

    def refuse(stack, totals):
        raise AssertionError("the per-entry diagnosis ran on a valid stack")

    monkeypatch.setattr(tables, "_refuse_weights", refuse)
    monkeypatch.setattr(tables, "_refuse_rows", refuse)
    got = outcome(tables._checked_weights, weights), outcome(tables._checked_rows, probs)
    assert got == expected
