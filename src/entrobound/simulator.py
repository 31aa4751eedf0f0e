"""Exact density-operator simulation of per-qubit basis measurements.

Everything here is dense linear algebra on 2^n dimensional matrices and is
deliberately capped at desk scale (the outcome table over all basis strings
grows as bases^n * 2^n). The n-qubit basis unitaries are built once per
(family, n) as one read-only stack; outcome tables, measurement projectors
and conditioning all read from it. States are validated on construction:
Hermitian, positive semidefinite and unit trace, each within small
tolerances scaled by the matrix norm.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .families import MeasurementFamily
from .tables import NORM_TOL, ConditionalTable, validated_arrays

ATOL = 1e-12

# Outcomes with probability at or below this cannot be conditioned on.
MIN_CONDITION_PROB = 1e-14


class DensityOperator:
    """Hermitian, PSD, unit-trace complex matrix on n qubits."""

    def __init__(self, matrix):
        arr = np.array(matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"density operator must be a square matrix, got shape {arr.shape}")
        dim = arr.shape[0]
        n_qubits = dim.bit_length() - 1
        if dim < 2 or 2**n_qubits != dim:
            raise ValueError(f"dimension must be a power of two >= 2, got {dim}")
        scale = max(1.0, float(np.max(np.abs(arr))))
        if float(np.max(np.abs(arr - arr.conj().T))) > ATOL * scale:
            raise ValueError("density operator is not Hermitian within tolerance")
        hermitized = 0.5 * (arr + arr.conj().T)
        trace = float(hermitized.trace().real)
        if abs(trace - 1.0) > ATOL * scale:
            raise ValueError(f"density operator has trace {trace!r}, expected 1")
        eigenvalues = np.linalg.eigvalsh(hermitized)
        if float(eigenvalues.min()) < -ATOL * scale:
            raise ValueError(
                f"density operator has negative eigenvalue {float(eigenvalues.min())!r}"
            )
        hermitized.setflags(write=False)
        self._matrix = hermitized
        self.dim = dim
        self.n_qubits = n_qubits

    @property
    def matrix(self) -> np.ndarray:
        """Read-only matrix entries."""
        return self._matrix

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


@dataclass(frozen=True)
class EnsembleMember:
    k: str
    probability: float
    state: DensityOperator


class StateEnsemble:
    """Labelled mixture of same-dimension states with probabilities summing to 1."""

    def __init__(self, members: Iterable[EnsembleMember]):
        members = tuple(members)
        if not members:
            raise ValueError("ensemble must contain at least one member")
        dims = {m.state.dim for m in members}
        if len(dims) != 1:
            raise ValueError(f"ensemble members disagree on dimension: {sorted(dims)}")
        total = sum(m.probability for m in members)
        if any(m.probability < 0.0 for m in members):
            raise ValueError("ensemble probabilities must be nonnegative")
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"ensemble probabilities sum to {total!r}, expected 1")
        self.members = tuple(
            EnsembleMember(m.k, m.probability / total, m.state) for m in members
        )
        self.dim = members[0].state.dim
        self.n_qubits = members[0].state.n_qubits


def _kron_stack(factors: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker products of every choice of one matrix per factor.

    Each factor is a ``(count, rows, cols)`` stack; the result stacks the
    products in lexicographic order of the choices, first factor most
    significant.
    """
    stack = np.ones((1, 1, 1), dtype=complex)
    for factor in factors:
        count = len(stack) * len(factor)
        rows, cols = stack.shape[1] * factor.shape[1], stack.shape[2] * factor.shape[2]
        stack = np.einsum("aij,bkl->abikjl", stack, factor).reshape(count, rows, cols)
    return stack


@functools.lru_cache(maxsize=None)
def _basis_unitaries(family: MeasurementFamily, n_qubits: int) -> np.ndarray:
    """Read-only ``(bases^n, 2^n, 2^n)`` stack of n-qubit basis unitaries.

    Entry ``j`` is the Kronecker product of the single-qubit unitaries of the
    ``j``-th basis string in lexicographic order (first qubit most
    significant), so column ``x`` of it is the eigenvector for outcome
    string ``x``. Built once per (family, n) on first use; only outcome
    tables, which are capped by the qubit budget, read it.
    """
    singles = np.stack([family.basis_unitary(t) for t in range(family.bases_per_qubit)])
    stack = _kron_stack([singles] * n_qubits)
    stack.setflags(write=False)
    return stack


def _basis_vector(family: MeasurementFamily, theta: Sequence[int], x: Sequence[int]) -> np.ndarray:
    """Column ``x`` of the basis unitary of ``theta``, from the single-qubit columns."""
    if len(theta) != len(x):
        raise ValueError("basis and outcome strings must have equal length")
    if len(theta) == 0:
        raise ValueError("basis string must be nonempty")
    columns = []
    for t, b in zip(theta, x):
        if b not in (0, 1):
            raise ValueError(f"outcome bit {b!r} out of range")
        columns.append(family.basis_unitary(t)[None, :, int(b), None])
    return _kron_stack(columns)[0, :, 0]


def measurement_operator(
    family: MeasurementFamily, theta: Sequence[int], x: Sequence[int]
) -> np.ndarray:
    """Rank-1 projector for outcome string ``x`` in basis string ``theta``.

    The tensor product of conjugated single-qubit projectors
    ``U |x><x| U^dagger``, formed as the outer product of column ``x`` of
    the n-qubit basis unitary with itself; conjugation (rather than
    two-sided multiplication by the same matrix) is required because the
    three-basis cycling unitary is not Hermitian.
    """
    vec = _basis_vector(family, theta, x)
    return np.outer(vec, vec.conj())


def product_eigenstate(
    family: MeasurementFamily, theta: Sequence[int], x: Sequence[int]
) -> DensityOperator:
    """Pure product state that is an eigenstate of basis string ``theta``."""
    return DensityOperator(measurement_operator(family, theta, x))


def bloch_state(x: float, y: float, z: float) -> DensityOperator:
    """Single-qubit state with Bloch vector (x, y, z), length at most 1."""
    norm_sq = x * x + y * y + z * z
    if norm_sq > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector has length {math.sqrt(norm_sq)!r} > 1")
    return DensityOperator(0.5 * np.array([[1.0 + z, x - 1.0j * y], [x + 1.0j * y, 1.0 - z]]))


def random_density(n_qubits: int, rank: int, seed: int) -> DensityOperator:
    """Seeded random state ``G G^dagger / tr`` with complex Gaussian ``G``.

    ``G`` is 2^n by ``rank`` with independent standard complex Gaussian
    entries drawn by Box-Muller from a PCG64 stream, so rank-1 calls give
    Haar-distributed pure states and identical seeds reproduce bit-identical
    matrices.
    """
    dim = 2**n_qubits
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must lie in 1..{dim}, got {rank!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    u1 = rng.random((dim, rank))
    u2 = rng.random((dim, rank))
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    g = radius * np.exp(2.0j * math.pi * u2)
    rho = g @ g.conj().T
    return DensityOperator(rho / rho.trace().real)


def _as_ensemble(states: DensityOperator | StateEnsemble) -> StateEnsemble:
    if isinstance(states, StateEnsemble):
        return states
    return StateEnsemble([EnsembleMember("0", 1.0, states)])


def outcome_arrays(
    ensembles: Sequence[DensityOperator | StateEnsemble],
    family: MeasurementFamily,
    max_qubits: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Validated weights and rows of the outcome tables of a batch of ensembles.

    The ensembles (a bare state counts as a one-member ensemble) must share
    their qubit count and member count ``m``. Returns read-only weights of
    shape ``(E, m * bases^n)`` and rows of shape ``(E, m * bases^n, 2^n)``.
    Contexts are member-major: member ``j`` owns the block of ``bases^n``
    contexts starting at ``j * bases^n``, one per basis string in
    lexicographic order, each with weight ``p_j / bases^n`` (the basis
    choice is uniform and independent of the label). Every member state is
    tabulated once: the diagonals of ``U^dagger rho U`` for all states and
    basis strings come from one batched product, entries below 1e-15 in
    magnitude are set to exactly 0, and each table is then validated as
    :class:`ConditionalTable` validates it. Raises when ``n`` exceeds the
    family's qubit budget unless a larger ``max_qubits`` is passed
    explicitly.
    """
    batch = [_as_ensemble(e) for e in ensembles]
    matrices = np.stack([m.state.matrix for e in batch for m in e.members])
    dim = matrices.shape[-1]
    n = dim.bit_length() - 1
    budget = family.default_qubit_budget if max_qubits is None else int(max_qubits)
    if n > budget:
        raise ValueError(
            f"{n} qubits exceeds the {family.value!r} table budget of {budget}; "
            f"pass max_qubits to override"
        )
    unitaries = _basis_unitaries(family, n)
    probs = np.einsum("bji,tbji->tbi", unitaries.conj(), matrices[:, None] @ unitaries).real
    probs[np.abs(probs) < 1e-15] = 0.0
    base_weight = 1.0 / len(unitaries)
    weights = [[m.probability * base_weight for m in e.members] for e in batch]
    if len({len(w) for w in weights}) != 1:
        raise ValueError("ensembles in one batch must have the same number of members")
    return validated_arrays(
        np.repeat(weights, len(unitaries), axis=1), probs.reshape(len(batch), -1, dim)
    )


def outcome_table(
    states: DensityOperator | StateEnsemble,
    family: MeasurementFamily,
    max_qubits: int | None = None,
) -> ConditionalTable:
    """Exact outcome table over all basis strings, uniformly weighted.

    One context per (member, basis string) pair with weight
    ``p_k / bases^n`` and outcome probabilities over all 2^n outcome
    strings, in the order of :func:`outcome_arrays`. Raises when ``n``
    exceeds the family's qubit budget unless a larger ``max_qubits`` is
    passed explicitly.
    """
    ensemble = _as_ensemble(states)
    (weights,), (probs,) = outcome_arrays([ensemble], family, max_qubits)
    thetas = [
        "".join(map(str, theta))
        for theta in itertools.product(range(family.bases_per_qubit), repeat=ensemble.n_qubits)
    ]
    return ConditionalTable.from_arrays(
        ks=[m.k for m in ensemble.members for _ in thetas],
        thetas=thetas * len(ensemble.members),
        weights=weights,
        probs=probs,
    )


def post_measurement_state(
    rho_ab: DensityOperator,
    family: MeasurementFamily,
    theta_a: Sequence[int],
    x_a: Sequence[int],
) -> DensityOperator:
    """State of the unmeasured qubits after observing ``x_a`` in ``theta_a``.

    The measured qubits are the leading ones. Conditioning on an outcome of
    (numerically) zero probability raises.
    """
    n_a = len(theta_a)
    if not 1 <= n_a <= rho_ab.n_qubits - 1:
        raise ValueError(
            f"can condition on 1..{rho_ab.n_qubits - 1} leading qubits, got {n_a}"
        )
    dim_a = 2**n_a
    dim_b = rho_ab.dim // dim_a
    a_vec = _basis_vector(family, theta_a, x_a)
    rho4 = rho_ab.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    sub = np.einsum("i,ijkl,k->jl", a_vec.conj(), rho4, a_vec)
    prob = float(sub.trace().real)
    if prob <= MIN_CONDITION_PROB:
        raise ValueError(
            f"outcome {tuple(x_a)!r} in basis {tuple(theta_a)!r} has probability "
            f"{prob!r}; cannot condition on it"
        )
    return DensityOperator(sub / prob)
