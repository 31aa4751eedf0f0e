"""Exact density-operator simulation of per-qubit basis measurements.

Everything here is dense linear algebra on 2^n dimensional matrices, and one
call builds at most 2^23 outcome-table entries, (2 bases)^n per state
(``_MAX_TABLE_ENTRIES``). No n-qubit basis unitary is ever built: outcome
tables measure every state one qubit at a time, with one fixed single-qubit
matrix per family, and measurement projectors and conditioning build their
one column as a Kronecker product of single-qubit columns. States are drawn and
validated as stacks: Hermitian, positive semidefinite and unit trace, each
within small tolerances scaled by the matrix norm, by one validator that
:class:`DensityOperator` also runs. It decides a valid stack of up to 16
dimensions by whole-stack reductions and one Cholesky factorisation, and
falls back to ``eigvalsh``, matrix by matrix, to name an offender or above
16 dimensions.
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


def validated_densities(matrices) -> np.ndarray:
    """Checked, Hermitised, read-only copy of a stack of density matrices.

    The one validation pass behind every state. ``matrices`` has shape
    ``(..., d, d)`` with ``d`` a power of two >= 2; each matrix must be
    finite, Hermitian and of unit trace within ``tau = ATOL`` times its
    largest entry magnitude (at least 1), and its Hermitian part ``H`` must
    have no eigenvalue below ``-tau``. The first offending matrix is
    reported, by the first check it fails, in the words of
    :class:`DensityOperator`. Returns ``(M + M^dagger) / 2`` for every matrix.

    A valid stack is decided by whole-stack reductions: all entries finite,
    every matrix Hermitian and of unit trace, and one stacked
    ``np.linalg.cholesky`` of ``H + (tau - delta) I``, with
    ``delta = k_d tau``, ``k_d = (d^3 + 4d(d + 2) + 4) u / ATOL`` and
    ``u = 2^-53``. If any test fails, or ``k_d >= 1`` (``d > 16``), one
    ``eigvalsh`` over the stack decides, matrix by matrix, and names the
    first offender. ``delta`` budgets three errors, in units of ``u m``
    with ``m = tau / ATOL``, so ``|h_ij| <= m`` and ``||H||_2 <= d m``.
    (i) Forming the shifted diagonal rounds by at most 4. (ii) A Cholesky
    factor that completes has ``R^dagger R = A + E``,
    ``|E| <= gamma_(d+1) |R^dagger| |R|`` (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.3, proved for real arithmetic), so
    ``||E||_2 <= gamma tr(A)`` to first order, with ``tr(A) <= 2 d m``; for
    complex arithmetic ``gamma = 2(d + 2) u`` is assumed (its Sec. 3.6 widens
    each complex operation's error by a small constant): ``4d(d + 2)``.
    (iii) ``eigvalsh`` errs by at most ``p(d) u ||H||_2`` (LAPACK Users'
    Guide, 3rd ed., Sec. 4.7), where ``p`` is only "a modestly growing
    function"; ``p(d) = d^2`` is assumed: ``d^3``. Under these two
    assumptions a stack that factors has
    ``lambda_min(H) >= -(tau - delta) - (4d(d + 2) + 4) u m`` and ``eigvalsh``
    reports no eigenvalue below ``-tau``: the shortcut accepts only stacks
    the ``eigvalsh`` path accepts. The budget is 44 ``u m`` at ``d = 2``;
    tests plant the least eigenvalue at both edges of the band.
    """
    arr = np.asarray(matrices, dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"density operator must be a square matrix, got shape {arr.shape}")
    dim = arr.shape[-1]
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"dimension must be a power of two >= 2, got {dim}")
    flat = arr.reshape(-1, dim, dim)
    finite_entries = np.isfinite(flat)
    all_finite = finite_entries.all()
    if not all_finite:
        # Refused below; zeros keep NaN and infinity out of the arithmetic
        # and out of eigvalsh, which cannot take them.
        flat = np.where(finite_entries, flat, 0.0)
    adjoint = flat.conj().transpose(0, 2, 1)
    hermitized = 0.5 * (flat + adjoint)
    tolerance = ATOL * np.maximum(1.0, np.abs(flat).max(axis=(1, 2)))
    asymmetry = np.abs(flat - adjoint).max(axis=(1, 2))
    traces = hermitized.trace(axis1=1, axis2=2).real
    deviation = np.abs(traces - 1.0)
    margin = (dim**3 + 4 * dim * (dim + 2) + 4) * 2.0**-53 / ATOL  # k_d
    valid = (
        margin < 1.0
        and all_finite
        and (asymmetry <= tolerance).all()
        and (deviation <= tolerance).all()
        and _factors(hermitized + ((1.0 - margin) * tolerance)[:, None, None] * np.identity(dim))
    )
    if not valid:
        finite = finite_entries.all(axis=(1, 2))
        not_hermitian = asymmetry > tolerance
        off_trace = deviation > tolerance
        lowest = np.linalg.eigvalsh(hermitized)[:, 0]
        negative = lowest < -tolerance
        failed = ~finite | not_hermitian | off_trace | negative
        if failed.any():
            i = int(np.argmax(failed))
            if not finite[i]:
                raise ValueError("density operator has non-finite entries")
            if not_hermitian[i]:
                raise ValueError("density operator is not Hermitian within tolerance")
            if off_trace[i]:
                raise ValueError(f"density operator has trace {float(traces[i])!r}, expected 1")
            raise ValueError(f"density operator has negative eigenvalue {float(lowest[i])!r}")
    hermitized = hermitized.reshape(arr.shape)
    hermitized.setflags(write=False)
    return hermitized


def _factors(stack: np.ndarray) -> bool:
    """Whether ``np.linalg.cholesky`` factors every matrix of a Hermitian stack."""
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return False
    return True


class DensityOperator:
    """Hermitian, PSD, unit-trace complex matrix on n qubits."""

    def __init__(self, matrix):
        arr = np.asarray(matrix, dtype=complex)
        if arr.ndim != 2:
            raise ValueError(f"density operator must be a square matrix, got shape {arr.shape}")
        self._matrix = validated_densities(arr)
        self.dim = arr.shape[0]
        self.n_qubits = self.dim.bit_length() - 1

    @property
    def matrix(self) -> np.ndarray:
        """Read-only matrix entries."""
        return self._matrix

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


def checked_probabilities(probabilities) -> np.ndarray:
    """Normalised copy of mixing probabilities, one ensemble per last-axis row.

    The checks of :class:`StateEnsemble`: an entry that is NaN, infinite or
    negative raises, as does a row summing to 1 only beyond ``NORM_TOL``;
    each row is then divided by its sum. Rows are summed left to right, as
    Python's ``sum`` adds the members, so a stack of ensembles normalises bit
    for bit like each ensemble on its own.
    """
    p = np.asarray(probabilities, dtype=float)
    totals = np.asarray(sum(np.moveaxis(p, -1, 0)))
    if not np.all(np.isfinite(p)):
        raise ValueError("ensemble probabilities must be finite")
    if np.any(p < 0.0):
        raise ValueError("ensemble probabilities must be nonnegative")
    off = np.abs(totals - 1.0) > NORM_TOL
    if np.any(off):
        raise ValueError(f"ensemble probabilities sum to {float(totals[off][0])!r}, expected 1")
    return p / totals[..., None]


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
        probabilities = checked_probabilities([m.probability for m in members])
        self.members = tuple(
            EnsembleMember(m.k, p, m.state) for m, p in zip(members, probabilities.tolist())
        )
        self.dim = members[0].state.dim
        self.n_qubits = members[0].state.n_qubits


@functools.cache
def _outcome_step(family: MeasurementFamily) -> np.ndarray:
    """Read-only ``(4, 2 * bases)`` matrix that measures one qubit, per family.

    Column ``(t, x)`` is ``vec(conj(u_t[:, x]) u_t[:, x]^T)``: contracted with
    a qubit's row and column index ``(i, j)``, row ``2 i + j``, it gives the
    weight of outcome ``x`` in basis ``t``, the other qubits left open.
    """
    singles = np.stack([family.basis_unitary(t) for t in range(family.bases_per_qubit)])
    step = np.einsum("tix,tjx->ijtx", singles.conj(), singles).reshape(4, -1)
    step.setflags(write=False)
    return step


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
        columns.append(family.basis_unitary(t)[:, int(b)])
    return functools.reduce(np.kron, columns)


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


def random_densities(n_qubits: int, ranks: Sequence[int], seeds: Sequence[int]) -> np.ndarray:
    """Read-only ``(T, 2^n, 2^n)`` stack of seeded random states ``G G^dagger / tr``.

    State ``t`` has its own PCG64 stream seeded with ``seeds[t]``; its ``G``
    is 2^n by ``ranks[t]`` with independent standard complex Gaussian
    entries drawn by Box-Muller, so rank-1 states are Haar-distributed pure
    states and identical seeds reproduce bit-identical matrices. Each
    state's uniforms go into one zero-padded ``(2, T, 2^n, 2^n)`` buffer, by
    one slice assignment, so that Box-Muller, the trace normalisation and
    the checks of :func:`validated_densities` each run once over the stack.
    ``G G^dagger`` is one product per distinct rank, over the unpadded
    columns (BLAS may round a product with extra zero columns differently:
    it does for 2 x 2 with OpenBLAS); a rank held by one state multiplies
    that state's own 2-D view instead of a gathered copy.
    """
    dim = 2**n_qubits
    if len(ranks) != len(seeds):
        raise ValueError(f"{len(ranks)} ranks for {len(seeds)} seeds")
    uniforms = np.zeros((2, len(ranks), dim, dim))
    by_rank: dict[int, list[int]] = {}
    for t, (rank, seed) in enumerate(zip(ranks, seeds)):
        if not 1 <= rank <= dim:
            raise ValueError(f"rank must lie in 1..{dim}, got {rank!r}")
        generator = np.random.Generator(np.random.PCG64(int(seed)))
        uniforms[:, t, :, :rank] = generator.random((2, dim, rank))
        by_rank.setdefault(int(rank), []).append(t)
    radius = np.sqrt(-2.0 * np.log1p(-uniforms[0]))
    g = radius * np.exp(2.0j * math.pi * uniforms[1])
    rho = np.empty_like(g)
    for rank, chosen in by_rank.items():
        index = chosen[0] if len(chosen) == 1 else chosen  # one state: a view, not a gather
        columns = g[index, :, :rank]
        rho[index] = columns @ np.swapaxes(columns.conj(), -1, -2)
    traces = rho.trace(axis1=1, axis2=2).real
    return validated_densities(rho / traces[:, None, None])


def random_density(n_qubits: int, rank: int, seed: int) -> DensityOperator:
    """Seeded random state: the one-state case of :func:`random_densities`."""
    return DensityOperator(random_densities(n_qubits, [rank], [seed])[0])


def _as_ensemble(states: DensityOperator | StateEnsemble) -> StateEnsemble:
    if isinstance(states, StateEnsemble):
        return states
    return StateEnsemble([EnsembleMember("0", 1.0, states)])


# Most outcome-table entries, (2 bases)^n per n-qubit state, that one call
# builds. The traced peak is 37-137 B per entry (about 1.1 GiB at the limit);
# `verify --suite ensemble --family six --trials 100000` (7.2e6 entries)
# peaks at 417 MiB traced and takes 11 s (2-CPU host, one BLAS thread).
_MAX_TABLE_ENTRIES = 2**23


def _require_table_entries(family: MeasurementFamily, n_qubits: int, states: int) -> None:
    """Refuse ``states`` tables of ``n_qubits`` qubits beyond ``_MAX_TABLE_ENTRIES`` entries."""
    per_state = 2 * family.bases_per_qubit
    # past 24 qubits one table alone is over the limit: no huge power is formed
    if n_qubits > 24 or states * per_state**n_qubits > _MAX_TABLE_ENTRIES:
        raise ValueError(
            f"{states} {family.value} outcome tables of {n_qubits} qubits hold {states} x "
            f"{per_state}^{n_qubits} entries, more than the limit of {_MAX_TABLE_ENTRIES}"
        )


def outcome_arrays(
    ensembles: Sequence[DensityOperator | StateEnsemble], family: MeasurementFamily
) -> tuple[np.ndarray, np.ndarray]:
    """Validated weights and rows of the outcome tables of a batch of ensembles.

    The ensembles (a bare state counts as a one-member ensemble) must share
    their qubit count and member count; see :func:`stack_outcome_arrays`.
    """
    batch = [_as_ensemble(e) for e in ensembles]
    if len({len(e.members) for e in batch}) != 1:
        raise ValueError("ensembles in one batch must have the same number of members")
    matrices = np.array([[m.state.matrix for m in e.members] for e in batch])
    probabilities = np.array([[m.probability for m in e.members] for e in batch])
    return stack_outcome_arrays(matrices, probabilities, family)


def _outcome_rows(
    matrices: np.ndarray, probabilities: np.ndarray, family: MeasurementFamily
) -> tuple[np.ndarray, np.ndarray]:
    """Weights and rows of :func:`stack_outcome_arrays` before validation.

    Working arrays hold no more entries per state than its table.
    """
    count, dim = len(matrices), matrices.shape[-1]
    n = dim.bit_length() - 1
    # Axes: state, open row and column index, then the (t, x) pairs of the
    # qubits measured so far, first qubit most significant.
    work = matrices.reshape(-1, dim, dim, 1)
    states, rest = len(work), dim
    _require_table_entries(family, n, states)
    step = _outcome_step(family)
    for _ in range(n):
        rest //= 2
        pairs = work.reshape(states, 2, rest, 2, rest, -1).transpose(0, 2, 4, 5, 1, 3)
        work = (pairs.reshape(-1, 4) @ step).reshape(states, rest, rest, -1)
    # (t_1, x_1, ..., t_n, x_n) -> (t_1 ... t_n, x_1 ... x_n): basis-string-major.
    bases = family.bases_per_qubit
    order = (0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2))
    probs = work.reshape(states, *(bases, 2) * n).transpose(order).real.reshape(count, -1, dim)
    weights = np.repeat(probabilities * (1.0 / bases**n), bases**n, axis=1)
    return weights, probs


def stack_outcome_arrays(
    matrices: np.ndarray, probabilities: np.ndarray, family: MeasurementFamily
) -> tuple[np.ndarray, np.ndarray]:
    """Validated weights and rows of the outcome tables of a stack of ensembles.

    ``matrices`` of shape ``(E, m, 2^n, 2^n)`` holds the member states of
    ``E`` ensembles of ``m`` members each, as :func:`validated_densities`
    returns them, and ``probabilities`` of shape ``(E, m)`` their mixing
    probabilities, as :func:`checked_probabilities` returns them. Returns
    read-only weights of shape ``(E, m * bases^n)`` and rows of shape
    ``(E, m * bases^n, 2^n)``. Contexts are member-major: member ``j`` owns
    the block of ``bases^n`` contexts starting at ``j * bases^n``, one per
    basis string in lexicographic order, each with weight ``p_j / bases^n``
    (the basis choice is uniform and independent of the label). Every state
    is measured once, one qubit at a time by :func:`_outcome_step`, and each
    table is validated once, by the validator of :class:`ConditionalTable`.
    Raises ``ValueError`` before the contraction when the ``E m`` tables
    would hold more than ``_MAX_TABLE_ENTRIES`` entries.
    """
    return validated_arrays(*_outcome_rows(matrices, probabilities, family))


def outcome_table(
    states: DensityOperator | StateEnsemble, family: MeasurementFamily
) -> ConditionalTable:
    """Exact outcome table over all basis strings, uniformly weighted.

    The contexts and size limit of :func:`stack_outcome_arrays`, labelled by
    member ``k`` and basis string. The rows go unvalidated to
    :meth:`ConditionalTable.from_arrays`, which validates them once, so the
    table's arrays equal ``outcome_arrays([states], family)`` bit for bit.
    """
    ensemble = _as_ensemble(states)
    matrices = np.array([[m.state.matrix for m in ensemble.members]])
    probabilities = np.array([[m.probability for m in ensemble.members]])
    (weights,), (probs,) = _outcome_rows(matrices, probabilities, family)
    strings = itertools.product(range(family.bases_per_qubit), repeat=ensemble.n_qubits)
    thetas = ["".join(map(str, theta)) for theta in strings]
    ks = [m.k for m in ensemble.members for _ in thetas]
    return ConditionalTable.from_arrays(ks, thetas * len(ensemble.members), weights, probs)


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
