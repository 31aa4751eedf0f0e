"""Shared test utilities: table generators and independent oracles.

The oracles here deliberately avoid the code paths they are used to check:
the dense rate scans never call the golden-section optimiser, the decimal
floor evaluates the textbook formula at 50 digits instead of the
cancellation-free float form, the nested power sum goes through conditional states instead of the full outcome table,
the series remainder bound never sums the series it bounds, the table
record oracles split and serialise tables through per-row ``Context``
records instead of indexing their arrays, the outcome
table oracles build one row at a time (by n-qubit Kronecker unitaries, or by
traces against measurement projectors) instead of measuring every state qubit
by qubit, the reference drawer draws one state at a time instead of a padded
stack, the reference trials loop over per-trial states and tables instead of
reducing a stack, the whole-grid search reduces every Bloch grid point as a
table by the shared reduction instead of ranking streamed radius chunks by
the per-point excess, and the entropy-space search is the grid search's
earlier ``-log2(P)/s`` form on its own pow power sum.
The decimal Renyi entropy normalises the table exactly and sums the textbook
power sum at 50 digits instead of the float excess form.
"""

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np

from entrobound import (
    ConditionalTable,
    Context,
    DensityOperator,
    EnsembleMember,
    MeasurementFamily,
    StateEnsemble,
    cond_renyi_entropy,
    measurement_operator,
    post_measurement_state,
    product_eigenstate,
    renyi_floor,
)
from entrobound.entropy import renyi_entropies
from entrobound.verify import (
    _bloch_components,
    _eigenstate_probes,
    _single_qubit_report,
    surface_entropy,
)


def eigenstate_table() -> ConditionalTable:
    """Outcome table of a computational-basis eigenstate under two bases."""
    return ConditionalTable(
        [
            Context("k", "0", 0.5, (1.0, 0.0)),
            Context("k", "1", 0.5, (0.5, 0.5)),
        ]
    )


def deterministic_table(num_bases: int = 2) -> ConditionalTable:
    return ConditionalTable(
        Context("k", str(t), 1.0 / num_bases, (1.0, 0.0)) for t in range(num_bases)
    )


def random_table(rng: np.random.Generator, max_contexts: int = 6, max_outcomes: int = 5) -> ConditionalTable:
    """Random valid table with a shared outcome alphabet."""
    num_contexts = int(rng.integers(1, max_contexts + 1))
    num_outcomes = int(rng.integers(2, max_outcomes + 1))
    weights = rng.random(num_contexts) + 1e-3
    weights /= weights.sum()
    contexts = []
    for i in range(num_contexts):
        row = rng.random(num_outcomes) + 1e-4
        row /= row.sum()
        contexts.append(Context(f"k{i % 2}", str(i), float(weights[i]), tuple(row)))
    return ConditionalTable(contexts)


def context_subtables_by_k(table: ConditionalTable) -> dict:
    """Per-k tables from grouped ``Context`` records, each group's weights summed in order."""
    groups: dict[str, list[Context]] = {}
    for c in table.contexts:
        groups.setdefault(c.k, []).append(c)
    out = {}
    for k, members in groups.items():
        total = sum(c.weight for c in members)
        if total <= 0.0:
            continue
        out[k] = ConditionalTable(
            Context(c.k, c.theta, c.weight / total, c.outcome_probs) for c in members
        )
    return out


def context_json_dict(table: ConditionalTable) -> dict:
    """The JSON document of a table, written from its ``Context`` records."""
    return {
        "contexts": [
            {"k": c.k, "theta": c.theta, "weight": c.weight, "p_x": list(c.outcome_probs)}
            for c in table.contexts
        ]
    }


def assert_matches_context_oracles(table: ConditionalTable) -> None:
    """``to_json_dict`` equals the record oracle; ``subtables_by_k`` agrees with it to 1e-15."""
    assert table.to_json_dict() == context_json_dict(table)
    subtables, expected = table.subtables_by_k(), context_subtables_by_k(table)
    assert list(subtables) == list(expected)
    for k, sub in subtables.items():
        labels = [(c.k, c.theta) for c in expected[k].contexts]
        assert [(c.k, c.theta) for c in sub.contexts] == labels
        assert np.max(np.abs(sub.weight_vector - expected[k].weight_vector)) <= 1e-15
        assert np.max(np.abs(sub.prob_matrix - expected[k].prob_matrix)) <= 1e-15


def rate_scan(n: int, epsilon: float, family: MeasurementFamily, step: float = 1e-5) -> float:
    """Dense-scan maximisation of the certified rate over s, no refinement."""
    s = np.arange(step, 1.0 + step / 2, step)
    eps_term = np.log2(2.0 / epsilon**2)
    if family is MeasurementFamily.BB84:
        floors = (1.0 + s - np.log2(1.0 + 2.0**s)) / s
    else:
        floors = -np.log2((1.0 + 2.0 ** (1.0 - s)) / 3.0) / s
    return float(np.max(floors - eps_term / (s * n)))


def rate_log_scan(n: int, epsilon: float, family: MeasurementFamily) -> float:
    """Dense scan of the certified rate at 2^14 + 1 log-spaced s in [2^-40, 1], no refinement.

    Reaches the small ``s`` that large blocks need, where the linear scan of
    :func:`rate_scan` cannot go, with a cancellation-free floor in numpy.
    """
    s = np.exp2(np.linspace(-40.0, 0.0, 2**14 + 1))
    x = s * math.log(2.0)
    ceiling = (family.bases_per_qubit - 1) / family.bases_per_qubit
    floors = -np.log1p(ceiling * np.expm1(-x)) / x
    return float(np.max(floors - math.log2(2.0 / epsilon**2) / (s * float(n))))


def decimal_floor(s: float, bases: int) -> Decimal:
    """Per-qubit Renyi floor ``-log2((1 + (B-1) 2^-s) / B) / s`` in 50-digit decimal.

    Evaluates the textbook form directly: at 50 digits its cancellation for
    s down to 2^-52 still leaves over 30 correct digits.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        s = Decimal(s)
        ln2 = Decimal(2).ln()
        power_sum = (1 + (bases - 1) * (-s * ln2).exp()) / bases
        return -power_sum.ln() / (ln2 * s)


def decimal_renyi_entropy(weights, rows, alpha: float) -> Decimal:
    """Conditional Renyi entropy ``-log2(sum_c w_c sum_x p^alpha) / (alpha - 1)`` at 50 digits.

    The float weights and rows are first normalised exactly, so the textbook
    power sum is the one of a distribution; zero entries contribute 0. At
    50 digits its cancellation for ``alpha - 1`` down to 1e-15 still leaves
    over 30 correct digits.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        s = Decimal(alpha) - 1
        weights = [Decimal(float(w)) for w in weights]
        weight_total = sum(weights)
        power_sum = Decimal(0)
        for w, row in zip(weights, rows):
            row = [Decimal(float(p)) for p in row]
            row_total = sum(row)
            power_sum += w / weight_total * sum(
                q * (s * q.ln()).exp() for q in (p / row_total for p in row) if q > 0
            )
        return -power_sum.ln() / (Decimal(2).ln() * s)


def series_remainder_bound(a: float, s, max_power: int):
    """Proven upper bound on ``curvature_gap - curvature_gap_series(max_power)``.

    For even n >= m (m the first omitted even power) the coefficient of a^n
    is 2s P_n(s) n/(n+1) <= 2s P_m(s), with P_n(s) = prod_{k<=n} (1 - s/k),
    because every further factor lies in [0, 1]. Summing a^m + a^(m+2) + ...
    bounds the tail by 2s P_m(s) a^m / (1 - a^2). Vectorised over ``s``.
    """
    s = np.asarray(s, dtype=float)
    m = 2 * (max_power // 2) + 2
    p_m = np.prod(1.0 - s[..., None] / np.arange(1, m + 1), axis=-1)
    return 2.0 * s * p_m * a**m / (1.0 - a * a)


def reference_random_density(n_qubits: int, rank: int, seed: int) -> np.ndarray:
    """One seeded random state ``G G^dagger / tr``, drawn on its own, unchecked.

    ``G`` is 2^n by ``rank``, from one PCG64 stream by Box-Muller; the
    result is Hermitised as the density validator stores it.
    """
    dim = 2**n_qubits
    rng = np.random.Generator(np.random.PCG64(seed))
    u1 = rng.random((dim, rank))
    u2 = rng.random((dim, rank))
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    g = radius * np.exp(2.0j * math.pi * u2)
    rho = g @ g.conj().T
    rho = rho / rho.trace().real
    return 0.5 * (rho + rho.conj().T)


def nested_power_sum(rho, family: MeasurementFamily, alpha: float) -> float:
    """Two-qubit power sum computed through conditional single-qubit states.

    Chains the measured-first-qubit marginal with the power sum of the
    post-measurement state of the second qubit, instead of enumerating the
    full two-qubit outcome table.
    """
    bases = family.bases_per_qubit
    eye2 = np.eye(2, dtype=complex)
    total = 0.0
    for theta_a, x_a in itertools.product(range(bases), range(2)):
        proj = np.kron(measurement_operator(family, (theta_a,), (x_a,)), eye2)
        p_a = float((proj @ rho.matrix).trace().real)
        if p_a <= 1e-14:
            continue
        sigma_b = post_measurement_state(rho, family, (theta_a,), (x_a,))
        inner = 0.0
        for theta_b, x_b in itertools.product(range(bases), range(2)):
            proj_b = measurement_operator(family, (theta_b,), (x_b,))
            p_b = float((proj_b @ sigma_b.matrix).trace().real)
            inner += max(p_b, 0.0) ** alpha
        total += p_a**alpha * inner / bases
    return total / bases


def _members(states):
    if isinstance(states, StateEnsemble):
        return states.members
    return (EnsembleMember("0", 1.0, states),)


def kron_outcome_table(states, family: MeasurementFamily) -> ConditionalTable:
    """Outcome table built row by row from per-string Kronecker unitaries.

    For every basis string the n-qubit unitary is the Kronecker product of
    the single-qubit ones, and row ``(k, theta)`` holds the diagonal of
    ``U^dagger rho_k U``; one ``Context`` per row.
    """
    members = _members(states)
    n = members[0].state.n_qubits
    theta_strings = list(itertools.product(range(family.bases_per_qubit), repeat=n))
    base_weight = 1.0 / len(theta_strings)
    contexts = []
    for member in members:
        for theta in theta_strings:
            u = np.array([1.0 + 0.0j])
            for t in theta:
                u = np.kron(u, family.basis_unitary(t))
            u = u.reshape(2**n, 2**n)
            probs = np.einsum("ji,jk,ki->i", u.conj(), member.state.matrix, u).real
            probs[np.abs(probs) < 1e-15] = 0.0
            contexts.append(
                Context(
                    member.k,
                    "".join(map(str, theta)),
                    member.probability * base_weight,
                    tuple(probs),
                )
            )
    return ConditionalTable(contexts)


def trace_outcome_rows(states, family: MeasurementFamily) -> dict:
    """``{(k, theta): [p(x|theta) for x]}`` with ``p = tr(M_theta,x rho_k)``.

    No normalisation and no snapping: the raw Born-rule values.
    """
    out = {}
    for member in _members(states):
        n = member.state.n_qubits
        for theta in itertools.product(range(family.bases_per_qubit), repeat=n):
            out[(member.k, "".join(map(str, theta)))] = [
                float(np.trace(measurement_operator(family, theta, x) @ member.state.matrix).real)
                for x in itertools.product(range(2), repeat=n)
            ]
    return out


def reference_additivity(
    n_qubits: int, alpha: float, family: MeasurementFamily, trials: int, seed: int
):
    """Per-trial loop of the additivity check: (passed, worst index, worst margin)."""
    floor_total = n_qubits * renyi_floor(alpha, family)
    dim = 2**n_qubits
    trial_seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    worst, worst_index = math.inf, 0
    for t in range(trials):
        matrix = reference_random_density(n_qubits, 1 + t % dim, int(trial_seeds[t]))
        state = DensityOperator(matrix)
        margin = cond_renyi_entropy(kron_outcome_table(state, family), alpha) - floor_total
        if margin < worst:
            worst, worst_index = margin, t
    eigen_dev = 0.0
    for theta, x in _eigenstate_probes(family, n_qubits):
        table = kron_outcome_table(product_eigenstate(family, theta, x), family)
        eigen_dev = max(eigen_dev, abs(cond_renyi_entropy(table, alpha) - floor_total))
    return worst >= -1e-9 and eigen_dev <= 1e-10, worst_index, worst


def reference_ensemble(
    n_qubits: int, alpha: float, family: MeasurementFamily, k_count: int, trials: int, seed: int
):
    """Per-trial loop of the ensemble check: (passed, worst index, worst floor margin).

    Tabulates every ensemble, and every member again on its own.
    """
    floor_total = n_qubits * renyi_floor(alpha, family)
    dim = 2**n_qubits
    worst_floor = worst_member = worst_combined = math.inf
    worst_index = 0
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.Generator(np.random.PCG64(child))
        probabilities = rng.dirichlet(np.ones(k_count))
        ranks = rng.integers(1, dim + 1, size=k_count)
        state_seeds = rng.integers(0, 2**63, size=k_count)
        members = [
            EnsembleMember(
                str(j),
                float(probabilities[j]),
                DensityOperator(
                    reference_random_density(n_qubits, int(ranks[j]), int(state_seeds[j]))
                ),
            )
            for j in range(k_count)
        ]
        table_entropy = cond_renyi_entropy(
            kron_outcome_table(StateEnsemble(members), family), alpha
        )
        weakest = min(
            cond_renyi_entropy(kron_outcome_table(m.state, family), alpha) for m in members
        )
        floor_margin = table_entropy - floor_total
        member_margin = table_entropy - weakest
        if min(floor_margin, member_margin) < worst_combined:
            worst_combined = min(floor_margin, member_margin)
            worst_index = t
        worst_floor = min(worst_floor, floor_margin)
        worst_member = min(worst_member, member_margin)
    return worst_floor >= -1e-9 and worst_member >= -1e-10, worst_index, worst_floor


def _bloch_grid(family: MeasurementFamily, resolution: int):
    """The axes, and the sparse radius and angle grids."""
    r = np.linspace(0.0, 1.0, resolution)
    ang = np.linspace(0.0, math.pi / 2.0, resolution)
    axes = [r] + [ang] * (family.bases_per_qubit - 1)
    radius, *angles = np.meshgrid(*axes, indexing="ij", sparse=True)
    return axes, radius, angles


def _grid_report(family: MeasurementFamily, alpha: float, resolution: int, axes, entropy):
    """The single-qubit report of a whole grid of entropies: its minimum and first tie."""
    grid_min = float(entropy.min())
    flat_index = int(np.argmax(entropy <= grid_min + 1e-12))
    index = np.unravel_index(flat_index, entropy.shape)
    argmin = tuple(float(axis[i]) for axis, i in zip(axes, index))
    floor = renyi_floor(alpha, family)
    return _single_qubit_report(family, alpha, resolution, floor, grid_min, argmin)


def whole_grid_search_min(family: MeasurementFamily, alpha: float, resolution: int):
    """The grid search with every Bloch grid point reduced as a table: the streamed search's report.

    Reduces the outcome tables (rows ``((1 + x_i)/2, (1 - x_i)/2)``, weights
    ``1/B``) of all ``resolution^2`` (BB84) or ``resolution^3`` (six-state)
    points, one radius row of the grid at a time, by
    :func:`entrobound.entropy.renyi_entropies`, with no ranking and no cut,
    then takes the minimum and the first flat index within
    1e-12 of it. Only the entropies of the whole grid are held at once.
    """
    axes, radius, angles = _bloch_grid(family, resolution)
    entropy = np.empty((resolution,) * len(axes))
    for row in range(resolution):
        x = np.stack(np.broadcast_arrays(*_bloch_components(radius[row], angles)), axis=-1)
        tables = np.stack([(1.0 + x) / 2.0, (1.0 - x) / 2.0], axis=-1)
        entropy[row] = renyi_entropies(1.0 / family.bases_per_qubit, tables, alpha)
    return _grid_report(family, alpha, resolution, axes, entropy)


def pow_power_sum(s: float, components):
    """Order-(1+s) power sum ``sum_i [(1+x_i)^e + (1-x_i)^e] / (B 2^e)``, ``e = 1+s``, by pow."""
    e = 1.0 + s
    first, *rest = components
    total = (1 + first) ** e + (1 - first) ** e
    for x in rest:
        total += (1 + x) ** e
        total += (1 - x) ** e
    return total / (len(components) * 2.0**e)


def entropy_space_grid_search_min(family: MeasurementFamily, alpha: float, resolution: int):
    """The grid search as it was before the shared table reduction, on the whole grid.

    Every point's entropy is ``-log2(P)/s`` of its power sum, taken by pow as
    the search once did, whose rounding grows like ``(8B + 3) 2^-53 / (s ln 2)``
    as ``s = alpha - 1`` shrinks.
    """
    axes, radius, angles = _bloch_grid(family, resolution)
    s = alpha - 1.0
    entropy = surface_entropy(pow_power_sum(s, _bloch_components(radius, angles)), s)
    return _grid_report(family, alpha, resolution, axes, entropy)
