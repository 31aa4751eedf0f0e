"""Density-operator construction, measurement projectors and outcome tables."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrobound import (
    DensityOperator,
    EnsembleMember,
    MeasurementFamily,
    StateEnsemble,
    bloch_state,
    cond_renyi_entropy,
    measurement_operator,
    outcome_table,
    post_measurement_state,
    product_eigenstate,
    random_density,
    renyi_floor,
    renyi_power_sum,
)
from entrobound import simulator
from entrobound.simulator import (
    checked_probabilities,
    outcome_arrays,
    random_densities,
    stack_outcome_arrays,
    validated_densities,
)
from helpers import (
    assert_matches_context_oracles,
    kron_outcome_table,
    nested_power_sum,
    reference_random_density,
    trace_outcome_rows,
)

BB84 = MeasurementFamily.BB84
SIX = MeasurementFamily.SIX_STATE

SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def bell_state() -> DensityOperator:
    vec = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
    return DensityOperator(np.outer(vec, vec.conj()))


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator([[0.5, 0.5], [0.0, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator([[0.5, 0.0], [0.0, 0.7]])

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityOperator([[1.5, 0.0], [0.0, -0.5]])

    def test_rejects_violations_beyond_rounding(self):
        # each one 1e-6 off, against a tolerance of 1e-12
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator([[0.5, 1e-6], [0.0, 0.5]])
        with pytest.raises(ValueError, match="trace"):
            DensityOperator([[0.5, 0.0], [0.0, 0.5 + 1e-6]])
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityOperator([[1.0 + 1e-6, 0.0], [0.0, -1e-6]])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            DensityOperator(np.eye(3) / 3.0)

    def test_matrix_read_only(self):
        rho = bloch_state(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0

    @pytest.mark.parametrize(
        "matrix",
        [
            [[math.nan, 0.0], [0.0, 0.5]],
            [[0.5, math.inf], [math.inf, 0.5]],
            [[0.5, complex(0.0, -math.inf)], [complex(0.0, math.inf), 0.5]],
            np.full((2, 2), math.nan),
        ],
        ids=["nan-diagonal", "inf-off-diagonal", "imaginary-inf", "all-nan"],
    )
    def test_rejects_non_finite_entries(self, matrix):
        with pytest.raises(ValueError, match="non-finite"):
            DensityOperator(matrix)
        with pytest.raises(ValueError, match="non-finite"):
            validated_densities([np.eye(2) / 2, matrix])

    def test_rejects_stacks_and_non_square_shapes(self):
        with pytest.raises(ValueError, match="square matrix"):
            DensityOperator(np.stack([np.eye(2) / 2] * 2))
        with pytest.raises(ValueError, match="square matrix"):
            validated_densities(np.ones((2, 3)) / 2)
        with pytest.raises(ValueError, match="power of two"):
            validated_densities(np.stack([np.eye(3) / 3] * 2))


# 2 x 2 cases and the message each gets: valid states, states that fail one
# check, and states that fail several, which get the message of the first
# check in the order finite, Hermitian, trace, eigenvalues.
_DENSITY_CASES = {
    "valid-mixed": (np.eye(2) / 2, None),
    "valid-pure": (np.array([[0.5, 0.5j], [-0.5j, 0.5]]), None),
    "valid-within-tolerance": (np.array([[1.0 + 1e-13, 0.0], [0.0, -1e-13]]), None),
    "non-hermitian": (np.array([[0.5, 0.5], [0.0, 0.5]]), "not Hermitian"),
    "wrong-trace": (np.array([[0.5, 0.0], [0.0, 0.7]]), "has trace 1.2,"),
    "negative-eigenvalue": (np.array([[1.5, 0.0], [0.0, -0.5]]), "negative eigenvalue -0.5"),
    "nan": (np.array([[math.nan, 0.0], [0.0, 0.5]]), "non-finite"),
    "nan-off-diagonal": (np.array([[1.0, math.nan], [math.nan, 0.0]]), "non-finite"),
    "non-hermitian-wrong-trace": (np.array([[0.5, 0.5], [0.0, 0.7]]), "not Hermitian"),
    "wrong-trace-negative": (np.array([[1.5, 0.0], [0.0, -0.7]]), "has trace 0.8"),
}


def _first_message(matrices):
    for matrix in matrices:
        try:
            DensityOperator(matrix)
        except ValueError as exc:
            return str(exc)
    return None


class TestValidatedDensities:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(sorted(_DENSITY_CASES)), min_size=1, max_size=6))
    def test_stack_matches_one_by_one(self, names):
        matrices = np.stack([_DENSITY_CASES[name][0] for name in names]).astype(complex)
        expected = _first_message(matrices)
        if expected is None:
            stack = validated_densities(matrices)
            for matrix, checked in zip(matrices, stack):
                assert np.array_equal(checked, DensityOperator(matrix).matrix)
        else:
            with pytest.raises(ValueError) as info:
                validated_densities(matrices)
            assert str(info.value) == expected

    @pytest.mark.parametrize("name", sorted(_DENSITY_CASES))
    def test_each_case_gets_its_message(self, name):
        matrix, expected = _DENSITY_CASES[name]
        message = _first_message([matrix])
        assert message == expected if expected is None else expected in message

    def test_keeps_leading_axes_and_returns_a_read_only_copy(self):
        valid = [_DENSITY_CASES["valid-mixed"][0], _DENSITY_CASES["valid-pure"][0]]
        matrices = np.stack(valid * 3)
        matrices = matrices.reshape(3, 2, 2, 2).astype(complex)
        stack = validated_densities(matrices)
        assert stack.shape == (3, 2, 2, 2)
        assert not stack.flags.writeable
        matrices[0, 0, 0, 0] = 7.0
        assert stack[0, 0, 0, 0] == 0.5


class TestMeasurementOperators:
    def test_computational_projector(self):
        assert np.allclose(measurement_operator(BB84, (0,), (0,)), [[1, 0], [0, 0]])

    def test_hadamard_projector(self):
        assert np.allclose(measurement_operator(BB84, (1,), (0,)), 0.5 * np.ones((2, 2)))

    def test_sigma_y_projector(self):
        proj = measurement_operator(SIX, (2,), (0,))
        assert np.allclose(proj, 0.5 * np.array([[1, -1j], [1j, 1]]))
        # its range really is the +1 eigenvector of sigma_y
        vec = proj[:, 0] / np.linalg.norm(proj[:, 0])
        assert np.allclose(SIGMA["y"] @ vec, vec)

    def test_six_state_basis_axes(self):
        # basis 0, 1, 2 measure along z, x, y respectively
        for theta, axis in enumerate("zxy"):
            proj0 = measurement_operator(SIX, (theta,), (0,))
            proj1 = measurement_operator(SIX, (theta,), (1,))
            assert np.allclose(proj0 - proj1, SIGMA[axis], atol=1e-12)

    @pytest.mark.parametrize("family,n", [(BB84, 1), (BB84, 2), (SIX, 1), (SIX, 2)])
    def test_projector_properties_and_completeness(self, family, n):
        for theta in itertools.product(range(family.bases_per_qubit), repeat=n):
            total = np.zeros((2**n, 2**n), dtype=complex)
            for x in itertools.product(range(2), repeat=n):
                proj = measurement_operator(family, theta, x)
                assert np.max(np.abs(proj @ proj - proj)) <= 1e-12
                assert np.max(np.abs(proj - proj.conj().T)) <= 1e-12
                assert proj.trace().real == pytest.approx(1.0, abs=1e-12)
                total += proj
            assert np.max(np.abs(total - np.eye(2**n))) <= 1e-12

    @pytest.mark.parametrize("family,n", [(BB84, 3), (SIX, 2)])
    def test_projector_is_tensor_product_of_single_qubit_projectors(self, family, n):
        # qubit order: the first entry of theta and x is the leading factor
        for theta in itertools.product(range(family.bases_per_qubit), repeat=n):
            for x in itertools.product(range(2), repeat=n):
                expected = np.ones((1, 1), dtype=complex)
                for t, b in zip(theta, x):
                    expected = np.kron(expected, measurement_operator(family, (t,), (b,)))
                assert np.max(np.abs(measurement_operator(family, theta, x) - expected)) <= 1e-15

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            measurement_operator(BB84, (2,), (0,))
        with pytest.raises(ValueError, match="out of range"):
            measurement_operator(SIX, (0,), (2,))
        with pytest.raises(ValueError, match="must have equal length"):
            measurement_operator(BB84, (0, 1), (0,))
        with pytest.raises(ValueError, match="must be nonempty"):
            measurement_operator(SIX, (), ())


class TestOutcomeTable:
    def test_z_eigenstate(self):
        table = outcome_table(product_eigenstate(BB84, (0,), (0,)), BB84)
        by_theta = {c.theta: c for c in table.contexts}
        assert by_theta["0"].outcome_probs == (1.0, 0.0)
        assert by_theta["1"].outcome_probs == (0.5, 0.5)
        assert all(c.weight == 0.5 for c in table.contexts)

    def test_maximally_mixed(self):
        table = outcome_table(DensityOperator(np.eye(2) / 2.0), BB84)
        assert np.allclose(table.prob_matrix, 0.5)

    def test_plus_state_six_bases(self):
        plus = bloch_state(1.0, 0.0, 0.0)
        table = outcome_table(plus, SIX)
        by_theta = {c.theta: c.outcome_probs for c in table.contexts}
        assert by_theta["1"] == (1.0, 0.0)  # sigma_x basis is deterministic
        assert by_theta["0"] == (0.5, 0.5)
        assert by_theta["2"] == (0.5, 0.5)
        assert all(c.weight == pytest.approx(1.0 / 3.0) for c in table.contexts)

    def test_weights_and_rows_normalised(self):
        rho = random_density(3, 4, seed=11)
        table = outcome_table(rho, BB84)
        assert table.weight_vector.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(table.prob_matrix.sum(axis=1), 1.0, atol=1e-10)

    def test_tables_of_held_states_up_to_the_entry_limit(self):
        # 4^11 and 6^8 entries fit in 2^23; 4^12 and 6^9 do not
        assert len(outcome_table(random_density(5, 1, seed=0), BB84)) == 2**5
        assert len(outcome_table(random_density(4, 1, seed=0), SIX)) == 3**4
        big = random_density(9, 1, seed=0)
        tracemalloc.start()
        try:
            with pytest.raises(
                ValueError,
                match=r"^1 six outcome tables of 9 qubits hold 1 x 6\^9 entries, "
                r"more than the limit of 8388608$",
            ):
                outcome_table(big, SIX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the one copy of the held state that the table call stacks
        assert peak < big.matrix.nbytes + 2**20

    @pytest.mark.parametrize("states,accepted", [(2, True), (3, False)])
    def test_entry_limit_is_exact(self, monkeypatch, states, accepted):
        # Two 11-qubit BB84 tables hold exactly 2 x 4^11 = 2^23 entries. The
        # states are zero-stride views, and the first array built after the
        # check stands in for the contraction.
        class Allocated(Exception):
            pass

        def allocated(family):
            raise Allocated

        monkeypatch.setattr(simulator, "_outcome_step", allocated)
        matrices = np.broadcast_to(np.zeros((1, 1, 1, 1), dtype=complex), (states, 1, 2048, 2048))
        with pytest.raises(Allocated if accepted else ValueError):
            stack_outcome_arrays(matrices, np.ones((states, 1)), BB84)

    def test_ensemble_contexts(self):
        ensemble = StateEnsemble(
            [
                EnsembleMember("a", 0.25, product_eigenstate(BB84, (0,), (0,))),
                EnsembleMember("b", 0.75, product_eigenstate(BB84, (1,), (0,))),
            ]
        )
        table = outcome_table(ensemble, BB84)
        assert len(table) == 4
        weights = {(c.k, c.theta): c.weight for c in table.contexts}
        assert weights[("a", "0")] == pytest.approx(0.125)
        assert weights[("b", "1")] == pytest.approx(0.375)

    def test_eigenstates_attain_the_floor(self):
        for family in (BB84, SIX):
            for n, theta, x in [(1, (0,), (1,)), (2, (1, 0), (0, 1))]:
                state = product_eigenstate(family, theta, x)
                table = outcome_table(state, family)
                for alpha in (1.5, 2.0):
                    assert cond_renyi_entropy(table, alpha) == pytest.approx(
                        n * renyi_floor(alpha, family), abs=1e-10
                    )


@st.composite
def states_and_ensembles(draw):
    """A random state or labelled ensemble of 1..default_qubit_budget qubits, and its family."""
    family = draw(st.sampled_from([BB84, SIX]))
    n = draw(st.integers(1, family.default_qubit_budget))
    members = draw(st.integers(1, 3))
    states = [
        random_density(n, draw(st.integers(1, 2**n)), draw(st.integers(0, 2**32)))
        for _ in range(members)
    ]
    if members == 1:
        return family, states[0]
    weights = [draw(st.floats(0.05, 1.0)) for _ in range(members)]
    total = sum(weights)
    return family, StateEnsemble(
        EnsembleMember(f"k{j}", w / total, state)
        for j, (w, state) in enumerate(zip(weights, states))
    )


class TestStackedOutcomeTable:
    @settings(max_examples=40, deadline=None)
    @given(states_and_ensembles())
    def test_matches_trace_oracle(self, case):
        family, states = case
        table = outcome_table(states, family)
        oracle = trace_outcome_rows(states, family)
        assert [(c.k, c.theta) for c in table.contexts] == list(oracle)
        assert np.max(np.abs(table.prob_matrix - np.array(list(oracle.values())))) <= 1e-12
        if isinstance(states, StateEnsemble):
            members = states.members
        else:
            members = [EnsembleMember("0", 1.0, states)]
        strings = family.bases_per_qubit ** members[0].state.n_qubits
        expected_weights = np.repeat([m.probability / strings for m in members], strings)
        assert np.max(np.abs(table.weight_vector - expected_weights)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(states_and_ensembles())
    def test_table_is_the_validated_arrays(self, case):
        # One validation per table: the object and array paths agree bit for bit.
        family, states = case
        table = outcome_table(states, family)
        (weights,), (rows,) = outcome_arrays([states], family)
        assert np.array_equal(table.weight_vector, weights)
        assert np.array_equal(table.prob_matrix, rows)
        assert_matches_context_oracles(table)

    @pytest.mark.parametrize("family", [BB84, SIX])
    def test_matches_kronecker_oracle(self, family):
        # Two sizes above the benchmark's largest.
        for n in range(1, family.default_qubit_budget + 3):
            for seed in range(3):
                state = random_density(n, 1 + seed % 2**n, seed=500 + seed)
                table = outcome_table(state, family)
                oracle = kron_outcome_table(state, family)
                assert [(c.k, c.theta) for c in table.contexts] == [
                    (c.k, c.theta) for c in oracle.contexts
                ]
                assert np.max(np.abs(table.prob_matrix - oracle.prob_matrix)) <= 1e-12
                assert np.max(np.abs(table.weight_vector - oracle.weight_vector)) <= 1e-15

    @pytest.mark.parametrize("family,theta", [(BB84, 0), (BB84, 1), (SIX, 0), (SIX, 1), (SIX, 2)])
    def test_basis_unitaries_are_unitary(self, family, theta):
        u = family.basis_unitary(theta)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-14

    def test_memory_of_a_seven_qubit_table_stays_near_its_size(self):
        # The table holds 2^14 entries (128 KiB); a stack of the 2^7
        # seven-qubit basis unitaries alone would take 32 MiB.
        state = random_density(7, 1, seed=7)
        tracemalloc.start()
        try:
            outcome_arrays([state], BB84)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_outcome_arrays_stack_tables_member_major(self):
        ensembles = [
            StateEnsemble(
                EnsembleMember(str(j), p, random_density(2, 1 + j, seed=10 * t + j))
                for j, p in enumerate((0.25, 0.75))
            )
            for t in range(3)
        ]
        weights, rows = outcome_arrays(ensembles, SIX)
        assert weights.shape == (3, 2 * 9) and rows.shape == (3, 2 * 9, 4)
        for ensemble, w, r in zip(ensembles, weights, rows):
            table = outcome_table(ensemble, SIX)
            assert np.array_equal(w, table.weight_vector)
            assert np.array_equal(r, table.prob_matrix)
        with pytest.raises(ValueError, match="same number of members"):
            outcome_arrays([ensembles[0], random_density(2, 1, seed=0)], SIX)


class TestProjectorsOfManyQubits:
    """Projectors and conditioning on many qubits build one column, not a table."""

    def test_eight_qubit_projector_matches_kronecker_product(self):
        theta, x = (0, 1) * 4, (1, 0, 0, 1, 1, 1, 0, 0)
        proj = measurement_operator(BB84, theta, x)
        single = np.array([1.0 + 0.0j])
        for t, b in zip(theta, x):
            single = np.kron(single, BB84.basis_unitary(t)[:, b])
        assert proj.shape == (256, 256)
        assert np.max(np.abs(proj - np.outer(single, single.conj()))) <= 1e-15

    def test_conditioning_on_four_qubits(self):
        theta_a, x_a = (2, 1, 0, 2), (0, 1, 1, 0)
        rho = DensityOperator(
            np.kron(measurement_operator(SIX, theta_a, x_a), np.diag([0.25, 0.75]))
        )
        sigma = post_measurement_state(rho, SIX, theta_a, x_a)
        assert np.max(np.abs(sigma.matrix - np.diag([0.25, 0.75]))) <= 1e-12


class TestPostMeasurement:
    def test_product_state_unaffected(self):
        rho = DensityOperator(np.kron([[1, 0], [0, 0]], [[1, 0], [0, 0]]))
        sigma = post_measurement_state(rho, BB84, (0,), (0,))
        assert np.allclose(sigma.matrix, [[1, 0], [0, 0]])

    def test_bell_collapse_computational(self):
        sigma = post_measurement_state(bell_state(), BB84, (0,), (0,))
        assert np.allclose(sigma.matrix, [[1, 0], [0, 0]], atol=1e-12)

    def test_bell_collapse_hadamard(self):
        sigma = post_measurement_state(bell_state(), BB84, (1,), (0,))
        assert np.allclose(sigma.matrix, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_zero_probability_outcome(self):
        rho = DensityOperator(np.kron([[1, 0], [0, 0]], [[1, 0], [0, 0]]))
        with pytest.raises(ValueError, match="probability"):
            post_measurement_state(rho, BB84, (0,), (1,))

    def test_rare_outcome_is_conditioned_on(self):
        # probability 1e-6 is rare, not numerically zero (1e-14 and below)
        rho = DensityOperator(np.kron(np.diag([1 - 1e-6, 1e-6]), [[0, 0], [0, 1]]))
        sigma = post_measurement_state(rho, BB84, (0,), (1,))
        assert np.allclose(sigma.matrix, [[0, 0], [0, 1]], atol=1e-12)

    def test_subsystem_bounds(self):
        with pytest.raises(ValueError, match="leading qubits"):
            post_measurement_state(bell_state(), BB84, (0, 0), (0, 0))

    def test_chain_rule_against_nested_oracle(self):
        # full-table power sum must match the marginal-then-conditional route
        for family in (BB84, SIX):
            for trial in range(20):
                rho = random_density(2, 1 + trial % 4, seed=1000 + trial)
                for alpha in (1.5, 2.0):
                    full = renyi_power_sum(outcome_table(rho, family), alpha)
                    nested = nested_power_sum(rho, family, alpha)
                    assert full == pytest.approx(nested, abs=1e-10)


class TestRandomDensity:
    def test_deterministic_given_seed(self):
        a = random_density(1, 1, seed=42)
        b = random_density(1, 1, seed=42)
        assert np.array_equal(a.matrix, b.matrix)
        c = random_density(1, 1, seed=43)
        assert not np.allclose(a.matrix, c.matrix)

    def test_construction_is_valid_state(self):
        # PSD and unit trace come from the G G^dagger construction
        for seed in range(5):
            rho = random_density(2, 3, seed=seed)
            eigenvalues = np.linalg.eigvalsh(rho.matrix)
            assert eigenvalues.min() >= -1e-12
            assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_is_pure(self):
        rho = random_density(2, 1, seed=7)
        assert np.linalg.eigvalsh(rho.matrix).max() == pytest.approx(1.0, abs=1e-12)

    def test_rank_bounds(self):
        with pytest.raises(ValueError, match="rank"):
            random_density(1, 3, seed=0)
        with pytest.raises(ValueError, match="rank"):
            random_density(2, 0, seed=0)
        with pytest.raises(ValueError, match="rank"):
            random_densities(2, [1, 5], [0, 1])
        with pytest.raises(ValueError, match="2 ranks for 1 seeds"):
            random_densities(2, [1, 2], [0])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(1, 2**n), st.integers(0, 2**64 - 1)),
                    min_size=1,
                    max_size=8,
                ),
            )
        )
    )
    def test_stack_matches_per_state_drawer_bit_for_bit(self, case):
        n, draws = case
        ranks, seeds = zip(*draws)
        stack = random_densities(n, ranks, seeds)
        assert stack.shape == (len(draws), 2**n, 2**n)
        assert not stack.flags.writeable
        for matrix, rank, seed in zip(stack, ranks, seeds):
            assert np.array_equal(matrix, reference_random_density(n, rank, seed))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_rank_in_one_stack_matches_per_state_drawer(self, n):
        ranks = list(range(1, 2**n + 1)) * 2
        seeds = [1000 * n + i for i in range(len(ranks))]
        stack = random_densities(n, ranks, seeds)
        for matrix, rank, seed in zip(stack, ranks, seeds):
            assert np.array_equal(matrix, reference_random_density(n, rank, seed))
            assert np.array_equal(random_density(n, rank, seed).matrix, matrix)

    def test_two_qubit_pure_states_are_entangled_on_average(self):
        # reduced single-qubit states of random pure two-qubit states are mixed
        lengths = []
        for seed in range(1000):
            rho = random_density(2, 1, seed=seed)
            reduced = np.einsum("ijkj->ik", rho.matrix.reshape(2, 2, 2, 2))
            lengths.append(
                math.sqrt(
                    sum((reduced @ SIGMA[a]).trace().real ** 2 for a in "xyz")
                )
            )
        assert np.mean(lengths) < 1.0


class TestBlochState:
    def test_poles_and_axes(self):
        assert np.allclose(bloch_state(0, 0, 1).matrix, [[1, 0], [0, 0]])
        assert np.allclose(bloch_state(1, 0, 0).matrix, 0.5 * np.ones((2, 2)))
        assert np.allclose(
            bloch_state(0, 1, 0).matrix, measurement_operator(SIX, (2,), (0,))
        )

    def test_rejects_vectors_outside_ball(self):
        with pytest.raises(ValueError, match="Bloch"):
            bloch_state(1.0, 0.0, 0.1)
        with pytest.raises(ValueError, match="Bloch"):
            bloch_state(0.0, 0.0, 1.0 + 1e-6)


def test_stacked_probabilities_normalise_like_each_ensemble():
    rng = np.random.default_rng(3)
    for k in (2, 3, 9, 12):
        rows = rng.dirichlet(np.ones(k), size=5) * (1.0 + 1e-10)
        checked = checked_probabilities(rows)
        for row, got in zip(rows.tolist(), checked.tolist()):
            assert got == [p / sum(row) for p in row]
            members = [EnsembleMember(str(j), p, bloch_state(0, 0, 1)) for j, p in enumerate(row)]
            assert [m.probability for m in StateEnsemble(members).members] == got
    with pytest.raises(ValueError, match="^ensemble probabilities sum to 1.2, expected 1$"):
        checked_probabilities([[0.5, 0.5], [0.6, 0.6]])
    with pytest.raises(ValueError, match="nonnegative"):
        checked_probabilities([[0.5, 0.5], [1.5, -0.5]])


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_mixing_probability_rejected(bad):
    members = [
        EnsembleMember("a", bad, bloch_state(0, 0, 1)),
        EnsembleMember("b", 1.0, bloch_state(0, 0, -1)),
    ]
    with pytest.raises(ValueError, match="^ensemble probabilities must be finite$"):
        StateEnsemble(members)
    with pytest.raises(ValueError, match="^ensemble probabilities must be finite$"):
        checked_probabilities([[0.5, 0.5], [bad, 1.0]])


def test_ensemble_validation():
    member = EnsembleMember("a", 0.6, bloch_state(0, 0, 1))
    with pytest.raises(ValueError, match="sum"):
        StateEnsemble([member, EnsembleMember("b", 0.6, bloch_state(0, 0, -1))])
    with pytest.raises(ValueError, match="dimension"):
        StateEnsemble([member, EnsembleMember("b", 0.4, bell_state())])
    with pytest.raises(ValueError, match="at least one"):
        StateEnsemble([])
