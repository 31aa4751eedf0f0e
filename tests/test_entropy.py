"""Entropy computations on tables: frozen values and order/range properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrobound import (
    ConditionalTable,
    Context,
    MeasurementFamily,
    binary_entropy,
    cond_min_entropy,
    cond_renyi_entropy,
    cond_shannon_entropy,
    renyi_floor,
    renyi_power_sum,
    uniform_table,
)
from entrobound.entropy import renyi_entropies
from helpers import decimal_renyi_entropy, deterministic_table, eigenstate_table, random_table

LOG2_4_3 = math.log2(4.0 / 3.0)  # -log2(1/2 * 1 + 1/2 * 1/2), direct evaluation


class TestMinEntropy:
    def test_uniform_is_one_bit(self):
        assert cond_min_entropy(uniform_table(2, 2)) == pytest.approx(1.0)

    def test_eigenstate_value(self):
        assert cond_min_entropy(eigenstate_table()) == pytest.approx(LOG2_4_3, abs=1e-14)

    def test_deterministic_is_zero(self):
        assert cond_min_entropy(deterministic_table()) == pytest.approx(0.0, abs=1e-12)


class TestRenyiEntropy:
    def test_uniform_alpha_two(self):
        assert cond_renyi_entropy(uniform_table(2, 2), 2.0) == pytest.approx(1.0)

    def test_eigenstate_alpha_two(self):
        # power sum 1/2 * (1 + 1/2) = 3/4
        expected = math.log2(0.75) / (1.0 - 2.0)
        assert expected == pytest.approx(LOG2_4_3, abs=1e-14)
        h = cond_renyi_entropy(eigenstate_table(), 2.0)
        assert h == pytest.approx(expected, abs=1e-14)
        assert h == pytest.approx(renyi_floor(2.0, MeasurementFamily.BB84), abs=1e-14)

    def test_eigenstate_alpha_three_halves(self):
        expected = math.log2(0.5 * (1.0 + 2.0 * 2.0**-1.5)) / (1.0 - 1.5)
        assert expected == pytest.approx(0.45689339367277615, abs=1e-14)
        h = cond_renyi_entropy(eigenstate_table(), 1.5)
        assert h == pytest.approx(expected, abs=1e-14)
        assert h == pytest.approx(renyi_floor(1.5, MeasurementFamily.BB84), abs=1e-14)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0 + 1e-9, 3.0, -1.0])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            cond_renyi_entropy(eigenstate_table(), alpha)

    def test_power_sum_consistency(self):
        table = random_table(np.random.default_rng(5))
        for alpha in (1.2, 1.7, 2.0):
            p = renyi_power_sum(table, alpha)
            assert cond_renyi_entropy(table, alpha) == pytest.approx(
                math.log2(p) / (1 - alpha), abs=1e-14
            )


class TestShannonEntropy:
    def test_eigenstate_is_half_bit(self):
        # one certain basis, one uniform basis, averaged
        assert cond_shannon_entropy(eigenstate_table()) == pytest.approx(0.5, abs=1e-14)

    def test_uniform_and_deterministic(self):
        assert cond_shannon_entropy(uniform_table(2, 2)) == pytest.approx(1.0)
        assert cond_shannon_entropy(deterministic_table()) == 0.0


@pytest.mark.parametrize("alpha", [2.0, 1.3, 1.0 + 1e-12, 1.0 + 1e-15])
@pytest.mark.parametrize("rows", [[(0.0, 1.0), (1.0, 0.0)], [(1.0, 0.0), (1.0, 0.0)]])
def test_deterministic_tables_have_positive_zero_entropies(rows, alpha):
    # -log2(1) and the reduction's -log1p(0) / (s ln 2) are -0.0, which JSON
    # prints as "-0.0"; every entropy of a certain outcome reads 0.0.
    table = ConditionalTable(Context("k", str(t), 0.5, row) for t, row in enumerate(rows))
    for h in (cond_min_entropy(table), cond_renyi_entropy(table, alpha), cond_shannon_entropy(table)):
        assert math.copysign(1.0, h) == 1.0 and h == 0.0


@st.composite
def tables(draw, entries=st.floats(0.001, 1.0, allow_nan=False)):
    num_outcomes = draw(st.integers(2, 4))
    num_contexts = draw(st.integers(1, 5))
    raw_weights = draw(
        st.lists(
            st.floats(0.01, 1.0, allow_nan=False), min_size=num_contexts, max_size=num_contexts
        )
    )
    rows = draw(
        st.lists(
            st.lists(entries, min_size=num_outcomes, max_size=num_outcomes).filter(any),
            min_size=num_contexts,
            max_size=num_contexts,
        )
    )
    total = sum(raw_weights)
    contexts = []
    for i, (w, row) in enumerate(zip(raw_weights, rows)):
        row_total = sum(row)
        contexts.append(
            Context("k", str(i), w / total, tuple(p / row_total for p in row))
        )
    return ConditionalTable(contexts)


@given(tables(), st.sampled_from([1.0 + 1e-15, 1.0 + 1e-12, 1.0 + 1e-4, 1.2, 1.5, 1.8, 2.0]))
@settings(max_examples=200, deadline=None)
def test_min_entropy_never_exceeds_renyi(table, alpha):
    assert cond_min_entropy(table) <= cond_renyi_entropy(table, alpha) + 1e-10


@given(tables())
@settings(max_examples=100, deadline=None)
def test_entropies_within_range(table):
    top = math.log2(table.num_outcomes)
    for value in (
        cond_min_entropy(table),
        cond_renyi_entropy(table, 1.5),
        cond_shannon_entropy(table),
    ):
        assert -1e-10 <= value <= top + 1e-10


# Orders alpha = 1 + 10^x for x in [-15, 0], log-uniformly.
near_one_orders = st.floats(-15.0, 0.0).map(lambda x: 1.0 + 10.0**x)


@given(tables(st.sampled_from([0.0, 1e-300, 1e-9]) | st.floats(0.001, 1.0)), near_one_orders)
@settings(max_examples=200, deadline=None)
def test_renyi_entropies_match_decimal_oracle(table, alpha):
    # The textbook -log2(P)/s form misses this by ~1e-16/s bits near alpha = 1.
    weights, rows = table.weight_vector, table.prob_matrix
    entropy = float(renyi_entropies(weights, rows, alpha))
    assert abs(entropy - float(decimal_renyi_entropy(weights, rows, alpha))) <= 1e-14
    stacked = renyi_entropies(np.stack([weights, weights[::-1]]), np.stack([rows, rows[::-1]]), alpha)
    assert stacked.shape == (2,) and abs(stacked[1] - entropy) <= 1e-14


@given(tables(), st.floats(-15.0, -12.0).map(lambda x: 1.0 + 10.0**x))
@settings(max_examples=100, deadline=None)
def test_renyi_meets_shannon_near_alpha_one(table, alpha):
    # H_alpha <= H_1 holds exactly; 1e-14 allows for the rounding of both sides.
    gap = cond_shannon_entropy(table) - cond_renyi_entropy(table, alpha)
    assert -1e-14 <= gap <= 1e-10


def test_ordering_on_thousand_random_tables():
    rng = np.random.default_rng(20240817)
    alphas = (1.0 + 1e-6, 1.25, 1.5, 1.75, 2.0)
    for i in range(1000):
        table = random_table(rng)
        h_min = cond_min_entropy(table)
        alpha = alphas[i % len(alphas)]
        assert cond_renyi_entropy(table, alpha) - h_min >= -1e-10


def test_renyi_approaches_shannon():
    # L'Hopital limit of the alpha form at alpha -> 1.
    rng = np.random.default_rng(11)
    for _ in range(50):
        table = random_table(rng)
        gap = abs(cond_renyi_entropy(table, 1.0 + 1e-4) - cond_shannon_entropy(table))
        assert gap <= 1e-2


def test_grouped_table_floor():
    # A table mixing per-k subtables with shared basis weights can never dip
    # below its weakest group.
    rng = np.random.default_rng(99)
    for _ in range(100):
        k_count = int(rng.integers(2, 4))
        num_bases = int(rng.integers(2, 4))
        p_k = rng.dirichlet(np.ones(k_count))
        contexts = []
        for k in range(k_count):
            for theta in range(num_bases):
                row = rng.random(3) + 1e-6
                row /= row.sum()
                contexts.append(
                    Context(f"k{k}", str(theta), float(p_k[k] / num_bases), tuple(row))
                )
        table = ConditionalTable(contexts)
        for alpha in (1.3, 2.0):
            full = cond_renyi_entropy(table, alpha)
            per_k = [
                cond_renyi_entropy(sub, alpha) for sub in table.subtables_by_k().values()
            ]
            assert full >= min(per_k) - 1e-10


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.11) == pytest.approx(binary_entropy(0.89), abs=1e-14)
    for p in (1.2, math.nextafter(1.0, 2.0), -5e-324):  # just outside [0, 1] too
        with pytest.raises(ValueError, match="probability must lie in"):
            binary_entropy(p)
