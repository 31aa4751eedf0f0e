"""Construction, validation and file format of conditional tables."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrobound import (
    ConditionalTable,
    Context,
    EnsembleMember,
    MeasurementFamily,
    StateEnsemble,
    cond_min_entropy,
    cond_renyi_entropy,
    cond_shannon_entropy,
    load_table,
    outcome_table,
    random_density,
    table_from_json_dict,
    uniform_table,
)
from entrobound import tables
from entrobound.tables import validated_arrays
from helpers import assert_matches_context_oracles, random_table


def test_empty_table_rejected():
    with pytest.raises(ValueError, match="at least one context"):
        ConditionalTable([])


def test_mismatched_alphabets_rejected():
    with pytest.raises(ValueError, match="alphabet"):
        ConditionalTable(
            [
                Context("k", "0", 0.5, (1.0, 0.0)),
                Context("k", "1", 0.5, (0.5, 0.25, 0.25)),
            ]
        )


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="weight"):
        ConditionalTable(
            [
                Context("k", "0", -0.25, (1.0, 0.0)),
                Context("k", "1", 1.25, (0.5, 0.5)),
            ]
        )


def test_weight_sum_violation_rejected():
    with pytest.raises(ValueError, match="weights sum"):
        ConditionalTable(
            [
                Context("k", "0", 0.6, (1.0, 0.0)),
                Context("k", "1", 0.6, (0.5, 0.5)),
            ]
        )


def test_row_sum_violation_rejected():
    with pytest.raises(ValueError, match=r"p_x sums"):
        ConditionalTable([Context("k", "0", 1.0, (0.7, 0.2))])


def test_entry_above_one_rejected():
    with pytest.raises(ValueError, match="not a probability"):
        ConditionalTable([Context("k", "0", 1.0, (1.3, -0.3))])


def test_small_drift_is_renormalised():
    # 1e-10 drift is float noise, not a construction bug.
    table = ConditionalTable(
        [
            Context("k", "0", 0.5 + 5e-11, (1.0, 1e-10)),
            Context("k", "1", 0.5, (0.5, 0.5)),
        ]
    )
    assert table.weight_vector.sum() == pytest.approx(1.0, abs=1e-15)
    assert table.prob_matrix[0].sum() == pytest.approx(1.0, abs=1e-15)


def test_tiny_probabilities_snapped_to_zero():
    table = ConditionalTable([Context("k", "0", 1.0, (1.0, 1e-16))])
    assert table.prob_matrix[0, 1] == 0.0


def test_arrays_are_read_only():
    table = uniform_table(2, 2)
    with pytest.raises(ValueError):
        table.weight_vector[0] = 0.9
    with pytest.raises(ValueError):
        table.prob_matrix[0, 0] = 0.9


def _from_arrays(contexts):
    """The same table through ``from_arrays``; rectangular rows go in as one matrix."""
    rows = [c.outcome_probs for c in contexts]
    if len({len(row) for row in rows}) == 1:
        rows = np.array(rows)
    return ConditionalTable.from_arrays(
        [c.k for c in contexts],
        [c.theta for c in contexts],
        np.array([c.weight for c in contexts]),
        rows,
    )


_INVALID = {
    "empty": [],
    "alphabet mismatch": [Context("k", "0", 0.5, (1.0, 0.0)), Context("k", "1", 0.5, (0.5, 0.25, 0.25))],
    "negative weight": [Context("k", "0", -0.25, (1.0, 0.0)), Context("k", "1", 1.25, (0.5, 0.5))],
    "weight sum": [Context("k", "0", 0.6, (1.0, 0.0)), Context("k", "1", 0.6, (0.5, 0.5))],
    "row sum": [Context("k", "0", 0.5, (0.5, 0.5)), Context("k", "1", 0.5, (0.7, 0.2))],
    "entry above one": [Context("k", "0", 0.5, (0.5, 0.5)), Context("k", "1", 0.5, (1.3, -0.3))],
    "nan weight": [Context("k", "0", math.nan, (1.0, 0.0)), Context("k", "1", 1.0, (0.5, 0.5))],
    "nan entry": [Context("k", "0", 1.0, (math.nan, 1.0))],
}

_MESSAGES = {
    "empty": "at least one context",
    "alphabet mismatch": r"alphabet size: \[2, 3\]",
    "negative weight": r"^contexts\[0\]\.weight = -0\.25 is negative$",
    "weight sum": "weights sum",
    "row sum": r"^contexts\[1\]\.p_x sums to ",
    "entry above one": r"^contexts\[1\]\.p_x\[0\] = 1\.3 is not a probability$",
    "nan weight": r"^contexts\[0\]\.weight = nan is not finite$",
    "nan entry": r"^contexts\[0\]\.p_x\[0\] = nan is not a probability$",
}


@pytest.mark.parametrize("case", sorted(_INVALID))
def test_both_constructors_reject_with_the_same_message(case):
    with pytest.raises(ValueError, match=_MESSAGES[case]) as via_contexts:
        ConditionalTable(_INVALID[case])
    with pytest.raises(ValueError) as via_arrays:
        _from_arrays(_INVALID[case])
    assert str(via_arrays.value) == str(via_contexts.value)


@pytest.mark.parametrize(
    "contexts",
    [
        [Context("k", "0", 0.5 + 5e-11, (1.0, 1e-10)), Context("k", "1", 0.5, (0.5, 0.5))],
        [Context("k", "0", 1.0, (1.0, 1e-16))],
        [Context("a", "01", 0.25, (0.1, 0.2, 0.7)), Context("b", "10", 0.75, (1.0 + 1e-13, 0.0, 0.0))],
    ],
    ids=["drift renormalised", "tiny value snapped", "entry clipped to one"],
)
def test_both_constructors_build_the_same_table(contexts):
    expected = ConditionalTable(contexts)
    table = _from_arrays(contexts)
    assert np.array_equal(table.prob_matrix, expected.prob_matrix)
    assert np.array_equal(table.weight_vector, expected.weight_vector)
    assert table.contexts == expected.contexts
    assert len(table) == len(expected) and table.num_outcomes == expected.num_outcomes
    for built in (table, expected):
        with pytest.raises(ValueError):
            built.weight_vector[0] = 0.9
        with pytest.raises(ValueError):
            built.prob_matrix[0, 0] = 0.9


def test_from_arrays_copies_its_inputs():
    weights = np.array([0.5, 0.5])
    probs = np.array([[1.0, 0.0], [0.5, 0.5]])
    table = ConditionalTable.from_arrays(["k", "k"], ["0", "1"], weights, probs)
    weights[0] = probs[0, 0] = 7.0
    assert table.contexts == (Context("k", "0", 0.5, (1.0, 0.0)), Context("k", "1", 0.5, (0.5, 0.5)))


def test_from_arrays_label_and_shape_mismatch():
    with pytest.raises(ValueError, match="labels"):
        ConditionalTable.from_arrays(["k"], ["0", "1"], [0.5, 0.5], [[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError, match="weights"):
        ConditionalTable.from_arrays(["k", "k"], ["0", "1"], [1.0], [[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError, match="matrix"):
        ConditionalTable.from_arrays(["k"], ["0"], [1.0], np.ones((1, 2, 1)))
    with pytest.raises(ValueError, match=r"matrix, got shape \(2,\)"):
        ConditionalTable.from_arrays(["k"], ["0"], [1.0], np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match=r"matrix, got shape \(\)"):
        ConditionalTable.from_arrays(["k"], ["0"], [1.0], 1.0)
    with pytest.raises(ValueError, match=r"weights must form a vector, got shape \(\)"):
        ConditionalTable.from_arrays(["k"], ["0"], 1.0, [[0.5, 0.5]])


def test_validated_arrays_checks_each_table_of_a_stack():
    weights = np.array([[0.5, 0.5], [0.25, 0.75]])
    probs = np.array([[[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.7, 0.2]]])
    with pytest.raises(ValueError, match=r"^contexts\[1\]\.p_x sums to "):
        validated_arrays(weights, probs)
    probs[1, 1] = (0.7, 0.3)
    checked_weights, checked_probs = validated_arrays(weights, probs)
    for t in range(2):
        table = ConditionalTable.from_arrays(["k", "k"], ["0", "1"], weights[t], probs[t])
        assert np.array_equal(checked_weights[t], table.weight_vector)
        assert np.array_equal(checked_probs[t], table.prob_matrix)
    with pytest.raises(ValueError, match="context weights sum to 1.25"):
        validated_arrays(np.array([[0.5, 0.5], [0.5, 0.75]]), probs)
    with pytest.raises(ValueError, match="do not match"):
        validated_arrays(weights, probs[0])


def test_subtables_by_k_renormalise():
    table = ConditionalTable(
        [
            Context("a", "0", 0.25, (1.0, 0.0)),
            Context("a", "1", 0.25, (0.5, 0.5)),
            Context("b", "0", 0.25, (0.0, 1.0)),
            Context("b", "1", 0.25, (0.5, 0.5)),
        ]
    )
    subs = table.subtables_by_k()
    assert set(subs) == {"a", "b"}
    for sub in subs.values():
        assert len(sub) == 2
        assert sub.weight_vector.sum() == pytest.approx(1.0)
        assert all(c.weight == pytest.approx(0.5) for c in sub.contexts)


def test_subtables_and_json_match_the_record_oracles():
    rng = np.random.default_rng(3)
    for _ in range(50):
        assert_matches_context_oracles(random_table(rng, max_contexts=12))
    # a label of zero total weight gets no subtable
    assert_matches_context_oracles(
        ConditionalTable(
            [
                Context("a", "0", 0.0, (1.0, 0.0)),
                Context("b", "0", 0.5, (0.0, 1.0)),
                Context("a", "1", 0.0, (0.5, 0.5)),
                Context("b", "1", 0.5, (0.5, 0.5)),
            ]
        )
    )


def test_json_round_trip():
    table = ConditionalTable(
        [
            Context("a", "01", 0.5, (0.25, 0.75)),
            Context("b", "10", 0.5, (0.75, 0.25)),
        ]
    )
    back = table_from_json_dict(table.to_json_dict())
    assert back.contexts == table.contexts


@pytest.mark.parametrize(
    "doc, field",
    [
        ({}, "contexts"),
        ({"contexts": 3}, '"contexts"'),
        ({"contexts": [1]}, r"contexts\[0\]"),
        ({"contexts": [{"theta": "0", "weight": 1.0, "p_x": [1.0, 0.0]}]}, r"contexts\[0\].*'k'"),
        (
            {"contexts": [{"k": "a", "theta": "0", "weight": "x", "p_x": [1.0, 0.0]}]},
            r"contexts\[0\]\.weight",
        ),
        (
            {"contexts": [{"k": "a", "theta": "0", "weight": 1.0, "p_x": [1.0, "y"]}]},
            r"contexts\[0\]\.p_x",
        ),
        (
            {"contexts": [{"k": "a", "theta": 0, "weight": 1.0, "p_x": [1.0, 0.0]}]},
            r"contexts\[0\]\.theta",
        ),
    ],
)
def test_malformed_documents_name_the_field(doc, field):
    with pytest.raises(ValueError, match=field):
        table_from_json_dict(doc)


HUGE = 10**400  # a JSON integer that no float can hold


@pytest.mark.parametrize(
    "weight, p_x, field",
    [
        (HUGE, [0.5, 0.5], r"^contexts\[1\]\.weight is too large"),
        (-HUGE, [0.5, 0.5], r"^contexts\[1\]\.weight is too large"),
        (0.5, [0.5, HUGE], r"^contexts\[1\]\.p_x\[1\] is too large"),
        (HUGE, [HUGE, 0.5], r"^contexts\[1\]\.p_x\[0\] is too large"),
    ],
    ids=["weight", "negative-weight", "p_x", "p_x-before-weight"],
)
def test_integers_too_large_for_a_float_name_the_field(weight, p_x, field):
    doc = {
        "contexts": [
            {"k": "a", "theta": "0", "weight": 0.5, "p_x": [1.0, 0.0]},
            {"k": "a", "theta": "1", "weight": weight, "p_x": p_x},
        ]
    }
    with pytest.raises(ValueError, match=field):
        table_from_json_dict(json.loads(json.dumps(doc)))
    with pytest.raises(ValueError, match=field):
        ConditionalTable(
            Context(c["k"], c["theta"], c["weight"], tuple(c["p_x"])) for c in doc["contexts"]
        )


def test_load_table(tmp_path):
    path = tmp_path / "table.json"
    doc = {
        "contexts": [
            {"k": "k", "theta": "0", "weight": 0.5, "p_x": [1.0, 0.0]},
            {"k": "k", "theta": "1", "weight": 0.5, "p_x": [0.5, 0.5]},
        ]
    }
    path.write_text(json.dumps(doc))
    table = load_table(str(path))
    assert len(table) == 2
    assert table.num_outcomes == 2


def test_load_table_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_table(str(path))


_JSON_NUMBERS = st.integers() | st.floats()  # json.loads reads NaN and Infinity too
_JSON = st.recursive(
    st.none() | st.booleans() | _JSON_NUMBERS | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)


@st.composite
def _near_tables(draw):
    """A valid table document, often with one field of one context replaced."""
    size = draw(st.integers(min_value=1, max_value=4))
    outcomes = draw(st.integers(min_value=1, max_value=3))
    contexts = [
        {"k": "k", "theta": str(i), "weight": 1 / size, "p_x": [1 / outcomes] * outcomes}
        for i in range(size)
    ]
    if draw(st.booleans()):
        field = draw(st.sampled_from(["k", "theta", "weight", "p_x"]))
        value = draw(_JSON_NUMBERS | st.lists(_JSON_NUMBERS, max_size=4) | _JSON)
        contexts[draw(st.integers(min_value=0, max_value=size - 1))][field] = value
    return {"contexts": contexts}


_DOCUMENTS = _JSON | st.fixed_dictionaries({"contexts": _JSON}) | _near_tables()


@settings(max_examples=400, deadline=None)
@given(_DOCUMENTS)
def test_arbitrary_documents_give_a_table_or_a_value_error(doc):
    try:
        table = table_from_json_dict(doc)
    except ValueError:
        return
    assert isinstance(table, ConditionalTable)
    assert_matches_context_oracles(table)


def test_uniform_table():
    table = uniform_table(3, 2)
    assert len(table) == 3
    assert np.allclose(table.prob_matrix, 0.5)


def test_package_builds_no_context_records(monkeypatch, tmp_path):
    # Tables are their validated arrays; only the ``contexts`` view builds records.
    def no_record(*args, **kwargs):
        raise AssertionError("a Context record was built")

    ensemble = StateEnsemble(
        EnsembleMember(f"k{j}", 0.25, random_density(8, 1 + j, seed=j)) for j in range(4)
    )
    path = tmp_path / "table.json"
    monkeypatch.setattr(tables, "Context", no_record)
    table = outcome_table(ensemble, MeasurementFamily.BB84, max_qubits=8)
    assert len(table) == 1024
    path.write_text(json.dumps(table.to_json_dict()))
    built = [
        table,
        load_table(str(path)),
        ConditionalTable.from_arrays(
            ["k"] * 1024, [str(i) for i in range(1024)], table.weight_vector, table.prob_matrix
        ),
        *table.subtables_by_k().values(),
        uniform_table(1024, 2),
    ]
    for each in built:
        cond_min_entropy(each)
        cond_renyi_entropy(each, 1.5)
        cond_shannon_entropy(each)
    with pytest.raises(AssertionError, match="Context record"):
        table.contexts
