"""Tests for the ELO engine and pairwise decomposition."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from evosql.elo import (
    EloEngine,
    INITIAL_RATING,
    K_FACTOR,
    expected_score,
    update_pair,
)
from evosql.errors import DuplicateAgentError, UnknownAgentError

ratings = st.floats(min_value=0, max_value=4000, allow_nan=False)
scores = st.sampled_from([0.0, 0.5, 1.0])


def test_equal_ratings_expect_half():
    assert expected_score(1500, 1500) == 0.5


def test_expected_score_hand_values():
    # 1/(1 + 10^(-200/400)) and its complement
    assert expected_score(1600, 1400) == pytest.approx(0.759746, abs=1e-6)
    assert expected_score(1400, 1600) == pytest.approx(0.240253, abs=1e-6)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_expected_score_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        expected_score(bad, 1500)
    with pytest.raises(ValueError):
        expected_score(1500, bad)


@given(ratings, ratings)
def test_expectation_symmetry(a, b):
    assert expected_score(a, b) + expected_score(b, a) == pytest.approx(1, abs=1e-12)
    assert 0 < expected_score(a, b) < 1


def test_update_pair_equal_win():
    assert update_pair(1500, 1500, 1.0) == (1516.0, 1484.0)


def test_update_pair_equal_tie_is_fixed_point():
    assert update_pair(1500, 1500, 0.5) == (1500.0, 1500.0)


def test_update_pair_favorite_loses():
    new_a, new_b = update_pair(1600, 1400, 0.0)
    assert new_a == pytest.approx(1575.688, abs=1e-3)
    assert new_b == pytest.approx(1424.311, abs=1e-3)


def test_update_pair_rejects_bad_score():
    with pytest.raises(ValueError):
        update_pair(1500, 1500, 0.7)


@given(ratings, ratings, scores)
def test_update_pair_zero_sum_and_monotonicity(a, b, score):
    new_a, new_b = update_pair(a, b, score)
    assert new_a + new_b == pytest.approx(a + b, abs=1e-9)
    if score == 1.0:
        assert new_a >= a
        assert new_b <= b
    if score == 0.0:
        assert new_a <= a
        assert new_b >= b


def test_upset_moves_more_than_expected_win():
    # An underdog win moves ratings more than a favorite win.
    deltas = []
    for diff in (-400, -200, 0, 200, 400):
        new_a, _ = update_pair(1500 + diff, 1500, 1.0)
        deltas.append(new_a - (1500 + diff))
    assert deltas == sorted(deltas, reverse=True)
    assert all(d1 > d2 for d1, d2 in zip(deltas, deltas[1:]))


def _engine(agent_ids):
    engine = EloEngine()
    for agent_id in agent_ids:
        engine.register(agent_id)
    return engine


def test_register_duplicate_rejected():
    engine = _engine(["A"])
    with pytest.raises(DuplicateAgentError):
        engine.register("A")


def test_decompose_worked_three_agent_case():
    # Accuracies 65/62/62 decompose to A>B, A>C, B=C.
    engine = _engine(["A", "B", "C"])
    records = engine.decompose_and_update(
        7,
        [
            ("A", Fraction(65, 100)),
            ("B", Fraction(62, 100)),
            ("C", Fraction(62, 100)),
        ],
    )
    assert [(r.agent_a, r.agent_b, r.score_a) for r in records] == [
        ("A", "B", 1.0),
        ("A", "C", 1.0),
        ("B", "C", 0.5),
    ]
    assert all(r.iteration == 7 for r in records)
    assert engine.ratings["A"].value > INITIAL_RATING
    assert engine.ratings["A"].games == 2
    assert engine.ratings["B"].games == 2


def test_decompose_single_competitor_is_noop():
    engine = _engine(["A"])
    assert engine.decompose_and_update(1, [("A", Fraction(1, 2))]) == []
    assert engine.ratings["A"].value == INITIAL_RATING


def test_decompose_all_tied_leaves_ratings_unchanged():
    engine = _engine(["A", "B", "C"])
    engine.decompose_and_update(1, [(a, Fraction(1, 2)) for a in "ABC"])
    assert all(r.value == INITIAL_RATING for r in engine.ratings.values())


def test_decompose_unknown_agent():
    engine = _engine(["A", "B"])
    with pytest.raises(UnknownAgentError):
        engine.decompose_and_update(1, [("A", 0.5), ("Z", 0.5)])


def test_decompose_rejects_out_of_range_accuracy():
    engine = _engine(["A", "B"])
    with pytest.raises(ValueError):
        engine.decompose_and_update(1, [("A", 1.5), ("B", 0.5)])


def test_decompose_uses_then_current_ratings():
    # Sequential pair application: the (B, C) pair must see B's rating as
    # already dented by the (A, B) result, not the iteration-start snapshot.
    engine = _engine(["A", "B", "C"])
    records = engine.decompose_and_update(
        1, [("A", Fraction(2, 3)), ("B", Fraction(1, 3)), ("C", Fraction(1, 3))]
    )
    ab, ac, bc = records
    assert bc.rating_a_before == ab.rating_b_after
    assert bc.rating_b_before == ac.rating_b_after


def test_decompose_deterministic():
    results = [("A", Fraction(3, 4)), ("B", Fraction(1, 2)), ("C", Fraction(1, 2))]
    first = _engine(["A", "B", "C"]).decompose_and_update(1, results)
    second = _engine(["A", "B", "C"]).decompose_and_update(1, results)
    assert first == second


def test_zero_sum_over_long_random_sequence():
    rng = random.Random(42)
    agent_ids = [f"agent{i}" for i in range(6)]
    engine = _engine(agent_ids)
    total_before = sum(r.value for r in engine.ratings.values())
    for iteration in range(2000):
        roster = rng.sample(agent_ids, rng.choice([2, 3, 4]))
        results = [(a, Fraction(rng.randrange(31), 30)) for a in roster]
        engine.decompose_and_update(iteration, results)
    assert sum(r.value for r in engine.ratings.values()) == pytest.approx(total_before, abs=1e-9)


def test_match_record_round_trip():
    engine = _engine(["A", "B"])
    (record,) = engine.decompose_and_update(3, [("A", 1), ("B", 0)])
    from evosql.elo import MatchRecord

    assert MatchRecord.from_dict(record.to_dict()) == record
    assert record.score_a == 1.0
    assert record.rating_a_after + record.rating_b_after == pytest.approx(
        record.rating_a_before + record.rating_b_before
    )
    assert K_FACTOR == 32.0
