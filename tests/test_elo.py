"""Tests for the ELO engine and pairwise decomposition."""

import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from evosql.elo import (
    EloEngine,
    INITIAL_RATING,
    K_FACTOR,
    expected_score,
    update_pair,
)
from evosql.errors import DuplicateAgentError, UnknownAgentError
from evosql.scheduler import determine_winners

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


def _hand_replay(agent_ids, pairs):
    """Ratings from INITIAL_RATING after update_pair on each (agent_a,
    agent_b, score_a) in the order given."""
    ratings = dict.fromkeys(agent_ids, INITIAL_RATING)
    for id_a, id_b, score_a in pairs:
        ratings[id_a], ratings[id_b] = update_pair(ratings[id_a], ratings[id_b], score_a)
    return ratings


def test_decompose_worked_three_agent_case():
    # Accuracies 65/62/62 decompose to A>B, A>C, B=C, in that order.
    engine = _engine(["A", "B", "C"])
    engine.decompose_and_update(
        [
            ("A", Fraction(65, 100)),
            ("B", Fraction(62, 100)),
            ("C", Fraction(62, 100)),
        ],
    )
    pairs = [("A", "B", 1.0), ("A", "C", 1.0), ("B", "C", 0.5)]
    assert {a: r.value for a, r in engine.ratings.items()} == _hand_replay("ABC", pairs)
    # The final ratings tell the pair order apart.
    assert _hand_replay("ABC", [pairs[1], pairs[0], pairs[2]]) != _hand_replay("ABC", pairs)
    assert engine.ratings["A"].value > INITIAL_RATING
    assert engine.ratings["A"].games == 2
    assert engine.ratings["B"].games == 2


def test_decompose_single_competitor_is_noop():
    engine = _engine(["A"])
    engine.decompose_and_update([("A", Fraction(1, 2))])
    assert engine.ratings["A"].value == INITIAL_RATING
    assert engine.ratings["A"].games == 0


def test_decompose_all_tied_leaves_ratings_unchanged():
    engine = _engine(["A", "B", "C"])
    engine.decompose_and_update([(a, Fraction(1, 2)) for a in "ABC"])
    assert all(r.value == INITIAL_RATING for r in engine.ratings.values())


def test_decompose_unknown_agent():
    engine = _engine(["A", "B"])
    with pytest.raises(UnknownAgentError):
        engine.decompose_and_update([("A", 0.5), ("Z", 0.5)])


def test_decompose_rejects_out_of_range_accuracy():
    engine = _engine(["A", "B"])
    with pytest.raises(ValueError):
        engine.decompose_and_update([("A", 1.5), ("B", 0.5)])


def test_decompose_uses_then_current_ratings():
    # Sequential pair application: the (B, C) pair must see B's rating as
    # already dented by the (A, B) result, not the iteration-start snapshot.
    engine = _engine(["A", "B", "C"])
    engine.decompose_and_update(
        [("A", Fraction(2, 3)), ("B", Fraction(1, 3)), ("C", Fraction(1, 3))]
    )
    final = {a: r.value for a, r in engine.ratings.items()}
    assert final == _hand_replay("ABC", [("A", "B", 1.0), ("A", "C", 1.0), ("B", "C", 0.5)])
    # Every pair's delta taken from the iteration-start ratings instead.
    assert final != {"A": INITIAL_RATING + 32, "B": INITIAL_RATING - 16,
                     "C": INITIAL_RATING - 16}


def test_decompose_deterministic():
    results = [("A", Fraction(3, 4)), ("B", Fraction(1, 2)), ("C", Fraction(1, 2))]
    first, second = _engine(["A", "B", "C"]), _engine(["A", "B", "C"])
    first.decompose_and_update(results)
    second.decompose_and_update(results)
    assert first.ratings == second.ratings
    assert first.ratings != _engine(["A", "B", "C"]).ratings


def test_zero_sum_over_long_random_sequence():
    rng = random.Random(42)
    agent_ids = [f"agent{i}" for i in range(6)]
    engine = _engine(agent_ids)
    total_before = sum(r.value for r in engine.ratings.values())
    for _ in range(2000):
        roster = rng.sample(agent_ids, rng.choice([2, 3, 4]))
        results = [(a, Fraction(rng.randrange(31), 30)) for a in roster]
        engine.decompose_and_update(results)
    assert sum(r.value for r in engine.ratings.values()) == pytest.approx(total_before, abs=1e-9)


def _reference_decompose(engine, results):
    """The pairwise decomposition scored with Python's own comparisons of
    the accuracies, whatever their types."""
    for i, (id_a, acc_a) in enumerate(results):
        for id_b, acc_b in results[i + 1:]:
            score_a = 1.0 if acc_a > acc_b else 0.5 if acc_a == acc_b else 0.0
            rating_a, rating_b = engine.ratings[id_a], engine.ratings[id_b]
            rating_a.value, rating_b.value = update_pair(rating_a.value, rating_b.value,
                                                         score_a)
            rating_a.games += 1
            rating_b.games += 1


def _reference_winners(accuracies):
    best = max(accuracies.values())
    return {agent for agent, acc in accuracies.items() if acc == best}


# Values that are equal across types, or differ by one binary ulp: 0.1 + 0.2
# is not 3/10, Fraction(0.3) is exactly 0.3, and 1/3 is not Fraction(1, 3).
_NEAR_TIES = [0, 1, True, 0.3, 0.1 + 0.2, Fraction(3, 10), Fraction(0.3), Fraction(0.1 + 0.2),
              1 / 3, Fraction(1, 3), Fraction(1 / 3), 0.5, Fraction(1, 2), 0.0, 1.0, 5e-324]
accuracies = st.one_of(
    st.sampled_from(_NEAR_TIES),
    st.integers(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1, max_denominator=40),
    st.floats(min_value=0, max_value=1),
)


@given(st.lists(accuracies, min_size=1, max_size=6), st.lists(accuracies, min_size=1, max_size=6))
@example([1 / 3, Fraction(1, 3), 0.1 + 0.2, Fraction(3, 10)],
         [Fraction(0.3), 0.3, Fraction(1, 3), 1 / 3])
def test_exact_ratios_order_accuracies_as_python_comparisons_do(first, second):
    # Two iterations, the second on ratings the first moved, so every
    # pair's expected score differs between the engine's runs and a score
    # read the other way round would show in the final ratings.
    rounds = [[(f"a{i}", acc) for i, acc in enumerate(accs)] for accs in (first, second)]
    agents = [f"a{i}" for i in range(max(len(first), len(second)))]
    engine, reference = _engine(agents), _engine(agents)
    for results in rounds:
        engine.decompose_and_update(results)
        _reference_decompose(reference, results)
        assert determine_winners(dict(results)) == _reference_winners(dict(results))
    assert {a: (r.value.hex(), r.games) for a, r in engine.ratings.items()} == \
        {a: (r.value.hex(), r.games) for a, r in reference.ratings.items()}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -0.0001,
                                 Fraction(4, 3), Fraction(-1, 30), 2, -1,
                                 Decimal("NaN"), Decimal("Infinity"), Decimal("1.01")])
def test_decompose_rejects_accuracy_that_is_not_in_unit_interval(bad):
    engine = _engine(["A", "B"])
    with pytest.raises(ValueError, match=r"'B'.*" + re.escape(repr(bad))):
        engine.decompose_and_update([("A", Fraction(1, 2)), ("B", bad)])
    assert all(r.value == INITIAL_RATING and r.games == 0 for r in engine.ratings.values())
    with pytest.raises(ValueError, match=r"'B'"):
        determine_winners({"A": Fraction(1, 2), "B": bad})


def test_decompose_accepts_decimal_and_bool_accuracies():
    engine, reference = _engine(["A", "B", "C"]), _engine(["A", "B", "C"])
    engine.decompose_and_update([("A", Decimal("0.3")), ("B", True), ("C", Fraction(3, 10))])
    reference.decompose_and_update([("A", Fraction(3, 10)), ("B", 1), ("C", Fraction(3, 10))])
    assert engine.ratings == reference.ratings
