"""Tests for task sampling, mode selection, roster rules, and the shared
roster and settle steps."""

import random
from fractions import Fraction

import pytest

from evosql.errors import DataValidationError, InvalidStateError
from evosql.registry import AgentRegistry
from evosql.scheduler import (
    MODE_CHALLENGER,
    MODE_EVOLVE,
    MODE_NONE,
    choose_mode,
    determine_winners,
    iteration_rng,
    load_question_pool,
    roster_for_iteration,
    sample_iteration_tasks,
    select_competitors,
    settle_iteration,
)


def test_load_question_pool(data_root):
    db_pool, question_pool = load_question_pool(data_root)
    assert db_pool == ["films", "school", "shop"]
    assert sum(len(v) for v in question_pool.values()) == 25
    assert all(q.db_id == "school" for q in question_pool["school"])
    assert question_pool["school"][0].evidence == ""


def test_load_question_pool_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_question_pool(tmp_path)


def test_load_question_pool_unknown_db(tmp_path):
    (tmp_path / "questions.json").write_text(
        '[{"question_id": 1, "db_id": "ghost", "question": "?", "SQL": "SELECT 1"}]'
    )
    with pytest.raises(DataValidationError, match="ghost"):
        load_question_pool(tmp_path)


def test_load_question_pool_db_dir_without_sqlite(tmp_path):
    (tmp_path / "questions.json").write_text("[]")
    (tmp_path / "empty_db").mkdir()
    with pytest.raises(DataValidationError, match="empty_db"):
        load_question_pool(tmp_path)


def test_sampling_takes_all_when_pool_small(data_root):
    db_pool, question_pool = load_question_pool(data_root)
    databases, questions = sample_iteration_tasks(db_pool, question_pool, random.Random(1))
    assert sorted(databases) == ["films", "school", "shop"]
    for db in databases:
        assert len(questions[db]) == len(question_pool[db])
        ids = [q.question_id for q in questions[db]]
        assert len(ids) == len(set(ids))


def test_sampling_respects_limits():
    db_pool = [f"db{i}" for i in range(20)]
    question_pool = {db: [] for db in db_pool}
    databases, _ = sample_iteration_tasks(db_pool, question_pool, random.Random(3))
    assert len(databases) == 5
    assert len(set(databases)) == 5


def test_sampling_deterministic_given_seed():
    db_pool = [f"db{i}" for i in range(69)]
    question_pool = {db: [] for db in db_pool}
    first, _ = sample_iteration_tasks(db_pool, question_pool, iteration_rng(7, 3))
    second, _ = sample_iteration_tasks(db_pool, question_pool, iteration_rng(7, 3))
    other, _ = sample_iteration_tasks(db_pool, question_pool, iteration_rng(7, 4))
    assert first == second
    assert first != other


def test_sampling_empty_pool():
    with pytest.raises(InvalidStateError):
        sample_iteration_tasks([], {}, random.Random(0))


def test_choose_mode_early_iterations_always_evolve():
    rng = random.Random(0)
    assert all(choose_mode(i, rng) == MODE_EVOLVE for i in range(1, 12))


def test_choose_mode_rejects_iteration_zero():
    with pytest.raises(ValueError):
        choose_mode(0, random.Random(0))


def test_choose_mode_late_stage_distribution():
    rng = random.Random(123)
    counts = {MODE_EVOLVE: 0, MODE_CHALLENGER: 0, MODE_NONE: 0}
    draws = 10_000
    for _ in range(draws):
        counts[choose_mode(12, rng)] += 1
    assert abs(counts[MODE_EVOLVE] / draws - 0.70) < 0.02
    assert abs(counts[MODE_CHALLENGER] / draws - 0.15) < 0.02
    assert abs(counts[MODE_NONE] / draws - 0.15) < 0.02
    # Chi-squared goodness of fit at alpha = 0.01 (df=2 critical value).
    expected = {MODE_EVOLVE: 0.70 * draws, MODE_CHALLENGER: 0.15 * draws, MODE_NONE: 0.15 * draws}
    chi2 = sum((counts[m] - expected[m]) ** 2 / expected[m] for m in counts)
    assert chi2 < 9.210340371976182


def _registry(spec):
    """spec: iterable of (agent_id, rating, tests, pending)."""
    registry = AgentRegistry()
    for agent_id, rating, tests, pending in spec:
        record = registry.register_record(agent_id)
        record.rating.value = rating
        record.tests = tests
        record.pending_winner = pending
    return registry


def test_select_evolve_pending_new_and_top2_pick():
    registry = _registry(
        [
            ("W", 1540, 2, True),
            ("N", 1500, 0, False),
            ("X", 1530, 2, False),
            ("Y", 1520, 2, False),
            ("Z", 1400, 2, False),
        ]
    )
    counts = {"X": 0, "Y": 0}
    for seed in range(200):
        roster = select_competitors(MODE_EVOLVE, registry, "N", random.Random(seed))
        assert roster[:2] == ["W", "N"]
        assert len(roster) == 3
        assert roster[2] in ("X", "Y")
        counts[roster[2]] += 1
    assert counts["X"] > 50 and counts["Y"] > 50  # uniform-ish over the top 2


def test_select_evolve_requires_new_agent():
    registry = _registry([("A", 1500, 0, False)])
    with pytest.raises(ValueError):
        select_competitors(MODE_EVOLVE, registry, None, random.Random(0))


def test_select_evolve_small_population_returns_everyone():
    registry = _registry([("naive", 1500, 1, True), ("iter2_new", 1500, 0, False)])
    roster = select_competitors(MODE_EVOLVE, registry, "iter2_new", random.Random(0))
    assert sorted(roster) == ["iter2_new", "naive"]


def test_select_evolve_pending_overflow_grows_roster():
    registry = _registry(
        [
            ("A", 1540, 1, True),
            ("B", 1530, 1, True),
            ("C", 1520, 1, True),
            ("N", 1500, 0, False),
            ("D", 1510, 1, False),
        ]
    )
    roster = select_competitors(MODE_EVOLVE, registry, "N", random.Random(0))
    assert set(roster) >= {"A", "B", "C", "N"}
    assert len(roster) == 4  # three pending winners + the new agent


def test_select_challenger_orders_by_tests_among_above_average():
    registry = _registry(
        [
            ("a1550", 1550, 1, False),
            ("a1520", 1520, 4, False),
            ("a1510", 1510, 2, False),
            ("a1490", 1490, 0, False),
            ("a1505", 1505, 3, False),
        ]
    )
    roster = select_competitors(MODE_CHALLENGER, registry)
    assert roster == ["a1550", "a1510", "a1505", "a1520"]


def test_select_challenger_non_pending_first_and_backfill():
    registry = _registry(
        [
            ("pend", 1560, 0, True),
            ("fresh", 1510, 1, False),
            ("low1", 1480, 0, False),
            ("low2", 1470, 2, False),
        ]
    )
    roster = select_competitors(MODE_CHALLENGER, registry)
    # fresh (non-pending, >1500) first, then the pending winner, then
    # backfill from the rest by fewest tests.
    assert roster == ["fresh", "pend", "low1", "low2"]


def test_select_none_draws_from_rolling_top2():
    registry = _registry(
        [(f"a{i}", 1500 + i, 0, False) for i in range(6)]
    )
    roster = select_competitors(MODE_NONE, registry, rng=random.Random(5))
    assert len(roster) == 4
    assert len(set(roster)) == 4


def test_select_none_small_population():
    registry = _registry([("A", 1500, 0, False), ("B", 1500, 0, False)])
    roster = select_competitors(MODE_NONE, registry, rng=random.Random(0))
    assert sorted(roster) == ["A", "B"]


def test_select_empty_population():
    with pytest.raises(InvalidStateError):
        select_competitors(MODE_NONE, AgentRegistry(), rng=random.Random(0))


def test_determine_winners():
    assert determine_winners({"A": 0.65, "B": 0.62, "C": 0.62}) == {"A"}
    assert determine_winners({"A": 0.6, "B": 0.6}) == {"A", "B"}
    assert determine_winners({"A": 0.0}) == {"A"}
    with pytest.raises(ValueError):
        determine_winners({})


def test_iteration_rng_stable_across_processes():
    # The derivation must not depend on PYTHONHASHSEED or platform.
    assert iteration_rng(0, 1).random() == iteration_rng(0, 1).random()
    values = [iteration_rng(9, i).random() for i in range(1, 5)]
    assert len(set(values)) == len(values)


def _never_evolve(iteration):
    raise AssertionError(f"iteration {iteration} must not evolve")


def test_roster_iteration_one_seats_everyone_in_id_order_without_drawing():
    registry = _registry([("b", 1500, 0, False), ("a", 1500, 0, False), ("c", 1500, 0, False)])
    rng = random.Random(3)
    before = rng.getstate()
    assert roster_for_iteration(1, registry, rng, _never_evolve) == (
        MODE_NONE, ["a", "b", "c"], None
    )
    assert rng.getstate() == before


def test_roster_without_evolve_makes_no_mode_draw():
    registry = _registry([(f"a{i}", 1500 + 10 * i, 1, False) for i in range(6)])
    rng, reference = random.Random(7), random.Random(7)
    mode, roster, new_agent = roster_for_iteration(20, registry, rng, late_stage_start=12)
    assert (mode, new_agent) == (MODE_NONE, None)
    assert roster == select_competitors(MODE_NONE, registry, rng=reference)
    assert rng.getstate() == reference.getstate()


def test_roster_evolve_returning_none_degrades_to_none_mode():
    registry = _registry([(f"a{i}", 1500 + 10 * i, 1, i == 0) for i in range(6)])
    asked = []

    def failing(iteration):
        asked.append(iteration)
        return None

    mode, roster, new_agent = roster_for_iteration(2, registry, random.Random(4), failing)
    assert asked == [2]
    assert (mode, new_agent) == (MODE_NONE, None)
    assert roster == select_competitors(MODE_NONE, registry, rng=random.Random(4))

    def evolving(iteration):
        registry.register_record(f"iter{iteration}_new")
        return f"iter{iteration}_new"

    mode, roster, new_agent = roster_for_iteration(2, registry, random.Random(4), evolving)
    assert (mode, new_agent) == (MODE_EVOLVE, "iter2_new")
    assert roster == select_competitors(MODE_EVOLVE, registry, "iter2_new", random.Random(4))


def test_settle_equals_the_inline_rating_sequence():
    spec = [("b", 1510, 2, True), ("a", 1490, 1, False), ("c", 1500, 3, False)]
    shared, inline = _registry(spec), _registry(spec)
    competitors = ["b", "c", "a"]
    accuracies = {"b": Fraction(2, 3), "c": Fraction(1, 3), "a": Fraction(2, 3)}

    match_records, winners = settle_iteration(5, shared, competitors, accuracies)

    expected_records = inline.elo.decompose_and_update(
        5, [(agent_id, accuracies[agent_id]) for agent_id in competitors]
    )
    expected_winners = determine_winners(accuracies)
    inline.record_iteration_outcome(competitors, expected_winners)
    assert [m.to_dict() for m in match_records] == [m.to_dict() for m in expected_records]
    assert winners == expected_winners == {"a", "b"}

    def snapshot(registry):
        return {
            agent_id: (r.rating.value, r.rating.games, r.tests, r.iteration_wins,
                       r.pending_winner)
            for agent_id, r in registry.records.items()
        }

    assert snapshot(shared) == snapshot(inline)
