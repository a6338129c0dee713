"""Tests for task sampling, mode selection, roster rules, and the shared
roster and settle steps."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from evosql.errors import DataValidationError, InvalidStateError
from evosql.registry import AgentRegistry
from evosql.scheduler import (
    MODE_CHALLENGER,
    MODE_EVOLVE,
    MODE_NONE,
    TOP_POOL_SIZE,
    _fill_from_top,
    choose_mode,
    determine_winners,
    iteration_rng,
    load_question_pool,
    roster_for_iteration,
    sample_iteration_tasks,
    select_competitors,
    settle_iteration,
)
from tests.conftest import make_data_root


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


def test_load_question_pool_rejects_duplicate_question_ids(tmp_path):
    # A second question under the same (db_id, question_id) would take the
    # first one's gold result.
    make_data_root(tmp_path)
    records = json.loads((tmp_path / "questions.json").read_text())
    first, second = [rec for rec in records if rec["db_id"] == "school"][:2]
    second["question_id"] = first["question_id"]
    (tmp_path / "questions.json").write_text(json.dumps(records))
    with pytest.raises(DataValidationError,
                       match=f"duplicate question ids: school q{first['question_id']}$"):
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


@pytest.mark.parametrize("question_pool", [
    {}, {f"db{i}": [] for i in range(8)}, {f"db{i}": [] for i in range(0, 8, 2)},
], ids=["missing", "empty", "some missing"])
def test_sampling_empty_question_pools_draws_only_the_databases(question_pool):
    db_pool = [f"db{i}" for i in range(8)]
    rng, reference = random.Random(11), random.Random(11)
    databases, questions = sample_iteration_tasks(db_pool, question_pool, rng)
    assert databases == reference.sample(db_pool, 5)
    assert questions == dict.fromkeys(databases, [])
    assert rng.getstate() == reference.getstate()


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
        if pending:
            registry.winners.add(agent_id)
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

    settle_iteration(shared, competitors, accuracies)

    inline.elo.decompose_and_update(
        [(agent_id, accuracies[agent_id]) for agent_id in competitors]
    )
    winners = determine_winners(accuracies)
    inline.record_iteration_outcome(competitors, winners)
    assert winners == {"a", "b"}

    def snapshot(registry):
        return {
            agent_id: (r.rating.value, r.rating.games, r.tests, r.iteration_wins,
                       agent_id in registry.winners)
            for agent_id, r in registry.records.items()
        }

    assert snapshot(shared) == snapshot(inline)


@pytest.mark.parametrize("record, field", [
    ({"question": "How many?"}, "SQL"),  # as in BIRD's test split
    ({"question": "How many?", "SQL": " \n"}, "SQL"),
    ({"question": "How many?", "gold_sql": "SELECT 1"}, "SQL"),  # no alias
    ({"question": "", "SQL": "SELECT 1"}, "question"),
    ({"SQL": "SELECT 1"}, "question"),
])
def test_load_question_pool_refuses_a_record_without_question_or_sql(tmp_path, record, field):
    root = make_data_root(tmp_path / "data")
    records = json.loads((root / "questions.json").read_text())
    records.append({"question_id": 99, "db_id": "shop", "evidence": "", **record})
    (root / "questions.json").write_text(json.dumps(records))
    with pytest.raises(DataValidationError) as err:
        load_question_pool(root)
    assert str(err.value) == f"questions.json: shop q99 has no {field}"


@pytest.mark.parametrize("record, message", [
    ({"db_id": "shop"}, "has no question_id"),
    ({"question_id": 99}, "has no db_id"),
    ({"db_id": "shop", "question_id": "q99"}, "(shop) has question_id 'q99', not an integer"),
    ({"db_id": "shop", "question_id": "99"}, "(shop) has question_id '99', not an integer"),
    ({"db_id": "shop", "question_id": 9.5}, "(shop) has question_id 9.5, not an integer"),
    ({"db_id": "shop", "question_id": True}, "(shop) has question_id True, not an integer"),
    ({"db_id": 5, "question_id": 99}, "has db_id 5, not a string"),
    ({"db_id": ["shop"], "question_id": 99}, "has db_id ['shop'], not a string"),
])
def test_load_question_pool_refuses_a_record_without_its_ids(tmp_path, record, message):
    root = make_data_root(tmp_path / "data")
    records = json.loads((root / "questions.json").read_text())
    records.append({"question": "How many?", "SQL": "SELECT 1", **record})
    (root / "questions.json").write_text(json.dumps(records))
    with pytest.raises(DataValidationError) as err:
        load_question_pool(root)
    assert str(err.value) == f"questions.json: record at index {len(records) - 1} {message}"


@pytest.mark.parametrize("evidence", [5, ["hint"], {"hint": 1}])
def test_load_question_pool_refuses_evidence_that_is_not_text(tmp_path, evidence):
    # assemble_prompt strips the evidence, which would end a run mid-iteration.
    root = make_data_root(tmp_path / "data")
    records = json.loads((root / "questions.json").read_text())
    records.append({"question_id": 99, "db_id": "shop", "question": "How many?",
                    "SQL": "SELECT 1", "evidence": evidence})
    (root / "questions.json").write_text(json.dumps(records))
    with pytest.raises(DataValidationError) as err:
        load_question_pool(root)
    assert str(err.value) == (f"questions.json: shop q99 has evidence {evidence!r}, "
                              "neither a string nor null")


def test_load_question_pool_reads_null_or_missing_evidence_as_empty(tmp_path):
    root = make_data_root(tmp_path / "data")
    records = json.loads((root / "questions.json").read_text())
    records.append({"question_id": 98, "db_id": "shop", "question": "How many?",
                    "SQL": "SELECT 1", "evidence": None})
    records.append({"question_id": 99, "db_id": "shop", "question": "How many?",
                    "SQL": "SELECT 1"})
    (root / "questions.json").write_text(json.dumps(records))
    _, question_pool = load_question_pool(root)
    assert [q.evidence for q in question_pool["shop"][-2:]] == ["", ""]


def test_load_question_pool_refuses_a_record_that_is_not_an_object(tmp_path):
    root = make_data_root(tmp_path / "data")
    (root / "questions.json").write_text('["SELECT 1"]')
    with pytest.raises(DataValidationError,
                       match=r"^questions.json: record at index 0 has no db_id$"):
        load_question_pool(root)


@pytest.mark.parametrize("text, kind", [("5", "int"), ('{"a": 1}', "dict")])
def test_load_question_pool_refuses_a_file_that_is_not_an_array(tmp_path, text, kind):
    root = make_data_root(tmp_path / "data")
    (root / "questions.json").write_text(text)
    with pytest.raises(DataValidationError) as err:
        load_question_pool(root)
    assert str(err.value) == f"questions.json holds {kind}, not an array of records"


def test_load_question_pool_reports_faults_in_file_order(tmp_path):
    # A record with no SQL comes before one of an unknown database.
    root = make_data_root(tmp_path / "data")
    records = json.loads((root / "questions.json").read_text())
    records.append({"question_id": 98, "db_id": "shop", "question": "How many?"})
    records.append({"question_id": 99, "db_id": "ghost", "question": "?", "SQL": "SELECT 1"})
    (root / "questions.json").write_text(json.dumps(records))
    with pytest.raises(DataValidationError, match="^questions.json: shop q98 has no SQL$"):
        load_question_pool(root)
    del records[-2]
    (root / "questions.json").write_text(json.dumps(records))
    with pytest.raises(DataValidationError,
                       match="^questions reference unknown databases: ghost$"):
        load_question_pool(root)


@given(
    spec=st.lists(st.tuples(st.sampled_from([1400, 1500, 1510, 1600]), st.integers(0, 3),
                            st.booleans()), min_size=1, max_size=8),
    new_index=st.integers(0, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolve_and_none_rosters_seat_top_two_picks(spec, new_index, seed):
    registry = _registry([(f"a{i}", *entry) for i, entry in enumerate(spec)])
    new_agent = f"a{new_index % len(spec)}"
    seated = [a for a in registry.pending_winners() if a != new_agent] + [new_agent]
    for mode, prefix, size in [
        (MODE_NONE, [], min(4, len(spec))),
        (MODE_EVOLVE, seated, max(len(seated), min(3, len(spec)))),
    ]:
        roster = select_competitors(mode, registry, new_agent, random.Random(seed))
        assert len(roster) == size
        assert len(set(roster)) == len(roster)
        assert roster[:len(prefix)] == prefix
        for seat in range(len(prefix), size):
            assert roster[seat] in registry.top_by_elo(2, exclude=set(roster[:seat]))


def _challenger_by_scan(registry):
    """The challenger roster as it was written first, a sort of every
    record: the reference the ranking-prefix walk must agree with."""
    records = registry.records.values()
    qualified = sorted((r.agent_id in registry.winners, r.tests, -r.rating.value, r.agent_id)
                       for r in records if r.rating.value > 1500)
    roster = [key[-1] for key in qualified[:4]]
    rest = sorted((r.tests, -r.rating.value, r.agent_id)
                  for r in records if r.agent_id not in roster)
    return roster + [key[-1] for key in rest[:4 - len(roster)]]


@given(
    spec=st.lists(st.tuples(st.sampled_from([1400, 1500, 1510, 1600]), st.integers(0, 3),
                            st.booleans()), min_size=1, max_size=10),
    ranked_first=st.booleans(),
)
def test_challenger_roster_equals_the_scan_of_every_record(spec, ranked_first):
    registry = _registry([(f"a{i}", *entry) for i, entry in enumerate(spec)])
    if ranked_first:
        registry.top_by_elo(1)
    assert select_competitors(MODE_CHALLENGER, registry) == _challenger_by_scan(registry)


def _fill_seat_by_seat(roster, size, registry, rng):
    """The roster fill as it was written first, one ranking per seat: the
    reference _fill_from_top must agree with."""
    while len(roster) < size:
        candidates = registry.top_by_elo(TOP_POOL_SIZE, exclude=set(roster))
        if not candidates:
            break
        roster.append(rng.choice(candidates) if rng else candidates[0])
    return roster


@given(
    ratings=st.lists(st.tuples(st.sampled_from([1400, 1500, 1510, 1600]), st.integers(0, 3)),
                     min_size=1, max_size=10),
    data=st.data(),
    size=st.integers(0, 6),
    seed=st.none() | st.integers(0, 2**32 - 1),
)
def test_fill_from_top_equals_the_seat_by_seat_fill(ratings, data, size, seed):
    registry = _registry([(f"a{i}", rating, tests, False)
                          for i, (rating, tests) in enumerate(ratings)])
    seated = data.draw(st.permutations(registry.agent_ids()))
    seated = seated[:data.draw(st.integers(0, len(seated)))]
    rng = reference_rng = None
    if seed is not None:
        rng, reference_rng = random.Random(seed), random.Random(seed)
    roster = _fill_from_top(list(seated), size, registry, rng)
    assert roster == _fill_seat_by_seat(list(seated), size, registry, reference_rng)
    if seed is not None:
        assert rng.getstate() == reference_rng.getstate()
