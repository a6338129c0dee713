"""Tests for SQL execution, set-based comparison, and agent evaluation."""

import json
import random
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from evosql.backends import OracleGenerationBackend, ScriptedGenerationBackend
from evosql.errors import BackendError, InvalidStateError, SqlError
from evosql.harness import (
    GoldTable,
    QuestionOutcome,
    ResultTable,
    _canonical_cell,
    _canonical_rows,
    compare_results,
    evaluate_agent,
    execute_gold,
    execute_sql,
    write_error_analysis,
)
from evosql.registry import load_package
from evosql.scheduler import QuestionItem, load_question_pool
from tests.conftest import make_database


def test_execute_sql_simple(school_db):
    table = execute_sql(school_db, "SELECT 1")
    assert table.rows == [(1,)]
    assert table.truncated is False


def test_execute_sql_syntax_error(school_db):
    with pytest.raises(SqlError) as err:
        execute_sql(school_db, "SELEC 1")
    assert err.value.kind == "syntax"


def test_execute_sql_runtime_error(school_db):
    with pytest.raises(SqlError) as err:
        execute_sql(school_db, "SELECT * FROM no_such_table")
    assert err.value.kind == "runtime"


@pytest.mark.parametrize("sql", ["SELECT 1\u0000", "SELECT '\ud800'"])
def test_execute_sql_text_sqlite3_refuses_is_an_sql_error(school_db, sql):
    # sqlite3 refuses a NUL character or a lone surrogate before SQLite
    # sees the text, raising ValueError, sqlite3.Warning, UnicodeEncodeError
    # or sqlite3.ProgrammingError depending on the Python version. The
    # per-question memo keeps only SqlError, so anything else would end the
    # evaluation.
    with pytest.raises(SqlError) as err:
        execute_sql(school_db, sql)
    assert err.value.kind == "runtime"


def test_execute_sql_timeout(school_db):
    # A non-terminating recursive CTE must be interrupted and classified.
    with pytest.raises(SqlError) as err:
        execute_sql(
            school_db,
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
            "SELECT COUNT(*) FROM c",
            timeout=1.0,
        )
    assert err.value.kind == "timeout"


def test_execute_sql_read_only(school_db):
    with pytest.raises(SqlError):
        execute_sql(school_db, "DELETE FROM students")
    table = execute_sql(school_db, "SELECT COUNT(*) FROM students")
    assert table.rows == [(5,)]


def _table(rows):
    return ResultTable(rows=list(rows))


def test_compare_ignores_row_order():
    assert compare_results(_table([(1, "a"), (2, "b")]), _table([(2, "b"), (1, "a")]))


def test_compare_extra_column_fails():
    assert not compare_results(_table([(1, "a", "x")]), _table([(1, "a")]))


def test_compare_empty_equals_empty():
    assert compare_results(_table([]), _table([]))


def test_compare_duplicates_collapse():
    assert compare_results(_table([(1,), (1,)]), _table([(1,)]))


def test_compare_integral_real_equals_integer():
    assert compare_results(_table([(2.0, "x")]), _table([(2, "x")]))
    assert not compare_results(_table([(2.5,)]), _table([(2,)]))


def test_compare_nulls_and_nan():
    assert compare_results(_table([(None,)]), _table([(None,)]))
    assert not compare_results(_table([(None,)]), _table([(0,)]))
    assert compare_results(_table([(float("nan"),)]), _table([(float("nan"),)]))


def test_execute_sql_returns_null_for_nan(school_db):
    table = execute_sql(school_db, "SELECT 0.0 / 0.0, 1e308 * 10 - 1e308 * 10")
    assert table.rows == [(None, None)]


_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0, 0.5, float("inf"), float("-inf")]),
    st.builds(lambda: float("nan")),
    st.floats(),
    st.binary(max_size=2),
    st.text(max_size=2),
)


_ROW_LISTS = st.integers(1, 3).flatmap(
    lambda arity: st.lists(
        st.one_of(st.tuples(*[_CELLS] * arity), st.lists(_CELLS, min_size=arity, max_size=arity)),
        max_size=8,
    )
)


def _per_cell(rows) -> set:
    return {tuple(_canonical_cell(cell) for cell in row) for row in rows}


@given(_ROW_LISTS)
def test_canonical_rows_equal_the_per_cell_canonicalization(rows):
    assert _canonical_rows(rows) == _per_cell(rows)


@given(_ROW_LISTS, _ROW_LISTS, st.randoms())
def test_compare_agrees_with_per_cell_canonicalization(rows, other, rng):
    # A reordered copy with fresh NaN objects must match; any other rows
    # match exactly when their per-cell canonical sets are equal.
    copy = [tuple(float("nan") if cell != cell else cell for cell in row) for row in rows]
    rng.shuffle(copy)
    gold = GoldTable(_canonical_rows(rows), [])
    assert compare_results(_table(copy), _table(rows))
    assert compare_results(_table(copy), gold)
    expected = _per_cell(other) == _per_cell(rows)
    assert compare_results(_table(other), _table(rows)) == expected
    assert compare_results(_table(other), gold) == expected


def _oracle_compare(pred_rows, gold_rows):
    """Independent brute-force oracle: canonicalize each row to a string key
    and compare sorted unique key lists."""

    def key(row):
        parts = []
        for cell in row:
            if cell is None:
                parts.append("\x00null")
            elif isinstance(cell, bool):
                parts.append(f"int:{int(cell)}")
            elif isinstance(cell, float) and cell != cell:
                parts.append("\x00nan")
            elif isinstance(cell, (int, float)) and float(cell) == int(cell):
                parts.append(f"int:{int(cell)}")
            elif isinstance(cell, float):
                parts.append(f"float:{cell!r}")
            elif isinstance(cell, bytes):
                parts.append(f"bytes:{cell.hex()}")
            else:
                parts.append(f"str:{cell}")
        return "|".join(parts) + f"#arity{len(row)}"

    return sorted({key(r) for r in pred_rows}) == sorted({key(r) for r in gold_rows})


def _random_rows(rng):
    def cell():
        kind = rng.randrange(6)
        if kind == 0:
            return None
        if kind == 1:
            return rng.randrange(-3, 4)
        if kind == 2:
            return float(rng.randrange(-3, 4))
        if kind == 3:
            return rng.choice(["a", "b", "A", ""])
        if kind == 4:
            return rng.choice([0.5, 1.5, 2.5])
        return bytes([rng.randrange(3)])

    arity = rng.randrange(1, 4)
    return [tuple(cell() for _ in range(arity)) for _ in range(rng.randrange(0, 6))]


def test_compare_agrees_with_oracle_on_randomized_pairs():
    rng = random.Random(2024)
    agreements = 0
    for _ in range(1000):
        gold_rows = _random_rows(rng)
        choice = rng.randrange(4)
        if choice == 0:
            pred_rows = list(gold_rows)
            rng.shuffle(pred_rows)
        elif choice == 1:  # duplicate some rows
            pred_rows = gold_rows + [r for r in gold_rows if rng.random() < 0.5]
            rng.shuffle(pred_rows)
        elif choice == 2 and gold_rows:  # arity mutation
            pred_rows = [r + (1,) for r in gold_rows]
        else:
            pred_rows = _random_rows(rng)
        expected = _oracle_compare(pred_rows, gold_rows)
        actual = compare_results(_table(pred_rows), _table(gold_rows))
        assert actual == expected
        agreements += 1
    assert agreements == 1000


@given(
    st.lists(
        st.tuples(st.integers(-2, 2), st.sampled_from(["x", "y", None])),
        max_size=6,
    )
)
def test_compare_reflexive_and_permutation_invariant(rows):
    table = _table(rows)
    assert compare_results(table, table)
    shuffled = list(rows)
    random.Random(0).shuffle(shuffled)
    assert compare_results(_table(shuffled), table)
    assert compare_results(table, _table(shuffled))


def _plan(data_root, db_ids=("school",), limit=None):
    _, question_pool = load_question_pool(data_root)
    return {
        db: question_pool[db][:limit] if limit else list(question_pool[db])
        for db in db_ids
    }


def test_execute_gold_caches_per_question(data_root):
    plan = _plan(data_root)
    gold = execute_gold(plan, data_root)
    assert len(gold) == len(plan["school"])
    assert all(isinstance(table, GoldTable) for table in gold.values())


def test_execute_gold_flags_defective(data_root):
    plan = _plan(data_root, limit=2)
    plan["school"][0].gold_sql = "SELEC broken"
    gold = execute_gold(plan, data_root)
    assert isinstance(gold[("school", 1)], str)
    assert isinstance(gold[("school", 2)], GoldTable)


def _numbers_root(root, rows: int):
    """A data root with one database, numbers, whose table t holds 1..rows."""
    values = ", ".join(f"({i})" for i in range(1, rows + 1))
    make_database(root / "numbers" / "numbers.sqlite",
                  f"CREATE TABLE t (x INTEGER); INSERT INTO t VALUES {values};")
    return root


def test_truncated_prediction_never_matches(tmp_path, monkeypatch):
    # 150 rows cut at a cap of 100 equal the first 100 rows, which is what
    # the gold query returns; the comparison must still fail.
    import evosql.harness as harness_module

    monkeypatch.setattr(harness_module, "ROW_CAP", 100)
    db = _numbers_root(tmp_path, 150) / "numbers" / "numbers.sqlite"
    gold = execute_sql(db, "SELECT x FROM t WHERE x <= 100")
    pred = execute_sql(db, "SELECT x FROM t ORDER BY x")
    assert not gold.truncated and pred.truncated
    assert pred.rows == gold.rows
    assert not compare_results(pred, gold)
    assert not compare_results(gold, pred)


def test_truncated_gold_is_defective(tmp_path, monkeypatch):
    import evosql.harness as harness_module

    monkeypatch.setattr(harness_module, "ROW_CAP", 100)
    root = _numbers_root(tmp_path, 150)
    items = [
        QuestionItem(1, "numbers", "All numbers?", gold_sql="SELECT x FROM t"),
        QuestionItem(2, "numbers", "Small numbers?", gold_sql="SELECT x FROM t WHERE x <= 100"),
    ]
    gold = execute_gold({"numbers": items}, root)
    assert "ROW_CAP" in gold[("numbers", 1)]
    assert [key for key, g in gold.items() if isinstance(g, GoldTable)] == [("numbers", 2)]


# One full scan of t per row: the first row comes at once, the rest slowly.
_SLOW_PER_ROW_SQL = ("WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
                     "SELECT x, (SELECT count(*) FROM t WHERE t.x > c.x % 7) FROM c")


class _FetchLockProbe:
    """Wraps the harness fetch lock, counting its holds and the most
    threads inside it at once."""

    def __init__(self, lock):
        self._lock = lock
        self.holds = 0
        self.inside = 0
        self.most_inside = 0
        self.fetching = threading.Event()

    def __enter__(self):
        self._lock.__enter__()
        self.holds += 1
        self.inside += 1
        self.most_inside = max(self.most_inside, self.inside)
        self.fetching.set()

    def __exit__(self, *exc_info):
        self.inside -= 1
        self._lock.__exit__(*exc_info)


@pytest.fixture
def fetch_probe(monkeypatch):
    import evosql.harness as harness_module

    probe = _FetchLockProbe(harness_module._FETCH_LOCK)
    monkeypatch.setattr(harness_module, "_FETCH_LOCK", probe)
    return probe


@pytest.mark.parametrize("cap", [8, 10])
@pytest.mark.parametrize("rows", [0, 3, 4, 5, 7, 8, 9, 10, 11, 12])
def test_chunked_fetch_keeps_the_row_cap(tmp_path, monkeypatch, cap, rows):
    # Chunks of 4 rows: 4 and 8 are chunk boundaries, and the cap is one
    # (8) or falls inside a chunk (10).
    import evosql.harness as harness_module

    monkeypatch.setattr(harness_module, "ROW_CAP", cap)
    monkeypatch.setattr(harness_module, "FETCH_CHUNK_ROWS", 4)
    db = _numbers_root(tmp_path, 12) / "numbers" / "numbers.sqlite"
    table = execute_sql(db, f"SELECT x FROM t WHERE x <= {rows} ORDER BY x")
    assert table.rows == [(x,) for x in range(1, min(rows, cap) + 1)]
    assert table.truncated == (rows > cap)


def test_timeout_interrupts_the_fetch_and_frees_the_lock(tmp_path, fetch_probe):
    db = _numbers_root(tmp_path, 10_000) / "numbers" / "numbers.sqlite"
    with pytest.raises(SqlError) as err:
        execute_sql(db, _SLOW_PER_ROW_SQL, timeout=0.3)
    assert err.value.kind == "timeout"
    assert fetch_probe.holds > 1  # interrupted after a whole chunk was read
    results = []
    other = threading.Thread(
        target=lambda: results.append(execute_sql(db, "SELECT count(*) FROM t")))
    other.start()
    other.join(timeout=10)
    assert not other.is_alive()
    assert results[0].rows == [(10_000,)]


def test_fetch_slow_per_row_does_not_hold_off_small_queries(tmp_path, fetch_probe):
    # A threading.Lock alone lets a small query through now and then, by
    # luck of the wake-up race, but seldom five in a row.
    db = _numbers_root(tmp_path, 10_000) / "numbers" / "numbers.sqlite"
    kinds = []

    def slow():
        with pytest.raises(SqlError) as err:
            execute_sql(db, _SLOW_PER_ROW_SQL, timeout=2.5)
        kinds.append(err.value.kind)

    thread = threading.Thread(target=slow)
    thread.start()
    assert fetch_probe.fetching.wait(timeout=10)
    start = time.monotonic()
    tables = [execute_sql(db, "SELECT x FROM t WHERE x <= 50") for _ in range(5)]
    took = time.monotonic() - start
    finished_first = thread.is_alive()
    thread.join(timeout=10)
    assert not thread.is_alive() and kinds == ["timeout"]
    assert [len(table.rows) for table in tables] == [50] * 5
    assert finished_first and took < 1.0


def test_fetches_are_serialised_and_intact_under_contention(tmp_path, fetch_probe, monkeypatch):
    # Small chunks and almost no patience: threads queue at the lock on
    # nearly every chunk, and many take the turnstile.
    import evosql.harness as harness_module

    monkeypatch.setattr(harness_module, "FETCH_CHUNK_ROWS", 7)
    monkeypatch.setattr(harness_module, "FETCH_PATIENCE", 0.0005)
    db = _numbers_root(tmp_path, 300) / "numbers" / "numbers.sqlite"
    wrong = []

    def fetch_many(first):
        for limit in range(first, 300, 37):
            table = execute_sql(db, f"SELECT x FROM t WHERE x <= {limit} ORDER BY x")
            if table.rows != [(x,) for x in range(1, limit + 1)]:
                wrong.append(limit)

    threads = [threading.Thread(target=fetch_many, args=(first,)) for first in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert fetch_probe.most_inside == 1


def test_scripted_fixture_rejects_reply_list(tmp_path):
    # A list consumed call by call would hand replies out in thread order.
    fixture = tmp_path / "replies.json"
    fixture.write_text(json.dumps(["SELECT 1"]))
    with pytest.raises(ValueError, match="by_question"):
        ScriptedGenerationBackend.from_fixture(fixture)
    fixture.write_text(json.dumps({"default": ["SELECT 1"]}))
    assert ScriptedGenerationBackend.from_fixture(fixture).complete("", [], 0.0) == "SELECT 1"


def _oracle_backend(data_root):
    _, question_pool = load_question_pool(data_root)
    return OracleGenerationBackend.from_question_pool(question_pool)


def _analyses_for(pkg, plan, data_root):
    """An analysis callable answering with pkg's tool output per database,
    run once here."""
    from evosql.toolrun import run_agent_tool
    from evosql.scheduler import database_path

    texts = {db: run_agent_tool(pkg, database_path(data_root, db)).text for db in plan}
    return lambda _pkg, db: texts[db]


def _evaluate_one(pkg, plan, backend, analysis, gold, data_root, **kwargs):
    """evaluate_agent on one package; analysis(pkg, db_id) is its text."""
    return evaluate_agent(
        [pkg], plan, backend, analysis, gold, data_root, **kwargs
    )[pkg.id]


def test_evaluate_agent_oracle_is_perfect(data_root, naive_package_dir):
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root)
    gold = execute_gold(plan, data_root)
    evaluation = _evaluate_one(
        pkg, plan, _oracle_backend(data_root), _analyses_for(pkg, plan, data_root),
        gold, data_root,
    )
    assert evaluation.accuracy == Fraction(1)
    assert all(o.match for o in evaluation.outcomes)
    assert all(o.failure_kind == "none" for o in evaluation.outcomes)
    assert evaluation.usage()["request"] > 0


def test_evaluate_agent_counts_failures(data_root, naive_package_dir):
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root, limit=4)
    gold = execute_gold(plan, data_root)
    # Scripted: wrong result for every question (consistent scripted replies
    # keyed per question are unnecessary; the default list repeats).
    backend = ScriptedGenerationBackend(
        default=["SELECT 999", "SELECT 999", "SELECT 999", "SELECT 999"]
    )
    evaluation = _evaluate_one(
        pkg, plan, backend, _analyses_for(pkg, plan, data_root), gold, data_root
    )
    assert evaluation.matches < evaluation.total
    kinds = {o.failure_kind for o in evaluation.outcomes if not o.match}
    assert kinds <= {"wrong_result", "empty_vs_nonempty"}


def test_evaluate_agent_excludes_defective_gold(data_root, naive_package_dir):
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root, limit=3)
    plan["school"][0].gold_sql = "SELEC broken"
    gold = execute_gold(plan, data_root)
    evaluation = _evaluate_one(
        pkg, plan, _oracle_backend(data_root), _analyses_for(pkg, plan, data_root),
        gold, data_root,
    )
    assert evaluation.total == 2  # defective question excluded from denominator


def test_evaluate_agent_all_gold_defective(data_root, naive_package_dir):
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root, limit=2)
    for item in plan["school"]:
        item.gold_sql = "SELEC broken"
    gold = execute_gold(plan, data_root)
    with pytest.raises(InvalidStateError):
        _evaluate_one(
            pkg, plan, _oracle_backend(data_root), _analyses_for(pkg, plan, data_root),
            gold, data_root,
        )


def test_evaluate_agent_runs_each_analysis_once_and_none_without_a_question(
        data_root, naive_package_dir):
    packages = [load_package(naive_package_dir), load_package(naive_package_dir, "twin")]
    plan = _plan(data_root, db_ids=("school", "films"), limit=2)
    calls = []

    def analysis(pkg, db):
        calls.append((pkg.id, db))
        return "schema"

    evaluate_agent(packages, plan, _oracle_backend(data_root), analysis,
                   execute_gold(plan, data_root), data_root, workers=2)
    assert sorted(calls) == sorted((pkg.id, db) for pkg in packages for db in plan)
    calls.clear()
    for item in plan["school"] + plan["films"]:
        item.gold_sql = "SELEC broken"
    with pytest.raises(InvalidStateError, match="^no scorable question: none sampled, or "
                                                "every gold query is defective$"):
        evaluate_agent(packages, plan, _oracle_backend(data_root), analysis,
                       execute_gold(plan, data_root), data_root)
    assert calls == []


def test_evaluate_agent_blocked_analysis_counts_incorrect(data_root, naive_package_dir):
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root, limit=3)
    gold = execute_gold(plan, data_root)
    evaluation = _evaluate_one(
        pkg, plan, _oracle_backend(data_root), lambda _pkg, _db: None, gold, data_root
    )
    assert evaluation.matches == 0
    assert all(o.failure_kind == "pipeline_error" for o in evaluation.outcomes)


def test_gold_executed_once_regardless_of_agent_count(data_root, naive_package_dir, monkeypatch):
    import evosql.harness as harness_module

    pkg = load_package(naive_package_dir)
    plan = _plan(data_root, limit=3)
    gold_sql_texts = {q.gold_sql for q in plan["school"]}
    calls = {"gold": 0}
    real_execute = harness_module.execute_sql

    def counting_execute(db_path, sql, timeout=30.0):
        if sql in gold_sql_texts:
            calls["gold"] += 1
        return real_execute(db_path, sql, timeout)

    monkeypatch.setattr(harness_module, "execute_sql", counting_execute)
    gold = execute_gold(plan, data_root)
    backend = ScriptedGenerationBackend(default=["SELECT 12345"])
    analyses = _analyses_for(pkg, plan, data_root)
    for _ in range(3):  # three agents sharing one iteration's gold cache
        _evaluate_one(pkg, plan, backend, analyses, gold, data_root)
    assert calls["gold"] == len(plan["school"])


def _count_sql(monkeypatch):
    """Record the SQL text of every harness.execute_sql call from here on."""
    import evosql.harness as harness_module

    calls = []
    real_execute = harness_module.execute_sql

    def counting_execute(db_path, sql, timeout=30.0):
        calls.append(sql)
        return real_execute(db_path, sql, timeout)

    monkeypatch.setattr(harness_module, "execute_sql", counting_execute)
    return calls


def test_accepted_question_executes_sql_once(data_root, naive_package_dir, monkeypatch):
    # The verification loop runs the oracle's SQL and accepts it; scoring
    # reads that execution instead of running the SQL again.
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root, limit=1)
    gold = execute_gold(plan, data_root)
    analyses = _analyses_for(pkg, plan, data_root)
    calls = _count_sql(monkeypatch)
    evaluation = _evaluate_one(pkg, plan, _oracle_backend(data_root), analyses, gold, data_root)
    (outcome,) = evaluation.outcomes
    assert outcome.match
    assert outcome.transcript.attempts[-1].verdict == "accepted_correct"
    assert calls == [plan["school"][0].gold_sql]


def test_failing_sql_executes_once_per_text(data_root, naive_package_dir, monkeypatch):
    # A broken query that the model "revises" to the same text and then
    # accepts: its error is remembered rather than re-run, and scoring runs
    # only the text of the alerted retry.
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root, limit=1)
    gold = execute_gold(plan, data_root)
    analyses = _analyses_for(pkg, plan, data_root)
    backend = ScriptedGenerationBackend(default=["SELEC 1", "SELEC 1", "CORRECT", "SELECT 999"])
    calls = _count_sql(monkeypatch)
    evaluation = _evaluate_one(pkg, plan, backend, analyses, gold, data_root)
    (outcome,) = evaluation.outcomes
    assert outcome.predicted_sql == "SELECT 999"
    assert outcome.failure_kind == "wrong_result"
    assert calls == ["SELEC 1", "SELECT 999"]


def test_evaluate_agent_workers_match_sequential(data_root, naive_package_dir):
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root)
    gold = execute_gold(plan, data_root)
    analyses = _analyses_for(pkg, plan, data_root)
    sequential = _evaluate_one(
        pkg, plan, _oracle_backend(data_root), analyses, gold, data_root, workers=1
    )
    concurrent = _evaluate_one(
        pkg, plan, _oracle_backend(data_root), analyses, gold, data_root, workers=4,
        backend_concurrency=8,
    )
    assert [o.to_dict() for o in sequential.outcomes] == [o.to_dict() for o in concurrent.outcomes]


def test_backend_waits_overlap_while_sql_stays_bounded(data_root, naive_package_dir,
                                                       monkeypatch):
    import evosql.harness as harness_module

    workers, concurrency = 2, 4
    packages = [load_package(naive_package_dir), load_package(naive_package_dir, "twin")]
    plan = _plan(data_root)
    gold = execute_gold(plan, data_root)
    text = _analyses_for(packages[0], plan, data_root)
    oracle = _oracle_backend(data_root)
    lock = threading.Lock()
    busy = {"backend": 0, "sql": 0}
    peak = {"backend": 0, "sql": 0}
    first_calls = []
    # The first `concurrency` backend calls wait for each other: they can
    # only all arrive if that many tasks are in flight at once.
    meet = threading.Barrier(concurrency, timeout=10)

    def counted(kind, fn):
        with lock:
            busy[kind] += 1
            peak[kind] = max(peak[kind], busy[kind])
        try:
            return fn()
        finally:
            with lock:
                busy[kind] -= 1

    class SleepingBackend:
        def complete(self, system_text, conversation, temperature):
            def call():
                with lock:
                    first_calls.append(None)
                    waits = len(first_calls) <= concurrency
                if waits:
                    meet.wait()
                time.sleep(0.01)
                return oracle.complete(system_text, conversation, temperature)
            return counted("backend", call)

    real_execute = harness_module.execute_sql

    def slow_execute(db_path, sql, timeout=30.0):
        def call():
            time.sleep(0.005)
            return real_execute(db_path, sql, timeout)
        return counted("sql", call)

    monkeypatch.setattr(harness_module, "execute_sql", slow_execute)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads as often as possible
    try:
        evaluations = evaluate_agent(
            packages, plan, SleepingBackend(), text, gold,
            data_root, workers=workers, backend_concurrency=concurrency,
        )
    finally:
        sys.setswitchinterval(interval)
    assert [ev.matches for ev in evaluations.values()] == [len(plan["school"])] * 2
    assert peak["backend"] >= concurrency
    assert 1 <= peak["sql"] <= workers


def test_in_process_backend_runs_workers_tasks_at_a_time(data_root, naive_package_dir):
    # An in-process backend waits on nothing, so threads beyond workers
    # would only cost memory and slot handoffs.
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root)
    gold = execute_gold(plan, data_root)
    analyses = _analyses_for(pkg, plan, data_root)
    threads = set()

    class CountingOracle(OracleGenerationBackend):
        def complete(self, *args):
            threads.add(threading.get_ident())
            time.sleep(0.002)
            return super().complete(*args)

    _, question_pool = load_question_pool(data_root)
    evaluation = _evaluate_one(pkg, plan, CountingOracle.from_question_pool(question_pool),
                               analyses, gold, data_root, workers=2, backend_concurrency=8)
    assert evaluation.matches == evaluation.total
    assert 1 <= len(threads) <= 2


def test_evaluate_agent_rejects_concurrency_below_one(data_root, naive_package_dir):
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root, limit=1)
    gold = execute_gold(plan, data_root)
    for bad in ({"workers": 0}, {"backend_concurrency": 0}):
        with pytest.raises(ValueError, match="must be >= 1"):
            _evaluate_one(pkg, plan, _oracle_backend(data_root), lambda _pkg, _db: "schema",
                          gold, data_root, **bad)


def test_backend_outage_is_reported_apart_from_pipeline_errors(data_root, naive_package_dir):
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root, limit=3)
    gold = execute_gold(plan, data_root)
    analyses = _analyses_for(pkg, plan, data_root)

    class Down:
        def complete(self, *_args):
            raise BackendError("chat endpoint failure (attempt 4): HTTP Error 503")

    down = _evaluate_one(pkg, plan, Down(), analyses, gold, data_root)
    assert {o.failure_kind for o in down.outcomes} == {"backend_error"}
    assert "Failures: backend_error: 3" in write_error_analysis(1, down.outcomes)
    # An empty first generation is the agent's, not the backend's, failure.
    empty = _evaluate_one(pkg, plan, ScriptedGenerationBackend(default=["```\n```"]),
                          analyses, gold, data_root)
    assert {o.failure_kind for o in empty.outcomes} == {"pipeline_error"}


class _ReplyBackend:
    def __init__(self, reply):
        self.reply = reply

    def complete(self, *_args):
        return self.reply


@pytest.mark.parametrize("backend", [
    ScriptedGenerationBackend(default=["SELECT '\ud800'"]),
    _ReplyBackend(None),
    _ReplyBackend(b"SELECT 1"),
], ids=["lone-surrogate", "none", "bytes"])
def test_reply_that_is_not_text_is_a_backend_error(data_root, naive_package_dir, backend):
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root, limit=2)
    gold = execute_gold(plan, data_root)
    evaluation = _evaluate_one(pkg, plan, backend, _analyses_for(pkg, plan, data_root),
                               gold, data_root)
    assert {o.failure_kind for o in evaluation.outcomes} == {"backend_error"}
    write_error_analysis(1, evaluation.outcomes).encode("utf-8")


def test_prompts_identical_across_agents_except_analysis():
    from evosql.pipeline import assemble_prompt

    prompt_a = assemble_prompt("ANALYSIS-A", "shared instructions", "Q", "E")
    prompt_b = assemble_prompt("ANALYSIS-B", "shared instructions", "Q", "E")
    assert prompt_a.replace("ANALYSIS-A", "") == prompt_b.replace("ANALYSIS-B", "")


def _outcome(agent, qid, match, kind="none", question="q?"):
    return QuestionOutcome(
        question_id=qid,
        db_id="school",
        agent_id=agent,
        question=question,
        evidence="",
        predicted_sql="SELECT 1",
        gold_sql="SELECT 1",
        match=match,
        failure_kind=kind if not match else "none",
        pred_preview=["1"],
        gold_preview=["1"],
    )


def test_error_report_sections():
    outcomes = [
        _outcome("A", 1, True),
        _outcome("A", 2, False, "wrong_result"),
        _outcome("B", 1, False, "sql_error"),
        _outcome("B", 2, True),
    ]
    report = write_error_analysis(3, outcomes)
    assert "# Error Analysis Report - Iteration 3" in report
    assert "## Agent: A" in report and "## Agent: B" in report
    assert "Accuracy: 1/2 (50.0%)" in report
    assert "wrong_result: 1" in report
    # Disjoint failures: each question was solved by exactly one agent.
    assert "school q1 (only A)" in report
    assert "school q2 (only B)" in report
    assert "missed by all agents:\n- none" in report


def test_error_report_no_failures():
    report = write_error_analysis(1, [_outcome("A", 1, True)])
    assert "No errors." in report


def test_error_report_regenerates_identically():
    outcomes = [_outcome("A", 1, False, "timeout"), _outcome("B", 1, True)]
    first = write_error_analysis(2, outcomes)
    # Rebuild outcomes from their persisted form.
    reloaded = [QuestionOutcome(**o.to_dict()) for o in outcomes]
    assert write_error_analysis(2, reloaded) == first
