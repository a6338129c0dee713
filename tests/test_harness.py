"""Tests for SQL execution, set-based comparison, and agent evaluation."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from evosql.backends import OracleGenerationBackend, ScriptedGenerationBackend
from evosql.errors import InvalidStateError, SqlError
from evosql.harness import (
    QuestionOutcome,
    ResultTable,
    compare_results,
    evaluate_agent,
    execute_gold,
    execute_sql,
    write_error_analysis,
)
from evosql.registry import load_package
from evosql.scheduler import IterationPlan, QuestionItem, load_question_pool
from tests.conftest import make_database


def test_execute_sql_simple(school_db):
    table = execute_sql(school_db, "SELECT 1")
    assert table.rows == [(1,)]
    assert table.row_count == 1
    assert table.truncated is False


def test_execute_sql_syntax_error(school_db):
    with pytest.raises(SqlError) as err:
        execute_sql(school_db, "SELEC 1")
    assert err.value.kind == "syntax"


def test_execute_sql_runtime_error(school_db):
    with pytest.raises(SqlError) as err:
        execute_sql(school_db, "SELECT * FROM no_such_table")
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
    return ResultTable(rows=list(rows), row_count=len(rows))


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
    questions = {
        db: question_pool[db][:limit] if limit else list(question_pool[db])
        for db in db_ids
    }
    return IterationPlan(
        iteration=1,
        mode="none",
        databases=list(db_ids),
        questions=questions,
        competitors=[],
    )


def test_execute_gold_caches_per_question(data_root):
    plan = _plan(data_root)
    gold = execute_gold(plan, data_root)
    assert len(gold.results) == len(plan.questions["school"])
    assert not gold.defective


def test_execute_gold_flags_defective(data_root):
    plan = _plan(data_root, limit=2)
    plan.questions["school"][0].gold_sql = "SELEC broken"
    gold = execute_gold(plan, data_root)
    assert ("school", 1) in gold.defective
    assert ("school", 2) in gold.results


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
    plan = IterationPlan(iteration=1, mode="none", databases=["numbers"],
                         questions={"numbers": items}, competitors=[])
    gold = execute_gold(plan, root)
    assert "ROW_CAP" in gold.defective[("numbers", 1)]
    assert list(gold.results) == [("numbers", 2)]


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
    from evosql.analyzer import run_agent_tool
    from evosql.scheduler import database_path

    return {
        db: run_agent_tool(pkg, database_path(data_root, db)).text for db in plan.databases
    }


def test_evaluate_agent_oracle_is_perfect(data_root, naive_package_dir):
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root)
    gold = execute_gold(plan, data_root)
    evaluation = evaluate_agent(
        pkg, plan, _oracle_backend(data_root), _analyses_for(pkg, plan, data_root),
        gold, data_root,
    )
    assert evaluation.accuracy == Fraction(1)
    assert all(o.match for o in evaluation.outcomes)
    assert all(o.failure_kind == "none" for o in evaluation.outcomes)
    assert evaluation.request_tokens > 0


def test_evaluate_agent_counts_failures(data_root, naive_package_dir):
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root, limit=4)
    gold = execute_gold(plan, data_root)
    # Scripted: wrong result for every question (consistent scripted replies
    # keyed per question are unnecessary; the default list repeats).
    backend = ScriptedGenerationBackend(
        default=["SELECT 999", "SELECT 999", "SELECT 999", "SELECT 999"]
    )
    evaluation = evaluate_agent(
        pkg, plan, backend, _analyses_for(pkg, plan, data_root), gold, data_root
    )
    assert evaluation.matches < evaluation.total
    kinds = {o.failure_kind for o in evaluation.outcomes if not o.match}
    assert kinds <= {"wrong_result", "empty_vs_nonempty"}


def test_evaluate_agent_excludes_defective_gold(data_root, naive_package_dir):
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root, limit=3)
    plan.questions["school"][0].gold_sql = "SELEC broken"
    gold = execute_gold(plan, data_root)
    evaluation = evaluate_agent(
        pkg, plan, _oracle_backend(data_root), _analyses_for(pkg, plan, data_root),
        gold, data_root,
    )
    assert evaluation.total == 2  # defective question excluded from denominator


def test_evaluate_agent_all_gold_defective(data_root, naive_package_dir):
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root, limit=2)
    for item in plan.questions["school"]:
        item.gold_sql = "SELEC broken"
    gold = execute_gold(plan, data_root)
    with pytest.raises(InvalidStateError):
        evaluate_agent(
            pkg, plan, _oracle_backend(data_root), _analyses_for(pkg, plan, data_root),
            gold, data_root,
        )


def test_evaluate_agent_blocked_analysis_counts_incorrect(data_root, naive_package_dir):
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root, limit=3)
    gold = execute_gold(plan, data_root)
    evaluation = evaluate_agent(
        pkg, plan, _oracle_backend(data_root), {"school": None}, gold, data_root
    )
    assert evaluation.matches == 0
    assert all(o.failure_kind == "pipeline_error" for o in evaluation.outcomes)


def test_gold_executed_once_regardless_of_agent_count(data_root, naive_package_dir, monkeypatch):
    import evosql.harness as harness_module

    pkg = load_package(naive_package_dir)
    plan = _plan(data_root, limit=3)
    gold_sql_texts = {q.gold_sql for q in plan.questions["school"]}
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
        evaluate_agent(pkg, plan, backend, analyses, gold, data_root)
    assert calls["gold"] == len(plan.questions["school"])


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
    evaluation = evaluate_agent(pkg, plan, _oracle_backend(data_root), analyses, gold, data_root)
    (outcome,) = evaluation.outcomes
    assert outcome.match
    assert outcome.transcript.attempts[-1].verdict == "accepted_correct"
    assert calls == [plan.questions["school"][0].gold_sql]


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
    evaluation = evaluate_agent(pkg, plan, backend, analyses, gold, data_root)
    (outcome,) = evaluation.outcomes
    assert outcome.predicted_sql == "SELECT 999"
    assert outcome.failure_kind == "wrong_result"
    assert calls == ["SELEC 1", "SELECT 999"]


def test_evaluate_agent_workers_match_sequential(data_root, naive_package_dir):
    pkg = load_package(naive_package_dir)
    plan = _plan(data_root)
    gold = execute_gold(plan, data_root)
    analyses = _analyses_for(pkg, plan, data_root)
    sequential = evaluate_agent(
        pkg, plan, _oracle_backend(data_root), analyses, gold, data_root, workers=1
    )
    concurrent = evaluate_agent(
        pkg, plan, _oracle_backend(data_root), analyses, gold, data_root, workers=4
    )
    assert [o.to_dict() for o in sequential.outcomes] == [o.to_dict() for o in concurrent.outcomes]


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
    reloaded = [QuestionOutcome.from_dict(o.to_dict()) for o in outcomes]
    assert write_error_analysis(2, reloaded) == first
