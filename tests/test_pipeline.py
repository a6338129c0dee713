"""Tests for prompt assembly, sanitization, and the verification loop."""

import pytest

from evosql.errors import EmptySqlError, PipelineError
from evosql.harness import ResultTable, execute_sql
from evosql.pipeline import (
    CORRECT_SENTINEL,
    VERDICT_ACCEPTED,
    VERDICT_ERROR_RETRY,
    VERDICT_EXHAUSTED,
    VERDICT_REVISED,
    assemble_prompt,
    extract_question,
    generate_with_verification,
    render_preview,
    sanitize_sql,
)


def test_assemble_prompt_order():
    prompt = assemble_prompt("ANALYSIS", "INSTRUCTIONS", "QUESTION?", "EVIDENCE")
    assert prompt.index("ANALYSIS") < prompt.index("INSTRUCTIONS")
    assert prompt.index("INSTRUCTIONS") < prompt.index("QUESTION?")
    assert prompt.index("QUESTION?") < prompt.index("EVIDENCE")
    for header in ("## Database Analysis", "## Instructions", "## Question", "## Evidence"):
        assert header in prompt


def test_assemble_prompt_empty_evidence_renders_none():
    prompt = assemble_prompt("A", "I", "Q", "")
    assert "## Evidence\n(none)" in prompt


def test_assemble_prompt_is_pure():
    assert assemble_prompt("A", "I", "Q", "E") == assemble_prompt("A", "I", "Q", "E")


def test_assemble_prompt_rejects_empty_question():
    with pytest.raises(ValueError):
        assemble_prompt("A", "I", "   ", "E")


def test_extract_question_round_trips():
    prompt = assemble_prompt("A", "I", "Which film has the best rating?", "hint")
    assert extract_question(prompt) == "Which film has the best rating?"


def test_sanitize_strips_fences():
    assert sanitize_sql("```sql\nSELECT 1;\n```") == "SELECT 1;"
    assert sanitize_sql("```\nSELECT 1;\n```") == "SELECT 1;"
    assert sanitize_sql("SELECT 1;") == "SELECT 1;"
    assert sanitize_sql("  SELECT 1;\n") == "SELECT 1;"
    assert sanitize_sql("sql\nSELECT 1;") == "SELECT 1;"


def test_sanitize_empty_raises():
    with pytest.raises(EmptySqlError):
        sanitize_sql("```\n\n```")
    with pytest.raises(EmptySqlError):
        sanitize_sql("   ")


class SequenceBackend:
    """Replies with a fixed sequence; records call temperatures."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.temperatures = []
        self.conversations = []

    def complete(self, system_text, conversation, temperature):
        self.temperatures.append(temperature)
        self.conversations.append(list(conversation))
        return self.replies.pop(0)


def _summarized(table):
    """What an executor returns for table."""
    return render_preview(table), not table.rows


class FakeExecutor:
    """Executor stub summarizing canned tables or raising per SQL text."""

    def __init__(self, table=None, errors=(), empty=()):
        self.table = table if table is not None else ResultTable([(1,)])
        self.errors = set(errors)
        self.empty = set(empty)
        self.calls = []

    def __call__(self, db_path, sql):
        self.calls.append(sql)
        if sql in self.errors:
            raise RuntimeError(f"no such table touched by {sql!r}")
        return _summarized(ResultTable([]) if sql in self.empty else self.table)


SYSTEM = assemble_prompt("schema here", "rules here", "How many rows?", "")


def test_accept_path():
    backend = SequenceBackend(["SELECT 1;", CORRECT_SENTINEL])
    executor = FakeExecutor()
    final, transcript = generate_with_verification(backend, SYSTEM, "db", executor)
    assert final == "SELECT 1;"
    assert backend.temperatures == [0.0, 0.2]
    assert [a.temperature for a in transcript.attempts] == [0.0, 0.2]
    assert transcript.attempts[-1].verdict == VERDICT_ACCEPTED
    assert transcript.attempts[-1].sql == "SELECT 1;"
    assert transcript.final_sql == "SELECT 1;"
    assert transcript.backend_calls == 2


def test_revision_path():
    backend = SequenceBackend(["SELECT bad;", "SELECT good;", CORRECT_SENTINEL])
    executor = FakeExecutor()
    final, transcript = generate_with_verification(backend, SYSTEM, "db", executor)
    assert final == "SELECT good;"
    assert backend.temperatures == [0.0, 0.2, 0.3]
    assert [a.sql for a in transcript.attempts] == ["SELECT bad;", "SELECT good;", "SELECT good;"]
    assert [a.verdict for a in transcript.attempts] == [
        VERDICT_REVISED,
        VERDICT_REVISED,
        VERDICT_ACCEPTED,
    ]


def test_exhausted_rounds_keep_last_revision():
    backend = SequenceBackend(["SELECT a;", "SELECT b;", "SELECT c;"])
    executor = FakeExecutor()
    final, transcript = generate_with_verification(backend, SYSTEM, "db", executor)
    assert final == "SELECT c;"
    assert transcript.attempts[-1].verdict == VERDICT_EXHAUSTED
    assert backend.temperatures == [0.0, 0.2, 0.3]


def test_empty_result_triggers_retry_after_accept():
    # The accepted SQL returns zero rows, so one alerted retry at 0.3 runs
    # and its non-empty output becomes the final SQL.
    backend = SequenceBackend(["SELECT none;", CORRECT_SENTINEL, "SELECT fixed;"])
    executor = FakeExecutor(empty={"SELECT none;"})
    final, transcript = generate_with_verification(backend, SYSTEM, "db", executor)
    assert final == "SELECT fixed;"
    assert backend.temperatures == [0.0, 0.2, 0.3]
    assert transcript.attempts[-1].verdict == VERDICT_ERROR_RETRY
    assert transcript.attempts[-1].temperature == 0.3
    assert "empty result" in backend.conversations[-1][-1]["content"]


def test_error_triggers_retry():
    backend = SequenceBackend(["SELECT broken;", "SELECT broken;", "SELECT broken;", "SELECT ok;"])
    executor = FakeExecutor(errors={"SELECT broken;"})
    final, transcript = generate_with_verification(backend, SYSTEM, "db", executor)
    assert final == "SELECT ok;"
    assert transcript.attempts[-1].verdict == VERDICT_ERROR_RETRY
    # Prefix (0.0, 0.2, 0.3) plus exactly one extra 0.3 retry.
    assert [a.temperature for a in transcript.attempts] == [0.0, 0.2, 0.3, 0.3]
    assert transcript.backend_calls == 4


def test_retry_empty_output_keeps_prior_sql():
    backend = SequenceBackend(["SELECT none;", CORRECT_SENTINEL, "   "])
    executor = FakeExecutor(empty={"SELECT none;"})
    final, transcript = generate_with_verification(backend, SYSTEM, "db", executor)
    assert final == "SELECT none;"
    assert transcript.attempts[-1].verdict == VERDICT_ERROR_RETRY


def test_max_rounds_zero_still_checks_errors():
    backend = SequenceBackend(["SELECT ok;"])
    executor = FakeExecutor()
    final, transcript = generate_with_verification(backend, SYSTEM, "db", executor, max_rounds=0)
    assert final == "SELECT ok;"
    assert transcript.backend_calls == 1
    assert transcript.attempts[0].verdict == VERDICT_EXHAUSTED


def test_correct_must_be_exact_token():
    # "CORRECT." is not the sentinel; it is treated as a (bad) revision.
    backend = SequenceBackend(["SELECT a;", "CORRECT.", CORRECT_SENTINEL])
    executor = FakeExecutor()
    final, transcript = generate_with_verification(backend, SYSTEM, "db", executor)
    assert final == "CORRECT."
    assert transcript.attempts[1].verdict == VERDICT_REVISED


def test_temperature_schedule_invariant_over_many_scripts():
    scripts = [
        ["SELECT 1;", CORRECT_SENTINEL],
        ["SELECT 1;", "SELECT 2;", CORRECT_SENTINEL],
        ["SELECT 1;", "SELECT 2;", "SELECT 3;"],
    ]
    for script in scripts:
        backend = SequenceBackend(list(script))
        _, transcript = generate_with_verification(backend, SYSTEM, "db", FakeExecutor())
        temps = [a.temperature for a in transcript.attempts]
        retries = temps.count(0.3) - (1 if len(temps) >= 3 else 0)
        core = temps[: len(temps) - max(retries, 0)]
        assert core == list((0.0, 0.2, 0.3)[: len(core)])
        assert transcript.backend_calls <= 4


def test_backend_failure_raises_pipeline_error():
    class Exploding:
        def complete(self, *_args):
            raise ConnectionError("socket closed")

    with pytest.raises(PipelineError, match="backend failure"):
        generate_with_verification(Exploding(), SYSTEM, "db", FakeExecutor())


def test_empty_initial_generation_is_pipeline_error():
    backend = SequenceBackend(["```\n\n```"])
    with pytest.raises(PipelineError, match="empty initial"):
        generate_with_verification(backend, SYSTEM, "db", FakeExecutor())


def test_preview_bounds(school_db):
    # A real execution path: wide result preview is row- and cell-bounded.
    backend = SequenceBackend(["SELECT name FROM students;", CORRECT_SENTINEL])
    final, transcript = generate_with_verification(
        backend, SYSTEM, school_db, lambda db, sql: _summarized(execute_sql(db, sql))
    )
    assert final == "SELECT name FROM students;"
    preview = transcript.attempts[-1].execution
    assert "(5 rows total)" in preview
    assert "Ada" in preview


def test_transcript_reproducible():
    def run_once():
        backend = SequenceBackend(["SELECT a;", "SELECT b;", CORRECT_SENTINEL])
        return generate_with_verification(backend, SYSTEM, "db", FakeExecutor())[1]

    assert run_once() == run_once()
