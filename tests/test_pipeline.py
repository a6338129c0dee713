"""Tests for prompt assembly, sanitization, and the verification loop."""

import pytest

from evosql.errors import EmptySqlError, PipelineError
from evosql.harness import GoldTable, ResultTable, SqlRun
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
    """The entry of a run that returned table."""
    return SqlRun(render_preview(table), not table.rows)


class FakeExecutor:
    """Run stub summarizing canned tables, or failing, per SQL text."""

    def __init__(self, table=None, errors=(), empty=()):
        self.table = table if table is not None else ResultTable([(1,)])
        self.errors = set(errors)
        self.empty = set(empty)
        self.calls = []

    def __call__(self, sql):
        self.calls.append(sql)
        if sql in self.errors:
            return SqlRun(f"no such table touched by {sql!r}", error_kind="runtime")
        return _summarized(ResultTable([]) if sql in self.empty else self.table)


SYSTEM = assemble_prompt("schema here", "rules here", "How many rows?", "")


def test_accept_path():
    backend = SequenceBackend(["SELECT 1;", CORRECT_SENTINEL])
    executor = FakeExecutor()
    final, transcript = generate_with_verification(backend, SYSTEM, executor)
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
    final, transcript = generate_with_verification(backend, SYSTEM, executor)
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
    final, transcript = generate_with_verification(backend, SYSTEM, executor)
    assert final == "SELECT c;"
    assert transcript.attempts[-1].verdict == VERDICT_EXHAUSTED
    assert backend.temperatures == [0.0, 0.2, 0.3]


def test_empty_result_triggers_retry_after_accept():
    # The accepted SQL returns zero rows, so one alerted retry at 0.3 runs
    # and its non-empty output becomes the final SQL.
    backend = SequenceBackend(["SELECT none;", CORRECT_SENTINEL, "SELECT fixed;"])
    executor = FakeExecutor(empty={"SELECT none;"})
    final, transcript = generate_with_verification(backend, SYSTEM, executor)
    assert final == "SELECT fixed;"
    assert backend.temperatures == [0.0, 0.2, 0.3]
    assert transcript.attempts[-1].verdict == VERDICT_ERROR_RETRY
    assert transcript.attempts[-1].temperature == 0.3
    assert "empty result" in backend.conversations[-1][-1]["content"]


def test_error_triggers_retry():
    backend = SequenceBackend(["SELECT broken;", "SELECT broken;", "SELECT broken;", "SELECT ok;"])
    executor = FakeExecutor(errors={"SELECT broken;"})
    final, transcript = generate_with_verification(backend, SYSTEM, executor)
    assert final == "SELECT ok;"
    assert transcript.attempts[-1].verdict == VERDICT_ERROR_RETRY
    # Prefix (0.0, 0.2, 0.3) plus exactly one extra 0.3 retry.
    assert [a.temperature for a in transcript.attempts] == [0.0, 0.2, 0.3, 0.3]
    assert transcript.backend_calls == 4


def test_retry_empty_output_keeps_prior_sql():
    backend = SequenceBackend(["SELECT none;", CORRECT_SENTINEL, "   "])
    executor = FakeExecutor(empty={"SELECT none;"})
    final, transcript = generate_with_verification(backend, SYSTEM, executor)
    assert final == "SELECT none;"
    assert transcript.attempts[-1].verdict == VERDICT_ERROR_RETRY


def test_max_rounds_zero_still_checks_errors():
    backend = SequenceBackend(["SELECT ok;"])
    executor = FakeExecutor()
    final, transcript = generate_with_verification(backend, SYSTEM, executor, max_rounds=0)
    assert final == "SELECT ok;"
    assert transcript.backend_calls == 1
    assert transcript.attempts[0].verdict == VERDICT_EXHAUSTED


def test_correct_must_be_exact_token():
    # "CORRECT." is not the sentinel; it is treated as a (bad) revision.
    backend = SequenceBackend(["SELECT a;", "CORRECT.", CORRECT_SENTINEL])
    executor = FakeExecutor()
    final, transcript = generate_with_verification(backend, SYSTEM, executor)
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
        _, transcript = generate_with_verification(backend, SYSTEM, FakeExecutor())
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
        generate_with_verification(Exploding(), SYSTEM, FakeExecutor())


def test_empty_initial_generation_is_pipeline_error():
    backend = SequenceBackend(["```\n\n```"])
    with pytest.raises(PipelineError, match="empty initial"):
        generate_with_verification(backend, SYSTEM, FakeExecutor())


def test_preview_bounds(school_db):
    # A real execution path: wide result preview is row- and cell-bounded.
    backend = SequenceBackend(["SELECT name FROM students;", CORRECT_SENTINEL])
    final, transcript = generate_with_verification(
        backend, SYSTEM, GoldTable(set(), [], school_db).run
    )
    assert final == "SELECT name FROM students;"
    preview = transcript.attempts[-1].execution
    assert "(5 rows total)" in preview
    assert "Ada" in preview


def test_transcript_reproducible():
    def run_once():
        backend = SequenceBackend(["SELECT a;", "SELECT b;", CORRECT_SENTINEL])
        return generate_with_verification(backend, SYSTEM, FakeExecutor())[1]

    assert run_once() == run_once()


def test_failed_sql_is_shown_as_an_sql_error_with_its_message():
    backend = SequenceBackend(["SELECT broken;", CORRECT_SENTINEL, "SELECT ok;"])
    _, transcript = generate_with_verification(
        backend, SYSTEM, FakeExecutor(errors={"SELECT broken;"}))
    shown = "SQL error: no such table touched by 'SELECT broken;'"
    assert [a.execution for a in transcript.attempts] == [shown, shown, shown]
    assert f'failed with error: "{shown}"' in backend.conversations[-1][-1]["content"]


def test_an_error_raised_by_run_propagates():
    # Only a failed SQL's entry is shown to the model: a fault in run itself
    # is not an SQL error, and is not written into the transcript as one.
    def broken_run(sql):
        raise RuntimeError(f"cannot run {sql!r}")

    backend = SequenceBackend(["SELECT 1;", CORRECT_SENTINEL])
    with pytest.raises(RuntimeError, match="^cannot run 'SELECT 1;'$"):
        generate_with_verification(backend, SYSTEM, broken_run)
    assert backend.temperatures == [0.0]
