"""Prompt assembly and the self-verification SQL generation loop.

The generation prompt is the concatenation database analysis, then eval
instructions, then question, then evidence, under fixed labeled headers.
Generation starts at temperature 0.0; each verification round executes the
current SQL, shows the model a bounded result preview, and asks for the
acceptance sentinel or an improved query at temperature 0.2 then 0.3. If the
final SQL errors or returns nothing, one extra alert-driven retry at 0.3 is
issued. The loop runs SQL only through its caller's run(sql), and reads the
entry it returns: the summary, whether the result is empty, and the kind of
error, if any. Each question runs as one independent conversation, so many
questions may be pipelined concurrently against thread-safe backends.
"""

from dataclasses import dataclass, field
from typing import Callable, Protocol

from .errors import BackendCallError, EmptySqlError, PipelineError
from .toolrun import estimate_tokens

TEMPERATURE_SCHEDULE = (0.0, 0.2, 0.3)
RETRY_TEMPERATURE = 0.3
DEFAULT_MAX_ROUNDS = 2

PREVIEW_MAX_ROWS = 20
PREVIEW_MAX_CELL = 200

# Acceptance sentinel: the reply's first whitespace-delimited token must
# equal this exactly (case-sensitive); lenient matching risks accepting a
# query that merely contains the word.
CORRECT_SENTINEL = "CORRECT"

VERDICT_ACCEPTED = "accepted_correct"
VERDICT_REVISED = "revised"
VERDICT_ERROR_RETRY = "error_retry"
VERDICT_EXHAUSTED = "exhausted"

INITIAL_USER_MESSAGE = "Write the SQL query that answers the question. Output only the SQL."

_LANGUAGE_TAGS = ("sql", "sqlite")


class GenerationBackend(Protocol):
    """Text-generation contract for the SQL side of the loop.

    complete() receives the full system text, the conversation so far
    (role/content dicts, starting with the initial user request), and the
    sampling temperature, and returns the assistant reply. A backend whose
    class sets in_process = True answers without waiting on I/O, so the
    harness runs no more questions at once than it has workers.
    """

    def complete(self, system_text: str, conversation: list[dict], temperature: float) -> str:
        ...


@dataclass
class Attempt:
    """One backend call in the verification loop.

    verdict is "revised" for calls that set or replaced the working SQL,
    "accepted_correct" for the verification reply that accepted it,
    "exhausted" for the last candidate when rounds ran out without explicit
    acceptance, and "error_retry" for the extra alert-driven call.
    """

    temperature: float
    sql: str
    execution: str
    verdict: str


@dataclass
class VerificationTranscript:
    """Every attempt of one question's pipeline, plus usage counters."""

    attempts: list[Attempt] = field(default_factory=list)
    final_sql: str = ""
    backend_calls: int = 0
    request_tokens: int = 0
    response_tokens: int = 0


def assemble_prompt(analysis: str, instructions: str, question: str, evidence: str) -> str:
    """Concatenate the four prompt parts in fixed order with labeled headers.

    Empty evidence keeps its header with a "(none)" body so prompts stay
    structurally identical across questions.
    """
    if not question.strip():
        raise ValueError("question must be non-empty")
    if not analysis.strip():
        raise ValueError("database analysis must be non-empty")
    if not instructions.strip():
        raise ValueError("eval instructions must be non-empty")
    evidence_body = evidence if evidence.strip() else "(none)"
    return (
        f"## Database Analysis\n{analysis}\n\n"
        f"## Instructions\n{instructions}\n\n"
        f"## Question\n{question}\n\n"
        f"## Evidence\n{evidence_body}\n"
    )


def extract_question(system_text: str) -> str:
    """Recover the question block from an assembled prompt."""
    marker = "## Question\n"
    start = system_text.find(marker)
    if start < 0:
        return ""
    start += len(marker)
    end = system_text.find("\n## Evidence", start)
    if end < 0:
        end = len(system_text)
    return system_text[start:end].strip()


def sanitize_sql(raw: str) -> str:
    """Strip surrounding code fences, leading language tags, and whitespace."""
    text = raw.strip()
    if text.startswith("```"):
        lines = text.splitlines()
        if lines and lines[-1].strip() == "```":
            lines = lines[1:-1]
        else:
            lines = lines[1:]
        text = "\n".join(lines).strip()
    lines = text.splitlines()
    if lines and lines[0].strip().lower() in _LANGUAGE_TAGS:
        text = "\n".join(lines[1:]).strip()
    if not text:
        raise EmptySqlError("reply contains no SQL")
    return text


def preview_cell(value) -> str:
    """A result cell as every preview shows it."""
    return ("NULL" if value is None else str(value))[:PREVIEW_MAX_CELL]


def render_preview(result) -> str:
    """A result as the verification message shows it: at most
    PREVIEW_MAX_ROWS rows, then the row count."""
    if not result.rows:
        return "(0 rows)"
    lines = [" | ".join(preview_cell(cell) for cell in row)
             for row in result.rows[:PREVIEW_MAX_ROWS]]
    suffix = ", capped" if result.truncated else ""
    lines.append(f"({len(result.rows)} rows total{suffix})")
    return "\n".join(lines)


def _verification_message(question: str, sql: str, execution_summary: str) -> str:
    return (
        "Review your SQL and its execution result.\n\n"
        f"Question: {question}\n\n"
        f"SQL executed:\n{sql}\n\n"
        f"Execution result:\n{execution_summary}\n\n"
        f"If the result correctly answers the question, reply with exactly "
        f"{CORRECT_SENTINEL}. Otherwise reply with an improved SQL query only."
    )


def _alert_message(question: str, sql: str, problem: str) -> str:
    return (
        f"Alert: the final SQL {problem}.\n\n"
        f"Question: {question}\n\n"
        f"SQL:\n{sql}\n\n"
        "Provide a corrected SQL query only."
    )


def generate_with_verification(
    backend: GenerationBackend,
    system_text: str,
    run: Callable,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> tuple[str, VerificationTranscript]:
    """Run the generate/verify/retry loop for one question.

    run(sql) returns the entry of a run of sql: its summary (the result as
    render_preview shows it, or the error message), whether the result is
    empty, and error_kind, None unless the SQL failed. A failed SQL is shown
    to the model as "SQL error: <summary>"; an exception from run is not
    SQL's and propagates. The final check asks again for SQL the loop may
    have run already, so a run that remembers each text's entry runs it
    once.

    Raises PipelineError (carrying the partial transcript) on an empty
    initial generation, and its subclass BackendCallError when the backend
    fails or replies with something other than UTF-8 text; such questions
    count as incorrect upstream.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")

    question = extract_question(system_text)
    conversation: list[dict] = [{"role": "user", "content": INITIAL_USER_MESSAGE}]
    transcript = VerificationTranscript()

    def call_backend(temperature: float) -> str:
        sent = estimate_tokens(system_text) + sum(
            estimate_tokens(m["content"]) for m in conversation
        )
        try:
            reply = backend.complete(system_text, list(conversation), temperature)
            # Also refuses a reply that is not text or holds a lone surrogate.
            received = estimate_tokens(reply)
        except Exception as exc:
            raise BackendCallError(f"backend failure: {exc}", transcript=transcript) from exc
        transcript.backend_calls += 1
        transcript.request_tokens += sent
        transcript.response_tokens += received
        conversation.append({"role": "assistant", "content": reply})
        return reply

    def execute_current(sql: str) -> tuple[str, str | None]:
        """The result as the model is shown it, and what is wrong with it."""
        entry = run(sql)
        if entry.error_kind is not None:
            summary = f"SQL error: {entry.summary}"
            return summary, f'failed with error: "{summary}"'
        return entry.summary, "returned an empty result" if entry.empty else None

    reply = call_backend(TEMPERATURE_SCHEDULE[0])
    try:
        current_sql = sanitize_sql(reply)
    except EmptySqlError as exc:
        raise PipelineError(f"empty initial generation: {exc}", transcript=transcript) from exc
    transcript.attempts.append(
        Attempt(TEMPERATURE_SCHEDULE[0], current_sql, "(not executed)", VERDICT_REVISED)
    )

    accepted = False
    for round_number in range(1, max_rounds + 1):
        summary, _ = execute_current(current_sql)
        transcript.attempts[-1].execution = summary

        conversation.append(
            {"role": "user", "content": _verification_message(question, current_sql, summary)}
        )
        temperature = TEMPERATURE_SCHEDULE[min(round_number, len(TEMPERATURE_SCHEDULE) - 1)]
        reply = call_backend(temperature)

        tokens = reply.split()
        if tokens and tokens[0] == CORRECT_SENTINEL:
            transcript.attempts.append(Attempt(temperature, current_sql, summary, VERDICT_ACCEPTED))
            accepted = True
            break
        try:
            current_sql = sanitize_sql(reply)
        except EmptySqlError:
            current_sql = ""  # execution will judge the unusable revision
        transcript.attempts.append(
            Attempt(temperature, current_sql, "(not executed)", VERDICT_REVISED)
        )

    if not accepted and transcript.attempts[-1].verdict == VERDICT_REVISED:
        transcript.attempts[-1].verdict = VERDICT_EXHAUSTED

    # Error/null check on the final SQL.
    summary, problem = execute_current(current_sql)
    transcript.attempts[-1].execution = summary

    if problem is not None:
        conversation.append(
            {"role": "user", "content": _alert_message(question, current_sql, problem)}
        )
        reply = call_backend(RETRY_TEMPERATURE)
        try:
            current_sql = sanitize_sql(reply)
        except EmptySqlError:
            pass  # keep the pre-retry SQL
        transcript.attempts.append(
            Attempt(RETRY_TEMPERATURE, current_sql, summary, VERDICT_ERROR_RETRY)
        )

    transcript.final_sql = current_sql
    return current_sql, transcript
