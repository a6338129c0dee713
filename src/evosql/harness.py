"""SQL execution, set-based result comparison, and per-iteration scoring.

Predicted and gold SQL run against read-only SQLite connections with a
wall-clock timeout; results are compared as sets of canonicalized row tuples
(row order ignored, duplicates collapse, arity must match). Accuracy is kept
as exact counts, never accumulated floats. Each gold query is executed and
canonicalized once per question within the Deep Focus window and shared
across agents and iterations; questions whose gold SQL is itself broken are
excluded from the denominator as dataset defects. Within one question, each
distinct SQL text runs once: scoring reads the final SQL's result from the
verification loop's executions.

Every (agent, question) task of an evaluation shares one queue. Up to
backend_concurrency tasks are in flight, but at most workers of them run
Python, SQL or scoring at once: a task holds a CPU slot except while it
waits on the generation backend. A backend that answers in-process waits on
nothing, so its tasks run workers at a time.

Only the row fetch of execute_sql is serialised. Python's sqlite3 releases
and re-takes the GIL around every row it steps, so threads fetching at once
would hand the GIL to each other once a row. The first step of a statement,
where SQLite sorts a GROUP BY, stays parallel; the rows after it are read
FETCH_CHUNK_ROWS at a time, one chunk per hold of a process-wide lock, and
all Python work on them runs outside it. A thread that has waited
FETCH_PATIENCE seconds for the lock is let in before its holder can take it
back, so a query that is slow per row holds the others off for about one
chunk, not for its whole timeout.
"""

import logging
import math
import sqlite3
import threading
import time
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import ne
from pathlib import Path

from .errors import BackendCallError, InvalidStateError, PipelineError, SqlError
from .pipeline import (DEFAULT_MAX_ROUNDS, VerificationTranscript, assemble_prompt,
                       generate_with_verification, preview_cell)
from .registry import AgentPackage
from .scheduler import QuestionItem, database_path
from .toolrun import connect_readonly

logger = logging.getLogger(__name__)

ROW_CAP = 100_000
DEFAULT_SQL_TIMEOUT = 30.0
REPORT_PREVIEW_ROWS = 5
FETCH_CHUNK_ROWS = 100
FETCH_PATIENCE = 0.02

FAILURE_NONE = "none"
FAILURE_WRONG_RESULT = "wrong_result"
FAILURE_SQL_ERROR = "sql_error"
FAILURE_TIMEOUT = "timeout"
FAILURE_EMPTY_VS_NONEMPTY = "empty_vs_nonempty"
FAILURE_PIPELINE = "pipeline_error"
FAILURE_BACKEND = "backend_error"

_SYNTAX_MARKERS = ("syntax error", "unrecognized token", "incomplete input")


@dataclass
class ResultTable:
    """Materialized query result, capped at ROW_CAP rows."""

    rows: list[tuple]
    truncated: bool = False


class _FetchLock:
    """A lock whose releaser may take it straight back, unless another
    thread has waited FETCH_PATIENCE seconds for it: that thread is let in
    first. Taking it back keeps one result's fetch in one run, which is what
    makes serialising pay; a threading.Lock alone lets a long fetch starve
    every other one, and handing over at every release costs most of the
    gain."""

    def __init__(self):
        self._lock = threading.Lock()
        # Held by a thread out of patience; everyone else queues behind it.
        self._turnstile = threading.Lock()

    def __enter__(self):
        with self._turnstile:
            pass
        if not self._lock.acquire(timeout=FETCH_PATIENCE):
            with self._turnstile:
                self._lock.acquire()

    def __exit__(self, *exc_info):
        self._lock.release()


_FETCH_LOCK = _FetchLock()


def execute_sql(db_path: str | Path, sql: str, timeout: float = DEFAULT_SQL_TIMEOUT) -> ResultTable:
    """Run sql read-only and materialize up to ROW_CAP rows.

    Raises SqlError with kind "syntax", "runtime", or "timeout", and no
    other error, also for text that sqlite3 refuses before SQLite sees it
    (a NUL character, a lone surrogate); the timeout is enforced with a
    progress handler that interrupts the statement, in its first step or
    in any chunk of the fetch.
    """
    try:
        conn = connect_readonly(db_path)
    except sqlite3.Error as exc:
        raise SqlError(f"cannot open {db_path}: {exc}", kind="runtime") from exc
    deadline = time.monotonic() + timeout
    conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 5000)
    try:
        cursor = conn.execute(sql)
        rows: list[tuple] = []
        while len(rows) <= ROW_CAP:
            wanted = min(FETCH_CHUNK_ROWS, ROW_CAP + 1 - len(rows))
            with _FETCH_LOCK:
                chunk = cursor.fetchmany(wanted)
            rows += chunk
            if len(chunk) < wanted:
                break
        truncated = len(rows) > ROW_CAP
        del rows[ROW_CAP:]
        return ResultTable(rows=rows, truncated=truncated)
    except (sqlite3.Error, sqlite3.Warning, ValueError) as exc:
        message = str(exc)
        if "interrupted" in message:
            raise SqlError(f"query exceeded {timeout:g}s: {message}", kind="timeout") from exc
        if any(marker in message for marker in _SYNTAX_MARKERS):
            raise SqlError(message, kind="syntax") from exc
        raise SqlError(message, kind="runtime") from exc
    finally:
        conn.close()


class _Nan:
    """Canonical stand-in for float NaN so row sets stay well-defined."""

    def __repr__(self):
        return "NaN"


_NAN = _Nan()


def _canonical_cell(value):
    # Integral floats already compare and hash equal to ints in Python, so
    # only NaN needs replacing to keep set semantics total.
    if isinstance(value, float) and math.isnan(value):
        return _NAN
    return value


def _canonical_rows(rows) -> set:
    row_set = set(map(tuple, rows))
    # NaN is the only value unequal to itself. SQLite returns NULL for NaN,
    # so executed results never take the per-cell pass.
    if any(map(ne, chain.from_iterable(row_set), chain.from_iterable(row_set))):
        return {tuple(_canonical_cell(cell) for cell in row) for row in row_set}
    return row_set


@dataclass
class GoldTable:
    """What scoring reads of one gold result: its canonical row set (empty
    exactly when the result is) and its report preview."""

    row_set: set
    preview: list[str]


def compare_results(pred: ResultTable, gold: ResultTable | GoldTable) -> bool:
    """Set-based equivalence: row order ignored, duplicates collapse, cells
    and arity must match exactly (integral reals equal integers). A result
    cut at ROW_CAP never matches: its rows beyond the cap are unknown."""
    if pred.truncated or (isinstance(gold, ResultTable) and gold.truncated):
        return False
    gold_rows = gold.row_set if isinstance(gold, GoldTable) else _canonical_rows(gold.rows)
    # Canonical gold holds no float NaN, so a raw row set that equals it has
    # none either; only an unequal one needs the NaN probe.
    pred_rows = set(map(tuple, pred.rows))
    return pred_rows == gold_rows or _canonical_rows(pred_rows) == gold_rows


@dataclass
class QuestionOutcome:
    """One (agent, question) evaluation result."""

    question_id: int
    db_id: str
    agent_id: str
    question: str
    evidence: str
    predicted_sql: str
    gold_sql: str
    match: bool
    failure_kind: str
    pred_preview: list[str] = field(default_factory=list)
    gold_preview: list[str] = field(default_factory=list)
    transcript: VerificationTranscript | None = None

    def to_dict(self) -> dict:
        """Every field but the transcript, which transcripts.json holds."""
        return {k: v for k, v in vars(self).items() if k != "transcript"}


def _run_gold(db_file: Path, sql: str, key: tuple[str, int], timeout: float) -> GoldTable | str:
    """The gold result of one question, or the reason it is a dataset defect."""
    try:
        table = execute_sql(db_file, sql, timeout)
    except SqlError as exc:
        logger.warning("defective gold SQL for %s q%s: %s", *key, exc)
        return str(exc)
    if table.truncated:
        logger.warning("gold SQL for %s q%s returns more than ROW_CAP rows", *key)
        return f"gold result exceeds ROW_CAP ({ROW_CAP} rows)"
    return GoldTable(_canonical_rows(table.rows), _preview_rows(table))


def execute_gold(
    questions: dict[str, list[QuestionItem]],
    data_root: str | Path,
    timeout: float = DEFAULT_SQL_TIMEOUT,
    held: Mapping[tuple[str, int], GoldTable | str] = {},
) -> dict[tuple[str, int], GoldTable | str]:
    """Execute the gold query of every question, by database, exactly once.

    Returns each (db_id, question_id)'s GoldTable, or, for a dataset defect,
    the reason as a str: a gold query that fails, or whose result is cut at
    ROW_CAP, is logged and excluded from every agent's denominator.
    Questions found in held (gold of earlier iterations over the same
    question pool, in the same shape) are not run again.
    """
    gold: dict[tuple[str, int], GoldTable | str] = {}
    for db_id, items in questions.items():
        db_file = database_path(data_root, db_id)
        for item in items:
            key = (db_id, item.question_id)
            gold[key] = held[key] if key in held else _run_gold(db_file, item.gold_sql, key, timeout)
    return gold


@dataclass
class AgentEvaluation:
    """One agent's outcomes over one iteration's questions, ordered by
    (db_id, question_id); every total is read from them."""

    agent_id: str
    outcomes: list[QuestionOutcome]

    @property
    def matches(self) -> int:
        return sum(o.match for o in self.outcomes)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def accuracy(self) -> Fraction:
        return Fraction(self.matches, self.total)

    def usage(self) -> dict[str, int]:
        """Generation backend tokens and calls, as the run state records them."""
        transcripts = [o.transcript for o in self.outcomes if o.transcript]
        return {
            "request": sum(t.request_tokens for t in transcripts),
            "response": sum(t.response_tokens for t in transcripts),
            "calls": sum(t.backend_calls for t in transcripts),
        }


def _preview_rows(table: ResultTable) -> list[str]:
    return [" | ".join(map(preview_cell, row)) for row in table.rows[:REPORT_PREVIEW_ROWS]]


def _blocked_outcome(agent_id: str, item: QuestionItem, reason: str,
                     kind: str = FAILURE_PIPELINE) -> QuestionOutcome:
    return QuestionOutcome(
        question_id=item.question_id,
        db_id=item.db_id,
        agent_id=agent_id,
        question=item.question,
        evidence=item.evidence,
        predicted_sql="",
        gold_sql=item.gold_sql,
        match=False,
        failure_kind=kind,
        pred_preview=[reason],
    )


def _evaluate_question(
    pkg: AgentPackage,
    item: QuestionItem,
    analysis: str | None,
    gold_table: GoldTable,
    backend,
    db_file: Path,
    sql_timeout: float,
    max_rounds: int,
) -> QuestionOutcome:
    if analysis is None:
        return _blocked_outcome(pkg.id, item, "database analysis unavailable")

    prompt = assemble_prompt(analysis, pkg.eval_instructions, item.question, item.evidence)
    runs: dict[str, ResultTable | SqlError] = {}

    def executor(path, sql: str) -> ResultTable:
        # Each SQL text runs once per question; scoring reuses the loop's run.
        if sql not in runs:
            try:
                runs[sql] = execute_sql(path, sql, sql_timeout)
            except SqlError as exc:
                runs[sql] = exc
        if isinstance(runs[sql], SqlError):
            raise runs[sql]
        return runs[sql]

    try:
        final_sql, transcript = generate_with_verification(
            backend, prompt, db_file, executor, max_rounds=max_rounds
        )
    except PipelineError as exc:
        # A backend that still fails after its own retries is an outage,
        # reported apart from the agent's faults.
        kind = FAILURE_BACKEND if isinstance(exc, BackendCallError) else FAILURE_PIPELINE
        outcome = _blocked_outcome(pkg.id, item, str(exc), kind)
        outcome.transcript = exc.transcript
        return outcome

    match = False
    failure = FAILURE_NONE
    pred_preview: list[str] = []
    try:
        pred_table = executor(db_file, final_sql)
    except SqlError as exc:
        failure = FAILURE_TIMEOUT if exc.kind == "timeout" else FAILURE_SQL_ERROR
        pred_preview = [str(exc)]
    else:
        pred_preview = _preview_rows(pred_table)
        match = compare_results(pred_table, gold_table)
        if not match:
            pred_empty = len(pred_table.rows) == 0
            gold_empty = not gold_table.row_set
            failure = FAILURE_EMPTY_VS_NONEMPTY if pred_empty != gold_empty else FAILURE_WRONG_RESULT

    return QuestionOutcome(
        question_id=item.question_id,
        db_id=item.db_id,
        agent_id=pkg.id,
        question=item.question,
        evidence=item.evidence,
        predicted_sql=final_sql,
        gold_sql=item.gold_sql,
        match=match,
        failure_kind=failure,
        pred_preview=pred_preview,
        gold_preview=gold_table.preview,
        transcript=transcript,
    )


def pool_map(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on a ThreadPoolExecutor of workers
    threads when workers > 1; results keep the order of items. If fn
    raises, the exception of the first failing item in order is raised,
    items not yet started are skipped, and every thread has ended."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


class _SlotReleasingBackend:
    """The generation backend, called with the caller's CPU slot given back,
    so other tasks run SQL while this one waits for a reply."""

    def __init__(self, backend, slot: threading.Semaphore):
        self._backend = backend
        self._slot = slot

    def complete(self, system_text: str, conversation: list[dict], temperature: float) -> str:
        self._slot.release()
        try:
            return self._backend.complete(system_text, conversation, temperature)
        finally:
            self._slot.acquire()


def evaluate_agent(
    packages: list[AgentPackage],
    questions: dict[str, list[QuestionItem]],
    backend,
    analysis: Callable[[AgentPackage, str], str | None],
    gold: Mapping[tuple[str, int], GoldTable | str],
    data_root: str | Path,
    *,
    sql_timeout: float = DEFAULT_SQL_TIMEOUT,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    workers: int = 1,
    backend_concurrency: int = 1,
) -> dict[str, AgentEvaluation]:
    """Evaluate every package on every question (by db_id); evaluations
    are keyed by agent id, in the order of packages.

    analysis(pkg, db_id) is that agent's database analysis text (None marks
    an evaluation-blocked database, whose questions count as incorrect with
    a pipeline_error); it is called once per (package, database) pair, on
    workers threads, before any question. gold is execute_gold's mapping; a
    question whose gold is a defect reason is skipped. All agents'
    questions go on one queue of backend_concurrency threads (at most
    workers for an in_process backend), of which at most workers run
    outside the backend at once. Each agent's outcomes are ordered by
    (db_id, question_id), so nothing depends on completion order.
    """
    if workers < 1 or backend_concurrency < 1:
        raise ValueError("workers and backend_concurrency must be >= 1")
    tasks = [(pkg, db_id, item, gold[(db_id, item.question_id)])
             for pkg in packages for db_id, items in questions.items() for item in items
             if isinstance(gold[(db_id, item.question_id)], GoldTable)]
    if not tasks:
        raise InvalidStateError(
            "no scorable question: none sampled, or every gold query is defective"
        )
    pairs = [(pkg, db_id) for pkg in packages for db_id in questions]
    texts = {(pkg.id, db_id): text for (pkg, db_id), text in zip(
        pairs, pool_map(lambda pair: analysis(*pair), pairs, workers))}

    cpu_slot = threading.Semaphore(workers)
    slotted = _SlotReleasingBackend(backend, cpu_slot)

    def run(task) -> QuestionOutcome:
        pkg, db_id, item, gold_table = task
        with cpu_slot:
            return _evaluate_question(
                pkg, item, texts[(pkg.id, db_id)], gold_table, slotted,
                database_path(data_root, db_id), sql_timeout, max_rounds,
            )

    # Threads beyond workers only pay off while tasks wait on the backend;
    # each costs a malloc arena (about 0.3 MB) and slot handoffs.
    in_flight = backend_concurrency
    if getattr(backend, "in_process", False):
        in_flight = min(workers, backend_concurrency)
    by_agent: dict[str, list[QuestionOutcome]] = {pkg.id: [] for pkg in packages}
    for outcome in sorted(pool_map(run, tasks, in_flight),
                          key=lambda o: (o.db_id, o.question_id)):
        by_agent[outcome.agent_id].append(outcome)
    return {agent_id: AgentEvaluation(agent_id, outcomes) for agent_id, outcomes in by_agent.items()}


def write_error_analysis(iteration: int, outcomes: list[QuestionOutcome]) -> str:
    """Render the per-iteration error analysis report.

    Pure function of its inputs: regenerating from persisted outcomes yields
    a byte-identical document.
    """
    if not outcomes:
        raise ValueError("outcomes must be non-empty")

    by_agent: dict[str, list[QuestionOutcome]] = {}
    for outcome in outcomes:
        by_agent.setdefault(outcome.agent_id, []).append(outcome)

    lines = [f"# Error Analysis Report - Iteration {iteration}", ""]
    for agent_id in sorted(by_agent):
        agent_outcomes = sorted(by_agent[agent_id], key=lambda o: (o.db_id, o.question_id))
        matches = sum(1 for o in agent_outcomes if o.match)
        total = len(agent_outcomes)
        lines.append(f"## Agent: {agent_id}")
        lines.append(f"Accuracy: {matches}/{total} ({100 * matches / total:.1f}%)")
        failures = [o for o in agent_outcomes if not o.match]
        if not failures:
            lines.append("No errors.")
            lines.append("")
            continue
        histogram: dict[str, int] = {}
        for outcome in failures:
            histogram[outcome.failure_kind] = histogram.get(outcome.failure_kind, 0) + 1
        lines.append(
            "Failures: " + ", ".join(f"{kind}: {histogram[kind]}" for kind in sorted(histogram))
        )
        lines.append("")
        for outcome in failures:
            lines.append(f"### [{outcome.db_id} q{outcome.question_id}] {outcome.question}")
            lines.append(f"- Evidence: {outcome.evidence or '(none)'}")
            lines.append(f"- Failure: {outcome.failure_kind}")
            lines.append(f"- Predicted SQL: {outcome.predicted_sql or '(none)'}")
            lines.append(f"- Gold SQL: {outcome.gold_sql}")
            lines.append("- Predicted rows (first 5):")
            lines.extend(f"    {row}" for row in outcome.pred_preview or ["(none)"])
            lines.append("- Gold rows (first 5):")
            lines.extend(f"    {row}" for row in outcome.gold_preview or ["(none)"])
            lines.append("")

    # Cross-agent comparison over the shared question set.
    by_question: dict[tuple[str, int], list[QuestionOutcome]] = {}
    for outcome in outcomes:
        by_question.setdefault((outcome.db_id, outcome.question_id), []).append(outcome)
    all_missed = sorted(
        key for key, outs in by_question.items() if all(not o.match for o in outs)
    )
    uniquely_solved = sorted(
        (key, next(o.agent_id for o in outs if o.match))
        for key, outs in by_question.items()
        if sum(1 for o in outs if o.match) == 1 and len(outs) > 1
    )
    lines.append("## Cross-Agent Analysis")
    lines.append("Questions missed by all agents:")
    if all_missed:
        lines.extend(f"- {db} q{qid}" for db, qid in all_missed)
    else:
        lines.append("- none")
    lines.append("Questions solved by exactly one agent:")
    if uniquely_solved:
        lines.extend(f"- {db} q{qid} (only {agent})" for (db, qid), agent in uniquely_solved)
    else:
        lines.append("- none")
    lines.append("")
    return "\n".join(lines)
