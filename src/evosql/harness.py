"""SQL execution, set-based result comparison, and per-iteration scoring.

Predicted and gold SQL run against read-only SQLite connections with a
wall-clock timeout; results are compared as sets of canonicalized row tuples
(row order ignored, duplicates collapse, arity must match). Accuracy is kept
as exact counts, never accumulated floats. Each gold query is executed and
canonicalized once per question within the Deep Focus window and shared
across agents and iterations; questions whose gold SQL is itself broken are
excluded from the denominator as dataset defects. Predicted SQL shares the
same lifetime: each distinct SQL text runs once per question for every
agent, iteration and Deep Focus round that asks it while the question's gold
is held. The gold knows its database file and keeps, by SQL text, the run's
verification summary, report preview and match against the gold, or its
error's kind and message, but never its rows; the verification loop and
scoring both read that entry.

Evaluations queue their tool runs and (agent, question) pairs as tasks on a
TaskPool, which several evaluations may share. Up to backend_concurrency
tasks are in flight, but at most workers of them run Python, a tool, SQL or
scoring at once: a task holds a CPU slot except while it waits on the
generation backend. A backend that answers in-process waits on nothing, so
its tasks run workers at a time. A free thread takes an urgent task before
any other, so an evaluation on the critical path goes first and the others
fill the slots it leaves idle.

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

import contextvars
import heapq
import logging
import math
import sqlite3
import threading
import time
from collections.abc import Callable, Mapping
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, count
from operator import ne
from pathlib import Path

from .errors import BackendCallError, ConfigError, InvalidStateError, PipelineError, SqlError
from .pipeline import (DEFAULT_MAX_ROUNDS, VerificationTranscript, assemble_prompt,
                       generate_with_verification, preview_cell, render_preview)
from .registry import AgentPackage
from .scheduler import QuestionItem, database_path
from .toolrun import ToolRunResult, connect_readonly

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


@dataclass(frozen=True, slots=True)
class SqlRun:
    """What one run of a SQL text yields for one question: the verification
    summary, whether the result is empty, the report preview and the match
    against the question's gold. For a failed run, error_kind is the
    SqlError's kind and summary its message. It holds no result rows, and
    no exception, whose traceback would keep its frames alive."""

    summary: str
    empty: bool = False
    preview: tuple[str, ...] = ()
    match: bool = False
    error_kind: str | None = None


@dataclass
class GoldTable:
    """What scoring reads of one gold result: its canonical row set (empty
    exactly when the result is), its report preview and the database it
    ran on; and, by SQL text, what each predicted query run against the
    question yielded, shared by every agent and round that asks the
    question while its gold is held."""

    row_set: set
    preview: list[str]
    db_file: Path
    runs: dict[str, SqlRun] = field(default_factory=dict, repr=False, compare=False)
    _running: dict[str, Future] = field(default_factory=dict, init=False, repr=False,
                                        compare=False)

    def run(self, sql: str) -> SqlRun:
        """sql's entry, from running it on the gold's database the first
        time it is asked for. Single-flight: a task that asks for a text
        while another runs it waits for that entry (or its exception)."""
        entry = self.runs.get(sql)
        if entry is not None:
            return entry
        mine = Future()
        running = self._running.setdefault(sql, mine)
        if running is not mine:
            return running.result()
        try:
            # An owner that finished since the first look stored its entry
            # before it left _running.
            entry = self.runs.get(sql) or _run_prediction(self, sql)
            self.runs[sql] = entry
            mine.set_result(entry)
        except BaseException as exc:
            mine.set_exception(exc)
            raise
        finally:
            del self._running[sql]
        return entry


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


def _run_prediction(gold: GoldTable, sql: str) -> SqlRun:
    try:
        table = execute_sql(gold.db_file, sql)
    except SqlError as exc:
        return SqlRun(str(exc), error_kind=exc.kind)
    return SqlRun(render_preview(table), not table.rows, tuple(_preview_rows(table)),
                  compare_results(table, gold))


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


def _run_gold(db_file: Path, sql: str, key: tuple[str, int]) -> GoldTable | str:
    """The gold result of one question, or the reason it is a dataset defect."""
    try:
        table = execute_sql(db_file, sql)
    except SqlError as exc:
        logger.warning("defective gold SQL for %s q%s: %s", *key, exc)
        return str(exc)
    if table.truncated:
        logger.warning("gold SQL for %s q%s returns more than ROW_CAP rows", *key)
        return f"gold result exceeds ROW_CAP ({ROW_CAP} rows)"
    return GoldTable(_canonical_rows(table.rows), _preview_rows(table), db_file)


def execute_gold(
    questions: dict[str, list[QuestionItem]],
    data_root: str | Path,
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
            gold[key] = held[key] if key in held else _run_gold(db_file, item.gold_sql, key)
    return gold


@dataclass
class AgentEvaluation:
    """One agent's outcomes over one iteration's questions, ordered by
    (db_id, question_id), every total read from them; and its tool run on
    each database, by db_id."""

    agent_id: str
    outcomes: list[QuestionOutcome]
    tools: dict[str, ToolRunResult]

    @property
    def matches(self) -> int:
        return sum(o.match for o in self.outcomes)

    @property
    def question_matches(self) -> dict[tuple[str, int], bool]:
        return {(o.db_id, o.question_id): o.match for o in self.outcomes}

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def accuracy(self) -> Fraction:
        return Fraction(self.matches, self.total)


def _preview_rows(table: ResultTable) -> list[str]:
    return [" | ".join(map(preview_cell, row)) for row in table.rows[:REPORT_PREVIEW_ROWS]]


def _evaluate_question(
    pkg: AgentPackage,
    item: QuestionItem,
    analysis: str | None,
    gold_table: GoldTable,
    backend,
    max_rounds: int,
) -> QuestionOutcome:
    # Blocked until generation and scoring say otherwise.
    outcome = QuestionOutcome(
        question_id=item.question_id, db_id=item.db_id, agent_id=pkg.id,
        question=item.question, evidence=item.evidence, predicted_sql="",
        gold_sql=item.gold_sql, match=False, failure_kind=FAILURE_PIPELINE,
        pred_preview=["database analysis unavailable"],
    )
    if analysis is None:
        return outcome

    prompt = assemble_prompt(analysis, pkg.eval_instructions, item.question, item.evidence)
    try:
        outcome.predicted_sql, outcome.transcript = generate_with_verification(
            backend, prompt, gold_table.run, max_rounds
        )
    except PipelineError as exc:
        # A backend that still fails after its own retries is an outage,
        # reported apart from the agent's faults.
        if isinstance(exc, BackendCallError):
            outcome.failure_kind = FAILURE_BACKEND
        outcome.pred_preview = [str(exc)]
        outcome.transcript = exc.transcript
        return outcome

    outcome.gold_preview = gold_table.preview
    # Scoring reads the run the verification loop made of the final SQL.
    pred = gold_table.run(outcome.predicted_sql)
    if pred.error_kind is not None:
        timed_out = pred.error_kind == "timeout"
        outcome.failure_kind = FAILURE_TIMEOUT if timed_out else FAILURE_SQL_ERROR
        outcome.pred_preview = [pred.summary]
        return outcome
    outcome.pred_preview = list(pred.preview)
    outcome.match = pred.match
    if outcome.match:
        outcome.failure_kind = FAILURE_NONE
    elif pred.empty != (not gold_table.row_set):
        outcome.failure_kind = FAILURE_EMPTY_VS_NONEMPTY
    else:
        outcome.failure_kind = FAILURE_WRONG_RESULT
    return outcome


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
    so other tasks run SQL while this one waits for a reply (or, on an
    http: backend, for a slot of its in-flight window)."""

    def __init__(self, backend, slot: threading.Semaphore):
        self._backend = backend
        self._slot = slot

    def complete(self, system_text: str, conversation: list[dict], temperature: float) -> str:
        self._slot.release()
        try:
            return self._backend.complete(system_text, conversation, temperature)
        finally:
            self._slot.acquire()


class TaskPool:
    """Threads that run the queued tasks of one or more evaluations, the
    most urgent first.

    Up to backend_concurrency tasks are in flight (at most workers for a
    backend that answers in-process, which waits on nothing), and at most
    workers of them run Python, SQL, scoring or a tool at once: a task
    holds one of workers CPU slots except while it waits on backend, which
    the pool's tasks call as pool.backend. A thread that frees up takes the
    most urgent pending task: urgent tasks before the others, and each kind
    in the order it was queued. A task runs in a copy of the context it
    was queued from, so context variables follow the task, not the thread
    that takes it. Leaving the pool's with block drops the tasks not yet
    started and waits for every thread the pool started.
    """

    def __init__(self, backend, workers: int = 1, backend_concurrency: int = 1):
        if workers < 1 or backend_concurrency < 1:
            raise ConfigError("workers and backend_concurrency must be >= 1")
        # Threads beyond workers only pay off while tasks wait on the
        # backend; each costs about 0.25 MB of peak RSS and slot handoffs.
        threads = backend_concurrency
        if getattr(backend, "in_process", False):
            threads = min(workers, backend_concurrency)
        self._cpu_slot = threading.Semaphore(workers)
        self.backend = _SlotReleasingBackend(backend, self._cpu_slot)
        self._threads = ThreadPoolExecutor(max_workers=threads)
        self._beside = ThreadPoolExecutor(max_workers=1)
        self._lock = threading.Lock()
        self._pending: list = []  # heap of (not urgent, queued, future, context, fn)
        self._queued = count()
        self._closed = False

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._closed = True
            for _urgency, _queued, future, *_ in self._pending:
                future.cancel()
        self._beside.shutdown()
        self._threads.shutdown()

    def submit(self, fn: Callable[[], object], urgent: bool = False) -> Future:
        """Queue fn() as a task. Raises CancelledError once the pool is left."""
        future = Future()
        with self._lock:
            if self._closed:
                raise CancelledError
            heapq.heappush(self._pending, (not urgent, next(self._queued), future,
                                           contextvars.copy_context(), fn))
        # One runner per task, so each runner finds a task to take.
        self._threads.submit(self._run_next)
        return future

    def _run_next(self) -> None:
        with self._lock:
            *_, future, context, fn = heapq.heappop(self._pending)
        if not future.set_running_or_notify_cancel():
            return
        try:
            with self._cpu_slot:
                result = context.run(fn)
        except BaseException as exc:
            # Raised again in the thread that reads the future, as an
            # executor's task does.
            future.set_exception(exc)
        else:
            future.set_result(result)

    def map(self, fn, items, urgent: bool = False, queued: Callable[[], object] | None = None
            ) -> list:
        """[fn(item) for item in items], each a task; results keep the order
        of items. queued(), if given, is called once every item is queued,
        before the wait for them. If fn raises, the exception of the first
        failing item in order is raised, and the items not yet started are
        dropped."""
        futures = [self.submit(partial(fn, item), urgent) for item in items]
        try:
            if queued is not None:
                queued()
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()

    def beside(self, fn, *args, **kwargs) -> Future:
        """Run fn(*args, **kwargs) on a thread of its own, not as a task, so
        that it can queue tasks and wait for them beside the caller. It runs
        in a copy of the caller's context."""
        return self._beside.submit(contextvars.copy_context().run, fn, *args, **kwargs)


def evaluate_agent(
    packages: list[AgentPackage],
    questions: dict[str, list[QuestionItem]],
    analysis: Callable[[AgentPackage, str], ToolRunResult],
    gold: Mapping[tuple[str, int], GoldTable | str],
    pool: TaskPool,
    *,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    urgent: bool = False,
    queued: Callable[[], object] | None = None,
) -> dict[str, AgentEvaluation]:
    """Evaluate every package on every question (by db_id); evaluations
    are keyed by agent id, in the order of packages.

    analysis(pkg, db_id) is that agent's tool run on the database, kept in
    its evaluation's tools; a run with no text marks an evaluation-blocked
    database, whose questions count as incorrect with a pipeline_error. It
    is called once per (package, database) pair, each a task on pool,
    before any question. gold is execute_gold's mapping; a question whose
    gold is a defect reason is skipped. Each (agent, question) pair is a
    task on pool too, urgent or not as the evaluation is, and generates
    through pool.backend. queued(), if given, is called once these tasks
    are queued, so that a caller can queue less urgent work behind them.
    Each agent's outcomes are ordered by (db_id, question_id), so nothing
    depends on completion order.
    """
    tasks = [(pkg, db_id, item, gold[(db_id, item.question_id)])
             for pkg in packages for db_id, items in questions.items() for item in items
             if isinstance(gold[(db_id, item.question_id)], GoldTable)]
    if not tasks:
        raise InvalidStateError(
            "no scorable question: none sampled, or every gold query is defective"
        )
    pairs = [(pkg, db_id) for pkg in packages for db_id in questions]
    tool_runs = iter(pool.map(lambda pair: analysis(*pair), pairs, urgent))
    tools = {pkg.id: {db_id: next(tool_runs) for db_id in questions} for pkg in packages}

    def run(task) -> QuestionOutcome:
        pkg, db_id, item, gold_table = task
        return _evaluate_question(pkg, item, tools[pkg.id][db_id].text, gold_table,
                                  pool.backend, max_rounds)

    by_agent: dict[str, list[QuestionOutcome]] = {pkg.id: [] for pkg in packages}
    for outcome in sorted(pool.map(run, tasks, urgent, queued),
                          key=lambda o: (o.db_id, o.question_id)):
        by_agent[outcome.agent_id].append(outcome)
    return {agent_id: AgentEvaluation(agent_id, outcomes, tools[agent_id])
            for agent_id, outcomes in by_agent.items()}


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
