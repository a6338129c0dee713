"""SQL execution, set-based result comparison, and per-iteration scoring.

Predicted and gold SQL run against read-only SQLite connections with a
wall-clock timeout; results are compared as sets of canonicalized row tuples
(row order ignored, duplicates collapse, arity must match). Accuracy is kept
as exact counts, never accumulated floats. Gold queries are executed and
canonicalized once per iteration and shared across agents; questions whose
gold SQL is itself broken are excluded from the denominator as dataset
defects. Within one question, each distinct SQL text runs once: scoring reads
the final SQL's result from the verification loop's executions.
"""

import logging
import math
import sqlite3
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import InvalidStateError, PipelineError, SqlError
from .pipeline import VerificationTranscript, assemble_prompt, generate_with_verification
from .registry import AgentPackage
from .scheduler import IterationPlan, QuestionItem, database_path

logger = logging.getLogger(__name__)

ROW_CAP = 100_000
DEFAULT_SQL_TIMEOUT = 30.0
REPORT_PREVIEW_ROWS = 5

FAILURE_NONE = "none"
FAILURE_WRONG_RESULT = "wrong_result"
FAILURE_SQL_ERROR = "sql_error"
FAILURE_TIMEOUT = "timeout"
FAILURE_EMPTY_VS_NONEMPTY = "empty_vs_nonempty"
FAILURE_PIPELINE = "pipeline_error"

_SYNTAX_MARKERS = ("syntax error", "unrecognized token", "incomplete input")


@dataclass
class ResultTable:
    """Materialized query result, capped at ROW_CAP rows."""

    rows: list[tuple]
    row_count: int
    truncated: bool = False


def execute_sql(db_path: str | Path, sql: str, timeout: float = DEFAULT_SQL_TIMEOUT) -> ResultTable:
    """Run sql read-only and materialize up to ROW_CAP rows.

    Raises SqlError with kind "syntax", "runtime", or "timeout"; the timeout
    is enforced with a progress handler that interrupts the statement.
    """
    quoted = urllib.parse.quote(str(Path(db_path)))
    try:
        conn = sqlite3.connect(f"file:{quoted}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        raise SqlError(f"cannot open {db_path}: {exc}", kind="runtime") from exc
    deadline = time.monotonic() + timeout
    conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 5000)
    try:
        cursor = conn.execute(sql)
        rows: list[tuple] = []
        truncated = False
        while True:
            batch = cursor.fetchmany(1000)
            if not batch:
                break
            rows.extend(batch)
            if len(rows) > ROW_CAP:
                rows = rows[:ROW_CAP]
                truncated = True
                break
        return ResultTable(rows=rows, row_count=len(rows), truncated=truncated)
    except sqlite3.Error as exc:
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
    return {tuple(_canonical_cell(cell) for cell in row) for row in rows}


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
    return _canonical_rows(pred.rows) == gold_rows


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
        return {
            "question_id": self.question_id,
            "db_id": self.db_id,
            "agent_id": self.agent_id,
            "question": self.question,
            "evidence": self.evidence,
            "predicted_sql": self.predicted_sql,
            "gold_sql": self.gold_sql,
            "match": self.match,
            "failure_kind": self.failure_kind,
            "pred_preview": list(self.pred_preview),
            "gold_preview": list(self.gold_preview),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuestionOutcome":
        return cls(**{k: v for k, v in data.items() if k != "transcript"})


@dataclass
class GoldResults:
    """Gold executions for one iteration, shared across every agent."""

    results: dict[tuple[str, int], GoldTable] = field(default_factory=dict)
    defective: dict[tuple[str, int], str] = field(default_factory=dict)


def execute_gold(
    plan: IterationPlan, data_root: str | Path, timeout: float = DEFAULT_SQL_TIMEOUT
) -> GoldResults:
    """Execute every gold query in the plan exactly once.

    Gold queries that fail, or whose result is cut at ROW_CAP, are recorded
    as dataset defects; they are logged and excluded from every agent's
    denominator.
    """
    gold = GoldResults()
    for db_id in plan.databases:
        db_file = database_path(data_root, db_id)
        for item in plan.questions[db_id]:
            key = (db_id, item.question_id)
            try:
                table = execute_sql(db_file, item.gold_sql, timeout)
            except SqlError as exc:
                logger.warning("defective gold SQL for %s q%s: %s", db_id, item.question_id, exc)
                gold.defective[key] = str(exc)
                continue
            if table.truncated:
                logger.warning("gold SQL for %s q%s returns more than ROW_CAP rows",
                               db_id, item.question_id)
                gold.defective[key] = f"gold result exceeds ROW_CAP ({ROW_CAP} rows)"
                continue
            gold.results[key] = GoldTable(_canonical_rows(table.rows), _preview_rows(table))
    return gold


@dataclass
class AgentEvaluation:
    """Accuracy and outcomes for one agent over one iteration plan."""

    agent_id: str
    matches: int
    total: int
    outcomes: list[QuestionOutcome]
    request_tokens: int = 0
    response_tokens: int = 0
    backend_calls: int = 0

    @property
    def accuracy(self) -> Fraction:
        return Fraction(self.matches, self.total)


def _preview_rows(table: ResultTable) -> list[str]:
    return [
        " | ".join("NULL" if cell is None else str(cell)[:200] for cell in row)
        for row in table.rows[:REPORT_PREVIEW_ROWS]
    ]


def _blocked_outcome(agent_id: str, item: QuestionItem, reason: str) -> QuestionOutcome:
    return QuestionOutcome(
        question_id=item.question_id,
        db_id=item.db_id,
        agent_id=agent_id,
        question=item.question,
        evidence=item.evidence,
        predicted_sql="",
        gold_sql=item.gold_sql,
        match=False,
        failure_kind=FAILURE_PIPELINE,
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
        outcome = _blocked_outcome(pkg.id, item, str(exc))
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
    """[fn(item) for item in items], on a pool of workers threads when
    workers > 1; results keep the order of items."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def evaluate_agent(
    pkg: AgentPackage,
    plan: IterationPlan,
    backend,
    analyses: dict[str, str | None],
    gold: GoldResults,
    data_root: str | Path,
    *,
    sql_timeout: float = DEFAULT_SQL_TIMEOUT,
    max_rounds: int = 2,
    workers: int = 1,
) -> AgentEvaluation:
    """Evaluate one agent on every plan question.

    analyses maps db_id to that agent's database analysis text (None marks
    an evaluation-blocked database, whose questions count as incorrect with
    a pipeline_error). Questions run on a bounded worker pool; outcomes are
    ordered by (db_id, question_id) so the aggregate is independent of
    completion order.
    """
    tasks = []
    for db_id in plan.databases:
        db_file = database_path(data_root, db_id)
        for item in plan.questions[db_id]:
            if (db_id, item.question_id) in gold.defective:
                continue
            tasks.append((item, analyses.get(db_id), gold.results[(db_id, item.question_id)], db_file))
    if not tasks:
        raise InvalidStateError(
            f"no scorable questions for agent {pkg.id} (all gold SQL defective or plan empty)"
        )

    def run(task) -> QuestionOutcome:
        item, analysis, gold_table, db_file = task
        return _evaluate_question(
            pkg, item, analysis, gold_table, backend, db_file, sql_timeout, max_rounds
        )

    outcomes = pool_map(run, tasks, workers)
    outcomes.sort(key=lambda o: (o.db_id, o.question_id))

    matches = sum(1 for o in outcomes if o.match)
    request_tokens = sum(o.transcript.request_tokens for o in outcomes if o.transcript)
    response_tokens = sum(o.transcript.response_tokens for o in outcomes if o.transcript)
    backend_calls = sum(o.transcript.backend_calls for o in outcomes if o.transcript)
    return AgentEvaluation(
        agent_id=pkg.id,
        matches=matches,
        total=len(outcomes),
        outcomes=outcomes,
        request_tokens=request_tokens,
        response_tokens=response_tokens,
        backend_calls=backend_calls,
    )


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
