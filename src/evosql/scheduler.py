"""Per-iteration task sampling and the tournament's selection and rating rules.

roster_for_iteration (mode, evolution, competitors) and settle_iteration
(pairwise ELO, winners, bookkeeping) are the one copy of those rules, shared
by the real run loop and by simulation. The per-iteration RNG is derived
from (run_seed, iteration) with a stable hash, so a resumed run resamples
exactly what an uninterrupted run would have.
"""

import hashlib
import heapq
import json
import random
from dataclasses import dataclass
from pathlib import Path

from .elo import accuracy_ratio
from .errors import DataValidationError, InvalidStateError
from .registry import AgentRegistry

QUESTIONS_FILENAME = "questions.json"

DATABASES_PER_ITERATION = 5
QUESTIONS_PER_DATABASE = 30

MODE_EVOLVE = "evolve"
MODE_CHALLENGER = "challenger"
MODE_NONE = "none"

# Iterations before this one always evolve; from it on, modes are drawn
# evolve/challenger/none with the probabilities below.
DEFAULT_LATE_STAGE_START = 12
EVOLVE_PROBABILITY = 0.70
CHALLENGER_PROBABILITY = 0.15

EVOLVE_ROSTER_SIZE = 3
NON_EVOLVE_ROSTER_SIZE = 4
TOP_POOL_SIZE = 2
ABOVE_AVERAGE_RATING = 1500.0


@dataclass
class QuestionItem:
    """One benchmark question bound to a database."""

    question_id: int
    db_id: str
    question: str
    evidence: str = ""
    gold_sql: str = ""


def iteration_rng(run_seed: int, iteration: int) -> random.Random:
    """Stable per-iteration RNG so resumed runs resample identically."""
    digest = hashlib.sha256(f"{run_seed}:{iteration}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def database_path(data_root: str | Path, db_id: str) -> Path:
    return Path(data_root) / db_id / f"{db_id}.sqlite"


def load_question_pool(data_root: str | Path) -> tuple[list[str], dict[str, list[QuestionItem]]]:
    """Load the database pool and per-database question lists.

    data_root holds one directory per database (<db_id>/<db_id>.sqlite) and
    a questions.json array of records with question_id, db_id, question,
    evidence and SQL, unique by (db_id, question_id); other keys are
    ignored. A record without a string db_id, an integer question_id, or a
    non-blank question and SQL is refused, as is one whose evidence is
    neither a string nor null. Records are checked once, in file order;
    unknown databases and duplicate ids are reported together once every
    record has been read.
    """
    root = Path(data_root)
    questions_file = root / QUESTIONS_FILENAME
    if not questions_file.is_file():
        raise FileNotFoundError(f"no {QUESTIONS_FILENAME} in {root}")

    db_pool = []
    for child in sorted(root.iterdir()):
        if not child.is_dir():
            continue
        if not (child / f"{child.name}.sqlite").is_file():
            raise DataValidationError(
                f"database directory {child} has no {child.name}.sqlite"
            )
        db_pool.append(child.name)

    try:
        records = json.loads(questions_file.read_bytes())
    except ValueError as exc:
        raise DataValidationError(f"{questions_file} is not JSON: {exc}") from exc
    if not isinstance(records, list):
        raise DataValidationError(
            f"{QUESTIONS_FILENAME} holds {type(records).__name__}, not an array of records"
        )
    question_pool: dict[str, list[QuestionItem]] = {db: [] for db in db_pool}
    offenders, seen, duplicates = set(), set(), set()
    for index, rec in enumerate(records):
        where = f"{QUESTIONS_FILENAME}: record at index {index}"
        for key in ("db_id", "question_id"):
            if not isinstance(rec, dict) or key not in rec:
                raise DataValidationError(f"{where} has no {key}")
        db, qid = rec["db_id"], rec["question_id"]
        if not isinstance(db, str):
            raise DataValidationError(f"{where} has db_id {db!r}, not a string")
        if not isinstance(qid, int) or isinstance(qid, bool):
            raise DataValidationError(f"{where} ({db}) has question_id {qid!r}, not an integer")
        for key in ("question", "SQL"):
            if not isinstance(rec.get(key), str) or not rec[key].strip():
                raise DataValidationError(f"{QUESTIONS_FILENAME}: {db} q{qid} has no {key}")
        evidence = rec.get("evidence")
        if evidence is not None and not isinstance(evidence, str):
            raise DataValidationError(f"{QUESTIONS_FILENAME}: {db} q{qid} has evidence "
                                      f"{evidence!r}, neither a string nor null")
        if (db, qid) in seen:
            duplicates.add(f"{db} q{qid}")
        seen.add((db, qid))
        if db not in question_pool:
            offenders.add(db)
            continue
        question_pool[db].append(QuestionItem(question_id=qid, db_id=db, question=rec["question"],
                                              evidence=evidence or "", gold_sql=rec["SQL"]))
    if offenders:
        raise DataValidationError(
            f"questions reference unknown databases: {', '.join(sorted(offenders))}"
        )
    if duplicates:
        raise DataValidationError(f"duplicate question ids: {', '.join(sorted(duplicates))}")
    return db_pool, question_pool


def sample_iteration_tasks(
    db_pool: list[str],
    question_pool: dict[str, list[QuestionItem]],
    rng: random.Random,
    databases_per_iteration: int = DATABASES_PER_ITERATION,
    questions_per_database: int = QUESTIONS_PER_DATABASE,
) -> tuple[list[str], dict[str, list[QuestionItem]]]:
    """Sample databases and questions uniformly without replacement.

    Pools smaller than the target counts are taken whole, which keeps toy
    datasets usable.
    """
    if not db_pool:
        raise InvalidStateError("database pool is empty")
    databases = rng.sample(db_pool, min(databases_per_iteration, len(db_pool)))
    questions = {}
    for db in databases:
        # Sampling nothing draws nothing, so an empty pool skips the call.
        pool = question_pool.get(db)
        questions[db] = rng.sample(pool, min(questions_per_database, len(pool))) if pool else []
    return databases, questions


def choose_mode(
    iteration: int, rng: random.Random, late_stage_start: int = DEFAULT_LATE_STAGE_START
) -> str:
    """Iteration mode: always evolve early, then 70/15/15 late-stage draws."""
    if iteration < 1:
        raise ValueError("iteration numbering starts at 1")
    if iteration < late_stage_start:
        return MODE_EVOLVE
    draw = rng.random()
    if draw < EVOLVE_PROBABILITY:
        return MODE_EVOLVE
    if draw < EVOLVE_PROBABILITY + CHALLENGER_PROBABILITY:
        return MODE_CHALLENGER
    return MODE_NONE


def _fill_from_top(
    roster: list[str], size: int, registry: AgentRegistry, rng: random.Random | None
) -> list[str]:
    """Seat agents until roster has size of them or nobody is left, each a
    uniform pick (the first without rng) from the top two by ELO among the
    agents not yet seated. One ranking serves every seat: the unseated top
    two are always the first two of it not yet picked."""
    open_seats = size - len(roster)
    if open_seats <= 0:
        return roster
    ranked = registry.top_by_elo(open_seats + TOP_POOL_SIZE - 1, exclude=set(roster))
    while ranked and len(roster) < size:
        candidates = ranked[:TOP_POOL_SIZE]
        pick = rng.choice(candidates) if rng else candidates[0]
        ranked.remove(pick)
        roster.append(pick)
    return roster


def select_competitors(
    mode: str,
    registry: AgentRegistry,
    new_agent_id: str | None = None,
    rng: random.Random | None = None,
) -> list[str]:
    """Build the competitor roster for one iteration.

    evolve: every pending winner, the new agent, then fill to three with a
    uniform pick from the top two by ELO (excluding those already seated).
    The roster grows past three rather than dropping a tied winner.

    challenger: four agents, preferring non-pending-winners with rating
    above 1500 ordered by fewest tests (ties: rating descending, then id);
    shortfalls are backfilled from the whole population by fewest tests.

    none: four agents, each slot a uniform pick from the top two by ELO
    among agents not already seated.

    A population smaller than the roster size competes whole.
    """
    if len(registry) == 0:
        raise InvalidStateError("cannot select competitors from an empty population")

    if mode == MODE_EVOLVE:
        if new_agent_id is None:
            raise ValueError("evolve mode requires the newly evolved agent id")
        if new_agent_id not in registry:
            raise InvalidStateError(f"new agent {new_agent_id!r} is not registered")
        roster = [a for a in registry.pending_winners() if a != new_agent_id]
        roster.append(new_agent_id)
        return _fill_from_top(roster, EVOLVE_ROSTER_SIZE, registry, rng)

    if mode == MODE_CHALLENGER:
        # Ids are unique, so each key is a total order and only the seats
        # taken need ordering.
        qualified = ((r.agent_id in registry.winners, r.tests, -r.rating.value, r.agent_id)
                     for r in registry.rated_above(ABOVE_AVERAGE_RATING))
        roster = [key[-1] for key in heapq.nsmallest(NON_EVOLVE_ROSTER_SIZE, qualified)]
        if len(roster) < NON_EVOLVE_ROSTER_SIZE:
            rest = ((r.tests, -r.rating.value, r.agent_id)
                    for r in registry.records.values() if r.agent_id not in roster)
            roster += [key[-1] for key in
                       heapq.nsmallest(NON_EVOLVE_ROSTER_SIZE - len(roster), rest)]
        return roster

    if mode == MODE_NONE:
        return _fill_from_top([], NON_EVOLVE_ROSTER_SIZE, registry, rng)

    raise ValueError(f"unknown mode {mode!r}")


def determine_winners(accuracies: dict[str, object]) -> set[str]:
    """All agents attaining the maximum accuracy (ties allowed), compared as
    exact ratios (elo.accuracy_ratio)."""
    if not accuracies:
        raise ValueError("accuracies must be non-empty")
    ratios = {agent: accuracy_ratio(agent, acc) for agent, acc in accuracies.items()}
    best_num, best_den = 0, 1
    for num, den in ratios.values():
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return {agent for agent, (num, den) in ratios.items() if num * best_den == best_num * den}


def roster_for_iteration(
    iteration: int, registry: AgentRegistry, rng: random.Random, evolve=None,
    late_stage_start: int = DEFAULT_LATE_STAGE_START,
) -> tuple[str, list[str], str | None]:
    """The iteration's (mode, competitors, new agent id or None).

    Iteration 1 fields the whole population in id order and draws nothing
    from rng. Later iterations draw a mode only when evolve is given, and
    are none-mode otherwise. In evolve mode, evolve(iteration) registers a
    new agent and returns its id; None degrades the iteration to none-mode.
    """
    if iteration == 1:
        return MODE_NONE, registry.agent_ids(), None
    mode = choose_mode(iteration, rng, late_stage_start) if evolve else MODE_NONE
    new_agent = None
    if mode == MODE_EVOLVE:
        new_agent = evolve(iteration)
        if new_agent is None:
            mode = MODE_NONE
    return mode, select_competitors(mode, registry, new_agent, rng), new_agent


def settle_iteration(
    registry: AgentRegistry, competitors: list[str], accuracies: dict[str, object]
) -> None:
    """Rate and record one iteration: pairwise ELO updates in roster order,
    then the winners, then the registry's win bookkeeping."""
    registry.elo.decompose_and_update(
        [(agent_id, accuracies[agent_id]) for agent_id in competitors]
    )
    registry.record_iteration_outcome(competitors, determine_winners(accuracies))
