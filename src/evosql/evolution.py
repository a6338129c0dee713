"""Evolution dispatch: context assembly, draft validation, and Deep Focus.

The evolution backend sees the ELO leaderboard, the parent packages' full
artifact text, the latest error analysis, and the strategy prompt, and
returns a draft package. Each draft is written once beside its package,
validated by loading it there, and renamed into place; invalid drafts get
exactly one re-request with the errors appended. A freshly evolved agent
is then refined through Deep Focus: it is re-evaluated on the most recent
iterations' tasks (newest first) and the backend sees which questions it
uniquely solved and uniquely missed, refining the package in the same
session after each round.
"""

import errno
import logging
import os
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from .backends import DraftPackage
from .errors import BackendError, EvolutionError, EvoSqlError, ValidationError
from .registry import (
    INSTRUCTIONS_FILENAME,
    MANIFEST_FILENAME,
    AgentPackage,
    AgentRegistry,
    load_package,
    make_agent_id,
)

logger = logging.getLogger(__name__)

REASONING_FILENAME = "reasoning.md"


@dataclass
class EvolutionContext:
    """Everything the evolution backend is shown for one dispatch.

    Carries only evaluated material: error reports and history cover sampled
    questions, never gold SQL for unevaluated questions or held-out data.
    """

    iteration: int
    leaderboard: list[dict]
    parent_packages: dict[str, dict[str, str]]
    error_report: str
    strategy: str
    history: list[str] = field(default_factory=list)


def read_package_files(root_dir: str | Path) -> dict[str, str]:
    """Full artifact text of a package: manifest, instructions, tools. A
    file that does not decode as text is shown as one line giving its size."""
    root = Path(root_dir)
    paths = [root / MANIFEST_FILENAME, root / INSTRUCTIONS_FILENAME]
    if (root / "tools").is_dir():
        paths += sorted((root / "tools").rglob("*"))
    files = {}
    for path in filter(Path.is_file, paths):
        name = str(path.relative_to(root))
        try:
            files[name] = path.read_text()
        except UnicodeDecodeError:
            files[name] = f"(not text: {path.stat().st_size} bytes)\n"
    return files


def build_context(
    registry: AgentRegistry, history: list, strategy_path: str | Path, error_report: str = ""
) -> EvolutionContext:
    """Assemble the evolution context from the current run state.

    history is the list of completed iteration records (oldest first); the
    parent set is the most recent iteration's competitor roster, or the whole
    population before any iteration has completed. error_report is the
    latest iteration's error analysis text. The strategy file is loaded
    verbatim.
    """
    strategy_file = Path(strategy_path)
    if not strategy_file.is_file():
        raise FileNotFoundError(f"strategy file not found: {strategy_file}")
    strategy = strategy_file.read_text()

    ranked = registry.top_by_elo(len(registry))
    leaderboard = [
        {
            "agent_id": agent_id,
            "rating": registry.get(agent_id).rating.value,
            "tests": registry.get(agent_id).tests,
            "wins": registry.get(agent_id).iteration_wins,
        }
        for agent_id in ranked
    ]

    if history:
        parent_ids = list(history[-1].competitors)
        iteration = history[-1].iteration + 1
    else:
        parent_ids = registry.agent_ids()
        iteration = 1

    parent_packages = {
        agent_id: read_package_files(registry.package(agent_id).root_dir)
        for agent_id in parent_ids
        if agent_id in registry.packages
    }

    summaries = []
    for record in history:
        accuracy_parts = ", ".join(
            f"{agent}={m}/{t}" for agent, (m, t) in sorted(record.accuracies.items())
        )
        summaries.append(
            f"iteration {record.iteration} ({record.mode}): {accuracy_parts}; "
            f"winners: {', '.join(sorted(record.winners))}"
        )

    return EvolutionContext(
        iteration=iteration,
        leaderboard=leaderboard,
        parent_packages=parent_packages,
        error_report=error_report,
        strategy=strategy,
        history=summaries,
    )


def _write_draft_files(draft: DraftPackage, root: Path) -> None:
    """Write the draft's files under root. Raises ValidationError, having
    written nothing, when a path is absolute, resolves outside root, or
    cannot name a file (a NUL byte, a lone surrogate)."""
    targets = {}
    for rel_path, content in draft.files.items():
        if rel_path == REASONING_FILENAME:
            continue
        try:
            target = (root / rel_path).resolve()
        except ValueError as exc:
            reason = exc.reason if isinstance(exc, UnicodeError) else exc
            raise ValidationError(f"{reason} (file={rel_path!r})") from exc
        if Path(rel_path).is_absolute() or not target.is_relative_to(root.resolve()):
            raise ValidationError(f"file path {rel_path!r} leaves the package")
        targets[target] = content
    for target, content in targets.items():
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)


# Errors of the disk a draft is written to, not of the draft's files.
_DISK_FAULTS = {errno.ENOSPC, errno.EDQUOT, errno.EROFS, errno.EIO}


def _place_draft(
    draft: DraftPackage, parent: Path, iteration: int, lineage: list[str],
    agent_id: str | None = None,
) -> AgentPackage:
    """Write the draft once into parent/.draft, load it there, which
    validates it, and rename it onto parent/<agent_id>. agent_id defaults
    to the id the manifest's name takes in iteration. A package already
    there is moved to parent/.prior, deleted once the new one is in place.

    An invalid draft, or one whose files cannot be written, raises
    ValidationError with one argument per error, naming files relative to
    the package, and leaves parent/<agent_id> as it was. A disk that is
    full, read-only or failing is no fault of the draft: it raises
    EvolutionError, which no re-request can mend.
    """
    errors = [f"missing {name}" for name in (MANIFEST_FILENAME, INSTRUCTIONS_FILENAME)
              if name not in draft.files]
    if errors:
        raise ValidationError(*errors)
    staging, aside = parent / ".draft", parent / ".prior"
    # A crash may have left either behind; this draft starts from neither.
    for stale in (staging, aside):
        shutil.rmtree(stale, ignore_errors=True)
    try:
        staging.mkdir(parents=True)
        _write_draft_files(draft, staging)
        pkg = load_package(staging)
    except (EvoSqlError, OSError, ValueError) as exc:
        shutil.rmtree(staging, ignore_errors=True)
        if isinstance(exc, OSError) and exc.errno in _DISK_FAULTS:
            raise EvolutionError(f"cannot write the draft: {exc}") from exc
        relative = str(exc).replace(f"{staging}{os.sep}", "").replace(f"{staging}: ", "")
        raise ValidationError(relative) from exc
    root = parent / (agent_id or make_agent_id(pkg.name, iteration))
    if root.exists():
        root.rename(aside)
    staging.rename(root)
    shutil.rmtree(aside, ignore_errors=True)
    return replace(pkg, id=root.name, root_dir=root, iteration_created=iteration,
                   lineage=list(lineage))


def evolve_agent(
    context: EvolutionContext, backend, dest_dir: str | Path
) -> tuple[AgentPackage, str]:
    """Dispatch one evolution and install the validated package.

    An invalid draft triggers a single re-request carrying the validation
    errors; a second invalid draft (or any backend failure) raises
    EvolutionError, which the orchestrator degrades to a none-mode iteration.
    Reasoning text is persisted next to the package for auditable lineage.
    """
    try:
        draft = backend.propose(context)
    except EvolutionError:
        raise
    except Exception as exc:
        raise EvolutionError(f"evolution backend failed: {exc}") from exc

    dest = Path(dest_dir)
    lineage = sorted(context.parent_packages)
    try:
        pkg = _place_draft(draft, dest, context.iteration, lineage)
    except ValidationError as invalid:
        feedback = (
            "The proposed package failed validation:\n"
            + "\n".join(f"- {e}" for e in invalid.args)
            + "\nEmit the corrected package files again, one fenced block per file."
        )
        logger.warning("evolution draft invalid (%s); requesting one revision",
                       "; ".join(invalid.args))
        try:
            draft = backend.refine(feedback)
        except Exception as exc:
            raise EvolutionError(f"evolution backend failed on revision: {exc}") from exc
        try:
            pkg = _place_draft(draft, dest, context.iteration, lineage)
        except ValidationError as exc:
            raise EvolutionError("revised draft still invalid: " + "; ".join(exc.args)) from exc

    (dest / REASONING_FILENAME).write_text(draft.reasoning or "(no reasoning provided)\n")
    logger.info("evolved agent %s (parents: %s)", pkg.id, ", ".join(lineage) or "none")
    return pkg, draft.reasoning


def _uniqueness_sets(new_matches: dict, record) -> tuple[list, list]:
    """Question keys the new agent uniquely solved / uniquely missed,
    measured against every competitor of the referenced iteration."""
    uniquely_correct = []
    uniquely_incorrect = []
    competitor_matches = [record.matches[agent] for agent in record.competitors]
    for key, new_ok in sorted(new_matches.items()):
        others = [m.get(key) for m in competitor_matches]
        if any(o is None for o in others):
            continue
        if new_ok and not any(others):
            uniquely_correct.append(key)
        elif not new_ok and all(others):
            uniquely_incorrect.append(key)
    return uniquely_correct, uniquely_incorrect


def _deep_focus_feedback(
    round_number: int, record, accuracy, uniquely_correct, uniquely_incorrect, question_text
) -> str:
    lines = [
        f"Deep Focus round {round_number}: the new agent was evaluated on the "
        f"tasks of iteration {record.iteration}.",
        f"New agent accuracy: {accuracy.numerator}/{accuracy.denominator}.",
        "Competitor accuracies on those tasks at the time: "
        + ", ".join(f"{agent}={m}/{t}" for agent, (m, t) in sorted(record.accuracies.items())),
        "",
        "Questions only the new agent answered correctly:",
    ]
    lines.extend(f"- {db} q{qid}: {question_text.get((db, qid), '')}" for db, qid in uniquely_correct)
    if not uniquely_correct:
        lines.append("- none")
    lines.append("Questions only the new agent answered incorrectly:")
    lines.extend(f"- {db} q{qid}: {question_text.get((db, qid), '')}" for db, qid in uniquely_incorrect)
    if not uniquely_incorrect:
        lines.append("- none")
    lines.append("")
    lines.append(
        "Refine the package based on this feedback and emit every file again, "
        "one fenced block per file."
    )
    return "\n".join(lines)


def deep_focus(pkg: AgentPackage, backend, records: list, eval_fn: Callable) -> AgentPackage:
    """Refine a freshly evolved agent against completed iterations' tasks.

    Runs one round per record, in the order given (the run loop passes the
    newest first). eval_fn(pkg, record) must return (accuracy, matches)
    where matches maps (db_id, question_id) to a boolean. Refinement is
    best-effort: a refine that fails as a refine can (a backend error, an
    invalid draft, a file that cannot be written) keeps the pre-round
    package and stops. Any other exception propagates.
    """
    current = pkg
    for round_number, record in enumerate(records, 1):
        accuracy, matches = eval_fn(current, record)
        uniquely_correct, uniquely_incorrect = _uniqueness_sets(matches, record)
        question_text = {
            (item.db_id, item.question_id): item.question
            for items in record.questions.values()
            for item in items
        }
        feedback = _deep_focus_feedback(
            round_number, record, accuracy, uniquely_correct, uniquely_incorrect, question_text
        )
        try:
            current = _place_draft(backend.refine(feedback), current.root_dir.parent,
                                   current.iteration_created, current.lineage, current.id)
        except (BackendError, EvolutionError, ValidationError, OSError) as exc:
            logger.info("deep focus round %d kept prior package: %s", round_number, exc)
            break
    return current
