"""Evolution dispatch: context assembly, draft validation, and Deep Focus.

The evolution backend sees the ELO leaderboard, the parent packages' full
artifact text, the latest error analysis, and the strategy prompt, and
returns a draft package. Invalid drafts get exactly one re-request with the
validation errors appended. A freshly evolved agent is then refined through
Deep Focus: it is re-evaluated on the most recent iterations' tasks (newest
first) and the backend sees which questions it uniquely solved and uniquely
missed, refining the package in the same session after each round.
"""

import logging
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .backends import DraftPackage
from .errors import EvolutionError, EvoSqlError, ValidationError
from .registry import (
    INSTRUCTIONS_FILENAME,
    MANIFEST_FILENAME,
    AgentPackage,
    AgentRegistry,
    load_package,
    make_agent_id,
    parse_frontmatter,
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
    """Full artifact text of a package: manifest, instructions, tools."""
    root = Path(root_dir)
    files = {}
    for name in (MANIFEST_FILENAME, INSTRUCTIONS_FILENAME):
        path = root / name
        if path.is_file():
            files[name] = path.read_text()
    tools_dir = root / "tools"
    if tools_dir.is_dir():
        for path in sorted(tools_dir.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(root))] = path.read_text()
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


def validate_draft(draft: DraftPackage) -> list[str]:
    """Contract checks for a draft package; returns human-readable errors,
    which name files relative to the package."""
    errors = []
    if MANIFEST_FILENAME not in draft.files:
        errors.append(f"missing {MANIFEST_FILENAME}")
    if INSTRUCTIONS_FILENAME not in draft.files:
        errors.append(f"missing {INSTRUCTIONS_FILENAME}")
    if errors:
        return errors

    staging = Path(tempfile.mkdtemp(prefix="evosql_draft_")).resolve()
    try:
        _write_draft_files(draft, staging)
        load_package(staging)
    except (EvoSqlError, OSError) as exc:
        # The staging directory differs on every call; the backend sees the
        # same error for the same draft.
        errors.append(str(exc).replace(f"{staging}{os.sep}", "").replace(f"{staging}: ", ""))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return errors


def _write_draft_files(draft: DraftPackage, root: Path) -> None:
    """Write the draft's files under root. Raises ValidationError, having
    written nothing, when a path is absolute or resolves outside root."""
    targets = {}
    for rel_path, content in draft.files.items():
        if rel_path == REASONING_FILENAME:
            continue
        target = (root / rel_path).resolve()
        if Path(rel_path).is_absolute() or not target.is_relative_to(root.resolve()):
            raise ValidationError(f"file path {rel_path!r} leaves the package")
        targets[target] = content
    for target, content in targets.items():
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content)


def _install_draft(
    draft: DraftPackage, package_dir: Path, agent_id: str, iteration: int, lineage: list[str]
) -> AgentPackage:
    if package_dir.exists():
        shutil.rmtree(package_dir)
    package_dir.mkdir(parents=True)
    _write_draft_files(draft, package_dir)
    pkg = load_package(package_dir, agent_id=agent_id, iteration_created=iteration)
    pkg.lineage = list(lineage)
    return pkg


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

    errors = validate_draft(draft)
    if errors:
        feedback = (
            "The proposed package failed validation:\n"
            + "\n".join(f"- {e}" for e in errors)
            + "\nEmit the corrected package files again, one fenced block per file."
        )
        logger.warning("evolution draft invalid (%s); requesting one revision", "; ".join(errors))
        try:
            draft = backend.refine(feedback)
        except Exception as exc:
            raise EvolutionError(f"evolution backend failed on revision: {exc}") from exc
        errors = validate_draft(draft)
        if errors:
            raise EvolutionError("revised draft still invalid: " + "; ".join(errors))

    # validate_draft loaded this manifest, so it parses and has a name.
    name = parse_frontmatter(draft.files[MANIFEST_FILENAME])[0]["name"]
    agent_id = make_agent_id(name, context.iteration)
    dest = Path(dest_dir)
    lineage = sorted(context.parent_packages)
    pkg = _install_draft(draft, dest / agent_id, agent_id, context.iteration, lineage)
    (dest / REASONING_FILENAME).write_text(draft.reasoning or "(no reasoning provided)\n")
    logger.info("evolved agent %s (parents: %s)", agent_id, ", ".join(lineage) or "none")
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


def deep_focus(
    pkg: AgentPackage, backend, history: list, k: int, eval_fn: Callable
) -> AgentPackage:
    """Refine a freshly evolved agent against recent iterations' tasks.

    Runs min(k, len(history)) rounds, newest iteration first. eval_fn(pkg,
    record) must return (accuracy, matches) where matches maps (db_id,
    question_id) to a boolean. Refinement is best-effort: a failing or
    invalid refine keeps the pre-round package and stops.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    current = pkg
    for round_number in range(1, min(k, len(history)) + 1):
        record = history[-round_number]
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
            draft = backend.refine(feedback)
            errors = validate_draft(draft)
            if errors:
                raise EvolutionError("refined draft invalid: " + "; ".join(errors))
            current = _install_draft(
                draft, current.root_dir, current.id, current.iteration_created, current.lineage
            )
        except Exception as exc:
            logger.info("deep focus round %d kept prior package: %s", round_number, exc)
            break
    return current
