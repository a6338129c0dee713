"""End-to-end run loop: sampling, evolution, evaluation, rating, persistence.

One run executes N iterations. Iteration 1 evaluates the initial agent set
in id order; from iteration 2 on, the mode (evolve/challenger/none) decides
whether a new agent is evolved (with Deep Focus refinement) before
scheduler.roster_for_iteration selects the roster. Each iteration samples
databases and questions, runs every competitor's analysis tool, evaluates
all competitors on identical prompts in one shared queue of (agent,
question) tasks, and scheduler.settle_iteration rates and records them.

State is one JSON file plus per-iteration artifact directories. Artifact
paths inside the state are relative to the output directory and no clocks
are persisted, so two runs with the same seed produce byte-identical state;
per-iteration RNG is derived from (run_seed, iteration), so a halted run
resumes onto exactly the trajectory of an uninterrupted one.
"""

import json
import logging
import shutil
import time
from collections import ChainMap, Counter, defaultdict
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import harness, pipeline, scheduler, toolrun
from .backends import (
    HttpChatBackend,
    HttpEvolutionBackend,
    NullEvolutionBackend,
    OracleGenerationBackend,
    ScriptedEvolutionBackend,
    ScriptedGenerationBackend,
)
from .defaults import DEFAULT_STRATEGY, write_naive_package
from .elo import MatchRecord
from .errors import EvolutionError, InvalidStateError
from .evolution import build_context, deep_focus, evolve_agent
from .harness import evaluate_agent, execute_gold, write_error_analysis
from .registry import AgentRegistry, load_package
from .scheduler import QuestionItem, iteration_rng
from .toolrun import ToolRunResult, run_agent_tool

logger = logging.getLogger(__name__)

STATE_SCHEMA_VERSION = 1
STATE_FILENAME = "run_state.json"
AGENTS_DIRNAME = "agents"
STRATEGY_FILENAME = "strategy.md"


@dataclass
class RunConfig:
    """Inputs of one evolution run."""

    data_root: Path
    output_dir: Path
    iterations: int = 10
    run_seed: int = 0
    strategy_path: Path | None = None
    gen_backend: str = "oracle"
    evo_backend: str = "none"
    workers: int = 4
    backend_concurrency: int = 6
    deep_focus_k: int = 1
    late_stage_start: int = scheduler.DEFAULT_LATE_STAGE_START
    databases_per_iteration: int = scheduler.DATABASES_PER_ITERATION
    questions_per_database: int = scheduler.QUESTIONS_PER_DATABASE
    sql_timeout: float = harness.DEFAULT_SQL_TIMEOUT
    tool_timeout: float = toolrun.DEFAULT_TOOL_TIMEOUT
    token_budget: int = toolrun.DEFAULT_TOKEN_BUDGET
    max_rounds: int = pipeline.DEFAULT_MAX_ROUNDS
    initial_agents: list[Path] = field(default_factory=list)

    def __post_init__(self):
        self.data_root = Path(self.data_root)
        self.output_dir = Path(self.output_dir)
        if self.strategy_path is not None:
            self.strategy_path = Path(self.strategy_path)
        self.initial_agents = [Path(p) for p in self.initial_agents]
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.late_stage_start < 2:
            raise ValueError("late_stage_start must be >= 2")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.backend_concurrency < 1:
            raise ValueError("backend_concurrency must be >= 1")
        if self.deep_focus_k < 0:
            raise ValueError("deep_focus_k must be >= 0")

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "RunConfig":
        data = json.loads(Path(path).read_text())
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"config file {path} has unknown keys: {', '.join(unknown)}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)


@dataclass
class IterationRecord:
    """Everything persisted about one completed iteration."""

    iteration: int
    mode: str
    databases: list[str]
    questions: dict[str, list[QuestionItem]]
    competitors: list[str]
    new_agent: str | None
    accuracies: dict[str, tuple[int, int]]
    winners: list[str]
    match_records: list[MatchRecord]
    matches: dict[str, dict[tuple[str, int], bool]]
    excluded_questions: list[tuple[str, int]]
    tool_fallbacks: dict[str, dict[str, str]]
    tokens: dict[str, dict[str, int]]
    report_path: str = ""

    def to_dict(self) -> dict:
        # JSON keys are strings, so a question key (db, qid) is "db:qid".
        matches = {agent: {f"{db}:{qid}": ok for (db, qid), ok in per_agent.items()}
                   for agent, per_agent in self.matches.items()}
        return dict(vars(self), matches=matches)

    @classmethod
    def from_dict(cls, data: dict) -> "IterationRecord":
        """Rebuild what JSON flattened: nested records, tuples, match keys."""
        return cls(**dict(
            data,
            questions={db: [QuestionItem(**q) for q in items]
                       for db, items in data["questions"].items()},
            accuracies={a: tuple(mt) for a, mt in data["accuracies"].items()},
            match_records=[MatchRecord(**m) for m in data["match_records"]],
            matches={agent: {_question_key(key): ok for key, ok in per_agent.items()}
                     for agent, per_agent in data["matches"].items()},
            excluded_questions=[tuple(key) for key in data["excluded_questions"]],
        ))


def _question_key(text: str) -> tuple[str, int]:
    db, _, qid = text.rpartition(":")
    return db, int(qid)


@dataclass
class RunState:
    """Persisted run progress: completed iterations plus registry snapshot."""

    run_seed: int
    iterations: list[IterationRecord] = field(default_factory=list)
    registry_snapshot: dict = field(default_factory=dict)
    schema_version: int = STATE_SCHEMA_VERSION

    def to_dict(self) -> dict:
        data = dict(vars(self), iterations=[record.to_dict() for record in self.iterations])
        data["registry"] = data.pop("registry_snapshot")
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunState":
        if data.get("schema_version") != STATE_SCHEMA_VERSION:
            raise InvalidStateError(
                f"state schema version {data.get('schema_version')!r} is not "
                f"{STATE_SCHEMA_VERSION}"
            )
        return cls(
            run_seed=data["run_seed"],
            iterations=[IterationRecord.from_dict(r) for r in data["iterations"]],
            registry_snapshot=data["registry"],
        )


def _write_json(path: Path, value) -> None:
    """Write value as indented JSON with sorted keys. A dataclass nested in
    value is written as its fields, so its fields are the file format."""
    path.write_text(json.dumps(value, default=vars, indent=2, sort_keys=True) + "\n")


def save_state(state: RunState, output_dir: Path) -> Path:
    path = output_dir / STATE_FILENAME
    tmp = path.with_suffix(".tmp")
    _write_json(tmp, state.to_dict())
    tmp.replace(path)
    return path


def load_state(output_dir: Path) -> RunState | None:
    path = Path(output_dir) / STATE_FILENAME
    if not path.is_file():
        return None
    return RunState.from_dict(json.loads(path.read_text()))


def snapshot_registry(registry: AgentRegistry, output_dir: Path) -> dict:
    snapshot = {}
    for agent_id, record in registry.records.items():
        pkg = registry.packages[agent_id]
        snapshot[agent_id] = {
            "name": pkg.name,
            "iteration_created": pkg.iteration_created,
            "package_dir": str(pkg.root_dir.relative_to(output_dir)),
            "lineage": list(pkg.lineage),
            "execution_mode": pkg.execution_mode,
            "rating_value": record.rating.value,
            "rating_games": record.rating.games,
            "tests": record.tests,
            "iteration_wins": record.iteration_wins,
            "pending_winner": record.pending_winner,
        }
    return snapshot


def restore_registry(snapshot: dict, output_dir: Path) -> AgentRegistry:
    registry = AgentRegistry()
    for agent_id in sorted(snapshot):
        entry = snapshot[agent_id]
        pkg = load_package(
            output_dir / entry["package_dir"],
            agent_id=agent_id,
            iteration_created=entry["iteration_created"],
        )
        pkg.lineage = list(entry["lineage"])
        record = registry.register(pkg)
        record.rating.value = entry["rating_value"]
        record.rating.games = entry["rating_games"]
        record.tests = entry["tests"]
        record.iteration_wins = entry["iteration_wins"]
        record.pending_winner = entry["pending_winner"]
    return registry


def _http_backend(backend_class, rest: str):
    """backend_class for the "<model>@<base_url>" part of an http: spec."""
    model, _, base_url = rest.partition("@")
    if not model or not base_url:
        raise ValueError("http backend spec must be http:<model>@<base_url>")
    return backend_class(base_url, model)


def build_generation_backend(spec: str, question_pool=None):
    """Instantiate a generation backend from its CLI spec string.

    Specs: "oracle" (answers gold SQL; needs the question pool),
    "scripted:<fixture.json>", "http:<model>@<base_url>".
    """
    scheme, _, rest = spec.partition(":")
    if scheme == "oracle":
        if question_pool is None:
            raise ValueError("oracle backend needs the question pool")
        return OracleGenerationBackend.from_question_pool(question_pool)
    if scheme == "scripted":
        return ScriptedGenerationBackend.from_fixture(rest)
    if scheme == "http":
        return _http_backend(HttpChatBackend, rest)
    raise ValueError(f"unknown generation backend spec {spec!r}")


def build_evolution_backend(spec: str):
    """Specs: "none", "scripted:<fixture.json>", "http:<model>@<base_url>"."""
    scheme, _, rest = spec.partition(":")
    if scheme == "none":
        return NullEvolutionBackend()
    if scheme == "scripted":
        return ScriptedEvolutionBackend.from_fixture(rest)
    if scheme == "http":
        return _http_backend(HttpEvolutionBackend, rest)
    raise ValueError(f"unknown evolution backend spec {spec!r}")


class Orchestrator:
    """Owns the registry and rating state for one run (single writer)."""

    def __init__(self, config: RunConfig, gen_backend=None, evo_backend=None):
        self.config = config
        self.output_dir = config.output_dir
        self.db_pool, self.question_pool = scheduler.load_question_pool(config.data_root)
        self.gen_backend = gen_backend or build_generation_backend(
            config.gen_backend, self.question_pool
        )
        self.evo_backend = evo_backend or build_evolution_backend(config.evo_backend)
        # Created once the inputs are known good, so a bad one leaves nothing.
        self.output_dir.mkdir(parents=True, exist_ok=True)
        self.strategy_path = self._materialize_strategy()
        # Tool runs of the iterations' competitors, by (agent id, db_id).
        self._analyses: dict[tuple[str, str], ToolRunResult] = {}
        # Gold of the latest iterations Deep Focus replays, by iteration;
        # later iterations copy the questions it holds. Empty after a
        # resume, until Deep Focus or the next iteration runs gold again.
        self._gold_by_iteration: dict[int, dict] = {}

        existing = load_state(self.output_dir)
        if existing is not None:
            if existing.run_seed != config.run_seed:
                raise InvalidStateError(f"the run state has seed {existing.run_seed}, not "
                                        f"{config.run_seed}; resume with the run's seed")
            self.state = existing
            self.registry = restore_registry(existing.registry_snapshot, self.output_dir)
            logger.info("resuming run at iteration %d", len(self.state.iterations) + 1)
        else:
            self.state = RunState(run_seed=config.run_seed)
            self.registry = AgentRegistry()
            self._register_initial_agents()

    def _materialize_strategy(self) -> Path:
        target = self.output_dir / STRATEGY_FILENAME
        if self.config.strategy_path is not None:
            if not self.config.strategy_path.is_file():
                raise FileNotFoundError(f"strategy file not found: {self.config.strategy_path}")
            shutil.copyfile(self.config.strategy_path, target)
        elif not target.is_file():
            target.write_text(DEFAULT_STRATEGY)
        return target

    def _register_initial_agents(self) -> None:
        agents_dir = self.output_dir / AGENTS_DIRNAME
        agents_dir.mkdir(exist_ok=True)
        sources = self.config.initial_agents
        if not sources:
            naive_dir = agents_dir / "naive"
            if not naive_dir.exists():
                write_naive_package(naive_dir)
            pkg = load_package(naive_dir, iteration_created=0)
            self.registry.register(pkg)
            return
        for source in sources:
            name = load_package(source).name
            dest = agents_dir / name
            if not dest.exists():
                shutil.copytree(source, dest)
            # Packages are copied under the output dir so the run state stays
            # self-contained and resumable with relative paths.
            pkg = load_package(dest, iteration_created=0)
            self.registry.register(pkg)

    # -- per-iteration pieces -------------------------------------------------

    def _run_tool(self, pkg, db_id: str) -> ToolRunResult:
        return run_agent_tool(pkg, scheduler.database_path(self.config.data_root, db_id),
                              self.config.tool_timeout, self.config.token_budget)

    def _cached_analysis(self, pkg, db_id: str) -> str | None:
        key = (pkg.id, db_id)
        if key not in self._analyses:
            self._analyses[key] = self._run_tool(pkg, db_id)
        return self._analyses[key].text

    def _evolve_for_iteration(self, iteration: int, iter_dir: Path) -> str | None:
        """Evolve, deep-focus, and register a new agent; None on failure."""
        history = self.state.iterations
        # Read from disk, so a resumed run shows evolution the same report.
        report = (self.output_dir / history[-1].report_path).read_text() if history else ""
        context = build_context(self.registry, history, self.strategy_path, report)
        try:
            pkg, _reasoning = evolve_agent(context, self.evo_backend, iter_dir)
        except EvolutionError as exc:
            logger.warning("iteration %d: evolution failed (%s); degrading to none-mode",
                           iteration, exc)
            return None
        pkg = deep_focus(
            pkg,
            self.evo_backend,
            history,
            k=self.config.deep_focus_k,
            eval_fn=self._deep_focus_eval,
        )
        self.registry.register(pkg)
        return pkg.id

    def _gold(self, questions: dict[str, list[QuestionItem]]) -> dict:
        # Every question the Deep Focus window holds is copied, not run again.
        return execute_gold(questions, self.config.data_root, self.config.sql_timeout,
                            held=ChainMap(*self._gold_by_iteration.values()))

    def _evaluate(self, packages, questions, analysis, gold):
        return evaluate_agent(
            packages, questions, self.gen_backend, analysis, gold, self.config.data_root,
            sql_timeout=self.config.sql_timeout,
            max_rounds=self.config.max_rounds,
            workers=self.config.workers,
            backend_concurrency=self.config.backend_concurrency,
        )

    def _deep_focus_eval(self, pkg, record: IterationRecord):
        """Evaluate a candidate package on a past iteration's tasks."""
        # Held, so that after a resume the iteration under way copies it.
        gold = self._gold_by_iteration[record.iteration] = self._gold(record.questions)
        # Uncached: a refine rewrites the package under the same id.
        evaluation = self._evaluate([pkg], record.questions,
                                    lambda p, db: self._run_tool(p, db).text, gold)[pkg.id]
        matches = {(o.db_id, o.question_id): o.match for o in evaluation.outcomes}
        return evaluation.accuracy, matches

    def run_iteration(self, iteration: int) -> IterationRecord:
        rng = iteration_rng(self.config.run_seed, iteration)
        iter_dir = self.output_dir / f"iter_{iteration}"
        iter_dir.mkdir(exist_ok=True)

        databases, questions = scheduler.sample_iteration_tasks(
            self.db_pool,
            self.question_pool,
            rng,
            self.config.databases_per_iteration,
            self.config.questions_per_database,
        )

        mode, competitors, new_agent = scheduler.roster_for_iteration(
            iteration, self.registry, rng, lambda it: self._evolve_for_iteration(it, iter_dir),
            self.config.late_stage_start,
        )
        logger.info("iteration %d: mode=%s databases=%s competitors=%s",
                    iteration, mode, databases, competitors)

        # Deep Focus is done with the gold no later iteration replays, so it
        # is dropped once this iteration has copied what it needs from it.
        gold = self._gold(questions)
        self._gold_by_iteration.pop(iteration - self.config.deep_focus_k, None)
        if self.config.deep_focus_k:
            self._gold_by_iteration[iteration] = gold

        evaluations = self._evaluate(
            [self.registry.package(agent_id) for agent_id in competitors],
            questions, self._cached_analysis, gold,
        )
        all_outcomes = []
        for agent_id, evaluation in evaluations.items():
            all_outcomes.extend(evaluation.outcomes)
            logger.info("iteration %d: %s scored %d/%d", iteration, agent_id,
                        evaluation.matches, evaluation.total)

        match_records, winners = scheduler.settle_iteration(
            iteration, self.registry, competitors,
            {agent_id: ev.accuracy for agent_id, ev in evaluations.items()},
        )

        report = write_error_analysis(iteration, all_outcomes)
        report_path = iter_dir / "error_analysis_report.md"
        report_path.write_text(report)
        _write_json(iter_dir / "plan.json", {
            "iteration": iteration,
            "mode": mode,
            "databases": databases,
            "questions": questions,
            "competitors": competitors,
            "new_agent_slot": new_agent is not None,
        })
        _write_json(iter_dir / "outcomes.json", [o.to_dict() for o in all_outcomes])
        _write_json(iter_dir / "transcripts.json", {
            agent_id: [o.transcript for o in ev.outcomes] for agent_id, ev in evaluations.items()
        })

        record = IterationRecord(
            iteration=iteration,
            mode=mode,
            databases=databases,
            questions=questions,
            competitors=competitors,
            new_agent=new_agent,
            accuracies={a: (ev.matches, ev.total) for a, ev in evaluations.items()},
            winners=sorted(winners),
            match_records=match_records,
            matches={
                a: {(o.db_id, o.question_id): o.match for o in ev.outcomes}
                for a, ev in evaluations.items()
            },
            excluded_questions=sorted(key for key, g in gold.items() if isinstance(g, str)),
            tool_fallbacks={
                a: {db: note for db in databases
                    if (note := self._analyses[(a, db)].reason) is not None}
                for a in competitors
            },
            tokens={a: ev.usage() for a, ev in evaluations.items()},
            report_path=str(report_path.relative_to(self.output_dir)),
        )
        return record

    def run(self) -> RunState:
        start_iteration = len(self.state.iterations) + 1
        for iteration in range(start_iteration, self.config.iterations + 1):
            started = time.monotonic()
            record = self.run_iteration(iteration)
            self.state.iterations.append(record)
            self.state.registry_snapshot = snapshot_registry(self.registry, self.output_dir)
            save_state(self.state, self.output_dir)
            # Wall clock is logged, never persisted, to keep state files
            # byte-identical across reruns.
            logger.info("iteration %d finished in %.1fs", iteration, time.monotonic() - started)
        return self.state


def run(config: RunConfig, gen_backend=None, evo_backend=None) -> RunState:
    """Run (or resume) the evolution cycle described by config."""
    return Orchestrator(config, gen_backend, evo_backend).run()


def resume(config: RunConfig, gen_backend=None, evo_backend=None) -> RunState:
    """Resume a halted run; fails if no state exists yet."""
    if load_state(config.output_dir) is None:
        raise InvalidStateError(f"no {STATE_FILENAME} under {config.output_dir} to resume")
    return run(config, gen_backend, evo_backend)


def leaderboard(state: RunState) -> str:
    """Render the final standings from a run state (pure function)."""
    if not state.iterations:
        raise InvalidStateError("run state has no completed iterations")
    rows = []
    for agent_id, entry in state.registry_snapshot.items():
        rows.append(
            (
                -entry["rating_value"],
                entry["tests"],
                agent_id,
                entry,
            )
        )
    rows.sort()
    lines = ["# Leaderboard", ""]
    lines.append(f"{'rank':<5} {'agent':<40} {'rating':>8} {'games':>6} "
                 f"{'tests':>6} {'wins':>5}  lineage")
    for rank, (_, _, agent_id, entry) in enumerate(rows, start=1):
        lineage = ", ".join(entry["lineage"]) or "-"
        lines.append(
            f"{rank:<5} {agent_id:<40} {entry['rating_value']:>8.1f} "
            f"{entry['rating_games']:>6} {entry['tests']:>6} "
            f"{entry['iteration_wins']:>5}  {lineage}"
        )
    lines.append("")
    return "\n".join(lines)


def token_totals(state: RunState) -> dict:
    """Request and response tokens and generation calls, per iteration, per
    agent and in total."""
    per_iteration = {}
    per_agent: dict[str, Counter] = defaultdict(Counter)
    total = Counter()
    for record in state.iterations:
        iteration_totals = per_iteration[record.iteration] = Counter()
        for agent_id, usage in record.tokens.items():
            iteration_totals.update(usage)
            per_agent[agent_id].update(usage)
        total.update(iteration_totals)
    return {"per_iteration": per_iteration, "per_agent": dict(per_agent), "total": total}
