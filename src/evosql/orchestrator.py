"""End-to-end run loop: sampling, evolution, evaluation, rating, persistence.

One run executes N iterations. Iteration 1 evaluates the initial agent set
in id order; from iteration 2 on, the mode (evolve/challenger/none) decides
whether a new agent is evolved and registered before
scheduler.roster_for_iteration selects the roster. Each iteration samples
databases and questions, runs every competitor's analysis tool, evaluates
all competitors on identical prompts, and scheduler.settle_iteration rates
and records them. All of an iteration's tool runs and (agent, question)
tasks share one task pool. In an evolve iteration, Deep Focus refines the
new agent once the roster is seated, and its rounds and then the new
agent's questions are urgent tasks; the incumbents' evaluation runs beside
them and fills the slots they leave idle.

State is one JSON file plus per-iteration artifact directories. It holds
each rating fact once, and ratings are replayed from its matches. Artifact
paths inside the state are relative to the output directory and no clocks
are persisted, so two runs with the same seed produce byte-identical state;
per-iteration RNG is derived from (run_seed, iteration), so a halted run
resumes onto exactly the trajectory of an uninterrupted one.
"""

import json
import logging
import os
import shutil
import time
from collections import ChainMap, Counter, defaultdict
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

from . import pipeline, scheduler, toolrun
from .backends import (
    HttpChatBackend,
    HttpEvolutionBackend,
    NullEvolutionBackend,
    OracleGenerationBackend,
    ScriptedEvolutionBackend,
    ScriptedGenerationBackend,
)
from .defaults import DEFAULT_STRATEGY, write_naive_package
from .errors import ConfigError, EvolutionError, InvalidStateError
from .evolution import build_context, deep_focus, evolve_agent
from .harness import TaskPool, evaluate_agent, execute_gold, write_error_analysis
from .registry import AgentRegistry, load_package
from .scheduler import QuestionItem, iteration_rng
from .toolrun import ToolRunResult, keep_copies, run_agent_tool

logger = logging.getLogger(__name__)

STATE_SCHEMA_VERSION = 3
STATE_FILENAME = "run_state.json"
REPORT_FILENAME = "error_analysis_report.md"
TRANSCRIPTS_FILENAME = "transcripts.json"
AGENTS_DIRNAME = "agents"
STRATEGY_FILENAME = "strategy.md"


def _is_path(value) -> bool:
    return isinstance(value, (str, os.PathLike))


# What a value of each RunConfig annotation may be, and how a refusal names
# it. A bool is not an integer, and a string is not a list of paths.
_FIELD_TYPES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    Path: ("a path", _is_path),
    Path | None: ("a path or null", lambda v: v is None or _is_path(v)),
    list[Path]: ("a list of paths",
                 lambda v: isinstance(v, (list, tuple)) and all(map(_is_path, v))),
}


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
    backend_concurrency: int = 12
    deep_focus_k: int = 1
    late_stage_start: int = scheduler.DEFAULT_LATE_STAGE_START
    databases_per_iteration: int = scheduler.DATABASES_PER_ITERATION
    questions_per_database: int = scheduler.QUESTIONS_PER_DATABASE
    token_budget: int = toolrun.DEFAULT_TOKEN_BUDGET
    max_rounds: int = pipeline.DEFAULT_MAX_ROUNDS
    initial_agents: list[Path] = field(default_factory=list)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kind, fits = _FIELD_TYPES[f.type]
            if not fits(value):
                raise ConfigError(f"{f.name} must be {kind}, not {value!r}")
        self.data_root = Path(self.data_root)
        self.output_dir = Path(self.output_dir)
        if self.strategy_path is not None:
            self.strategy_path = Path(self.strategy_path)
        self.initial_agents = [Path(p) for p in self.initial_agents]
        minima = dict(iterations=1, late_stage_start=2, workers=1, backend_concurrency=1,
                      deep_focus_k=0, databases_per_iteration=1, questions_per_database=1,
                      token_budget=1, max_rounds=0)
        for name, least in minima.items():
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "RunConfig":
        try:
            data = json.loads(Path(path).read_bytes())
        except ValueError as exc:
            raise ConfigError(f"config file {path} is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} is not a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"config file {path} has unknown keys: {', '.join(unknown)}")
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
    matches: dict[str, dict[tuple[str, int], bool]]
    excluded_questions: list[tuple[str, int]]
    tool_fallbacks: dict[str, dict[str, str]]

    @property
    def accuracies(self) -> dict[str, tuple[int, int]]:
        """(matches, total) per competitor, read from its matches."""
        return {agent: (sum(per_agent.values()), len(per_agent))
                for agent, per_agent in self.matches.items()}

    @property
    def winners(self) -> list[str]:
        return sorted(scheduler.determine_winners(
            {agent: Fraction(*mt) for agent, mt in self.accuracies.items()}))

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
            matches={agent: {_question_key(key): ok for key, ok in per_agent.items()}
                     for agent, per_agent in data["matches"].items()},
            excluded_questions=[tuple(key) for key in data["excluded_questions"]],
        ))


def _question_key(text: str) -> tuple[str, int]:
    db, _, qid = text.rpartition(":")
    return db, int(qid)


@dataclass
class RunState:
    """Persisted run progress: completed iterations, plus the registry's
    registration facts (package_dir, iteration_created, lineage) by agent
    id. Ratings and win bookkeeping are replayed from the iterations."""

    run_seed: int
    iterations: list[IterationRecord] = field(default_factory=list)
    registry: dict[str, dict] = field(default_factory=dict)
    schema_version: int = STATE_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return dict(vars(self), iterations=[record.to_dict() for record in self.iterations])

    @classmethod
    def from_dict(cls, data: dict) -> "RunState":
        if data.get("schema_version") != STATE_SCHEMA_VERSION:
            raise InvalidStateError(
                f"state schema version {data.get('schema_version')!r} is not "
                f"{STATE_SCHEMA_VERSION}"
            )
        return cls(**dict(data, iterations=[IterationRecord.from_dict(r)
                                            for r in data["iterations"]]))


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
    try:
        return RunState.from_dict(json.loads(path.read_text()))
    except (InvalidStateError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise InvalidStateError(f"{path} is not a readable run state "
                                f"({type(exc).__name__}: {exc})") from exc


def replay_registry(state: RunState) -> AgentRegistry:
    """Ratings and win bookkeeping, without packages: every agent of the
    state registered, then each iteration settled again in order."""
    registry = AgentRegistry()
    for agent_id in sorted(state.registry):
        registry.register_record(agent_id)
    for record in state.iterations:
        scheduler.settle_iteration(
            registry, record.competitors,
            {agent: Fraction(*mt) for agent, mt in record.accuracies.items()})
    return registry


def restore_registry(state: RunState, output_dir: Path) -> AgentRegistry:
    registry = replay_registry(state)
    for agent_id, entry in sorted(state.registry.items()):
        pkg = load_package(output_dir / entry["package_dir"], agent_id=agent_id,
                           iteration_created=entry["iteration_created"])
        pkg.lineage = list(entry["lineage"])
        registry.packages[agent_id] = pkg
    return registry


def _http_backend(backend_class, rest: str):
    """backend_class for the "<model>@<base_url>" part of an http: spec."""
    model, _, base_url = rest.partition("@")
    if not model or not base_url:
        raise ConfigError("http backend spec must be http:<model>@<base_url>")
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
    raise ConfigError(f"unknown generation backend spec {spec!r}")


def build_evolution_backend(spec: str):
    """Specs: "none", "scripted:<fixture.json>", "http:<model>@<base_url>"."""
    scheme, _, rest = spec.partition(":")
    if scheme == "none":
        return NullEvolutionBackend()
    if scheme == "scripted":
        return ScriptedEvolutionBackend.from_fixture(rest)
    if scheme == "http":
        return _http_backend(HttpEvolutionBackend, rest)
    raise ConfigError(f"unknown evolution backend spec {spec!r}")


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
        # Tool runs of the iterations' competitors, by (agent id, db_id),
        # reused by every later iteration that seats the pair again.
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
            # The next iteration may show evolution the last report; an
            # uninterrupted run never sends it an empty one.
            if existing.iterations:
                report = self.output_dir / f"iter_{len(existing.iterations)}" / REPORT_FILENAME
                try:
                    empty = report.stat().st_size == 0
                except FileNotFoundError:
                    empty = True
                if empty:
                    raise InvalidStateError(f"cannot resume: {report} is missing or empty")
            self.state = existing
            self.registry = restore_registry(existing, self.output_dir)
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
                              token_budget=self.config.token_budget)

    def _cached_tool_run(self, pkg, db_id: str) -> ToolRunResult:
        key = (pkg.id, db_id)
        if key not in self._analyses:
            self._analyses[key] = self._run_tool(pkg, db_id)
        return self._analyses[key]

    def _evolve_for_iteration(self, iteration: int, iter_dir: Path) -> str | None:
        """Evolve and register a new agent; None on failure. Deep Focus
        refines it once the roster is seated."""
        # The previous iteration's report, read from disk so that a resumed
        # run shows evolution the same one. Iteration 1 never evolves.
        report = (self.output_dir / f"iter_{iteration - 1}" / REPORT_FILENAME).read_text()
        context = build_context(self.registry, self.state.iterations, self.strategy_path,
                                report)
        try:
            pkg, _reasoning = evolve_agent(context, self.evo_backend, iter_dir)
        except EvolutionError as exc:
            logger.warning("iteration %d: evolution failed (%s); degrading to none-mode",
                           iteration, exc)
            return None
        self.registry.register(pkg)
        return pkg.id

    def _gold(self, questions: dict[str, list[QuestionItem]]) -> dict:
        # Every question the Deep Focus window holds is copied, not run again.
        return execute_gold(questions, self.config.data_root,
                            held=ChainMap(*self._gold_by_iteration.values()))

    def _evaluate(self, packages, questions, analysis, gold, pool, urgent=False, queued=None):
        return evaluate_agent(packages, questions, analysis, gold, pool,
                              max_rounds=self.config.max_rounds, urgent=urgent, queued=queued)

    def _refine_and_evaluate(self, agent_id: str, replayed, questions, gold, pool,
                             queued) -> dict:
        """Deep Focus on the new agent, replaying the iteration records in
        replayed newest first, then its evaluation on the iteration's
        questions: the critical path, so every task is urgent. queued()
        follows the queuing of each evaluation's questions. The refined
        package replaces the proposal under the same id."""

        def deep_focus_eval(pkg, record: IterationRecord):
            # Held, so that after a resume later iterations copy it.
            replay_gold = self._gold_by_iteration[record.iteration] = self._gold(record.questions)
            # Uncached: a refine rewrites the package under the same id.
            evaluation = self._evaluate([pkg], record.questions, self._run_tool, replay_gold,
                                        pool, urgent=True, queued=queued)[pkg.id]
            return evaluation.accuracy, evaluation.question_matches

        pkg = deep_focus(self.registry.package(agent_id), self.evo_backend, replayed[::-1],
                         deep_focus_eval)
        self.registry.packages[agent_id] = pkg
        return self._evaluate([pkg], questions, self._cached_tool_run, gold, pool,
                              urgent=True, queued=queued)

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

        # The iteration's gold joins the Deep Focus window before Deep Focus
        # copies from it.
        k = self.config.deep_focus_k
        gold = self._gold(questions)
        if k:
            self._gold_by_iteration[iteration] = gold
        replayed = self.state.iterations[-k:] if new_agent and k else []
        # Tools run on the iteration's databases and on Deep Focus's, side
        # by side, so an idle copy of each is kept.
        keep_copies(scheduler.database_path(self.config.data_root, db)
                    for db in {*questions, *(db for r in replayed for db in r.questions)})

        with TaskPool(self.gen_backend, self.config.workers,
                      self.config.backend_concurrency) as pool:
            if new_agent is None:
                evaluations = self._evaluate([self.registry.package(a) for a in competitors],
                                             questions, self._cached_tool_run, gold, pool)
            else:
                # The incumbents do not wait for the new agent. Queued right
                # after its first questions, their tasks fill the slots that
                # Deep Focus and refines leave idle.
                incumbents = cache(partial(
                    pool.beside, self._evaluate,
                    [self.registry.package(a) for a in competitors if a != new_agent],
                    questions, self._cached_tool_run, gold, pool))
                evaluations = self._refine_and_evaluate(new_agent, replayed, questions, gold,
                                                        pool, incumbents)
                evaluations.update(incumbents().result())
        evaluations = {agent_id: evaluations[agent_id] for agent_id in competitors}
        # Deep Focus is done with the gold no later iteration replays.
        self._gold_by_iteration.pop(iteration - k, None)

        all_outcomes = []
        for agent_id, evaluation in evaluations.items():
            all_outcomes.extend(evaluation.outcomes)
            logger.info("iteration %d: %s scored %d/%d", iteration, agent_id,
                        evaluation.matches, evaluation.total)

        scheduler.settle_iteration(
            self.registry, competitors,
            {agent_id: ev.accuracy for agent_id, ev in evaluations.items()},
        )

        (iter_dir / REPORT_FILENAME).write_text(write_error_analysis(iteration, all_outcomes))
        _write_json(iter_dir / "outcomes.json", [o.to_dict() for o in all_outcomes])
        _write_json(iter_dir / TRANSCRIPTS_FILENAME, {
            agent_id: [o.transcript for o in ev.outcomes] for agent_id, ev in evaluations.items()
        })

        return IterationRecord(
            iteration=iteration,
            mode=mode,
            databases=databases,
            questions=questions,
            competitors=competitors,
            new_agent=new_agent,
            matches={a: ev.question_matches for a, ev in evaluations.items()},
            excluded_questions=sorted(key for key, g in gold.items() if isinstance(g, str)),
            tool_fallbacks={
                a: {db: tool.reason for db, tool in ev.tools.items() if tool.reason is not None}
                for a, ev in evaluations.items()
            },
        )

    def run(self) -> RunState:
        start_iteration = len(self.state.iterations) + 1
        for iteration in range(start_iteration, self.config.iterations + 1):
            started = time.monotonic()
            record = self.run_iteration(iteration)
            self.state.iterations.append(record)
            self.state.registry = {
                pkg.id: {"iteration_created": pkg.iteration_created, "lineage": list(pkg.lineage),
                         "package_dir": str(pkg.root_dir.relative_to(self.output_dir))}
                for pkg in self.registry.packages.values()}
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
    registry = replay_registry(state)
    lines = ["# Leaderboard", ""]
    lines.append(f"{'rank':<5} {'agent':<40} {'rating':>8} {'games':>6} "
                 f"{'tests':>6} {'wins':>5}  lineage")
    for rank, agent_id in enumerate(registry.top_by_elo(len(registry)), start=1):
        record = registry.get(agent_id)
        lineage = ", ".join(state.registry[agent_id]["lineage"]) or "-"
        lines.append(
            f"{rank:<5} {agent_id:<40} {record.rating.value:>8.1f} "
            f"{record.rating.games:>6} {record.tests:>6} "
            f"{record.iteration_wins:>5}  {lineage}"
        )
    lines.append("")
    return "\n".join(lines)


def token_totals(state: RunState, output_dir: Path) -> dict:
    """Request and response tokens and generation calls, per iteration, per
    agent and in total, summed from each iteration's transcripts."""
    per_iteration = {}
    per_agent: dict[str, Counter] = defaultdict(Counter)
    total = Counter()
    for record in state.iterations:
        iteration_totals = per_iteration[record.iteration] = Counter()
        path = Path(output_dir) / f"iter_{record.iteration}" / TRANSCRIPTS_FILENAME
        try:
            for agent_id, transcripts in json.loads(path.read_text()).items():
                usage = Counter(request=0, response=0, calls=0)
                for t in filter(None, transcripts):
                    usage.update(request=t["request_tokens"], response=t["response_tokens"],
                                 calls=t["backend_calls"])
                iteration_totals.update(usage)
                per_agent[agent_id].update(usage)
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise InvalidStateError(f"{path} is unreadable ({type(exc).__name__}: {exc})") from exc
        total.update(iteration_totals)
    return {"per_iteration": per_iteration, "per_agent": dict(per_agent), "total": total}
