"""Desk-scale simulation of the selection and rating dynamics.

Replaces generation and evolution with synthetic agents: each agent carries a
latent per-database correctness probability, and per-question outcomes are
independent Bernoulli draws. The real loop's roster and settle steps
(scheduler.roster_for_iteration and scheduler.settle_iteration) run
unchanged, which makes properties like convergence to latent strength and
bounded ratings under non-transitive matchups cheap to verify.

Each iteration keeps only the ratings its settle step moved, the
competitors'; SimulationResult.replay_trajectories rebuilds every agent's
rating after each iteration from them. Memory so grows with the rosters, not
with iterations times population.
"""

import bisect
import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from . import scheduler
from .errors import ConfigError, InvalidStateError
from .registry import AgentRegistry

DEFAULT_EVOLVE_DELTA = 0.02
DEFAULT_EVOLVE_CAP = 0.95


@dataclass
class SyntheticAgent:
    """An agent reduced to its latent accuracy."""

    agent_id: str
    latents: dict[str, float] = field(default_factory=dict)
    global_accuracy: float | None = None

    def __post_init__(self):
        for db, p in self.latents.items():
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"latent for {db!r} outside [0, 1]: {p}")
        if self.global_accuracy is not None and not 0.0 <= self.global_accuracy <= 1.0:
            raise ConfigError(f"global accuracy outside [0, 1]: {self.global_accuracy}")

    def latent_for(self, db_id: str) -> float:
        if db_id in self.latents:
            return self.latents[db_id]
        if self.global_accuracy is None:
            raise InvalidStateError(f"{self.agent_id} has no latent for {db_id!r}")
        return self.global_accuracy

    def mean_latent(self, databases: list[str]) -> float:
        return sum(self.latent_for(db) for db in databases) / len(databases)


@dataclass
class SimulationConfig:
    iterations: int = 100
    seed: int = 0
    databases: list[str] = field(default_factory=lambda: [f"db{i}" for i in range(1, 7)])
    evolve: bool = False
    evolve_delta: float = DEFAULT_EVOLVE_DELTA
    evolve_cap: float = DEFAULT_EVOLVE_CAP
    late_stage_start: int = scheduler.DEFAULT_LATE_STAGE_START

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if not self.databases:
            raise ConfigError("databases must be non-empty")
        if not 0.0 <= self.evolve_cap <= 1.0:
            raise ConfigError(f"evolve_cap outside [0, 1]: {self.evolve_cap}")
        if not self.evolve_delta >= 0.0:
            raise ConfigError(f"evolve_delta must be >= 0: {self.evolve_delta}")


@dataclass
class SimulationResult:
    """settled_ratings holds, per iteration, each competitor's rating after
    the iteration settled; no other rating moves in an iteration."""

    final_ratings: dict[str, float]
    settled_ratings: list[dict[str, float]]
    accuracies: list[dict[str, Fraction]]
    kendall_tau: float
    latent_strengths: dict[str, float]

    def replay_trajectories(self) -> Iterator[dict[str, float]]:
        """Every registered agent's rating after each iteration, in
        iteration order, one new dict per iteration."""
        ratings: dict[str, float] = {}
        for settled in self.settled_ratings:
            ratings.update(settled)
            yield dict(ratings)


def _tied_pairs(values) -> int:
    return sum(count * (count - 1) // 2 for count in Counter(values).values())


def kendall_tau(xs: list[float], ys: list[float]) -> float:
    """Tau-a rank correlation over paired observations.

    Counts by sorting (after Knight, 1966): with the pairs ordered by
    (x, y), every later pair with a smaller y is discordant, and the
    concordant count follows from the pairs tied in x, in y and in both.
    Raises ValueError for a NaN or an infinity, which has no rank.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two paired sequences of length >= 2")
    for value in (*xs, *ys):
        if value != value or value in (math.inf, -math.inf):
            raise ValueError(f"kendall_tau needs finite values, got {value!r}")
    seen: list[float] = []
    discordant = 0
    for _, y in sorted(zip(xs, ys)):
        discordant += len(seen) - bisect.bisect_right(seen, y)
        bisect.insort(seen, y)
    pairs = len(xs) * (len(xs) - 1) // 2
    untied = pairs - _tied_pairs(xs) - _tied_pairs(ys) + _tied_pairs(zip(xs, ys))
    return (untied - 2 * discordant) / pairs


def simulate(population: list[SyntheticAgent], config: SimulationConfig) -> SimulationResult:
    """Run the evolution cycle with synthetic outcomes.

    Iteration 1 fields the whole initial population in id order. With
    config.evolve false every later iteration is a none-mode roster,
    keeping the population fixed; with it true, an evolve-mode iteration
    adds a synthetic agent whose latent per database is the best among the
    previous iteration's competitors plus evolve_delta, capped at
    evolve_cap. Databases are sampled as the run loop samples them.
    """
    if len(population) < 2:
        raise ConfigError("population must have at least 2 agents")

    registry = AgentRegistry()
    agents = {}
    for agent in population:
        registry.register_record(agent.agent_id)
        agents[agent.agent_id] = agent

    # The previous iteration's roster, the parents evolution.build_context
    # gives: evolve runs inside roster_for_iteration, before it is replaced.
    roster: list[str] = []

    def evolve(iteration: int) -> str:
        parents = [agents[a] for a in roster]
        agent_id = f"iter{iteration}_evolved"
        agents[agent_id] = SyntheticAgent(agent_id, latents={
            db: min(config.evolve_cap,
                    max(p.latent_for(db) for p in parents) + config.evolve_delta)
            for db in config.databases
        })
        registry.register_record(agent_id)
        return agent_id

    settled_ratings: list[dict[str, float]] = []
    accuracy_history: list[dict[str, Fraction]] = []

    for iteration in range(1, config.iterations + 1):
        rng = scheduler.iteration_rng(config.seed, iteration)
        databases, _ = scheduler.sample_iteration_tasks(config.databases, {}, rng)
        _, roster, _ = scheduler.roster_for_iteration(
            iteration, registry, rng, evolve if config.evolve else None,
            config.late_stage_start,
        )

        accuracies: dict[str, Fraction] = {}
        draw = rng.random
        questions = range(scheduler.QUESTIONS_PER_DATABASE)
        for agent_id in roster:
            correct = 0
            for latent in map(agents[agent_id].latent_for, databases):
                for _ in questions:
                    if draw() < latent:
                        correct += 1
            accuracies[agent_id] = Fraction(correct, len(databases) * len(questions))
        scheduler.settle_iteration(registry, roster, accuracies)

        settled_ratings.append({a: registry.records[a].rating.value for a in roster})
        accuracy_history.append(accuracies)

    final_ratings = {a: r.rating.value for a, r in registry.records.items()}
    latent_strengths = {a: agents[a].mean_latent(config.databases) for a in final_ratings}
    ordered = sorted(final_ratings)
    tau = kendall_tau(
        [latent_strengths[a] for a in ordered], [final_ratings[a] for a in ordered]
    )
    return SimulationResult(
        final_ratings=final_ratings,
        settled_ratings=settled_ratings,
        accuracies=accuracy_history,
        kendall_tau=tau,
        latent_strengths=latent_strengths,
    )
