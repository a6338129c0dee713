"""Desk-scale simulation of the selection and rating dynamics.

Replaces generation and evolution with synthetic agents: each agent carries a
latent per-database correctness probability, and per-question outcomes are
independent Bernoulli draws. The real loop's roster and settle steps
(scheduler.roster_for_iteration and scheduler.settle_iteration) run
unchanged, which makes properties like convergence to latent strength and
bounded ratings under non-transitive matchups cheap to verify.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import scheduler
from .errors import InvalidStateError
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
                raise ValueError(f"latent for {db!r} outside [0, 1]: {p}")
        if self.global_accuracy is not None and not 0.0 <= self.global_accuracy <= 1.0:
            raise ValueError(f"global accuracy outside [0, 1]: {self.global_accuracy}")

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
    questions_per_database: int = scheduler.QUESTIONS_PER_DATABASE
    databases_per_iteration: int = scheduler.DATABASES_PER_ITERATION
    evolve: bool = False
    evolve_delta: float = DEFAULT_EVOLVE_DELTA
    evolve_cap: float = DEFAULT_EVOLVE_CAP
    late_stage_start: int = scheduler.DEFAULT_LATE_STAGE_START

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not self.databases:
            raise ValueError("databases must be non-empty")


@dataclass
class SimulationResult:
    final_ratings: dict[str, float]
    trajectories: list[dict[str, float]]
    accuracies: list[dict[str, Fraction]]
    kendall_tau: float
    latent_strengths: dict[str, float]


def kendall_tau(xs: list[float], ys: list[float]) -> float:
    """Tau-a rank correlation over paired observations."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two paired sequences of length >= 2")
    concordant = discordant = 0
    for (x1, y1), (x2, y2) in combinations(zip(xs, ys), 2):
        product = (x1 - x2) * (y1 - y2)
        if product > 0:
            concordant += 1
        elif product < 0:
            discordant += 1
    pairs = len(xs) * (len(xs) - 1) / 2
    return (concordant - discordant) / pairs


def simulate(population: list[SyntheticAgent], config: SimulationConfig) -> SimulationResult:
    """Run the evolution cycle with synthetic outcomes.

    Iteration 1 fields the whole initial population in id order. With
    config.evolve false every later iteration is a none-mode roster,
    keeping the population fixed; with it true, an evolve-mode iteration
    adds a synthetic agent whose latent per database is the best among the
    pending winners (or the top two by ELO) plus evolve_delta, capped at
    evolve_cap.
    """
    if len(population) < 2:
        raise ValueError("population must have at least 2 agents")

    registry = AgentRegistry()
    agents = {}
    for agent in population:
        registry.register_record(agent.agent_id)
        agents[agent.agent_id] = agent

    def evolve(iteration: int) -> str:
        parents = [agents[a] for a in registry.pending_winners() or registry.top_by_elo(2)]
        agent_id = f"iter{iteration}_evolved"
        agents[agent_id] = SyntheticAgent(agent_id, latents={
            db: min(config.evolve_cap,
                    max(p.latent_for(db) for p in parents) + config.evolve_delta)
            for db in config.databases
        })
        registry.register_record(agent_id)
        return agent_id

    trajectories: list[dict[str, float]] = []
    accuracy_history: list[dict[str, Fraction]] = []

    for iteration in range(1, config.iterations + 1):
        rng = scheduler.iteration_rng(config.seed, iteration)
        databases = rng.sample(
            config.databases, min(config.databases_per_iteration, len(config.databases))
        )
        _, competitors, _ = scheduler.roster_for_iteration(
            iteration, registry, rng, evolve if config.evolve else None,
            config.late_stage_start,
        )

        accuracies: dict[str, Fraction] = {}
        for agent_id in competitors:
            agent = agents[agent_id]
            correct = 0
            total = 0
            for db in databases:
                latent = agent.latent_for(db)
                for _ in range(config.questions_per_database):
                    total += 1
                    if rng.random() < latent:
                        correct += 1
            accuracies[agent_id] = Fraction(correct, total)
        scheduler.settle_iteration(iteration, registry, competitors, accuracies)

        trajectories.append({a: r.rating.value for a, r in registry.records.items()})
        accuracy_history.append(accuracies)

    final_ratings = {a: r.rating.value for a, r in registry.records.items()}
    latent_strengths = {a: agents[a].mean_latent(config.databases) for a in final_ratings}
    ordered = sorted(final_ratings)
    tau = kendall_tau(
        [latent_strengths[a] for a in ordered], [final_ratings[a] for a in ordered]
    )
    return SimulationResult(
        final_ratings=final_ratings,
        trajectories=trajectories,
        accuracies=accuracy_history,
        kendall_tau=tau,
        latent_strengths=latent_strengths,
    )
