"""Tests for the synthetic-agent simulation harness."""

import pytest

from evosql.simulate import (
    SimulationConfig,
    SyntheticAgent,
    kendall_tau,
    simulate,
)
from tests.conftest import record_iteration_steps, steps_per_iteration


def global_population(latents):
    return [
        SyntheticAgent(f"agent_{i + 1}", global_accuracy=p) for i, p in enumerate(latents)
    ]


def cyclic_population():
    """Three agents whose dominance rotates across three flavor databases;
    neutral databases tie everywhere. Sampling five of the six databases
    drops one: dropping a neutral leaves all three flavors (exact three-way
    tie), dropping a flavor yields that agent's cyclic loss."""
    agents = []
    for index, name in enumerate(("A", "B", "C"), start=1):
        latents = {f"f{i}": (1.0 if i == index else 0.0) for i in (1, 2, 3)}
        latents.update({f"n{i}": 1.0 for i in (1, 2, 3)})
        agents.append(SyntheticAgent(name, latents=latents))
    return agents


CYCLIC_DBS = ["f1", "f2", "f3", "n1", "n2", "n3"]


def test_synthetic_agent_validation():
    with pytest.raises(ValueError):
        SyntheticAgent("bad", global_accuracy=1.5)
    with pytest.raises(ValueError):
        SyntheticAgent("bad", latents={"db": -0.1})
    agent = SyntheticAgent("ok", latents={"db1": 0.4}, global_accuracy=0.7)
    assert agent.latent_for("db1") == 0.4
    assert agent.latent_for("db2") == 0.7


def test_population_must_have_two_agents():
    with pytest.raises(ValueError):
        simulate(global_population([0.5]), SimulationConfig(iterations=5))


def test_simulation_deterministic():
    population = global_population([0.55, 0.5])
    first = simulate(population, SimulationConfig(iterations=30, seed=3))
    second = simulate(population, SimulationConfig(iterations=30, seed=3))
    assert first.final_ratings == second.final_ratings
    assert first.trajectories == second.trajectories
    assert first.accuracies == second.accuracies
    third = simulate(population, SimulationConfig(iterations=30, seed=4))
    assert third.accuracies != first.accuracies


def test_two_agent_sanity_battery():
    # Latents 0.9 vs 0.1: the strong agent ends higher in every seed.
    for seed in range(50):
        result = simulate(
            global_population([0.9, 0.1]), SimulationConfig(iterations=50, seed=seed)
        )
        assert result.final_ratings["agent_1"] > result.final_ratings["agent_2"], seed


def test_zero_sum_holds_in_simulation():
    result = simulate(global_population([0.8, 0.6, 0.4]), SimulationConfig(iterations=100, seed=1))
    assert sum(result.final_ratings.values()) == pytest.approx(3 * 1500, abs=1e-9)


def test_equal_latents_mean_gap_near_zero():
    gaps = []
    for seed in range(30):
        result = simulate(
            global_population([0.5, 0.5]), SimulationConfig(iterations=100, seed=seed)
        )
        gaps.append(result.final_ratings["agent_1"] - result.final_ratings["agent_2"])
    mean_gap = sum(gaps) / len(gaps)
    spread = (sum(g * g for g in gaps) / len(gaps)) ** 0.5
    # Mean indistinguishable from zero: within 2 standard errors.
    assert abs(mean_gap) <= 2 * spread / (len(gaps) ** 0.5) + 1e-9


def test_convergence_to_latent_order():
    matches = 0
    for seed in range(20):
        result = simulate(
            global_population([0.8, 0.6, 0.4]),
            SimulationConfig(iterations=200, seed=seed),
        )
        by_rating = sorted(result.final_ratings, key=result.final_ratings.get, reverse=True)
        matches += by_rating == ["agent_1", "agent_2", "agent_3"]
    assert matches >= 19  # >= 95% of seeds


def test_non_transitive_band_is_bounded():
    for seed in range(5):
        config = SimulationConfig(
            iterations=500, seed=seed, databases=list(CYCLIC_DBS), databases_per_iteration=5
        )
        result = simulate(cyclic_population(), config)
        spreads = [max(t.values()) - min(t.values()) for t in result.trajectories]
        # Band check over the trailing window, plus stationarity: the late
        # mean spread must not exceed the mid-run mean (no divergence).
        assert max(spreads[-100:]) < 200, seed
        mid = sum(spreads[100:300]) / 200
        late = sum(spreads[300:500]) / 200
        assert late <= mid + 25, seed


def test_non_transitive_cyclic_dominance_is_real():
    # Sanity on the construction itself: each flavor database orders the
    # agents cyclically.
    agents = {a.agent_id: a for a in cyclic_population()}
    assert agents["A"].latent_for("f1") > agents["B"].latent_for("f1")
    assert agents["B"].latent_for("f2") > agents["C"].latent_for("f2")
    assert agents["C"].latent_for("f3") > agents["A"].latent_for("f3")


def test_evolution_adds_capped_agents():
    config = SimulationConfig(
        iterations=12, seed=2, evolve=True, evolve_delta=0.1, evolve_cap=0.9
    )
    result = simulate(global_population([0.85, 0.5]), config)
    evolved = [a for a in result.final_ratings if a.startswith("iter")]
    assert evolved  # iterations 2..12 are all evolve mode
    assert all(0 <= result.latent_strengths[a] <= 0.9 for a in evolved)
    # New agents enter at 1500 and the population grew by one per evolution.
    assert len(result.final_ratings) == 2 + len(evolved)


def test_each_iteration_runs_the_shared_roster_and_settle_steps(monkeypatch):
    calls = record_iteration_steps(monkeypatch)
    config = SimulationConfig(iterations=8, seed=2, evolve=True, late_stage_start=4)
    simulate(global_population([0.7, 0.3]), config)
    assert calls == steps_per_iteration(8)


def test_evolution_disabled_keeps_population_fixed():
    result = simulate(global_population([0.7, 0.3]), SimulationConfig(iterations=20, seed=0))
    assert set(result.final_ratings) == {"agent_1", "agent_2"}


def test_accuracies_are_exact_fractions():
    from fractions import Fraction

    result = simulate(global_population([0.7, 0.3]), SimulationConfig(iterations=3, seed=0))
    for per_iteration in result.accuracies:
        for value in per_iteration.values():
            assert isinstance(value, Fraction)
            assert 0 <= value <= 1


def test_kendall_tau():
    assert kendall_tau([1, 2, 3], [10, 20, 30]) == 1.0
    assert kendall_tau([1, 2, 3], [30, 20, 10]) == -1.0
    assert abs(kendall_tau([1, 2, 3, 4], [1, 2, 4, 3])) < 1.0
    with pytest.raises(ValueError):
        kendall_tau([1], [2])


def test_kendall_tau_of_convergent_run_is_positive():
    result = simulate(
        global_population([0.8, 0.6, 0.4]), SimulationConfig(iterations=200, seed=0)
    )
    assert result.kendall_tau == 1.0
