"""Tests for the synthetic-agent simulation harness."""

import hashlib
import json
import math
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from evosql import scheduler
from evosql.cli import main
from evosql.errors import ConfigError
from evosql.registry import AgentRegistry
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


@pytest.mark.parametrize("make", [
    lambda: SyntheticAgent("bad", global_accuracy=float("nan")),
    lambda: SyntheticAgent("bad", latents={"db": 1.5}),
    lambda: SimulationConfig(iterations=0),
    lambda: SimulationConfig(databases=[]),
    lambda: SimulationConfig(evolve_cap=1.5),
    lambda: SimulationConfig(evolve_cap=-0.1),
    lambda: SimulationConfig(evolve_delta=-0.01),
    lambda: simulate(global_population([0.5]), SimulationConfig(iterations=5)),
], ids=["nan-accuracy", "latent-above-one", "no-iterations", "no-databases",
        "cap-above-one", "cap-below-zero", "negative-delta", "one-agent"])
def test_bad_simulation_input_is_a_config_error(make):
    with pytest.raises(ConfigError):
        make()


def test_simulation_deterministic():
    population = global_population([0.55, 0.5])
    first = simulate(population, SimulationConfig(iterations=30, seed=3))
    second = simulate(population, SimulationConfig(iterations=30, seed=3))
    assert first.final_ratings == second.final_ratings
    assert first.settled_ratings == second.settled_ratings
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
        config = SimulationConfig(iterations=500, seed=seed, databases=list(CYCLIC_DBS))
        result = simulate(cyclic_population(), config)
        spreads = [max(t.values()) - min(t.values()) for t in result.replay_trajectories()]
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


def test_replayed_trajectories_equal_the_registry_after_each_settle(monkeypatch):
    # The registry's every rating right after each settle step is the full
    # snapshot that simulate() once stored per iteration.
    snapshots, rosters = [], []

    def settle(registry, competitors, accuracies, _settle=scheduler.settle_iteration):
        _settle(registry, competitors, accuracies)
        snapshots.append({a: r.rating.value.hex() for a, r in registry.records.items()})
        rosters.append(len(competitors))

    monkeypatch.setattr(scheduler, "settle_iteration", settle)
    result = simulate(global_population([0.8, 0.6, 0.4]),
                      SimulationConfig(iterations=60, seed=7, evolve=True))
    assert len(result.final_ratings) == 44 > max(rosters)

    replayed = [{a: v.hex() for a, v in t.items()} for t in result.replay_trajectories()]
    assert replayed == snapshots
    assert [len(settled) for settled in result.settled_ratings] == rosters
    # A digest of the full snapshots as simulate() used to store them.
    digest = hashlib.sha256(json.dumps([sorted(t.items()) for t in replayed]).encode())
    assert digest.hexdigest() == (
        "c1d8307e2f83d1b0180be88ee93cdeb2372ee99a46ff4a29e25db78e6594a8f8")


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


def pairwise_kendall_tau(xs, ys):
    """Tau-a by comparing every pair: the oracle for the sort-based count."""
    def sign(a, b):
        return (a > b) - (a < b)

    total = sum(sign(x1, x2) * sign(y1, y2)
                for (x1, y1), (x2, y2) in combinations(zip(xs, ys), 2))
    return total / (len(xs) * (len(xs) - 1) / 2)


# Few distinct values, so ties in x, in y and in both are common.
_tied_ints = st.integers(-3, 3)
_tied_floats = st.sampled_from([-2.5, -0.0, 0.0, 1e-300, 0.1, 0.7, 1500.0, 1e300])
_paired = st.one_of(
    st.lists(st.tuples(_tied_ints, _tied_ints), min_size=2, max_size=60),
    st.lists(st.tuples(_tied_floats, _tied_floats), min_size=2, max_size=60),
    st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), _tied_floats),
             min_size=2, max_size=60),
)


@given(_paired)
def test_kendall_tau_equals_the_pairwise_count(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    assert kendall_tau(xs, ys) == pairwise_kendall_tau(xs, ys)
    assert kendall_tau(ys, xs) == pairwise_kendall_tau(ys, xs)


@pytest.mark.parametrize("bad", [float("nan"), math.inf, -math.inf])
def test_kendall_tau_refuses_a_value_without_a_rank(bad):
    for xs, ys in (([1.0, bad, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [bad, 2.0, 3.0])):
        with pytest.raises(ValueError, match=repr(bad)):
            kendall_tau(xs, ys)


def test_the_kept_ranking_equals_a_full_sort_through_a_long_evolving_run(monkeypatch):
    # Every ranking the scheduler asks for, and the whole ranking after each
    # settle step, equals a sort of every record by rank key at that moment.
    def ranked(registry):
        return sorted(registry.records, key=registry._rank_key)

    asked, grew = [], []
    top_by_elo = AgentRegistry.top_by_elo

    def checked_top_by_elo(registry, n, exclude=frozenset()):
        top = top_by_elo(registry, n, exclude)
        assert top == [a for a in ranked(registry) if a not in exclude][:n]
        asked.append(len(exclude))
        return top

    def settle(registry, competitors, accuracies, _settle=scheduler.settle_iteration):
        _settle(registry, competitors, accuracies)
        grew.append(len(registry))
        assert top_by_elo(registry, len(registry)) == ranked(registry)
        assert top_by_elo(registry, 3, set(competitors)) == [
            a for a in ranked(registry) if a not in competitors][:3]

    monkeypatch.setattr(AgentRegistry, "top_by_elo", checked_top_by_elo)
    monkeypatch.setattr(scheduler, "settle_iteration", settle)
    result = simulate(global_population([0.8, 0.6, 0.4]),
                      SimulationConfig(iterations=300, seed=3, evolve=True))
    # Agents joined after the first ranking, which also skipped seated ones.
    assert grew[0] == 3 and len(result.final_ratings) == grew[-1] > 200
    assert max(asked) > 0


def test_an_evolving_run_keeps_its_final_ratings():
    result = simulate(global_population([0.8, 0.6]),
                      SimulationConfig(iterations=1000, seed=1, evolve=True))
    assert len(result.final_ratings) == 706
    assert hashlib.sha256(repr(result.final_ratings).encode()).hexdigest() == (
        "431577773cbbe5c99fcfe6aee4611c69fad3bb82db392c7be2dd2a660f76251d")


def test_the_console_output_of_a_long_evolving_run_is_pinned(capsys):
    assert main(["simulate", "--latents", "0.8,0.6", "--iterations", "2000", "--evolve",
                 "--seed", "1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "cb5363598a9f1fe101fc9c311bd980d25393066e011307f9fb8ae861fd6a80ff")


def test_kendall_tau_of_convergent_run_is_positive():
    result = simulate(
        global_population([0.8, 0.6, 0.4]), SimulationConfig(iterations=200, seed=0)
    )
    assert result.kendall_tau == 1.0
