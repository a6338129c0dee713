"""End-to-end orchestrator tests: run shape, determinism, resume, reports."""

import json
import time

import pytest

import evosql.harness as harness_module
import evosql.orchestrator as orchestrator_module
from evosql.backends import (
    OracleGenerationBackend,
    ScriptedEvolutionBackend,
    render_evolution_request,
)
from evosql.errors import InvalidStateError
from evosql.orchestrator import (
    RunConfig,
    RunState,
    leaderboard,
    load_state,
    resume,
    run,
    token_totals,
)
from evosql.pipeline import CORRECT_SENTINEL, extract_question
from evosql.registry import write_package
from evosql.scheduler import load_question_pool
from tests.conftest import make_evolution_response, record_iteration_steps, steps_per_iteration


def evolution_fixtures(upto: int, refine: bool = True):
    """One propose (and optionally one Deep Focus refine) per iteration."""
    fixtures = {}
    for iteration in range(2, upto + 1):
        responses = [make_evolution_response(f"gen{iteration}")]
        if refine:
            responses.append(make_evolution_response(f"gen{iteration}"))
        fixtures[iteration] = responses
    return fixtures


def base_config(data_root, output_dir, **overrides) -> RunConfig:
    settings = dict(
        data_root=data_root,
        output_dir=output_dir,
        iterations=4,
        run_seed=9,
        gen_backend="oracle",
        workers=2,
        deep_focus_k=1,
    )
    settings.update(overrides)
    return RunConfig(**settings)


class MarkerBackend:
    """Answers gold SQL only when the analysis carries the evolved marker;
    otherwise flubs a fixed question subset. Accepts on verification."""

    def __init__(self, question_pool, flubbed):
        self.gold = {
            item.question: item.gold_sql
            for items in question_pool.values()
            for item in items
        }
        self.flubbed = set(flubbed)

    def complete(self, system_text, conversation, temperature):
        if any(m["role"] == "assistant" for m in conversation):
            return CORRECT_SENTINEL
        question = extract_question(system_text)
        if question in self.flubbed and "-- gen" not in system_text:
            return "SELECT 'wrong answer'"
        return self.gold[question]


def test_run_shape_invariants(data_root, tmp_path):
    config = base_config(data_root, tmp_path / "out")
    state = run(config, evo_backend=ScriptedEvolutionBackend(evolution_fixtures(4)))
    assert len(state.iterations) == 4

    first = state.iterations[0]
    assert first.mode == "none"
    assert first.competitors == ["naive"]
    assert first.match_records == []  # single competitor, no pairs
    assert first.new_agent is None

    population = 1
    for record in state.iterations:
        if record.mode == "evolve":
            assert record.new_agent is not None
            assert record.new_agent in record.competitors
            population += 1
        else:
            assert record.new_agent is None
        roster = len(record.competitors)
        assert len(record.match_records) == roster * (roster - 1) // 2
        assert set(record.winners) <= set(record.competitors)
        assert set(record.databases) == {"films", "school", "shop"}  # whole toy pool
    assert len(state.registry_snapshot) == population


def test_run_produces_iteration_artifacts(data_root, tmp_path):
    config = base_config(data_root, tmp_path / "out", iterations=2)
    run(config, evo_backend=ScriptedEvolutionBackend(evolution_fixtures(2)))
    iter_dir = tmp_path / "out" / "iter_2"
    assert (iter_dir / "plan.json").is_file()
    assert (iter_dir / "outcomes.json").is_file()
    assert (iter_dir / "transcripts.json").is_file()
    assert (iter_dir / "error_analysis_report.md").is_file()
    assert (iter_dir / "reasoning.md").is_file()
    assert (iter_dir / "iter2_gen2" / "agent.md").is_file()
    plan = json.loads((iter_dir / "plan.json").read_text())
    assert plan["iteration"] == 2 and plan["mode"] == "evolve"


def test_oracle_backend_perfect_accuracy(data_root, tmp_path):
    config = base_config(data_root, tmp_path / "out", iterations=2)
    state = run(config, evo_backend=ScriptedEvolutionBackend(evolution_fixtures(2)))
    for record in state.iterations:
        for agent, (matches, total) in record.accuracies.items():
            assert matches == total, (record.iteration, agent)


def test_run_is_byte_deterministic(data_root, tmp_path):
    state_bytes = []
    for name in ("a", "b"):
        config = base_config(data_root, tmp_path / name)
        run(config, evo_backend=ScriptedEvolutionBackend(evolution_fixtures(4)))
        state_bytes.append((tmp_path / name / "run_state.json").read_bytes())
    assert state_bytes[0] == state_bytes[1]
    for i in range(1, 5):
        report_a = (tmp_path / "a" / f"iter_{i}" / "error_analysis_report.md").read_bytes()
        report_b = (tmp_path / "b" / f"iter_{i}" / "error_analysis_report.md").read_bytes()
        assert report_a == report_b


def test_resume_matches_uninterrupted_run(data_root, tmp_path):
    full = base_config(data_root, tmp_path / "full")
    run(full, evo_backend=ScriptedEvolutionBackend(evolution_fixtures(4)))

    halted = base_config(data_root, tmp_path / "halted", iterations=2)
    run(halted, evo_backend=ScriptedEvolutionBackend(evolution_fixtures(4)))
    resumed = base_config(data_root, tmp_path / "halted", iterations=4)
    resume(resumed, evo_backend=ScriptedEvolutionBackend(evolution_fixtures(4)))

    assert (tmp_path / "halted" / "run_state.json").read_bytes() == (
        tmp_path / "full" / "run_state.json"
    ).read_bytes()


class RecordingEvolutionBackend(ScriptedEvolutionBackend):
    """Scripted evolution that keeps each iteration's rendered request and
    the feedback of each of its refine calls."""

    def __init__(self, fixtures):
        super().__init__(fixtures)
        self.requests = {}
        self.refinements = {}

    def propose(self, context):
        self.iteration = context.iteration
        self.requests[context.iteration] = render_evolution_request(context)
        return super().propose(context)

    def refine(self, feedback):
        self.refinements.setdefault(self.iteration, []).append(feedback)
        return super().refine(feedback)


def test_resume_shows_evolution_the_same_request(data_root, tmp_path):
    def fixtures():
        # Iteration 3's first draft has no name, so it is re-requested.
        scripted = evolution_fixtures(4)
        scripted[3].insert(0, make_evolution_response("gen3").replace("name: gen3\n", ""))
        return scripted

    full_backend = RecordingEvolutionBackend(fixtures())
    run(base_config(data_root, tmp_path / "full"), evo_backend=full_backend)

    run(base_config(data_root, tmp_path / "halted", iterations=2),
        evo_backend=ScriptedEvolutionBackend(fixtures()))
    resumed_backend = RecordingEvolutionBackend(fixtures())
    resume(base_config(data_root, tmp_path / "halted"), evo_backend=resumed_backend)

    # The first evolve after the resume sees the latest error analysis, as
    # the uninterrupted run's does.
    assert 3 in resumed_backend.requests
    assert "## Latest Error Analysis" in resumed_backend.requests[3]
    assert resumed_backend.requests == {
        k: v for k, v in full_backend.requests.items() if k > 2
    }
    # The re-request and the Deep Focus feedback are the same text too.
    assert "- agent.md: manifest has no name" in resumed_backend.refinements[3][0]
    assert resumed_backend.refinements == {
        k: v for k, v in full_backend.refinements.items() if k > 2
    }


def test_resume_requires_existing_state(data_root, tmp_path):
    with pytest.raises(InvalidStateError):
        resume(base_config(data_root, tmp_path / "fresh"))


def test_resume_with_another_seed_is_refused(data_root, tmp_path):
    # Sampling follows the seed, so a resume under another seed would
    # continue a trajectory no uninterrupted run takes.
    run(base_config(data_root, tmp_path / "halted", iterations=2, run_seed=3))
    state_file = tmp_path / "halted" / "run_state.json"
    halted = state_file.read_bytes()
    with pytest.raises(InvalidStateError, match="seed 3, not 0"):
        resume(base_config(data_root, tmp_path / "halted", run_seed=0))
    assert state_file.read_bytes() == halted


def test_evolution_failure_degrades_to_none_mode(data_root, tmp_path):
    # No fixtures at all: every evolve draw degrades, the run still finishes.
    config = base_config(data_root, tmp_path / "out", iterations=3)
    state = run(config, evo_backend=ScriptedEvolutionBackend({}))
    assert len(state.iterations) == 3
    assert all(record.mode == "none" for record in state.iterations)
    assert len(state.registry_snapshot) == 1  # nothing registered


def test_marker_backend_moves_ratings(data_root, tmp_path):
    _, question_pool = load_question_pool(data_root)
    flubbed = [items[0].question for items in question_pool.values()]
    backend = MarkerBackend(question_pool, flubbed)
    config = base_config(data_root, tmp_path / "out", iterations=3)
    state = run(
        config,
        gen_backend=backend,
        evo_backend=ScriptedEvolutionBackend(evolution_fixtures(3)),
    )
    # Evolved agents answer the flubbed questions; naive does not.
    final = state.registry_snapshot
    assert final["iter2_gen2"]["rating_value"] > final["naive"]["rating_value"]
    last = state.iterations[-1]
    assert last.accuracies["naive"][0] < last.accuracies["naive"][1]
    report = (tmp_path / "out" / last.report_path).read_text()
    assert "wrong_result" in report


def test_oversized_analysis_blocks_evaluation(data_root, tmp_path):
    # A token budget smaller than any analysis blocks every (agent, db)
    # pair; those questions count as incorrect rather than crashing the run.
    config = base_config(data_root, tmp_path / "out", iterations=1, token_budget=1)
    state = run(config)
    record = state.iterations[0]
    assert record.accuracies["naive"][0] == 0
    assert all("token budget" in note for note in record.tool_fallbacks["naive"].values())


def test_oversized_tool_output_blocks_evaluation(data_root, tmp_path):
    # A tool that writes far more than the budget: the read stops one byte
    # past it and the (agent, db) pairs are evaluation-blocked.
    flood = write_package(
        tmp_path / "flood",
        name="flood",
        tool_command="python tools/flood.py",
        tool_output_file="tool_output/out.txt",
        instructions="Answer with SQL.\n",
        tools={"flood.py": "open('tool_output/out.txt', 'w').write('x' * 8_000_000)\n"},
    )
    config = base_config(data_root, tmp_path / "out", iterations=1, token_budget=1_000,
                         initial_agents=[flood])
    record = run(config).iterations[0]
    assert record.accuracies["flood"][0] == 0
    notes = record.tool_fallbacks["flood"]
    assert notes and all(note == "analysis over token budget (1001)" for note in notes.values())


class TaggedOracleBackend(OracleGenerationBackend):
    """The oracle with a comment in front of its SQL, so predictions never
    share gold's SQL text."""

    def complete(self, system_text, conversation, temperature):
        reply = super().complete(system_text, conversation, temperature)
        return reply if reply == CORRECT_SENTINEL else "-- predicted\n" + reply


def record_gold_runs(monkeypatch, question_pool) -> list[str]:
    """Patch execute_sql to record every gold query it runs."""
    gold_texts = {item.gold_sql for items in question_pool.values() for item in items}
    gold_runs = []
    real_execute = harness_module.execute_sql

    def recording_execute(db_path, sql, timeout=30.0):
        if sql in gold_texts:
            gold_runs.append(sql)
        return real_execute(db_path, sql, timeout)

    monkeypatch.setattr(harness_module, "execute_sql", recording_execute)
    return gold_runs


def distinct_gold(records) -> list[str]:
    """The gold SQL of each distinct question the records sampled, sorted."""
    return sorted({
        (db, item.question_id): item.gold_sql for record in records
        for db, items in record.questions.items() for item in items
    }.values())


def test_deep_focus_reuses_iteration_gold(data_root, tmp_path, monkeypatch):
    _, question_pool = load_question_pool(data_root)
    gold_runs = record_gold_runs(monkeypatch, question_pool)
    evaluated = []
    real_evaluate = orchestrator_module.evaluate_agent

    def recording_evaluate(packages, questions, *args, **kwargs):
        evaluated.append((id(questions), tuple(pkg.id for pkg in packages)))
        return real_evaluate(packages, questions, *args, **kwargs)

    monkeypatch.setattr(orchestrator_module, "evaluate_agent", recording_evaluate)
    state = run(
        base_config(data_root, tmp_path / "out", iterations=2),
        gen_backend=TaggedOracleBackend.from_question_pool(question_pool),
        evo_backend=ScriptedEvolutionBackend(evolution_fixtures(2)),
    )
    second = state.iterations[1]
    assert second.mode == "evolve"
    # Each iteration's record holds the very questions it was scored on.
    iteration_of = {id(record.questions): record.iteration for record in state.iterations}
    evaluated = [(iteration_of[key], agents) for key, agents in evaluated]
    # One evaluation per iteration, all competitors at once, and Deep Focus
    # scored the new agent on iteration 1's questions...
    assert evaluated == [(1, ("naive",)), (1, (second.new_agent,)),
                         (2, tuple(second.competitors))]
    # ...yet every gold query ran once and never again.
    assert sorted(gold_runs) == distinct_gold(state.iterations)


def test_each_iteration_runs_the_shared_roster_and_settle_steps(data_root, tmp_path,
                                                                monkeypatch):
    calls = record_iteration_steps(monkeypatch)
    run(base_config(data_root, tmp_path / "out", iterations=3),
        evo_backend=ScriptedEvolutionBackend(evolution_fixtures(3)))
    assert calls == steps_per_iteration(3)


def test_gold_runs_once_per_question_and_again_after_resume(data_root, tmp_path, monkeypatch):
    _, question_pool = load_question_pool(data_root)
    gold_runs = record_gold_runs(monkeypatch, question_pool)
    backend = TaggedOracleBackend.from_question_pool(question_pool)
    state = run(base_config(data_root, tmp_path / "full", iterations=3), gen_backend=backend,
                evo_backend=ScriptedEvolutionBackend(evolution_fixtures(3)))
    # Every iteration samples the whole toy pool, so the same questions
    # come back each time; their gold runs once in the run.
    first, *later = [distinct_gold([record]) for record in state.iterations]
    assert all(sampled == first for sampled in later)
    assert sorted(gold_runs) == distinct_gold(state.iterations)

    run(base_config(data_root, tmp_path / "halted", iterations=2), gen_backend=backend,
        evo_backend=ScriptedEvolutionBackend(evolution_fixtures(3)))
    gold_runs.clear()
    resumed = resume(base_config(data_root, tmp_path / "halted", iterations=3),
                     gen_backend=backend,
                     evo_backend=ScriptedEvolutionBackend(evolution_fixtures(3)))
    # A resumed run holds no gold, so it runs gold again: once, for Deep
    # Focus's replay of iteration 2, and iteration 3 copies it.
    assert resumed.iterations[2].mode == "evolve"
    assert sorted(gold_runs) == distinct_gold(resumed.iterations[2:])
    assert (tmp_path / "halted" / "run_state.json").read_bytes() == (
        tmp_path / "full" / "run_state.json"
    ).read_bytes()


def test_config_file_with_unknown_keys_is_rejected(data_root, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "data_root": str(data_root),
        "output_dir": str(tmp_path / "out"),
        "price_request_per_1k": 0.5,
        "workerz": 2,
    }))
    with pytest.raises(ValueError) as err:
        RunConfig.from_file(config_path)
    message = str(err.value)
    assert str(config_path) in message
    assert "price_request_per_1k" in message and "workerz" in message


class WaitingOracle(OracleGenerationBackend):
    """The oracle answering like a remote backend: after a wait that varies
    by prompt, so questions overlap and finish out of order."""

    in_process = False

    def complete(self, system_text, conversation, temperature):
        time.sleep(0.001 * (len(system_text) % 3))
        return super().complete(system_text, conversation, temperature)


def test_workers_do_not_change_outputs(data_root, tmp_path):
    _, question_pool = load_question_pool(data_root)
    settings = [(1, 1), (4, 8), (2, 3)]  # (workers, backend_concurrency)
    for workers, concurrency in settings:
        run(base_config(data_root, tmp_path / f"w{workers}c{concurrency}", workers=workers,
                        backend_concurrency=concurrency),
            gen_backend=WaitingOracle.from_question_pool(question_pool),
            evo_backend=ScriptedEvolutionBackend(evolution_fixtures(4)))
    names = ["run_state.json"] + [
        f"iter_{k}/{artifact}" for k in range(1, 5)
        for artifact in ("outcomes.json", "transcripts.json", "error_analysis_report.md")
    ]
    for name in names:
        first, *others = [(tmp_path / f"w{w}c{c}" / name).read_bytes() for w, c in settings]
        assert all(other == first for other in others), name


def test_state_round_trip_and_schema_check(data_root, tmp_path):
    config = base_config(data_root, tmp_path / "out", iterations=2)
    state = run(config, evo_backend=ScriptedEvolutionBackend(evolution_fixtures(2)))
    reloaded = load_state(tmp_path / "out")
    assert reloaded == state

    data = json.loads((tmp_path / "out" / "run_state.json").read_text())
    data["schema_version"] = 99
    with pytest.raises(InvalidStateError):
        RunState.from_dict(data)


def test_leaderboard_regenerates_identically(data_root, tmp_path):
    config = base_config(data_root, tmp_path / "out", iterations=2)
    state = run(config, evo_backend=ScriptedEvolutionBackend(evolution_fixtures(2)))
    board = leaderboard(state)
    assert board == leaderboard(load_state(tmp_path / "out"))
    assert "naive" in board and "iter2_gen2" in board


def test_elo_trajectory_replays_from_state(data_root, tmp_path):
    # Recomputing the pairwise updates from persisted accuracies reproduces
    # the persisted rating trajectory exactly.
    from evosql.elo import EloEngine

    _, question_pool = load_question_pool(data_root)
    flubbed = [items[0].question for items in question_pool.values()]
    config = base_config(data_root, tmp_path / "out", iterations=4)
    state = run(
        config,
        gen_backend=MarkerBackend(question_pool, flubbed),
        evo_backend=ScriptedEvolutionBackend(evolution_fixtures(4)),
    )
    engine = EloEngine()
    from fractions import Fraction

    for record in state.iterations:
        for agent in record.competitors:
            if agent not in engine.ratings:
                engine.register(agent)
        results = [
            (agent, Fraction(*record.accuracies[agent])) for agent in record.competitors
        ]
        replayed = engine.decompose_and_update(record.iteration, results)
        assert replayed == record.match_records
    for agent_id, entry in state.registry_snapshot.items():
        assert engine.ratings[agent_id].value == entry["rating_value"]


def test_token_accounting_matches_transcripts(data_root, tmp_path):
    config = base_config(data_root, tmp_path / "out", iterations=2)
    state = run(config, evo_backend=ScriptedEvolutionBackend(evolution_fixtures(2)))
    accounting = token_totals(state)

    hand_request = hand_response = 0
    for iteration in (1, 2):
        transcripts = json.loads(
            (tmp_path / "out" / f"iter_{iteration}" / "transcripts.json").read_text()
        )
        for agent_transcripts in transcripts.values():
            for t in agent_transcripts:
                hand_request += t["request_tokens"]
                hand_response += t["response_tokens"]
    assert accounting["total"]["request"] == hand_request
    assert accounting["total"]["response"] == hand_response


def test_initial_agents_copied_into_output(data_root, tmp_path, naive_package_dir):
    config = base_config(
        data_root, tmp_path / "out", iterations=1, initial_agents=[naive_package_dir]
    )
    state = run(config)
    assert (tmp_path / "out" / "agents" / "naive" / "agent.md").is_file()
    assert state.registry_snapshot["naive"]["package_dir"] == "agents/naive"


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(data_root=".", output_dir=".", iterations=0)
    with pytest.raises(ValueError):
        RunConfig(data_root=".", output_dir=".", late_stage_start=1)
    with pytest.raises(ValueError):
        RunConfig(data_root=".", output_dir=".", workers=0)
    with pytest.raises(ValueError, match="backend_concurrency"):
        RunConfig(data_root=".", output_dir=".", backend_concurrency=0)


def test_config_from_file(tmp_path, data_root):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "data_root": str(data_root),
        "output_dir": str(tmp_path / "out"),
        "iterations": 3,
        "run_seed": 5,
    }))
    config = RunConfig.from_file(cfg_path, iterations=7)
    assert config.iterations == 7  # override wins
    assert config.run_seed == 5
