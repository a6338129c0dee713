"""End-to-end orchestrator tests: run shape, determinism, resume, reports."""

import json
import re
import shutil
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import evosql.harness as harness_module
import evosql.orchestrator as orchestrator_module
from evosql.backends import (
    OracleGenerationBackend,
    ScriptedEvolutionBackend,
    render_evolution_request,
)
from evosql.errors import ConfigError, InvalidStateError
from evosql.orchestrator import (
    REPORT_FILENAME,
    IterationRecord,
    RunConfig,
    RunState,
    leaderboard,
    load_state,
    replay_registry,
    resume,
    run,
    token_totals,
)
from evosql.pipeline import CORRECT_SENTINEL, extract_question
from evosql.registry import AgentRegistry, write_package
from evosql.scheduler import load_question_pool, settle_iteration
from tests.conftest import (
    make_evolution_response,
    record_fields,
    record_iteration_steps,
    steps_per_iteration,
)


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
    assert first.new_agent is None

    population = 1
    for record in state.iterations:
        if record.mode == "evolve":
            assert record.new_agent is not None
            assert record.new_agent in record.competitors
            population += 1
        else:
            assert record.new_agent is None
        assert set(record.winners) <= set(record.competitors)
        assert set(record.databases) == {"films", "school", "shop"}  # whole toy pool
    assert len(state.registry) == population
    # Each iteration plays every pair of its roster once.
    for agent_id, agent in replay_registry(state).records.items():
        assert agent.rating.games == sum(len(r.competitors) - 1 for r in state.iterations
                                         if agent_id in r.competitors)


def test_run_produces_iteration_artifacts(data_root, tmp_path):
    config = base_config(data_root, tmp_path / "out", iterations=2)
    run(config, evo_backend=ScriptedEvolutionBackend(evolution_fixtures(2)))
    iter_dir = tmp_path / "out" / "iter_2"
    assert not (iter_dir / "plan.json").exists()  # the state holds the plan
    assert (iter_dir / "outcomes.json").is_file()
    assert (iter_dir / "transcripts.json").is_file()
    assert (iter_dir / "error_analysis_report.md").is_file()
    assert (iter_dir / "reasoning.md").is_file()
    assert (iter_dir / "iter2_gen2" / "agent.md").is_file()


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


@pytest.mark.parametrize("damage", ["empty", "missing"])
def test_resume_over_a_missing_or_empty_last_report_is_refused(data_root, tmp_path, damage):
    # Evolution may be shown the last report; an empty one is a request no
    # uninterrupted run sends, and a missing one would end the iteration.
    run(base_config(data_root, tmp_path / "halted", iterations=2))
    report = tmp_path / "halted" / "iter_2" / "error_analysis_report.md"
    if damage == "empty":
        report.write_text("")
    else:
        report.unlink()
    state_file = tmp_path / "halted" / "run_state.json"
    halted = state_file.read_bytes()
    with pytest.raises(InvalidStateError, match=f"^cannot resume: {re.escape(str(report))} is "
                                                "missing or empty$"):
        resume(base_config(data_root, tmp_path / "halted", iterations=3))
    assert state_file.read_bytes() == halted


def test_evolution_failure_degrades_to_none_mode(data_root, tmp_path):
    # No fixtures at all: every evolve draw degrades, the run still finishes.
    config = base_config(data_root, tmp_path / "out", iterations=3)
    state = run(config, evo_backend=ScriptedEvolutionBackend({}))
    assert len(state.iterations) == 3
    assert all(record.mode == "none" for record in state.iterations)
    assert len(state.registry) == 1  # nothing registered


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
    final = replay_registry(state)
    assert final.get("iter2_gen2").rating.value > final.get("naive").rating.value
    last = state.iterations[-1]
    assert last.accuracies["naive"][0] < last.accuracies["naive"][1]
    report = (tmp_path / "out" / f"iter_{last.iteration}" / REPORT_FILENAME).read_text()
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


def test_tool_fallbacks_are_read_from_each_evaluations_tool_runs(data_root, tmp_path,
                                                                naive_package_dir, monkeypatch):
    # The picky tool fails on school, so its naive fallback is used, floods
    # its output past the budget on films, so that pair is blocked, and
    # writes the schema on shop.
    picky = write_package(
        tmp_path / "picky",
        name="picky",
        tool_command="python tools/picky.py",
        tool_output_file="tool_output/out.txt",
        instructions="Answer with SQL.\n",
        tools={"picky.py": (
            "import sqlite3, sys\n"
            "conn = sqlite3.connect('database.sqlite')\n"
            "names = {r[0] for r in conn.execute('SELECT name FROM sqlite_master')}\n"
            "if 'students' in names:\n"
            "    sys.exit('picky refuses school')\n"
            "with open('tool_output/out.txt', 'w') as f:\n"
            "    f.write('x' * 8_000_000 if 'films' in names else 'schema')\n"
        )},
    )
    evaluations, tool_runs = [], []
    real_evaluate = orchestrator_module.evaluate_agent
    real_tool = orchestrator_module.run_agent_tool

    def recording_evaluate(*args, **kwargs):
        evaluations.append(real_evaluate(*args, **kwargs))
        return evaluations[-1]

    def recording_tool(*args, **kwargs):
        tool_runs.append(real_tool(*args, **kwargs))
        return tool_runs[-1]

    monkeypatch.setattr(orchestrator_module, "evaluate_agent", recording_evaluate)
    monkeypatch.setattr(orchestrator_module, "run_agent_tool", recording_tool)
    config = base_config(data_root, tmp_path / "out", iterations=1, token_budget=1_000,
                         databases_per_iteration=3, initial_agents=[picky, naive_package_dir])
    run(config)
    (by_agent,) = evaluations
    # One run per (agent, database), each the very run the tool made.
    assert sorted(by_agent) == ["naive", "picky"]
    assert all(set(ev.tools) == {"school", "shop", "films"} for ev in by_agent.values())
    held = [tool for ev in by_agent.values() for tool in ev.tools.values()]
    assert sorted(map(id, held)) == sorted(map(id, tool_runs))
    picky_tools = by_agent["picky"].tools
    assert picky_tools["school"].fallback and picky_tools["school"].text
    assert picky_tools["films"].text is None
    state = json.loads((tmp_path / "out" / "run_state.json").read_text())
    fallbacks = state["iterations"][0]["tool_fallbacks"]
    assert fallbacks == {
        agent: {db: tool.reason for db, tool in ev.tools.items() if tool.reason is not None}
        for agent, ev in by_agent.items()
    }
    assert fallbacks["naive"] == {} and sorted(fallbacks["picky"]) == ["films", "school"]
    assert "picky refuses school" in fallbacks["picky"]["school"]
    assert fallbacks["picky"]["films"] == "analysis over token budget (1001)"


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
    # Iteration 1 evaluates its roster at once. Iteration 2 evaluates its
    # incumbents beside the new agent, whom Deep Focus scores on iteration
    # 1's questions before iteration 2's...
    new = (second.new_agent,)
    incumbents = tuple(agent for agent in second.competitors if agent != second.new_agent)
    assert evaluated[0] == (1, ("naive",))
    assert sorted(evaluated[1:]) == sorted([(2, incumbents), (1, new), (2, new)])
    assert [entry for entry in evaluated if entry[1] == new] == [(1, new), (2, new)]
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
    # The whole pool each iteration; then two of its three databases, with
    # Deep Focus replaying two iterations, so its databases differ from the
    # iteration's.
    shapes = {"whole": {}, "replays": dict(deep_focus_k=2, databases_per_iteration=2)}
    names = ["run_state.json"] + [
        f"iter_{k}/{artifact}" for k in range(1, 5)
        for artifact in ("outcomes.json", "transcripts.json", "error_analysis_report.md")
    ]
    for shape, overrides in shapes.items():
        for workers, concurrency in settings:
            run(base_config(data_root, tmp_path / shape / f"w{workers}c{concurrency}",
                            workers=workers, backend_concurrency=concurrency, **overrides),
                gen_backend=WaitingOracle.from_question_pool(question_pool),
                evo_backend=ScriptedEvolutionBackend(evolution_fixtures(4)))
        for name in names:
            first, *others = [(tmp_path / shape / f"w{w}c{c}" / name).read_bytes()
                              for w, c in settings]
            assert all(other == first for other in others), (shape, name)
    records = load_state(tmp_path / "replays" / "w1c1").iterations
    assert any(record.mode == "evolve" and record.databases != previous.databases
               for previous, record in zip(records, records[1:]))


# How long a marked call waits for the call or the event it waits for.
MEET_TIMEOUT_S = 2.0


class MarkedOracle(WaitingOracle):
    """Once armed for iteration k, tells calls for its new agent, whose
    analysis carries its tool's "-- gen<k> --" line, from calls for the
    incumbents. The first call for the new agent waits for a call for an
    incumbent (met says whether one came); the first call for an incumbent
    waits until released is set."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.marker = self.met = None
        self.incumbent_called = threading.Event()
        self.released = threading.Event()
        self.lock = threading.Lock()

    def complete(self, system_text, conversation, temperature):
        if self.marker is not None:
            new_agent = self.marker in system_text
            with self.lock:
                if new_agent:
                    first, self.met = self.met is None, self.met or False
                else:
                    first = not self.incumbent_called.is_set()
                    self.incumbent_called.set()
            if first and new_agent:
                self.met = self.incumbent_called.wait(MEET_TIMEOUT_S)
            elif first:
                self.released.wait(MEET_TIMEOUT_S)
        return super().complete(system_text, conversation, temperature)


class ArmingEvolution(ScriptedEvolutionBackend):
    """Scripted evolution that arms the generation backend when it proposes
    iteration armed's new agent. With fault set, that iteration's refine
    waits for an incumbent's call, releases it and raises, so the iteration
    fails while incumbents' tasks are in flight."""

    def __init__(self, fixtures, generation, armed, fault=False):
        super().__init__(fixtures)
        self.generation, self.armed, self.fault = generation, armed, fault

    def propose(self, context):
        if context.iteration == self.armed:
            self.generation.marker = f"-- gen{self.armed} --"
        return super().propose(context)

    def refine(self, feedback):
        if self.fault and self.generation.marker is not None:
            self.generation.incumbent_called.wait(MEET_TIMEOUT_S)
            self.generation.released.set()
            raise RuntimeError("a bug in refine")
        return super().refine(feedback)


def test_deep_focus_runs_beside_the_incumbents(data_root, tmp_path):
    # The new agent's first Deep Focus call waits for an incumbent's call
    # of the same iteration: it comes only if the incumbents' questions do
    # not wait for Deep Focus.
    _, question_pool = load_question_pool(data_root)
    oracle = MarkedOracle.from_question_pool(question_pool)
    oracle.released.set()
    state = run(base_config(data_root, tmp_path / "out", iterations=2, workers=1,
                            backend_concurrency=3),
                gen_backend=oracle,
                evo_backend=ArmingEvolution(evolution_fixtures(2), oracle, armed=2))
    assert state.iterations[1].mode == "evolve"
    assert oracle.met is True


FAULT_ITERATION = 3


@pytest.mark.parametrize("fault", ["refine", "incumbent"])
def test_an_error_beside_the_incumbents_leaves_no_thread_and_resumes(data_root, tmp_path,
                                                                     monkeypatch, fault):
    # The iteration fails in a Deep Focus refine while incumbents' calls are
    # in flight, or in an incumbent's tool run while Deep Focus goes on.
    _, question_pool = load_question_pool(data_root)
    full = tmp_path / "full"
    run(base_config(data_root, full, iterations=FAULT_ITERATION),
        gen_backend=WaitingOracle.from_question_pool(question_pool),
        evo_backend=ScriptedEvolutionBackend(evolution_fixtures(FAULT_ITERATION)))

    out = tmp_path / "out"
    oracle = MarkedOracle.from_question_pool(question_pool)
    evolution = ArmingEvolution(evolution_fixtures(FAULT_ITERATION), oracle,
                                armed=FAULT_ITERATION, fault=fault == "refine")
    if fault == "incumbent":
        oracle.incumbent_called.set()  # no call waits
        real_evaluate = orchestrator_module.evaluate_agent

        def faulty_analysis(pkg, db_id):
            raise RuntimeError(f"a bug in incumbent {pkg.id}'s tool run on {db_id}")

        def evaluate(packages, questions, analysis, *args, **kwargs):
            if oracle.marker and not any(pkg.id.startswith(f"iter{FAULT_ITERATION}_")
                                         for pkg in packages):
                analysis = faulty_analysis
            return real_evaluate(packages, questions, analysis, *args, **kwargs)

        monkeypatch.setattr(orchestrator_module, "evaluate_agent", evaluate)
    threads = set(threading.enumerate())
    with pytest.raises(RuntimeError, match=f"^a bug in {fault}"):
        run(base_config(data_root, out, iterations=FAULT_ITERATION, backend_concurrency=4),
            gen_backend=oracle, evo_backend=evolution)
    assert set(threading.enumerate()) == threads
    assert len(load_state(out).iterations) == FAULT_ITERATION - 1
    monkeypatch.undo()
    resume(base_config(data_root, out, iterations=FAULT_ITERATION),
           gen_backend=WaitingOracle.from_question_pool(question_pool),
           evo_backend=ScriptedEvolutionBackend(evolution_fixtures(FAULT_ITERATION)))
    for name in ["run_state.json"] + [f"iter_{FAULT_ITERATION}/{artifact}" for artifact in
                                      ("outcomes.json", "transcripts.json",
                                       REPORT_FILENAME)]:
        assert (out / name).read_bytes() == (full / name).read_bytes(), name


def test_state_round_trip_and_schema_check(data_root, tmp_path):
    config = base_config(data_root, tmp_path / "out", iterations=2)
    state = run(config, evo_backend=ScriptedEvolutionBackend(evolution_fixtures(2)))
    reloaded = load_state(tmp_path / "out")
    assert reloaded == state

    data = json.loads((tmp_path / "out" / "run_state.json").read_text())
    data["schema_version"] = 99
    with pytest.raises(InvalidStateError):
        RunState.from_dict(data)


@pytest.mark.parametrize("damage, cause", [
    (lambda text: text[: len(text) // 2], "JSONDecodeError"),
    (lambda text: json.dumps(dict(json.loads(text), iterations=[
        {k: v for k, v in r.items() if k != "questions"} for r in json.loads(text)["iterations"]
    ])), "KeyError: 'questions'"),
], ids=["truncated", "record-without-questions"])
def test_an_unreadable_state_is_refused_naming_the_file(data_root, tmp_path, damage, cause):
    run(base_config(data_root, tmp_path / "out", iterations=1))
    state_file = tmp_path / "out" / "run_state.json"
    state_file.write_text(damage(state_file.read_text()))
    with pytest.raises(InvalidStateError, match=f"^{re.escape(str(state_file))} is not a "
                                                f"readable run state \\({cause}"):
        load_state(tmp_path / "out")


def test_leaderboard_regenerates_identically(data_root, tmp_path):
    config = base_config(data_root, tmp_path / "out", iterations=2)
    state = run(config, evo_backend=ScriptedEvolutionBackend(evolution_fixtures(2)))
    board = leaderboard(state)
    assert board == leaderboard(load_state(tmp_path / "out"))
    assert "naive" in board and "iter2_gen2" in board


@st.composite
def match_histories(draw):
    """Iterations of (roster, per-question matches) over up to five agents."""
    agents = [f"agent{i}" for i in range(draw(st.integers(2, 5)))]
    history = []
    for _ in range(draw(st.integers(1, 6))):
        roster = draw(st.permutations(agents))[:draw(st.integers(1, len(agents)))]
        keys = [(draw(st.sampled_from(["shop", "school"])), qid)
                for qid in range(draw(st.integers(1, 4)))]
        history.append((roster, {agent: {key: draw(st.booleans()) for key in keys}
                                 for agent in roster}))
    return history


@given(match_histories())
def test_replay_of_the_saved_matches_equals_the_live_settling(history):
    # The live loop registers agents as they arrive and settles each
    # iteration on its evaluations' accuracies; the replay reads the state.
    live = AgentRegistry()
    state = RunState(run_seed=0)
    for iteration, (roster, matches) in enumerate(history, start=1):
        for agent_id in roster:
            if agent_id not in live:
                live.register_record(agent_id)
                state.registry[agent_id] = {"iteration_created": iteration, "lineage": [],
                                            "package_dir": f"agents/{agent_id}"}
        settle_iteration(live, roster, {
            agent: Fraction(sum(per_agent.values()), len(per_agent))
            for agent, per_agent in matches.items()})
        state.iterations.append(IterationRecord(
            iteration=iteration, mode="none", databases=[], questions={},
            competitors=roster, new_agent=None, matches=matches, excluded_questions=[],
            tool_fallbacks={}))
    saved = RunState.from_dict(json.loads(json.dumps(state.to_dict(), default=vars)))
    assert record_fields(replay_registry(saved)) == record_fields(live)


def test_token_accounting_matches_transcripts(data_root, tmp_path):
    config = base_config(data_root, tmp_path / "out", iterations=2)
    state = run(config, evo_backend=ScriptedEvolutionBackend(evolution_fixtures(2)))
    accounting = token_totals(state, tmp_path / "out")

    hand_request = hand_response = hand_calls = 0
    for iteration in (1, 2):
        transcripts = json.loads(
            (tmp_path / "out" / f"iter_{iteration}" / "transcripts.json").read_text()
        )
        for agent_transcripts in transcripts.values():
            for t in agent_transcripts:
                hand_request += t["request_tokens"]
                hand_response += t["response_tokens"]
                hand_calls += t["backend_calls"]
    assert accounting["total"] == {"request": hand_request, "response": hand_response,
                                   "calls": hand_calls}


def test_initial_agents_copied_into_output(data_root, tmp_path, naive_package_dir):
    config = base_config(
        data_root, tmp_path / "out", iterations=1, initial_agents=[naive_package_dir]
    )
    state = run(config)
    assert (tmp_path / "out" / "agents" / "naive" / "agent.md").is_file()
    assert state.registry["naive"]["package_dir"] == "agents/naive"


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(data_root=".", output_dir=".", iterations=0)
    with pytest.raises(ValueError):
        RunConfig(data_root=".", output_dir=".", late_stage_start=1)
    with pytest.raises(ValueError):
        RunConfig(data_root=".", output_dir=".", workers=0)
    with pytest.raises(ValueError, match="backend_concurrency"):
        RunConfig(data_root=".", output_dir=".", backend_concurrency=0)


@pytest.mark.parametrize("settings, message", [
    ({"workers": "4"}, "^workers must be an integer, not '4'$"),
    ({"iterations": True}, "^iterations must be an integer, not True$"),
    ({"token_budget": 1000.0}, "^token_budget must be an integer, not 1000.0$"),
    ({"run_seed": None}, "^run_seed must be an integer, not None$"),
    ({"max_rounds": -1}, "^max_rounds must be >= 0$"),
    ({"databases_per_iteration": 0}, "^databases_per_iteration must be >= 1$"),
    ({"databases_per_iteration": -1}, "^databases_per_iteration must be >= 1$"),
    ({"questions_per_database": 0}, "^questions_per_database must be >= 1$"),
    ({"questions_per_database": -2}, "^questions_per_database must be >= 1$"),
    ({"token_budget": 0}, "^token_budget must be >= 1$"),
    ({"gen_backend": 5}, "^gen_backend must be a string, not 5$"),
    ({"strategy_path": 7}, "^strategy_path must be a path or null, not 7$"),
    ({"initial_agents": "abc"}, "^initial_agents must be a list of paths, not 'abc'$"),
    ({"initial_agents": ["a", None]}, r"^initial_agents must be a list of paths, not \['a', None\]$"),
])
def test_config_refuses_a_value_of_the_wrong_type_or_out_of_range(settings, message):
    with pytest.raises(ConfigError, match=message):
        RunConfig(data_root=".", output_dir=".", **settings)


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


def test_initial_agent_with_a_pyc_file_evolves(data_root, naive_package_dir, tmp_path):
    source = tmp_path / "seed"
    shutil.copytree(naive_package_dir, source)
    (source / "tools" / "__pycache__").mkdir()
    (source / "tools" / "__pycache__" / "extract_schema.pyc").write_bytes(b"\x00\xff\xfe")
    backend = RecordingEvolutionBackend(evolution_fixtures(2))
    state = run(base_config(data_root, tmp_path / "out", iterations=2, initial_agents=[source]),
                evo_backend=backend)
    assert state.iterations[1].new_agent == "iter2_gen2"
    assert "(not text: 3 bytes)" in backend.requests[2]
