"""The persisted state format is pinned byte for byte.

A seeded run over the toy data root, plus one question whose gold SQL is
broken, evolves with Deep Focus refines, degrades one iteration whose drafts
stay invalid, draws late-stage modes, and scores a generation backend that
answers some questions wrong, with SQL that fails, or with an empty result.
The sha256 digests of run_state.json and of every iteration's
outcomes.json and transcripts.json were recorded from the hand-written
serializers; an uninterrupted run and a run halted and resumed midway must
both reproduce them. A deliberate format change bumps STATE_SCHEMA_VERSION
and records new digests.

The state holds each fact once: its keys are pinned, and counters, timings
and other floats stay in the sidecar files.
"""

import hashlib
import json

import pytest

from evosql.backends import ScriptedEvolutionBackend
from evosql.orchestrator import Orchestrator, RunConfig, load_state, restore_registry, resume, run
from evosql.pipeline import CORRECT_SENTINEL, extract_question
from evosql.scheduler import load_question_pool
from tests.conftest import make_data_root, make_evolution_response, record_fields

ITERATIONS = 6
HALT_AFTER = 3
DEGRADED_ITERATION = 3

INVALID_DRAFT = "```file=agent.md\n---\nname: broken\n---\n```\n"


def evolution_fixtures() -> dict[int, list[str]]:
    """Every iteration from 2 on proposes and refines twice, except one
    whose draft and revision both lack eval_instructions.md."""
    fixtures = {}
    for iteration in range(2, ITERATIONS + 1):
        if iteration == DEGRADED_ITERATION:
            fixtures[iteration] = [INVALID_DRAFT, INVALID_DRAFT]
            continue
        fixtures[iteration] = [
            make_evolution_response(f"gen{iteration}", reasoning=f"Design {iteration}."),
            make_evolution_response(f"gen{iteration}", label=f"gen{iteration} refined"),
            make_evolution_response(f"gen{iteration}", label=f"gen{iteration} refined twice"),
        ]
    return fixtures


class FlubbingBackend:
    """Answers gold SQL when the analysis comes from an evolved tool.
    Otherwise it answers every third question right, every third wrong, and
    the rest with SQL that fails, then with SQL that fails again (odd ids)
    or returns no rows (even ids). Accepts a first answer on verification."""

    in_process = True

    def __init__(self, question_pool):
        self.items = {item.question: item for items in question_pool.values() for item in items}

    def complete(self, system_text, conversation, temperature):
        item = self.items[extract_question(system_text)]
        turns = sum(1 for m in conversation if m["role"] == "assistant")
        if "-- gen" in system_text or item.question_id % 3 == 0:
            return item.gold_sql if turns == 0 else CORRECT_SENTINEL
        if item.question_id % 3 == 1:
            return "SELECT 'wrong answer'" if turns == 0 else CORRECT_SENTINEL
        if turns == 0 or item.question_id % 2:
            return "SELECT missing_column FROM sqlite_master"
        return "SELECT 1 WHERE 0"


def make_state_data_root(root):
    data_root = make_data_root(root)
    questions = json.loads((data_root / "questions.json").read_text())
    questions.append({"question_id": 19, "db_id": "shop", "question": "Which sku sold best?",
                      "evidence": "", "SQL": "SELECT best FROM no_such_table",
                      "difficulty": "challenging"})
    (data_root / "questions.json").write_text(json.dumps(questions, indent=2))
    return data_root


def config(data_root, output_dir, iterations) -> RunConfig:
    return RunConfig(
        data_root=data_root,
        output_dir=output_dir,
        iterations=iterations,
        run_seed=11,
        workers=2,
        backend_concurrency=3,
        deep_focus_k=2,
        late_stage_start=4,
        databases_per_iteration=2,
        questions_per_database=4,
    )


def state_files() -> list[str]:
    return ["run_state.json"] + [
        f"iter_{k}/{name}" for k in range(1, ITERATIONS + 1)
        for name in ("outcomes.json", "transcripts.json")
    ]


EXPECTED = {
    "run_state.json":
        "9d22c7f69eda6e2efeecdc28eae3b660ae5b333bc860a24ecd821dec602b618a",
    "iter_1/outcomes.json":
        "735633e7f99d18130a86dbefc0d52ecf5b1e83f710ee3bb4dee6205cfeea1abe",
    "iter_1/transcripts.json":
        "ab702381316deef1838028eec1fe35c3b9392739e2488c2ae7229715400485a4",
    "iter_2/outcomes.json":
        "dc7690c06b6de8659e57a6de8c23ba6e7da02be4ba79d6273d242fa2d9fa449c",
    "iter_2/transcripts.json":
        "4773d10ba7f671c902651bb9651b8d96c2bbe4559da3fc6663f20bdd379a463d",
    "iter_3/outcomes.json":
        "6b30f837b43fbfb7789bb0d0abbd3e02e21134fa12ff5eb176d80b7ffbd8e1b7",
    "iter_3/transcripts.json":
        "f28428bda68b1d46309b473219a9bb244db2192bc186d6f3e8bb4c52f36a6418",
    "iter_4/outcomes.json":
        "ac732d980f9087f35efda40fcdade6dec0858c57a94211f67b4d85d03a5cbf96",
    "iter_4/transcripts.json":
        "d4bfc663cc13509d6bfe6a1553e30344307da3656b883a2a8f8b833f1b6b8698",
    "iter_5/outcomes.json":
        "1003af5adf4f87d6115c2acb85c5a1a51974e41417c4b9b9ea12fae90f075670",
    "iter_5/transcripts.json":
        "18d53bf1e68364da15786d1ac1282dc510103227f0aa62b4c88595d8c6d0b320",
    "iter_6/outcomes.json":
        "63f4531fead2e7af0abff9f508029f5e30a5832018edcee04e51394e00c4b548",
    "iter_6/transcripts.json":
        "dea01eaaf7bb3d29c377fdcf41e77314d739c57bee8fa78c0de11da422524d21",
}


@pytest.mark.parametrize("halt", [False, True], ids=["uninterrupted", "resumed"])
def test_state_file_digests_unchanged(tmp_path, halt):
    data_root = make_state_data_root(tmp_path / "data")
    _, question_pool = load_question_pool(data_root)
    out = tmp_path / "out"

    def backends():
        return dict(gen_backend=FlubbingBackend(question_pool),
                    evo_backend=ScriptedEvolutionBackend(evolution_fixtures()))

    if halt:
        run(config(data_root, out, HALT_AFTER), **backends())
        state = resume(config(data_root, out, ITERATIONS), **backends())
    else:
        state = run(config(data_root, out, ITERATIONS), **backends())

    modes = [record.mode for record in state.iterations]
    assert modes[DEGRADED_ITERATION - 1] == "none"
    assert modes.count("evolve") >= 3
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in state_files()}
    assert digests == EXPECTED


@pytest.mark.parametrize("halt", [False, True], ids=["uninterrupted", "resumed"])
def test_live_registry_equals_its_replay_from_the_state(tmp_path, halt):
    data_root = make_state_data_root(tmp_path / "data")
    _, question_pool = load_question_pool(data_root)
    out = tmp_path / "out"

    def orchestrator(iterations):
        return Orchestrator(config(data_root, out, iterations),
                            gen_backend=FlubbingBackend(question_pool),
                            evo_backend=ScriptedEvolutionBackend(evolution_fixtures()))

    if halt:
        orchestrator(HALT_AFTER).run()
    live = orchestrator(ITERATIONS)
    live.run()
    restored = restore_registry(load_state(out), out)
    assert record_fields(restored) == record_fields(live.registry)
    assert restored.packages == live.registry.packages


def test_the_state_holds_no_counter_timing_or_restated_fact(tmp_path):
    data_root = make_state_data_root(tmp_path / "data")
    _, question_pool = load_question_pool(data_root)
    out = tmp_path / "out"
    run(config(data_root, out, ITERATIONS), gen_backend=FlubbingBackend(question_pool),
        evo_backend=ScriptedEvolutionBackend(evolution_fixtures()))
    floats = []
    state = json.loads((out / "run_state.json").read_text(),
                       parse_float=floats.append, parse_constant=floats.append)
    assert floats == []
    assert sorted(state) == ["iterations", "registry", "run_seed", "schema_version"]
    for record in state["iterations"]:
        assert sorted(record) == ["competitors", "databases", "excluded_questions", "iteration",
                                  "matches", "mode", "new_agent", "questions", "tool_fallbacks"]
        for items in record["questions"].values():
            for item in items:
                assert sorted(item) == ["db_id", "evidence", "gold_sql", "question",
                                        "question_id"]
    for entry in state["registry"].values():
        assert sorted(entry) == ["iteration_created", "lineage", "package_dir"]
