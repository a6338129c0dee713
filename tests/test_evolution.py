"""Tests for evolution context, dispatch, draft validation, and Deep Focus."""

from fractions import Fraction

import pytest

import evosql.evolution as evolution_module
from evosql.backends import (
    DraftPackage,
    ScriptedEvolutionBackend,
    parse_file_blocks,
    render_evolution_request,
)
from evosql.defaults import DEFAULT_STRATEGY
from evosql.errors import BackendError, EvolutionError
from evosql.evolution import (
    EvolutionContext,
    build_context,
    deep_focus,
    evolve_agent,
    validate_draft,
)
from evosql.registry import AgentRegistry, load_package
from evosql.scheduler import QuestionItem
from tests.conftest import make_evolution_response
from tests.test_orchestrator import RecordingEvolutionBackend


def test_parse_file_blocks():
    draft = parse_file_blocks(make_evolution_response("merged"))
    assert set(draft.files) == {"agent.md", "eval_instructions.md", "tools/analyze.py", "reasoning.md"}
    assert draft.files["agent.md"].startswith("---\nname: merged\n")
    assert draft.reasoning == "Merged the parents' strengths.\n"


def test_parse_file_blocks_prose_reasoning():
    draft = parse_file_blocks("Thinking out loud.\n```file=a.txt\nbody\n```\nMore thoughts.")
    assert draft.files == {"a.txt": "body\n"}
    assert "Thinking out loud." in draft.reasoning
    assert "More thoughts." in draft.reasoning


def test_parse_file_blocks_unterminated():
    with pytest.raises(BackendError, match="unterminated"):
        parse_file_blocks("```file=a.txt\nno close")


def test_validate_draft_happy_path():
    assert validate_draft(parse_file_blocks(make_evolution_response("ok"))) == []


def test_validate_draft_flags_problems():
    missing = DraftPackage(files={"eval_instructions.md": "x\n"})
    assert any("agent.md" in e for e in validate_draft(missing))

    no_command = parse_file_blocks(make_evolution_response("bad"))
    no_command.files["agent.md"] = (
        "---\nname: bad\nexecution_mode: tool_only\n---\n"
    )
    assert any("tool_command" in e for e in validate_draft(no_command))

    empty_instructions = parse_file_blocks(make_evolution_response("bad2"))
    empty_instructions.files["eval_instructions.md"] = "  \n"
    assert any("empty" in e for e in validate_draft(empty_instructions))


def test_validate_draft_names_files_within_the_package():
    no_name = parse_file_blocks(make_evolution_response("x").replace("name: x\n", ""))
    assert validate_draft(no_name) == ["agent.md: manifest has no name"]
    blank = parse_file_blocks(make_evolution_response("blank"))
    blank.files["eval_instructions.md"] = "  \n"
    assert validate_draft(blank) == ["eval_instructions.md is empty"]


@pytest.fixture
def staging(tmp_path, monkeypatch):
    """Stage drafts under tmp_path/staging, so a block that escapes the
    staging directory lands beside it in tmp_path."""
    staging = tmp_path / "staging"

    def mkdtemp(prefix):
        staging.mkdir()
        return str(staging)

    monkeypatch.setattr(evolution_module.tempfile, "mkdtemp", mkdtemp)
    return staging


def test_validate_draft_refuses_paths_leaving_the_package(tmp_path, staging):
    for rel_path in (str(tmp_path / "absolute.txt"), "../x"):
        draft = parse_file_blocks(make_evolution_response("escape"))
        draft.files[rel_path] = "escaped\n"
        errors = validate_draft(draft)
        assert any(rel_path in e and "leaves the package" in e for e in errors), errors
        assert list(tmp_path.iterdir()) == []


def test_evolve_agent_rerequests_after_an_escaping_path(naive_package_dir, tmp_path, staging):
    registry = _registry_with_naive(naive_package_dir)
    context = build_context(registry, [], tmp_path_strategy(tmp_path))
    context.iteration = 2
    escaping = make_evolution_response("fixme") + "```file=../x\nescaped\n```\n"
    backend = ScriptedEvolutionBackend({2: [escaping, make_evolution_response("fixed")]})
    pkg, _ = evolve_agent(context, backend, tmp_path / "iter_2")
    assert pkg.id == "iter2_fixed"
    assert not (tmp_path / "x").exists() and not (tmp_path / "iter_2" / "x").exists()


@pytest.mark.parametrize("line,bad_line,error", [
    ("name: fixme\n", "name: x/../../../escaped\n", "is not one path component"),
    ("tool_command: python tools/analyze.py\n",
     'tool_command: python tools/analyze.py "unclosed\n', "tool_command does not parse"),
], ids=["name", "tool_command"])
def test_evolve_agent_rerequests_after_a_bad_manifest(naive_package_dir, tmp_path,
                                                      line, bad_line, error):
    registry = _registry_with_naive(naive_package_dir)
    context = build_context(registry, [], tmp_path_strategy(tmp_path))
    context.iteration = 2
    bad = make_evolution_response("fixme").replace(line, bad_line)
    backend = RecordingEvolutionBackend({2: [bad, make_evolution_response("fixme")]})
    dest = tmp_path / "run" / "iter_2"
    pkg, _ = evolve_agent(context, backend, dest)
    assert pkg.id == "iter2_fixme"
    assert pkg.tool_command == "python tools/analyze.py"
    (feedback,) = backend.refinements[2]
    assert f"- agent.md: {bad_line.split(': ', 1)[0]}" in feedback
    assert error in feedback
    # Nothing was written outside dest.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run", "strategy.md"]
    assert [p.name for p in (tmp_path / "run").iterdir()] == ["iter_2"]
    assert sorted(p.name for p in dest.iterdir()) == ["iter2_fixme", "reasoning.md"]


class _Record:
    """Minimal stand-in for an orchestrator iteration record."""

    def __init__(self, iteration, competitors, accuracies, matches, questions,
                 winners=(), mode="evolve"):
        self.iteration = iteration
        self.competitors = competitors
        self.accuracies = accuracies
        self.matches = matches
        self.questions = questions
        self.winners = list(winners) or [competitors[0]]
        self.mode = mode


def _question(db, qid):
    return QuestionItem(question_id=qid, db_id=db, question=f"q{qid}?", gold_sql="SELECT 1")


def _registry_with_naive(naive_package_dir):
    registry = AgentRegistry()
    registry.register(load_package(naive_package_dir))
    return registry


def test_build_context_initial_state(naive_package_dir, tmp_path):
    registry = _registry_with_naive(naive_package_dir)
    strategy_path = tmp_path_strategy(tmp_path)
    context = build_context(registry, [], strategy_path)
    assert context.iteration == 1
    assert [row["agent_id"] for row in context.leaderboard] == ["naive"]
    assert "naive" in context.parent_packages
    assert "agent.md" in context.parent_packages["naive"]
    assert "tools/extract_schema.py" in context.parent_packages["naive"]
    assert context.error_report == ""


def test_build_context_reads_strategy_verbatim(naive_package_dir, tmp_path):
    registry = _registry_with_naive(naive_package_dir)
    strategy_path = tmp_path_strategy(tmp_path)
    context = build_context(registry, [], strategy_path)
    assert context.strategy == DEFAULT_STRATEGY
    assert "combining successful elements from multiple existing agents" in context.strategy


def test_build_context_missing_strategy(naive_package_dir, tmp_path):
    registry = _registry_with_naive(naive_package_dir)
    with pytest.raises(FileNotFoundError):
        build_context(registry, [], tmp_path / "missing.md")


def test_build_context_after_iteration(naive_package_dir, tmp_path):
    registry = _registry_with_naive(naive_package_dir)
    record = _Record(
        iteration=1,
        competitors=["naive"],
        accuracies={"naive": (20, 30)},
        matches={"naive": {("school", 1): True}},
        questions={"school": [_question("school", 1)]},
    )
    context = build_context(registry, [record], tmp_path_strategy(tmp_path), "report body")
    assert context.iteration == 2
    assert context.error_report == "report body"
    assert context.history == [
        "iteration 1 (evolve): naive=20/30; winners: naive"
    ]
    # Hygiene: the context carries only sampled material; no question ids
    # outside the recorded history appear anywhere.
    assert "q99" not in render_evolution_request(context)


def tmp_path_strategy(tmp_path):
    path = tmp_path / "strategy.md"
    path.write_text(DEFAULT_STRATEGY)
    return path


def test_evolve_agent_registers_valid_draft(naive_package_dir, tmp_path):
    registry = _registry_with_naive(naive_package_dir)
    context = build_context(registry, [], tmp_path_strategy(tmp_path))
    context.iteration = 2
    backend = ScriptedEvolutionBackend({2: [make_evolution_response("merged")]})
    pkg, reasoning = evolve_agent(context, backend, tmp_path / "iter_2")
    assert pkg.id == "iter2_merged"
    assert pkg.lineage == ["naive"]
    assert (tmp_path / "iter_2" / "reasoning.md").read_text() == "Merged the parents' strengths.\n"
    # Round-trip validation by construction.
    reloaded = load_package(pkg.root_dir, agent_id=pkg.id, iteration_created=2)
    assert reloaded.tool_command == pkg.tool_command


def test_evolve_agent_loads_a_valid_draft_twice(naive_package_dir, tmp_path, monkeypatch):
    # Once staged to validate it, once where it is installed; the agent id
    # is read from the validated manifest.
    loaded = []

    def counting_load(root_dir, *args, **kwargs):
        loaded.append(root_dir)
        return load_package(root_dir, *args, **kwargs)

    monkeypatch.setattr(evolution_module, "load_package", counting_load)
    registry = _registry_with_naive(naive_package_dir)
    context = build_context(registry, [], tmp_path_strategy(tmp_path))
    context.iteration = 2
    backend = ScriptedEvolutionBackend({2: [make_evolution_response("merged")]})
    pkg, _ = evolve_agent(context, backend, tmp_path / "iter_2")
    assert pkg.id == "iter2_merged"
    assert len(loaded) == 2
    assert loaded[-1] == pkg.root_dir


def test_evolve_agent_retries_once_then_succeeds(naive_package_dir, tmp_path):
    registry = _registry_with_naive(naive_package_dir)
    context = build_context(registry, [], tmp_path_strategy(tmp_path))
    context.iteration = 2
    broken = make_evolution_response("fixme").replace(
        "tool_command: python tools/analyze.py\n", ""
    )
    backend = ScriptedEvolutionBackend({2: [broken, make_evolution_response("fixme")]})
    pkg, _ = evolve_agent(context, backend, tmp_path / "iter_2")
    assert pkg.id == "iter2_fixme"


def test_evolve_agent_fails_after_second_bad_draft(naive_package_dir, tmp_path):
    registry = _registry_with_naive(naive_package_dir)
    context = build_context(registry, [], tmp_path_strategy(tmp_path))
    context.iteration = 2
    empty_instructions = make_evolution_response("dud").replace(
        "Output exactly one SQLite query with no fences or prose.\n"
        "Follow the evidence hint literally. Select only requested columns.\n",
        "",
    ).replace("# SQL Generation Instructions\n", "")
    backend = ScriptedEvolutionBackend({2: [empty_instructions, empty_instructions]})
    with pytest.raises(EvolutionError):
        evolve_agent(context, backend, tmp_path / "iter_2")


def test_evolve_agent_backend_failure(naive_package_dir, tmp_path):
    registry = _registry_with_naive(naive_package_dir)
    context = build_context(registry, [], tmp_path_strategy(tmp_path))
    context.iteration = 5
    backend = ScriptedEvolutionBackend({})  # nothing scripted for iteration 5
    with pytest.raises(EvolutionError):
        evolve_agent(context, backend, tmp_path / "iter_5")


def _history_records():
    questions = {"school": [_question("school", 1), _question("school", 2)]}
    rec1 = _Record(
        iteration=1,
        competitors=["naive"],
        accuracies={"naive": (1, 2)},
        matches={"naive": {("school", 1): True, ("school", 2): False}},
        questions=questions,
    )
    rec2 = _Record(
        iteration=2,
        competitors=["naive", "iter2_a"],
        accuracies={"naive": (1, 2), "iter2_a": (2, 2)},
        matches={
            "naive": {("school", 1): True, ("school", 2): False},
            "iter2_a": {("school", 1): True, ("school", 2): True},
        },
        questions=questions,
    )
    return [rec1, rec2]


def _installed_pkg(tmp_path, name="cand", iteration=3):
    backend = ScriptedEvolutionBackend({iteration: [make_evolution_response(name)]})
    context = EvolutionContext(
        iteration=iteration, leaderboard=[], parent_packages={}, error_report="",
        strategy="s",
    )
    return evolve_agent(context, backend, tmp_path / f"iter_{iteration}")[0]


def test_deep_focus_zero_rounds(tmp_path):
    pkg = _installed_pkg(tmp_path)
    calls = []

    def eval_fn(candidate, record):
        calls.append(record.iteration)
        return Fraction(1, 2), {}

    result = deep_focus(pkg, ScriptedEvolutionBackend({}), _history_records(), k=0, eval_fn=eval_fn)
    assert result is pkg
    assert calls == []


def test_deep_focus_evaluates_newest_first(tmp_path):
    pkg = _installed_pkg(tmp_path)
    calls = []

    def eval_fn(candidate, record):
        calls.append(record.iteration)
        return Fraction(2, 2), {("school", 1): True, ("school", 2): True}

    backend = ScriptedEvolutionBackend(
        {3: [make_evolution_response("cand"), make_evolution_response("cand"),
             make_evolution_response("cand")]}
    )
    # Consume the propose slot so refine pulls the remaining fixtures.
    backend.propose(EvolutionContext(3, [], {}, "", "s"))
    result = deep_focus(pkg, backend, _history_records(), k=2, eval_fn=eval_fn)
    assert calls == [2, 1]  # most recent iteration first, working backwards
    assert result.id == pkg.id


def test_deep_focus_truncates_k_to_history(tmp_path):
    pkg = _installed_pkg(tmp_path)
    calls = []

    def eval_fn(candidate, record):
        calls.append(record.iteration)
        return Fraction(1, 2), {}

    backend = ScriptedEvolutionBackend({3: [make_evolution_response("cand")] * 9})
    backend.propose(EvolutionContext(3, [], {}, "", "s"))
    deep_focus(pkg, backend, _history_records(), k=10, eval_fn=eval_fn)
    assert calls == [2, 1]


def test_deep_focus_refine_failure_keeps_package(tmp_path):
    pkg = _installed_pkg(tmp_path)
    before = (pkg.root_dir / "agent.md").read_text()

    def eval_fn(candidate, record):
        return Fraction(0, 2), {("school", 1): False, ("school", 2): False}

    result = deep_focus(pkg, ScriptedEvolutionBackend({}), _history_records(), k=1, eval_fn=eval_fn)
    assert (result.root_dir / "agent.md").read_text() == before


def test_deep_focus_feedback_contains_uniqueness_sets(tmp_path):
    pkg = _installed_pkg(tmp_path)

    class SpyBackend:
        def __init__(self):
            self.feedback = []

        def refine(self, feedback):
            self.feedback.append(feedback)
            raise BackendError("stop here")

    spy = SpyBackend()

    def eval_fn(candidate, record):
        # New agent solves q2 (which every competitor missed in iteration 1)
        # and misses q1 (which every competitor solved).
        return Fraction(1, 2), {("school", 1): False, ("school", 2): True}

    deep_focus(pkg, spy, _history_records()[:1], k=1, eval_fn=eval_fn)
    feedback = spy.feedback[0]
    assert "only the new agent answered correctly" in feedback
    assert "school q2" in feedback.split("incorrectly")[0]
    assert "school q1" in feedback.split("incorrectly")[1]
