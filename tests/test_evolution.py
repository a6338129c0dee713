"""Tests for evolution context, dispatch, draft validation, and Deep Focus."""

import errno
import shutil
from fractions import Fraction
from pathlib import Path

import pytest

import evosql.evolution as evolution_module
import evosql.orchestrator as orchestrator_module
from evosql.backends import (
    DraftPackage,
    ScriptedEvolutionBackend,
    parse_file_blocks,
    render_evolution_request,
)
from evosql.defaults import DEFAULT_STRATEGY
from evosql.errors import BackendError, EvolutionError, ManifestError, ValidationError
from evosql.evolution import (
    EvolutionContext,
    build_context,
    deep_focus,
    evolve_agent,
    read_package_files,
)
from evosql.orchestrator import load_state, restore_registry, run
from evosql.registry import AgentRegistry, load_package
from evosql.scheduler import QuestionItem, load_question_pool
from tests import test_state_digests as digests
from tests.conftest import make_evolution_response
from tests.test_orchestrator import RecordingEvolutionBackend, base_config, evolution_fixtures


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


def place_errors(draft, parent) -> list[str]:
    """Place draft under parent; the validation errors, or [] once it is
    in place."""
    try:
        evolution_module._place_draft(draft, parent, 2, [])
    except ValidationError as exc:
        return list(exc.args)
    return []


def test_validate_draft_happy_path(tmp_path):
    assert place_errors(parse_file_blocks(make_evolution_response("ok")), tmp_path) == []
    # Staged beside the package and renamed into place.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["iter2_ok"]
    assert load_package(tmp_path / "iter2_ok").name == "ok"


def test_validate_draft_flags_problems(tmp_path):
    missing = DraftPackage(files={"eval_instructions.md": "x\n"})
    assert place_errors(missing, tmp_path) == ["missing agent.md"]
    empty = DraftPackage(files={})
    assert place_errors(empty, tmp_path) == ["missing agent.md", "missing eval_instructions.md"]

    no_command = parse_file_blocks(make_evolution_response("bad"))
    no_command.files["agent.md"] = (
        "---\nname: bad\nexecution_mode: tool_only\n---\n"
    )
    assert any("tool_command" in e for e in place_errors(no_command, tmp_path))

    empty_instructions = parse_file_blocks(make_evolution_response("bad2"))
    empty_instructions.files["eval_instructions.md"] = "  \n"
    assert any("empty" in e for e in place_errors(empty_instructions, tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_validate_draft_names_files_within_the_package(tmp_path):
    no_name = parse_file_blocks(make_evolution_response("x").replace("name: x\n", ""))
    assert place_errors(no_name, tmp_path) == ["agent.md: manifest has no name"]
    blank = parse_file_blocks(make_evolution_response("blank"))
    blank.files["eval_instructions.md"] = "  \n"
    assert place_errors(blank, tmp_path) == ["eval_instructions.md is empty"]


def test_validate_draft_refuses_paths_leaving_the_package(tmp_path):
    for rel_path in (str(tmp_path / "absolute.txt"), "../x"):
        draft = parse_file_blocks(make_evolution_response("escape"))
        draft.files[rel_path] = "escaped\n"
        errors = place_errors(draft, tmp_path / "iter_2")
        assert any(rel_path in e and "leaves the package" in e for e in errors), errors
        assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == []


def test_evolve_agent_rerequests_after_an_escaping_path(naive_package_dir, tmp_path):
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


def _nul_path_response(name):
    """A valid draft plus one file whose path holds a NUL byte, which an
    HTTP reply can carry as \\u0000."""
    return make_evolution_response(name) + "```file=tools/nul\x00.py\nprint(1)\n```\n"


def test_evolve_agent_rerequests_after_a_nul_path(naive_package_dir, tmp_path):
    registry = _registry_with_naive(naive_package_dir)
    context = build_context(registry, [], tmp_path_strategy(tmp_path))
    context.iteration = 2
    backend = RecordingEvolutionBackend({2: [_nul_path_response("fixme"),
                                             make_evolution_response("fixed")]})
    pkg, _ = evolve_agent(context, backend, tmp_path / "iter_2")
    assert pkg.id == "iter2_fixed"
    (feedback,) = backend.refinements[2]
    assert "- embedded null byte" in feedback
    assert "- embedded null byte (file='tools/nul\\x00.py')" in feedback
    assert sorted(p.name for p in (tmp_path / "iter_2").iterdir()) == ["iter2_fixed",
                                                                       "reasoning.md"]


def test_evolve_agent_rerequests_naming_a_path_with_a_lone_surrogate(naive_package_dir,
                                                                     tmp_path):
    registry = _registry_with_naive(naive_package_dir)
    context = build_context(registry, [], tmp_path_strategy(tmp_path))
    context.iteration = 2
    surrogate = make_evolution_response("fixme") + "```file=tools/a\ud800.py\nprint(1)\n```\n"
    backend = RecordingEvolutionBackend({2: [surrogate, make_evolution_response("fixed")]})
    pkg, _ = evolve_agent(context, backend, tmp_path / "iter_2")
    assert pkg.id == "iter2_fixed"
    (feedback,) = backend.refinements[2]
    assert "- surrogates not allowed (file='tools/a\\ud800.py')" in feedback
    # The feedback is text an HTTP request can carry.
    feedback.encode()


def test_evolve_agent_rerequests_after_a_file_that_is_also_a_directory(naive_package_dir,
                                                                        tmp_path):
    # An OSError the draft's own paths cause is its fault, and is sent back.
    registry = _registry_with_naive(naive_package_dir)
    context = build_context(registry, [], tmp_path_strategy(tmp_path))
    context.iteration = 2
    clash = make_evolution_response("fixme") + "```file=tools\nnot a directory\n```\n"
    backend = RecordingEvolutionBackend({2: [clash, make_evolution_response("fixed")]})
    pkg, _ = evolve_agent(context, backend, tmp_path / "iter_2")
    assert pkg.id == "iter2_fixed"
    (feedback,) = backend.refinements[2]
    assert "Is a directory: 'tools'" in feedback


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


def test_evolve_agent_loads_a_valid_draft_once(naive_package_dir, tmp_path, monkeypatch):
    # Loaded where it is staged, which validates it, then renamed into
    # place; the agent id is read from the loaded manifest.
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
    assert loaded == [tmp_path / "iter_2" / ".draft"]
    assert pkg.root_dir == tmp_path / "iter_2" / "iter2_merged"


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


def _replayed_records():
    """Two iteration records, newest first, as the run loop hands them to
    Deep Focus."""
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
    return [rec2, rec1]


def _installed_pkg(tmp_path, name="cand", iteration=3):
    backend = ScriptedEvolutionBackend({iteration: [make_evolution_response(name)]})
    context = EvolutionContext(
        iteration=iteration, leaderboard=[], parent_packages={}, error_report="",
        strategy="s",
    )
    return evolve_agent(context, backend, tmp_path / f"iter_{iteration}")[0]


def _package_bytes(pkg):
    return {p.relative_to(pkg.root_dir): p.read_bytes()
            for p in pkg.root_dir.rglob("*") if p.is_file()}


def test_deep_focus_zero_rounds(tmp_path):
    pkg = _installed_pkg(tmp_path)
    calls = []

    def eval_fn(candidate, record):
        calls.append(record.iteration)
        return Fraction(1, 2), {}

    result = deep_focus(pkg, ScriptedEvolutionBackend({}), [], eval_fn)
    assert result is pkg
    assert calls == []


def test_deep_focus_evaluates_newest_first(tmp_path):
    # One round per record, in the order the run loop gives: newest first.
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
    result = deep_focus(pkg, backend, _replayed_records(), eval_fn)
    assert calls == [2, 1]  # most recent iteration first, working backwards
    assert result.id == pkg.id
    assert sorted(p.name for p in (tmp_path / "iter_3").iterdir()) == ["iter3_cand",
                                                                       "reasoning.md"]


def test_deep_focus_truncates_k_to_history(data_root, tmp_path, monkeypatch):
    # The run loop replays at most deep_focus_k completed iterations,
    # newest first, and no more than have completed.
    replays = []

    def recording_deep_focus(pkg, backend, records, eval_fn):
        replays.append([record.iteration for record in records])
        return deep_focus(pkg, backend, records, eval_fn)

    monkeypatch.setattr(orchestrator_module, "deep_focus", recording_deep_focus)
    run(base_config(data_root, tmp_path / "out", deep_focus_k=2),
        evo_backend=ScriptedEvolutionBackend(evolution_fixtures(4)))
    assert replays == [[1], [2, 1], [3, 2]]


def test_deep_focus_refine_failure_keeps_package(tmp_path):
    pkg = _installed_pkg(tmp_path)
    before = (pkg.root_dir / "agent.md").read_text()

    def eval_fn(candidate, record):
        return Fraction(0, 2), {("school", 1): False, ("school", 2): False}

    result = deep_focus(pkg, ScriptedEvolutionBackend({}), _replayed_records()[:1], eval_fn)
    assert (result.root_dir / "agent.md").read_text() == before


class _RefineScript:
    """An evolution session whose refine replies with draft, or raises it
    when it is an exception."""

    def __init__(self, draft):
        self.draft = draft

    def refine(self, feedback):
        if isinstance(self.draft, BaseException):
            raise self.draft
        return self.draft


@pytest.mark.parametrize("draft, step, install_error", [
    (BackendError("chat endpoint failure (attempt 4): HTTP Error 503"), None, None),
    (DraftPackage({"agent.md": "---\nname: broken\n---\n"}), None, None),
    (parse_file_blocks(make_evolution_response("cand")), "_write_draft_files",
     PermissionError("read-only")),
    (parse_file_blocks(make_evolution_response("cand")), "load_package",
     ValidationError("not one path component")),
    (parse_file_blocks(make_evolution_response("cand")), "load_package",
     ManifestError("no closing delimiter")),
    (parse_file_blocks(_nul_path_response("cand")), None, None),
], ids=["backend-error", "invalid-draft", "unwritable", "invalid-install", "bad-manifest",
        "nul-path"])
def test_deep_focus_keeps_the_package_when_a_refine_fails(tmp_path, monkeypatch, draft, step,
                                                          install_error):
    pkg = _installed_pkg(tmp_path)
    before = _package_bytes(pkg)
    if install_error is not None:
        def install(*_args):
            raise install_error

        monkeypatch.setattr(evolution_module, step, install)

    def eval_fn(candidate, record):
        return Fraction(0, 2), {("school", 1): False, ("school", 2): False}

    assert deep_focus(pkg, _RefineScript(draft), _replayed_records(), eval_fn) is pkg
    assert _package_bytes(pkg) == before


def _fill_disk(monkeypatch, fails):
    """Make Path.write_text raise ENOSPC on each path fails(path) is true of."""
    write_text = Path.write_text

    def write(path, *args, **kwargs):
        if fails(path):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write)


def test_deep_focus_keeps_the_package_when_a_refine_cannot_write(tmp_path, monkeypatch):
    # The disk fills while the refined draft is written: the package is
    # left byte for byte as it was, and it still loads.
    pkg = _installed_pkg(tmp_path)
    before = _package_bytes(pkg)
    _fill_disk(monkeypatch, lambda path: path.is_relative_to(tmp_path)
               and path.name == "analyze.py")

    def eval_fn(candidate, record):
        return Fraction(0, 2), {("school", 1): False, ("school", 2): False}

    refined = parse_file_blocks(make_evolution_response("cand", label="refined"))
    assert deep_focus(pkg, _RefineScript(refined), _replayed_records(), eval_fn) is pkg
    assert _package_bytes(pkg) == before
    assert load_package(pkg.root_dir, agent_id=pkg.id, iteration_created=3).name == "cand"
    assert sorted(p.name for p in (tmp_path / "iter_3").iterdir()) == ["iter3_cand",
                                                                       "reasoning.md"]


def test_a_run_whose_refine_cannot_write_can_be_restored(tmp_path, monkeypatch):
    # The pinned-digest run, where the write of the first Deep Focus
    # refine's manifest fails: the run completes, and every package loads.
    data_root = digests.make_state_data_root(tmp_path / "data")
    _, question_pool = load_question_pool(data_root)
    out = tmp_path / "out"
    manifest_writes = []

    def refine_manifest(path):
        if not (path.is_relative_to(out / "iter_2") and path.name == "agent.md"):
            return False
        manifest_writes.append(path)
        return len(manifest_writes) == 2  # the proposal's is the first

    _fill_disk(monkeypatch, refine_manifest)
    state = run(digests.config(data_root, out, digests.ITERATIONS),
                gen_backend=digests.FlubbingBackend(question_pool),
                evo_backend=ScriptedEvolutionBackend(digests.evolution_fixtures()))
    assert len(manifest_writes) == 2
    assert len(state.iterations) == digests.ITERATIONS
    restored = restore_registry(load_state(out), out)
    assert set(restored.packages) == set(state.registry)
    assert (restored.package("iter2_gen2").root_dir / "tools" / "analyze.py").is_file()


def test_a_proposal_that_cannot_be_written_degrades_without_a_rerequest(data_root, tmp_path,
                                                                         monkeypatch):
    # A full disk is no fault of the draft: the one re-request is not spent
    # on it, nothing is left staged, and the iteration degrades to none-mode.
    out = tmp_path / "out"
    _fill_disk(monkeypatch, lambda path: ".draft" in path.parts)
    backend = RecordingEvolutionBackend(evolution_fixtures(2))
    state = run(base_config(data_root, out, iterations=2), evo_backend=backend)
    assert list(backend.requests) == [2]
    assert backend.refinements == {}
    assert [record.mode for record in state.iterations] == ["none", "none"]
    assert sorted(p.name for p in (out / "iter_2").iterdir()) == [
        "error_analysis_report.md", "outcomes.json", "transcripts.json"]


@pytest.mark.parametrize("fault", [TypeError("unsupported operand"), KeyError("files")],
                         ids=["type-error", "key-error"])
def test_deep_focus_lets_an_error_no_refine_makes_propagate(tmp_path, fault):
    # A programming error is not a failed refine: it is not logged away as
    # "kept prior package".
    pkg = _installed_pkg(tmp_path)

    def eval_fn(candidate, record):
        return Fraction(0, 2), {("school", 1): False, ("school", 2): False}

    with pytest.raises(type(fault)):
        deep_focus(pkg, _RefineScript(fault), _replayed_records()[:1], eval_fn)


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

    deep_focus(pkg, spy, _replayed_records()[1:], eval_fn)
    feedback = spy.feedback[0]
    assert "only the new agent answered correctly" in feedback
    assert "school q2" in feedback.split("incorrectly")[0]
    assert "school q1" in feedback.split("incorrectly")[1]


def test_read_package_files_shows_a_file_that_is_not_text_by_its_size(naive_package_dir):
    before = read_package_files(naive_package_dir)
    cache = naive_package_dir / "tools" / "__pycache__"
    cache.mkdir()
    try:
        (cache / "extract_schema.cpython-311.pyc").write_bytes(b"\xa7\r\r\n\x00\xff")
        files = read_package_files(naive_package_dir)
    finally:
        shutil.rmtree(cache)
    assert files.pop("tools/__pycache__/extract_schema.cpython-311.pyc") == "(not text: 6 bytes)\n"
    assert files == before
