"""Tests for agent package loading and registry bookkeeping."""

import re

import pytest

from evosql.errors import DuplicateAgentError, ManifestError, UnknownAgentError, ValidationError
from evosql.registry import (
    AgentRegistry,
    load_package,
    make_agent_id,
    parse_frontmatter,
    write_package,
)


def test_load_naive_package(naive_package_dir):
    pkg = load_package(naive_package_dir)
    assert pkg.name == "naive"
    assert pkg.execution_mode == "tool_only"
    assert pkg.tool_command == "python tools/extract_schema.py"
    assert pkg.tool_output_file == "tool_output/schema.txt"
    assert pkg.eval_instructions.strip()
    assert (naive_package_dir / "tools" / "extract_schema.py").is_file()


def test_load_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_package(tmp_path)


def test_frontmatter_missing_close():
    with pytest.raises(ManifestError, match="closing"):
        parse_frontmatter("---\nname: x\n")


def test_frontmatter_duplicate_key_names_line():
    with pytest.raises(ManifestError, match="line 3"):
        parse_frontmatter("---\nname: x\nname: y\n---\n")


def test_frontmatter_bad_line_named():
    with pytest.raises(ManifestError, match="line 2"):
        parse_frontmatter("---\nnot a pair\n---\n")


def test_tool_only_requires_command(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "agent.md").write_text("---\nname: broken\nexecution_mode: tool_only\n---\n")
    (root / "eval_instructions.md").write_text("x\n")
    with pytest.raises(ValidationError, match="tool_command"):
        load_package(root)


def test_unknown_execution_mode(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "agent.md").write_text("---\nname: odd\nexecution_mode: llm_magic\n---\n")
    (root / "eval_instructions.md").write_text("x\n")
    with pytest.raises(ValidationError, match="execution_mode"):
        load_package(root)


def test_blank_instructions_are_refused(tmp_path):
    root = write_package(tmp_path / "pkg", name="blank", execution_mode="fallback_naive",
                         instructions=" \n\n")
    with pytest.raises(ValidationError) as err:
        load_package(root)
    assert str(err.value) == f"{root}: eval_instructions.md is empty"


@pytest.mark.parametrize("name", ["x/../../../escaped", "a/b", "..", "."])
def test_name_must_be_one_path_component(tmp_path, name):
    # Agent ids, and so package directories, are made from the name.
    root = write_package(tmp_path / "pkg", name=name, execution_mode="fallback_naive",
                         instructions="x\n")
    with pytest.raises(ValidationError, match="one path component"):
        load_package(root)


@pytest.mark.parametrize("command", ['python tools/a.py "unclosed', "python tools/a.py 'x",
                                     "python tools/a.py \\"])
def test_tool_command_must_parse_as_shell_words(tmp_path, command):
    root = write_package(tmp_path / "pkg", name="quote", instructions="x\n",
                         tool_command=command,
                         tool_output_file="tool_output/out.txt")
    with pytest.raises(ValidationError, match="tool_command does not parse"):
        load_package(root)


def test_round_trip_preserves_everything(tmp_path):
    write_package(
        tmp_path / "pkg",
        name="fancy",
        description="a test agent",
        tool_command="python tools/run.py",
        tool_output_file="tool_output/out.txt",
        lineage=["naive", "iter2_fancy"],
        body="# Fancy\n\nSome prose the framework never interprets.\n",
        instructions="## Rules\n\nDo the thing.\n",
        tools={"run.py": "print('hi')\n"},
    )
    pkg = load_package(tmp_path / "pkg")
    assert pkg.name == "fancy"
    assert pkg.lineage == ["naive", "iter2_fancy"]
    assert pkg.execution_mode == "tool_only"
    assert pkg.tool_command == "python tools/run.py"
    assert pkg.tool_output_file == "tool_output/out.txt"
    assert pkg.eval_instructions == "## Rules\n\nDo the thing.\n"


def test_make_agent_id():
    assert make_agent_id("naive", 0) == "naive"
    assert make_agent_id("hybrid", 18) == "iter18_hybrid"


def _registry_with(ids):
    registry = AgentRegistry()
    for agent_id in ids:
        registry.register_record(agent_id)
    return registry


def test_register_initializes_record(naive_package_dir):
    registry = AgentRegistry()
    record = registry.register(load_package(naive_package_dir))
    assert record.rating.value == 1500.0
    assert record.tests == 0
    assert record.iteration_wins == 0
    assert registry.winners == set()
    with pytest.raises(DuplicateAgentError):
        registry.register(load_package(naive_package_dir))


def test_population_grows(naive_package_dir):
    registry = _registry_with(["a", "b", "c"])
    registry.register(load_package(naive_package_dir))
    assert len(registry) == 4


def test_top_by_elo_basic():
    registry = _registry_with(["A", "B", "C"])
    registry.get("A").rating.value = 1520
    registry.get("C").rating.value = 1480
    assert registry.top_by_elo(2) == ["A", "B"]
    assert registry.top_by_elo(2, exclude={"A"}) == ["B", "C"]
    assert registry.top_by_elo(10) == ["A", "B", "C"]
    assert registry.top_by_elo(0) == []


def test_top_by_elo_tie_break_fewest_tests_then_id():
    registry = _registry_with(["B", "C"])
    registry.get("B").tests = 3
    registry.get("C").tests = 1
    assert registry.top_by_elo(2) == ["C", "B"]

    # Oracle: over every permutation of three tied agents, ordering must be
    # (tests asc, id asc) regardless of registration order.
    import itertools

    for perm in itertools.permutations([("x", 2), ("y", 2), ("z", 0)]):
        registry = AgentRegistry()
        for agent_id, tests in perm:
            registry.register_record(agent_id).tests = tests
        assert registry.top_by_elo(3) == ["z", "x", "y"]


def test_top_by_elo_is_stable():
    registry = _registry_with(["A", "B", "C", "D"])
    first = registry.top_by_elo(4)
    assert all(registry.top_by_elo(4) == first for _ in range(5))


def test_top_by_elo_follows_registrations_and_recorded_outcomes():
    registry = _registry_with(["A", "B", "C"])
    assert registry.top_by_elo(3) == ["A", "B", "C"]
    registry.register_record("D")
    assert registry.top_by_elo(4) == ["A", "B", "C", "D"]
    registry.elo.decompose_and_update([("D", 1), ("B", 0)])
    registry.record_iteration_outcome(["D", "B"], {"D"})
    assert registry.top_by_elo(4) == ["D", "A", "C", "B"]
    assert registry.top_by_elo(2, exclude={"D"}) == ["A", "C"]
    registry.record_iteration_outcome(["A", "D"], {"A"})
    assert registry.top_by_elo(4) == ["D", "C", "A", "B"]


def test_record_iteration_outcome_single_winner():
    registry = _registry_with(["A", "B", "C"])
    registry.record_iteration_outcome(["A", "B", "C"], {"A"})
    assert registry.winners == {"A"}
    assert [registry.get(a).tests for a in "ABC"] == [1, 1, 1]
    assert registry.get("A").iteration_wins == 1


def test_record_iteration_outcome_tie_all_pending():
    registry = _registry_with(["A", "B", "C"])
    registry.record_iteration_outcome(["A", "B", "C"], {"A", "B"})
    assert registry.pending_winners() == ["A", "B"]
    # Next outcome moves the flag entirely.
    registry.record_iteration_outcome(["A", "B", "C"], {"C"})
    assert registry.pending_winners() == ["C"]
    assert registry.get("A").tests == 2


def test_record_iteration_outcome_rejects_bad_winners():
    registry = _registry_with(["A", "B"])
    with pytest.raises(ValueError):
        registry.record_iteration_outcome(["A", "B"], set())
    with pytest.raises(ValueError):
        registry.record_iteration_outcome(["A"], {"B"})


def test_pending_winner_count_matches_last_winner_set():
    registry = _registry_with(["A", "B", "C", "D"])
    registry.record_iteration_outcome(["A", "B"], {"A", "B"})
    assert len(registry.pending_winners()) == 2
    registry.record_iteration_outcome(["C", "D"], {"D"})
    assert len(registry.pending_winners()) == 1


def test_unknown_agent_lookup():
    registry = _registry_with(["A"])
    with pytest.raises(UnknownAgentError):
        registry.get("missing")


@pytest.mark.parametrize("filename", ["agent.md", "eval_instructions.md"])
def test_package_file_that_is_not_text_is_refused(tmp_path, filename):
    root = write_package(tmp_path / "pkg", name="latin", execution_mode="fallback_naive",
                         instructions="Answer in SQL.\n")
    path = root / filename
    path.write_bytes(path.read_bytes() + "caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: not text "):
        load_package(root)
