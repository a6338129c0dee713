"""CLI surface tests driven through main()."""

import json
import re

import pytest

from evosql import orchestrator
from evosql.backends import OracleGenerationBackend
from evosql.cli import main
from evosql.registry import write_package
from tests.conftest import make_database, make_evolution_response


def test_analyze_command(school_db, capsys):
    assert main(["analyze", "--database", str(school_db)]) == 0
    out = capsys.readouterr().out
    assert "# Database Analysis: school" in out
    assert "## 10. Query Guidance" in out


def test_analyze_command_output_file(school_db, tmp_path, capsys):
    target = tmp_path / "analysis.txt"
    assert main(["analyze", "--database", str(school_db), "--output", str(target)]) == 0
    assert target.is_file()
    assert "## 1. Schema DDL" in target.read_text()


@pytest.mark.parametrize("flags,message", [
    (["--database", "{tmp}/missing.sqlite"], "^no such database file: .+missing.sqlite$"),
    (["--database", "{tmp}/junk.txt"], "^cannot analyze .+junk.txt: file is not a database$"),
    (["--database", "{school}", "--budget", "100"],
     "^analysis of school needs [0-9]+ tokens, budget is 100; largest section: "),
])
def test_analyze_bad_input_exits_with_a_message(school_db, tmp_path, flags, message):
    (tmp_path / "junk.txt").write_text("not a database\n")
    argv = [f.format(tmp=tmp_path, school=school_db) for f in flags]
    with pytest.raises(SystemExit, match=message):
        main(["analyze", *argv])


def test_missing_agent_or_data_exits_with_a_message(data_root, tmp_path):
    with pytest.raises(SystemExit, match="^no agent.md in .+nonexistent$"):
        main(["evaluate", "--agent-dir", str(tmp_path / "nonexistent"),
              "--data-root", str(data_root)])
    with pytest.raises(SystemExit, match="^no questions.json in .+nonexistent$"):
        main(["run", "--data-root", str(tmp_path / "nonexistent"),
              "--output-dir", str(tmp_path / "out")])


def test_simulate_command(capsys):
    assert main(["simulate", "--latents", "0.8,0.6,0.4", "--iterations", "50",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "kendall tau" in out
    assert "agent_1" in out


def test_simulate_command_seed_battery(capsys):
    assert main(["simulate", "--latents", "0.9,0.1", "--iterations", "30",
                 "--seeds", "5"]) == 0
    assert "5/5 seeds" in capsys.readouterr().out


def test_run_resume_leaderboard_and_evaluate(data_root, tmp_path, capsys):
    fixture_path = tmp_path / "evolution.json"
    fixture_path.write_text(json.dumps({"2": [make_evolution_response("cli")]}))
    out_dir = tmp_path / "out"

    args = [
        "run",
        "--data-root", str(data_root),
        "--output-dir", str(out_dir),
        "--iterations", "2",
        "--seed", "3",
        "--gen-backend", "oracle",
        "--evo-backend", f"scripted:{fixture_path}",
        "--workers", "1",
        "--backend-concurrency", "5",
        "--deep-focus-k", "0",
    ]
    assert main(args) == 0
    assert (out_dir / "run_state.json").is_file()
    assert "iter2_cli" in capsys.readouterr().out

    assert main(["leaderboard", "--output-dir", str(out_dir), "--costs"]) == 0
    out = capsys.readouterr().out
    assert "naive" in out and "per_iteration" in out

    resume_args = [a if a != "2" else "3" for a in args]
    resume_args[0] = "resume"
    assert main(resume_args) == 0

    assert main([
        "evaluate",
        "--agent-dir", str(out_dir / "agents" / "naive"),
        "--data-root", str(data_root),
        "--databases", "school",
        "--gen-backend", "oracle",
        "--backend-concurrency", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "accuracy: 10/10" in out


def test_run_rejects_backend_concurrency_below_one(data_root, tmp_path):
    with pytest.raises(SystemExit, match="backend_concurrency"):
        main(["run", "--data-root", str(data_root), "--output-dir", str(tmp_path / "out"),
              "--backend-concurrency", "0"])


@pytest.mark.parametrize("flags, config, message", [
    (["--workers", "0"], None, "^workers must be >= 1$"),
    (["--gen-backend", "bogus"], None, "^unknown generation backend spec 'bogus'$"),
    ([], {"workerz": 2}, "^config file .+config.json has unknown keys: workerz$"),
    ([], "{", "^config file .+config.json is not JSON: "),
    ([], [1], "^config file .+config.json is not a JSON object$"),
    ([], ["workers"], "^config file .+config.json is not a JSON object$"),
])
def test_run_config_error_exits_with_a_message(data_root, tmp_path, flags, config, message):
    argv = ["run", "--data-root", str(data_root), "--output-dir", str(tmp_path / "out"), *flags]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(path)]
    with pytest.raises(SystemExit, match=message):
        main(argv)
    assert not (tmp_path / "out").exists()


class _RecordingOracle:
    def __init__(self, question_pool):
        self.oracle = OracleGenerationBackend.from_question_pool(question_pool)
        self.system_texts = []

    def complete(self, system_text, conversation, temperature):
        self.system_texts.append(system_text)
        return self.oracle.complete(system_text, conversation, temperature)


def test_evaluate_blocks_oversized_analysis(data_root, tmp_path, monkeypatch, capsys):
    # The tool floods its output on the films database only: that analysis
    # is over the token budget, so films is reported and skipped, and no
    # prompt carries the flood; school is evaluated as usual.
    write_package(
        tmp_path / "flood",
        name="flood",
        tool_command="python tools/flood.py",
        tool_output_file="tool_output/out.txt",
        instructions="x\n",
        tools={"flood.py": (
            "import sqlite3\n"
            "conn = sqlite3.connect('database.sqlite')\n"
            "films = conn.execute(\"SELECT COUNT(*) FROM sqlite_master WHERE name = 'films'\")"
            ".fetchone()[0]\n"
            "with open('tool_output/out.txt', 'w') as f:\n"
            "    f.write('FLOOD' * 200_000 if films else 'schema')\n"
        )},
    )
    backends = []

    def recording_backend(spec, question_pool):
        backends.append(_RecordingOracle(question_pool))
        return backends[-1]

    monkeypatch.setattr(orchestrator, "build_generation_backend", recording_backend)
    assert main([
        "evaluate",
        "--agent-dir", str(tmp_path / "flood"),
        "--data-root", str(data_root),
        "--databases", "school,films",
    ]) == 0
    out = capsys.readouterr().out
    assert "blocked: films (analysis over token budget" in out
    assert "accuracy: 10/10" in out
    assert " films q" not in out
    (backend,) = backends
    assert backend.system_texts
    assert not any("FLOOD" in text for text in backend.system_texts)


@pytest.mark.parametrize("flags, message", [
    (["--workers", "0"], "workers and backend_concurrency must be >= 1"),
    (["--backend-concurrency", "0"], "workers and backend_concurrency must be >= 1"),
    (["--questions-per-db", "-1"], "--questions-per-db must be >= 1"),
])
def test_evaluate_count_below_one_exits_with_a_message(data_root, naive_package_dir, flags,
                                                       message):
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", "--agent-dir", str(naive_package_dir), "--data-root", str(data_root),
              *flags])
    assert exit_info.value.code == message


def test_evaluate_without_a_scorable_question_exits_with_a_message(naive_package_dir,
                                                                  tmp_path):
    make_database(tmp_path / "data" / "one" / "one.sqlite", "CREATE TABLE t (x INTEGER);")
    (tmp_path / "data" / "questions.json").write_text(json.dumps([
        {"question_id": 1, "db_id": "one", "question": "Broken?", "SQL": "SELEC broken"},
    ]))
    with pytest.raises(SystemExit, match="^no scorable question: none sampled, or every "
                                         "gold query is defective$"):
        main(["evaluate", "--agent-dir", str(naive_package_dir),
              "--data-root", str(tmp_path / "data")])


def test_resume_with_another_seed_exits_with_a_message(data_root, tmp_path):
    flags = ["--data-root", str(data_root), "--output-dir", str(tmp_path / "out"),
             "--iterations", "1"]
    assert main(["run", *flags, "--seed", "7"]) == 0
    with pytest.raises(SystemExit, match="^the run state has seed 7, not 3; resume with "
                                         "the run's seed$"):
        main(["resume", *flags, "--seed", "3"])


def test_resume_without_a_state_exits_with_a_message(data_root, tmp_path):
    with pytest.raises(SystemExit, match="^no run_state.json under .+ to resume$"):
        main(["resume", "--data-root", str(data_root), "--output-dir", str(tmp_path / "fresh")])


@pytest.mark.parametrize("flags, message", [
    (["--latents", "0.8"], "^population must have at least 2 agents$"),
    (["--latents", "1.5,0.2"], r"^global accuracy outside \[0, 1\]: 1.5$"),
    (["--latents", "x,0.2"], "^--latents must be comma-separated numbers, not 'x,0.2'$"),
    (["--iterations", "0"], "^iterations must be >= 1$"),
])
def test_simulate_bad_input_exits_with_a_message(flags, message):
    with pytest.raises(SystemExit, match=message):
        main(["simulate", *flags])


@pytest.mark.parametrize("command", ["leaderboard", "resume"])
def test_an_unreadable_state_exits_with_a_message(data_root, tmp_path, command):
    flags = ["--data-root", str(data_root), "--output-dir", str(tmp_path / "out"),
             "--iterations", "1"]
    assert main(["run", *flags]) == 0
    state_file = tmp_path / "out" / "run_state.json"
    state = json.loads(state_file.read_text())
    state_file.write_text(json.dumps(dict(state, schema_version=1)))
    argv = ["leaderboard", "--output-dir", str(tmp_path / "out")]
    if command == "resume":
        argv = ["resume", *flags]
    with pytest.raises(SystemExit, match=f"^{re.escape(str(state_file))} is not a readable run "
                                         "state \\(InvalidStateError: state schema version 1 "
                                         "is not 3\\)$"):
        main(argv)


@pytest.mark.parametrize("damage, cause", [
    (lambda text: text[: len(text) // 2], "JSONDecodeError"),
    (lambda text: text.replace('"request_tokens"', '"tokens"'), "KeyError: 'request_tokens'"),
], ids=["truncated", "transcript-without-request-tokens"])
def test_costs_over_unreadable_transcripts_exit_with_a_message(data_root, tmp_path, damage,
                                                                cause):
    out = tmp_path / "out"
    assert main(["run", "--data-root", str(data_root), "--output-dir", str(out),
                 "--iterations", "2"]) == 0
    transcripts = out / "iter_2" / "transcripts.json"
    transcripts.write_text(damage(transcripts.read_text()))
    with pytest.raises(SystemExit, match=f"^{re.escape(str(transcripts))} is unreadable "
                                         f"\\({cause}"):
        main(["leaderboard", "--output-dir", str(out), "--costs"])


def test_run_with_config_file(data_root, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "data_root": str(data_root),
        "output_dir": str(tmp_path / "out"),
        "iterations": 1,
        "gen_backend": "oracle",
        "evo_backend": "none",
    }))
    assert main(["run", "--config", str(config_path)]) == 0
    assert "naive" in capsys.readouterr().out


def test_run_requires_paths_without_config():
    with pytest.raises(SystemExit):
        main(["run", "--iterations", "1"])


def test_run_with_missing_data_leaves_no_output_dir(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="^no questions.json in .+nonexistent$"):
        main(["run", "--data-root", str(tmp_path / "nonexistent"), "--output-dir", str(out)])
    assert not out.exists()


def test_run_with_blank_instructions_exits_with_a_message(data_root, tmp_path):
    agent = write_package(tmp_path / "blank", name="blank", execution_mode="fallback_naive",
                          instructions="\n")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "data_root": str(data_root),
        "output_dir": str(tmp_path / "out"),
        "iterations": 1,
        "initial_agents": [str(agent)],
    }))
    with pytest.raises(SystemExit, match="^.+blank: eval_instructions.md is empty$"):
        main(["run", "--config", str(config_path)])


def test_run_refuses_a_question_without_sql(tmp_path):
    make_database(tmp_path / "data" / "one" / "one.sqlite", "CREATE TABLE t (x INTEGER);")
    (tmp_path / "data" / "questions.json").write_text(json.dumps([
        {"question_id": 7, "db_id": "one", "question": "How many?", "evidence": ""},
    ]))
    with pytest.raises(SystemExit, match="^questions.json: one q7 has no SQL$"):
        main(["run", "--data-root", str(tmp_path / "data"), "--output-dir", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_evaluate_refuses_a_manifest_that_is_not_text(data_root, tmp_path):
    root = write_package(tmp_path / "pkg", name="latin", execution_mode="fallback_naive",
                         instructions="Answer in SQL.\n")
    manifest = root / "agent.md"
    manifest.write_bytes(manifest.read_bytes() + b"description: caf\xe9\n")
    with pytest.raises(SystemExit, match=f"^{re.escape(str(manifest))}: not text "):
        main(["evaluate", "--agent-dir", str(root), "--data-root", str(data_root)])
