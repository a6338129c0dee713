"""Tests for the size-adaptive database analyzer and tool runner."""

import sqlite3

import pytest

from evosql import analyzer
from evosql.analyzer import (
    OMITTED_STUB,
    SECTION_TITLES,
    TIER_CONFIGS,
    analyze,
    classify_size,
    estimate_tokens,
    extract_naive_schema,
    run_agent_tool,
)
from evosql.errors import AnalysisError, BudgetExceededError
from evosql.registry import load_package, write_package
from tests.conftest import make_database


@pytest.mark.parametrize(
    "columns,tier",
    [(0, "Small"), (150, "Small"), (151, "Medium"), (300, "Medium"),
     (301, "Large"), (400, "Large"), (401, "Ultra"), (5000, "Ultra")],
)
def test_classify_size_boundaries(columns, tier):
    assert classify_size(columns).tier == tier


def test_classify_size_rejects_negative():
    with pytest.raises(ValueError):
        classify_size(-1)


def test_tier_configs_match_feature_matrix():
    assert [TIER_CONFIGS[t].samples_per_column for t in ("Small", "Medium", "Large", "Ultra")] == [10, 5, 3, 1]
    assert [TIER_CONFIGS[t].enum_value_limit for t in ("Small", "Medium", "Large", "Ultra")] == [None, 15, 5, 0]
    assert [TIER_CONFIGS[t].semantic_patterns for t in ("Small", "Medium", "Large", "Ultra")] == ["full", "essential", "skip", "skip"]
    assert [TIER_CONFIGS[t].cross_table_validation for t in ("Small", "Medium", "Large", "Ultra")] == ["full", "critical", "skip", "skip"]


def test_tier_monotonicity():
    order = ("Small", "Medium", "Large", "Ultra")
    samples = [TIER_CONFIGS[t].samples_per_column for t in order]
    assert samples == sorted(samples, reverse=True)
    limits = [
        float("inf") if TIER_CONFIGS[t].enum_value_limit is None else TIER_CONFIGS[t].enum_value_limit
        for t in order
    ]
    assert limits == sorted(limits, reverse=True)


def test_estimate_tokens():
    assert estimate_tokens("") == 0
    assert estimate_tokens("x" * 400) == 100
    assert estimate_tokens("x" * 401) == 101


def test_extract_naive_schema_single_table(tmp_path):
    db = make_database(tmp_path / "one.sqlite", "CREATE TABLE t (a INTEGER);")
    assert extract_naive_schema(db) == "CREATE TABLE t (a INTEGER);"


def test_extract_naive_schema_matches_direct_query(school_db):
    conn = sqlite3.connect(school_db)
    rows = conn.execute(
        "SELECT sql || ';' FROM sqlite_master WHERE sql IS NOT NULL "
        "ORDER BY tbl_name, type DESC, name"
    ).fetchall()
    conn.close()
    assert extract_naive_schema(school_db) == "\n".join(r[0] for r in rows)


def test_extract_naive_schema_table_and_index_order(tmp_path):
    db = make_database(
        tmp_path / "idx.sqlite",
        "CREATE TABLE zz (a INTEGER); CREATE INDEX aa ON zz(a);"
        "CREATE TABLE mm (b TEXT);",
    )
    text = extract_naive_schema(db)
    # Grouped by table name; within a table, 'table' sorts after 'index'
    # under type DESC so the CREATE TABLE comes first.
    assert text.splitlines() == [
        "CREATE TABLE mm (b TEXT);",
        "CREATE TABLE zz (a INTEGER);",
        "CREATE INDEX aa ON zz(a);",
    ]


def test_extract_naive_schema_empty_db(tmp_path):
    db = make_database(tmp_path / "empty.sqlite", "")
    assert extract_naive_schema(db) == ""


def test_extract_naive_schema_unreadable(tmp_path):
    bogus = tmp_path / "not_a_db.sqlite"
    bogus.write_text("this is not sqlite")
    with pytest.raises(AnalysisError):
        extract_naive_schema(bogus)


def test_analyze_small_db_sections(school_db):
    analysis = analyze(school_db)
    assert analysis.tier.tier == "Small"
    assert analysis.db_id == "school"
    assert [title for title, _ in analysis.sections] == list(SECTION_TITLES)
    assert len(analysis.sections) == 10
    for index, title in enumerate(SECTION_TITLES, start=1):
        assert f"## {index}. {title}" in analysis.text
    assert analysis.stats["table_count"] == 3
    assert analysis.stats["row_counts"]["students"] == 5
    assert analysis.stats["foreign_key_count"] == 2
    assert analysis.token_estimate == estimate_tokens(analysis.text)


def test_analyze_deterministic(school_db):
    assert analyze(school_db).text == analyze(school_db).text


def test_analyze_enum_values_verbatim(school_db):
    analysis = analyze(school_db)
    enum_body = dict(analysis.sections)["Enumerated Values"]
    assert "'Chess', 'Choir', 'Robotics'" in enum_body
    # Every quoted value must occur in the database exactly as listed.
    conn = sqlite3.connect(school_db)
    names = {row[0] for row in conn.execute("SELECT club_name FROM clubs")}
    conn.close()
    assert {"Chess", "Choir", "Robotics"} <= names


def test_analyze_fk_map_and_orphans(tmp_path):
    db = make_database(
        tmp_path / "orphans.sqlite",
        """
        CREATE TABLE parents (id INTEGER PRIMARY KEY, label TEXT);
        CREATE TABLE children (
            id INTEGER PRIMARY KEY,
            parent_id INTEGER REFERENCES parents(id)
        );
        INSERT INTO parents VALUES (1, 'a'), (2, 'b');
        INSERT INTO children VALUES (1, 1), (2, 1), (3, 99), (4, 98), (5, NULL);
        """,
    )
    analysis = analyze(db)
    sections = dict(analysis.sections)
    assert "children.parent_id -> parents.id (one-to-many)" in sections["Foreign Key Relationships"]

    # Oracle: orphan count from an independent left-join formulation.
    conn = sqlite3.connect(db)
    oracle = conn.execute(
        "SELECT COUNT(*) FROM children c LEFT JOIN parents p ON c.parent_id = p.id "
        "WHERE c.parent_id IS NOT NULL AND p.id IS NULL"
    ).fetchone()[0]
    conn.close()
    assert f"children.parent_id -> parents.id: {oracle} orphaned rows" in sections["Cross-Table Validation"]
    # Nullable FK triggers query guidance.
    assert "LEFT JOIN" in sections["Query Guidance"]


def test_analyze_one_to_one_cardinality(tmp_path):
    db = make_database(
        tmp_path / "oto.sqlite",
        """
        CREATE TABLE users (id INTEGER PRIMARY KEY);
        CREATE TABLE profiles (
            user_id INTEGER UNIQUE REFERENCES users(id)
        );
        INSERT INTO users VALUES (1), (2);
        INSERT INTO profiles VALUES (1), (2);
        """,
    )
    body = dict(analyze(db).sections)["Foreign Key Relationships"]
    assert "profiles.user_id -> users.id (one-to-one)" in body


def test_analyze_self_reference_detected(tmp_path):
    db = make_database(
        tmp_path / "tree.sqlite",
        """
        CREATE TABLE nodes (
            id INTEGER PRIMARY KEY,
            parent INTEGER REFERENCES nodes(id)
        );
        INSERT INTO nodes VALUES (1, NULL), (2, 1), (3, 1);
        """,
    )
    body = dict(analyze(db).sections)["Semantic Patterns"]
    assert "hierarchical self-reference" in body


def test_analyze_formats_and_ranges(data_root):
    analysis = analyze(data_root / "shop" / "shop.sqlite")
    sections = dict(analysis.sections)
    assert "orders.ordered_at: date (ISO)" in sections["Format Detection"]
    assert "products.sku: code (fixed-length uppercase)" in sections["Format Detection"]
    assert "products.price: 1.25 .. 120.0" in sections["Numeric Ranges"]


def test_analyze_empty_db_has_ten_sections(tmp_path):
    db = make_database(tmp_path / "void.sqlite", "")
    analysis = analyze(db)
    assert len(analysis.sections) == 10
    for title, body in analysis.sections[1:9]:
        assert body == "none", title


def _make_wide_db(path, tables: int, columns_per_table: int):
    statements = []
    for t in range(tables):
        cols = ", ".join(f"c{c} TEXT" for c in range(columns_per_table))
        statements.append(f"CREATE TABLE t{t:03d} (id INTEGER PRIMARY KEY, {cols});")
        statements.append(f"INSERT INTO t{t:03d} (id, c0) VALUES (1, 'alpha'), (2, 'beta');")
    return make_database(path, "\n".join(statements))


def test_analyze_ultra_db_degrades(tmp_path):
    # 25 tables x 20 columns = 500 columns -> Ultra.
    db = _make_wide_db(tmp_path / "wide.sqlite", 25, 19)
    analysis = analyze(db)
    assert analysis.tier.tier == "Ultra"
    sections = dict(analysis.sections)
    assert sections["Enumerated Values"] == OMITTED_STUB
    assert sections["Semantic Patterns"] == OMITTED_STUB
    assert sections["Cross-Table Validation"] == OMITTED_STUB
    assert len(analysis.sections) == 10
    assert analysis.token_estimate <= 150_000
    # Ultra keeps one sample value per column.
    assert "samples: 'alpha'" in sections["Column Details"]
    assert "'alpha', 'beta'" not in sections["Column Details"]


def test_analyze_budget_degrades_then_errors(school_db):
    # A hostile budget forces degradation below the classified tier.
    full_size = analyze(school_db).token_estimate
    degraded = analyze(school_db, budget_tokens=full_size - 1)
    assert degraded.stats["degraded"]
    assert degraded.token_estimate <= full_size - 1
    with pytest.raises(BudgetExceededError) as err:
        analyze(school_db, budget_tokens=10)
    assert err.value.section in SECTION_TITLES


def _analyze_counting_statements(monkeypatch, db, **kwargs) -> list[str]:
    statements: list[str] = []
    connect = analyzer._connect_readonly

    def counting(path):
        conn = connect(path)
        conn.set_trace_callback(statements.append)
        return conn

    monkeypatch.setattr(analyzer, "_connect_readonly", counting)
    analyze(db, **kwargs)
    return statements


def _make_numeric_db(path, tables: int, columns_per_table: int):
    statements = []
    for t in range(tables):
        cols = ", ".join(f"c{c} INTEGER" for c in range(columns_per_table))
        statements.append(f"CREATE TABLE t{t} (id INTEGER PRIMARY KEY, {cols});")
        for r in range(30):
            values = ", ".join(str((r * (c + 3)) % (c + 25)) for c in range(columns_per_table))
            statements.append(f"INSERT INTO t{t} VALUES ({r}, {values});")
    return make_database(path, "\n".join(statements))


def test_analyze_aggregate_scans_grow_with_tables_not_columns(tmp_path, monkeypatch):
    narrow = _analyze_counting_statements(
        monkeypatch, _make_numeric_db(tmp_path / "narrow.sqlite", 4, 10))
    wide = _analyze_counting_statements(
        monkeypatch, _make_numeric_db(tmp_path / "wide.sqlite", 4, 20))

    def aggregates(statements):
        return [s for s in statements if any(f in s for f in ("COUNT(", "MIN(", "MAX("))]

    assert len(aggregates(wide)) == len(aggregates(narrow)) == 4
    # Each added column costs at most its distinct probe and one ordered fetch.
    assert len(wide) - len(narrow) <= 2 * 4 * 10


def test_analyze_takes_max_of_numeric_columns_only(tmp_path, monkeypatch):
    # Only the Numeric Ranges section reads a maximum.
    db = make_database(tmp_path / "mixed.sqlite", (
        "CREATE TABLE t (i INTEGER, r REAL, n NUMERIC, s TEXT, b BLOB, u);\n"
        "INSERT INTO t VALUES (1, 2.5, 3, 'x', x'00', 'y');\n"
    ))
    (scan,) = [s for s in _analyze_counting_statements(monkeypatch, db) if "COUNT(*)" in s]
    assert [m for m in ("i", "r", "n", "s", "b", "u") if f'MAX("{m}")' in scan] == ["i", "r", "n"]
    assert scan.count("MIN(") == 6


def test_analyze_degrading_runs_no_further_statement(school_db, monkeypatch):
    full = analyze(school_db)
    statements = _analyze_counting_statements(monkeypatch, school_db)
    degraded = _analyze_counting_statements(
        monkeypatch, school_db, budget_tokens=full.token_estimate - 1)
    assert len(degraded) == len(statements)


def test_analyze_unreadable_file(tmp_path):
    with pytest.raises(AnalysisError):
        analyze(tmp_path / "missing.sqlite")


def test_run_agent_tool_matches_naive_extractor(naive_package_dir, school_db):
    pkg = load_package(naive_package_dir)
    result = run_agent_tool(pkg, school_db, timeout=60)
    assert result.fallback is False
    assert result.text == extract_naive_schema(school_db)


def _flooding_package(root, text: str, repeat: int):
    write_package(
        root,
        name="flood",
        tool_command="python tools/flood.py",
        tool_output_file="tool_output/out.txt",
        instructions="x\n",
        tools={"flood.py": (
            "with open('tool_output/out.txt', 'w', encoding='utf-8') as f:\n"
            f"    f.write({text!r} * {repeat})\n"
        )},
    )
    return load_package(root)


def test_run_agent_tool_reads_at_most_max_bytes(tmp_path, school_db):
    # The tool writes 8 MB; only max_bytes of it are read, so a caller whose
    # limit is one byte past its budget sees the output as over budget.
    pkg = _flooding_package(tmp_path / "flood", "x", 8_000_000)
    result = run_agent_tool(pkg, school_db, timeout=60, max_bytes=4_001)
    assert result.fallback is False
    assert result.text == "x" * 4_001
    assert estimate_tokens(result.text) > 1_000


def test_run_agent_tool_bounded_read_splitting_a_character(tmp_path, school_db):
    # A limit that cuts a two-byte character in half still decodes, and the
    # decoded text is no shorter in bytes than what was read.
    pkg = _flooding_package(tmp_path / "flood", "\u00e9", 1_000)
    result = run_agent_tool(pkg, school_db, timeout=60, max_bytes=11)
    assert result.text.startswith("\u00e9" * 5)
    assert len(result.text.encode("utf-8")) >= 11


def test_run_agent_tool_nonzero_exit_falls_back(tmp_path, school_db):
    write_package(
        tmp_path / "bad",
        name="crasher",
        tool_command="python tools/crash.py",
        tool_output_file="tool_output/out.txt",
        instructions="x\n",
        tools={"crash.py": "import sys\nsys.exit(3)\n"},
    )
    result = run_agent_tool(load_package(tmp_path / "bad"), school_db, timeout=60)
    assert result.fallback is True
    assert "exit code 3" in result.reason
    assert result.text == extract_naive_schema(school_db)


def test_run_agent_tool_missing_output_falls_back(tmp_path, school_db):
    write_package(
        tmp_path / "silent",
        name="silent",
        tool_command="python tools/noop.py",
        tool_output_file="tool_output/out.txt",
        instructions="x\n",
        tools={"noop.py": "print('did nothing')\n"},
    )
    result = run_agent_tool(load_package(tmp_path / "silent"), school_db, timeout=60)
    assert result.fallback is True
    assert "no tool_output/out.txt" in result.reason


def test_run_agent_tool_timeout_falls_back(tmp_path, school_db):
    write_package(
        tmp_path / "slow",
        name="slow",
        tool_command="python tools/sleep.py",
        tool_output_file="tool_output/out.txt",
        instructions="x\n",
        tools={"sleep.py": "import time\ntime.sleep(30)\n"},
    )
    result = run_agent_tool(load_package(tmp_path / "slow"), school_db, timeout=1.0)
    assert result.fallback is True
    assert "timeout" in result.reason


def test_run_agent_tool_fallback_also_fails(tmp_path):
    bogus = tmp_path / "junk.sqlite"
    bogus.write_text("not sqlite")
    write_package(
        tmp_path / "bad",
        name="crasher",
        tool_command="python tools/crash.py",
        tool_output_file="tool_output/out.txt",
        instructions="x\n",
        tools={"crash.py": "import sys\nsys.exit(1)\n"},
    )
    with pytest.raises(AnalysisError, match="fallback failed"):
        run_agent_tool(load_package(tmp_path / "bad"), bogus, timeout=30)


def test_run_agent_tool_isolated_workdir(tmp_path, school_db):
    # The tool sees database.sqlite in its cwd, not the original path.
    write_package(
        tmp_path / "probe",
        name="probe",
        tool_command="python tools/probe.py",
        tool_output_file="tool_output/out.txt",
        instructions="x\n",
        tools={
            "probe.py": (
                "import os\n"
                "assert os.path.exists('database.sqlite')\n"
                "open('tool_output/out.txt', 'w').write(os.getcwd())\n"
            )
        },
    )
    result = run_agent_tool(load_package(tmp_path / "probe"), school_db, timeout=60)
    assert result.fallback is False
    assert "evosql_tool_" in result.text
    assert str(school_db) not in result.text
