"""Tests for the size-adaptive database analyzer and tool runner."""

import hashlib
import re
import sqlite3
import sys
import threading
import time

import pytest

from evosql import analyzer
from evosql.analyzer import (
    OMITTED_STUB,
    SECTION_TITLES,
    TIER_CONFIGS,
    analyze,
    classify_size,
)
from evosql.errors import AnalysisError, BudgetExceededError
from evosql.registry import load_package, write_package
from evosql.toolrun import estimate_tokens, extract_naive_schema, run_agent_tool
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


@pytest.mark.parametrize("reference,reason", [
    ("missing(id)", "no table missing"),
    ("parent(nope)", "no column parent.nope"),
])
def test_analyze_dangling_foreign_key(tmp_path, reference, reason):
    # SQLite accepts a reference to a parent key that does not exist while
    # foreign keys are not enforced; the key is shown, not counted.
    db = make_database(tmp_path / "dangling.sqlite", f"""
        CREATE TABLE parent (id INTEGER PRIMARY KEY);
        CREATE TABLE child (id INTEGER PRIMARY KEY, pid INTEGER REFERENCES {reference});
        INSERT INTO parent VALUES (1);
        INSERT INTO child VALUES (1, 1), (2, 7);
        """)
    sections = dict(analyze(db).sections)
    label = f"child.pid -> {reference.replace('(', '.').rstrip(')')}"
    assert f"- {label} (one-to-one; dangling: {reason})" in sections["Foreign Key Relationships"]
    assert (f"- {label}: dangling ({reason}), orphans not counted"
            in sections["Cross-Table Validation"])


def test_analyze_implicit_key_of_a_missing_table_is_dangling(tmp_path):
    # With no parent table there is no primary key to pair pid with, so the
    # parent side is labelled by the table name alone.
    db = make_database(tmp_path / "implicit.sqlite", """
        CREATE TABLE child (id INTEGER PRIMARY KEY, pid INTEGER REFERENCES missing);
        INSERT INTO child VALUES (1, 1), (2, 1);
        """)
    sections = dict(analyze(db).sections)
    assert (sections["Foreign Key Relationships"]
            == "- child.pid -> missing (one-to-many; dangling: no table missing)")
    assert (sections["Cross-Table Validation"]
            == "- child.pid -> missing: dangling (no table missing), orphans not counted")


def test_analyze_parent_key_matches_without_case(tmp_path):
    db = make_database(tmp_path / "case.sqlite", """
        CREATE TABLE Parent (ID INTEGER PRIMARY KEY);
        CREATE TABLE child (pid INTEGER REFERENCES parent(id));
        INSERT INTO Parent VALUES (1);
        INSERT INTO child VALUES (1), (2);
        """)
    sections = dict(analyze(db).sections)
    assert "dangling" not in sections["Foreign Key Relationships"]
    assert "child.pid -> parent.id: 1 orphaned rows" in sections["Cross-Table Validation"]


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


def _make_ultra_db(path):
    """9 tables x 51 columns, past the Ultra cutoff. Numeric columns of
    every affinity hold numbers or NULL, except t0.status (INTEGER) holding
    'Active' and t0.weight (REAL) holding a blob; TEXT columns hold lower
    case only, so only t0.status can make the case-sensitivity guidance."""
    kinds = (
        ("INTEGER", lambda r, c: (r * c) % 5),
        ("INTEGER", lambda r, c: r * 37 + c),
        ("REAL", lambda r, c: round(r * 0.25 + c, 2)),
        ("NUMERIC", lambda r, c: None if r % 3 == 0 else r % 4 + 0.5),
        ("INTEGER", lambda r, c: None),
        ("TEXT", lambda r, c: f"'v{(r + c) % 7}'"),
        ("TEXT", lambda r, c: f"'2020-01-{r % 28 + 1:02d}'"),
    )
    statements = []
    for t in range(9):
        columns = [(f"{'ihrnesd'[c % 7]}{c}", *kinds[c % 7]) for c in range(50)]
        if t == 0:
            columns[0] = ("status", "INTEGER", lambda r, c: "'Active'" if r % 4 == 0 else r % 3)
            columns[2] = ("weight", "REAL", lambda r, c: "x'00ff'" if r == 7 else r * 1.5)
        decl = ", ".join(f"{name} {declared}" for name, declared, _ in columns)
        statements.append(f"CREATE TABLE t{t} (id INTEGER PRIMARY KEY, {decl});")
        for r in range(30):
            values = ", ".join("NULL" if (v := value(r, c)) is None else str(v)
                               for c, (_, _, value) in enumerate(columns))
            statements.append(f"INSERT INTO t{t} VALUES ({r}, {values});")
    return make_database(path, "\n".join(statements))


_DISTINCT_RE = re.compile(r'^SELECT DISTINCT "([^"]+)" FROM "([^"]+)"')


def test_analyze_ultra_probes_only_columns_that_can_hold_text(tmp_path, monkeypatch):
    # At Ultra only the case-sensitivity guidance reads a distinct probe,
    # and only its text values.
    db = _make_ultra_db(tmp_path / "ultra.sqlite")
    statements = _analyze_counting_statements(monkeypatch, db)
    probed = {m.group(2, 1) for s in statements if (m := _DISTINCT_RE.match(s))}
    conn = sqlite3.connect(db)
    text_columns = {(t, name) for (t,) in conn.execute("SELECT name FROM sqlite_master")
                    for _, name, declared, *_ in conn.execute(f"PRAGMA table_info({t})")
                    if declared == "TEXT"}
    conn.close()
    assert len(text_columns) == 9 * 14
    assert probed == text_columns | {("t0", "status"), ("t0", "weight")}
    analysis = analyze(db)
    assert analysis.tier.tier == "Ultra"
    assert "String comparisons are case-sensitive" in analysis.text


def test_analyze_ultra_text_is_pinned(tmp_path):
    # Recorded from the analyzer that probed every column at every tier.
    text = analyze(_make_ultra_db(tmp_path / "ultra.sqlite")).text
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8ee93f27e0a83c9a0b562fe322f46a052e4bb1e7bdf74916ca357b9126e9b571")


def test_analyze_degrading_runs_no_further_statement(school_db, monkeypatch):
    full = analyze(school_db)
    statements = _analyze_counting_statements(monkeypatch, school_db)
    degraded = _analyze_counting_statements(
        monkeypatch, school_db, budget_tokens=full.token_estimate - 1)
    assert len(degraded) == len(statements)


def test_analyze_unreadable_file(tmp_path):
    with pytest.raises(AnalysisError):
        analyze(tmp_path / "missing.sqlite")


def _failing_aggregates(monkeypatch, fail: dict[str, float]):
    """Gather on four CPUs, and make the aggregate step of each table in
    fail raise after sleeping its value in seconds."""
    aggregates = analyzer._column_aggregates

    def failing(conn, table, columns):
        if table in fail:
            time.sleep(fail[table])
            raise sqlite3.OperationalError(f"no aggregates for {table}")
        return aggregates(conn, table, columns)

    monkeypatch.setattr(analyzer, "_column_aggregates", failing)
    monkeypatch.setattr(analyzer, "_cpu_count", lambda: 4)


def test_analyze_failing_table_is_an_analysis_error_and_leaves_no_thread(
        tmp_path, monkeypatch):
    db = _make_numeric_db(tmp_path / "four.sqlite", 4, 3)
    _failing_aggregates(monkeypatch, {"t2": 0.0})
    threads = threading.active_count()
    with pytest.raises(AnalysisError, match="no aggregates for t2"):
        analyze(db)
    assert threading.active_count() == threads


def test_analyze_reports_the_first_failing_table_in_table_order(tmp_path, monkeypatch):
    # t0 fails last in time but first in table order.
    db = _make_numeric_db(tmp_path / "four.sqlite", 4, 3)
    _failing_aggregates(monkeypatch, {"t0": 0.2, "t2": 0.0, "t3": 0.0})
    with pytest.raises(AnalysisError, match="no aggregates for t0$"):
        analyze(db)


def test_analyze_text_does_not_depend_on_the_cpu_count(tmp_path, school_db, monkeypatch):
    # 8 threads switching every 10 us: a table taken twice or never would
    # change the text or fail the merge.
    databases = [school_db, _make_numeric_db(tmp_path / "six.sqlite", 6, 4),
                 _make_wide_db(tmp_path / "wide.sqlite", 25, 19)]
    texts = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cpus in (1, 4, 8):
            monkeypatch.setattr(analyzer, "_cpu_count", lambda: cpus)
            threads = threading.active_count()
            texts[cpus] = [analyze(db).text for db in databases]
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)
    assert texts[1] == texts[4] == texts[8]


def test_analyze_table_connection_that_cannot_open_is_an_analysis_error(
        tmp_path, monkeypatch):
    db = _make_numeric_db(tmp_path / "four.sqlite", 4, 3)
    connect = analyzer._analysis_connection
    lock, opened = threading.Lock(), []

    def failing_second(path):
        with lock:
            opened.append(path)
            if len(opened) == 2:
                raise sqlite3.OperationalError("unable to open database file")
        return connect(path)

    monkeypatch.setattr(analyzer, "_analysis_connection", failing_second)
    monkeypatch.setattr(analyzer, "_cpu_count", lambda: 4)
    threads = threading.active_count()
    with pytest.raises(AnalysisError, match="unable to open database file$"):
        analyze(db)
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 4])
def test_analyze_closes_every_connection_it_opens(tmp_path, monkeypatch, cpus):
    db = _make_numeric_db(tmp_path / "six.sqlite", 6, 3)
    connect = analyzer._connect_readonly
    opened, closed = [], []

    class Counted:
        def __init__(self, conn):
            self.conn = conn

        def __getattr__(self, name):
            return getattr(self.conn, name)

        def close(self):
            closed.append(self)
            self.conn.close()

    def counting(path):
        conn = Counted(connect(path))
        opened.append(conn)
        return conn

    monkeypatch.setattr(analyzer, "_connect_readonly", counting)
    monkeypatch.setattr(analyzer, "_cpu_count", lambda: cpus)
    analyze(db)
    # One for the schema and one per table, whatever the CPU count.
    assert len(opened) == 7
    assert sorted(map(id, closed)) == sorted(map(id, opened))


def test_run_agent_tool_matches_naive_extractor(naive_package_dir, school_db):
    pkg = load_package(naive_package_dir)
    result = run_agent_tool(pkg, school_db, timeout=60)
    assert result.fallback is False
    assert result.text == extract_naive_schema(school_db)


def test_run_agent_tool_fallback_naive_package_runs_no_tool(tmp_path, school_db):
    # A fallback_naive package is answered by the naive extractor, and its
    # tool, which would leave a marker file, never runs.
    marker = tmp_path / "tool_ran"
    pkg = load_package(write_package(
        tmp_path / "pkg",
        name="naive_mode",
        execution_mode="fallback_naive",
        tool_command="python tools/mark.py",
        tool_output_file="tool_output/out.txt",
        instructions="x\n",
        tools={"mark.py": f"open({str(marker)!r}, 'w').close()\n"},
    ))
    result = run_agent_tool(pkg, school_db, timeout=60)
    assert result.text == extract_naive_schema(school_db)
    assert result.fallback is False and result.reason is None
    assert not marker.exists()


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


def test_run_agent_tool_reads_one_byte_past_the_budget(tmp_path, school_db):
    # The tool writes 8 MB; only the budget's 4,000 bytes plus one are read,
    # 1,001 tokens, so the output is over budget and the pair is blocked.
    pkg = _flooding_package(tmp_path / "flood", "x", 8_000_000)
    result = run_agent_tool(pkg, school_db, timeout=60, token_budget=1_000)
    assert result.fallback is False
    assert result.text is None
    assert result.reason == "analysis over token budget (1001)"


def test_run_agent_tool_bounded_read_splitting_a_character(tmp_path, school_db):
    # A budget of 2 tokens reads 9 bytes, cutting the fifth two-byte
    # character in half. The cut still decodes, and the decoded text is no
    # shorter in bytes than what was read: 4 characters and a replacement
    # character make 11 bytes, 3 tokens, so it stays over budget.
    pkg = _flooding_package(tmp_path / "flood", "\u00e9", 1_000)
    result = run_agent_tool(pkg, school_db, timeout=60, token_budget=2)
    assert result.text is None
    assert result.reason == "analysis over token budget (3)"


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


def _blank_output_package(root):
    write_package(
        root,
        name="blank",
        tool_command="python tools/blank.py",
        tool_output_file="tool_output/out.txt",
        instructions="x\n",
        tools={"blank.py": "open('tool_output/out.txt', 'w').write(' \\n\\t\\n')\n"},
    )
    return load_package(root)


def test_run_agent_tool_blank_output_falls_back(tmp_path, school_db):
    result = run_agent_tool(_blank_output_package(tmp_path / "blank"), school_db, timeout=60)
    assert result.fallback is True
    assert result.reason == "tool wrote an empty tool_output/out.txt"
    assert result.text == extract_naive_schema(school_db)


def test_run_agent_tool_blank_naive_fallback_blocks_the_pair(tmp_path):
    # A database with no schema gives a blank naive extraction too.
    empty_db = tmp_path / "empty.sqlite"
    sqlite3.connect(empty_db).close()
    result = run_agent_tool(_blank_output_package(tmp_path / "blank"), empty_db, timeout=60)
    assert result.text is None
    assert "tool failed (tool wrote an empty" in result.reason
    assert "has no schema" in result.reason


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
    result = run_agent_tool(load_package(tmp_path / "bad"), bogus, timeout=30)
    assert result.text is None
    assert "tool failed (exit code 1" in result.reason and "fallback failed" in result.reason


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
