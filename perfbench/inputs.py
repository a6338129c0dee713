"""Deterministic workload inputs, built with sqlite3 only.

Every build function takes the workload seed and writes its files under a directory
of its own. A finished build leaves an ``inputs.json`` manifest with the
input sizes; a later call for the same (workload, seed, size) finds the
manifest and reuses the files, so building inputs never lands inside a timed
region. Values are drawn from ``random.Random(seed)``; the shapes (tables,
columns, rows, value cardinalities, query templates) are fixed per size so
that costs stay comparable across seeds.
"""

import argparse
import json
import random
import shutil
import sqlite3
import sys
from pathlib import Path

MANIFEST = "inputs.json"

# Per-size shapes. "full" is what the benchmark measures; "tiny" keeps the
# smoke test fast while walking every code path.
SIZES = {
    "full": {
        "sql_databases": 2,
        "sql_tables": 3,
        "sql_rows": 4000,
        "sql_questions": 10,
        "llm_databases": 1,
        "llm_questions": 8,
        "llm_rows": 40,
        "wide_tables": 10,
        "wide_columns": 51,
        "wide_rows": 5000,
        "sim_agents": 6,
        "sim_databases": 6,
        "sim_evolve_iterations": 1000,
        "sim_battery_seeds": 8,
        "sim_battery_iterations": 250,
    },
    "tiny": {
        "sql_databases": 2,
        "sql_tables": 2,
        "sql_rows": 300,
        "sql_questions": 3,
        "llm_databases": 1,
        "llm_questions": 4,
        "llm_rows": 10,
        "wide_tables": 9,
        "wide_columns": 51,
        "wide_rows": 40,
        "sim_agents": 3,
        "sim_databases": 3,
        "sim_evolve_iterations": 60,
        "sim_battery_seeds": 2,
        "sim_battery_iterations": 30,
    },
}

SQL_COLUMNS = 8
# Distinct values per grouping column of a synthetic table: the GROUP BY
# gold queries return this many rows.
GROUP_CARDINALITIES = (10, 100, 400, 1000, 2000)


def _cached(root: Path, build) -> dict:
    """Return the manifest under root, building the inputs first if needed."""
    manifest_path = root / MANIFEST
    if manifest_path.is_file():
        return json.loads(manifest_path.read_text())
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    manifest = build(root)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _sizes_of(data_root: Path, databases: list[str], questions: int) -> dict:
    tables = columns = rows = db_bytes = 0
    for db_id in databases:
        path = data_root / db_id / f"{db_id}.sqlite"
        db_bytes += path.stat().st_size
        conn = sqlite3.connect(path)
        try:
            names = [n for (n,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name")]
            tables += len(names)
            for name in names:
                columns += len(conn.execute(f'PRAGMA table_info("{name}")').fetchall())
                rows += conn.execute(f'SELECT COUNT(*) FROM "{name}"').fetchone()[0]
        finally:
            conn.close()
    return {
        "databases": len(databases),
        "db_bytes": db_bytes,
        "tables": tables,
        "columns": columns,
        "rows": rows,
        "questions": questions,
    }


def _write_int_database(path: Path, rng: random.Random, tables: int, rows: int) -> None:
    """Integer tables t1..tN: id, g1..g5 (grouping keys with fixed
    cardinalities), v1, v2 (wide-range values)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(path)
    try:
        for t in range(1, tables + 1):
            groups = ", ".join(f"g{i} INTEGER" for i in range(1, len(GROUP_CARDINALITIES) + 1))
            conn.execute(f"CREATE TABLE t{t} (id INTEGER PRIMARY KEY, {groups}, "
                         "v1 INTEGER, v2 INTEGER)")
            conn.executemany(
                f"INSERT INTO t{t} VALUES ({', '.join('?' * SQL_COLUMNS)})",
                (
                    (i, *(rng.randrange(c) for c in GROUP_CARDINALITIES),
                     rng.randrange(1_000_000), rng.randrange(-5000, 5000))
                    for i in range(1, rows + 1)
                ),
            )
        conn.commit()
    finally:
        conn.close()


def _group_by_questions(db_id: str, tables: int, count: int, first_id: int) -> list[dict]:
    """GROUP BY gold queries over grouping keys g2..g5, which return
    hundreds to thousands of rows each. The db id is part of the question
    text so every question in the pool is unique (the oracle backend keys
    gold SQL by question text)."""
    templates = []
    for key in range(2, len(GROUP_CARDINALITIES) + 1):
        for t in range(1, tables + 1):
            templates.append((
                f"In {db_id}, for each g{key} of t{t}, how many rows are there and what "
                "is the total v1?",
                f"SELECT g{key}, COUNT(*), SUM(v1) FROM t{t} GROUP BY g{key}",
            ))
            templates.append((
                f"In {db_id}, for each g{key} of t{t} with positive v2, what is the "
                "largest v1?",
                f"SELECT g{key}, MAX(v1) FROM t{t} WHERE v2 > 0 GROUP BY g{key}",
            ))
    # Stride 7 is coprime with the template count (8 per table), so picks
    # are distinct and a short prefix already mixes keys and tables.
    picked = [templates[(i * 7) % len(templates)] for i in range(count)]
    return [
        {"question_id": first_id + i, "db_id": db_id, "question": text, "evidence": "",
         "SQL": sql, "difficulty": "moderate"}
        for i, (text, sql) in enumerate(picked)
    ]


def build_sql_pool(root: Path, seed: int, size: str) -> dict:
    """The tournament_sql pool: integer databases and GROUP BY questions."""
    shape = SIZES[size]

    def build(dest: Path) -> dict:
        rng = random.Random(f"sql:{seed}")
        data_root = dest / "data"
        databases = [f"db{i:02d}" for i in range(shape["sql_databases"])]
        questions = []
        for db_id in databases:
            _write_int_database(data_root / db_id / f"{db_id}.sqlite", rng,
                                shape["sql_tables"], shape["sql_rows"])
            questions += _group_by_questions(db_id, shape["sql_tables"],
                                             shape["sql_questions"], len(questions) + 1)
        (data_root / "questions.json").write_text(json.dumps(questions, indent=1))
        return {"data_root": "data", "databases": databases,
                "questions_per_database": shape["sql_questions"],
                "sizes": _sizes_of(data_root, databases, len(questions))}

    return _cached(root, build)


def build_llm_pool(root: Path, seed: int, size: str) -> dict:
    """The tournament_llm_resume pool: tiny databases where SQL is cheap."""
    shape = SIZES[size]

    def build(dest: Path) -> dict:
        rng = random.Random(f"llm:{seed}")
        data_root = dest / "data"
        databases = [f"tiny{i:02d}" for i in range(shape["llm_databases"])]
        questions = []
        for db_id in databases:
            path = data_root / db_id / f"{db_id}.sqlite"
            path.parent.mkdir(parents=True)
            conn = sqlite3.connect(path)
            conn.execute("CREATE TABLE items (id INTEGER PRIMARY KEY, kind INTEGER, "
                         "price INTEGER, stock INTEGER)")
            # kind cycles 0..3 so every gold query below returns rows: an
            # empty gold result would trigger the pipeline's alert retry and
            # break the reply script's predicted call counts.
            conn.executemany("INSERT INTO items VALUES (?, ?, ?, ?)", [
                (i, i % 4, rng.randrange(1, 100), rng.randrange(50))
                for i in range(1, shape["llm_rows"] + 1)
            ])
            conn.commit()
            conn.close()
            for n in range(shape["llm_questions"]):
                qid = len(questions) + 1
                questions.append({
                    "question_id": qid, "db_id": db_id,
                    "question": f"In {db_id}, what are the {n + 1} cheapest items of kind "
                                f"{n % 4} (question {qid})?",
                    "evidence": "",
                    "SQL": f"SELECT id, price FROM items WHERE kind = {n % 4} "
                           f"ORDER BY price, id LIMIT {n + 1}",
                    "difficulty": "simple",
                })
        (data_root / "questions.json").write_text(json.dumps(questions, indent=1))
        return {"data_root": "data", "databases": databases,
                "questions_per_database": shape["llm_questions"],
                "sizes": _sizes_of(data_root, databases, len(questions))}

    return _cached(root, build)


def _wide_column(rng: random.Random, index: int, rows: int):
    """(name, declared type, values) for one column of a wide table: one
    column in ten each holds ISO dates, fixed-length codes or reals, so the
    analyzer's format probes have work; the rest are integers of varied
    cardinality."""
    kind = index % 10
    if kind == 0:
        base = rng.randrange(2000, 2020)
        return (f"c{index}_date", "TEXT",
                [f"{base + rng.randrange(4)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"
                 for _ in range(rows)])
    if kind == 5:
        return (f"c{index}_code", "TEXT",
                ["".join(rng.choice("ABCDEFGH") for _ in range(2)) + f"{rng.randrange(100):02d}"
                 for _ in range(rows)])
    if kind == 7:
        return (f"c{index}_amount", "REAL",
                [round(rng.uniform(0, 1000), 2) for _ in range(rows)])
    cardinality = (5, 50, 5000)[index % 3]
    return (f"c{index}_n", "INTEGER", [rng.randrange(cardinality) for _ in range(rows)])


def build_wide_database(root: Path, seed: int, size: str) -> dict:
    """The wide_schema input: tables x columns (id included) x rows in one
    database, past the analyzer's Ultra tier at full size."""
    shape = SIZES[size]

    def build(dest: Path) -> dict:
        rng = random.Random(f"wide:{seed}")
        data_root = dest / "data"
        path = data_root / "wide" / "wide.sqlite"
        path.parent.mkdir(parents=True)
        conn = sqlite3.connect(path)
        rows = shape["wide_rows"]
        for t in range(shape["wide_tables"]):
            columns = [_wide_column(rng, c, rows) for c in range(1, shape["wide_columns"])]
            decl = ", ".join(f"{name} {typ}" for name, typ, _ in columns)
            conn.execute(f"CREATE TABLE w{t:02d} (id INTEGER PRIMARY KEY, {decl})")
            conn.executemany(
                f"INSERT INTO w{t:02d} VALUES ({', '.join('?' * (len(columns) + 1))})",
                zip(range(1, rows + 1), *(values for _, _, values in columns)),
            )
        conn.commit()
        conn.close()
        questions = [{"question_id": 1, "db_id": "wide", "question": "How many rows has w00?",
                      "evidence": "", "SQL": "SELECT COUNT(*) FROM w00",
                      "difficulty": "simple"}]
        (data_root / "questions.json").write_text(json.dumps(questions, indent=1))
        return {"data_root": "data", "database": "data/wide/wide.sqlite",
                "sizes": _sizes_of(data_root, ["wide"], len(questions))}

    return _cached(root, build)


BUILDS = {
    "tournament_sql": build_sql_pool,
    "tournament_llm_resume": build_llm_pool,
    "wide_schema": build_wide_database,
}


def main(argv=None) -> int:
    """Build one workload's inputs; run as a child process so the memory the
    build touches never shows in the workload process's peak RSS."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BUILDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--dest", type=Path, required=True)
    args = parser.parse_args(argv)
    BUILDS[args.workload](args.dest, args.seed, args.size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
