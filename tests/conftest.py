"""Shared fixtures: toy SQLite databases, a questions file, agent packages,
and scripted backend helpers."""

import json
import sqlite3
from dataclasses import asdict
from pathlib import Path

import pytest

from evosql import scheduler
from evosql.defaults import write_naive_package
from evosql.registry import AgentRegistry

SCHOOL_SCHEMA = """
CREATE TABLE students (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL,
    grade INTEGER,
    enrolled_on TEXT
);
CREATE TABLE clubs (
    id INTEGER PRIMARY KEY,
    club_name TEXT NOT NULL,
    fee_amount REAL
);
CREATE TABLE memberships (
    student_id INTEGER REFERENCES students(id),
    club_id INTEGER REFERENCES clubs(id)
);
INSERT INTO students VALUES
    (1, 'Ada', 3, '2021-09-01'),
    (2, 'Ben', 3, '2021-09-01'),
    (3, 'Cleo', 4, '2020-09-01'),
    (4, 'Dina', 5, '2019-09-01'),
    (5, 'Emil', 4, '2020-09-02');
INSERT INTO clubs VALUES
    (1, 'Chess', 10.0),
    (2, 'Robotics', 25.5),
    (3, 'Choir', 0.0);
INSERT INTO memberships VALUES (1, 1), (1, 2), (2, 1), (3, 3), (4, 2), (5, 1);
"""

SHOP_SCHEMA = """
CREATE TABLE products (
    sku TEXT PRIMARY KEY,
    title TEXT,
    price REAL,
    category TEXT
);
CREATE TABLE orders (
    order_id INTEGER PRIMARY KEY,
    sku TEXT REFERENCES products(sku),
    quantity INTEGER,
    ordered_at TEXT
);
INSERT INTO products VALUES
    ('AAA1', 'Lamp', 19.99, 'Home'),
    ('BBB2', 'Mug', 7.50, 'Kitchen'),
    ('CCC3', 'Desk', 120.00, 'Home'),
    ('DDD4', 'Pen', 1.25, 'Office');
INSERT INTO orders VALUES
    (1, 'AAA1', 2, '2022-01-05'),
    (2, 'BBB2', 6, '2022-01-06'),
    (3, 'AAA1', 1, '2022-02-10'),
    (4, 'DDD4', 10, '2022-02-11'),
    (5, 'CCC3', 1, '2022-03-01');
"""

FILMS_SCHEMA = """
CREATE TABLE directors (
    id INTEGER PRIMARY KEY,
    name TEXT
);
CREATE TABLE films (
    id INTEGER PRIMARY KEY,
    title TEXT,
    year INTEGER,
    rating REAL,
    director_id INTEGER REFERENCES directors(id)
);
CREATE INDEX idx_films_year ON films(year);
INSERT INTO directors VALUES (1, 'Kim'), (2, 'Lou'), (3, 'Max');
INSERT INTO films VALUES
    (1, 'Dawn', 1999, 7.5, 1),
    (2, 'Dusk', 2004, 8.1, 1),
    (3, 'Noon', 2004, 6.9, 2),
    (4, 'Night', 2010, 9.0, 3),
    (5, 'Rain', 2015, 8.8, NULL);
"""

TOY_QUESTIONS = [
    # school
    {"question_id": 1, "db_id": "school", "question": "How many students are in grade 3?",
     "evidence": "", "SQL": "SELECT COUNT(*) FROM students WHERE grade = 3",
     "difficulty": "simple"},
    {"question_id": 2, "db_id": "school", "question": "List the names of students in grade 4.",
     "evidence": "", "SQL": "SELECT name FROM students WHERE grade = 4",
     "difficulty": "simple"},
    {"question_id": 3, "db_id": "school", "question": "Which club has the highest fee?",
     "evidence": "highest fee refers to MAX(fee_amount)",
     "SQL": "SELECT club_name FROM clubs ORDER BY fee_amount DESC LIMIT 1",
     "difficulty": "simple"},
    {"question_id": 4, "db_id": "school", "question": "How many clubs is Ada a member of?",
     "evidence": "Ada refers to students.name = 'Ada'",
     "SQL": "SELECT COUNT(*) FROM memberships m JOIN students s ON m.student_id = s.id "
            "WHERE s.name = 'Ada'",
     "difficulty": "moderate"},
    {"question_id": 5, "db_id": "school", "question": "Name every club with no fee.",
     "evidence": "no fee refers to fee_amount = 0",
     "SQL": "SELECT club_name FROM clubs WHERE fee_amount = 0",
     "difficulty": "simple"},
    {"question_id": 6, "db_id": "school", "question": "How many members does the Chess club have?",
     "evidence": "", "SQL": "SELECT COUNT(*) FROM memberships m JOIN clubs c "
                            "ON m.club_id = c.id WHERE c.club_name = 'Chess'",
     "difficulty": "moderate"},
    {"question_id": 7, "db_id": "school", "question": "What is the earliest enrollment date?",
     "evidence": "", "SQL": "SELECT MIN(enrolled_on) FROM students",
     "difficulty": "simple"},
    {"question_id": 8, "db_id": "school", "question": "How many students are there in total?",
     "evidence": "", "SQL": "SELECT COUNT(*) FROM students", "difficulty": "simple"},
    {"question_id": 9, "db_id": "school", "question": "List student names enrolled in 2020.",
     "evidence": "enrolled in 2020 refers to enrolled_on LIKE '2020%'",
     "SQL": "SELECT name FROM students WHERE enrolled_on LIKE '2020%'",
     "difficulty": "simple"},
    {"question_id": 10, "db_id": "school", "question": "Which grade has the most students?",
     "evidence": "", "SQL": "SELECT grade FROM students GROUP BY grade "
                            "ORDER BY COUNT(*) DESC LIMIT 1",
     "difficulty": "moderate"},
    # shop
    {"question_id": 11, "db_id": "shop", "question": "How many orders were placed in January 2022?",
     "evidence": "January 2022 refers to ordered_at LIKE '2022-01%'",
     "SQL": "SELECT COUNT(*) FROM orders WHERE ordered_at LIKE '2022-01%'",
     "difficulty": "simple"},
    {"question_id": 12, "db_id": "shop", "question": "What is the most expensive product?",
     "evidence": "most expensive refers to MAX(price)",
     "SQL": "SELECT title FROM products ORDER BY price DESC LIMIT 1",
     "difficulty": "simple"},
    {"question_id": 13, "db_id": "shop", "question": "How many units of the Lamp were sold?",
     "evidence": "Lamp refers to products.title = 'Lamp'",
     "SQL": "SELECT SUM(o.quantity) FROM orders o JOIN products p ON o.sku = p.sku "
            "WHERE p.title = 'Lamp'",
     "difficulty": "moderate"},
    {"question_id": 14, "db_id": "shop", "question": "List all product titles in the Home category.",
     "evidence": "", "SQL": "SELECT title FROM products WHERE category = 'Home'",
     "difficulty": "simple"},
    {"question_id": 15, "db_id": "shop", "question": "How many distinct products were ordered?",
     "evidence": "", "SQL": "SELECT COUNT(DISTINCT sku) FROM orders",
     "difficulty": "simple"},
    {"question_id": 16, "db_id": "shop", "question": "What is the average product price?",
     "evidence": "", "SQL": "SELECT AVG(price) FROM products", "difficulty": "simple"},
    {"question_id": 17, "db_id": "shop", "question": "Which order had the largest quantity?",
     "evidence": "", "SQL": "SELECT order_id FROM orders ORDER BY quantity DESC LIMIT 1",
     "difficulty": "simple"},
    {"question_id": 18, "db_id": "shop", "question": "How many products cost less than 10?",
     "evidence": "cost refers to price",
     "SQL": "SELECT COUNT(*) FROM products WHERE price < 10", "difficulty": "simple"},
    # films
    {"question_id": 21, "db_id": "films", "question": "Which film has the best rating?",
     "evidence": "best rating refers to MAX(rating)",
     "SQL": "SELECT title FROM films ORDER BY rating DESC LIMIT 1",
     "difficulty": "simple"},
    {"question_id": 22, "db_id": "films", "question": "How many films were released in 2004?",
     "evidence": "", "SQL": "SELECT COUNT(*) FROM films WHERE year = 2004",
     "difficulty": "simple"},
    {"question_id": 23, "db_id": "films", "question": "List titles of films directed by Kim.",
     "evidence": "Kim refers to directors.name = 'Kim'",
     "SQL": "SELECT f.title FROM films f JOIN directors d ON f.director_id = d.id "
            "WHERE d.name = 'Kim'",
     "difficulty": "moderate"},
    {"question_id": 24, "db_id": "films", "question": "What is the average film rating?",
     "evidence": "", "SQL": "SELECT AVG(rating) FROM films", "difficulty": "simple"},
    {"question_id": 25, "db_id": "films", "question": "How many films have no director recorded?",
     "evidence": "no director refers to director_id IS NULL",
     "SQL": "SELECT COUNT(*) FROM films WHERE director_id IS NULL",
     "difficulty": "simple"},
    {"question_id": 26, "db_id": "films", "question": "Which year saw the most film releases?",
     "evidence": "", "SQL": "SELECT year FROM films GROUP BY year ORDER BY COUNT(*) DESC LIMIT 1",
     "difficulty": "moderate"},
    {"question_id": 27, "db_id": "films", "question": "List film titles released after 2005.",
     "evidence": "after 2005 refers to year > 2005",
     "SQL": "SELECT title FROM films WHERE year > 2005", "difficulty": "simple"},
]

TOY_SCHEMAS = {"school": SCHOOL_SCHEMA, "shop": SHOP_SCHEMA, "films": FILMS_SCHEMA}


def make_database(path: Path, schema_sql: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    conn = sqlite3.connect(path)
    conn.executescript(schema_sql)
    conn.commit()
    conn.close()
    return path


def make_data_root(root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    for db_id, schema in TOY_SCHEMAS.items():
        make_database(root / db_id / f"{db_id}.sqlite", schema)
    (root / "questions.json").write_text(json.dumps(TOY_QUESTIONS, indent=2))
    return root


@pytest.fixture(scope="session")
def data_root(tmp_path_factory) -> Path:
    return make_data_root(tmp_path_factory.mktemp("data"))


@pytest.fixture(scope="session")
def school_db(data_root) -> Path:
    return data_root / "school" / "school.sqlite"


@pytest.fixture(scope="session")
def naive_package_dir(tmp_path_factory) -> Path:
    return write_naive_package(tmp_path_factory.mktemp("agents") / "naive")


EVOLVED_TOOL_TEMPLATE = '''\
import sqlite3

conn = sqlite3.connect("database.sqlite")
rows = conn.execute(
    "SELECT sql || ';' FROM sqlite_master WHERE sql IS NOT NULL "
    "ORDER BY tbl_name, type DESC, name"
).fetchall()
conn.close()
with open("tool_output/analysis.txt", "w") as f:
    f.write("-- {label} --\\n" + "\\n".join(r[0] for r in rows))
'''


def make_evolution_response(name: str, label: str | None = None,
                            reasoning: str = "Merged the parents' strengths.") -> str:
    """A valid file-block protocol response for a scripted evolution backend."""
    label = label or name
    tool = EVOLVED_TOOL_TEMPLATE.format(label=label)
    manifest = (
        "---\n"
        f"name: {name}\n"
        "description: evolved schema analyzer\n"
        "execution_mode: tool_only\n"
        "tool_command: python tools/analyze.py\n"
        "tool_output_file: tool_output/analysis.txt\n"
        "---\n"
        "\n"
        "Evolved analyzer package.\n"
    )
    instructions = (
        "# SQL Generation Instructions\n\n"
        "Output exactly one SQLite query with no fences or prose.\n"
        "Follow the evidence hint literally. Select only requested columns.\n"
    )
    return (
        "Here is the new package.\n"
        "```file=agent.md\n" + manifest + "```\n"
        "```file=eval_instructions.md\n" + instructions + "```\n"
        "```file=tools/analyze.py\n" + tool + "```\n"
        "```file=reasoning.md\n" + reasoning + "\n```\n"
    )


def record_iteration_steps(monkeypatch) -> list[tuple[str, int]]:
    """Record each call of the shared roster and settle steps as (step
    name, iteration), in call order. The settle step is not told its
    iteration, so its calls are numbered in the order they come."""
    calls = []
    roster_step, settle_step = scheduler.roster_for_iteration, scheduler.settle_iteration

    def roster(iteration, *args, **kwargs):
        calls.append(("roster_for_iteration", iteration))
        return roster_step(iteration, *args, **kwargs)

    def settle(*args, **kwargs):
        settled = sum(name == "settle_iteration" for name, _ in calls)
        calls.append(("settle_iteration", settled + 1))
        return settle_step(*args, **kwargs)

    monkeypatch.setattr(scheduler, "roster_for_iteration", roster)
    monkeypatch.setattr(scheduler, "settle_iteration", settle)
    return calls


def steps_per_iteration(iterations: int) -> list[tuple[str, int]]:
    """What record_iteration_steps holds after iterations 1..iterations."""
    return [(name, iteration) for iteration in range(1, iterations + 1)
            for name in ("roster_for_iteration", "settle_iteration")]


def record_fields(registry: AgentRegistry) -> dict:
    """Every AgentRecord field by agent id, each rating as float.hex(), and
    beside each the registry's winners, sorted."""
    return {agent_id: dict(asdict(record), rating=(record.rating.value.hex(), record.rating.games),
                           winners=sorted(registry.winners))
            for agent_id, record in registry.records.items()}
