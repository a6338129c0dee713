"""Benchmark-owned backends: a tagged oracle, a latency-injected scripted
generation backend, and generated evolution fixtures whose tools are
deterministic scripts."""

import hashlib
import time

from evosql.backends import OracleGenerationBackend, ScriptedEvolutionBackend
from evosql.pipeline import CORRECT_SENTINEL, extract_question


class TaggedOracleBackend(OracleGenerationBackend):
    """The oracle, with a comment that names the prompt in front of each SQL
    reply.

    The built-in oracle gives every agent the gold SQL's exact text, so every
    prediction repeats the (database, SQL) pair of a gold execution, which
    real generation seldom does. The tag keeps every answer correct but makes
    the text differ from the gold SQL and between agents whose prompts
    differ. A (database, SQL) pair then repeats where the program re-runs
    SQL it has already run: the scoring re-run of the final SQL and Deep
    Focus re-running gold.
    """

    identity = "perfbench-oracle"

    def complete(self, system_text: str, conversation: list[dict], temperature: float) -> str:
        reply = super().complete(system_text, conversation, temperature)
        if reply == CORRECT_SENTINEL:
            return reply
        tag = hashlib.sha256(system_text.encode("utf-8")).hexdigest()[:16]
        return f"/* {tag} */ {reply}"


PATH_ACCEPT = "accept"
PATH_REVISE = "revise"
PATH_ERROR = "error_retry"
PATHS = (PATH_ACCEPT, PATH_REVISE, PATH_ERROR)

# Backend calls each path makes with max_rounds=2: the first generation plus
# one verification that accepts; a wrong first try, one revision to the gold
# SQL and its acceptance; or three broken queries, after which the alerted
# retry answers with valid SQL that returns nothing.
EXPECTED_CALLS = {PATH_ACCEPT: 2, PATH_REVISE: 3, PATH_ERROR: 4}
# Whether the path's final SQL matches gold.
EXPECTED_MATCH = {PATH_ACCEPT: True, PATH_REVISE: True, PATH_ERROR: False}


def reply_path(question: str) -> str:
    """Which of the three pipeline paths a question takes. A content hash,
    not hash(), so the choice is the same in every process."""
    digest = hashlib.sha256(question.encode("utf-8")).digest()
    return PATHS[digest[0] % len(PATHS)]


def _script(gold_sql: str, path: str) -> list[str]:
    empty = f"SELECT * FROM ({gold_sql}) WHERE 0"
    broken = "SELEC" + gold_sql[len("SELECT"):]
    if path == PATH_ACCEPT:
        return [gold_sql, CORRECT_SENTINEL]
    if path == PATH_REVISE:
        return [empty, gold_sql, CORRECT_SENTINEL]
    return [broken, broken, broken, empty]


class LatencyScriptBackend:
    """Sleeps a fixed latency per call, then replies with a pure function of
    (question, assistant-turn index).

    It holds no mutable state, so it is thread-safe and gives the same reply
    sequence after a resume, whatever order worker threads call it in.
    """

    identity = "perfbench-latency"

    def __init__(self, question_pool: dict, latency_s: float):
        self.latency_s = latency_s
        self._scripts = {
            item.question: _script(item.gold_sql, reply_path(item.question))
            for items in question_pool.values()
            for item in items
        }

    def complete(self, system_text: str, conversation: list[dict], temperature: float) -> str:
        time.sleep(self.latency_s)
        script = self._scripts[extract_question(system_text)]
        turn = sum(1 for m in conversation if m["role"] == "assistant")
        return script[min(turn, len(script) - 1)]


TOOL_TEMPLATE = '''\
import sqlite3

conn = sqlite3.connect("database.sqlite")
lines = ["-- {label} --"]
tables = [name for (name,) in conn.execute(
    "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name")]
for (sql,) in conn.execute(
        "SELECT sql FROM sqlite_master WHERE sql IS NOT NULL ORDER BY tbl_name, name"):
    lines.append(sql + ";")
for name in tables:
    count = conn.execute('SELECT COUNT(*) FROM "' + name + '"').fetchone()[0]
    lines.append(f"-- {{name}}: {{count}} rows")
conn.close()
with open("tool_output/analysis.txt", "w") as f:
    f.write("\\n".join(lines) + "\\n")
'''


def _evolution_response(name: str, label: str) -> str:
    manifest = (
        "---\n"
        f"name: {name}\n"
        "description: schema and row-count analyzer\n"
        "execution_mode: tool_only\n"
        "tool_command: python tools/analyze.py\n"
        "tool_output_file: tool_output/analysis.txt\n"
        "---\n\n"
        "Dumps the DDL and each table's row count.\n"
    )
    instructions = (
        "# SQL Generation Instructions\n\n"
        "Output exactly one SQLite query with no fences or prose.\n"
        f"Prefer the grouping keys listed in the analysis ({label}).\n"
    )
    return (
        "```file=agent.md\n" + manifest + "```\n"
        "```file=eval_instructions.md\n" + instructions + "```\n"
        "```file=tools/analyze.py\n" + TOOL_TEMPLATE.format(label=label) + "```\n"
        f"```file=reasoning.md\nGeneration {label}: row counts help size GROUP BY answers.\n```\n"
    )


def evolution_backend(iterations: int) -> ScriptedEvolutionBackend:
    """A fresh scripted evolution backend: one proposal and one Deep Focus
    refinement for every iteration from 2 on. The refinement changes the
    tool's label, so the refined package's tool output differs from the
    proposal's."""
    return ScriptedEvolutionBackend({
        iteration: [
            _evolution_response(f"gen{iteration}", f"gen{iteration} proposal"),
            _evolution_response(f"gen{iteration}", f"gen{iteration} refined"),
        ]
        for iteration in range(2, iterations + 1)
    })
