"""Built-in artifacts: the naive baseline agent package and the default
cross-pollination evolution strategy.

These are materialized on demand so the package ships no loose data files.
The naive agent is the canonical starting population: a manifest, minimal
SQL-generation instructions, and a raw-DDL dump tool.
"""

from pathlib import Path

from .registry import write_package

NAIVE_AGENT_NAME = "naive"

NAIVE_TOOL_COMMAND = "python tools/extract_schema.py"
NAIVE_TOOL_OUTPUT = "tool_output/schema.txt"

NAIVE_MANIFEST_BODY = """\
# Naive DDL Extractor

Runs tools/extract_schema.py against database.sqlite and publishes the raw
schema dump as the database analysis. No model calls are made at analysis
time.
"""

NAIVE_EVAL_INSTRUCTIONS = """\
# SQL Generation Instructions

Write one executable SQLite query.

- Output only the SQL statement: no markdown fences, no comments, no prose.
- When an evidence hint is provided, follow it literally.
- Use SQLite syntax and built-in functions only.
- Return exactly the columns the question asks for, nothing extra.
"""

NAIVE_EXTRACT_SCHEMA = '''\
#!/usr/bin/env python3
"""Dump raw DDL for every schema object in database.sqlite."""
import sqlite3
import sys


def main() -> int:
    try:
        conn = sqlite3.connect("database.sqlite")
        rows = conn.execute(
            "SELECT sql || ';' FROM sqlite_master "
            "WHERE sql IS NOT NULL "
            "ORDER BY tbl_name, type DESC, name"
        ).fetchall()
        conn.close()
        with open("tool_output/schema.txt", "w") as f:
            f.write("\\n".join(sql for (sql,) in rows))
        print(f"wrote {len(rows)} DDL statements")
        return 0
    except Exception as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
'''

DEFAULT_STRATEGY = """\
# Cross-Pollination Evolution Strategy

You are creating a new text-to-SQL agent package, primarily by
combining successful elements from multiple existing agents.

## Approach

1. Study the parent packages in this context. Which analysis techniques and
   instruction patterns does each agent use effectively? How do they
   complement each other?
2. Read the latest error analysis report. Which failure patterns repeat,
   and which agent avoided them?
3. Build one new package that merges the complementary strengths and
   addresses the dominant error patterns. You may add an idea of your own
   when you see a clear opportunity.

## Requirements

- The analysis tool must be a deterministic script (no model calls at
  analysis time) that writes its complete output to the declared output
  file. It runs in a working directory containing database.sqlite.
- Keep the eval instructions focused: overlong instructions dilute
  attention and burn token budget.
- Emit every file of the package, one fenced block per file, opened with
  ```file=<relative path> and closed with ``` alone. Required files:
  agent.md (key: value frontmatter between --- lines), eval_instructions.md,
  and any tools/ scripts referenced by the manifest's tool_command.
- Also emit reasoning.md documenting the analysis behind your design.
"""


def write_naive_package(dest_dir: str | Path) -> Path:
    """Materialize the naive baseline agent package into dest_dir."""
    return write_package(
        dest_dir,
        name=NAIVE_AGENT_NAME,
        description="Baseline agent that dumps raw DDL schema via tool-only execution",
        execution_mode="tool_only",
        tool_command=NAIVE_TOOL_COMMAND,
        tool_output_file=NAIVE_TOOL_OUTPUT,
        body=NAIVE_MANIFEST_BODY,
        instructions=NAIVE_EVAL_INSTRUCTIONS,
        tools={"extract_schema.py": NAIVE_EXTRACT_SCHEMA},
    )
