"""The run loop does not depend on the reference analyzer.

analyzer.py holds analyze(), which the run loop never calls; the loop runs
agents' tools through toolrun.py. These tests read each module's imports
from its source, since importing evosql loads every module.
"""

import ast
from pathlib import Path

import pytest

import evosql

SOURCE = Path(evosql.__file__).parent
RUN_LOOP = ("orchestrator", "harness", "pipeline", "evolution", "scheduler", "toolrun")


def evosql_imports(path: Path) -> set[str]:
    """The evosql modules that the source file at path imports, by short
    name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("evosql."))
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name != "evosql" and not name.startswith("evosql."):
                    continue
                name = name.removeprefix("evosql").lstrip(".")
            if name:
                found.add(name.split(".")[0])
            else:  # from . import x, from evosql import x
                found.update(alias.name for alias in node.names)
    return found


def test_evosql_imports_reads_every_form(tmp_path):
    (tmp_path / "probe.py").write_text(
        "import os\nimport evosql.a\nfrom evosql import b\nfrom evosql.c import x\n"
        "from . import d\nfrom .e import y\nfrom json import loads\n"
    )
    assert evosql_imports(tmp_path / "probe.py") == {"a", "b", "c", "d", "e"}
    assert {"harness", "toolrun"} <= evosql_imports(SOURCE / "analyzer.py")


@pytest.mark.parametrize("module", RUN_LOOP)
def test_run_loop_does_not_import_the_analyzer(module):
    assert "analyzer" not in evosql_imports(SOURCE / f"{module}.py")


def test_tool_runner_imports_neither_harness_nor_analyzer():
    assert not evosql_imports(SOURCE / "toolrun.py") & {"harness", "analyzer"}
