"""What evosql imports.

The run loop does not depend on the reference analyzer: analyzer.py holds
analyze(), which the run loop never calls; the loop runs agents' tools
through toolrun.py. These tests read each module's imports from its source,
since importing evosql loads every module.

The HTTP stack loads only when an HTTP backend is built, which a fresh
interpreter shows.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evosql
from tests.conftest import make_evolution_response

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


HTTP_STACK = ("ssl", "http.client", "urllib.request", "email.utils")

LOADED_AFTER_A_RUN_AND_AN_HTTP_BACKEND = """
import json, sys
import evosql
from evosql.backends import HttpChatBackend
from evosql.orchestrator import RunConfig, run

stack = {stack!r}
run(RunConfig(data_root={data_root!r}, output_dir={output_dir!r}, iterations=3, run_seed=5,
              evo_backend="scripted:" + {fixture!r}, deep_focus_k=1, workers=2))
loaded = [sorted(m for m in stack if m in sys.modules)]
HttpChatBackend("http://llm.test/v1", "model")
loaded.append(sorted(m for m in stack if m in sys.modules))
print(json.dumps(loaded))
"""


def test_only_an_http_backend_loads_the_http_stack(data_root, tmp_path):
    fixture = tmp_path / "evolution.json"
    fixture.write_text(json.dumps({k: [make_evolution_response(f"gen{k}")] * 2 for k in (2, 3)}))
    script = LOADED_AFTER_A_RUN_AND_AN_HTTP_BACKEND.format(
        stack=HTTP_STACK, data_root=str(data_root), output_dir=str(tmp_path / "out"),
        fixture=str(fixture))
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    after_run, after_backend = json.loads(done.stdout.splitlines()[-1])
    assert after_run == []
    assert after_backend == sorted(HTTP_STACK)
    state = json.loads((tmp_path / "out" / "run_state.json").read_text())
    assert [record["new_agent"] for record in state["iterations"]] == [None, "iter2_gen2",
                                                                        "iter3_gen3"]
