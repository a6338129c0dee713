"""A run killed by SIGKILL finishes onto the pinned state digests.

A child process runs the seeded fixture of tests/test_state_digests.py, and
its backends SIGKILL the child at a chosen call: before the first state file
is saved, while an evolve iteration's incumbents have tasks in flight beside
Deep Focus, and at a Deep Focus refine. This process then finishes the run
from what the child left on disk, with resume, or with run when no state
file was saved, and every digest must match.
"""

import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from evosql.backends import ScriptedEvolutionBackend
from evosql.errors import InvalidStateError
from evosql.orchestrator import STATE_FILENAME, load_state, resume, run
from evosql.scheduler import load_question_pool
from tests.test_state_digests import (
    EXPECTED,
    ITERATIONS,
    FlubbingBackend,
    config,
    evolution_fixtures,
    make_state_data_root,
    state_files,
)

ROOT = Path(__file__).resolve().parents[1]

# Runs the fixture; argv: data root, output directory, the call to die at
# ("incumbent" or "refine") and the iteration it happens in. "incumbent"
# is the first generation call for an agent other than the iteration's new
# one, which in iteration 1 is the run's first call.
CHILD = """
import os, signal, sys
from evosql.backends import ScriptedEvolutionBackend
from evosql.orchestrator import run
from evosql.scheduler import load_question_pool
from tests.test_state_digests import ITERATIONS, FlubbingBackend, config, evolution_fixtures

data_root, out, where, iteration = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
current = [1]


def die_at(call, it):
    if (call, it) == (where, iteration):
        os.kill(os.getpid(), signal.SIGKILL)


class Evolution(ScriptedEvolutionBackend):
    def propose(self, context):
        current[0] = context.iteration
        return super().propose(context)

    def refine(self, feedback):
        die_at("refine", current[0])
        return super().refine(feedback)


class Generation(FlubbingBackend):
    def complete(self, system_text, conversation, temperature):
        if f"-- gen{current[0]} --" not in system_text:
            die_at("incumbent", current[0])
        return super().complete(system_text, conversation, temperature)


_, pool = load_question_pool(data_root)
run(config(data_root, out, ITERATIONS), gen_backend=Generation(pool),
    evo_backend=Evolution(evolution_fixtures()))
"""


@pytest.mark.parametrize("where, iteration, saved", [
    ("incumbent", 1, 0),
    ("incumbent", 4, 3),
    ("refine", 5, 4),
], ids=["before-the-first-save", "incumbents-in-flight", "deep-focus-refine"])
def test_a_killed_run_finishes_onto_the_pinned_digests(tmp_path, where, iteration, saved):
    data_root = make_state_data_root(tmp_path / "data")
    out = tmp_path / "out"
    # The killed child's scratch files stay under tmp_path.
    (tmp_path / "tmp").mkdir()
    env = dict(os.environ, TMPDIR=str(tmp_path / "tmp"),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    child = subprocess.run([sys.executable, "-c", CHILD, str(data_root), str(out), where,
                            str(iteration)], cwd=ROOT, env=env, timeout=120)
    assert child.returncode == -signal.SIGKILL

    _, question_pool = load_question_pool(data_root)
    backends = dict(gen_backend=FlubbingBackend(question_pool),
                    evo_backend=ScriptedEvolutionBackend(evolution_fixtures()))
    if saved:
        assert len(load_state(out).iterations) == saved
        state = resume(config(data_root, out, ITERATIONS), **backends)
    else:
        # No state file yet: resume refuses, and run starts over.
        assert not (out / STATE_FILENAME).exists()
        with pytest.raises(InvalidStateError, match="to resume"):
            resume(config(data_root, out, ITERATIONS), **backends)
        state = run(config(data_root, out, ITERATIONS), **backends)
    assert len(state.iterations) == ITERATIONS
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in state_files()}
    assert digests == EXPECTED
