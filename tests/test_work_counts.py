"""The work a run does is pinned, count by count.

The digest fixture of tests/test_state_digests.py runs with counting
wrappers (monkeypatched) around every unit of work the benchmark traces:
SQL runs, gold runs, tool runs and the tool host's requests, package
loads, and generation and evolution calls. Its counts are exact, so a
change that adds work back fails here even where every output byte holds.
They are the same uninterrupted, halted and resumed, and on many threads
with a jittered backend. A change that moves the work on purpose updates
the pins and says why.
"""

import hashlib
import random
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from evosql import evolution, harness, orchestrator, toolrun
from evosql.backends import ScriptedEvolutionBackend
from evosql.orchestrator import resume, run
from evosql.scheduler import load_question_pool
from tests.test_state_digests import (EXPECTED, HALT_AFTER, ITERATIONS, FlubbingBackend,
                                      config, evolution_fixtures, make_state_data_root,
                                      state_files)

# Counts of the uninterrupted run, and of the halted run and its resume.
UNINTERRUPTED = {
    "execute_sql": 86, "gold": 31, "run_agent_tool": 22, "host_requests": 22,
    "load_package": 9, "complete": 338, "propose": 4, "refine": 6,
}
HALTED = {
    "execute_sql": 51, "gold": 18, "run_agent_tool": 8, "host_requests": 8,
    "load_package": 3, "complete": 116, "propose": 2, "refine": 2,
}
RESUMED = {
    "execute_sql": 62, "gold": 26, "run_agent_tool": 20, "host_requests": 20,
    "load_package": 8, "complete": 222, "propose": 2, "refine": 4,
}


class JitteredBackend(FlubbingBackend):
    """FlubbingBackend answering from the worker threads after a seeded 0
    to 4 ms sleep, as a backend waiting on I/O does."""

    in_process = False

    def __init__(self, question_pool, seed):
        super().__init__(question_pool)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def complete(self, system_text, conversation, temperature):
        with self._lock:
            delay = self._rng.uniform(0, 0.004)
        time.sleep(delay)
        return super().complete(system_text, conversation, temperature)


@pytest.fixture
def counts(monkeypatch):
    """A Counter of each unit of work done while the test runs."""
    counter = Counter()
    lock = threading.Lock()

    def counting(name, function):
        def counted(*args, **kwargs):
            with lock:
                counter[name] += 1
            return function(*args, **kwargs)
        return counted

    for owner, attr, name in [
        (harness, "execute_sql", "execute_sql"),
        (harness, "_run_gold", "gold"),
        (orchestrator, "run_agent_tool", "run_agent_tool"),
        (toolrun._ToolHost, "run", "host_requests"),
        (orchestrator, "load_package", "load_package"),
        (evolution, "load_package", "load_package"),
    ]:
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))

    def backends(gen_backend):
        evo_backend = ScriptedEvolutionBackend(evolution_fixtures())
        for backend, attr in [(gen_backend, "complete"), (evo_backend, "propose"),
                              (evo_backend, "refine")]:
            setattr(backend, attr, counting(attr, getattr(backend, attr)))
        return dict(gen_backend=gen_backend, evo_backend=evo_backend)

    counter.backends = backends
    return counter


def test_uninterrupted_run_does_the_pinned_work(counts, tmp_path):
    data_root = make_state_data_root(tmp_path / "data")
    _, question_pool = load_question_pool(data_root)
    run(config(data_root, tmp_path / "out", ITERATIONS),
        **counts.backends(FlubbingBackend(question_pool)))
    assert dict(counts) == UNINTERRUPTED


def test_halted_and_resumed_run_does_the_pinned_work(counts, tmp_path):
    data_root = make_state_data_root(tmp_path / "data")
    _, question_pool = load_question_pool(data_root)
    out = tmp_path / "out"
    run(config(data_root, out, HALT_AFTER), **counts.backends(FlubbingBackend(question_pool)))
    assert dict(counts) == HALTED
    counts.clear()
    resume(config(data_root, out, ITERATIONS), **counts.backends(FlubbingBackend(question_pool)))
    assert dict(counts) == RESUMED


@pytest.mark.parametrize("seed", [1, 2])
def test_many_threads_and_a_jittered_backend_do_the_same_work(counts, tmp_path, seed):
    # Tasks racing on one SQL text run it once, so the counts and bytes of
    # one worker hold at four workers and twelve calls in flight.
    data_root = make_state_data_root(tmp_path / "data")
    _, question_pool = load_question_pool(data_root)
    out = tmp_path / "out"
    wide = replace(config(data_root, out, ITERATIONS), workers=4, backend_concurrency=12)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run(wide, **counts.backends(JitteredBackend(question_pool, seed)))
    finally:
        sys.setswitchinterval(interval)
    assert dict(counts) == UNINTERRUPTED
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in state_files()} == EXPECTED
