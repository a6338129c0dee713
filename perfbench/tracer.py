"""Spans around the program's public functions, recorded from outside.

Each function is wrapped at the name its caller looks it up by (for example
``orchestrator.evaluate_agent`` and ``harness.execute_sql``), so nothing in
``src/evosql`` changes. A span keeps its name, start, end, parent span and
iteration id in memory. The current span travels in a context variable, and
the harness's thread pool is swapped for one that copies the context into
each task, so spans from worker threads keep their parent and iteration.
"""

import contextvars
import functools
import hashlib
import itertools
import json
import math
import sqlite3
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from evosql import analyzer, elo, evolution, harness, orchestrator, registry, scheduler
from evosql.errors import SqlError

# (current span id, iteration id) of the running code.
_current = contextvars.ContextVar("perfbench_current_span", default=(None, None))


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int | None
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ContextThreadPoolExecutor(ThreadPoolExecutor):
    """Runs each task inside a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class _CountingSqlite:
    """Stands in for the sqlite3 module inside the analyzer: connections it
    opens count every statement they run."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(sqlite3, name)

    def connect(self, *args, **kwargs):
        conn = sqlite3.connect(*args, **kwargs)
        conn.set_trace_callback(self._tracer.count_statement)
        return conn


def package_digest(pkg) -> str:
    """Content identity of a package's analysis tool: command, output file
    and every file under tools/."""
    digest = hashlib.sha256(f"{pkg.tool_command}\0{pkg.tool_output_file}\0".encode())
    tools = Path(pkg.root_dir) / "tools"
    if tools.is_dir():
        for path in sorted(tools.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(tools)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _sql_attrs(args, kwargs, result, error):
    attrs = {"db": str(args[0]), "sql": args[1]}
    if isinstance(error, SqlError):
        attrs["error"] = error.kind
    return attrs


def _tool_attrs(args, kwargs, result, error):
    return {"package": package_digest(args[0]), "db": str(args[1]),
            "fallback": bool(result is not None and result.fallback)}


class Tracer:
    """Collects spans for one timed unit of a workload."""

    def __init__(self):
        self.spans: list[Span] = []
        # next() on itertools.count and list.append are single C calls, so
        # worker threads can share them under the interpreter lock.
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, bool]] = []
        self.sqlite_statements = 0

    def count_statement(self, _statement: str) -> None:
        # Only the analyzer's own connections count, and analyze() runs on
        # one thread.
        self.sqlite_statements += 1

    def wrap(self, name, fn, *, iteration_arg=None, attrs=None, enter=None):
        """fn with a span named name around every call.

        iteration_arg: index of the positional argument that carries the
        iteration number; it becomes the iteration id of this span and of
        everything below it. attrs(args, kwargs, result, error) and
        enter() -> value (passed to attrs as kwargs["_entered"]) add
        attributes to the span.
        """
        append = self.spans.append
        ids = self._ids
        now = time.perf_counter
        get, set_, reset = _current.get, _current.set, _current.reset

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, iteration = get()
            if iteration_arg is not None:
                iteration = args[iteration_arg]
            span_id = next(ids)
            token = set_((span_id, iteration))
            entered = enter() if enter else None
            result = error = None
            start = now()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = now()
                reset(token)
                extra = None
                if attrs:
                    extra = attrs(args, {**kwargs, "_entered": entered}, result, error)
                append(Span(span_id, name, start, end, parent, iteration, extra))

        return traced

    def patch(self, owner, attr: str, name: str, **wrap_kwargs) -> None:
        original = getattr(owner, attr)
        owned = attr in vars(owner)
        self._patches.append((owner, attr, original, owned))
        setattr(owner, attr, self.wrap(name, original, **wrap_kwargs))

    def replace(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function of the program at its call sites."""
        self.replace(harness, "ThreadPoolExecutor", _ContextThreadPoolExecutor)
        self.replace(analyzer, "sqlite3", _CountingSqlite(self))
        self.patch(orchestrator.Orchestrator, "run_iteration", "orchestrator.run_iteration",
                   iteration_arg=1)
        self.patch(orchestrator, "save_state", "orchestrator.save_state")
        self.patch(orchestrator, "load_state", "orchestrator.load_state")
        self.patch(orchestrator, "restore_registry", "orchestrator.restore_registry")
        self.patch(orchestrator, "evaluate_agent", "harness.evaluate_agent")
        self.patch(orchestrator, "execute_gold", "harness.execute_gold")
        self.patch(orchestrator, "write_error_analysis", "harness.write_error_analysis")
        self.patch(orchestrator, "run_agent_tool", "analyzer.run_agent_tool", attrs=_tool_attrs)
        self.patch(orchestrator, "evolve_agent", "evolution.evolve_agent")
        self.patch(orchestrator, "deep_focus", "evolution.deep_focus")
        self.patch(orchestrator, "load_package", "registry.load_package")
        self.patch(evolution, "load_package", "registry.load_package")
        self.patch(harness, "execute_sql", "harness.execute_sql", attrs=_sql_attrs)
        self.patch(harness, "compare_results", "harness.compare_results")
        self.patch(harness, "generate_with_verification", "pipeline.generate_with_verification")
        self.patch(analyzer, "run_agent_tool", "analyzer.run_agent_tool", attrs=_tool_attrs)
        self.patch(analyzer, "analyze", "analyzer.analyze",
                   enter=lambda: self.sqlite_statements,
                   attrs=lambda a, kw, r, e: {"statements": self.sqlite_statements - kw["_entered"]})
        self.patch(scheduler, "load_question_pool", "scheduler.load_question_pool")
        self.patch(scheduler, "select_competitors", "scheduler.select_competitors")
        self.patch(registry.AgentRegistry, "top_by_elo", "registry.top_by_elo")
        self.patch(elo.EloEngine, "decompose_and_update", "elo.decompose_and_update")

    def wrap_backends(self, gen_backend=None, evo_backend=None) -> None:
        """Wrap backend instances, which the orchestrator calls as methods."""
        if gen_backend is not None:
            self.patch(gen_backend, "complete", "backends.complete")
        if evo_backend is not None:
            self.patch(evo_backend, "propose", "backends.evolution")
            self.patch(evo_backend, "refine", "backends.evolution")

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def write(self, path: Path, unit: int) -> None:
        with open(path, "a") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "unit": unit, "id": s.id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "iteration": s.iteration,
                    **{k: v for k, v in (s.attrs or {}).items() if k != "sql"},
                }) + "\n")


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


# The tail percentile of every latency. It is fixed, not derived from the
# sample count, so a faster program that fits more samples into a run reads
# the same percentile as a slower one.
TAIL_PERCENTILE = 90.0


def tail(values: list[float]) -> float:
    return percentile(values, TAIL_PERCENTILE)


def _covered(interval: tuple[float, float], children: list[Span]) -> float:
    """Length of the part of interval covered by the union of children."""
    lo, hi = interval
    pieces = sorted((max(lo, c.start), min(hi, c.end)) for c in children)
    covered = 0.0
    cur_lo = cur_hi = None
    for a, b in pieces:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def _repeat_frac(keys: list) -> float:
    seen = set()
    repeats = 0
    for key in keys:
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats / len(keys) if keys else 0.0


# Every per-layer metric: (name, unit, better).
LAYER_METRICS = (
    ("harness.execute_sql.calls", "count", "lower"),
    ("harness.execute_sql.s", "s", "lower"),
    ("harness.execute_sql.p50_ms", "ms", "lower"),
    ("harness.execute_sql.tail_ms", "ms", "lower"),
    ("harness.execute_sql.repeat_frac", "ratio", "lower"),
    ("harness.execute_sql.errors", "count", "lower"),
    ("harness.execute_sql.timeouts", "count", "lower"),
    ("harness.execute_gold.calls", "count", "lower"),
    ("harness.execute_gold.s", "s", "lower"),
    ("harness.compare_results.calls", "count", "lower"),
    ("harness.compare_results.s", "s", "lower"),
    ("harness.evaluate_agent.s", "s", "lower"),
    ("harness.pool_busy_frac", "ratio", "higher"),
    ("harness.write_error_analysis.s", "s", "lower"),
    ("pipeline.generate_with_verification.calls", "count", "lower"),
    ("pipeline.generate_with_verification.p50_ms", "ms", "lower"),
    ("pipeline.generate_with_verification.tail_ms", "ms", "lower"),
    ("pipeline.generate_with_verification.self_s", "s", "lower"),
    ("backends.complete.calls", "count", "lower"),
    ("backends.complete.s", "s", "lower"),
    ("backends.complete.calls_per_question", "ratio", "lower"),
    ("backends.evolution.calls", "count", "lower"),
    ("backends.evolution.s", "s", "lower"),
    ("analyzer.run_agent_tool.calls", "count", "lower"),
    ("analyzer.run_agent_tool.s", "s", "lower"),
    ("analyzer.run_agent_tool.p50_ms", "ms", "lower"),
    ("analyzer.run_agent_tool.fallbacks", "count", "lower"),
    ("analyzer.run_agent_tool.repeat_frac", "ratio", "lower"),
    ("analyzer.analyze.s", "s", "lower"),
    ("analyzer.sqlite_statements_per_analyze", "count", "lower"),
    ("evolution.evolve_agent.s", "s", "lower"),
    ("evolution.deep_focus.s", "s", "lower"),
    ("evolution.deep_focus.self_s", "s", "lower"),
    ("scheduler.load_question_pool.s", "s", "lower"),
    ("scheduler.select_competitors.calls", "count", "lower"),
    ("scheduler.select_competitors.s", "s", "lower"),
    ("registry.load_package.calls", "count", "lower"),
    ("registry.load_package.s", "s", "lower"),
    ("registry.top_by_elo.calls", "count", "lower"),
    ("registry.top_by_elo.s", "s", "lower"),
    ("elo.decompose_and_update.calls", "count", "lower"),
    ("elo.decompose_and_update.s", "s", "lower"),
    ("orchestrator.run_iteration.p50_s", "s", "lower"),
    ("orchestrator.run_iteration.max_s", "s", "lower"),
    ("orchestrator.run_iteration.self_s", "s", "lower"),
    ("orchestrator.save_state.s", "s", "lower"),
    ("orchestrator.state_bytes", "B", "lower"),
    ("orchestrator.restore_registry.s", "s", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced unit, derived from its spans.

    A ``.s`` metric is the summed busy time of the spans; ``.self_s`` is
    each span's duration minus the part its child spans cover.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def calls(name):
        return float(len(by_name[name]))

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def durations(name):
        return [s.duration for s in by_name[name]]

    def self_time(name):
        return sum(s.duration - _covered((s.start, s.end), children[s.id])
                   for s in by_name[name])

    sql = by_name["harness.execute_sql"]
    tools = by_name["analyzer.run_agent_tool"]
    pipeline_calls = calls("pipeline.generate_with_verification")
    evaluate_wall = busy("harness.evaluate_agent")
    analyses = by_name["analyzer.analyze"]
    return {
        "harness.execute_sql.calls": calls("harness.execute_sql"),
        "harness.execute_sql.s": busy("harness.execute_sql"),
        "harness.execute_sql.p50_ms": percentile(durations("harness.execute_sql"), 50) * 1e3,
        "harness.execute_sql.tail_ms": tail(durations("harness.execute_sql")) * 1e3,
        "harness.execute_sql.repeat_frac": _repeat_frac(
            [(s.iteration, s.attrs["db"], s.attrs["sql"]) for s in sql]),
        "harness.execute_sql.errors": float(sum(1 for s in sql if "error" in s.attrs)),
        "harness.execute_sql.timeouts": float(
            sum(1 for s in sql if s.attrs.get("error") == "timeout")),
        "harness.execute_gold.calls": calls("harness.execute_gold"),
        "harness.execute_gold.s": busy("harness.execute_gold"),
        "harness.compare_results.calls": calls("harness.compare_results"),
        "harness.compare_results.s": busy("harness.compare_results"),
        "harness.evaluate_agent.s": evaluate_wall,
        "harness.pool_busy_frac": (busy("pipeline.generate_with_verification")
                                   / (evaluate_wall * workers) if evaluate_wall else 0.0),
        "harness.write_error_analysis.s": busy("harness.write_error_analysis"),
        "pipeline.generate_with_verification.calls": pipeline_calls,
        "pipeline.generate_with_verification.p50_ms":
            percentile(durations("pipeline.generate_with_verification"), 50) * 1e3,
        "pipeline.generate_with_verification.tail_ms":
            tail(durations("pipeline.generate_with_verification")) * 1e3,
        "pipeline.generate_with_verification.self_s":
            self_time("pipeline.generate_with_verification"),
        "backends.complete.calls": calls("backends.complete"),
        "backends.complete.s": busy("backends.complete"),
        "backends.complete.calls_per_question":
            calls("backends.complete") / pipeline_calls if pipeline_calls else 0.0,
        "backends.evolution.calls": calls("backends.evolution"),
        "backends.evolution.s": busy("backends.evolution"),
        "analyzer.run_agent_tool.calls": calls("analyzer.run_agent_tool"),
        "analyzer.run_agent_tool.s": busy("analyzer.run_agent_tool"),
        "analyzer.run_agent_tool.p50_ms":
            percentile(durations("analyzer.run_agent_tool"), 50) * 1e3,
        "analyzer.run_agent_tool.fallbacks": float(sum(1 for s in tools if s.attrs["fallback"])),
        "analyzer.run_agent_tool.repeat_frac": _repeat_frac(
            [(s.attrs["package"], s.attrs["db"]) for s in tools]),
        "analyzer.analyze.s": busy("analyzer.analyze"),
        "analyzer.sqlite_statements_per_analyze": (
            sum(s.attrs["statements"] for s in analyses) / len(analyses) if analyses else 0.0),
        "evolution.evolve_agent.s": busy("evolution.evolve_agent"),
        "evolution.deep_focus.s": busy("evolution.deep_focus"),
        "evolution.deep_focus.self_s": self_time("evolution.deep_focus"),
        "scheduler.load_question_pool.s": busy("scheduler.load_question_pool"),
        "scheduler.select_competitors.calls": calls("scheduler.select_competitors"),
        "scheduler.select_competitors.s": busy("scheduler.select_competitors"),
        "registry.load_package.calls": calls("registry.load_package"),
        "registry.load_package.s": busy("registry.load_package"),
        "registry.top_by_elo.calls": calls("registry.top_by_elo"),
        "registry.top_by_elo.s": busy("registry.top_by_elo"),
        "elo.decompose_and_update.calls": calls("elo.decompose_and_update"),
        "elo.decompose_and_update.s": busy("elo.decompose_and_update"),
        "orchestrator.run_iteration.p50_s": percentile(durations("orchestrator.run_iteration"), 50),
        "orchestrator.run_iteration.max_s": max(durations("orchestrator.run_iteration"),
                                                default=0.0),
        "orchestrator.run_iteration.self_s": self_time("orchestrator.run_iteration"),
        "orchestrator.save_state.s": busy("orchestrator.save_state"),
        "orchestrator.restore_registry.s": busy("orchestrator.restore_registry"),
    }
