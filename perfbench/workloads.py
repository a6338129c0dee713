"""The benchmark's workloads.

Each workload builds its inputs from the seed (in a child process, reusing a
finished build for the same seed) and then runs timed units. A unit is one
repeatable piece of user-visible work: a whole tournament, an analysis
batch, a simulation batch. Each unit also samples the program's set-up a few
times, so set-up samples are spread over the run like the units are. After
each unit, outside its timed region, the workload checks the program's
outputs and reports the violations of its correctness gate.
"""

import hashlib
import json
import random
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import MANIFEST, SIZES
from backends import (
    EXPECTED_CALLS,
    EXPECTED_MATCH,
    LatencyScriptBackend,
    TaggedOracleBackend,
    evolution_backend,
    reply_path,
)
from evosql import analyzer
from evosql.defaults import write_naive_package
from evosql.errors import AnalysisError
from evosql.orchestrator import STATE_FILENAME, Orchestrator, RunConfig
from evosql.registry import load_package
from evosql.scheduler import MODE_EVOLVE, load_question_pool
from evosql.simulate import SimulationConfig, SyntheticAgent, simulate

HERE = Path(__file__).resolve().parent

# Every tournament runs on a pool of two worker threads: the machine the
# benchmark was sized on has two cores.
WORKERS = 2
MAX_ROUNDS = 2


@dataclass
class UnitResult:
    """What one timed unit did; times in seconds."""

    run_s: float
    work: int
    ops: list[float]
    digest: str
    attempted: int
    failed: int = 0
    violations: list[str] = field(default_factory=list)
    state_bytes: int = 0
    setup: list[float] = field(default_factory=list)
    analyze_s: float | None = None


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """Base: input building and the per-seed digest record."""

    name = ""
    work_label = ""
    op_label = ""

    def __init__(self, work_dir: Path, seed: int, size: str):
        self.work_dir = work_dir
        self.seed = seed
        self.size = size
        self.inputs: dict = {}

    def build_inputs(self) -> dict:
        dest = self.work_dir / "inputs"
        manifest = dest / MANIFEST
        if not manifest.is_file():
            subprocess.run(
                [sys.executable, str(HERE / "inputs.py"), "--workload", self.name,
                 "--seed", str(self.seed), "--size", self.size, "--dest", str(dest)],
                check=True,
            )
        self.inputs = json.loads(manifest.read_text())
        return self.inputs

    def prepare(self) -> None:
        """Build inputs and everything the units share."""
        self.build_inputs()

    def cleanup(self) -> None:
        """Remove what the units wrote, once measuring is over."""

    def unit(self, index: int, tracer=None) -> UnitResult:
        raise NotImplementedError


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


class _Tournament(Workload):
    """Shared by both tournament workloads: runs the orchestrator one
    iteration at a time through its public run(), so each iteration's wall
    time is an operation sample, and checks what the run wrote."""

    iterations = 4
    work_label = "evals_per_s"
    op_label = "iteration"

    def config(self, out: Path) -> RunConfig:
        return RunConfig(
            data_root=self.work_dir / "inputs" / self.inputs["data_root"],
            output_dir=out,
            iterations=self.iterations,
            run_seed=self.seed,
            workers=WORKERS,
            deep_focus_k=1,
            max_rounds=MAX_ROUNDS,
            databases_per_iteration=len(self.inputs["databases"]),
            questions_per_database=self.inputs["questions_per_database"],
        )

    def prepare(self) -> None:
        self.build_inputs()
        self.cleanup()

    def cleanup(self) -> None:
        # Run directories are removed only here, never between units, so no
        # unit's timing shares the disk with deleting the previous one.
        shutil.rmtree(self.work_dir / "runs", ignore_errors=True)

    def run_dir(self, name: str) -> Path:
        return self.work_dir / "runs" / name

    def step(self, orch: Orchestrator, upto: int, ops: list[float]) -> None:
        for k in range(len(orch.state.iterations) + 1, upto + 1):
            orch.config.iterations = k
            ops.append(_timed(orch.run)[0])

    def check_run(self, out: Path, orch: Orchestrator, result: UnitResult) -> None:
        """Failure counts, eval counts and the digest, from the run's files."""
        records = orch.state.iterations
        evals = failed = attempted = 0
        previous = None
        for record in records:
            outcomes = json.loads((out / f"iter_{record.iteration}" / "outcomes.json").read_text())
            evals += len(outcomes)
            failed += sum(1 for o in outcomes
                          if o["failure_kind"] in ("pipeline_error", "timeout"))
            failed += len(record.excluded_questions)
            failed += sum(len(notes) for notes in record.tool_fallbacks.values())
            questions = sum(len(items) for items in record.questions.values())
            attempted += questions + len(record.competitors) * len(record.databases)
            if record.iteration > 1:
                attempted += 1
                if record.mode != MODE_EVOLVE or record.new_agent is None:
                    failed += 1  # a degraded evolve iteration
                else:
                    # Deep Focus scored the new agent on the previous
                    # iteration's questions.
                    evals += (sum(len(items) for items in previous.questions.values())
                              - len(previous.excluded_questions))
            previous = record
        attempted += evals
        state = out / STATE_FILENAME
        result.work = evals
        result.failed += failed
        result.attempted = attempted
        result.digest = sha256_file(state)
        result.state_bytes = state.stat().st_size


class TournamentSql(_Tournament):
    """Full run() with the tagged oracle over integer GROUP BY pools. Its
    set-up is Orchestrator construction over an output directory that
    already holds the naive agent package and the strategy file, which
    reads files and writes none."""

    name = "tournament_sql"
    setups = 10

    def prepare(self) -> None:
        super().prepare()
        _, pool = load_question_pool(self.work_dir / "inputs" / self.inputs["data_root"])
        self.backend = TaggedOracleBackend.from_question_pool(pool)
        # The first construction writes the naive package and the strategy
        # file. Set-up samples leave those writes out: on the 2-core test
        # machine, file creation took 1 to 5 ms depending on how much the
        # preceding runs had written, which swamped the rest of the set-up.
        self.setup_dir = self.run_dir("setup")
        Orchestrator(self.config(self.setup_dir), self.backend, evolution_backend(2))

    def unit(self, index: int, tracer=None) -> UnitResult:
        out = self.run_dir(f"u{index}")
        evo = evolution_backend(self.iterations)
        orch = Orchestrator(self.config(out), self.backend, evo)
        if tracer:
            tracer.wrap_backends(orch.gen_backend, evo)
        ops: list[float] = []
        run_s = _timed(lambda: self.step(orch, self.iterations, ops))[0]
        result = UnitResult(run_s=run_s, work=0, ops=ops, digest="", attempted=0)
        # Set-up samples come right after the timed work: taken after the
        # process had idled for a few seconds, the same construction measured
        # up to three times as long on the 2-core test machine. Traced units
        # take none, as their spans should count one run's work.
        evo = evolution_backend(self.iterations)
        result.setup = [
            _timed(lambda: Orchestrator(self.config(self.setup_dir), self.backend, evo))[0]
            for _ in range(0 if tracer else self.setups)
        ]
        self.check_run(out, orch, result)
        for record in orch.state.iterations:
            for agent, (matches, total) in record.accuracies.items():
                if matches != total:
                    result.violations.append(
                        f"iteration {record.iteration}: oracle agent {agent} scored "
                        f"{matches}/{total}")
        return result


class TournamentLlmResume(_Tournament):
    """A latency-bound run over tiny databases, halted at its midpoint and
    continued by a fresh Orchestrator over the saved state. Its set-up is
    the resume: constructing the Orchestrator over the halted state."""

    name = "tournament_llm_resume"
    latency_s = 0.015
    extra_setups = 9

    def prepare(self) -> None:
        super().prepare()
        _, pool = load_question_pool(self.work_dir / "inputs" / self.inputs["data_root"])
        self.backend = LatencyScriptBackend(pool, self.latency_s)

    def unit(self, index: int, tracer=None) -> UnitResult:
        out = self.run_dir(f"u{index}")
        half = self.iterations // 2
        if tracer:
            tracer.wrap_backends(self.backend)
        ops: list[float] = []

        evo = evolution_backend(self.iterations)
        first = Orchestrator(self.config(out), self.backend, evo)
        if tracer:
            tracer.wrap_backends(evo_backend=evo)
        first_run_s = _timed(lambda: self.step(first, half, ops))[0]

        # Construction over a halted state writes nothing, so extra samples
        # of the resume set-up leave the run unchanged.
        evo = evolution_backend(self.iterations)
        setup = [
            _timed(lambda: Orchestrator(self.config(out), self.backend, evo))[0]
            for _ in range(0 if tracer else self.extra_setups)
        ]
        resume_s, second = _timed(lambda: Orchestrator(self.config(out), self.backend, evo))
        if tracer:
            tracer.wrap_backends(evo_backend=evo)
        second_run_s = _timed(lambda: self.step(second, self.iterations, ops))[0]

        setup.append(resume_s)
        result = UnitResult(run_s=first_run_s + second_run_s, work=0, ops=ops, digest="",
                            attempted=0, setup=setup)
        self.check_run(out, second, result)
        self.check_script(out, second, result)
        return result

    def check_script(self, out: Path, orch: Orchestrator, result: UnitResult) -> None:
        """Accuracies and per-question call counts equal what the reply
        script predicts."""
        for record in orch.state.iterations:
            items = [item for db in record.databases for item in record.questions[db]]
            expected = sum(1 for item in items if EXPECTED_MATCH[reply_path(item.question)])
            for agent, (matches, total) in record.accuracies.items():
                if (matches, total) != (expected, len(items)):
                    result.violations.append(
                        f"iteration {record.iteration}: {agent} scored {matches}/{total}, "
                        f"script predicts {expected}/{len(items)}")
            iter_dir = out / f"iter_{record.iteration}"
            outcomes = json.loads((iter_dir / "outcomes.json").read_text())
            transcripts = json.loads((iter_dir / "transcripts.json").read_text())
            for agent, agent_transcripts in transcripts.items():
                agent_outcomes = [o for o in outcomes if o["agent_id"] == agent]
                for outcome, transcript in zip(agent_outcomes, agent_transcripts):
                    calls = transcript["backend_calls"] if transcript else 0
                    want = EXPECTED_CALLS[reply_path(outcome["question"])]
                    if calls != want or calls > 1 + MAX_ROUNDS + 1:
                        result.violations.append(
                            f"iteration {record.iteration}: {agent} made {calls} backend "
                            f"calls on q{outcome['question_id']}, script predicts {want}")


_SECTION_HEADER = re.compile(r"^## \d+\. ", re.MULTILINE)


class WideSchema(Workload):
    """analyze() and the naive package's tool on a 510-column database."""

    name = "wide_schema"
    work_label = "analyses_per_s"
    op_label = "tool run"
    tool_runs = 10
    setups = 10

    def prepare(self) -> None:
        self.build_inputs()
        self.database = self.work_dir / "inputs" / self.inputs["database"]
        self.data_root = self.work_dir / "inputs" / self.inputs["data_root"]
        self.naive_dir = self.work_dir / "naive"
        if not self.naive_dir.is_dir():
            write_naive_package(self.naive_dir)
        self.digests: dict[str, str] = {}

    def setup(self):
        """What the CLI's evaluate does before any analysis: load the pool
        and the agent package."""
        load_question_pool(self.data_root)
        return load_package(self.naive_dir)

    def _same(self, kind: str, text: str, result: UnitResult) -> None:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.digests.setdefault(kind, digest) != digest:
            result.violations.append(f"{kind} text changed between calls")

    def unit(self, index: int, tracer=None) -> UnitResult:
        result = UnitResult(run_s=0.0, work=1, ops=[], digest="",
                            attempted=1 + self.tool_runs)
        package = self.setup()
        texts = []
        start = time.perf_counter()
        try:
            analysis = analyzer.analyze(self.database)
        except AnalysisError:
            result.failed += 1
            analysis = None
        analyze_s = time.perf_counter() - start
        for _ in range(self.tool_runs):
            elapsed, tool = _timed(lambda: analyzer.run_agent_tool(package, self.database))
            result.ops.append(elapsed)
            texts.append(tool)
        result.run_s = time.perf_counter() - start
        result.analyze_s = analyze_s
        result.setup = [_timed(self.setup)[0] for _ in range(self.setups)]

        if analysis is not None:
            self._same("analysis", analysis.text, result)
            headers = len(_SECTION_HEADER.findall(analysis.text))
            if headers != 10:
                result.violations.append(f"analysis has {headers} section headers, not 10")
        for tool in texts:
            if tool.fallback:
                result.failed += 1
            self._same("tool output", tool.text, result)
        result.digest = hashlib.sha256(
            "\0".join(self.digests.get(k, "") for k in ("analysis", "tool output")).encode()
        ).hexdigest()
        return result


class Simulate(Workload):
    """simulate() with evolution on over a long horizon, then a battery of
    fixed-population runs over several seeds."""

    name = "simulate"
    work_label = "sim_iters_per_s"
    op_label = "evolving simulate() call"
    setups = 20

    def build_inputs(self) -> dict:
        # Synthetic agents need no files: the shape is the whole input.
        shape = {k[len("sim_"):]: v for k, v in SIZES[self.size].items() if k.startswith("sim_")}
        self.agents = shape["agents"]
        self.databases = shape["databases"]
        self.evolve_iterations = shape["evolve_iterations"]
        self.battery_seeds = shape["battery_seeds"]
        self.battery_iterations = shape["battery_iterations"]
        self.inputs = {"sizes": shape}
        return self.inputs

    def setup(self):
        """The simulation's inputs as program objects: the synthetic
        population and the run configurations."""
        rng = random.Random(f"simulate:{self.seed}")
        dbs = [f"db{i}" for i in range(1, self.databases + 1)]
        population = [
            SyntheticAgent(f"agent{a}", {db: round(rng.uniform(0.3, 0.8), 3) for db in dbs})
            for a in range(self.agents)
        ]
        evolve = SimulationConfig(iterations=self.evolve_iterations, seed=self.seed,
                                  databases=dbs, evolve=True)
        battery = [
            SimulationConfig(iterations=self.battery_iterations, seed=self.seed * 1000 + i,
                             databases=dbs)
            for i in range(self.battery_seeds)
        ]
        return population, evolve, battery

    def unit(self, index: int, tracer=None) -> UnitResult:
        population, evolve, battery = self.setup()
        start = time.perf_counter()
        evolved = simulate(population, evolve)
        evolve_s = time.perf_counter() - start
        ratings = [evolved.final_ratings]
        ratings += [simulate(population, config).final_ratings for config in battery]
        run_s = time.perf_counter() - start
        setup = [_timed(self.setup)[0] for _ in range(self.setups)]
        digest = hashlib.sha256(json.dumps(
            [sorted((a, repr(v)) for a, v in r.items()) for r in ratings]).encode()).hexdigest()
        return UnitResult(
            run_s=run_s,
            work=self.evolve_iterations + self.battery_seeds * self.battery_iterations,
            ops=[evolve_s], digest=digest, attempted=1 + self.battery_seeds, setup=setup)


WORKLOADS = {w.name: w for w in (TournamentSql, TournamentLlmResume, WideSchema, Simulate)}
