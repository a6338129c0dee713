"""Agent packages on disk plus per-agent competition bookkeeping.

An agent package is a directory holding a manifest (agent.md with key: value
frontmatter), an eval_instructions.md file, and a tools/ directory whose
scripts are invoked through the manifest's tool_command. Packages are
immutable after load and safe to share between concurrent evaluators; all
registry mutations happen on the orchestration thread.
"""

import bisect
import shlex
from dataclasses import dataclass, field
from pathlib import Path

from .elo import EloEngine, Rating
from .errors import (
    DuplicateAgentError,
    ManifestError,
    UnknownAgentError,
    ValidationError,
)

MANIFEST_FILENAME = "agent.md"
INSTRUCTIONS_FILENAME = "eval_instructions.md"
TOOLS_DIRNAME = "tools"

EXECUTION_MODES = ("tool_only", "fallback_naive")


def make_agent_id(name: str, iteration: int) -> str:
    """Stable agent id: initial agents keep their name, evolved agents get
    an iteration prefix so names may repeat across iterations."""
    if iteration <= 0:
        return name
    return f"iter{iteration}_{name}"


@dataclass
class AgentPackage:
    """A versioned (analysis tool command, eval-instructions text) pair."""

    id: str
    name: str
    iteration_created: int
    root_dir: Path
    execution_mode: str
    tool_command: str
    tool_output_file: str
    eval_instructions: str
    lineage: list[str] = field(default_factory=list)


def parse_frontmatter(text: str, source: str = MANIFEST_FILENAME) -> dict[str, str]:
    """Parse "---"-delimited key: value frontmatter into its fields; the
    prose after it is not read.

    Raises ManifestError naming the offending line for a missing opening or
    closing delimiter, a line that is not a key: value pair, or a duplicate
    key.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != "---":
        raise ManifestError(f"{source}: line 1: expected opening '---' delimiter")
    fields: dict[str, str] = {}
    for number, line in enumerate(lines[1:], start=2):
        if line.strip() == "---":
            return fields
        if not line.strip():
            continue
        key, sep, value = line.partition(":")
        if not sep or not key.strip():
            raise ManifestError(f"{source}: line {number}: expected 'key: value', got {line!r}")
        key = key.strip()
        if key in fields:
            raise ManifestError(f"{source}: line {number}: duplicate key {key!r}")
        fields[key] = value.strip()
    raise ManifestError(f"{source}: no closing '---' delimiter")


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not text ({exc.reason} at byte {exc.start})") from exc


def load_package(
    root_dir: str | Path, agent_id: str | None = None, iteration_created: int = 0
) -> AgentPackage:
    """Load an agent package from disk, validating its manifest: the name
    is one path component, and tool_command parses as shell words.

    The eval-instructions text is kept verbatim. Manifest keys it does not
    use, and the prose after the frontmatter, are ignored.
    """
    root = Path(root_dir)
    manifest_path = root / MANIFEST_FILENAME
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no {MANIFEST_FILENAME} in {root}")
    instructions_path = root / INSTRUCTIONS_FILENAME
    if not instructions_path.is_file():
        raise FileNotFoundError(f"no {INSTRUCTIONS_FILENAME} in {root}")

    fields = parse_frontmatter(_read_text(manifest_path))
    name = fields.get("name", "")
    if not name:
        raise ValidationError(f"{manifest_path}: manifest has no name")
    # Agent ids, and so package directories, are made from the name.
    if Path(name).name != name or name == "..":
        raise ValidationError(f"{manifest_path}: name {name!r} is not one path component")
    execution_mode = fields.get("execution_mode", "")
    if execution_mode not in EXECUTION_MODES:
        raise ValidationError(
            f"{manifest_path}: unknown execution_mode {execution_mode!r} "
            f"(expected one of {EXECUTION_MODES})"
        )
    tool_command = fields.get("tool_command", "")
    tool_output_file = fields.get("tool_output_file", "")
    if execution_mode == "tool_only" and not (tool_command and tool_output_file):
        raise ValidationError(
            f"{manifest_path}: tool_only packages need tool_command and tool_output_file"
        )
    # shlex.split can fail only on a quote or a backslash, and it is slow:
    # on every command it about doubled the time of a package load.
    if any(char in tool_command for char in "'\"\\"):
        try:
            shlex.split(tool_command)
        except ValueError as exc:
            raise ValidationError(f"{manifest_path}: tool_command does not parse: {exc}") from exc
    eval_instructions = _read_text(instructions_path)
    if not eval_instructions.strip():
        raise ValidationError(f"{root}: {INSTRUCTIONS_FILENAME} is empty")
    lineage = [part.strip() for part in fields.get("lineage", "").split(",") if part.strip()]

    return AgentPackage(
        id=agent_id or name,
        name=name,
        iteration_created=iteration_created,
        root_dir=root,
        execution_mode=execution_mode,
        tool_command=tool_command,
        tool_output_file=tool_output_file,
        eval_instructions=eval_instructions,
        lineage=lineage,
    )


def write_package(
    root_dir: str | Path,
    *,
    name: str,
    instructions: str,
    execution_mode: str = "tool_only",
    tool_command: str = "",
    tool_output_file: str = "",
    description: str = "",
    lineage: list[str] | None = None,
    body: str = "",
    tools: dict[str, str] | None = None,
) -> Path:
    """Write a package directory that load_package reads back. description
    and the prose body are for a reader of agent.md; load_package ignores
    them. tools maps file names under tools/ to their source text.
    """
    root = Path(root_dir)
    root.mkdir(parents=True, exist_ok=True)
    lines = ["---", f"name: {name}"]
    if description:
        lines.append(f"description: {description}")
    lines.append(f"execution_mode: {execution_mode}")
    if tool_command:
        lines.append(f"tool_command: {tool_command}")
    if tool_output_file:
        lines.append(f"tool_output_file: {tool_output_file}")
    if lineage:
        lines.append(f"lineage: {', '.join(lineage)}")
    lines.append("---")
    manifest = "\n".join(lines) + "\n"
    if body:
        manifest += "\n" + body
    (root / MANIFEST_FILENAME).write_text(manifest)
    (root / INSTRUCTIONS_FILENAME).write_text(instructions)
    for rel_name, source in (tools or {}).items():
        tool_path = root / TOOLS_DIRNAME / rel_name
        tool_path.parent.mkdir(parents=True, exist_ok=True)
        tool_path.write_text(source)
    return root


@dataclass
class AgentRecord:
    """Competition bookkeeping for one registered agent."""

    agent_id: str
    rating: Rating
    tests: int = 0
    iteration_wins: int = 0


class AgentRegistry:
    """Registered agents, their packages, and their competition records.

    Rating objects are shared with the embedded EloEngine, so ELO updates
    applied there are visible through the records here. winners holds the
    last scored iteration's winners, the pending winners.

    The ELO ranking is kept sorted from the first top_by_elo on. Ranks
    change only through scheduler.settle_iteration (ELO updates, then
    record_iteration_outcome): a rating or test count set by hand after the
    first ranking is not seen.
    """

    def __init__(self):
        self.elo = EloEngine()
        self.records: dict[str, AgentRecord] = {}
        self.packages: dict[str, AgentPackage] = {}
        self.winners: set[str] = set()
        # Every _rank_key in order, and each agent's key in it.
        self._ranking: list[tuple] | None = None
        self._seated: dict[str, tuple] = {}

    def __contains__(self, agent_id: str) -> bool:
        return agent_id in self.records

    def __len__(self) -> int:
        return len(self.records)

    def agent_ids(self) -> list[str]:
        return sorted(self.records)

    def get(self, agent_id: str) -> AgentRecord:
        try:
            return self.records[agent_id]
        except KeyError:
            raise UnknownAgentError(f"agent {agent_id!r} is not registered") from None

    def package(self, agent_id: str) -> AgentPackage:
        try:
            return self.packages[agent_id]
        except KeyError:
            raise UnknownAgentError(f"no package for agent {agent_id!r}") from None

    def register_record(self, agent_id: str) -> AgentRecord:
        """Create bookkeeping for an agent id without a package (used by the
        simulation harness, where agents are synthetic)."""
        if agent_id in self.records:
            raise DuplicateAgentError(f"agent {agent_id!r} already registered")
        rating = self.elo.register(agent_id)
        record = AgentRecord(agent_id=agent_id, rating=rating)
        self.records[agent_id] = record
        if self._ranking is not None:
            self._seat(agent_id)
        return record

    def register(self, pkg: AgentPackage) -> AgentRecord:
        record = self.register_record(pkg.id)
        self.packages[pkg.id] = pkg
        return record

    def _rank_key(self, agent_id: str):
        record = self.records[agent_id]
        return (-record.rating.value, record.tests, agent_id)

    def _seat(self, agent_id: str) -> None:
        key = self._rank_key(agent_id)
        bisect.insort(self._ranking, key)
        self._seated[agent_id] = key

    def top_by_elo(self, n: int, exclude: set[str] | frozenset = frozenset()) -> list[str]:
        """Up to n agent ids by rating descending; ties broken by fewest
        tests (under-tested agents get exposure first), then id."""
        if n < 0:
            raise ValueError("n must be >= 0")
        top: list[str] = []
        for _, _, agent_id in self._ranked():
            if len(top) == n:
                break
            if agent_id not in exclude:
                top.append(agent_id)
        return top

    def rated_above(self, rating: float) -> list[AgentRecord]:
        """Records of the agents rated above rating, in top_by_elo's order:
        a prefix of the ranking."""
        ranking = self._ranked()
        end = bisect.bisect_left(ranking, (-rating,))
        return [self.records[agent_id] for _, _, agent_id in ranking[:end]]

    def _ranked(self) -> list[tuple]:
        if self._ranking is None:
            self._seated = {a: self._rank_key(a) for a in self.records}
            self._ranking = sorted(self._seated.values())
        return self._ranking

    def pending_winners(self) -> list[str]:
        return sorted(self.winners, key=self._rank_key)

    def record_iteration_outcome(self, competitors: list[str], winners: set[str]) -> None:
        """Book one scored iteration: bump tests for every competitor, wins
        for every winner, and make the winner set the pending winners (ties
        produce several). Competitors are reseated in the ranking under
        their ratings now, so call it after the iteration's ELO updates."""
        competitor_set = set(competitors)
        winner_set = set(winners)
        if not winner_set:
            raise ValueError("every scored iteration has at least one winner")
        if not winner_set <= competitor_set:
            raise ValueError(f"winners {winner_set - competitor_set} not among competitors")
        for agent_id in competitor_set:
            if agent_id not in self.records:
                raise UnknownAgentError(f"agent {agent_id!r} is not registered")
        self.winners = winner_set
        for agent_id in competitor_set:
            self.records[agent_id].tests += 1
            if self._ranking is not None:
                del self._ranking[bisect.bisect_left(self._ranking, self._seated[agent_id])]
                self._seat(agent_id)
        for agent_id in winner_set:
            self.records[agent_id].iteration_wins += 1
