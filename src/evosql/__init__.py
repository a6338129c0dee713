"""evosql: ELO-driven evolutionary tournament for text-to-SQL agent packages."""

from .analyzer import DatabaseAnalysis, analyze, classify_size
from .elo import EloEngine, MatchRecord, Rating, expected_score, update_pair
from .harness import QuestionOutcome, ResultTable, compare_results, execute_sql
from .orchestrator import RunConfig, RunState, leaderboard, resume, run
from .pipeline import assemble_prompt, generate_with_verification, sanitize_sql
from .registry import AgentPackage, AgentRegistry, load_package, write_package
from .scheduler import QuestionItem, load_question_pool
from .simulate import SimulationConfig, SyntheticAgent, simulate
from .toolrun import extract_naive_schema

__version__ = "0.1.0"

__all__ = [
    "AgentPackage",
    "AgentRegistry",
    "DatabaseAnalysis",
    "EloEngine",
    "MatchRecord",
    "QuestionItem",
    "QuestionOutcome",
    "Rating",
    "ResultTable",
    "RunConfig",
    "RunState",
    "SimulationConfig",
    "SyntheticAgent",
    "analyze",
    "assemble_prompt",
    "classify_size",
    "compare_results",
    "execute_sql",
    "expected_score",
    "extract_naive_schema",
    "generate_with_verification",
    "leaderboard",
    "load_package",
    "load_question_pool",
    "resume",
    "run",
    "sanitize_sql",
    "simulate",
    "update_pair",
    "write_package",
]
