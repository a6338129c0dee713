"""Exception types shared across the package."""


class EvoSqlError(Exception):
    """Base class for all framework errors."""


class ManifestError(EvoSqlError):
    """Agent manifest frontmatter could not be parsed."""


class ValidationError(EvoSqlError):
    """A loaded artifact violates its contract."""


class DataValidationError(ValidationError):
    """The question/database pool on disk is inconsistent."""


class DuplicateAgentError(EvoSqlError):
    """An agent id was registered twice."""


class UnknownAgentError(EvoSqlError):
    """An agent id is not present in the registry."""


class InvalidStateError(EvoSqlError):
    """An operation was invoked in a state that cannot satisfy it."""


class AnalysisError(EvoSqlError):
    """Database analysis failed (unreadable file, failed tool and fallback)."""


class BudgetExceededError(AnalysisError):
    """Analysis output exceeds the token budget even after full degradation."""

    def __init__(self, message: str, section: str | None = None):
        super().__init__(message)
        self.section = section


class SqlError(EvoSqlError):
    """SQL execution failure, classified by kind.

    kind is one of "syntax", "runtime", "timeout".
    """

    def __init__(self, message: str, kind: str = "runtime"):
        super().__init__(message)
        self.kind = kind


class EmptySqlError(EvoSqlError):
    """A model reply contained no SQL after sanitization."""


class BackendError(EvoSqlError):
    """A generation or evolution backend failed to produce a response."""


class PipelineError(EvoSqlError):
    """The SQL generation pipeline failed for one question."""

    def __init__(self, message: str, transcript=None):
        super().__init__(message)
        self.transcript = transcript


class BackendCallError(PipelineError):
    """The generation backend failed to answer one of a question's calls."""


class EvolutionError(EvoSqlError):
    """The evolution backend failed to produce a valid agent package."""
