"""Generation and evolution backend adapters.

Generation backends implement complete(system_text, conversation,
temperature) -> reply. Evolution backends implement propose(context) and
refine(feedback), both returning a draft package; one backend instance holds
one session, so propose and subsequent refines share conversation state.

Evolution responses use a file-block protocol: each emitted file is a fenced
block opened by a line reading ```file=<relative path> and closed by a line
reading ``` alone. Text outside blocks is treated as reasoning prose; a
reasoning.md block, when present, takes precedence as the reasoning text.
"""

import email.utils
import json
import logging
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from .errors import BackendError
from .pipeline import CORRECT_SENTINEL, extract_question

logger = logging.getLogger(__name__)

API_KEY_ENV = "EVOSQL_API_KEY"
HTTP_TIMEOUT = 120.0
# A transient failure (no connection, 429, 5xx) is retried this many times,
# after HTTP_BACKOFF_S, then twice and four times that, or after what the
# response's Retry-After asks. A Retry-After beyond RETRY_AFTER_MAX_S ends
# the retries.
HTTP_RETRIES = 3
HTTP_BACKOFF_S = 1.0
RETRY_AFTER_MAX_S = 120.0

FILE_BLOCK_OPEN = "```file="


@dataclass
class DraftPackage:
    """Parsed evolution response: file contents plus reasoning prose."""

    files: dict[str, str]
    reasoning: str = ""


def parse_file_blocks(text: str) -> DraftPackage:
    """Split a protocol response into files and reasoning prose."""
    files: dict[str, str] = {}
    prose: list[str] = []
    current_path = None
    current_lines: list[str] = []
    for line in text.splitlines():
        if current_path is None:
            if line.startswith(FILE_BLOCK_OPEN):
                current_path = line[len(FILE_BLOCK_OPEN):].strip()
                current_lines = []
            else:
                prose.append(line)
        elif line.strip() == "```":
            files[current_path] = "\n".join(current_lines) + "\n"
            current_path = None
        else:
            current_lines.append(line)
    if current_path is not None:
        raise BackendError(f"unterminated file block for {current_path!r}")
    reasoning = files.get("reasoning.md", "\n".join(prose).strip())
    return DraftPackage(files=files, reasoning=reasoning)


class ScriptedGenerationBackend:
    """Replays canned replies by conversation position: `by_question` (keyed
    by question text) and `default` lists are indexed by the number of
    assistant turns so far and never consumed. Replay is stateless, so it
    is thread-safe, reusable across agents and iterations, and stable under
    resume.
    """

    identity = "scripted"
    in_process = True

    def __init__(
        self,
        by_question: dict[str, list[str]] | None = None,
        default: list[str] | None = None,
    ):
        self._by_question = {q: list(r) for q, r in (by_question or {}).items()}
        self._default = list(default or [])

    @classmethod
    def from_fixture(cls, path) -> "ScriptedGenerationBackend":
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(
                f"scripted generation fixture {path} must be an object "
                '{"by_question": {<question>: [replies...]}, "default": [replies...]}; '
                "a list of replies consumed call by call is not supported, since "
                "its order would follow thread scheduling"
            )
        return cls(by_question=data.get("by_question"), default=data.get("default"))

    def complete(self, system_text: str, conversation: list[dict], temperature: float) -> str:
        question = extract_question(system_text)
        script = self._by_question.get(question, self._default)
        if not script:
            raise BackendError(f"no scripted reply for question {question!r}")
        index = sum(1 for m in conversation if m["role"] == "assistant")
        return script[min(index, len(script) - 1)]


class OracleGenerationBackend:
    """Answers with the gold SQL for the question found in the prompt, then
    accepts on verification. Useful for end-to-end determinism tests and
    harness smoke runs."""

    identity = "oracle"
    in_process = True

    def __init__(self, gold_by_question: dict[str, str]):
        self._gold = dict(gold_by_question)

    @classmethod
    def from_question_pool(cls, question_pool) -> "OracleGenerationBackend":
        gold = {}
        for items in question_pool.values():
            for item in items:
                gold[item.question] = item.gold_sql
        return cls(gold)

    def complete(self, system_text: str, conversation: list[dict], temperature: float) -> str:
        if any(m["role"] == "assistant" for m in conversation):
            return CORRECT_SENTINEL
        question = extract_question(system_text)
        try:
            return self._gold[question]
        except KeyError:
            raise BackendError(f"oracle has no gold SQL for question {question!r}") from None


def _retry_after_s(value: str | None) -> float | None:
    """Seconds a Retry-After header value asks for (delta-seconds or an
    HTTP date), or None when absent or unreadable."""
    if value is None:
        return None
    value = value.strip()
    if value.isdigit():
        return float(value)
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    return max(0.0, when.timestamp() - time.time())


def _retry_delay(exc: OSError, attempt: int) -> float | None:
    """Seconds to wait before retrying after attempt (0-based) failed with
    exc, or None when exc is not transient."""
    backoff = HTTP_BACKOFF_S * 2 ** attempt
    if not isinstance(exc, urllib.error.HTTPError):
        return backoff  # no connection, reset or timed out
    if exc.code != 429 and exc.code < 500:
        return None
    asked = _retry_after_s(exc.headers.get("Retry-After") if exc.headers else None)
    if asked is None:
        return backoff
    return asked if asked <= RETRY_AFTER_MAX_S else None


class HttpChatBackend:
    """Chat-completions adapter for a live generation endpoint.

    Posts OpenAI-style payloads to <base_url>/chat/completions with a Bearer
    token read from the EVOSQL_API_KEY environment variable and passes the
    loop's temperature through. Transient failures are retried (see
    HTTP_RETRIES); the last one raises BackendError.
    """

    sleep = staticmethod(time.sleep)

    def __init__(self, base_url: str, model: str, api_key_env: str = API_KEY_ENV,
                 timeout: float = HTTP_TIMEOUT):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.identity = f"http:{model}"

    def build_payload(self, system_text: str, conversation: list[dict], temperature: float) -> dict:
        return {
            "model": self.model,
            "temperature": temperature,
            "messages": [{"role": "system", "content": system_text}, *conversation],
        }

    def complete(self, system_text: str, conversation: list[dict], temperature: float) -> str:
        payload = self.build_payload(system_text, conversation, temperature)
        api_key = os.environ.get(self.api_key_env, "")
        request = urllib.request.Request(
            f"{self.base_url}/chat/completions",
            data=json.dumps(payload).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {api_key}",
            },
        )
        for attempt in range(HTTP_RETRIES + 1):
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    body = json.loads(response.read().decode("utf-8"))
                break
            except ValueError as exc:
                raise BackendError(f"chat endpoint sent no JSON: {exc}") from exc
            except OSError as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()
                delay = _retry_delay(exc, attempt) if attempt < HTTP_RETRIES else None
                if delay is None:
                    raise BackendError(
                        f"chat endpoint failure (attempt {attempt + 1}): {exc}"
                    ) from exc
                logger.warning("chat endpoint failure (attempt %d): %s; retrying in %gs",
                               attempt + 1, exc, delay)
                self.sleep(delay)
        try:
            return body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed chat response: {body!r}") from exc


class ScriptedEvolutionBackend:
    """Replays evolution fixtures keyed by iteration.

    fixtures maps an iteration number to its ordered response list: the
    first entry answers propose(), later entries answer successive refine()
    calls. Keying by iteration keeps resumed runs identical to uninterrupted
    ones regardless of where the process restarted.
    """

    identity = "scripted"

    def __init__(self, fixtures: dict[int, list[str]]):
        self._fixtures = {int(k): list(v) for k, v in fixtures.items()}
        self._queue: list[str] = []

    @classmethod
    def from_fixture(cls, path) -> "ScriptedEvolutionBackend":
        return cls(json.loads(Path(path).read_text()))

    def propose(self, context) -> DraftPackage:
        self._queue = list(self._fixtures.get(context.iteration, []))
        if not self._queue:
            raise BackendError(f"no scripted evolution for iteration {context.iteration}")
        return parse_file_blocks(self._queue.pop(0))

    def refine(self, feedback: str) -> DraftPackage:
        if not self._queue:
            raise BackendError("scripted refinements exhausted")
        return parse_file_blocks(self._queue.pop(0))


class NullEvolutionBackend:
    """Always fails, degrading evolve iterations to none-mode; useful for
    running the tournament over a fixed population."""

    identity = "none"

    def propose(self, context) -> DraftPackage:
        raise BackendError("evolution disabled")

    def refine(self, feedback: str) -> DraftPackage:
        raise BackendError("evolution disabled")


class HttpEvolutionBackend:
    """Drives a chat endpoint through the file-block protocol, keeping the
    whole propose/refine exchange in one conversation (session affinity)."""

    SYSTEM_PROMPT = (
        "You design text-to-SQL agent packages. Reply by emitting every file "
        "of the package, one fenced block per file: open each block with a "
        "line reading ```file=<relative path> and close it with a line "
        "reading ``` alone. Required files: agent.md (key: value frontmatter "
        "between --- lines with name, execution_mode, tool_command, "
        "tool_output_file), eval_instructions.md, any tools/ scripts the "
        "manifest runs, and reasoning.md documenting your design."
    )

    def __init__(self, base_url: str, model: str, api_key_env: str = API_KEY_ENV,
                 temperature: float = 0.7, timeout: float = HTTP_TIMEOUT):
        self._chat = HttpChatBackend(base_url, model, api_key_env, timeout)
        self.temperature = temperature
        self.identity = f"http:{model}"
        self._conversation: list[dict] = []

    def _exchange(self, message: str) -> DraftPackage:
        self._conversation.append({"role": "user", "content": message})
        reply = self._chat.complete(self.SYSTEM_PROMPT, self._conversation, self.temperature)
        self._conversation.append({"role": "assistant", "content": reply})
        return parse_file_blocks(reply)

    def propose(self, context) -> DraftPackage:
        self._conversation = []
        return self._exchange(render_evolution_request(context))

    def refine(self, feedback: str) -> DraftPackage:
        if not self._conversation:
            raise BackendError("refine called before propose")
        return self._exchange(feedback)


def render_evolution_request(context) -> str:
    """Flatten an evolution context into one request message."""
    parts = [f"# Evolution Request - Iteration {context.iteration}", ""]
    parts.append("## ELO Leaderboard")
    for row in context.leaderboard:
        parts.append(
            f"- {row['agent_id']}: rating {row['rating']:.1f}, "
            f"tests {row['tests']}, wins {row['wins']}"
        )
    parts.append("")
    parts.append("## Strategy")
    parts.append(context.strategy)
    parts.append("")
    if context.history:
        parts.append("## Prior Iterations")
        parts.extend(f"- {line}" for line in context.history)
        parts.append("")
    if context.error_report:
        parts.append("## Latest Error Analysis")
        parts.append(context.error_report)
        parts.append("")
    parts.append("## Parent Packages")
    for agent_id in sorted(context.parent_packages):
        parts.append(f"### {agent_id}")
        for rel_path in sorted(context.parent_packages[agent_id]):
            parts.append(f"--- {agent_id}/{rel_path} ---")
            parts.append(context.parent_packages[agent_id][rel_path])
    parts.append("")
    parts.append("Produce the new agent package now.")
    return "\n".join(parts)
