"""Generation and evolution backend adapters.

Generation backends implement complete(system_text, conversation,
temperature) -> reply. Evolution backends implement propose(context) and
refine(feedback), both returning a draft package; one backend instance holds
one session, so propose and subsequent refines share conversation state.

Evolution responses use a file-block protocol: each emitted file is a fenced
block opened by a line reading ```file=<relative path> and closed by a line
reading ``` alone. Text outside blocks is treated as reasoning prose; a
reasoning.md block, when present, takes precedence as the reasoning text.

Only the http: backends use the HTTP stack. urllib.request pulls in
http.client, ssl and the email package, 2.4 to 2.9 MB of a benchmark
process's peak RSS, so it is imported when an HTTP backend is built, not
with this module.
"""

import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import BackendError, ConfigError
from .pipeline import CORRECT_SENTINEL, extract_question

logger = logging.getLogger(__name__)

API_KEY_ENV = "EVOSQL_API_KEY"
HTTP_TIMEOUT = 120.0
# A transient failure (no connection, a reply cut short or garbled, 429,
# 5xx) is retried this many times. Retry k (0-based) waits what the
# response's Retry-After asks, or else a "full jitter" draw from
# [0, HTTP_BACKOFF_S * 2**k], so that calls refused at one instant do not
# all come back at the next. A Retry-After beyond RETRY_AFTER_MAX_S ends
# the retries.
HTTP_RETRIES = 3
HTTP_BACKOFF_S = 1.0
RETRY_AFTER_MAX_S = 120.0
# Statuses that say the endpoint is overloaded; each halves the in-flight
# window (see InflightWindow).
OVERLOADED_STATUSES = (429, 503)
# The evolution backend samples every propose and refine at this temperature.
EVOLUTION_TEMPERATURE = 0.7

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


def _load_fixture(path, kind: str):
    """The JSON value of a scripted backend's fixture file."""
    try:
        return json.loads(Path(path).read_bytes())
    except ValueError as exc:
        raise ConfigError(f"scripted {kind} fixture {path} is not JSON: {exc}") from exc


def _is_replies(value) -> bool:
    return isinstance(value, list) and all(isinstance(reply, str) for reply in value)


class ScriptedGenerationBackend:
    """Replays canned replies by conversation position: `by_question` (keyed
    by question text) and `default` lists are indexed by the number of
    assistant turns so far and never consumed. Replay is stateless, so it
    is thread-safe, reusable across agents and iterations, and stable under
    resume.
    """

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
        data = _load_fixture(path, "generation")
        if not isinstance(data, dict):
            raise ConfigError(
                f"scripted generation fixture {path} must be an object "
                '{"by_question": {<question>: [replies...]}, "default": [replies...]}; '
                "a list of replies consumed call by call is not supported, since "
                "its order would follow thread scheduling"
            )
        unknown = sorted(set(data) - {"by_question", "default"})
        if unknown:
            raise ConfigError(f"scripted generation fixture {path} has unknown keys: "
                              f"{', '.join(unknown)}")
        by_question, default = data.get("by_question", {}), data.get("default", [])
        if not (isinstance(by_question, dict) and all(map(_is_replies, by_question.values()))
                and _is_replies(default)):
            raise ConfigError(f"scripted generation fixture {path} must map each question "
                              "in by_question, and default, to a list of reply strings")
        return cls(by_question, default)

    def complete(self, system_text: str, conversation: list[dict], temperature: float) -> str:
        question = extract_question(system_text)
        script = self._by_question.get(question, self._default)
        if not script:
            raise BackendError(f"no scripted reply for question {question!r}")
        index = sum(1 for m in conversation if m["role"] == "assistant")
        return script[min(index, len(script) - 1)]


class OracleGenerationBackend(ScriptedGenerationBackend):
    """Replays each pool question's gold SQL, then accepts on verification.
    Useful for end-to-end determinism tests and harness smoke runs."""

    @classmethod
    def from_question_pool(cls, question_pool) -> "OracleGenerationBackend":
        return cls({item.question: [item.gold_sql, CORRECT_SENTINEL]
                    for items in question_pool.values() for item in items})


def _retry_after_s(value: str | None) -> float | None:
    """Seconds a Retry-After header value asks for (delta-seconds or an
    HTTP date), or None when absent or unreadable."""
    if value is None:
        return None
    value = value.strip()
    if value.isdigit():
        return float(value)
    import email.utils

    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    return max(0.0, when.timestamp() - time.time())


# Backoff jitter is seeded by the OS and shared with no run RNG, so retry
# timing never moves a seeded draw.
_jitter = random.Random()


def _retry_delay(exc: Exception, attempt: int) -> float | None:
    """Seconds to wait before retrying after attempt (0-based) failed with
    exc, or None when exc is not transient."""
    from urllib.error import HTTPError

    backoff = _jitter.uniform(0.0, HTTP_BACKOFF_S * 2 ** attempt)
    if not isinstance(exc, HTTPError):
        return backoff  # no connection, reset, timed out or cut short
    if exc.code != 429 and exc.code < 500:
        return None
    asked = _retry_after_s(exc.headers.get("Retry-After") if exc.headers else None)
    if asked is None:
        return backoff
    return asked if asked <= RETRY_AFTER_MAX_S else None


class InflightWindow:
    """How many calls of one endpoint may be in flight: additive increase,
    multiplicative decrease, as in TCP congestion avoidance (Jacobson,
    SIGCOMM 1988).

    The window starts at 1. A call that ends overloaded (429 or 503) halves
    it, never below 1, unless the window was halved after the call was
    admitted: one burst halves it once. A call that is answered while the
    window is full and callers wait for it earns a step of growth: each
    step adds one until the first halving, and after that one per window
    of steps. The window grows only while callers wait, so it never holds
    more slots than there are callers.
    """

    def __init__(self):
        self.size = 1
        self.halvings = 0
        self._steps = 0
        self._inflight = 0
        self._waiting = 0
        self._changed = threading.Condition()

    def enter(self) -> int:
        """Wait for a slot, and take it. Returns the admission's ticket, to
        be handed to leave()."""
        with self._changed:
            self._waiting += 1
            try:
                while self._inflight >= self.size:
                    self._changed.wait()
            finally:
                self._waiting -= 1
            self._inflight += 1
            return self.halvings

    def leave(self, ticket: int, answered: bool, overloaded: bool) -> None:
        """Give back the slot taken by the enter() that returned ticket."""
        with self._changed:
            self.settle(ticket, answered, overloaded,
                        contended=self._waiting > 0 and self._inflight >= self.size)
            self._inflight -= 1
            self._changed.notify_all()

    def settle(self, ticket: int, answered: bool, overloaded: bool, contended: bool) -> None:
        """The window rule for one call's end. contended: callers were
        waiting on a full window when it ended."""
        if overloaded:
            if ticket == self.halvings:
                self.size = max(1, self.size // 2)
                self.halvings += 1
                self._steps = 0
        elif answered and contended:
            self._steps += 1
            if self._steps >= (self.size if self.halvings else 1):
                self.size += 1
                self._steps = 0


class HttpChatBackend:
    """Chat-completions adapter for a live generation endpoint.

    Posts OpenAI-style payloads to <base_url>/chat/completions with a Bearer
    token read from the EVOSQL_API_KEY environment variable and passes the
    loop's temperature through. Every call of the instance waits for a slot
    of one InflightWindow. Transient failures are retried (see
    HTTP_RETRIES), each retry backing off outside the window and then
    entering it again; the last one raises BackendError.
    """

    sleep = staticmethod(time.sleep)

    def __init__(self, base_url: str, model: str):
        # The HTTP stack loads here, on the thread that builds the backend,
        # and urlopen is looked up on the module at each call.
        import http.client
        import urllib.request

        self._urllib = urllib.request
        self._transient = (OSError, http.client.HTTPException)
        self.base_url = base_url.rstrip("/")
        self.model = model
        self._window = InflightWindow()

    def _post(self, request) -> bytes:
        """Send request once, inside the window; the reply's body."""
        ticket = self._window.enter()
        answered = overloaded = False
        try:
            with self._urllib.urlopen(request, timeout=HTTP_TIMEOUT) as response:
                body = response.read()
            answered = True
            return body
        except self._urllib.HTTPError as exc:
            overloaded = exc.code in OVERLOADED_STATUSES
            raise
        finally:
            self._window.leave(ticket, answered, overloaded)

    def complete(self, system_text: str, conversation: list[dict], temperature: float) -> str:
        payload = {
            "model": self.model,
            "temperature": temperature,
            "messages": [{"role": "system", "content": system_text}, *conversation],
        }
        request = self._urllib.Request(
            f"{self.base_url}/chat/completions",
            data=json.dumps(payload).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {os.environ.get(API_KEY_ENV, '')}",
            },
        )
        for attempt in range(HTTP_RETRIES + 1):
            try:
                raw = self._post(request)
                break
            except self._transient as exc:
                if isinstance(exc, self._urllib.HTTPError):
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
            body = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise BackendError(f"chat endpoint sent no JSON: {exc}") from exc
        try:
            content = body["choices"][0]["message"]["content"]
            content.encode("utf-8")  # not a str, or a lone surrogate escape
        except (KeyError, IndexError, TypeError, AttributeError, UnicodeEncodeError) as exc:
            raise BackendError(f"malformed chat response: {body!r}") from exc
        return content


class ScriptedEvolutionBackend:
    """Replays evolution fixtures keyed by iteration.

    fixtures maps an iteration number to its ordered response list: the
    first entry answers propose(), later entries answer successive refine()
    calls. Keying by iteration keeps resumed runs identical to uninterrupted
    ones regardless of where the process restarted.
    """

    def __init__(self, fixtures: dict[int, list[str]]):
        self._fixtures = {int(k): list(v) for k, v in fixtures.items()}
        self._queue: list[str] = []

    @classmethod
    def from_fixture(cls, path) -> "ScriptedEvolutionBackend":
        data = _load_fixture(path, "evolution")
        if not isinstance(data, dict) or not all(
                key.isdecimal() and _is_replies(replies) for key, replies in data.items()):
            raise ConfigError(f"scripted evolution fixture {path} must be an object "
                              '{"<iteration>": [responses...]}')
        return cls(data)

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

    def __init__(self, base_url: str, model: str):
        self._chat = HttpChatBackend(base_url, model)
        self._conversation: list[dict] = []

    def _exchange(self, message: str) -> DraftPackage:
        self._conversation.append({"role": "user", "content": message})
        reply = self._chat.complete(self.SYSTEM_PROMPT, self._conversation, EVOLUTION_TEMPERATURE)
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
