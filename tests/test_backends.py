"""HTTP backends (chat retries, the in-flight window, reply checks, the
evolution conversation), scripted with a stand-in for urllib's urlopen or
served by a loopback endpoint."""

import email.message
import http.client
import json
import random
import sys
import threading
import types
import urllib.error
import urllib.request
from fractions import Fraction

import pytest

from evosql import backends
from evosql.backends import (
    HTTP_BACKOFF_S,
    HTTP_RETRIES,
    RETRY_AFTER_MAX_S,
    HttpChatBackend,
    HttpEvolutionBackend,
    InflightWindow,
    OracleGenerationBackend,
    ScriptedEvolutionBackend,
    _retry_after_s,
    _retry_delay,
    render_evolution_request,
)
from evosql.errors import BackendError
from evosql.evolution import EvolutionContext, deep_focus, evolve_agent
from evosql.orchestrator import RunConfig, run
from evosql.pipeline import CORRECT_SENTINEL, assemble_prompt
from evosql.scheduler import QuestionItem, load_question_pool
from tests.chat_endpoint import ChatEndpoint
from tests.conftest import make_evolution_response

URL = "http://llm.test/v1"


class _Response:
    def __init__(self, body: bytes):
        self._body = body

    def read(self) -> bytes:
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


def _http_error(code: int, retry_after: str | None = None) -> urllib.error.HTTPError:
    headers = email.message.Message()
    if retry_after is not None:
        headers["Retry-After"] = retry_after
    return urllib.error.HTTPError(f"{URL}/chat/completions", code, "scripted", headers, None)


def _reply(content: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def _scripted_backend(monkeypatch, outcomes: list):
    """An HttpChatBackend whose urlopen answers call k with outcomes[k] (an
    exception is raised, anything else is sent as the JSON body) and whose
    sleeps are recorded instead of slept."""
    calls = []

    def fake_urlopen(request, timeout):
        calls.append(request.full_url)
        outcome = outcomes[len(calls) - 1]
        if isinstance(outcome, Exception):
            raise outcome
        return _Response(json.dumps(outcome).encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    backend = HttpChatBackend(URL, "model")
    delays = []
    backend.sleep = delays.append
    return backend, calls, delays


def _complete(backend) -> str:
    return backend.complete("system", [{"role": "user", "content": "q"}], 0.0)


def _within_backoff(delays: list, steps) -> bool:
    """Whether each delay is a full-jitter draw for its step: retry k waits
    between 0 and HTTP_BACKOFF_S * 2**k."""
    return all(0.0 <= delay <= HTTP_BACKOFF_S * 2 ** k for k, delay in zip(steps, delays))


def test_transient_failures_are_retried_with_backoff_and_retry_after(monkeypatch):
    backend, calls, delays = _scripted_backend(monkeypatch, [
        urllib.error.URLError("connection refused"),
        _http_error(503, retry_after="7"),
        _http_error(429),
        _reply("SELECT 1"),
    ])
    assert _complete(backend) == "SELECT 1"
    assert calls == [f"{URL}/chat/completions"] * 4
    # The 503's Retry-After replaces its step; the others are jittered
    # below a ceiling that doubles from HTTP_BACKOFF_S.
    assert len(delays) == 3 and delays[1] == 7.0
    assert _within_backoff(delays[::2], range(0, 3, 2))


def test_failures_past_the_retry_budget_raise(monkeypatch):
    backend, calls, delays = _scripted_backend(monkeypatch, [_http_error(500)] * 10)
    with pytest.raises(BackendError, match="500"):
        _complete(backend)
    assert len(calls) == HTTP_RETRIES + 1
    assert len(delays) == HTTP_RETRIES and _within_backoff(delays, range(HTTP_RETRIES))


def test_a_reply_cut_short_is_retried(monkeypatch):
    backend, calls, delays = _scripted_backend(monkeypatch, [
        http.client.IncompleteRead(b'{"choices": ', 40),
        _reply("SELECT 1"),
    ])
    assert _complete(backend) == "SELECT 1"
    assert len(calls) == 2 and len(delays) == 1 and _within_backoff(delays, range(1))


def test_replies_cut_short_past_the_retry_budget_raise(monkeypatch):
    backend, calls, delays = _scripted_backend(
        monkeypatch, [http.client.IncompleteRead(b"{", 40)] * 10)
    with pytest.raises(BackendError, match="IncompleteRead"):
        _complete(backend)
    assert len(calls) == HTTP_RETRIES + 1
    assert len(delays) == HTTP_RETRIES and _within_backoff(delays, range(HTTP_RETRIES))


def test_backoff_is_drawn_from_an_rng_no_run_shares():
    refused = urllib.error.URLError("connection refused")
    draws = [_retry_delay(refused, 2) for _ in range(200)]
    # Spread over the whole step, not one instant for every caller.
    assert _within_backoff(draws, [2] * len(draws))
    assert min(draws) < HTTP_BACKOFF_S and max(draws) > 3 * HTTP_BACKOFF_S
    # Seeding the global RNG neither fixes the draw nor is consumed by it.
    random.seed(7)
    expected = random.random()
    random.seed(7)
    first = _retry_delay(refused, 2)
    assert random.random() == expected
    random.seed(7)
    assert _retry_delay(refused, 2) != first


def test_the_window_grows_only_while_callers_wait_and_halves_once_per_window():
    window = InflightWindow()
    window.settle(0, answered=True, overloaded=False, contended=False)
    assert window.size == 1  # nobody waited
    for _ in range(7):
        window.settle(0, answered=True, overloaded=False, contended=True)
    assert window.size == 8  # one per answer before the first halving
    window.settle(0, answered=False, overloaded=True, contended=True)
    assert (window.size, window.halvings) == (4, 1)
    # Calls admitted before that halving do not halve it again.
    for _ in range(3):
        window.settle(0, answered=False, overloaded=True, contended=True)
    assert (window.size, window.halvings) == (4, 1)
    # After it, one per window of answers; a failure without an answer that
    # is not an overload changes nothing.
    for _ in range(3):
        window.settle(1, answered=True, overloaded=False, contended=True)
    window.settle(1, answered=False, overloaded=False, contended=True)
    window.settle(1, answered=True, overloaded=False, contended=False)
    assert window.size == 4
    window.settle(1, answered=True, overloaded=False, contended=True)
    assert window.size == 5
    # Each call admitted after the last halving halves again, down to 1.
    for ticket in range(1, 5):
        window.settle(ticket, answered=False, overloaded=True, contended=True)
    assert (window.size, window.halvings) == (1, 5)


def test_the_window_never_outgrows_its_callers_and_gets_every_slot_back():
    window = InflightWindow()
    sizes = []

    def caller(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(300):
            ticket = window.enter()
            sizes.append(window.size)
            overloaded = rng.random() < 0.05
            window.leave(ticket, answered=not overloaded, overloaded=overloaded)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert window.halvings > 0 and 1 <= min(sizes) and max(sizes) <= len(threads)
    # Every slot came back, so a lone caller is admitted at once.
    assert window._inflight == 0
    window.leave(window.enter(), answered=True, overloaded=False)


@pytest.mark.parametrize("failure", [
    _http_error(400),
    _http_error(401),
    _http_error(503, retry_after=str(int(RETRY_AFTER_MAX_S) + 1)),
])
def test_permanent_failures_are_not_retried(monkeypatch, failure):
    backend, calls, delays = _scripted_backend(monkeypatch, [failure, _reply("SELECT 1")])
    with pytest.raises(BackendError):
        _complete(backend)
    assert len(calls) == 1 and delays == []


@pytest.mark.parametrize("content", [None, 7, "SELECT \ud800"])
def test_reply_content_that_is_no_utf8_text_is_a_backend_error(monkeypatch, content):
    # A JSON null, a number, or a lone surrogate escape, which decodes but
    # cannot be encoded again.
    backend, calls, delays = _scripted_backend(monkeypatch, [_reply(content)])
    with pytest.raises(BackendError, match="malformed chat response"):
        _complete(backend)
    assert len(calls) == 1 and delays == []


def test_unusable_reply_content_degrades_a_run_instead_of_crashing_it(monkeypatch, data_root,
                                                                      tmp_path):
    # Generation replies carry "content": null, and the evolved package's
    # instructions carry a lone surrogate. The questions fail as backend
    # errors and the evolve iteration degrades to none-mode.
    def fake_urlopen(request, timeout):
        system = json.loads(request.data)["messages"][0]["content"]
        content = None
        if system == HttpEvolutionBackend.SYSTEM_PROMPT:
            content = make_evolution_response("odd").replace("Select only", "Select \ud800only")
        return _Response(json.dumps(_reply(content)).encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    state = run(RunConfig(data_root=data_root, output_dir=tmp_path / "out", iterations=2),
                gen_backend=HttpChatBackend(URL, "model"),
                evo_backend=HttpEvolutionBackend(URL, "model"))
    assert state.iterations[1].mode == "none"
    outcomes = json.loads((tmp_path / "out" / "iter_2" / "outcomes.json").read_text())
    assert outcomes and {o["failure_kind"] for o in outcomes} == {"backend_error"}


def test_retry_after_forms():
    assert _retry_after_s(None) is None
    assert _retry_after_s(" 12 ") == 12.0
    assert _retry_after_s("Wed, 21 Oct 2015 07:28:00 GMT") == 0.0  # a date in the past
    assert _retry_after_s("soon") is None


def _package_text(name: str) -> str:
    return f"```file=agent.md\n---\nname: {name}\n---\n```\n"


def _recorded_messages(monkeypatch) -> list:
    """Wrap the scripted urlopen so each request's messages are kept."""
    scripted = urllib.request.urlopen
    sent = []

    def recording_urlopen(request, timeout):
        sent.append(json.loads(request.data)["messages"])
        return scripted(request, timeout)

    monkeypatch.setattr(urllib.request, "urlopen", recording_urlopen)
    return sent


def test_evolution_refine_continues_the_proposal_conversation(monkeypatch):
    _scripted_backend(monkeypatch, [_reply(_package_text(name))
                                    for name in ("first", "second", "third")])
    sent = _recorded_messages(monkeypatch)
    backend = HttpEvolutionBackend(URL, "model")
    context = EvolutionContext(iteration=2, leaderboard=[], parent_packages={},
                               error_report="", strategy="be brief")
    request = {"role": "user", "content": render_evolution_request(context)}

    assert "name: first" in backend.propose(context).files["agent.md"]
    assert "name: second" in backend.refine("scored 1/2").files["agent.md"]
    assert sent[0][0]["role"] == "system" and sent[0][1:] == [request]
    # The refine request carries the proposal's reply and then the feedback.
    assert sent[1][1:] == [
        request,
        {"role": "assistant", "content": _package_text("first")},
        {"role": "user", "content": "scored 1/2"},
    ]
    # A new proposal starts a new conversation.
    backend.propose(context)
    assert sent[2][1:] == [request]


def test_evolution_refine_before_propose_raises(monkeypatch):
    _scripted_backend(monkeypatch, [_reply(_package_text("unused"))])
    sent = _recorded_messages(monkeypatch)
    with pytest.raises(BackendError, match="before propose"):
        HttpEvolutionBackend(URL, "model").refine("scored 0/2")
    assert sent == []


def test_a_deep_focus_refine_cut_short_keeps_the_package(monkeypatch, tmp_path):
    # The proposal arrives; every reply to the refine is cut short.
    backend, calls, _ = _scripted_backend(
        monkeypatch, [_reply(make_evolution_response("cand"))]
        + [http.client.IncompleteRead(b"```file=agent.md", 4096)] * (HTTP_RETRIES + 1))
    evolution = HttpEvolutionBackend(URL, "model")
    evolution._chat = backend
    context = EvolutionContext(iteration=3, leaderboard=[], parent_packages={},
                               error_report="", strategy="be brief")
    pkg, _ = evolve_agent(context, evolution, tmp_path / "iter_3")
    before = (pkg.root_dir / "tools" / "analyze.py").read_text()

    def eval_fn(candidate, record):
        return Fraction(0, 1), {}

    record = types.SimpleNamespace(iteration=2, competitors=[], accuracies={}, matches={},
                                   questions={})
    assert deep_focus(pkg, evolution, [record], eval_fn) is pkg
    assert len(calls) == HTTP_RETRIES + 2
    assert (pkg.root_dir / "tools" / "analyze.py").read_text() == before


ORACLE_POOL = {"shop": [QuestionItem(1, "shop", "How many orders?", gold_sql="SELECT 1"),
                        QuestionItem(2, "shop", "Which skus?", gold_sql="SELECT 2")]}


def _prompt(question: str) -> str:
    return assemble_prompt("-- schema --", "Answer in SQL.", question, "")


def test_oracle_answers_gold_then_accepts_on_every_later_turn():
    oracle = OracleGenerationBackend.from_question_pool(ORACLE_POOL)
    for item in ORACLE_POOL["shop"]:
        conversation = [{"role": "user", "content": "Write the query."}]
        assert oracle.complete(_prompt(item.question), conversation, 0.0) == item.gold_sql
        for _ in range(4):
            conversation += [{"role": "assistant", "content": "SELECT 0"},
                             {"role": "user", "content": "Is it correct?"}]
            assert oracle.complete(_prompt(item.question), conversation, 0.2) == CORRECT_SENTINEL


def test_oracle_refuses_a_question_outside_the_pool():
    oracle = OracleGenerationBackend.from_question_pool(ORACLE_POOL)
    with pytest.raises(BackendError, match="Who wrote this"):
        oracle.complete(_prompt("Who wrote this?"), [], 0.0)


def test_oracle_subclass_can_wrap_its_replies():
    class TaggedOracle(OracleGenerationBackend):
        def complete(self, system_text, conversation, temperature):
            reply = super().complete(system_text, conversation, temperature)
            return reply if reply == CORRECT_SENTINEL else "-- tagged\n" + reply

    oracle = TaggedOracle.from_question_pool(ORACLE_POOL)
    assert isinstance(oracle, TaggedOracle)
    prompt = _prompt("Which skus?")
    assert oracle.complete(prompt, [], 0.0) == "-- tagged\nSELECT 2"
    assert oracle.complete(prompt, [{"role": "assistant", "content": "x"}], 0.0) == CORRECT_SENTINEL


def test_a_crowded_endpoint_moves_no_output_byte(monkeypatch, data_root, tmp_path):
    # The endpoint serves 8 requests at once and refuses the rest with a
    # 429. A run with 32 calls in flight must find that limit and keep under
    # it without losing a question, and write what a run with one call in
    # flight writes.
    monkeypatch.setattr(backends, "HTTP_BACKOFF_S", 0.01)
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    _, question_pool = load_question_pool(data_root)
    names = ["run_state.json"] + [f"iter_{k}/{artifact}" for k in (1, 2)
                                  for artifact in ("outcomes.json", "transcripts.json")]
    refused = {}
    with ChatEndpoint(question_pool, limit=8, hold_s=0.02) as endpoint:
        server = threading.Thread(target=endpoint.serve_forever)
        server.start()
        try:
            for concurrency in (1, 32):
                before = endpoint.refused
                run(RunConfig(data_root=data_root, output_dir=tmp_path / f"c{concurrency}",
                              iterations=2, run_seed=9, workers=2,
                              backend_concurrency=concurrency),
                    gen_backend=HttpChatBackend(endpoint.url, "model"),
                    evo_backend=ScriptedEvolutionBackend(
                        {2: [make_evolution_response("gen2")] * 2}))
                refused[concurrency] = endpoint.refused - before
        finally:
            endpoint.shutdown()
            server.join(timeout=10)
    assert not server.is_alive()
    assert refused[1] == 0 and refused[32] >= 1
    for name in names:
        assert (tmp_path / "c1" / name).read_bytes() == (tmp_path / "c32" / name).read_bytes(), name
    for k in (1, 2):
        outcomes = json.loads((tmp_path / "c32" / f"iter_{k}" / "outcomes.json").read_text())
        assert outcomes and "backend_error" not in {o["failure_kind"] for o in outcomes}
