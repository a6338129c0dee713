"""HTTP backend retries, scripted with a stand-in for urllib's urlopen."""

import email.message
import json
import urllib.error
import urllib.request

import pytest

from evosql.backends import HTTP_RETRIES, RETRY_AFTER_MAX_S, HttpChatBackend, _retry_after_s
from evosql.errors import BackendError

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


def test_transient_failures_are_retried_with_backoff_and_retry_after(monkeypatch):
    backend, calls, delays = _scripted_backend(monkeypatch, [
        urllib.error.URLError("connection refused"),
        _http_error(503, retry_after="7"),
        _http_error(429),
        _reply("SELECT 1"),
    ])
    assert _complete(backend) == "SELECT 1"
    assert calls == [f"{URL}/chat/completions"] * 4
    # Backoff doubles from 1 s; the 503's Retry-After replaces its step.
    assert delays == [1.0, 7.0, 4.0]


def test_failures_past_the_retry_budget_raise(monkeypatch):
    backend, calls, delays = _scripted_backend(monkeypatch, [_http_error(500)] * 10)
    with pytest.raises(BackendError, match="500"):
        _complete(backend)
    assert len(calls) == HTTP_RETRIES + 1
    assert delays == [1.0, 2.0, 4.0]


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


def test_retry_after_forms():
    assert _retry_after_s(None) is None
    assert _retry_after_s(" 12 ") == 12.0
    assert _retry_after_s("Wed, 21 Oct 2015 07:28:00 GMT") == 0.0  # a date in the past
    assert _retry_after_s("soon") is None
