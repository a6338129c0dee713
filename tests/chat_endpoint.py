"""A loopback chat-completions endpoint that admits a fixed number of
requests at once and answers 429 to the rest.

It serves on 127.0.0.1 with the standard library's ThreadingHTTPServer and
replies as the oracle does (the pool question's gold SQL, then acceptance on
every later turn), so each reply is a pure function of the conversation and
a run against it writes the same bytes whatever its concurrency. Tests use
ChatEndpoint directly; CI starts it in the background:

    python -m tests.chat_endpoint --data-root D --admit 4 --port-file F

which writes the port it listens on to F and serves until it is killed.
"""

import argparse
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from evosql.backends import OracleGenerationBackend
from evosql.errors import BackendError
from evosql.scheduler import load_question_pool


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        endpoint = self.server
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if not endpoint.admit():
            self._send(429, {"error": {"message": "too many requests in flight"}})
            return
        try:
            time.sleep(endpoint.hold_s)
            system, *conversation = payload["messages"]
            reply = endpoint.oracle.complete(system["content"], conversation,
                                             payload["temperature"])
        except BackendError as exc:
            status, body = 400, {"error": {"message": str(exc)}}
        else:
            status, body = 200, {"choices": [{"message": {"role": "assistant",
                                                          "content": reply}}]}
        finally:
            # Counted out before the reply is sent, so no client sees a reply
            # while its request still counts against the limit.
            endpoint.release()
        self._send(status, body)

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


class ChatEndpoint(ThreadingHTTPServer):
    """Admits `limit` requests at once, holding each for hold_s seconds, and
    counts the requests it refused with a 429."""

    daemon_threads = False  # server_close() joins every request's thread

    def __init__(self, question_pool: dict, limit: int, hold_s: float = 0.0):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.oracle = OracleGenerationBackend.from_question_pool(question_pool)
        self.limit = limit
        self.hold_s = hold_s
        self.refused = 0
        self._active = 0
        self._lock = threading.Lock()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_port}/v1"

    def admit(self) -> bool:
        with self._lock:
            if self._active >= self.limit:
                self.refused += 1
                return False
            self._active += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._active -= 1


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--data-root", type=Path, required=True)
    parser.add_argument("--admit", type=int, required=True,
                        help="requests served at once; the rest get a 429")
    parser.add_argument("--port-file", type=Path, required=True)
    args = parser.parse_args(argv)
    _, question_pool = load_question_pool(args.data_root)
    with ChatEndpoint(question_pool, args.admit) as endpoint:
        # Renamed into place, so a reader never sees a partial port.
        partial = args.port_file.with_name(args.port_file.name + ".partial")
        partial.write_text(str(endpoint.server_port))
        os.replace(partial, args.port_file)
        endpoint.serve_forever()


if __name__ == "__main__":
    main()
