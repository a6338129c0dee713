"""A warm interpreter that runs packaged analysis tools, one fork per run.

analyzer.run_agent_tool starts this file as a script and keeps it for
later runs. The protocol is one line each way. The parent writes a JSON
request {"argv": [script, *args], "cwd": ..., "stderr": ...}. The host
forks a child that runs the script the way `python <script> <args>` would,
and answers with the child's exit code (negative for a signal) as a
decimal line. A line written while a child runs kills it; the host still
answers with its exit code. EOF on stdin ends the host, killing a running
child first.

The host imports only what it needs to serve requests, so a tool finds
nearly the module state a fresh interpreter has. What still differs: the
children of one host share its hash seed and the environment it started
with, and a relative PYTHONPATH entry was resolved against the host's
working directory, not the tool's.
"""

import builtins
import gc
import json
import os
import select
import signal
import sys
import types


class _Lines:
    """Newline-terminated lines read from a file descriptor."""

    def __init__(self, fd: int):
        self.fd = fd
        self._buffer = b""

    def pending(self) -> bool:
        return b"\n" in self._buffer

    def read(self) -> bytes | None:
        """The next line, blocking until it is complete; None at EOF."""
        while b"\n" not in self._buffer:
            chunk = os.read(self.fd, 65536)
            if not chunk:
                return None
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line


def _run_script(argv: list[str]) -> None:
    """Run argv[0] as __main__; an uncaught exception is reported as a
    fresh interpreter reports it."""
    script = os.path.abspath(argv[0])
    sys.argv = list(argv)
    sys.path[0] = os.path.dirname(os.path.realpath(script))
    main = types.ModuleType("__main__")
    main.__file__ = script
    main.__cached__ = None
    main.__builtins__ = builtins
    sys.modules["__main__"] = main
    try:
        with open(script, "rb") as source_file:
            source = source_file.read()
    except OSError as exc:
        print(f"{sys.executable}: can't open file {argv[0]!r}: "
              f"[Errno {exc.errno}] {exc.strerror}", file=sys.stderr)
        sys.exit(2)
    try:
        exec(compile(source, script, "exec"), main.__dict__)
    except (SystemExit, KeyboardInterrupt):
        raise
    except BaseException as exc:
        # Drop this frame: the traceback starts in the script, as under a
        # fresh interpreter, and is empty for a SyntaxError.
        exc.with_traceback(exc.__traceback__.tb_next)
        sys.excepthook(type(exc), exc, exc.__traceback__)
        sys.exit(1)


def _child(request: dict) -> None:
    """Body of the forked child. It leaves by SystemExit (or the tool's
    KeyboardInterrupt), which no frame of the host catches, so the child
    shuts down as a fresh interpreter would: non-daemon threads are
    joined, atexit handlers run, files still open are flushed, and the
    exit code is the one `python <script>` gives."""
    os.chdir(request["cwd"])
    null = os.open(os.devnull, os.O_RDWR)
    err = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    os.dup2(null, 0)
    os.dup2(null, 1)
    os.dup2(err, 2)
    os.close(null)
    os.close(err)
    _run_script(request["argv"])
    sys.exit(0)


def _wait(pid: int, requests: _Lines, wakeup: int) -> int | None:
    """The exit code of child pid. A line on stdin kills the child first;
    at EOF the child is killed and reaped and None returned."""
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if not requests.pending():
            readable = select.select([requests.fd, wakeup], [], [])[0]
            if requests.fd not in readable:
                os.read(wakeup, 512)  # a SIGCHLD
                continue
        command = requests.read()
        os.kill(pid, signal.SIGKILL)
        if command is None:
            os.waitpid(pid, 0)
            return None


def main() -> None:
    # Ctrl-C reaches the running tool, which dies of it as a fresh
    # interpreter would; the host stays to report its exit code.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    wakeup, wakeup_w = os.pipe()
    os.set_blocking(wakeup_w, False)
    signal.set_wakeup_fd(wakeup_w)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)

    # Keep the host's objects out of the collector's reach: collections in
    # a child, and its shutdown, then leave the pages they sit on shared
    # instead of copying them.
    gc.freeze()
    requests = _Lines(sys.stdin.fileno())
    while (line := requests.read()) is not None:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            signal.set_wakeup_fd(-1)
            os.close(wakeup)
            os.close(wakeup_w)
            signal.signal(signal.SIGCHLD, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.default_int_handler)
            _child(request)
        status = _wait(pid, requests, wakeup)
        if status is None:
            return
        os.write(sys.stdout.fileno(), b"%d\n" % status)


if __name__ == "__main__":
    main()
