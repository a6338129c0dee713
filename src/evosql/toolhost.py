"""A warm interpreter that runs packaged analysis tools, one fork per run.

toolrun.run_agent_tool starts this file as a script and keeps it for
later runs. The protocol is one line each way. The parent writes a JSON
request {"argv": [script, *args], "cwd": ..., "stderr": ...}. A child of
the host runs the script the way `python <script> <args>` would, and the
host answers with the child's exit code (negative for a signal) as a
decimal line. A line written while a child runs kills it; the host still
answers with its exit code. EOF on stdin ends the host, killing a running
child first.

The child is forked before its request arrives: the host keeps one idle
spare, forked at start and again right after each request is handed over,
so a run does not wait for the fork. The spare does nothing a tool could
observe before its request: it only drops the host's descriptors and waits
on a pipe of its own, and it exits when the host closes that pipe, or dies.
Its memory, like the host's, is outside evosql's own RSS.

A child leaves by os._exit after the exit steps a tool can observe (see
_exit), not by interpreter shutdown: tearing down the modules would only
write to the pages the child shares with the host, copying them.

The host imports only what it needs to serve requests, plus sqlite3, which
every analysis tool imports, so a tool finds nearly the module state a
fresh interpreter has. What still differs: the children of one host share
its hash seed and the environment it started with, a relative PYTHONPATH
entry was resolved against the host's working directory, not the tool's,
and __del__ does not run for objects still alive at exit, other than files
and named temporary files.
"""

import _io
import atexit
import builtins
import gc
import json
import os
import select
import signal
import sqlite3  # noqa: F401  preloaded: every analysis tool imports it
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


def _run_script(argv: list[str]) -> int | None:
    """Run argv[0] as __main__ and return its exit code, or None after an
    uncaught KeyboardInterrupt. Exit messages and tracebacks go to stderr
    as a fresh interpreter writes them."""
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
        return 2
    try:
        exec(compile(source, script, "exec"), main.__dict__)
    except SystemExit as exc:
        return _exit_code(exc)
    except BaseException as exc:
        # Drop this frame: the traceback starts in the script, as under a
        # fresh interpreter, and is empty for a SyntaxError.
        exc.with_traceback(exc.__traceback__.tb_next)
        sys.excepthook(type(exc), exc, exc.__traceback__)
        return None if isinstance(exc, KeyboardInterrupt) else 1
    return 0


def _exit_code(exc: SystemExit) -> int:
    """The exit status `python` gives for exc: an int code modulo 256, 0
    for None, and 1 for any other code, which is written to stderr."""
    if exc.code is None:
        return 0
    if isinstance(exc.code, int):
        return exc.code & 0xFF
    try:
        sys.stderr.write(f"{exc.code}\n")
    except Exception:
        pass
    return 1


def _unraisable(obj, exc: BaseException) -> None:
    """Report an exception raised while exiting, which cannot propagate,
    as Python's default sys.unraisablehook does, without this module's
    frame."""
    import traceback

    kind = type(exc)
    name = kind.__qualname__
    if kind.__module__ != "builtins":
        name = f"{kind.__module__}.{name}"
    frames = traceback.format_tb(exc.__traceback__.tb_next)
    if frames:
        frames.insert(0, "Traceback (most recent call last):\n")
    try:
        sys.stderr.write(f"Exception ignored in: {obj!r}\n{''.join(frames)}{name}: {exc}\n")
    except Exception:
        pass


def _exit(code: int | None) -> None:
    """Leave the child with exit code, or by SIGINT for None, after the
    steps of interpreter shutdown that a tool can observe, in CPython's
    order: non-daemon threads are joined, atexit handlers run, stdout and
    stderr are flushed (exit code 120 if that fails), and the files the
    tool left open are closed, named temporary ones deleted, as module
    teardown would. The teardown itself is skipped."""
    threading = sys.modules.get("threading")
    if threading is not None:
        try:
            threading._shutdown()
        except BaseException as exc:
            _unraisable(threading, exc)
    atexit._run_exitfuncs()
    # A fresh interpreter runs no signal handler past this point.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None and not stream.closed:
                stream.flush()
        except Exception as exc:
            if stream is sys.stdout:
                _unraisable(stream, exc)
            if code is not None:
                code = 120
    # The host's objects are frozen, so these are the tool's own; each
    # filter runs a type's check at C speed. A text wrapper flushes into
    # its buffered file, and that into its raw one, so they close in that
    # order, and any other file last.
    objects = gc.get_objects()
    kinds = [_io._TextIOBase, _io._BufferedIOBase, _io._IOBase]
    tempfile = sys.modules.get("tempfile")
    if tempfile is not None:
        # Closing a named temporary file's wrapper deletes the file, as its
        # __del__ would at teardown; closing its file object does not.
        kinds.insert(0, tempfile._TemporaryFileWrapper)
    for kind in kinds:
        for file in filter(kind.__instancecheck__, objects):
            try:
                file.close()
            except Exception:
                pass
    if code is None:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
        code = 128 + signal.SIGINT
    os._exit(code)


def _child(request: dict) -> None:
    """Body of the child, whose stdin and stdout are /dev/null already: run
    the tool, then leave by _exit, with the exit code `python <script>`
    gives."""
    os.chdir(request["cwd"])
    err = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    os.dup2(err, 2)
    os.close(err)
    _exit(_run_script(request["argv"]))


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


class _Spare:
    """A child forked ahead of its request, waiting on a pipe of its own.
    A request line written there runs as _child; EOF ends it silently."""

    def __init__(self):
        read, self._pipe = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                _await_request(read)
            finally:
                # Never back into the host's loop, whatever escaped.
                os._exit(1)
        os.close(read)

    def start(self, line: bytes) -> int:
        """Hand line, a request, to the spare; the pid that runs it. A
        spare that is gone fails the write, and close() reaps it."""
        pending = memoryview(line + b"\n")
        while pending:
            pending = pending[os.write(self._pipe, pending):]
        os.close(self._pipe)
        return self.pid

    def close(self) -> None:
        """End the spare unused and reap it."""
        os.close(self._pipe)
        os.waitpid(self.pid, 0)


def _await_request(fd: int) -> None:
    """Body of a spare: hold no descriptor of the host's but stderr, wait
    on fd for a request, and run it as _child; exit silently at EOF."""
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
    # SIGINT stays ignored, as in the host, until a tool runs.
    null = os.open(os.devnull, os.O_RDWR)
    os.dup2(null, 0)
    os.dup2(null, 1)
    # Every other descriptor goes, null's too.
    os.closerange(3, fd)
    os.closerange(fd + 1, os.sysconf("SC_OPEN_MAX"))
    line = _Lines(fd).read()
    os.close(fd)
    if line is None:
        os._exit(0)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    _child(json.loads(line))


def main() -> None:
    # Ctrl-C reaches the running tool, which dies of it as a fresh
    # interpreter would; the host and its spare stay to serve.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    wakeup, wakeup_w = os.pipe()
    os.set_blocking(wakeup_w, False)
    signal.set_wakeup_fd(wakeup_w)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)

    # Keep the host's objects out of the collector's reach: collections in
    # a child then leave the pages they sit on shared instead of copying
    # them, and the child can tell its own objects from the host's.
    gc.freeze()
    requests = _Lines(sys.stdin.fileno())
    spare = _Spare()
    try:
        while (line := requests.read()) is not None:
            pid = spare.start(line)
            # Should the next fork fail, there is no spare to close.
            spare = None
            spare = _Spare()
            status = _wait(pid, requests, wakeup)
            if status is None:
                return
            os.write(sys.stdout.fileno(), b"%d\n" % status)
    finally:
        if spare is not None:
            spare.close()


if __name__ == "__main__":
    main()
