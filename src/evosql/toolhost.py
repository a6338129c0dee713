"""A warm interpreter that runs every packaged analysis tool, one fork per run.

toolrun starts one host per evosql process, shared by every caller. Each
message is one line. A request is `<id> <json>` ({"argv", "cwd", "stderr"});
`kill <id>` kills that request's child if it still runs. Each reply is
`<id> <exit code>` (negative for a signal), written once the child is
reaped. EOF on stdin ends the host, killing and reaping every child first.

Each request runs in a spare child forked ahead of it, at start and after
each hand-over, which only drops the host's descriptors and waits on a pipe
of its own. It runs `python|python3 <script>.py [args]` in its own
interpreter, as `python <script> <args>` would, leaving by os._exit after
the exit steps a tool can observe (see _exit): module teardown would only
copy the pages it shares with the host. It execs any other command.

The host imports only what it needs to serve requests, plus sqlite3, which
every analysis tool imports. What still differs from a fresh interpreter:
the children of one host share its hash seed and the environment it
started with (an exec'd program too), a relative PYTHONPATH entry was
resolved against the host's working directory, and __del__ does not run
for objects still alive at exit, other than files and named temporary files.
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
    a Python script here, or exec any other command with the signal
    dispositions subprocess gives its children; one that cannot be exec'd
    ends with exit code 127 and the reason as its last line of stderr."""
    os.chdir(request["cwd"])
    err = os.open(request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    os.dup2(err, 2)
    os.close(err)
    argv = request["argv"]
    if argv[:1] in (["python"], ["python3"]):
        if len(argv) >= 2 and argv[1].endswith(".py"):
            signal.signal(signal.SIGINT, signal.default_int_handler)
            _exit(_run_script(argv[1:]))
        argv[0] = sys.executable
    for signum in (signal.SIGINT, signal.SIGPIPE, signal.SIGXFSZ):
        signal.signal(signum, signal.SIG_DFL)
    try:
        os.execvp(argv[0], argv)
    except Exception as exc:
        if isinstance(exc, OSError):
            exc.filename = argv[0]  # named as subprocess names it
        os.write(2, f"cannot execute tool: {exc}\n".encode(errors="replace"))
    os._exit(127)


class _Spare:
    """A child forked ahead of its request, waiting on a pipe of its own.
    A request written there runs as _child; EOF alone ends it silently."""

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

    def start(self, request: bytes) -> int:
        """Hand request to the spare, and return its pid. A spare that is
        gone fails the write, and close() reaps it."""
        pending = memoryview(request)
        while pending:
            pending = pending[os.write(self._pipe, pending):]
        os.close(self._pipe)
        return self.pid

    def close(self) -> None:
        """End the spare unused and reap it."""
        os.close(self._pipe)
        os.waitpid(self.pid, 0)


def _await_request(fd: int) -> None:
    """Body of a spare: hold no descriptor of the host's but stderr, and run
    the request read from fd up to EOF as _child; exit silently if none."""
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
    # SIGINT stays ignored, as in the host, until a tool runs.
    null = os.open(os.devnull, os.O_RDWR)
    os.dup2(null, 0)
    os.dup2(null, 1)
    # Every other descriptor goes, null's too.
    os.closerange(3, fd)
    os.closerange(fd + 1, os.sysconf("SC_OPEN_MAX"))
    with open(fd, "rb") as pipe:
        request = pipe.read()
    if not request:
        os._exit(0)
    _child(json.loads(request))


def main() -> None:
    # Ctrl-C reaches the running tools, which die of it as a fresh
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
    stdin = sys.stdin.fileno()
    buffer = b""
    running: dict[int, int] = {}
    spare = _Spare()
    try:
        while True:
            readable = select.select([stdin, wakeup], [], [])[0]
            if wakeup in readable:
                os.read(wakeup, 512)  # SIGCHLDs
                # Only the requests' children: the spare is reaped by close().
                for request_id, pid in list(running.items()):
                    done, status = os.waitpid(pid, os.WNOHANG)
                    if done:
                        del running[request_id]
                        os.write(sys.stdout.fileno(), b"%d %d\n" % (
                            request_id, os.waitstatus_to_exitcode(status)))
            if stdin not in readable:
                continue
            chunk = os.read(stdin, 65536)
            if not chunk:
                return
            *lines, buffer = (buffer + chunk).split(b"\n")
            for line in lines:
                command, _, rest = line.partition(b" ")
                if command == b"kill":
                    # A request that has ended was answered already.
                    if (pid := running.get(int(rest))) is not None:
                        os.kill(pid, signal.SIGKILL)
                    continue
                running[int(command)] = spare.start(rest)
                # Should the next fork fail, there is no spare to close.
                spare = None
                spare = _Spare()
    finally:
        for pid in running.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if spare is not None:
            spare.close()


if __name__ == "__main__":
    main()
