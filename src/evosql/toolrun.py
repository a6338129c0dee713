"""The runner for agents' packaged analysis tools, and its raw-DDL fallback.

run_agent_tool runs a package's tool in an isolated working directory and
returns its analysis text, within a token budget. A Python tool is forked
from a warm tool host (toolhost.py); any other command runs as a plain
subprocess. The tool's database is a hard link to a process-private copy
of the pool file, made once and reused while no tool has changed it. A
tool that fails falls back to extract_naive_schema, the raw DDL of the
database. The run loop, Deep Focus and `evosql evaluate` all run
tools here; analyzer.py holds the reference analyzer, which none of them
calls.
"""

import atexit
import contextlib
import fcntl
import json
import logging
import math
import os
import select
import shlex
import shutil
import signal
import sqlite3
import subprocess
import sys
import tempfile
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

from .errors import AnalysisError
from .registry import AgentPackage, TOOLS_DIRNAME

logger = logging.getLogger(__name__)

DEFAULT_TOKEN_BUDGET = 150_000
BYTES_PER_TOKEN = 4
DEFAULT_TOOL_TIMEOUT = 300.0
TOOL_HOST_SCRIPT = Path(__file__).with_name("toolhost.py")
# How long a tool host may take to report a killed tool or to exit.
HOST_GRACE_S = 10.0
# Bytes read from the end of a failed tool's stderr for the fallback reason.
STDERR_TAIL_BYTES = 4096
# The mtime staging gives a database copy (2000-01-01 UTC): any later write
# moves it, however soon after staging it comes.
STAGED_MTIME_NS = 946_684_800 * 10**9


def estimate_tokens(text: str) -> int:
    """Cheap token estimate: one token per BYTES_PER_TOKEN bytes, rounded up."""
    return math.ceil(len(text.encode("utf-8")) / BYTES_PER_TOKEN)


def connect_readonly(db_path: str | Path) -> sqlite3.Connection:
    """A read-only connection to the SQLite file at db_path."""
    quoted = urllib.parse.quote(str(Path(db_path)))
    return sqlite3.connect(f"file:{quoted}?mode=ro", uri=True)


def schema_ddl(conn: sqlite3.Connection) -> str:
    rows = conn.execute(
        "SELECT sql || ';' FROM sqlite_master "
        "WHERE sql IS NOT NULL "
        "ORDER BY tbl_name, type DESC, name"
    ).fetchall()
    return "\n".join(sql for (sql,) in rows)


def extract_naive_schema(db_path: str | Path) -> str:
    """Raw DDL dump: every non-null schema statement suffixed ';', ordered
    by (table name, object type descending, object name)."""
    try:
        conn = connect_readonly(db_path)
        try:
            return schema_ddl(conn)
        finally:
            conn.close()
    except sqlite3.Error as exc:
        raise AnalysisError(f"cannot read {db_path}: {exc}") from exc


@dataclass
class ToolRunResult:
    """Output of one packaged-tool invocation: the analysis text, or None
    when the (agent, database) pair is evaluation-blocked. reason says why
    the tool fell back or the pair is blocked."""

    text: str | None
    fallback: bool = False
    reason: str | None = None


class _HostDied(Exception):
    """A tool host ended or stopped answering before a run finished."""


class _ToolHost:
    """One warm interpreter running toolhost.py; serves one run at a time."""

    def __init__(self):
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(TOOL_HOST_SCRIPT)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise _HostDied(f"cannot start tool host: {exc}") from exc
        self._buffer = b""
        # poll, unlike select, takes descriptors past FD_SETSIZE.
        self._answers = select.poll()
        self._answers.register(self.proc.stdout, select.POLLIN)
        # False from a request until its answer is read: a host that is not
        # ready is out of step and serves no further run.
        self.ready = True

    def run(self, argv: list[str], cwd: Path, stderr_path: Path, timeout: float) -> int:
        """Exit code of `python <script> <args>` (argv) run by the host."""
        self.ready = False
        self._send(json.dumps({"argv": argv[1:], "cwd": str(cwd), "stderr": str(stderr_path)}))
        status = self._receive(timeout)
        if status is None:
            # The host kills the tool, reaps it and reports its exit code.
            try:
                self._send("kill")
                self.ready = self._receive(HOST_GRACE_S) is not None
            except _HostDied:
                pass
            raise subprocess.TimeoutExpired(argv, timeout)
        self.ready = True
        return status

    def _send(self, line: str) -> None:
        try:
            self.proc.stdin.write(line.encode() + b"\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise _HostDied(f"tool host {self.proc.pid} is gone: {exc}") from exc

    def _receive(self, timeout: float) -> int | None:
        """The host's next answer; None if none came within timeout."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._answers.poll(remaining * 1000):
                return None
            chunk = os.read(self.proc.stdout.fileno(), 64)
            if not chunk:
                raise _HostDied(f"tool host {self.proc.pid} exited")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return int(line)

    def close(self) -> None:
        """End the host: at EOF it kills a running tool and exits."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(HOST_GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class _ToolHosts:
    """Warm tool hosts, started on demand and reused, so there are never
    more hosts than concurrent callers."""

    def __init__(self):
        self._idle: list[_ToolHost] = []
        self._lock = threading.Lock()
        self.started = 0
        atexit.register(self.close)

    def run(self, argv: list[str], cwd: Path, stderr_path: Path, timeout: float) -> int:
        with self._lock:
            host = self._idle.pop() if self._idle else None
        if host is None:
            host = _ToolHost()
            with self._lock:
                self.started += 1
        try:
            return host.run(argv, cwd, stderr_path, timeout)
        finally:
            if host.ready:
                with self._lock:
                    self._idle.append(host)
            else:
                host.close()

    def close(self) -> None:
        """End every idle host."""
        with self._lock:
            idle, self._idle = self._idle, []
        for host in idle:
            host.close()


_TOOL_HOSTS = _ToolHosts()


def _remove(path: Path) -> None:
    """Unlink path if it can be; a copy that cannot be removed is dropped
    all the same, and close() tries again."""
    with contextlib.suppress(OSError):
        path.unlink()


def _opened_elsewhere(path: Path) -> bool:
    """Whether any open file or mapping but the one this opens refers to
    path. The kernel grants a write lease only when none does; where it
    grants none at all, the answer is yes."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return True
    try:
        # An open racing the lease would signal this process: SIGURG, which
        # is ignored by default, rather than SIGIO, which would end it.
        fcntl.fcntl(fd, fcntl.F_SETSIG, signal.SIGURG)
        fcntl.fcntl(fd, fcntl.F_SETLEASE, fcntl.F_WRLCK)
        return False
    except (OSError, AttributeError):
        return True
    finally:
        # Closing the descriptor releases the lease.
        os.close(fd)


class _Copy:
    """A private copy of one pool database, and its stat as staging left it."""

    def __init__(self, key: tuple, path: Path):
        self.key = key
        self.path = path
        self._stamp = self._stat()

    def _stat(self) -> tuple:
        st = os.stat(self.path)
        return st.st_ino, st.st_size, st.st_mtime_ns, st.st_mode, st.st_nlink

    def untouched(self) -> bool:
        """Whether the copy still has the inode, size, mtime and mode staging
        gave it, no link but its own, and no process holding it open."""
        try:
            return self._stat() == self._stamp and not _opened_elsewhere(self.path)
        except OSError:
            return False


class _StagedCopies:
    """Private copies of pool databases for tool runs. A run checks out a
    copy no other run holds and returns it; a copy is reused only while no
    tool has changed it, and is dropped on return if an idle copy of its
    database is there already. Copies on disk never outnumber the most runs
    ever in flight at once plus the databases named by the last keep():
    past that, the least recently returned idle copy goes first."""

    def __init__(self):
        self._idle: list[_Copy] = []
        self._lock = threading.Lock()
        self._dir: Path | None = None
        self._in_flight = 0
        self._kept: set[str] = set()
        self.peak = 0
        self.made = 0
        atexit.register(self.close)

    def keep(self, db_paths) -> None:
        """Make room for an idle copy of each of db_paths, the databases a
        caller is about to run tools on, and remove the idle copies of any
        other database."""
        kept = {os.path.realpath(p) for p in db_paths}
        with self._lock:
            self._kept = kept
            dropped = [c for c in self._idle if c.key[0] not in kept]
            self._idle = [c for c in self._idle if c.key[0] in kept]
        for copy in dropped:
            _remove(copy.path)

    def checkout(self, db_path) -> _Copy:
        st = os.stat(db_path)
        key = (os.path.realpath(db_path), st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
        with self._lock:
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
            copy = next((c for c in reversed(self._idle) if c.key == key), None)
            if copy is not None:
                self._idle.remove(copy)
        try:
            if copy is not None:
                if copy.untouched():
                    return copy
                _remove(copy.path)
            return self._make(db_path, key)
        except BaseException:
            with self._lock:
                self._in_flight -= 1
            raise

    def _make(self, db_path, key: tuple) -> _Copy:
        with self._lock:
            excess = max(0, len(self._idle) + self._in_flight - self.peak - len(self._kept))
            evicted, self._idle = self._idle[:excess], self._idle[excess:]
            if self._dir is None:
                self._dir = Path(tempfile.mkdtemp(prefix="evosql_copies_"))
            self.made += 1
            path = self._dir / f"{self.made}.sqlite"
        for copy in evicted:
            _remove(copy.path)
        try:
            shutil.copy(db_path, path)
            os.utime(path, ns=(STAGED_MTIME_NS, STAGED_MTIME_NS))
            return _Copy(key, path)
        except BaseException:
            _remove(path)
            raise

    def checkin(self, copy: _Copy) -> None:
        # A copy that is not kept is removed while its run still counts as in
        # flight, so that no new copy can join it on disk past the bound.
        try:
            with self._lock:
                spare = any(c.key == copy.key for c in self._idle)
            if spare or not copy.untouched():
                _remove(copy.path)
                copy = None
        finally:
            with self._lock:
                self._in_flight -= 1
                if copy is not None:
                    self._idle.append(copy)

    def close(self) -> None:
        """Remove every copy; a run still holding one loses it at checkin."""
        with self._lock:
            self._idle = []
            copies_dir, self._dir = self._dir, None
        if copies_dir is not None:
            shutil.rmtree(copies_dir, ignore_errors=True)


_STAGED_COPIES = _StagedCopies()


def keep_copies(db_paths) -> None:
    """Keep an idle copy of each of db_paths between tool runs, and none of
    any other database, for a caller about to run tools several times on
    each of these databases. Copies on disk may then number the most runs
    in flight at once plus these databases."""
    _STAGED_COPIES.keep(db_paths)


def _hosted(argv: list[str]) -> bool:
    """Whether a tool host can run argv: `python|python3 <script>.py [args]`."""
    return (
        hasattr(os, "fork")
        and len(argv) >= 2
        and argv[0] in ("python", "python3")
        and argv[1].endswith(".py")
    )


def _run_subprocess(argv: list[str], cwd: Path, stderr_path: Path, timeout: float) -> int:
    with open(stderr_path, "wb") as stderr:
        return subprocess.run(
            argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=stderr, timeout=timeout,
        ).returncode


def _stderr_tail(path: Path) -> str:
    """The last line in the final STDERR_TAIL_BYTES of a tool's stderr."""
    try:
        with open(path, "rb") as stderr:
            size = stderr.seek(0, os.SEEK_END)
            stderr.seek(max(0, size - STDERR_TAIL_BYTES))
            tail = stderr.read().decode(errors="replace").strip()
    except OSError:
        return ""
    return tail.splitlines()[-1] if tail else ""


def _run_staged(pkg: AgentPackage, db_path, argv: list[str], runner, timeout: float,
                max_bytes: int) -> tuple[str | None, str | None]:
    """Run the tool once in a fresh working directory: (output, None), or
    (None, why the run failed)."""
    try:
        workdir = Path(tempfile.mkdtemp(prefix="evosql_tool_"))
    except OSError as exc:
        return None, f"cannot make work directory: {exc}"
    stderr_path = workdir.with_name(workdir.name + ".stderr")
    copy = None
    try:
        try:
            copy = _STAGED_COPIES.checkout(db_path)
            try:
                os.link(copy.path, workdir / "database.sqlite")
            except OSError:
                shutil.copy(copy.path, workdir / "database.sqlite")
        except OSError as exc:
            return None, f"cannot stage database: {exc}"
        tools_src = pkg.root_dir / TOOLS_DIRNAME
        try:
            if tools_src.is_dir():
                shutil.copytree(tools_src, workdir / TOOLS_DIRNAME)
            (workdir / "tool_output").mkdir(exist_ok=True)
            (workdir / "output").mkdir(exist_ok=True)
        except OSError as exc:
            return None, f"cannot stage tools: {exc}"
        try:
            code = runner(argv, workdir, stderr_path, timeout)
        except subprocess.TimeoutExpired:
            return None, f"timeout after {timeout:g}s"
        except OSError as exc:
            return None, f"cannot execute tool: {exc}"
        output_file = workdir / pkg.tool_output_file
        if code != 0:
            tail = _stderr_tail(stderr_path)
            return None, f"exit code {code}" + (f": {tail}" if tail else "")
        if not output_file.is_file():
            return None, f"tool produced no {pkg.tool_output_file}"
        with open(output_file, "rb") as out:
            text = out.read(max_bytes).decode(errors="replace")
        if not text.strip():
            return None, f"tool wrote an empty {pkg.tool_output_file}"
        return text, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stderr_path.unlink(missing_ok=True)
        # After the work directory's link to the copy is gone.
        if copy is not None:
            _STAGED_COPIES.checkin(copy)


def run_agent_tool(
    pkg: AgentPackage, db_path: str | Path, timeout: float = DEFAULT_TOOL_TIMEOUT,
    token_budget: int = DEFAULT_TOKEN_BUDGET,
) -> ToolRunResult:
    """Run a package's analysis tool in an isolated working directory.

    The tool sees a private copy of the database as ./database.sqlite (a
    hard link to a copy reused while no tool changes it) plus the
    package's tools/ directory, and must write its declared output file with
    exit code 0. Its stdin is /dev/null, its stdout is discarded, and only
    the end of its stderr is read, for the fallback reason. Nonzero exit,
    timeout, or a missing or blank output file falls back to the raw-DDL
    extractor with the result tagged as a fallback, and so does a work
    directory, database or tools/ directory that cannot be staged (reason
    `cannot make work directory: <error>`, `cannot stage database: <error>`
    or `cannot stage tools: <error>`). At
    most token_budget * BYTES_PER_TOKEN + 1 bytes of the output file are
    read, as UTF-8, so a longer file is over budget. An analysis over
    budget, or a tool whose naive fallback fails or is blank too, blocks the
    (agent, database) pair: the text is None and the reason says why.

    `python|python3 <script>.py [args]` runs in a child forked from a warm
    tool host (toolhost.py); any other command runs as a plain subprocess.
    """
    text = reason = None
    if pkg.execution_mode != "fallback_naive":
        argv = shlex.split(pkg.tool_command)
        # A host that dies is replaced and the run retried once; should the
        # replacement die too, the tool runs as a plain subprocess. A host's
        # death never counts as the tool's failure.
        runners = [_TOOL_HOSTS.run] * 2 if _hosted(argv) else []
        if argv and argv[0] in ("python", "python3"):
            argv[0] = sys.executable
        for runner in runners + [_run_subprocess]:
            try:
                text, reason = _run_staged(pkg, db_path, argv, runner, timeout,
                                           token_budget * BYTES_PER_TOKEN + 1)
                break
            except _HostDied as exc:
                logger.warning("tool run of agent %s on %s lost its host (%s); retrying",
                               pkg.id, db_path, exc)
        if reason is not None:
            logger.warning("tool for agent %s failed on %s (%s); using naive fallback",
                           pkg.id, db_path, reason)
    fallback = reason is not None
    if text is None:
        try:
            text = extract_naive_schema(db_path)
            if not text.strip():
                raise AnalysisError(f"{db_path} has no schema")
        except AnalysisError as exc:
            blocked = (f"agent {pkg.id}: tool failed ({reason}) and naive fallback failed: "
                       f"{exc}" if fallback else str(exc))
            logger.error("analysis blocked for (%s, %s): %s", pkg.id, db_path, blocked)
            return ToolRunResult(None, fallback, blocked)
    tokens = estimate_tokens(text)
    if tokens > token_budget:
        # Oversized analyses would overflow the generation context.
        logger.error("analysis for (%s, %s) is %d tokens, budget %d",
                     pkg.id, db_path, tokens, token_budget)
        return ToolRunResult(None, fallback, f"analysis over token budget ({tokens})")
    return ToolRunResult(text, fallback, reason)
