"""Tests for running packaged tools from warm tool hosts.

A `python <script>.py` tool command runs in a child forked from a warm
host interpreter (evosql/toolhost.py); every other command runs as a plain
subprocess. The parity tests run the same script both ways and compare.
"""

import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import evosql
from evosql import toolrun
from evosql.registry import load_package, write_package
from evosql.toolrun import extract_naive_schema, run_agent_tool


@pytest.fixture
def hosts(monkeypatch):
    """A fresh host pool for one test, closed afterwards."""
    pool = toolrun._ToolHosts()
    monkeypatch.setattr(toolrun, "_TOOL_HOSTS", pool)
    yield pool
    pool.close()


def _workdir(tmp_path: Path, script: str, **siblings: str) -> Path:
    workdir = tmp_path / "work"
    (workdir / "tools").mkdir(parents=True)
    (workdir / "tools" / "probe.py").write_text(script)
    for name, body in siblings.items():
        (workdir / "tools" / f"{name}.py").write_text(body)
    return workdir


def _run_both(hosts, workdir: Path, *args: str, timeout: float = 60) -> dict:
    """Run tools/probe.py with args on the host and as a plain subprocess:
    {path: (exit code, stderr text)}."""
    argv = [sys.executable, "tools/probe.py", *args]
    runs = {}
    for path, runner in (("host", hosts.run), ("subprocess", toolrun._run_subprocess)):
        stderr_path = workdir.parent / f"{path}.stderr"
        code = runner(argv, workdir, stderr_path, timeout)
        runs[path] = (code, stderr_path.read_text())
    assert hosts.started == 1
    return runs


_NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                     reason="needs /dev/full to make a flush fail")


@pytest.mark.parametrize(
    "script,code,stderr_end",
    [
        ("x = 1\n", 0, ""),
        ("import sys\nsys.exit(None)\n", 0, ""),
        ("import sys\nsys.exit(3)\n", 3, ""),
        ("import sys\nsys.exit(256)\n", 0, ""),
        ("import sys\nsys.exit(-1)\n", 255, ""),
        ("import sys\nsys.exit(True)\n", 1, ""),
        ("import sys\nsys.exit(2 ** 40 + 7)\n", 7, ""),
        ("import sys\nsys.exit('msg')\n", 1, "msg\n"),
        ("def f():\n    raise ValueError('boom')\nf()\n", 1, "ValueError: boom\n"),
        ("def (\n", 1, "SyntaxError: invalid syntax\n"),
        # Standard streams are flushed before module teardown would close
        # the file that replaced one.
        pytest.param("import sys\nsys.stdout = open('/dev/full', 'w')\nprint('x')\n", 120,
                     "OSError: [Errno 28] No space left on device\n", marks=_NEEDS_DEV_FULL),
        pytest.param("import sys\nsys.stderr = open('/dev/full', 'w')\n"
                     "print('x', file=sys.stderr)\n", 120, "", marks=_NEEDS_DEV_FULL),
        ("raise KeyboardInterrupt\n", -signal.SIGINT, "KeyboardInterrupt\n"),
    ],
    ids=["end", "exit-none", "exit-3", "exit-256", "exit-minus-1", "exit-true", "exit-2**40+7",
         "exit-msg", "exception", "syntax-error", "stdout-flush-fails", "stderr-flush-fails",
         "interrupt"],
)
def test_host_exit_codes_match_a_fresh_interpreter(hosts, tmp_path, script, code, stderr_end):
    runs = _run_both(hosts, _workdir(tmp_path, script))
    assert runs["host"][0] == runs["subprocess"][0] == code
    assert runs["host"][1].endswith(stderr_end)
    assert runs["subprocess"][1].endswith(stderr_end)
    # A traceback starts in the script, as a fresh interpreter's does.
    assert runs["host"][1] == runs["subprocess"][1]
    if script.startswith("def f"):
        assert runs["host"][1].startswith("Traceback (most recent call last):\n")


def test_host_shuts_down_like_a_fresh_interpreter(hosts, tmp_path, monkeypatch):
    # atexit handlers run, a non-daemon thread is joined, a file left open
    # is flushed, and stderr is flushed before the exit code is reported;
    # stderr is buffered unless PYTHONUNBUFFERED is set.
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    script = (
        "import atexit, sys, threading, time\n"
        "atexit.register(lambda: sys.stderr.write(' atexit'))\n"
        "def late():\n"
        "    time.sleep(0.2)\n"
        "    open('thread.txt', 'a').write('joined ')\n"
        "threading.Thread(target=late).start()\n"
        "unclosed = open('unclosed.txt', 'a')\n"
        "unclosed.write('flushed ')\n"
        "sys.stderr.write('no newline')\n"
        "sys.exit(4)\n"
    )
    workdir = _workdir(tmp_path, script)
    runs = _run_both(hosts, workdir)
    assert runs["host"] == runs["subprocess"] == (4, "no newline atexit")
    assert (workdir / "thread.txt").read_text() == "joined joined "
    assert (workdir / "unclosed.txt").read_text() == "flushed flushed "


def test_interrupt_while_joining_threads_is_reported_and_ignored(hosts, tmp_path):
    # Ctrl-C while the tool waits for its threads ends the wait, and exit
    # goes on with atexit handlers and exit code 0.
    script = (
        "import atexit, os, signal, sys, threading, time\n"
        "atexit.register(lambda: sys.stderr.write('atexit\\n'))\n"
        "def interrupt():\n"
        "    time.sleep(0.2)\n"
        "    os.kill(os.getpid(), signal.SIGINT)\n"
        "    time.sleep(60)\n"
        "threading.Thread(target=interrupt).start()\n"
    )
    runs = _run_both(hosts, _workdir(tmp_path, script))
    assert runs["host"] == runs["subprocess"]
    code, stderr = runs["host"]
    assert code == 0
    assert stderr.startswith("Exception ignored in: <module 'threading'")
    assert stderr.endswith("KeyboardInterrupt: \natexit\n")


def test_host_closes_files_a_tool_left_open(hosts, tmp_path):
    # Text, buffered and unbuffered files, one opened by an imported
    # sibling module, and one written only by an atexit handler: each ends
    # with all its data on disk.
    script = (
        "import atexit\n"
        "import helper\n"
        "appended = open('appended.bin', 'ab')\n"
        "appended.write(b'ab ')\n"
        "raw = open('raw.bin', 'ab', buffering=0)\n"
        "raw.write(b'raw ')\n"
        "late = open('late.txt', 'a')\n"
        "atexit.register(late.write, 'atexit ')\n"
    )
    helper = "LOG = open('sibling.txt', 'a')\nLOG.write('sibling ')\n"
    workdir = _workdir(tmp_path, script, helper=helper)
    runs = _run_both(hosts, workdir)
    assert runs["host"] == runs["subprocess"] == (0, "")
    assert (workdir / "appended.bin").read_bytes() == b"ab ab "
    assert (workdir / "raw.bin").read_bytes() == b"raw raw "
    assert (workdir / "sibling.txt").read_text() == "sibling sibling "
    assert (workdir / "late.txt").read_text() == "atexit atexit "


def test_host_deletes_named_temporary_files_a_tool_left_open(hosts, tmp_path):
    # The files go outside the working directory, which run_agent_tool
    # removes after every run: only the tool's exit can delete them.
    leaks = tmp_path / "leaks"
    leaks.mkdir()
    script = (
        "import sys, tempfile\n"
        "leak = tempfile.NamedTemporaryFile('w', prefix='leak', dir=sys.argv[1])\n"
        "leak.write('unflushed')\n"
        "with open('created.txt', 'a') as f:\n"
        "    f.write(leak.name + '\\n')\n"
    )
    workdir = _workdir(tmp_path, script)
    runs = _run_both(hosts, workdir, str(leaks))
    assert runs["host"] == runs["subprocess"] == (0, "")
    assert len((workdir / "created.txt").read_text().splitlines()) == 2
    assert list(leaks.iterdir()) == []


def test_host_differs_from_a_fresh_interpreter_only_as_documented(hosts, tmp_path):
    # The host preloads sqlite3, and a child leaves without tearing down
    # its modules, so __del__ does not run for an object still alive at
    # exit. Python does not promise that call at exit either.
    script = (
        "import json, sys\n"
        "preloaded = 'sqlite3' in sys.modules\n"
        "class Finalized:\n"
        "    def __del__(self, open=open):  # builtins are gone by then\n"
        "        with open('del.txt', 'a') as f:\n"
        "            f.write('del ')\n"
        "alive = Finalized()\n"
        "with open('seen.json', 'a') as f:\n"
        "    f.write(json.dumps(preloaded) + '\\n')\n"
    )
    workdir = _workdir(tmp_path, script)
    runs = _run_both(hosts, workdir)
    assert runs["host"] == runs["subprocess"] == (0, "")
    assert (workdir / "seen.json").read_text().splitlines() == ["true", "false"]
    assert (workdir / "del.txt").read_text() == "del "


def test_module_state_does_not_leak_between_runs(hosts, tmp_path):
    # The preloaded sqlite3 is the host's, but a run's changes to it stay
    # in that run's child.
    script = (
        "import sqlite3\n"
        "conn = sqlite3.connect(':memory:')\n"
        "try:\n"
        "    conn.execute('SELECT ?', (1j,))\n"
        "    seen = 'adapted'\n"
        "except sqlite3.ProgrammingError:\n"
        "    seen = 'unsupported'\n"
        "conn.close()\n"
        "sqlite3.register_adapter(complex, str)\n"
        "with open('seen.txt', 'a') as f:\n"
        "    f.write(seen + ' ')\n"
    )
    workdir = _workdir(tmp_path, script)
    argv = [sys.executable, "tools/probe.py"]
    for _ in range(2):
        assert hosts.run(argv, workdir, tmp_path / "stderr", 60) == 0
    assert hosts.started == 1
    assert (workdir / "seen.txt").read_text() == "unsupported unsupported "


def test_host_sets_main_argv_path_and_cwd(hosts, tmp_path):
    script = (
        "import json, os, sys\n"
        "import helper\n"
        "seen = {\n"
        "    'name': __name__, 'file': __file__, 'argv': sys.argv,\n"
        "    'path0': sys.path[0], 'cwd': os.getcwd(), 'sibling': helper.VALUE,\n"
        "    'stdin': sys.stdin.read(), 'env': dict(os.environ),\n"
        "    'flags': [sys.flags.no_site, sys.flags.isolated, sys.flags.safe_path,\n"
        "              sys.flags.ignore_environment],\n"
        "}\n"
        "print('stdout is discarded')\n"
        "with open('seen.json', 'a') as f:\n"
        "    f.write(json.dumps(seen) + '\\n')\n"
    )
    workdir = _workdir(tmp_path, script, helper="VALUE = 42\n")
    runs = _run_both(hosts, workdir, "a b", "c")
    assert runs["host"] == runs["subprocess"] == (0, "")
    host_seen, fresh_seen = map(json.loads, (workdir / "seen.json").read_text().splitlines())
    assert host_seen == fresh_seen
    assert host_seen["name"] == "__main__"
    assert host_seen["file"] == str(workdir / "tools" / "probe.py")
    assert host_seen["argv"] == ["tools/probe.py", "a b", "c"]
    assert host_seen["path0"] == os.path.realpath(workdir / "tools")
    assert host_seen["cwd"] == os.path.realpath(workdir)
    assert host_seen["sibling"] == 42
    assert host_seen["stdin"] == ""
    assert host_seen["flags"] == [0, 0, False, 0]


def _package(root: Path, script: str, command: str = "python tools/probe.py"):
    write_package(
        root,
        name="probe",
        tool_command=command,
        tool_output_file="tool_output/out.txt",
        instructions="x\n",
        tools={"probe.py": script},
    )
    return load_package(root)


@pytest.fixture(params=["host", "subprocess"])
def tool_path(request, hosts, monkeypatch):
    """Run run_agent_tool's python commands on the host or, with the host
    path switched off, as plain subprocesses."""
    if request.param == "subprocess":
        monkeypatch.setattr(toolrun, "_hosted", lambda argv: False)
    yield request.param
    assert hosts.started == (request.param == "host")


def test_timed_out_tool_is_killed_and_reaped(tool_path, tmp_path, school_db):
    pid_file = tmp_path / "pid"
    script = (
        "import os, sys, time\n"
        "with open(sys.argv[1], 'w') as f:\n"
        "    f.write(str(os.getpid()))\n"
        "time.sleep(60)\n"
    )
    pkg = _package(tmp_path / "slow", script, f"python tools/probe.py {pid_file}")
    result = run_agent_tool(pkg, school_db, timeout=2.0)
    assert result.fallback is True
    assert result.reason == "timeout after 2s"
    pid = int(pid_file.read_text())
    # A zombie would still accept signal 0: the tool is dead and reaped.
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_tool_stdio_is_bounded(tool_path, tmp_path, school_db):
    script = (
        "import sys\n"
        "chunk = 'x' * (1 << 20)\n"
        "for _ in range(8):\n"
        "    sys.stdout.write(chunk)\n"
        "    sys.stderr.write(chunk)\n"
        "sys.stderr.write('\\nMARKER the real reason\\n')\n"
        "sys.exit(3)\n"
    )
    result = run_agent_tool(_package(tmp_path / "loud", script), school_db, timeout=60)
    assert result.fallback is True
    assert result.reason == "exit code 3: MARKER the real reason"
    assert result.text == extract_naive_schema(school_db)


def test_tool_writing_its_database_leaves_the_pool_copy_unchanged(tool_path, tmp_path,
                                                                   school_db):
    # One committed INSERT, and one still in an open transaction at exit.
    script = (
        "import sqlite3\n"
        "conn = sqlite3.connect('database.sqlite')\n"
        "(count,) = conn.execute('SELECT count(*) FROM students').fetchone()\n"
        "with open('tool_output/out.txt', 'w') as f:\n"
        "    f.write(f'{count} students')\n"
        "conn.execute(\"INSERT INTO students VALUES (6, 'Finn', 3, '2021-09-01')\")\n"
        "conn.commit()\n"
        "conn.execute(\"INSERT INTO students VALUES (7, 'Gus', 3, '2021-09-01')\")\n"
    )
    pkg = _package(tmp_path / "writer", script)
    before = school_db.read_bytes()
    first = run_agent_tool(pkg, school_db, timeout=60)
    second = run_agent_tool(pkg, school_db, timeout=60)
    assert (first.text, first.fallback) == ("5 students", False)
    assert second == first
    assert school_db.read_bytes() == before


def test_concurrent_runs_start_at_most_one_host_per_caller(hosts, naive_package_dir, school_db):
    pkg = load_package(naive_package_dir)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: run_agent_tool(pkg, school_db, timeout=60),
                                    range(8)))
    finally:
        sys.setswitchinterval(interval)
    assert {(r.text, r.fallback) for r in results} == {(extract_naive_schema(school_db), False)}
    assert 1 <= hosts.started <= 4


def test_dead_host_is_replaced_and_not_charged(hosts, naive_package_dir, school_db):
    pkg = load_package(naive_package_dir)
    first = run_agent_tool(pkg, school_db, timeout=60)
    (host,) = hosts._idle
    host.proc.kill()
    host.proc.wait(10)
    second = run_agent_tool(pkg, school_db, timeout=60)
    assert second == first
    assert second.fallback is False
    assert hosts.started == 2


def test_host_dying_mid_run_is_retried_on_a_new_host(hosts, tmp_path, school_db):
    # The first run kills its own host; the retry on a new host succeeds.
    marker = tmp_path / "host-killed"
    script = (
        "import os, signal, sys\n"
        "marker = sys.argv[1]\n"
        "if not os.path.exists(marker):\n"
        "    open(marker, 'w').close()\n"
        "    os.kill(os.getppid(), signal.SIGKILL)\n"
        "    sys.exit(5)\n"
        "open('tool_output/out.txt', 'w').write('second try')\n"
    )
    pkg = _package(tmp_path / "killer", script, f"python tools/probe.py {marker}")
    result = run_agent_tool(pkg, school_db, timeout=60)
    assert (result.text, result.fallback) == ("second try", False)
    assert hosts.started == 2


def test_process_exits_promptly_and_leaves_no_host(tmp_path, naive_package_dir, school_db):
    code = (
        "import sys, tempfile\n"
        "from evosql import toolrun\n"
        "from evosql.registry import load_package\n"
        f"result = toolrun.run_agent_tool(load_package({str(naive_package_dir)!r}), "
        f"{str(school_db)!r}, timeout=60)\n"
        "assert not result.fallback, result.reason\n"
        "assert toolrun._STAGED_COPIES._dir.parent.samefile(tempfile.gettempdir())\n"
        "print(*[host.proc.pid for host in toolrun._TOOL_HOSTS._idle])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(evosql.__file__).parents[1]),
           "TMPDIR": str(tmp_path)}
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    # A host that did not end by itself would hold the exit for HOST_GRACE_S.
    assert elapsed < toolrun.HOST_GRACE_S
    (host_pid,) = map(int, proc.stdout.split())
    with pytest.raises(ProcessLookupError):
        os.kill(host_pid, 0)
    # No work directory and no database copy is left either.
    assert list(tmp_path.iterdir()) == []
