"""Tests for running packaged tools from the process's warm tool host.

Every tool command runs in a child forked from one host interpreter
(evosql/toolhost.py), shared by every caller: a `python <script>.py`
command in the child's interpreter, any other command by exec. The parity
tests run the same tool on the host and through a `subprocess.run`
reference, and compare.
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
    """The tool hosts started during one test, which starts with none and
    closes the last one afterwards."""
    started = []
    start = toolrun._ToolHost.__init__

    def recorded_start(host):
        start(host)
        started.append(host)

    monkeypatch.setattr(toolrun._ToolHost, "__init__", recorded_start)
    monkeypatch.setattr(toolrun, "_host", None)
    yield started
    if toolrun._host is not None:
        toolrun._host.close()


def _workdir(tmp_path: Path, script: str, **siblings: str) -> Path:
    workdir = tmp_path / "work"
    (workdir / "tools").mkdir(parents=True)
    (workdir / "tools" / "probe.py").write_text(script)
    for name, body in siblings.items():
        (workdir / "tools" / f"{name}.py").write_text(body)
    return workdir


def _host_run(argv: list[str], workdir: Path, stderr_path: Path, timeout: float = 60) -> int:
    """The exit code of argv run on the process's tool host."""
    return toolrun._tool_host().run(argv, workdir, stderr_path, timeout)


def _subprocess_run(argv: list[str], workdir: Path, stderr_path: Path,
                    timeout: float = 60) -> int:
    """The exit code of argv run as a plain subprocess, the reference the
    host is held to."""
    if argv[0] in ("python", "python3"):
        argv = [sys.executable, *argv[1:]]
    with open(stderr_path, "wb") as stderr:
        return subprocess.run(argv, cwd=workdir, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=stderr,
                              timeout=timeout).returncode


def _run_both(hosts, workdir: Path, *args: str, timeout: float = 60,
              argv: tuple = ("python", "tools/probe.py")) -> dict:
    """Run argv (tools/probe.py by default) with args on the host and as a
    plain subprocess: {path: (exit code, stderr text)}."""
    runs = {}
    for path, runner in (("host", _host_run), ("subprocess", _subprocess_run)):
        stderr_path = workdir.parent / f"{path}.stderr"
        code = runner([*argv, *args], workdir, stderr_path, timeout)
        runs[path] = (code, stderr_path.read_text())
    assert len(hosts) == 1
    return runs


_NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                     reason="needs /dev/full to make a flush fail")


def _children_file(pid: int) -> Path:
    return Path(f"/proc/{pid}/task/{pid}/children")


_NEEDS_PROC_CHILDREN = pytest.mark.skipif(
    not _children_file(os.getpid()).exists(), reason="needs /proc/<pid>/task/<pid>/children")


def _children(pid: int) -> list[int]:
    """The pids of the processes whose parent is pid."""
    return [int(child) for child in _children_file(pid).read_text().split()]


def _exited(pid: int) -> bool:
    """Whether process pid has ended: it is gone, or a zombie no one reaps."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return stat.rpartition(")")[2].split()[0] in ("Z", "X")


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


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_tool_sees_the_descriptors_a_fresh_interpreter_sees(hosts, tmp_path):
    # Neither a child's request pipe nor the host's wakeup pipe reaches a
    # tool, whether its child was forked at the host's start or after an
    # earlier request. The listing's own descriptor is in both lists.
    script = (
        "import os\n"
        "fds = sorted(map(int, os.listdir('/proc/self/fd')))\n"
        "with open('fds.txt', 'a') as f:\n"
        "    f.write(f'{fds}\\n')\n"
    )
    workdir = _workdir(tmp_path, script)
    runs = _run_both(hosts, workdir)
    assert runs["host"] == runs["subprocess"] == (0, "")
    assert _host_run(["python", "tools/probe.py"], workdir, tmp_path / "stderr") == 0
    host, fresh, host_again = (workdir / "fds.txt").read_text().splitlines()
    assert host == fresh == host_again == "[0, 1, 2, 3]"


@_NEEDS_PROC_CHILDREN
def test_ctrl_c_between_runs_leaves_host_and_spare_serving(hosts, tmp_path):
    # SIGINT to an idle host and to its spare, as a Ctrl-C to the process
    # group between runs would send, ends neither. The spare then runs the
    # next request, and a tool interrupted there still dies of SIGINT.
    script = (
        "import os, signal, sys\n"
        "with open('pids.txt', 'a') as f:\n"
        "    f.write(f'{os.getpid()}\\n')\n"
        "if sys.argv[1:] == ['interrupt']:\n"
        "    os.kill(os.getpid(), signal.SIGINT)\n"
    )
    workdir = _workdir(tmp_path, script)
    argv = ["python", "tools/probe.py"]
    assert _host_run(argv, workdir, tmp_path / "stderr") == 0
    (host,) = hosts
    (spare,) = _children(host.proc.pid)
    os.kill(host.proc.pid, signal.SIGINT)
    os.kill(spare, signal.SIGINT)
    runs = _run_both(hosts, workdir, "interrupt")
    assert runs["host"] == runs["subprocess"]
    assert runs["host"][0] == -signal.SIGINT
    assert runs["host"][1].endswith("KeyboardInterrupt\n")
    assert int((workdir / "pids.txt").read_text().splitlines()[1]) == spare
    assert _host_run(argv, workdir, tmp_path / "stderr") == 0
    assert len(hosts) == 1


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
    for _ in range(2):
        assert _host_run(["python", "tools/probe.py"], workdir, tmp_path / "stderr") == 0
    assert len(hosts) == 1
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
def tool_path(request, hosts):
    """How a tool command starts Python: `python`, which the host's child
    runs in its own interpreter, or `python -u`, which the child execs as
    a fresh one. Either way one host serves every run."""
    yield {"host": "python", "subprocess": "python -u"}[request.param]
    assert len(hosts) == 1


def test_timed_out_tool_is_killed_and_reaped(tool_path, tmp_path, school_db):
    pid_file = tmp_path / "pid"
    script = (
        "import os, sys, time\n"
        "with open(sys.argv[1], 'w') as f:\n"
        "    f.write(str(os.getpid()))\n"
        "time.sleep(60)\n"
    )
    pkg = _package(tmp_path / "slow", script, f"{tool_path} tools/probe.py {pid_file}")
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
    result = run_agent_tool(_package(tmp_path / "loud", script, f"{tool_path} tools/probe.py"),
                            school_db, timeout=60)
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
    pkg = _package(tmp_path / "writer", script, f"{tool_path} tools/probe.py")
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
    assert len(hosts) == 1


def test_each_concurrent_run_gets_its_own_exit_code(hosts, tmp_path, school_db):
    # More threads than cores share the host's one connection; a reply read
    # by one caller for another, or lost, would show as a wrong result or a
    # timeout.
    script = (
        "import sys, time\n"
        "time.sleep(float(sys.argv[2]))\n"
        "if sys.argv[1] != '0':\n"
        "    sys.exit(int(sys.argv[1]))\n"
        "open('tool_output/out.txt', 'w').write('ran ' + sys.argv[2])\n"
    )
    pkgs = [_package(tmp_path / f"p{code}-{i}", script,
                     f"{'python -u' if i else 'python'} tools/probe.py {code} 0.0{code}")
            for code in (0, 3, 5) for i in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run_agent_tool, pkg, school_db, timeout=60)
                       for pkg in pkgs * 4]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    expected = {0: ("ran 0.00", None), 3: (extract_naive_schema(school_db), "exit code 3"),
                5: (extract_naive_schema(school_db), "exit code 5")}
    assert [(r.text, r.reason) for r in results] == \
        [expected[code] for code in (0, 0, 3, 3, 5, 5)] * 4
    assert len(hosts) == 1


def test_dead_host_is_replaced_and_not_charged(hosts, naive_package_dir, school_db):
    pkg = load_package(naive_package_dir)
    first = run_agent_tool(pkg, school_db, timeout=60)
    (host,) = hosts
    host.proc.kill()
    host.proc.wait(10)
    second = run_agent_tool(pkg, school_db, timeout=60)
    assert second == first
    assert second.fallback is False
    assert len(hosts) == 2


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
    assert len(hosts) == 2


def test_process_exits_promptly_and_leaves_no_host(tmp_path, naive_package_dir, school_db):
    # The second line lists the host's children at exit ("-" where /proc
    # cannot say): its idle spare.
    code = (
        "import os, sys, tempfile\n"
        "from evosql import toolrun\n"
        "from evosql.registry import load_package\n"
        f"result = toolrun.run_agent_tool(load_package({str(naive_package_dir)!r}), "
        f"{str(school_db)!r}, timeout=60)\n"
        "assert not result.fallback, result.reason\n"
        "assert toolrun._STAGED_COPIES._dir.parent.samefile(tempfile.gettempdir())\n"
        "host = toolrun._host\n"
        "print(host.proc.pid)\n"
        "children = f'/proc/{host.proc.pid}/task/{host.proc.pid}/children'\n"
        "print(open(children).read() if os.path.exists(children) else '-')\n"
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
    host_line, children_line = proc.stdout.splitlines()
    (host_pid,) = map(int, host_line.split())
    with pytest.raises(ProcessLookupError):
        os.kill(host_pid, 0)
    # Nor is any process whose parent was the host: the host reaped its
    # spare before it exited.
    if children_line != "-":
        (spare,) = map(int, children_line.split())
        with pytest.raises(ProcessLookupError):
            os.kill(spare, 0)
    # No work directory and no database copy is left either.
    assert list(tmp_path.iterdir()) == []


@_NEEDS_PROC_CHILDREN
def test_spare_exits_when_its_host_is_killed(hosts, naive_package_dir, school_db):
    # A SIGKILLed host closes nothing itself; its idle spare sees EOF on its
    # request pipe and exits.
    run_agent_tool(load_package(naive_package_dir), school_db, timeout=60)
    (host,) = hosts
    (spare,) = _children(host.proc.pid)
    host.proc.kill()
    host.proc.wait(10)
    deadline = time.monotonic() + toolrun.HOST_GRACE_S
    while not _exited(spare):
        assert time.monotonic() < deadline, f"spare {spare} outlived its host"
        time.sleep(0.01)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_execd_tool_sees_what_a_subprocess_sees(hosts, tmp_path):
    # The shell lists its own descriptors, signal mask and ignored signals,
    # and working directory, with builtins only: it forks nothing, which
    # would open pipes and block signals for the while. An exec'd command
    # starts as subprocess.run starts it.
    workdir = _workdir(tmp_path, "")
    (workdir / "tools" / "probe.sh").write_text(
        "{ for fd in /proc/$$/fd/*; do printf '%s ' \"${fd##*/}\"; done; echo\n"
        "  while read -r line; do\n"
        "    case $line in SigBlk:*|SigIgn:*) echo \"$line\";; esac\n"
        "  done < /proc/$$/status\n"
        "  pwd -P; } >> seen.txt\n"
        "exit 3\n")
    runs = _run_both(hosts, workdir, argv=("sh", "tools/probe.sh"))
    assert runs["host"] == runs["subprocess"] == (3, "")
    seen = (workdir / "seen.txt").read_text().splitlines()
    assert seen[:4] == seen[4:]
    fds, blocked, ignored, cwd = seen[:4]
    assert {"0", "1", "2"} <= set(fds.split())
    assert blocked.startswith("SigBlk:") and ignored.startswith("SigIgn:")
    assert cwd == os.path.realpath(workdir)


def test_program_that_cannot_be_executed_falls_back(hosts, tmp_path, school_db):
    pkg = _package(tmp_path / "missing", "", "no-such-evosql-tool --flag")
    result = run_agent_tool(pkg, school_db, timeout=60)
    assert (result.text, result.fallback) == (extract_naive_schema(school_db), True)
    assert result.reason == ("exit code 127: cannot execute tool: [Errno 2] "
                             "No such file or directory: 'no-such-evosql-tool'")
    assert len(hosts) == 1


def _python(code: str) -> subprocess.CompletedProcess:
    """code run by a fresh Python process that imports this evosql."""
    env = {**os.environ, "PYTHONPATH": str(Path(evosql.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


@_NEEDS_PROC_CHILDREN
def test_concurrent_callers_share_one_host_and_its_spare(naive_package_dir, school_db):
    # In a process of its own, so that no other test's host is there. Its
    # children are listed by the thread that started each.
    code = (
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from pathlib import Path\n"
        "from evosql import toolrun\n"
        "from evosql.registry import load_package\n"
        f"pkg = load_package({str(naive_package_dir)!r})\n"
        "with ThreadPoolExecutor(max_workers=4) as pool:\n"
        "    results = list(pool.map(\n"
        f"        lambda _: toolrun.run_agent_tool(pkg, {str(school_db)!r}, timeout=60),\n"
        "        range(8)))\n"
        "assert not any(result.fallback for result in results)\n"
        "children = [pid for task in Path('/proc/self/task').iterdir()\n"
        "            for pid in (task / 'children').read_text().split()]\n"
        "host = toolrun._host.proc.pid\n"
        "print(host, *children)\n"
        "print(open(f'/proc/{host}/task/{host}/children').read())\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    hosts_line, spares_line = proc.stdout.splitlines()
    host, *children = hosts_line.split()
    assert children == [host]
    # Every tool is reaped before its reply; the spare is forked before it.
    assert len(spares_line.split()) == 1


def test_tool_killing_every_host_falls_back_and_spares_the_caller(tmp_path, school_db):
    # Both hosts die; the run falls back, and the process that called it
    # lives on.
    script = "import os, signal\nos.kill(os.getppid(), signal.SIGKILL)\n"
    pkg = _package(tmp_path / "killer", script)
    code = (
        "from evosql.registry import load_package\n"
        "from evosql.toolrun import run_agent_tool\n"
        f"result = run_agent_tool(load_package({str(pkg.root_dir)!r}), {str(school_db)!r}, "
        "timeout=60)\n"
        "print(result.fallback, result.reason)\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("True tool host died: tool host ")
