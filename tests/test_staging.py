"""Tests for staging a tool's database.

A tool run sees ./database.sqlite, a hard link to a process-private copy of
the pool database. The copy is made once and handed to the next run on that
database only while no tool has changed it; otherwise the next run gets a
fresh copy. These tests check that every run sees the pool's bytes, that
copies on disk never outnumber the most runs in flight at once plus the
databases a caller asked to keep copies of, and that none outlives close(). test_toolhost.py checks that none outlives the
process.
"""

import errno
import hashlib
import os
import shutil
import signal
import sqlite3
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from evosql import toolrun
from evosql.backends import ScriptedEvolutionBackend
from evosql.orchestrator import run
from evosql.registry import load_package, write_package
from evosql.toolrun import extract_naive_schema, run_agent_tool
from tests.test_orchestrator import base_config, evolution_fixtures

# Writes the sha256 and mode of its database, then does what argv[1] says.
PROBE = """\
import hashlib, os, stat, sys
with open('database.sqlite', 'rb') as db:
    digest = hashlib.sha256(db.read()).hexdigest()
mode = oct(stat.S_IMODE(os.stat('database.sqlite').st_mode))
with open('tool_output/out.txt', 'w') as f:
    f.write(f'{digest} {mode}')
action = sys.argv[1]
if action == 'rewrite-page':
    with open('database.sqlite', 'r+b') as db:
        db.seek(2048)
        db.write(bytes(range(256)) * 4)
elif action == 'truncate':
    os.truncate('database.sqlite', 1024)
elif action == 'replace':
    os.remove('database.sqlite')
    with open('database.sqlite', 'wb') as db:
        db.write(b'not a database')
elif action == 'chmod':
    os.chmod('database.sqlite', 0o400)
"""

# Reports the row count it saw before and after writing one row.
COUNTER = """\
import sqlite3, time
conn = sqlite3.connect('database.sqlite')
time.sleep(0.05)
(before,) = conn.execute('SELECT count(*) FROM students').fetchone()
conn.execute("INSERT INTO students VALUES (100, 'Zed', 3, '2021-09-01')")
conn.commit()
(after,) = conn.execute('SELECT count(*) FROM students').fetchone()
conn.close()
with open('tool_output/out.txt', 'w') as f:
    f.write(f'{before} {after}')
"""


# Leaves behind a process that holds its database open, and records its pid
# in argv[1].
LINGERER = """\
import os, subprocess, sys, time
pid_file = sys.argv[1]
child = subprocess.Popen(
    [sys.executable, '-c', 'import sys, time; db = open("database.sqlite", "r+b"); '
     'open(sys.argv[1], "w").close(); time.sleep(60)', pid_file + '.ready'],
    start_new_session=True)
while not os.path.exists(pid_file + '.ready'):
    time.sleep(0.01)
with open(pid_file, 'w') as f:
    f.write(str(child.pid))
with open('tool_output/out.txt', 'w') as f:
    f.write('left one running')
"""


@pytest.fixture
def copies(monkeypatch):
    """A fresh pool of database copies for one test, closed afterwards.
    After every checkout and checkin it checks that copies on disk do not
    outnumber the most runs in flight at once plus the kept databases."""
    pool = toolrun._StagedCopies()
    checkout, checkin = pool.checkout, pool.checkin

    def check_bound():
        on_disk = len(list(pool._dir.iterdir())) if pool._dir else 0
        assert len(pool._idle) <= pool.peak + len(pool._kept)
        assert on_disk <= pool.peak + len(pool._kept)

    def checked_checkout(db_path):
        copy = checkout(db_path)
        check_bound()
        return copy

    def checked_checkin(copy):
        checkin(copy)
        check_bound()

    monkeypatch.setattr(pool, "checkout", checked_checkout)
    monkeypatch.setattr(pool, "checkin", checked_checkin)
    monkeypatch.setattr(toolrun, "_STAGED_COPIES", pool)
    yield pool
    pool.close()


def _package(root: Path, script: str, *args: str):
    write_package(
        root,
        name="probe",
        tool_command=" ".join(["python", "tools/probe.py", *args]),
        tool_output_file="tool_output/out.txt",
        instructions="x\n",
        tools={"probe.py": script},
    )
    return load_package(root)


def _pristine(db: Path) -> str:
    """What PROBE reports for an unchanged copy of db."""
    mode = oct(db.stat().st_mode & 0o777)
    return f"{hashlib.sha256(db.read_bytes()).hexdigest()} {mode}"


def test_untouched_copy_is_reused(copies, tmp_path, school_db):
    pkg = _package(tmp_path / "reader", PROBE, "read")
    first = run_agent_tool(pkg, school_db, timeout=60)
    second = run_agent_tool(pkg, school_db, timeout=60)
    assert (first.text, first.fallback) == (_pristine(school_db), False)
    assert second == first
    assert copies.made == 1


@pytest.mark.parametrize("action, made", [
    ("rewrite-page", 2),
    ("truncate", 2),
    ("chmod", 2),
    # The tool unlinks its link to the copy, so the copy itself is untouched.
    ("replace", 1),
])
def test_run_after_a_changing_tool_sees_a_fresh_copy(copies, tmp_path, school_db, action,
                                                     made):
    before = school_db.read_bytes()
    first = run_agent_tool(_package(tmp_path / "changer", PROBE, action), school_db,
                           timeout=60)
    second = run_agent_tool(_package(tmp_path / "reader", PROBE, "read"), school_db,
                            timeout=60)
    assert (first.text, first.fallback) == (_pristine(school_db), False)
    assert second == first
    assert copies.made == made
    assert school_db.read_bytes() == before


def test_copy_changed_while_idle_is_not_reused(copies, tmp_path, school_db):
    pkg = _package(tmp_path / "reader", PROBE, "read")
    first = run_agent_tool(pkg, school_db, timeout=60)
    # A process the tool left running writes the copy after the run ended.
    (idle,) = copies._idle
    with open(idle.path, "r+b") as db:
        db.seek(2048)
        db.write(b"\xa5" * 64)
    second = run_agent_tool(pkg, school_db, timeout=60)
    assert second == first
    assert copies.made == 2


def test_pool_database_changing_between_runs_gets_a_new_copy(copies, tmp_path, school_db):
    db = tmp_path / "pool.sqlite"
    shutil.copy(school_db, db)
    pkg = _package(tmp_path / "reader", PROBE, "read")
    first = run_agent_tool(pkg, db, timeout=60)
    conn = sqlite3.connect(db)
    conn.execute("INSERT INTO students VALUES (6, 'Finn', 3, '2021-09-01')")
    conn.commit()
    conn.close()
    second = run_agent_tool(pkg, db, timeout=60)
    assert first.text != second.text
    assert second.text == _pristine(db)
    assert copies.made == 2


def test_concurrent_writing_runs_each_see_the_pool_rows(copies, tmp_path, school_db):
    writer = _package(tmp_path / "writer", COUNTER)
    reader = _package(tmp_path / "reader", PROBE, "read")
    pkgs = [writer, reader] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(2):
                results = list(pool.map(lambda pkg: run_agent_tool(pkg, school_db, timeout=60),
                                        pkgs))
                assert [r.text for r in results] == ["5 6", _pristine(school_db)] * 4
    finally:
        sys.setswitchinterval(interval)
    assert 1 <= copies.peak <= 8
    assert copies._in_flight == 0


def test_copies_of_several_databases_stay_within_the_bound(copies, tmp_path, school_db):
    pkg = _package(tmp_path / "reader", PROBE, "read")
    dbs = []
    for name in "abc":
        dbs.append(tmp_path / f"{name}.sqlite")
        shutil.copy(school_db, dbs[-1])
    for db in dbs + dbs[:1]:
        assert run_agent_tool(pkg, db, timeout=60).text == _pristine(db)
    # One run at a time keeps one copy: each new database evicts the last.
    assert copies.peak == 1
    assert copies.made == 4
    assert [c.key[0] for c in copies._idle] == [os.path.realpath(dbs[0])]


def test_kept_databases_are_copied_once_each(copies, tmp_path, school_db):
    pkg = _package(tmp_path / "reader", PROBE, "read")
    dbs = []
    for name in "abc":
        dbs.append(tmp_path / f"{name}.sqlite")
        shutil.copy(school_db, dbs[-1])
    toolrun.keep_copies(dbs)
    for _ in range(3):
        for db in dbs:
            assert run_agent_tool(pkg, db, timeout=60).text == _pristine(db)
    # One run at a time, yet each database keeps its copy between runs.
    assert copies.peak == 1
    assert copies.made == 3
    # Keeping copies of other databases removes these databases' idle copies.
    toolrun.keep_copies(dbs[:1])
    assert [c.key[0] for c in copies._idle] == [os.path.realpath(dbs[0])]
    assert len(list(copies._dir.iterdir())) == 1


def test_run_loop_copies_each_database_once(copies, monkeypatch, data_root, tmp_path):
    runs = []
    run_staged = toolrun._run_staged

    def counted(*args, **kwargs):
        runs.append(args[1])
        return run_staged(*args, **kwargs)

    monkeypatch.setattr(toolrun, "_run_staged", counted)
    # Every iteration and Deep Focus evaluates on the whole 3-database pool.
    run(base_config(data_root, tmp_path / "out", workers=1),
        evo_backend=ScriptedEvolutionBackend(evolution_fixtures(4)))
    assert len(set(runs)) == 3
    assert len(runs) > 3 * 4
    assert copies.made == 3


def test_deep_focus_and_the_iteration_keep_each_others_copies(copies, monkeypatch, data_root,
                                                             tmp_path):
    # Each iteration samples one database, and Deep Focus replays the two
    # iterations before it beside the iteration's own evaluations. Every
    # database they use keeps its idle copy, so in this run, where each
    # database that leaves the window is not sampled again, each is copied
    # once; keeping only one evaluation's databases at a time copies them
    # back and forth.
    made = []
    make = copies._make

    def recorded_make(db_path, key):
        made.append(os.path.realpath(db_path))
        return make(db_path, key)

    monkeypatch.setattr(copies, "_make", recorded_make)
    state = run(base_config(data_root, tmp_path / "out", iterations=5, workers=1,
                            deep_focus_k=2, databases_per_iteration=1),
                evo_backend=ScriptedEvolutionBackend(evolution_fixtures(5)))
    assert [record.databases for record in state.iterations] == \
        [["school"], ["films"], ["shop"], ["shop"], ["shop"]]
    assert sorted(made) == sorted({*made}) and len(made) == 3


def test_copy_a_lingering_process_holds_open_is_not_reused(copies, tmp_path, school_db):
    pid_file = tmp_path / "lingerer.pid"
    first = run_agent_tool(_package(tmp_path / "lingerer", LINGERER, str(pid_file)),
                           school_db, timeout=60)
    try:
        assert (first.text, first.fallback) == ("left one running", False)
        # The lingering process keeps the first copy to itself.
        assert copies._idle == []
        second = run_agent_tool(_package(tmp_path / "reader", PROBE, "read"), school_db,
                                timeout=60)
        assert second.text == _pristine(school_db)
        assert copies.made == 2
    finally:
        os.kill(int(pid_file.read_text()), signal.SIGKILL)


def test_copy_that_cannot_be_removed_is_dropped(monkeypatch, tmp_path, school_db):
    # Not the bound-checking fixture: a copy that cannot be removed stays on
    # disk until close().
    pool = toolrun._StagedCopies()
    monkeypatch.setattr(toolrun, "_STAGED_COPIES", pool)
    unlink = Path.unlink

    def refused(path, missing_ok=False):
        if path.parent == pool._dir:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return unlink(path, missing_ok)

    monkeypatch.setattr(Path, "unlink", refused)
    try:
        run_agent_tool(_package(tmp_path / "reader", PROBE, "read"), school_db, timeout=60)
        (idle,) = pool._idle
        with open(idle.path, "r+b") as db:
            db.seek(2048)
            db.write(b"\xa5" * 64)
        # At checkout the written copy is dropped; at checkin, the copy the
        # tool rewrote.
        result = run_agent_tool(_package(tmp_path / "changer", PROBE, "rewrite-page"),
                                school_db, timeout=60)
        assert (result.text, result.fallback) == (_pristine(school_db), False)
        assert pool._idle == []
        assert pool._in_flight == 0
        assert pool.made == 2
    finally:
        pool.close()
    assert not idle.path.exists()


def test_close_removes_every_copy(copies, tmp_path, school_db):
    run_agent_tool(_package(tmp_path / "reader", PROBE, "read"), school_db, timeout=60)
    copies_dir = copies._dir
    assert len(list(copies_dir.iterdir())) == 1
    copies.close()
    assert not copies_dir.exists()
    assert copies._idle == []


def test_failed_link_falls_back_to_a_plain_copy(copies, monkeypatch, tmp_path, school_db):
    def cross_device(src, dst, **kwargs):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

    monkeypatch.setattr(toolrun.os, "link", cross_device)
    pkg = _package(tmp_path / "changer", PROBE, "rewrite-page")
    first = run_agent_tool(pkg, school_db, timeout=60)
    second = run_agent_tool(pkg, school_db, timeout=60)
    assert (first.text, first.fallback) == (_pristine(school_db), False)
    assert second == first
    # The tool wrote its own plain copy, never the pool's private one.
    assert copies.made == 1


def test_missing_database_blocks_the_pair(copies, tmp_path):
    missing = tmp_path / "missing.sqlite"
    result = run_agent_tool(_package(tmp_path / "reader", PROBE, "read"), missing, timeout=60)
    assert result.text is None
    assert result.fallback is True
    assert (f"tool failed (cannot stage database: [Errno 2] No such file or directory: "
            f"'{missing}')") in result.reason
    assert copies._in_flight == 0


@pytest.mark.parametrize("part, reason", [
    ("work directory", "cannot make work directory: [Errno 28] No space left on device"),
    ("database", "cannot stage database: [Errno 28] No space left on device"),
    # copytree gathers each file's error into one shutil.Error.
    ("tools", "cannot stage tools: [("),
])
def test_full_disk_while_staging_falls_back(copies, monkeypatch, tmp_path, school_db, part,
                                            reason):
    pkg = _package(tmp_path / "reader", PROBE, "read")
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    copyfile, mkdtemp = shutil.copyfile, toolrun.tempfile.mkdtemp
    fails_on = school_db if part == "database" else pkg.root_dir / "tools" / "probe.py"

    def full_copy(src, dst, **kwargs):
        if Path(src) == fails_on:
            raise full
        return copyfile(src, dst, **kwargs)

    def full_mkdtemp(**kwargs):
        if kwargs.get("prefix") == "evosql_tool_":
            raise full
        return mkdtemp(**kwargs)

    if part == "work directory":
        monkeypatch.setattr(toolrun.tempfile, "mkdtemp", full_mkdtemp)
    else:
        monkeypatch.setattr(shutil, "copyfile", full_copy)
    result = run_agent_tool(pkg, school_db, timeout=60)
    assert result.text == extract_naive_schema(school_db)
    assert result.fallback is True
    assert result.reason.startswith(reason)
    assert "No space left on device" in result.reason
    # No partial copy is left, and the run no longer counts as in flight.
    on_disk = list(copies._dir.iterdir()) if copies._dir else []
    assert len(on_disk) == (part == "tools")
    assert copies._in_flight == 0

def test_write_right_after_staging_is_spotted(copies, school_db):
    # Staging dates the copy in the past, so even a write within the file
    # system's timestamp granularity of the copy moves its mtime.
    for _ in range(20):
        copy = copies.checkout(school_db)
        with open(copy.path, "r+b") as db:
            db.seek(2048)
            db.write(b"\xa5" * 64)
        copies.checkin(copy)
    assert copies.made == 20
