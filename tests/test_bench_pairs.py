"""tools/bench_pairs.py leaves no benchmark process running when it stops, and
runs the change side from an export of the working tree."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
sys.path.insert(0, TOOLS)

import bench_pairs  # noqa: E402

# A stand-in for perfbench/run.py: starts one sleeping child (as run.py starts
# job.py), records both pids, then sleeps itself.
STUB_RUN = textwrap.dedent("""
    import os, subprocess, sys, time
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(120)"])
    with open("pids.tmp", "w") as fh:
        fh.write(f"{os.getpid()} {child.pid}")
    os.replace("pids.tmp", "pids")
    time.sleep(120)
""")


def _stub_checkout(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB_RUN)
    return tmp_path


def _pids(checkout, wait_s=30.0):
    path = checkout / "pids"
    deadline = time.monotonic() + wait_s
    while not path.exists():
        assert time.monotonic() < deadline, "the stub run never started its child"
        time.sleep(0.05)
    return [int(p) for p in path.read_text().split()]


def _running(pid):
    """Whether ``pid`` is a live process (a zombie awaiting its reaper is not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no /proc: fall back to a signal-0 probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def _assert_gone(pids, wait_s=10.0):
    deadline = time.monotonic() + wait_s
    while any(_running(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [p for p in pids if _running(p)]


def test_a_timed_out_run_leaves_no_process(tmp_path, monkeypatch):
    # processes started: the stub run and its child
    checkout = _stub_checkout(tmp_path)
    monkeypatch.setattr(bench_pairs, "RUN_TIMEOUT_S", 5)
    with pytest.raises(subprocess.TimeoutExpired):
        bench_pairs.run_once(str(checkout), "w", seed=0)
    _assert_gone(_pids(checkout, wait_s=0))


def test_sigterm_leaves_no_process(tmp_path):
    # processes started: a bench process, its stub run and the run's child
    checkout = _stub_checkout(tmp_path)
    bench = subprocess.Popen([sys.executable, "-c", textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {TOOLS!r})
        import bench_pairs
        bench_pairs.exit_on_sigterm()
        bench_pairs.run_once({str(checkout)!r}, "w", seed=0)
    """)], stderr=subprocess.DEVNULL)
    try:
        pids = _pids(checkout)
        bench.send_signal(signal.SIGTERM)
        assert bench.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        bench.kill()
        bench.wait()
    _assert_gone(pids)


def test_the_working_tree_export_carries_uncommitted_edits(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / "src" / "edited.py").write_text("x = 1\n")
    (repo / "deleted.txt").write_text("gone\n")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "src" / "edited.py").write_text("x = 2\n")
    (repo / "deleted.txt").unlink()
    (repo / "staged.txt").write_text("new\n")
    git("add", "staged.txt")
    (repo / "untracked.txt").write_text("scratch\n")
    monkeypatch.setattr(bench_pairs, "ROOT", str(repo))
    dest = tmp_path / "change"
    dest.mkdir()
    bench_pairs.export_worktree(str(dest))
    assert (dest / "src" / "edited.py").read_text() == "x = 2\n"
    assert (dest / "staged.txt").read_text() == "new\n"
    assert sorted(p.name for p in dest.rglob("*")) == ["edited.py", "src", "staged.txt"]
