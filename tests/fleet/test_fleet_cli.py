"""``repro fleet`` as a process: SIGTERM stops its workers too."""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self"),
                                reason="needs /proc to find worker pids")


def _children(pid):
    """Pids whose parent is ``pid`` (from /proc/<pid>/stat)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may hold spaces: fields follow the last ')'
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_sigterm_stops_every_worker(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "fleet", "--root", str(tmp_path),
         "--workers", "2", "--port", "0", "--fsync", "never"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        stdout=subprocess.PIPE, text=True)
    workers = []
    try:
        banner = proc.stdout.readline()
        assert re.search(r"fleet router listening on [\d.]+:\d+", banner), \
            banner
        workers = _children(proc.pid)
        assert len(workers) == 2
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        deadline = time.monotonic() + 10
        while any(_running(pid) for pid in workers) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _running(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
