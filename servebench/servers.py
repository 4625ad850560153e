"""Start, measure, kill and stop the server processes of one set-up.

Every server is started through the public CLI (``python -m repro.cli
serve`` or ``fleet``) with the shipped defaults, so the benchmark
measures what a user runs.  Processes are observed from outside through
``/proc``: CPU time, peak RSS and, for a fleet, the worker children the
router spawned.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.session.client import SessionClient

_BANNER = re.compile(r"listening on ([\d.]+):(\d+)")
_START_TIMEOUT = 60.0
_STOP_TIMEOUT = 20.0


class ServerStartError(RuntimeError):
    """A server process did not print its listening banner."""


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:][:1] != b"Z"


def cpu_seconds(pid: int) -> float:
    """CPU time of every live thread of ``pid`` (0 if gone).

    Read from ``schedstat`` in nanoseconds: the tick-sampled ``utime`` and
    ``stime`` of ``stat`` are too coarse for a server that runs a few
    hundred microseconds per request.
    """
    total = 0
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0.0
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except (OSError, IndexError, ValueError):
            continue
    return total / 1e9


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children(pid: int) -> List[int]:
    """Direct child pids of ``pid``."""
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(item) for item in handle.read().split())
        except OSError:
            continue
    return found


def cmdline(pid: int) -> List[str]:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            return [part.decode() for part in handle.read().split(b"\0")
                    if part]
    except OSError:
        return []


def store_bytes(root: str) -> int:
    """Bytes in every regular file under ``root``."""
    total = 0
    for directory, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.stat(os.path.join(directory, name)).st_size
            except OSError:
                continue
    return total


def journal_bytes(root: str) -> int:
    """Bytes in the journal segments under ``root`` (``wal-*`` files)."""
    total = 0
    for directory, _dirs, files in os.walk(root):
        for name in files:
            if name.startswith("wal-"):
                try:
                    total += os.stat(os.path.join(directory, name)).st_size
                except OSError:
                    continue
    return total


class ServerGroup:
    """The server processes behind one client-facing address.

    ``kind`` is ``"serve"`` (one ``repro serve`` process) or ``"fleet"``
    (``repro fleet``: a router process plus its worker children).
    ``env`` is the environment every server process starts with.
    """

    def __init__(self, kind: str, root: str, env: Dict[str, str],
                 log_path: str) -> None:
        if kind not in ("serve", "fleet"):
            raise ValueError(f"unknown server kind {kind!r}")
        self.kind = kind
        self.root = root
        self.env = env
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        #: Fleet worker id -> pid (empty for ``serve``).
        self.workers: Dict[str, int] = {}
        #: Every pid this group ever started, for the teardown check.
        self.started: List[int] = []
        self._cpu_base: Dict[int, float] = {}

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Start the processes and wait for the listening banner."""
        argv = [sys.executable, "-m", "repro.cli", self.kind,
                "--root", self.root, "--port", "0"]
        if self.kind == "fleet":
            argv += ["--workers", "2"]
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                argv, env=self.env, stdout=subprocess.PIPE, stderr=log,
                stdin=subprocess.DEVNULL, text=True)
        self.started.append(self.proc.pid)
        banner = self._read_banner()
        match = _BANNER.search(banner)
        if not match:
            self.force_stop()
            raise ServerStartError(
                f"{self.kind} printed {banner!r}; see {self.log_path}")
        self.address = (match.group(1), int(match.group(2)))
        if self.kind == "fleet":
            self.workers = {}
            for pid in children(self.proc.pid):
                argv_child = cmdline(pid)
                if "fleet-worker" in argv_child:
                    self.workers[argv_child[argv_child.index("--id") + 1]] \
                        = pid
                    self.started.append(pid)
            if len(self.workers) != 2:
                self.force_stop()
                raise ServerStartError(
                    f"fleet has workers {self.workers}, expected 2")
        return self.address

    def _read_banner(self) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + _START_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                return self.proc.stdout.readline()
            if self.proc.poll() is not None:
                return ""
        return ""

    def pids(self) -> List[int]:
        """Live server pids (router first for a fleet)."""
        found = [self.proc.pid] if self.proc is not None else []
        found += [pid for pid in self.workers.values()]
        return [pid for pid in found if alive(pid)]

    def client(self, **kwargs) -> SessionClient:
        return SessionClient(*self.address, **kwargs)

    def stop(self) -> None:
        """Graceful stop through the ``shutdown`` frame.

        A fleet must not get SIGTERM: the router process then exits
        without stopping its workers.  ``shutdown`` stops router and
        workers; SIGINT and SIGKILL are the fallbacks.
        """
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            try:
                with self.client(timeout=10.0) as client:
                    client.shutdown()
            except (OSError, RuntimeError):
                pass
            self._wait(proc, _STOP_TIMEOUT, signal.SIGINT)
        self._reap_workers()
        self._close_pipe()

    def force_stop(self) -> None:
        """SIGKILL whatever is left (error paths only)."""
        for pid in self.started:
            if alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if self.proc is not None:
            try:
                self.proc.wait(timeout=_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        self._close_pipe()

    def _wait(self, proc: subprocess.Popen, timeout: float,
              escalate: int) -> None:
        try:
            proc.wait(timeout=timeout)
            return
        except subprocess.TimeoutExpired:
            pass
        proc.send_signal(escalate)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)

    def _reap_workers(self) -> None:
        deadline = time.monotonic() + _STOP_TIMEOUT
        while time.monotonic() < deadline and any(
                alive(pid) for pid in self.workers.values()):
            time.sleep(0.05)

    def _close_pipe(self) -> None:
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()

    def survivors(self) -> List[int]:
        """Pids this group started that are still running."""
        return [pid for pid in self.started if alive(pid)]

    # -- crash --------------------------------------------------------------

    def holder_pid(self, primary: Optional[str]) -> int:
        """The process holding the sessions: the server, or the fleet's
        primary worker for them."""
        if self.kind == "serve":
            assert self.proc is not None
            return self.proc.pid
        assert primary is not None
        return self.workers[primary]

    def kill9(self, pid: int) -> None:
        os.kill(pid, signal.SIGKILL)
        if self.proc is not None and pid == self.proc.pid:
            self.proc.wait(timeout=_STOP_TIMEOUT)
            self._close_pipe()
            self.proc = None

    # -- resource use -------------------------------------------------------

    def mark_cpu(self) -> None:
        self._cpu_base = {pid: cpu_seconds(pid) for pid in self.pids()}

    def cpu_since_mark(self) -> float:
        return sum(cpu_seconds(pid) - base
                   for pid, base in self._cpu_base.items())

    def peak_rss_mb(self) -> float:
        return max((peak_rss_mb(pid) for pid in self.pids()), default=0.0)
