"""The machine the benchmark runs on: its fingerprint, the CPU the run
is pinned to, the host's stolen time and two references of its speed.

Results are comparable only like with like: the same CPU count and
model, interpreter and GIL build, file system under the store, and the
optional accelerators (numpy for sweeps, orjson for the journal
encoder).  Within one machine, the references (``reference_seconds``,
``start_seconds``) let timings taken while the host runs slower or
faster be scaled to one nominal speed.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import socket
import subprocess
import sys
import sysconfig
import time
from typing import Any, Dict


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem_type(path: str) -> str:
    """Type of the mount holding ``path`` (longest mount-point prefix)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                point = fields[1].replace("\\040", " ")
                inside = path == point or path.startswith(
                    point.rstrip("/") + "/")
                if inside and len(point) >= len(best):
                    best, kind = point, fields[2]
    except OSError:
        pass
    return kind


def gil_enabled() -> bool:
    check = getattr(sys, "_is_gil_enabled", None)
    if check is not None:
        return bool(check())
    return not sysconfig.get_config_var("Py_GIL_DISABLED")


def pin_one_cpu() -> int:
    """Pin this process, and so every process it starts, to the lowest
    CPU it may run on; returns that CPU.

    A request passes between the client and one to three server
    processes.  On separate virtual CPUs each hand-off wakes an idle
    one, and how long the hypervisor takes to run it follows the load
    of other guests: on a two-CPU guest that made latencies swing by
    half from run to run.  On one CPU a hand-off is a context switch
    inside the guest.  The closed loop waits for every reply, so the
    processes seldom had work to run side by side.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


#: Nominal duration of ``reference_work``, in microseconds: a timing
#: scaled by ``REFERENCE_US`` over the measured duration reads as on a
#: host where the reference takes exactly this long (about as long as
#: it takes on the two-CPU Xeon guest the benchmark was written on).
REFERENCE_US = 150.0
_MESSAGE = b"x" * 64


def reference_work() -> int:
    """A fixed piece of work of the kinds a request is made of.

    Pure-Python dictionary, string, sorting and list work, as the
    interpreter does in every server, and round trips over a local
    socket pair, as every request makes.  Timed on the benchmark's CPU
    between requests, it shows how fast the host runs such work at that
    moment.  It uses no code of the program, so a change to the program
    cannot move it.
    """
    table: Dict[str, int] = {}
    for index in range(200):
        key = f"k{index % 50}"
        table[key] = table.get(key, 0) + index
    ordered = sorted(table.items(), key=lambda item: item[1])
    total = sum(value for _key, value in ordered) \
        + len([index for index in range(200) if index & 1])
    left, right = socket.socketpair()
    with left, right:
        for _ in range(10):
            left.sendall(_MESSAGE)
            total += len(right.recv(64))
    return total


def reference_seconds() -> float:
    """Duration of ``reference_work`` run right after an untimed run of
    it.  The first run fills the CPU caches that the server processes,
    sharing the CPU, have just used: timed cold, the reference took
    twice as long after a server with a larger working set, which would
    tie the scale to the program measured.  Timed warm, it took within
    a tenth of its time on an otherwise idle CPU."""
    reference_work()
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


#: Nominal time to start a bare interpreter (``start_seconds``) in
#: seconds, as ``REFERENCE_US`` is for ``reference_work``.
START_REFERENCE_S = 0.08


def start_seconds() -> float:
    """Median time of three starts of a bare interpreter running
    nothing (``python -c pass``), with the site packages it loads.  It
    runs no code of the program."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def steal_seconds(cpu: int) -> float:
    """CPU time the hypervisor gave to other guests instead of ``cpu``
    since boot (``steal`` in ``/proc/stat``); 0 where not reported."""
    label = f"cpu{cpu}"
    try:
        with open("/proc/stat") as handle:
            for line in handle:
                fields = line.split()
                if fields and fields[0] == label:
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def fingerprint(store_root: str, seed: int) -> Dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil": gil_enabled(),
        "store_fs": filesystem_type(store_root),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "orjson": importlib.util.find_spec("orjson") is not None,
        "seed": seed,
    }
