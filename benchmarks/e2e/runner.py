"""Parent side: one fresh subprocess per workload, one after another.

Nothing heavy is imported here — the parent only spawns
``__main__.py _child ...``, waits for it *and everything it started*
(the child leads its own session, so stragglers can be found and
killed), counts shared-memory warnings on its stderr, and parses the
JSON object on its last stdout line.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List

__all__ = ["HERE", "ROOT", "ChildFailed", "run_child", "header"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Hard stop for one child, below the driver's 180 s per-run limit.
CHILD_TIMEOUT = 170.0


class ChildFailed(RuntimeError):
    """The workload subprocess died, timed out or printed no result."""


def _live_in_session(sid: int) -> List[int]:
    """Pids of the session's processes that still run.

    Zombies are skipped: an orphan (multiprocessing's resource tracker
    exits on its own, after the child) stays listed until init reaps it,
    but it has ended and holds nothing.
    """
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                state, _, _, session = stat.read().rsplit(")", 1)[1].split()[:4]
        except (OSError, ValueError, IndexError):
            continue
        if int(session) == sid and state != "Z":
            live.append(int(entry))
    return live


def _kill_session(sid: int, grace: float = 2.0) -> bool:
    """Kill whatever still runs in the child's session; True if any did.

    A process closes its pipes a moment before it turns zombie, so members
    get ``grace`` seconds to finish dying on their own before they count.
    """
    deadline = time.monotonic() + grace
    while _live_in_session(sid) and time.monotonic() < deadline:
        time.sleep(0.02)
    found = _live_in_session(sid)
    for pid in found:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while found and _live_in_session(sid):
        time.sleep(0.02)
    return bool(found)


def run_child(mode: str, args: List[str], timeout: float = CHILD_TIMEOUT) -> Dict[str, Any]:
    """Run ``__main__.py <mode> <args>`` and return its JSON result."""
    command = [
        sys.executable,
        os.path.join(HERE, "__main__.py"),
        mode,
        *args,
        "--spawned-at",
        repr(time.time()),
    ]
    proc = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        # Returns once both pipes close, i.e. once the child *and* every
        # helper that inherited them (multiprocessing's resource tracker,
        # which prints the leak warnings) have exited.
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_session(proc.pid, grace=0.0)
        proc.communicate()
        raise ChildFailed(f"{mode} {' '.join(args)}: no result within {timeout:g}s")
    leftover = _kill_session(proc.pid)
    warnings = [line for line in stderr.splitlines() if "resource_tracker" in line]
    noise = [line for line in stderr.splitlines() if "resource_tracker" not in line
             and "warnings.warn(" not in line]
    if proc.returncode != 0:
        raise ChildFailed(
            f"{mode} {' '.join(args)}: exit code {proc.returncode}\n" + stderr[-4000:]
        )
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"{mode} {' '.join(args)}: no JSON result\n" + stderr[-4000:])
    if noise:
        sys.stderr.write("\n".join(noise[-20:]) + "\n")
    result["leftover_processes"] = leftover
    result["shm_leak_warnings"] = sum("leaked shared_memory" in w for w in warnings)
    if "per_layer" in result:
        result["per_layer"]["cluster.shm_leak_warnings"] = float(
            result["shm_leak_warnings"]
        )
    if leftover:
        result["correct"] = False
        result["failed"] = result.get("failed", 0) + 1
        result["attempted"] = result.get("attempted", 0) + 1
        result.setdefault("failures", []).append("the workload left processes running")
    return result


def workload_args(
    name: str,
    seed: int,
    seconds: float,
    trace: int,
    smoke: bool = False,
    trace_out: str | None = None,
) -> List[str]:
    args = [
        "--workload", name,
        "--seed", str(seed),
        "--seconds", repr(float(seconds)),
        "--trace", str(trace),
    ]
    if smoke:
        args.append("--smoke")
    if trace_out:
        args += ["--trace-out", trace_out]
    return args


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def header(seed: int, seconds: float, smoke: bool) -> Dict[str, Any]:
    """The noise guard: where and on what the numbers were taken."""
    import platform

    import numpy

    return {
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
