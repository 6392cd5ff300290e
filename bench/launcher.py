"""Runs the benchmark's timed commands and reports what each cost.

Reads one JSON request per line on stdin: ``{"args": [...], "env": {...},
"cwd": ..., "log": ..., "timeout": ...}``.  It runs the command in its own
process group, with stdout and stderr to the log file, kills the group once
the command exits or the timeout passes, and answers with one JSON line:
wall time, CPU time and peak RSS of the command and every descendant it
waited for (``wait4``), and the exit code.

It is a separate process because the kernel carries a parent's peak RSS
into a child it spawns, so a command started by the benchmark itself would
report the benchmark's memory as its own.  This process stays small.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

_current = None


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop(signum, frame):
    if _current is not None:
        _kill_group(_current.pid)
        _current.wait()
    sys.exit(128 + signum)


def run(request: dict) -> dict:
    global _current
    with open(request["log"], "w") as log:
        start = time.perf_counter()
        _current = subprocess.Popen(
            request["args"],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=request["env"],
            cwd=request["cwd"],
            start_new_session=True,
        )
        timer = threading.Timer(request["timeout"], _kill_group, (_current.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(_current.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    _current.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(_current.pid)  # nothing the command started may outlive it
    code, _current = _current.returncode, None
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "code": code,
    }


def main() -> int:
    signal.signal(signal.SIGTERM, _stop)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
