"""A pool of planner workers: child interpreters that ``solve`` problems.

This module imports the standard library alone, so that a command can start
its workers before it loads the PDDL reader and its stages, and the workers'
start-up runs while the command imports them.  A worker imports
``planforge.drivers`` itself, before it reads its first problem.
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import subprocess
import sys
import time
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from multiprocessing.connection import Connection, Pipe, wait
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from planforge.drivers import PlannerAdapter

# How long a pool worker may stay silent past its problem's timeout before it
# is killed; covers starting a fresh worker interpreter and its imports.
_KILL_GRACE_S = 2.0


@dataclass(frozen=True)
class SolveResult:
    status: str  # solved | invalid | no_solution | timeout | crashed
    plan_text: str | None
    wall_time: float
    detail: str = ""


class PlannerPool:
    """``workers`` child interpreters that ``solve`` problems, from the
    moment the pool is made until it is closed.

    A command opens one pool before it loads its stages and solves all its
    batches on it, whatever their adapter, domain and timeout, so its
    workers start once, while the command imports, and keep
    ``reference_plan``'s grounding memo from batch to batch.  The pool
    replaces a worker that hangs or dies, with the external planner it
    reported, and nothing else (see ``solve_batch``).  ``close``, or leaving
    a ``with`` block, stops every worker.  Workers run ``sys.executable``
    with the parent's environment and planforge, and never import its
    ``__main__``.  A pool solves one batch at a time.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = workers
        self._idle: list = []  # (process, connection) of workers waiting for a problem
        try:
            for _ in range(workers):
                self._idle.append(self._start())
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> PlannerPool:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def solve_batch(
        self,
        adapter: PlannerAdapter,
        domain_path: str | Path,
        problem_paths: list[Path],
        timeout: float,
    ) -> Iterator[tuple[int, SolveResult]]:
        """``solve`` every problem on up to ``workers`` workers, yielding
        (problem index, result) as each result arrives.

        A worker holds one problem at a time, whose clock starts when it is
        sent.  A worker silent ``_KILL_GRACE_S`` past the timeout is killed
        and its problem is ``timeout``; one that dies leaves its problem
        ``crashed``.  Either way, the external planner's process group that
        the worker reported is killed with it.  Only that worker is
        replaced; other problems run on.  Workers that answered stay in the
        pool for the next batch; any still busy when the caller closes the
        generator early are stopped.
        """
        limit = timeout + _KILL_GRACE_S
        todo = deque(range(len(problem_paths)))
        busy: dict = {}  # connection -> (process, problem index, sent at, planner group)
        try:
            while todo or busy:
                while todo and len(busy) < self.workers:
                    process, conn = self._idle.pop() if self._idle else self._start()
                    try:
                        conn.send((adapter, domain_path, problem_paths[todo[0]], timeout))
                    except ConnectionError:  # it died idle; start another
                        _stop(process, conn)
                        continue
                    busy[conn] = (process, todo.popleft(), time.monotonic(), None)
                oldest = min(sent for _, _, sent, _ in busy.values())
                ready = wait(list(busy), max(0.0, oldest + limit - time.monotonic()))
                for conn in ready:
                    process, index, sent, group = busy.pop(conn)
                    try:
                        result = conn.recv()
                    except (EOFError, ConnectionError):  # it died
                        _stop(process, conn, group)
                        result = SolveResult(
                            "crashed", None, time.monotonic() - sent,
                            f"worker died with exit code {process.returncode}",
                        )
                    else:
                        if isinstance(result, int):  # its planner's group, as it starts
                            busy[conn] = (process, index, sent, result)
                            continue
                        self._idle.append((process, conn))
                    yield index, result
                now = time.monotonic()
                for conn in [c for c, (_, _, sent, _) in busy.items() if now - sent >= limit]:
                    process, index, sent, group = busy.pop(conn)
                    _stop(process, conn, group)
                    yield index, SolveResult(
                        "timeout", None, now - sent, f"worker killed after {limit}s"
                    )
        finally:
            for conn, (process, _, _, group) in busy.items():
                _stop(process, conn, group)

    def _start(self) -> tuple[subprocess.Popen, Connection]:
        conn, child_end = Pipe()
        fd = child_end.fileno()
        process = subprocess.Popen(
            [sys.executable, "-c", _WORKER, str(fd), str(Path(__file__).resolve().parents[1])],
            stdin=subprocess.DEVNULL, pass_fds=(fd,))
        child_end.close()  # so that the worker's death reads as EOF
        return process, conn

    def close(self) -> None:
        """Tell the idle workers to exit and reap them, so that their exit
        handlers run and their CPU time is this process's children's."""
        idle, self._idle = self._idle, []
        for process, conn in idle:
            with contextlib.suppress(ConnectionError):  # unless it died idle
                conn.send(None)
        for process, conn in idle:
            process.wait()
            conn.close()


# A worker serves pipe end argv[1], on the planforge in directory argv[2].
_WORKER = ("import sys; sys.path.insert(0, sys.argv[2])\n"
           "from planforge.pool import _work; _work(int(sys.argv[1]))")


def _work(fd: int) -> None:
    """Answer each (adapter, domain path, problem path, timeout) received on
    the pipe end ``fd`` with ``solve``'s result until ``None`` arrives,
    sending an external planner's process group id first, as the planner
    starts.  ``planforge.drivers`` is imported before the first problem is
    read, and ``solve`` is looked up on it, so that a wrapper set there sees
    every solve.  The pipe's end of file means the command died."""
    from planforge import drivers

    conn = Connection(fd)
    drivers._report_planner_group = conn.send
    with contextlib.suppress(EOFError, ConnectionError):
        while (task := conn.recv()) is not None:
            adapter, domain_path, problem_path, timeout = task
            conn.send(drivers.solve(adapter, domain_path, problem_path, timeout=timeout))
    gc.freeze()  # so that shutdown's collections skip the grounding memo


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop(process: subprocess.Popen, conn, group: int | None = None) -> None:
    """Kill a worker and the planner group it last reported, reap the
    worker and close its end of the pipe."""
    process.kill()
    if group is not None:
        _kill_group(group)
    process.wait()
    conn.close()
