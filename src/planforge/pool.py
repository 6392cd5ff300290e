"""A pool of planner workers: forked child processes that ``solve`` problems.

``planforge.drivers`` imports this module and re-exports ``PlannerPool`` and
``SolveResult``, so this module imports the standard library alone.  A
command forks its workers once it has loaded its stages, and with them
``planforge.drivers``, so each worker inherits a loaded planner and imports
nothing; a worker whose parent had not loaded ``planforge.drivers`` imports
it before it reads its first problem.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import multiprocessing.process
import os
import signal
import sys
import time
import weakref
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from multiprocessing.connection import Connection, Pipe, wait
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

if TYPE_CHECKING:
    from planforge.drivers import PlannerAdapter

# How long a pool worker may stay silent past its problem's timeout before it
# is killed: the time a solve spends outside its planner's clock, reading its
# inputs and checking the plan.
_KILL_GRACE_S = 2.0


@dataclass(frozen=True)
class SolveResult:
    status: str  # solved | invalid | no_solution | timeout | crashed
    plan_text: str | None
    wall_time: float
    detail: str = ""


class _Process:
    """A forked worker, with ``subprocess.Popen``'s ``pid``, ``returncode``,
    ``kill`` and ``wait``."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: int | None = None  # as ``Popen``'s: -N for signal N

    def kill(self) -> None:
        if self.returncode is None:  # once reaped, the pid may be another's
            os.kill(self.pid, signal.SIGKILL)

    def wait(self) -> int:
        if self.returncode is None:
            self.returncode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.returncode


class PlannerPool:
    """``workers`` forked child processes that ``solve`` problems, from the
    moment the pool is made until it is closed.

    A command opens one pool once it has loaded its stages, and solves all
    its batches on it, whatever their adapter, domain and timeout, so its
    workers start once and keep ``reference_plan``'s grounding memo from
    batch to batch.  The pool replaces a worker that hangs or dies, with the
    external planner it reported, and nothing else (see ``solve_batch``).
    ``close``, or leaving a ``with`` block, stops every worker.  Workers are
    forked: each holds what the parent had loaded, and the files it had
    open, when it forked (a replacement, forked inside a batch, holds that
    batch's log), its stdin is ``/dev/null``, and as it exits it runs the
    exit handlers registered before it forked, but not the parent's
    ``weakref.finalize`` clean-ups, and leaves the parent's
    ``multiprocessing`` children alone.  Forking from a process with other
    threads is the caller's risk.  A pool solves one batch at a time.
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = workers
        self._idle: list = []  # (process, connection) of workers waiting for a problem
        self._conns: set = set()  # the pool's end of each live worker's pipe, for workers to close
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
                        self._stop(process, conn)
                        continue
                    busy[conn] = (process, todo.popleft(), time.monotonic(), None)
                oldest = min(sent for _, _, sent, _ in busy.values())
                ready = wait(list(busy), max(0.0, oldest + limit - time.monotonic()))
                for conn in ready:
                    process, index, sent, group = busy.pop(conn)
                    try:
                        result = conn.recv()
                    except (EOFError, ConnectionError):  # it died
                        self._stop(process, conn, group)
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
                    self._stop(process, conn, group)
                    yield index, SolveResult(
                        "timeout", None, now - sent, f"worker killed after {limit}s"
                    )
        finally:
            for conn, (process, _, _, group) in busy.items():
                self._stop(process, conn, group)

    def _start(self) -> tuple[_Process, Connection]:
        conn, child_end = Pipe()
        for stream in (sys.stdout, sys.stderr):  # so that no worker holds a copy of their output
            with contextlib.suppress(AttributeError, ValueError):  # none, or closed
                stream.flush()
        pid = os.fork()
        if pid == 0:
            _serve(child_end, [conn, *self._conns])
        child_end.close()  # so that the worker's death reads as EOF
        self._conns.add(conn)
        return _Process(pid), conn

    def _stop(self, process: _Process, conn: Connection, group: int | None = None) -> None:
        """Kill a worker and the planner group it last reported, reap the
        worker and close its end of the pipe."""
        process.kill()
        if group is not None:
            _kill_group(group)
        process.wait()
        conn.close()
        self._conns.discard(conn)

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
            self._conns.discard(conn)


def _serve(conn: Connection, inherited: list[Connection]) -> NoReturn:
    """A forked worker's whole life: serve ``conn``, run the exit handlers
    registered before the fork (a tracer may write its spans in one), exit.
    It never returns into the stack it was forked from, and never flushes
    the output buffers it inherited.  ``inherited`` are the pool's ends of
    the pipes, which only the parent may hold, so that every worker reads
    the end of file when the command dies."""
    code = 1
    try:
        gc.freeze()  # so that the worker's collections skip what it inherited
        for finalizer in list(weakref.finalize._registry):  # the parent's to run
            finalizer.detach()
        # The parent's children, which ``multiprocessing``'s exit handler
        # would terminate and fail to join; its own forked children forget
        # them too.
        multiprocessing.process._children.clear()
        for other in inherited:
            other.close()
        null = os.open(os.devnull, os.O_RDONLY)
        os.dup2(null, 0)
        os.close(null)
        _work(conn)
        code = 0
    except BaseException:  # reported as an interpreter reports its last one
        sys.excepthook(*sys.exc_info())
    finally:
        atexit._run_exitfuncs()
        os._exit(code)


def _work(conn: Connection) -> None:
    """Answer each (adapter, domain path, problem path, timeout) received on
    ``conn`` with ``solve``'s result until ``None`` arrives, sending an
    external planner's process group id first, as the planner starts.
    ``planforge.drivers`` is imported before the first problem is read (a
    command loaded it before it forked), and ``solve`` is looked up on it,
    so that a wrapper set there sees every solve.  The pipe's end of file
    means the command died."""
    from planforge import drivers

    drivers._report_planner_group = conn.send
    with contextlib.suppress(EOFError, ConnectionError):
        while (task := conn.recv()) is not None:
            adapter, domain_path, problem_path, timeout = task
            conn.send(drivers.solve(adapter, domain_path, problem_path, timeout=timeout))


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
