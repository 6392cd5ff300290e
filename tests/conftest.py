from __future__ import annotations

import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from planforge import assets_dir
from planforge.dpgc import load_config
from planforge.pddl.parser import parse_domain, parse_problem
from planforge.pool import PlannerPool
from planforge.shape import parse_record


@pytest.fixture(autouse=True)
def forks_from_one_thread():
    """Fails a test that forks while this process runs another thread: the
    child would inherit any lock that thread held, and could deadlock."""
    fork, threads = os.fork, []

    def counted():
        threads.append(threading.active_count())
        return fork()

    os.fork = counted
    try:
        yield
    finally:
        os.fork = fork
    if threads != [1] * len(threads):
        pytest.fail(f"forked while {threads} thread(s) ran")


@pytest.fixture
def pool():
    """A one-worker planner pool, closed after the test."""
    with PlannerPool() as pool:
        yield pool


@pytest.fixture(scope="session")
def artic3_domain_text() -> str:
    return (assets_dir() / "artic3.pddl").read_text()


@pytest.fixture(scope="session")
def artic3(artic3_domain_text):
    return parse_domain(artic3_domain_text)


@pytest.fixture(scope="session")
def artic3m():
    return parse_domain((assets_dir() / "artic3m.pddl").read_text())


@pytest.fixture(scope="session")
def micro_text() -> str:
    return (assets_dir() / "artic3_micro.pddl").read_text()


@pytest.fixture(scope="session")
def micro(artic3, micro_text):
    return parse_problem(micro_text, artic3)


@pytest.fixture(scope="session")
def artic3_config():
    return load_config(assets_dir() / "artic3.dpgc.json")


@pytest.fixture(scope="session")
def artic3m_config():
    return load_config(assets_dir() / "artic3m.dpgc.json")


MICRO_PLAN = """\
(grasp gripper1 gripper2)
(rotate-cw link2 link3 a0 a90 a90 a180)
(rotate-cw link3 link2 a180 a270 a90 a180)
(release gripper1 gripper2)
"""


# One parameterless action whose effects test the transition rules: (q) is
# static, the other branch conditions are not.
CASCADE = """
(define (domain cascade)
  (:requirements :strips :conditional-effects)
  (:predicates (p) (q) (r) (s))
  (:action fire
    :parameters ()
    :precondition (p)
    :effect (and (not (p))
                 (when (p) (and (r)))
                 (when (q) (and (p)))
                 (when (r) (and (s))))))
"""


# Static joins the artic3 domains never use: a repeated parameter, an
# (adj ?a ?b) over objects that action parameters narrow to subtypes, a
# negative static literal, = and a static predicate without init facts;
# (marked ?y) is a negative precondition the search must test.
EDGES = """
(define (domain edges)
  (:requirements :strips :typing :negative-preconditions :equality)
  (:types block place - object heavy - block)
  (:predicates (adj ?a - object ?b - object) (on ?b - block ?p - place)
               (marked ?b - block) (blocked ?b - block))
  (:action loop
    :parameters (?x - block ?y - block)
    :precondition (and (adj ?x ?x) (adj ?x ?y) (not (= ?x ?y)) (not (marked ?y)))
    :effect (and (marked ?x)))
  (:action move-heavy
    :parameters (?h - heavy ?from ?to - place)
    :precondition (and (on ?h ?from) (adj ?from ?to) (not (adj ?to ?from)))
    :effect (and (on ?h ?to) (not (on ?h ?from))))
  (:action stuck
    :parameters (?b - block ?p - place)
    :precondition (and (on ?b ?p) (blocked ?b))
    :effect (and (not (marked ?b)))))
"""

EDGES_PROBLEM = """
(define (problem edges-1) (:domain edges)
  (:objects b1 b2 b3 - block h1 h2 - heavy p1 p2 p3 - place)
  (:init (adj b1 b1) (adj b2 b2) (adj h1 h1) (adj p1 p1)
         (adj b1 b2) (adj b1 h1) (adj b1 p1) (adj b2 b1) (adj h1 b2) (adj h1 b3)
         (adj p1 p2) (adj p2 p1) (adj p2 p3) (adj p3 h2)
         (on h1 p1) (on h2 p2) (on b1 p3))
  (:goal {goal}))
"""


def tasks_of(entries: list[dict]) -> list:
    """Each split record's domain and problem, as ``eval`` hands them to
    ``score``."""
    return [parse_record("split.json", i, entry) for i, entry in enumerate(entries)]


@pytest.fixture
def src_on_pythonpath(monkeypatch):
    """Puts this checkout's ``src`` first on PYTHONPATH, so that a fresh
    ``python -m planforge.cli`` child imports the planforge under test."""
    src = str(assets_dir().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


@pytest.fixture(scope="session")
def micro_plan_text() -> str:
    return MICRO_PLAN


def make_stub_adapter(tmp_path: Path, body: str, *, name: str = "stub",
                      output: str = "file", dialect: str = "val_native",
                      timeout: float = 5.0):
    """Write a python stub planner script and an adapter pointing at it.

    The stub receives domain, problem and output paths as argv[1:4].
    """
    from planforge.drivers import PlannerAdapter

    script = tmp_path / f"{name}.py"
    script.write_text("import sys\nDOMAIN, PROBLEM, OUTPUT = sys.argv[1:4]\n" + body)
    return PlannerAdapter(
        name=name,
        executable=sys.executable,
        args=(str(script), "{domain}", "{problem}", "{output}"),
        output=output,
        dialect=dialect,
        timeout=timeout,
    )


class _StubHandler(BaseHTTPRequestHandler):
    def do_GET(self):
        self.send_response(self.server.get_status)
        self.end_headers()
        self.wfile.write(b"ok")

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        result = self.server.reply(payload)
        if isinstance(result, int):
            self.send_response(result)
            self.end_headers()
            return
        body = result if isinstance(result, bytes) else json.dumps(result).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address):
        pass  # a client that timed out has closed its end before the answer


class StubEndpoint:
    """Tiny completion server; ``reply`` maps request payload to response
    payload, raw body bytes, or an int HTTP status for error injection (and
    may sleep to delay its answer).  A GET is answered with ``get_status``."""

    def __init__(self, reply, get_status: int = 200):
        self.server = _StubServer(("127.0.0.1", 0), _StubHandler)
        self.server.reply = reply
        self.server.get_status = get_status
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/completion"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub_endpoint():
    servers = []

    def factory(reply, get_status: int = 200):
        endpoint = StubEndpoint(reply, get_status)
        servers.append(endpoint)
        return endpoint

    yield factory
    for endpoint in servers:
        endpoint.close()
