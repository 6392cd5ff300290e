"""planforge benchmark: three workloads through the public command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the checkout's ``src/`` and
``tests/oracle.py`` and works in ``.bench_work/``, which it removes after a
run whose checks all pass.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, the byte-identity hash and sample
counts.  The exit code is 0 when every check passed, 1 when one failed and
2 when the program or the oracle is missing.

Workloads (the seed drives every input):

* ``artic3-fresh``: ``planforge pipeline`` on artic3 into a fresh session,
  ``count`` a little above the quota total so one round suffices, one
  planner worker.  Each problem costs a planner subprocess, so planning is
  spawn- and import-bound and search is small.
* ``mixed-topup``: ``planforge pipeline`` on artic3 and artic3m with each
  domain's ``count`` below its share of the quotas, so top-up rounds replay
  the journal, skip existing plans and re-collect records; min(2, nproc)
  planner workers.  artic3m doubles the candidates and the search work.
* ``eval-checkpoints``: set-up builds a two-domain split of unique problems
  in-process (``generate_batch``, ``reference_plan``, ``assemble``); the
  timed phase runs ``planforge eval`` once per checkpoint against
  ``stub_server.py``, one client with one request in flight.  The stub gives
  each (checkpoint, record) a seeded answer from a known mix (see
  ``checks.MIX``).  Planning and generation are not in the timed phase.

A rep is one unit of timed work: one pipeline run, or one round of eval runs
over all checkpoints.  Reps run until ``--seconds`` have passed, at least
two.  Pipeline rep ``i`` uses pipeline seed ``100 * seed + i``, so a run
averages over more problems; the first rep's seed then runs once more,
untimed, for the byte-identity gate.  Eval reps all use the one split, after
one untimed eval command that loads the checkout's files from cold.

Timed commands run from ``launcher.py``, a small process of its own: the
kernel carries a parent's peak RSS into the children it spawns, so commands
spawned by this process would report its memory as theirs.

End-to-end metrics (``--trace 0``), over the untraced reps:

* ``setup_s``: preparing the workload's inputs, the median of several
  set-ups.  Pipeline workloads copy the domain and generation config and
  run the bundled planner once on the bundled micro problem, which warms
  byte-code and file caches; eval-checkpoints builds its split.
* ``records_per_s``: dataset records the commands produced (written by
  ``pipeline``, counted as ``manifest.counts.input``; scored by ``eval``)
  over the commands' wall time.
* ``requests_per_s``: requests the commands sent to their back end
  (planner runs for ``pipeline``, completion requests for ``eval``) over
  the commands' wall time.
* ``cpu_s``: user plus system CPU of one rep, planner children included
  (``wait4`` rusage).
* ``peak_rss_mb``: highest peak RSS of any process of the timed phase.

Pipeline reps plan different problems, so the rates are totals over reps
and ``cpu_s`` is their mean; eval rounds repeat the same work, so all three
are medians over rounds.

Operations that failed unexpectedly are the result's ``failed`` out of
``attempted``: planner runs ending ``timeout``, ``crashed`` or ``invalid``,
and eval requests whose answer or score differs from the stub's design.
``failed_frac`` is printed with the other metrics; it is not a JSON metric
because it is 0 on a healthy run.

``--trace 1`` runs untraced and traced reps in turn, all on the first
rep's seed, and reports the per-layer metrics instead (see ``layers.py``),
including the tracing overhead: median traced minus median untraced rep
wall time.  Traced reps put ``hook/`` on PYTHONPATH, so every Python process
of the rep records spans (see ``hook/sitecustomize.py``).  They continue
past ``--seconds`` until the percentiles have their samples.

Checks, all made outside the code under test, fail the run: exit codes,
the byte-identity gate over ``problems/``, ``plans/`` and ``dataset/``
(reps of one seed, and ``reference.json`` for its default seed), split
sizes against quotas, duplicate problems, ``sim_validate`` on every shipped
plan, ``sim_shortest_plan`` lengths on a seeded sample, ``audit_leakage``,
and each eval run's ``metrics.json`` and answers against the stub's design.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("artic3-fresh", "mixed-topup", "eval-checkpoints")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    for needed in ("src/planforge/__init__.py", "tests/oracle.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found; run from a planforge checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import workloads

    return workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
