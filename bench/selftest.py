"""Self-test of the benchmark's own checks.

    python3 bench/selftest.py

1. The static-filtered grounding that ``checks.oracle_shortest_length``
   hands to the oracle equals the oracle's full grounding plus
   ``sim_static_filter`` on the bundled micro problem.
2. The byte-identity gate passes for one ``artic3-fresh`` pipeline run of
   the default seed, and fails, both against ``reference.json`` and against
   the unmodified run, once one byte of one plan file is flipped.
3. The oracle checks reject a dataset whose shipped plan lost a step.

Exits 0 when every part behaves as described.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from planforge.pddl.parser import parse_domain, parse_problem  # noqa: E402


def main() -> int:
    failures = []

    domain = parse_domain((workloads.ASSETS / "artic3.pddl").read_text())
    micro = parse_problem((workloads.ASSETS / "artic3_micro.pddl").read_text(), domain)
    ours = [(a.name, a.args) for a in checks._static_candidates(domain, micro)]
    full = oracle.sim_static_filter(domain, micro, oracle.sim_ground_all(domain, micro))
    if ours != [(a.name, a.args) for a in full]:
        failures.append("static-filtered grounding differs from the oracle's")

    work = workloads.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    name = "artic3-fresh"
    spec = workloads.PIPELINES[name]
    seed = json.loads(workloads.REFERENCE.read_text())["default_seed"]
    launcher = workloads.Launcher()
    try:
        inputs = workloads.setup_pipeline(launcher, spec, work / "setup")
        rep = workloads.pipeline_rep(
            launcher, spec, inputs, workloads.rep_seed(seed, 0), work / "rep", None
        )
    finally:
        launcher.close()
    if workloads.check_identity(name, seed, [rep["hash"]]):
        failures.append("the gate fails an unmodified run of the default seed")

    session = work / "rep" / "session"
    plan = sorted((session / "artic3" / "plans").glob("*.plan"))[0]
    data = bytearray(plan.read_bytes())
    data[1] ^= 0x01
    plan.write_bytes(bytes(data))
    trees = [f"artic3/{sub}" for sub in ("problems", "plans")] + ["dataset"]
    flipped = checks.tree_hash(session, trees)
    if not workloads.check_identity(name, seed, [flipped]):
        failures.append("a flipped plan byte passes the reference hash")
    if not workloads.check_identity(name, seed, [rep["hash"], flipped]):
        failures.append("a flipped plan byte passes against an unmodified run")

    split = session / "dataset" / "train.json"
    entries = json.loads(split.read_text())
    entries[0]["output"] = "".join(entries[0]["output"].splitlines(keepends=True)[:-1])
    split.write_text(json.dumps(entries))
    found, _ = checks.check_dataset(session / "dataset", spec["quotas"])
    if not any("oracle rejects" in problem for problem in found):
        failures.append("the oracle check accepts a plan that lost its last step")

    shutil.rmtree(work)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
