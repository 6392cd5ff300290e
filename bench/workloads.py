"""Workloads, reps and metrics of the benchmark; see run.py."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers
from planforge.dataset import assemble, audit_leakage, build_records
from planforge.dpgc import load_config
from planforge.drivers import reference_plan
from planforge.generate import generate_batch
from planforge.pddl.parser import parse_domain, parse_problem
from planforge.plans import render_plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ASSETS = SRC / "planforge" / "assets"
HOOK = BENCH / "hook"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

SETUPS = 5  # eval-checkpoints builds its costly split EVAL_SETUPS times
EVAL_SETUPS = 3
SHORTEST_SAMPLE = 3
PROGRAM_TIMEOUT = 150.0
TRACE_CAP_S = 140.0
FAILED_STATUSES = ("timeout", "crashed", "invalid")

NPROC = len(os.sched_getaffinity(0))
# artic3-fresh's count sits a little above its 10 records of quota, so one
# round suffices; mixed-topup's counts sit below each domain's 12, so
# run_pipeline tops up.
PIPELINES = {
    "artic3-fresh": {
        "domains": {"artic3": 12},
        "quotas": {"train": 8, "val": 1, "test": 1},
        "workers": 1,
    },
    "mixed-topup": {
        "domains": {"artic3": 8, "artic3m": 8},
        "quotas": {"train": 16, "val": 4, "test": 4},
        "workers": min(2, NPROC),
    },
}
EVAL_DOMAINS = ("artic3", "artic3m")
EVAL_PER_DOMAIN = 20
EVAL_CHECKPOINTS = 4

END_TO_END = [
    ("records_per_s", "records/s"),
    ("requests_per_s", "requests/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


class BenchError(RuntimeError):
    """The program under test failed to run; no metric is meaningful."""


@dataclass
class ProgramRun:
    wall: float
    cpu: float
    rss_mb: float


def program_env(trace_dir: Path | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PLANFORGE_BENCH_TRACE")}
    env["PYTHONPATH"] = str(SRC)
    if trace_dir is not None:
        env["PYTHONPATH"] += os.pathsep + str(HOOK)
        env["PLANFORGE_BENCH_TRACE"] = str(trace_dir)
    return env


class Launcher:
    """``launcher.py`` in its own process, which runs the timed commands."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def run(self, args: list, log_path: Path, trace_dir: Path | None = None) -> ProgramRun:
        """Run ``python <args>`` to completion; raises BenchError unless it exits 0."""
        request = {
            "args": [sys.executable, *map(str, args)],
            "env": program_env(trace_dir),
            "cwd": str(ROOT),
            "log": str(log_path),
            "timeout": PROGRAM_TIMEOUT,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the launcher process died")
        reply = json.loads(line)
        if reply["code"] != 0:
            tail = log_path.read_text()[-2000:]
            raise BenchError(f"{' '.join(map(str, args[:3]))} exited {reply['code']}:\n{tail}")
        return ProgramRun(reply["wall"], reply["cpu"], reply["rss_mb"])

    def close(self) -> None:
        """Stop the launcher, and the command it runs, if any."""
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Stub:
    """``stub_server.py`` in its own process, answering from a table file."""

    def __init__(self, table: Path, work: Path):
        self.out = work / "stub.out"
        env = program_env(None)
        del env["PYTHONPATH"]
        with open(self.out, "w") as out:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH / "stub_server.py"), str(table)],
                stdin=subprocess.PIPE,
                stdout=out,
                env=env,
                cwd=ROOT,
            )
        deadline = time.monotonic() + 30
        while not self.out.read_text().endswith("\n"):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.proc.kill()
                self.proc.wait()
                raise BenchError("stub server did not start")
            time.sleep(0.01)
        self.url = f"http://127.0.0.1:{int(self.out.read_text())}"

    def close(self) -> dict:
        """Stop the server and return what it counted."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("stub server did not stop")
        return json.loads(self.out.read_text().splitlines()[-1])


def median_time(fn, dirs: list[Path]):
    """Run ``fn(dir)`` once per directory; median wall time and every result."""
    times, results = [], []
    for d in dirs:
        start = time.perf_counter()
        results.append(fn(d))
        times.append(time.perf_counter() - start)
    return statistics.median(times), results


def measure(seconds: float, trace: bool, do_rep, work: Path, enough) -> tuple[list, list]:
    """Run ``do_rep(index, rep_dir, trace_dir)``; returns (untraced reps,
    traced reps).

    Untraced: reps 0, 1, ... until ``seconds`` have passed, at least two.
    Traced: an untraced and a traced rep in turn, all with index 0, so that
    their difference is the tracing overhead; the same way, and until
    ``enough(traced)`` holds too, within TRACE_CAP_S.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        rep_dir = work / f"rep-{len(untraced)}"
        if not trace:
            untraced.append(do_rep(len(untraced), rep_dir, None))
        else:
            untraced.append(do_rep(0, rep_dir / "untraced", None))
            trace_dir = rep_dir / "trace"
            trace_dir.mkdir(parents=True)
            traced.append(do_rep(0, rep_dir, trace_dir))
            traced[-1]["layers"] = layers.summarize_rep(layers.load_rep(trace_dir))
        done = traced if trace else untraced
        elapsed = time.perf_counter() - start
        if len(done) >= 2 and elapsed >= seconds and (not trace or enough(traced)):
            break
        if trace and elapsed * (len(done) + 1) / len(done) > TRACE_CAP_S:
            counts = layers.sample_counts([r["layers"] for r in traced])
            print(f"warning: trace cap reached with samples {counts}")
            break
    return untraced, traced


def check_identity(workload: str, seed: int, hashes: list[str]) -> list[str]:
    problems = []
    if len(set(hashes)) != 1:
        problems.append(f"byte-identity: runs of seed {seed} differ: {hashes}")
    reference = json.loads(REFERENCE.read_text())
    expected = reference["hashes"].get(workload)
    if seed == reference["default_seed"] and expected and hashes[0] != expected:
        problems.append(f"byte-identity: seed {seed} gives {hashes[0]}, reference.json has {expected}")
    return problems


# ---------------------------------------------------------------- pipelines


def rep_seed(seed: int, index: int) -> int:
    """Pipeline seed of untraced rep ``index``.  Reps plan different problems,
    so a run averages over more of them; traced reps all use index 0."""
    return seed * 100 + index


def setup_pipeline(launcher: Launcher, spec: dict, dest: Path) -> Path:
    inputs = dest / "inputs"
    inputs.mkdir(parents=True)
    for name in spec["domains"]:
        for suffix in (".pddl", ".dpgc.json"):
            shutil.copyfile(ASSETS / f"{name}{suffix}", inputs / f"{name}{suffix}")
    launcher.run(
        ["-m", "planforge.cli", "refplan", "--domain", inputs / "artic3.pddl",
         "--problem", ASSETS / "artic3_micro.pddl", "--output", dest / "micro.plan"],
        dest / "warmup.log",
    )
    return inputs


def pipeline_rep(
    launcher: Launcher, spec: dict, inputs: Path, seed: int, rep_dir: Path, trace_dir
) -> dict:
    rep_dir.mkdir(parents=True, exist_ok=True)
    config = {
        "seed": seed,
        "adapter": "internal",
        "workers": spec["workers"],
        "domains": [
            {"domain": str(inputs / f"{name}.pddl"), "dpgc": str(inputs / f"{name}.dpgc.json"),
             "count": count}
            for name, count in spec["domains"].items()
        ],
        "quotas": spec["quotas"],
    }
    (rep_dir / "pipeline.json").write_text(json.dumps(config, indent=2) + "\n")
    session = rep_dir / "session"
    run = launcher.run(
        ["-m", "planforge", "pipeline", "--config", rep_dir / "pipeline.json", "--session", session],
        rep_dir / "pipeline.log",
        trace_dir,
    )
    statuses = [
        line.split()[1]
        for name in spec["domains"]
        for line in (session / name / "planning.log").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    manifest = json.loads((session / "dataset" / "manifest.json").read_text())
    trees = [f"{name}/{sub}" for name in spec["domains"] for sub in ("problems", "plans")]
    return {
        "seed": seed,
        "wall": run.wall,
        "cpu": run.cpu,
        "rss": run.rss_mb,
        "records": manifest["counts"]["input"],
        "requests": len(statuses),
        "failed": sum(status in FAILED_STATUSES for status in statuses),
        "hash": checks.tree_hash(session, trees + ["dataset"]),
        "dataset": session / "dataset",
    }


def run_pipeline_workload(
    launcher: Launcher, name: str, seed: int, seconds: float, trace: bool, work: Path
) -> dict:
    spec = PIPELINES[name]
    setup_s, setups = median_time(
        lambda d: setup_pipeline(launcher, spec, d), [work / f"setup-{i}" for i in range(SETUPS)]
    )
    inputs = setups[-1]

    def enough(traced):
        counts = layers.sample_counts([r["layers"] for r in traced])
        return all(counts[p] >= layers.TAILS[p][0] for p in ("drivers.solve_s", "drivers.search_s"))

    untraced, traced = measure(
        seconds, trace,
        lambda i, d, t: pipeline_rep(launcher, spec, inputs, rep_seed(seed, i), d, t),
        work, enough,
    )
    reps = untraced + traced
    if not trace:
        # Run the first rep's seed again, untimed, for the byte-identity gate.
        reps.append(pipeline_rep(launcher, spec, inputs, rep_seed(seed, 0), work / "again", None))
    problems = check_identity(name, seed, [r["hash"] for r in reps if r["seed"] == reps[0]["seed"]])
    checked = [checks.check_dataset(rep["dataset"], spec["quotas"]) for rep in reps]
    for (found, _), rep in zip(checked, reps):
        problems += found
        if not audit_leakage(rep["dataset"]).clean:
            problems.append(f"audit_leakage reports leakage in {rep['dataset']}")
    problems += checks.check_shortest(checked[0][1], seed, SHORTEST_SAMPLE)
    return {
        "problems": problems,
        "hash": reps[0]["hash"],
        "setup_s": setup_s,
        "untraced": untraced,
        "traced": traced,
        "attempted": sum(r["requests"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "end_to_end": {
            "records_per_s": sum(r["records"] for r in untraced) / sum(r["wall"] for r in untraced),
            "requests_per_s": sum(r["requests"] for r in untraced) / sum(r["wall"] for r in untraced),
            "cpu_s": statistics.fmean(r["cpu"] for r in untraced),
            "peak_rss_mb": max(r["rss"] for r in reps),
        },
        "layer_extra": {"evaluate.connections_per_request": 0.0, "evaluate.stub_busy_s": 0.0},
    }


# ---------------------------------------------------------- eval-checkpoints


def build_eval_split(seed: int, dest: Path) -> tuple[Path, str]:
    """Generate, plan in-process and assemble a split of unique problems;
    returns the split file and the byte-identity hash of the set-up."""
    records = []
    for name in EVAL_DOMAINS:
        domain_path = ASSETS / f"{name}.pddl"
        domain = parse_domain(domain_path.read_text())
        config = load_config(ASSETS / f"{name}.dpgc.json")
        plans = dest / name / "plans"
        plans.mkdir(parents=True)
        attempted: set[str] = set()
        count = EVAL_PER_DOMAIN
        while True:
            result = generate_batch(
                config, domain, count, seed, dest / name / "problems", dest / name / "journal.fp"
            )
            for path in result.problem_files:
                if path.stem in attempted:
                    continue
                attempted.add(path.stem)
                plan = reference_plan(domain, parse_problem(path.read_text(), domain))
                if plan:
                    (plans / f"{path.stem}.plan").write_text(render_plan(plan))
            built, _skipped = build_records(domain_path, result.problem_files, plans)
            if len(built) >= EVAL_PER_DOMAIN:
                break
            count += EVAL_PER_DOMAIN - len(built)
        records.extend(built)
    assemble(records, {"val": EVAL_PER_DOMAIN * len(EVAL_DOMAINS)}, seed, dest / "dataset")
    trees = [f"{name}/{sub}" for name in EVAL_DOMAINS for sub in ("problems", "plans")]
    return dest / "dataset" / "val.json", checks.tree_hash(dest, trees + ["dataset"])


def eval_design(seed: int, split: Path, table_path: Path) -> list[dict]:
    """Write the stub's answer table; returns per checkpoint the answers and
    the scores ``metrics.json`` must report."""
    entries = json.loads(split.read_text())
    domain_of = [parse_domain(e["instruction"]).name for e in entries]
    design = []
    for ck in range(EVAL_CHECKPOINTS):
        kinds = [checks.design_kind(seed, ck, i) for i in range(len(entries))]
        per_domain = {
            d: checks.expected_group([k for k, kd in zip(kinds, domain_of) if kd == d])
            for d in sorted(set(domain_of))
        }
        design.append({
            "answers": [checks.design_answer(k, e["output"]) for k, e in zip(kinds, entries)],
            "expected": {"mixed": checks.expected_group(kinds), "per_domain": per_domain},
        })
    table = {
        "prompts": {e["input"]: i for i, e in enumerate(entries)},
        "checkpoints": [d["answers"] for d in design],
    }
    table_path.write_text(json.dumps(table))
    return design


def _scores(group: dict) -> dict:
    return {key: group[key] for key in ("total", "valid", "failure_kinds")}


def eval_rep(
    launcher: Launcher, split: Path, stub: Stub, design: list[dict], rep_dir: Path, trace_dir
) -> dict:
    wall = cpu = rss = 0.0
    requests = failed = 0
    problems = []
    for ck, expected in enumerate(design):
        out = rep_dir / f"ck{ck}"
        out.mkdir(parents=True, exist_ok=True)
        run = launcher.run(
            ["-m", "planforge", "eval", "--dataset", split,
             "--endpoint", f"{stub.url}/ck/{ck}/completion", "--out", out],
            out / "eval.log",
            trace_dir,
        )
        wall += run.wall
        cpu += run.cpu
        rss = max(rss, run.rss_mb)
        report = json.loads((out / "metrics.json").read_text())
        got = {
            "mixed": _scores(report["mixed"]),
            "per_domain": {d: _scores(g) for d, g in report["per_domain"].items()},
        }
        if got != expected["expected"]:
            problems.append(f"checkpoint {ck}: metrics.json {got} != design {expected['expected']}")
        lines = (out / "inferences.jsonl").read_text().splitlines()
        answers = expected["answers"]
        for index, answer in enumerate(answers):
            record = json.loads(lines[index]) if index < len(lines) else {}
            if isinstance(answer, int):
                ok = record.get("status") == "error"
            else:
                ok = record.get("status") == "ok" and record.get("output") == answer
            failed += not ok
        requests += len(answers)
    return {
        "wall": wall, "cpu": cpu, "rss": rss,
        "requests": requests, "failed": failed, "problems": problems,
    }


def run_eval_workload(
    launcher: Launcher, seed: int, seconds: float, trace: bool, work: Path
) -> dict:
    setup_s, built = median_time(
        lambda d: build_eval_split(seed, d), [work / f"setup-{i}" for i in range(EVAL_SETUPS)]
    )
    split = built[-1][0]
    hashes = [h for _, h in built]
    problems = check_identity("eval-checkpoints", seed, hashes)
    found, shipped = checks.check_dataset(split.parent, {"val": EVAL_PER_DOMAIN * len(EVAL_DOMAINS)})
    problems += found + checks.check_shortest(shipped, seed, SHORTEST_SAMPLE)
    design = eval_design(seed, split, work / "stub-table.json")

    stub = Stub(work / "stub-table.json", work)
    try:
        # The first eval command of a checkout loads cold files; users pay
        # that once, not per checkpoint, so one command runs before timing.
        warmup = eval_rep(launcher, split, stub, design[:1], work / "warmup", None)
        untraced, traced = measure(
            seconds, trace, lambda i, d, t: eval_rep(launcher, split, stub, design, d, t), work,
            lambda reps: layers.sample_counts([r["layers"] for r in reps])["evaluate.request_s"]
            >= layers.TAILS["evaluate.request_s"][0],
        )
    finally:
        stats = stub.close()
    reps = untraced + traced
    for rep in [warmup] + reps:
        problems += rep["problems"]
    all_requests = sum(r["requests"] for r in [warmup] + reps)
    if stats["post"] != all_requests:
        problems.append(f"stub served {stats['post']} requests, eval sent {all_requests}")
    return {
        "problems": problems,
        "hash": hashes[0],
        "setup_s": setup_s,
        "untraced": untraced,
        "traced": traced,
        "attempted": all_requests,
        "failed": sum(r["failed"] for r in [warmup] + reps),
        # Every round does the same work, so medians over rounds hold up
        # best against a burst of load from elsewhere on the host.
        "end_to_end": {
            "records_per_s": statistics.median(r["requests"] / r["wall"] for r in untraced),
            "requests_per_s": statistics.median(r["requests"] / r["wall"] for r in untraced),
            "cpu_s": statistics.median(r["cpu"] for r in untraced),
            "peak_rss_mb": max(r["rss"] for r in reps),
        },
        "layer_extra": {
            "evaluate.connections_per_request": stats["connections"] / stats["post"],
            "evaluate.stub_busy_s": stats["busy_s"] / stats["post"],
        },
    }




# ---------------------------------------------------------------------- run


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload, print its metrics and result line; the exit code."""
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    launcher = Launcher()
    try:
        if workload == "eval-checkpoints":
            outcome = run_eval_workload(launcher, seed, seconds, trace, work)
        else:
            outcome = run_pipeline_workload(launcher, workload, seed, seconds, trace, work)
    except BenchError as err:
        print(f"error: {err}\nwork directory kept: {work}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        launcher.close()

    problems = outcome["problems"]
    if trace:
        reps = [r["layers"] for r in outcome["traced"]]
        overhead = statistics.median(r["wall"] for r in outcome["traced"]) - statistics.median(
            r["wall"] for r in outcome["untraced"]
        )
        metrics, mismatched = layers.combine(
            reps, {**outcome["layer_extra"], "trace.overhead_s": overhead}
        )
        problems += mismatched
        print(f"samples: {layers.sample_counts(reps)} over {len(reps)} traced rep(s)")
    else:
        values = {**outcome["end_to_end"], "setup_s": outcome["setup_s"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(f"workload: {workload}  seed: {seed}  reps: "
          f"{len(outcome['untraced'])} untraced, {len(outcome['traced'])} traced")
    print(f"hash: {outcome['hash']}")
    for kind in ("untraced", "traced"):
        if outcome[kind]:
            print(f"{kind} rep walls (s): " + " ".join(f"{r['wall']:.3f}" for r in outcome[kind]))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    failed_frac = outcome["failed"] / outcome["attempted"]
    print(f"failed_frac = {failed_frac:.6g} ratio ({outcome['failed']}/{outcome['attempted']})")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems and outcome["failed"] == 0
    if correct:
        shutil.rmtree(work)
    else:
        print(f"work directory kept: {work}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1
