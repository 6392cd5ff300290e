"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 stage failure.  The hidden
``refplan`` subcommand speaks the planner protocol instead: 0 plan written,
3 proven unsolvable, 4 expansion budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Subcommands import what they use when they run: the planner protocol
# (``refplan``) and ``validate`` need neither config checks nor the HTTP
# client, and each ``eval`` or ``pipeline`` run loads only its own side.
# ``plan`` and ``pipeline`` load their stages, and with them the planner,
# before they fork their planner workers, so that each worker inherits a
# loaded planner and imports nothing.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_STAGE = 2

PUBLIC_COMMANDS = "{gen-problems,plan,assemble,validate,audit,eval,pipeline}"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit 2; usage errors are 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _number(kind: str):
    """An argparse type for a number of the ``planforge.shape`` kind named
    ``kind``, refused with ``shape.check``'s message.  ``shape`` is imported
    when a flag is read, so that importing the CLI loads no PDDL reader."""

    def read(text: str):
        from planforge import shape

        number = getattr(shape, kind)
        try:
            value = int(text) if number.whole else float(text)
        except ValueError:
            value = text  # refused below as not a number
        for diagnostic in shape.check(value, number, "argument"):
            raise argparse.ArgumentTypeError(diagnostic.message)
        return value

    return read


def cmd_gen_problems(args) -> int:
    from planforge.session import Session, stage_generate

    session = Session(args.session)
    result = stage_generate(session, args.config, args.domain, args.count, args.seed)
    if result["skipped"]:
        print(f"up to date: {result['count']} problem(s) already generated")
    else:
        print(
            f"generated {result['count']} problem(s) "
            f"({result['new']} new, {result['replayed']} replayed, "
            f"{result['trivial']} trivial) in {session.problems_dir}"
        )
    return EXIT_OK


def cmd_plan(args) -> int:
    from planforge.pool import PlannerPool
    from planforge.session import Session, load_adapter, stage_plan

    adapter = load_adapter(args.adapter, args.adapters)
    with PlannerPool(args.workers) as pool:  # last: see the note on imports
        result = stage_plan(Session(args.session), adapter, timeout=args.timeout, pool=pool)
    tally = " ".join(f"{k}={v}" for k, v in sorted(result["tally"].items()))
    print(
        f"planned {result['planned']}/{result['problems']} "
        f"(attempted {result['attempted']}; {tally or 'nothing to do'})"
    )
    if result["planned"] == 0:
        print("error: planner produced no usable plans", file=sys.stderr)
        return EXIT_STAGE
    return EXIT_OK


def cmd_assemble(args) -> int:
    from planforge.session import Session, StageError, collect_records, stage_assemble

    quotas = {
        name: value
        for name, value in (("train", args.train), ("val", args.val), ("test", args.test))
        if value > 0
    }
    if not quotas:
        raise StageError("all quotas are zero; nothing to assemble")
    records = []
    for path in args.session:
        records.extend(collect_records(Session(path))[0])
    manifest = stage_assemble(records, quotas, args.seed, args.out)
    counts = " ".join(f"{k}={v}" for k, v in manifest["counts"].items())
    print(f"dataset written to {args.out} ({counts})")
    return EXIT_OK


def cmd_validate(args) -> int:
    from planforge import parse_file
    from planforge.pddl.parser import parse_domain, parse_problem
    from planforge.plans import validate

    domain = parse_file(args.domain, parse_domain)
    problem = parse_file(args.problem, lambda text: parse_problem(text, domain))
    result = parse_file(args.plan, lambda text: validate(domain, problem, text))
    if result.valid:
        print(result.message)
        return EXIT_OK
    where = f" at step {result.failure_step}" if result.failure_step is not None else ""
    print(f"invalid ({result.failure_kind}{where}): {result.message}", file=sys.stderr)
    return EXIT_STAGE


def cmd_audit(args) -> int:
    from planforge.dataset import audit_leakage

    report = audit_leakage(args.dataset)
    counts = " ".join(f"{name}={n}" for name, n in sorted(report.files.items()))
    if report.clean:
        print(f"no leakage ({counts})")
        return EXIT_OK
    print(
        f"leakage: {len(report.collisions)} fingerprint(s) shared across files "
        f"({counts})",
        file=sys.stderr,
    )
    return EXIT_STAGE


def cmd_eval(args) -> int:
    from planforge.evaluate import (
        EndpointConfig,
        export_report,
        render_report,
        run_inference,
        score,
    )
    from planforge.shape import Diagnostic, parse_record, read_split, refuse

    entries = read_split(args.dataset)
    if not entries:
        refuse(args.dataset, [Diagnostic("records", "expected a non-empty array of records")])
    entries = entries[: args.limit]
    # Parsed before any request is sent, and once: score reuses the pairs.
    tasks = [parse_record(args.dataset, i, entry) for i, entry in enumerate(entries)]
    endpoint = EndpointConfig(
        url=args.endpoint,
        temperature=args.temperature,
        token_budget=args.token_budget,
        timeout=args.timeout,
        retries=args.retries,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    inferences = run_inference(entries, endpoint, out_dir / "inferences.jsonl")
    metrics = score(tasks, inferences)
    export_report(metrics, out_dir / "metrics.json", out_dir / "metrics.txt")
    print(render_report(metrics), end="")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    from planforge.pool import PlannerPool
    from planforge.session import run_pipeline
    from planforge.shape import load_pipeline_config

    config = load_pipeline_config(args.config)
    with PlannerPool(config.get("workers", 1)) as pool:  # last: see the note on imports
        summary = run_pipeline(config, args.session, pool)
    for name, info in summary["domains"].items():
        print(
            f"{name}: {info['usable']} usable record(s) from {info['target']} "
            f"problem(s) in {info['rounds']} round(s)"
        )
    counts = " ".join(f"{k}={v}" for k, v in summary["dataset"].items())
    print(f"dataset: {counts}")
    return EXIT_OK


def cmd_refplan(args) -> int:
    from planforge import parse_file
    from planforge.drivers import ExpansionBudgetExceeded, reference_plan
    from planforge.pddl.parser import parse_domain, parse_problem
    from planforge.plans import render_plan

    domain = parse_file(args.domain, parse_domain)
    problem = parse_file(args.problem, lambda text: parse_problem(text, domain))
    try:
        plan = reference_plan(domain, problem, max_expansions=args.max_expansions)
    except ExpansionBudgetExceeded as err:
        print(str(err), file=sys.stderr)
        return 4
    if plan is None:
        print("unsolvable: reachable space exhausted without meeting the goal")
        return 3
    Path(args.output).write_text(render_plan(plan))
    print(f"plan found: {len(plan)} step(s)")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="planforge",
        description="Generate planning problems, solve them, assemble "
        "instruction-tuning datasets, and score model plans.",
    )
    sub = parser.add_subparsers(
        dest="command", metavar=PUBLIC_COMMANDS, parser_class=_Parser
    )

    p = sub.add_parser("gen-problems", help="generate problems from a config")
    p.add_argument("--config", required=True, help="generation config (.dpgc.json)")
    p.add_argument("--domain", required=True, help="domain file (.pddl)")
    p.add_argument("--count", required=True, type=_number("ZERO_OR_MORE"), help="problems to emit")
    p.add_argument("--seed", required=True, type=int, help="generation seed")
    p.add_argument("--session", required=True, help="session directory")
    p.set_defaults(func=cmd_gen_problems)

    p = sub.add_parser("plan", help="solve the session's problems")
    p.add_argument("--session", required=True)
    p.add_argument("--adapter", default="internal", help="adapter name")
    p.add_argument("--adapters", default=None, help="adapter registry file")
    p.add_argument("--timeout", type=_number("ABOVE_ZERO"), default=None,
                   help="per-problem seconds")
    p.add_argument("--workers", type=_number("ONE_OR_MORE"), default=1)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("assemble", help="assemble dataset splits from sessions")
    p.add_argument(
        "--session", action="append", required=True, help="one per domain session"
    )
    p.add_argument("--out", required=True, help="dataset output directory")
    p.add_argument("--train", type=_number("ZERO_OR_MORE"), default=0)
    p.add_argument("--val", type=_number("ZERO_OR_MORE"), default=0)
    p.add_argument("--test", type=_number("ZERO_OR_MORE"), default=0)
    p.add_argument("--seed", required=True, type=int, help="shuffle seed")
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("validate", help="validate one plan exactly")
    p.add_argument("--domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--plan", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("audit", help="audit dataset splits for leakage")
    p.add_argument("--dataset", required=True, help="dataset directory")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("eval", help="run a model over a split and score it")
    p.add_argument("--dataset", required=True, help="split file (alpaca json)")
    p.add_argument("--endpoint", required=True, help="completion endpoint URL")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--temperature", type=_number("AT_LEAST_ZERO"), default=0.01)
    p.add_argument("--token-budget", type=_number("ONE_OR_MORE"), default=3096)
    p.add_argument("--timeout", type=_number("ABOVE_ZERO"), default=120.0)
    p.add_argument("--retries", type=_number("ZERO_OR_MORE"), default=0)
    p.add_argument("--limit", type=_number("ZERO_OR_MORE"), default=None,
                   help="evaluate first N only")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="run generate/plan/assemble end to end")
    p.add_argument("--config", required=True, help="pipeline config (json)")
    p.add_argument("--session", required=True, help="pipeline session directory")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("refplan")
    p.add_argument("--domain", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--max-expansions", type=_number("ONE_OR_MORE"),
                   default=1_000_000)
    p.set_defaults(func=cmd_refplan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
