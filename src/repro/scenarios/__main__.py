"""``python -m repro.scenarios`` -- list and run workload scenarios.

    $ python -m repro.scenarios --list
    $ python -m repro.scenarios --run feed-delivery --sessions 64 --steps 8
    $ python -m repro.scenarios --run auction --json
    $ python -m repro.scenarios --run commerce --shadow adversarial

``--shadow CANDIDATE`` shadow-deploys the candidate scenario's
transducer under the incumbent's traffic and exits non-zero when any
divergence is recorded, so CI can use the run as a containment gate.

Runs here use one in-process service.  To spread a scenario over N
worker processes, serve it with ``python -m repro.server --scenario
NAME --workers N`` and drive it with ``run_scenario(NAME,
service=client)`` inside ``with PodClient(url, scenario_transducer(NAME))
as client:`` (leaving the block closes the client's sockets).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.scenarios.registry import list_scenarios, scenario_names
from repro.scenarios.runner import run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="List or run registered workload scenarios.",
    )
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--list", action="store_true", help="list registered scenarios"
    )
    action.add_argument(
        "--run", metavar="NAME", help="run one scenario's workload"
    )
    parser.add_argument("--sessions", type=int, default=64)
    parser.add_argument(
        "--steps", type=int, default=8, help="mean steps per session"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scale", type=int, default=None, help="database size knob"
    )
    parser.add_argument(
        "--store", default=None, metavar="PATH", help="session store path"
    )
    parser.add_argument(
        "--shadow",
        default=None,
        metavar="CANDIDATE_SCENARIO",
        help="shadow-deploy this scenario's transducer as a candidate; "
        "exit 1 if any divergence is found",
    )
    parser.add_argument(
        "--no-audit",
        action="store_true",
        help="drop the scenario's OnlineAuditor (pure throughput)",
    )
    parser.add_argument(
        "--no-logs", action="store_true", help="disable log retention"
    )
    parser.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        width = max(len(name) for name in scenario_names())
        for scenario in list_scenarios():
            flags = []
            if scenario.expects_violations:
                flags.append("expects violations")
            if scenario.bench_profile != "standard":
                flags.append(scenario.bench_profile)
            suffix = f"  [{', '.join(flags)}]" if flags else ""
            print(f"{scenario.name:<{width}}  {scenario.description}{suffix}")
        return 0
    report = run_scenario(
        args.run,
        sessions=args.sessions,
        steps=args.steps,
        seed=args.seed,
        scale=args.scale,
        store=args.store,
        audit=not args.no_audit,
        keep_logs=not args.no_logs,
        shadow_candidate=args.shadow,
    )
    # The shadow gate: any divergence fails the run.
    exit_code = 1 if (args.shadow and report.divergences) else 0
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return exit_code
    print(f"scenario          {report.scenario}")
    print(f"sessions          {report.sessions}")
    print(f"total steps       {report.total_steps}")
    print(f"wall seconds      {report.wall_seconds:.3f}")
    print(f"steps / second    {report.steps_per_second:,.0f}")
    print(f"audit checks      {report.audit_checks}")
    print(
        f"audit violations  {report.audit_violations}"
        + ("  (expected for this scenario)" if report.expects_violations else "")
    )
    if report.log_digest:
        print(f"log digest        {report.log_digest[:16]}…")
    if args.shadow:
        print(f"shadow candidate  {report.shadow_candidate}")
        print(
            f"divergences       {report.divergences}"
            + (
                f"  (first at step {report.first_divergence_step})"
                if report.divergences
                else ""
            )
        )
        if report.shadow_log_digest:
            print(f"shadow digest     {report.shadow_log_digest[:16]}…")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
