"""The pod benchmark: one command, two workloads, end-to-end and per-layer.

Run from the repository root::

    python3 podbench/run.py --workload commerce-http --seed 1 --seconds 40 --trace 0
    python3 podbench/run.py --workload commerce-http --seed 1 --seconds 40 --trace 1
    python3 podbench/run.py --tiny                  # smoke: every workload, tiny sizes
    python3 podbench/run.py --steadiness --repeats 10 --seconds 40

``--trace 0`` reports the end-to-end metrics: ``steps_per_s``,
``call_p50_ms`` and ``call_p90_ms`` (one call is one ``submit_batch``),
``peak_rss_mb`` and ``setup_s``.  Set-up runs three times, each in a
fresh interpreter, and the median is reported; the last of the three
also runs the timed closed loop.  Peak RSS is read once a fixed number
of steps has been served (see ``Spec.rss_after_steps``), so a faster
build that serves more steps in the same seconds is not charged for
the extra log entries it retains.

``--trace 1`` runs the workload untraced and then traced, each in a
fresh interpreter, and reports per-layer self time per step, span call
counts, runtime counters per step, and ``trace.overhead`` (the traced
run's ``steps_per_s`` over the untraced one's).

Every timed run passes a correctness gate before any number is printed
(see ``podbench/workloads.py``); if it fails, the command prints the
reason on stderr and exits 1.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

``--steadiness`` repeats driver-style runs over several seeds, in
alternating workload order, recording a fixed pure-Python calibration
rate before and after each run (recorded only, never used to adjust a
result), and prints each metric's median, quartiles and spread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

WORKLOAD_NAMES = ("commerce-http", "fraud-audit-shadow-evict")
#: Set-ups per end-to-end run; each is its own interpreter.
SETUP_REPEATS = 3
#: Children still running this long after a report started are killed,
#: so that one command ends within 180 seconds even if a run hangs.
REPORT_BUDGET_S = 165.0

#: Span names of the traced run, in the order they are reported.
SPANS = (
    "pods.batch_self",
    "server.http",
    "server.codec",
    "server.frontend",
    "server.worker",
    "server.worker_step",
    "shadow.self",
    "pods.submit_self",
    "pods.store_write",
    "pods.store_read",
    "core.step_self",
    "core.output",
    "core.state",
    "audit.observe_self",
    "logic.log_validity_self",
    "logic.sat",
)
#: (metric, runtime counter) reported per step of the timed phase.
PER_STEP_COUNTERS = (
    ("pods.rehydrations", "sessions_rehydrated"),
    ("pods.evictions", "sessions_evicted"),
    ("datalog.kernel_hits", "kernel_hits"),
    ("datalog.full_rule_evals", "full_rule_evals"),
    ("datalog.delta_rule_evals", "delta_rule_evals"),
    ("datalog.replans_avoided", "replans_avoided"),
    ("audit.checks", "audit_checks"),
)
#: (metric, runtime counter) reported as totals over the whole run.
RUN_TOTALS = (
    ("datalog.kernels_compiled", "kernels_compiled"),
    ("datalog.plans_compiled", "plans_compiled"),
    ("relalg.interned_constants", "interned_constants"),
)


class BenchmarkError(RuntimeError):
    """The run cannot report numbers (failed gate, child crash, bad tree)."""


def child(workload, seed, seconds, mode, deadline, *, tiny=False, spans=None):
    """Run ``podbench/child.py`` in a fresh interpreter; return its JSON."""
    command = [
        sys.executable, "-m", "podbench.child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode, "--workdir", WORKDIR,
    ]
    if tiny:
        command.append("--tiny")
    if spans:
        command += ["--spans", spans]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Its own process group, so that worker processes it spawned are
    # stopped with it whatever way it ends.
    with subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as process:
        try:
            stdout, stderr = process.communicate(
                timeout=max(1.0, deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            stdout = None
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
            # A killed child leaves its stores behind.
            shutil.rmtree(
                os.path.join(WORKDIR, f"{workload}-{process.pid}"),
                ignore_errors=True,
            )
    if stdout is None:
        raise BenchmarkError(f"{workload} {mode} run timed out")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchmarkError(
            f"{workload} {mode} run crashed (exit {process.returncode}):\n"
            + stderr[-4000:]
        ) from None
    if not result.get("correct"):
        raise BenchmarkError(
            f"{workload} failed its correctness gate: {result.get('error')}"
        )
    return result


def metric(value: float, unit: str) -> dict:
    if not math.isfinite(value):
        raise BenchmarkError(f"non-finite measurement {value!r} ({unit})")
    return {"value": value, "unit": unit}


def describe(run: dict) -> str:
    gate = run["gate"]
    return (
        f"{run['workload']}: {run['steps']} steps in {run['elapsed_s']:.2f} s,"
        f" {run['calls']} calls ({run['failed']} failed),"
        f" mean active sessions {run['active_sessions']:.0f},"
        f" residency bound {run['max_resident']},"
        f" digest {gate['digest'][:16]} = naive reference"
        + (", schedule exhausted early" if run["exhausted"] else "")
    )


def end_to_end(workload: str, seed: int, seconds: float, tiny=False) -> dict:
    deadline = time.monotonic() + REPORT_BUDGET_S
    setups = [
        child(workload, seed, seconds, "setup", deadline, tiny=tiny)["setup_s"]
        for _ in range(SETUP_REPEATS - 1)
    ]
    run = child(workload, seed, seconds, "run", deadline, tiny=tiny)
    setups.append(run["setup_s"])
    print(describe(run))
    print(f"  call latency over {run['calls']} calls;"
          f" set-up times {', '.join(f'{s:.3f}' for s in setups)} s")
    return {
        "correct": True,
        "attempted": run["calls"],
        "failed": run["failed"],
        "metrics": {
            "steps_per_s": metric(run["steps_per_s"], "1/s"),
            "call_p50_ms": metric(run["call_p50_ms"], "ms"),
            "call_p90_ms": metric(run["call_p90_ms"], "ms"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MiB"),
            "setup_s": metric(statistics.median(setups), "s"),
        },
        "digest": run["gate"]["digest"],
    }


def per_layer(workload: str, seed: int, seconds: float, tiny=False) -> dict:
    from podbench.tracing import self_times

    deadline = time.monotonic() + REPORT_BUDGET_S
    untraced = child(workload, seed, seconds, "run", deadline, tiny=tiny)
    os.makedirs(WORKDIR, exist_ok=True)
    spans_file = os.path.join(WORKDIR, f"spans-{workload}.json")
    traced = child(
        workload, seed, seconds, "trace", deadline, tiny=tiny, spans=spans_file
    )
    print(describe(traced))
    with open(spans_file, encoding="utf-8") as handle:
        names = self_times(json.load(handle))
    steps = traced["steps"]
    before, after = traced["counters_before"], traced["counters_after"]
    # The worker's own step time happens inside WorkerHandle.call, in
    # another process; it is split out of server.worker as its own span.
    if "server.worker" in names:
        worker_step_ns = round(
            (after["step_seconds_total"] - before["step_seconds_total"]) * 1e9
        )
        names["server.worker"]["self_ns"] -= worker_step_ns
        names["server.worker_step"] = {
            "calls": after["steps_executed"] - before["steps_executed"],
            "self_ns": worker_step_ns,
        }
    metrics = {}
    layer_ns = 0
    for name in SPANS:
        entry = names.get(name, {"calls": 0, "self_ns": 0})
        layer_ns += entry["self_ns"]
        metrics[f"{name}.us_per_step"] = metric(
            entry["self_ns"] / 1e3 / steps, "us/step"
        )
        metrics[f"{name}.calls"] = metric(entry["calls"], "count")
    # Harness clock: between calls is the harness loop; inside calls but
    # outside every root span is what the spans leave unaccounted.
    wall_ns = traced["elapsed_s"] * 1e9
    call_ns = traced["call_s"] * 1e9
    metrics["harness.loop.us_per_step"] = metric(
        (wall_ns - call_ns) / 1e3 / steps, "us/step"
    )
    metrics["trace.remainder.us_per_step"] = metric(
        (call_ns - layer_ns) / 1e3 / steps, "us/step"
    )
    for name, key in PER_STEP_COUNTERS:
        metrics[name] = metric(
            (after.get(key, 0) - before.get(key, 0)) / steps, "count/step"
        )
    for name, key in RUN_TOTALS:
        metrics[name] = metric(after.get(key, 0), "count")
    metrics["shadow.divergences"] = metric(
        traced["gate"].get("divergences", 0), "count"
    )
    metrics["trace.overhead"] = metric(
        traced["steps_per_s"] / untraced["steps_per_s"], "ratio"
    )
    share = {
        name: names[name]["self_ns"] / wall_ns
        for name in SPANS if name in names
    }
    top = sorted(share.items(), key=lambda item: -item[1])[:4]
    print("  largest self-time shares of traced wall time: "
          + ", ".join(f"{name} {value:.1%}" for name, value in top))
    return {
        "correct": True,
        "attempted": traced["calls"],
        "failed": traced["failed"],
        "metrics": metrics,
    }


def calibration_rate(seconds: float = 1.0) -> float:
    """Iterations per second of a fixed pure-Python loop (drift probe)."""
    count = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        total = 0
        for i in range(10_000):
            total += i * i % 7
        count += 1
    return count * 10_000 / (time.perf_counter() - started)


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def steadiness(args) -> int:
    """Repeat driver-style runs and summarise each metric's spread."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else WORKLOAD_NAMES
    values: dict = {}
    calibration: list[float] = []
    for repeat in range(args.repeats):
        order = workloads if repeat % 2 == 0 else tuple(reversed(workloads))
        seed = args.seed + repeat
        for workload in order:
            calibration.append(calibration_rate())
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            started = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            took = time.perf_counter() - started
            calibration.append(calibration_rate())
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed} ({took:.0f} s): " + ", ".join(
                f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()
            ) + f"; calibration {calibration[-2]:.3g} -> {calibration[-1]:.3g}/s",
                flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    m["value"]
                )
    print("\nmetric: median [q1, q3] spread=(q3-q1)/median (bound)")
    steady = True
    for workload, metrics in values.items():
        for name, series in metrics.items():
            q1, median, q3 = quartiles(series)
            spread = (q3 - q1) / median
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <-- above a third of its bound"
                steady = False
            print(f"{workload}/{name}: {median:.4g} [{q1:.4g}, {q3:.4g}]"
                  f" spread={spread:.3f} ({bounds[name]}){flag}")
    q1, median, q3 = quartiles(calibration)
    print(f"calibration: {median:.4g}/s [{q1:.4g}, {q3:.4g}]"
          f" spread={(q3 - q1) / median:.3f} (recorded only)")
    return 0 if steady else 1


def tiny(args) -> int:
    """Smoke: every workload at tiny size, both modes, with its gate."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        declared = json.load(handle)
    names = {
        0: {m["name"] for m in declared["end_to_end"]},
        1: {m["name"] for m in declared["per_layer"]},
    }
    if [w["name"] for w in declared["workloads"]] != list(WORKLOAD_NAMES):
        raise BenchmarkError("BENCHMARK.json names other workloads")
    digests = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            report = (per_layer if trace else end_to_end)(
                workload, args.seed, 1.0, tiny=True
            )
            if set(report["metrics"]) != names[trace]:
                raise BenchmarkError(
                    f"{workload} --trace {trace} reports "
                    f"{sorted(set(report['metrics']) ^ names[trace])} "
                    "differently from BENCHMARK.json"
                )
            if "digest" in report:
                digests[workload] = report["digest"]
    print(json.dumps({"correct": True, "digests": digests}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke run of every workload at tiny sizes")
    parser.add_argument("--steadiness", action="store_true",
                        help="repeat runs and report each metric's spread")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--workloads",
                        help="comma-separated subset for --steadiness")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"podbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    try:
        if args.steadiness:
            return steadiness(args)
        if args.tiny:
            return tiny(args)
        if args.workload is None:
            parser.error("--workload is required")
        report = (per_layer if args.trace else end_to_end)(
            args.workload, args.seed, args.seconds
        )
    except BenchmarkError as error:
        print(f"podbench: {error}", file=sys.stderr)
        return 1
    report.pop("digest", None)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
