"""One workload run in a fresh interpreter.

``run.py`` starts this module once per set-up or timed run, so the
process-wide plan, kernel and intern memos always start cold: set-up
time includes their compile cost, and the compile counters belong to
this run alone.  Prints one JSON object as its last line of output.

Modes: ``setup`` builds the workload and stops; ``run`` adds the timed
closed loop and the correctness gate; ``trace`` is ``run`` with layer
spans recorded and written to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from time import perf_counter


def percentile(values: list, fraction: float) -> float:
    """Nearest-rank percentile; failed calls are stored as ``inf``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    # The whole run, worker processes included (they inherit the mask),
    # stays on one CPU.  The closed loop has one request in flight, so
    # nothing runs in parallel; across two CPUs, each hand-off between
    # client, front-end and worker waits for an idle virtual CPU to wake,
    # which made HTTP latency and set-up time bimodal from run to run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # Imports first: set-up time starts at the first program call.
    import repro.datalog.evaluate  # noqa: F401
    import repro.pods  # noqa: F401
    import repro.scenarios  # noqa: F401
    import repro.server  # noqa: F401
    import repro.shadow  # noqa: F401
    from podbench.tracing import Tracer, install_layer_spans
    from podbench.workloads import GateError, Running, check_gate, spec_for

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        install_layer_spans(tracer)
    spec = spec_for(args.workload, tiny=args.tiny)
    workdir = os.path.join(args.workdir, f"{args.workload}-{os.getpid()}")
    running = Running(spec, args.seed, workdir, tracer)
    out: dict = {"workload": spec.name, "mode": args.mode}
    try:
        started = perf_counter()
        running.setup()
        out["setup_s"] = perf_counter() - started
        if args.mode != "setup":
            running.prepare_traffic()
            timed = running.run_timed(args.seconds)
            if tracer is not None:
                tracer.dump(args.spans)
            latencies = timed.pop("latencies")
            gate = running.gate()
            gate["continuity_errors"] = timed["continuity_errors"]
            out.update(timed)
            out.update(
                gate=gate,
                calls=len(latencies),
                call_s=sum(x for x in latencies if math.isfinite(x)),
                steps_per_s=timed["steps"] / timed["elapsed_s"],
                call_p50_ms=percentile(latencies, 0.50) * 1e3,
                call_p90_ms=percentile(latencies, 0.90) * 1e3,
                active_sessions=running.active_sessions(timed["steps"]),
                max_resident=spec.max_resident,
            )
            try:
                check_gate(gate)
            except GateError as error:
                out["error"] = str(error)
        out["correct"] = "error" not in out
    finally:
        running.close()
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
