"""E24: what a shadow deploy costs, and how fast it catches a bug.

PR 9 adds :mod:`repro.shadow` -- every request mirrored to a candidate
service and diffed per step under a :class:`ComparisonPolicy`.  E24
prices that mirror and measures its detection power:

* ``shadow_matrix``: every standard scenario runs twice -- plain, and
  shadowed by an *identical* candidate (the no-divergence control).
  ``overhead_ratio`` is shadowed/unshadowed steps-per-second; an
  identical candidate must report zero divergences in every cell.
* ``digest_control``: one logged run proving the control is exact --
  incumbent and candidate log digests byte-identical.
* ``divergence_detection``: the commerce workload shadowed by the
  ``adversarial`` scenario's buggy store, plus the minimal SHORT-vs-
  buggy pair, reporting how many steps and how many wall-seconds pass
  before the first :class:`DivergenceReport` lands (and that its trace
  replays).

Run as a script to emit the ``BENCH_e24.json`` perf record::

    python benchmarks/bench_e24_shadow.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path
from time import perf_counter

from repro.commerce.models import (
    build_buggy_store,
    build_short,
    default_database,
)
from repro.pods.api import StepRequest
from repro.pods.service import PodService
from repro.scenarios import list_scenarios, run_scenario
from repro.shadow import ShadowService

SEED = 24
SESSIONS = 100
MEAN_STEPS = 6

_REPO_ROOT = Path(__file__).resolve().parent.parent


def matrix_scenarios() -> list[str]:
    """Every standard-profile scenario (the slow fraud-detection is left out)."""
    return [s.name for s in list_scenarios() if s.bench_profile == "standard"]


def measure_overhead_cell(name: str, sessions: int, steps: int) -> dict:
    """One scenario plain vs shadowed-by-itself (logs off, audited)."""
    plain = run_scenario(
        name, sessions=sessions, steps=steps, seed=SEED, keep_logs=False
    )
    shadowed = run_scenario(
        name,
        sessions=sessions,
        steps=steps,
        seed=SEED,
        keep_logs=False,
        shadow_candidate=name,
    )
    return {
        "scenario": name,
        "sessions": plain.sessions,
        "total_steps": plain.total_steps,
        "unshadowed_steps_per_second": round(plain.steps_per_second, 3),
        "shadowed_steps_per_second": round(shadowed.steps_per_second, 3),
        "overhead_ratio": round(
            shadowed.steps_per_second / plain.steps_per_second, 4
        ),
        "divergences": shadowed.divergences,
    }


def measure_digest_control(sessions: int, steps: int) -> dict:
    """Identical candidate, logs on: both digests must be equal."""
    report = run_scenario(
        "commerce",
        sessions=sessions,
        steps=steps,
        seed=SEED,
        shadow_candidate="commerce",
    )
    return {
        "scenario": "commerce",
        "divergences": report.divergences,
        "log_digest": report.log_digest,
        "shadow_log_digest": report.shadow_log_digest,
        "digests_equal": bool(
            report.log_digest is not None
            and report.shadow_log_digest == report.log_digest
        ),
    }


def measure_divergence_detection(sessions: int, steps: int) -> dict:
    """Shadowing commerce traffic with the adversarial buggy store."""
    started = perf_counter()
    report = run_scenario(
        "commerce",
        sessions=sessions,
        steps=steps,
        seed=SEED,
        shadow_candidate="adversarial",
    )
    wall = perf_counter() - started
    # The minimal pair: SHORT vs the buggy store, one session.  The
    # divergent step is the second submit; the latency of interest is
    # submit-to-report on that single call.
    db = default_database()
    shadow = ShadowService(
        PodService(build_short(), db), PodService(build_buggy_store(), db)
    )
    handle = shadow.create_session("probe")
    shadow.submit(StepRequest(handle, {"order": {("time",)}}))
    divergent_started = perf_counter()
    shadow.submit(StepRequest(handle, {"order": {("newsweek",)}}))
    detection_seconds = perf_counter() - divergent_started
    probe = shadow.first_divergence()
    return {
        "scenario": "commerce",
        "candidate": "adversarial",
        "divergences": report.divergences,
        "first_divergence_step": report.first_divergence_step,
        "run_wall_seconds": round(wall, 6),
        "probe": {
            "kind": probe.kind,
            "detected_at_step": probe.step,
            "divergent_submit_seconds": round(detection_seconds, 6),
            "trace_replays_on_incumbent": probe.trace.reproduces(
                build_short()
            ),
            "trace_fails_on_candidate": not probe.trace.reproduces(
                build_buggy_store()
            ),
        },
    }


def run_experiment(
    sessions: int = SESSIONS,
    steps: int = MEAN_STEPS,
    control_sessions: int = 12,
) -> dict:
    names = matrix_scenarios()
    matrix = [
        measure_overhead_cell(name, sessions, steps) for name in names
    ]
    control = measure_digest_control(control_sessions, min(steps, 5))
    detection = measure_divergence_detection(
        control_sessions, min(steps, 5)
    )
    headline = next(c for c in matrix if c["scenario"] == "commerce")
    return {
        "experiment": "e24_shadow",
        "workload": {
            "sessions": sessions,
            "mean_steps_per_session": steps,
            "arrival": "open-loop Poisson, exponential think times",
            "seed": SEED,
        },
        "scenarios": names,
        "shadow_matrix": matrix,
        "steps_per_second": headline["shadowed_steps_per_second"],
        "headline": {"scenario": "commerce", "shadowed": True},
        "shadow_overhead_ratio": headline["overhead_ratio"],
        "identical_candidate_divergences": sum(
            c["divergences"] for c in matrix
        ),
        "digest_control": control,
        "divergence_detection": detection,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "note": (
            "shadow_matrix runs each scenario's seeded open-loop traffic "
            "plain and mirrored to an identical candidate (strict policy, "
            "fail-open, logs off): overhead_ratio prices the mirror, and "
            "zero divergences everywhere is the no-false-positive "
            "control; divergence_detection shadows the same traffic with "
            "the adversarial buggy store and reports steps/seconds to "
            "the first replayable DivergenceReport"
        ),
    }


# -- pytest entry points ------------------------------------------------------


def test_e24_overhead_cell_roundtrip():
    """One small cell: complete, zero-divergence, computable ratio."""
    cell = measure_overhead_cell("feed-delivery", 8, 4)
    assert cell["total_steps"] > 0
    assert cell["divergences"] == 0
    assert cell["overhead_ratio"] > 0
    assert cell["shadowed_steps_per_second"] > 0


def test_e24_digest_control_is_exact():
    control = measure_digest_control(6, 4)
    assert control["divergences"] == 0
    assert control["digests_equal"] is True


def test_e24_detection_catches_the_buggy_store():
    detection = measure_divergence_detection(6, 4)
    assert detection["divergences"] >= 1
    assert detection["first_divergence_step"] is not None
    probe = detection["probe"]
    assert probe["detected_at_step"] == 2
    assert probe["trace_replays_on_incumbent"] is True
    assert probe["trace_fails_on_candidate"] is True


def test_e24_smoke_benchmark(benchmark):
    """One tiny shadowed run as a pytest-benchmark measurement."""

    def once():
        return measure_overhead_cell("commerce", 8, 4)

    cell = benchmark.pedantic(once, iterations=1, rounds=2)
    assert cell["divergences"] == 0


# -- script entry point -------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small matrix for CI (20 sessions, 4 mean steps)",
    )
    parser.add_argument("--sessions", type=int, default=None)
    parser.add_argument(
        "--out",
        type=Path,
        default=_REPO_ROOT / "BENCH_e24.json",
    )
    args = parser.parse_args()
    sessions = (
        args.sessions
        if args.sessions is not None
        else (20 if args.smoke else SESSIONS)
    )
    if sessions < 1:
        parser.error("--sessions must be >= 1")
    if args.smoke:
        record = run_experiment(
            sessions=sessions, steps=4, control_sessions=6
        )
    else:
        record = run_experiment(sessions=sessions)
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
