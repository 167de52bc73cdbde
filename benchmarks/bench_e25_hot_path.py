"""E25: the datalog hot path -- columnar store, memoized cost order, kernels.

Measures the end-to-end pod throughput of the E16 workload (many
independent customer sessions over one shared catalog) on the one
shipped evaluation path: the columnar :class:`~repro.relalg.FactStore`,
the per-rule memo of cost-based join orders, and compiled rule kernels.

The run is checked against the reference oracle: the canonical log
digest (:func:`repro.scenarios.log_digest`) of the first
``digest_sessions`` sessions is computed on the shipped path and again
under :func:`repro.datalog.evaluate.naive_evaluation`, and the two must
be byte-identical.

An earlier version of this benchmark attributed the hot path's speedup
with an ablation ladder of environment switches (``e16_path``,
``columnar_memo``, ``joingraph``, ``kernels``).  Those switches no
longer exist; the ladder's measured numbers stay in the record's
``history`` block, which every re-run carries over unchanged rather
than re-measuring.

Run as a script to emit the ``BENCH_e25.json`` perf record::

    python benchmarks/bench_e25_hot_path.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path

from repro.commerce.catalog import CatalogGenerator
from repro.commerce.models import build_friendly
from repro.datalog.evaluate import naive_evaluation
from repro.datalog.plan.planner import clear_plan_cache
from repro.pods import PodService
from repro.scenarios import log_digest

from bench_e16_runtime_throughput import SEED, drive_customers

PRODUCTS = 1000
STEPS_PER_SESSION = 8
FULL_SESSIONS = 1000
FULL_ROUNDS = 3
DIGEST_SESSIONS = 40
#: The hot-path counters the record reports.
COUNTERS = (
    "kernels_compiled", "kernel_hits", "replans_avoided", "interned_constants"
)

#: The committed record; its ``history`` block is carried into re-runs.
RECORD = Path(__file__).resolve().parent.parent / "BENCH_e25.json"


def _simulate(
    sessions: int, products: int, steps: int, keep_logs: bool = False
) -> PodService:
    """Drive the E16 traffic (one seeded script per customer,
    round-robin) through a fresh :class:`PodService`."""
    transducer = build_friendly()
    catalog = CatalogGenerator(seed=1).generate(products)
    service = PodService(transducer, catalog.as_database(), keep_logs=keep_logs)
    drive_customers(service, catalog, sessions, steps)
    return service


def _measure(sessions: int, products: int, steps: int, rounds: int) -> dict:
    """The fastest of ``rounds`` timed rounds' metrics snapshot, with the
    :data:`COUNTERS` of the last round.

    An untimed round runs first: the first service of a process
    compiles the kernels, and its hot-path counters differ from every
    later round's.  Counting one fixed round rather than the fastest
    keeps the counters independent of which round won on the clock.
    """
    _simulate(sessions, products, steps)
    best = None
    for _ in range(rounds):
        metrics = _simulate(sessions, products, steps).metrics.snapshot()
        assert metrics["steps_executed"] == sessions * steps
        if best is None or metrics["steps_per_second"] > best["steps_per_second"]:
            best = metrics
    return {**best, **{key: metrics[key] for key in COUNTERS}}


def _digest(sessions: int, products: int, steps: int) -> str:
    """Canonical log digest of the workload on the current evaluator."""
    service = _simulate(sessions, products, steps, keep_logs=True)
    return log_digest(service, service.session_ids())


def _naive_digest(sessions: int, products: int, steps: int) -> str:
    """The same digest with every evaluation on the scan-based oracle."""
    with naive_evaluation():
        return _digest(sessions, products, steps)


def _history() -> dict | None:
    """The committed record's recorded-history block, if any."""
    try:
        return json.loads(RECORD.read_text()).get("history")
    except (OSError, ValueError, AttributeError):
        return None


def run_experiment(
    sessions: int = FULL_SESSIONS,
    products: int = PRODUCTS,
    steps: int = STEPS_PER_SESSION,
    rounds: int = FULL_ROUNDS,
    digest_sessions: int = DIGEST_SESSIONS,
) -> dict:
    """Measure the shipped path and check its digest; return the record."""
    metrics = _measure(sessions, products, steps, rounds)
    digest = _digest(digest_sessions, products, steps)
    naive = _naive_digest(digest_sessions, products, steps)
    record = {
        "experiment": "e25_hot_path",
        "workload": {
            "transducer": "friendly",
            "catalog_products": products,
            "sessions": sessions,
            "steps_per_session": steps,
            "rounds_best_of": rounds,
            "digest_sessions": digest_sessions,
            "seed": SEED,
        },
        "steps_per_second": metrics["steps_per_second"],
        "mean_step_latency_seconds": metrics["mean_step_latency_seconds"],
        "log_digest": digest,
        "naive_log_digest": naive,
        "logs_identical": digest == naive,
        "counters": {key: metrics[key] for key in COUNTERS},
        "python": platform.python_version(),
    }
    history = _history()
    if history is not None:
        record["history"] = history
    return record


# -- pytest entry points ------------------------------------------------------


def test_e25_logs_match_naive_reference():
    """The shipped path and the naive oracle give the same log digest."""
    assert _digest(24, 200, 5) == _naive_digest(24, 200, 5)


def test_e25_counters_flow_through_metrics():
    """The shipped path reports its hot-path counters."""
    metrics = _measure(20, 200, 5, rounds=1)
    # kernels_compiled is a process-wide gauge: nonzero even when an
    # earlier service in this process compiled every kernel.
    assert metrics["kernels_compiled"] > 0
    assert metrics["kernel_hits"] > 0
    assert metrics["replans_avoided"] > 0
    assert metrics["interned_constants"] > 0


def test_e25_counters_do_not_depend_on_the_fastest_round():
    """Two measurements count the same, the first one in a process with
    no compiled plans included."""
    clear_plan_cache()
    first = _measure(20, 200, 5, rounds=1)
    second = _measure(20, 200, 5, rounds=1)
    assert [first[key] for key in COUNTERS] == [second[key] for key in COUNTERS]


def test_e25_hot_path_smoke(benchmark):
    """Small steady-state measurement of the shipped path (CI size)."""
    metrics = benchmark.pedantic(
        _measure,
        args=(40, 300, 6, 1),
        iterations=1,
        rounds=3,
    )
    assert metrics["steps_per_second"] > 0


def test_e25_record_at_small_scale():
    """run_experiment end to end: rate, digests, carried history."""
    record = run_experiment(
        sessions=50, products=200, rounds=1, digest_sessions=10
    )
    assert record["steps_per_second"] > 0
    assert record["logs_identical"] is True
    assert record["counters"]["kernels_compiled"] > 0
    assert set(record["history"]["ladder"]) == {
        "e16_path", "columnar_memo", "joingraph", "kernels",
    }


# -- script entry point -------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for CI (100 sessions, 300 products, 1 round)",
    )
    parser.add_argument("--sessions", type=int, default=None)
    parser.add_argument("--products", type=int, default=None)
    parser.add_argument("--out", type=Path, default=RECORD)
    args = parser.parse_args()
    sessions = (
        args.sessions
        if args.sessions is not None
        else (100 if args.smoke else FULL_SESSIONS)
    )
    if sessions < 1:
        parser.error("--sessions must be >= 1")
    products = (
        args.products
        if args.products is not None
        else (300 if args.smoke else PRODUCTS)
    )
    if products < 1:
        parser.error("--products must be >= 1")
    record = run_experiment(
        sessions=sessions,
        products=products,
        rounds=1 if args.smoke else FULL_ROUNDS,
        digest_sessions=min(DIGEST_SESSIONS, sessions),
    )
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
