"""E16: multi-session runtime throughput and indexed-evaluation speedup.

Drives store-wide traffic -- many independent customer sessions over one
shared catalog -- through the :mod:`repro.pods` service, and compares
the indexed evaluator against the original scan-based nested-loop join
(:func:`repro.datalog.evaluate.naive_evaluation`) on the same workload.

Run as a script to emit the ``BENCH_e16.json`` perf record::

    python benchmarks/bench_e16_runtime_throughput.py [--smoke] [--out PATH]

The naive baseline is measured on a subsample of the sessions (its
per-step cost is rate-constant across sessions, and full-size naive runs
take minutes); all reported numbers are steady-state rates.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
from pathlib import Path

from repro.commerce.catalog import CatalogGenerator
from repro.commerce.models import build_friendly
from repro.commerce.workloads import SessionGenerator
from repro.datalog.evaluate import naive_evaluation
from repro.pods import PodService

SEED = 7
PRODUCTS = 1000
STEPS_PER_SESSION = 8
FULL_SESSIONS = 1000
NAIVE_SESSIONS = 60


def drive_customers(service, catalog, sessions: int, steps: int) -> None:
    """Open ``customer-000000`` .. and drive one seeded script of
    ``steps`` steps per customer round-robin through ``service`` (a
    :class:`PodService`).

    E25 drives the same traffic; its committed log digest depends on
    these ids, seeds and ``supports_pending_bills=True``.
    """
    workload = {
        service.create_session(f"customer-{n:06d}"): SessionGenerator(
            catalog, seed=SEED * 1_000_003 + n, supports_pending_bills=True
        ).session(steps)
        for n in range(sessions)
    }
    service.drive(workload, round_robin=True)


def _measure(
    sessions: int, products: int, steps: int, naive: bool = False
) -> dict:
    """Drive the customer traffic through a :class:`PodService`; return
    its metrics snapshot."""
    transducer = build_friendly()
    catalog = CatalogGenerator(seed=1).generate(products)
    context = naive_evaluation() if naive else contextlib.nullcontext()
    with context:
        service = PodService(transducer, catalog.as_database(), keep_logs=False)
        drive_customers(service, catalog, sessions, steps)
    metrics = service.metrics.snapshot()
    assert metrics["steps_executed"] == sessions * steps
    return metrics


def run_experiment(
    sessions: int = FULL_SESSIONS,
    products: int = PRODUCTS,
    steps: int = STEPS_PER_SESSION,
    naive_sessions: int = NAIVE_SESSIONS,
) -> dict:
    """Measure both evaluator paths; return the JSON perf record."""
    indexed = _measure(sessions, products, steps)
    naive = _measure(naive_sessions, products, steps, naive=True)
    speedup = indexed["steps_per_second"] / naive["steps_per_second"]
    return {
        "experiment": "e16_runtime_throughput",
        "workload": {
            "transducer": "friendly",
            "catalog_products": products,
            "sessions": sessions,
            "steps_per_session": steps,
            "naive_baseline_sessions": naive_sessions,
            "seed": SEED,
        },
        "indexed": indexed,
        "naive": naive,
        "sessions_per_second": indexed["sessions_per_second"],
        "steps_per_second": indexed["steps_per_second"],
        "index_vs_naive_speedup": round(speedup, 2),
        "python": platform.python_version(),
    }


# -- pytest entry points ------------------------------------------------------


def test_e16_session_isolation():
    """Interleaved sessions produce the same logs as standalone runs."""
    transducer = build_friendly()
    catalog = CatalogGenerator(seed=1).generate(50)
    service = PodService(transducer, catalog.as_database())
    scripts = {
        service.create_session(): SessionGenerator(
            catalog, seed=s, supports_pending_bills=True
        ).session(6)
        for s in range(5)
    }
    service.drive(scripts, round_robin=True)
    for handle, script in scripts.items():
        run = transducer.run(catalog.as_database(), script)
        assert (
            list(service.session(handle).log().entries) == list(run.logs)
        )


def test_e16_throughput_smoke(benchmark):
    """Small steady-state throughput measurement (CI smoke size)."""
    metrics = benchmark.pedantic(
        _measure,
        args=(40, 300, 6),
        iterations=1,
        rounds=3,
    )
    assert metrics["steps_per_second"] > 0


def test_e16_indexed_speedup_at_scale():
    """Acceptance: >= 5x over the seed nested-loop path, 1k sessions."""
    record = run_experiment()
    print(
        f"\nE16: indexed {record['steps_per_second']:.0f} steps/s, "
        f"naive {record['naive']['steps_per_second']:.0f} steps/s, "
        f"speedup {record['index_vs_naive_speedup']:.1f}x"
    )
    assert record["index_vs_naive_speedup"] >= 5.0


# -- script entry point -------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for CI (100 sessions, 300 products)",
    )
    parser.add_argument("--sessions", type=int, default=None)
    parser.add_argument("--products", type=int, default=None)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_e16.json",
    )
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
    naive_sessions = min(NAIVE_SESSIONS, sessions)
    record = run_experiment(
        sessions=sessions, products=products, naive_sessions=naive_sessions
    )
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
