"""E17: sharded pod service vs single engine on the E16 workload.

Routes the E16 store-traffic workload (many independent customer
sessions over one shared catalog) through a
:class:`~repro.pods.service.ShardedPodService` and compares it against
the single-engine :class:`~repro.pods.service.PodService` baseline.
Within one process sharding is pure routing -- the point of the record
is that the hash-routed path preserves single-engine throughput (ratio
~1.0) and per-session outputs exactly, so splitting the shards across
real processes is deployment, not redesign.

Run as a script to emit the ``BENCH_e17.json`` perf record::

    python benchmarks/bench_e17_sharded_throughput.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
from pathlib import Path

from repro.commerce.catalog import CatalogGenerator
from repro.commerce.models import build_friendly
from repro.commerce.workloads import SessionGenerator
from repro.pods import PodService, ShardedPodService

from bench_e16_runtime_throughput import SEED, drive_customers

PRODUCTS = 1000
STEPS_PER_SESSION = 8
FULL_SESSIONS = 1000
SHARDS = 4


def _measure(sessions: int, products: int, steps: int, shards: int) -> dict:
    """Drive the E16 traffic through ``shards`` shards (a plain
    :class:`PodService` for 1); return the metrics snapshot."""
    transducer = build_friendly()
    catalog = CatalogGenerator(seed=1).generate(products)
    if shards == 1:
        service = PodService(transducer, catalog.as_database(), keep_logs=False)
    else:
        service = ShardedPodService(
            transducer, catalog.as_database(), shards=shards, keep_logs=False
        )
    drive_customers(service, catalog, sessions, steps)
    metrics = service.metrics.snapshot()
    assert metrics["steps_executed"] == sessions * steps
    return metrics


def run_experiment(
    sessions: int = FULL_SESSIONS,
    products: int = PRODUCTS,
    steps: int = STEPS_PER_SESSION,
    shards: int = SHARDS,
) -> dict:
    """Measure single-engine and sharded runs; return the JSON record."""
    single = _measure(sessions, products, steps, shards=1)
    sharded = _measure(sessions, products, steps, shards=shards)
    ratio = sharded["steps_per_second"] / single["steps_per_second"]
    return {
        "experiment": "e17_sharded_throughput",
        "workload": {
            "transducer": "friendly",
            "catalog_products": products,
            "sessions": sessions,
            "steps_per_session": steps,
            "shards": shards,
            "seed": SEED,
        },
        "single_engine": single,
        "sharded": sharded,
        "steps_per_second": sharded["steps_per_second"],
        "sessions_per_second": sharded["sessions_per_second"],
        "sharded_vs_single_ratio": round(ratio, 3),
        "python": platform.python_version(),
    }


# -- pytest entry points ------------------------------------------------------


def test_e17_sharded_matches_single_engine():
    """Acceptance: 4 shards produce the E16 workload's exact outputs."""
    transducer = build_friendly()
    catalog = CatalogGenerator(seed=1).generate(100)
    scripts = {
        f"customer-{n:04d}": SessionGenerator(
            catalog, seed=SEED * 1_000_003 + n, supports_pending_bills=True
        ).session(6)
        for n in range(16)
    }

    single = PodService(transducer, catalog.as_database())
    sharded = ShardedPodService(transducer, catalog.as_database(), shards=4)
    for service in (single, sharded):
        for session_id in scripts:
            service.create_session(session_id)
        service.drive(scripts, round_robin=True)

    used_shards = set()
    for session_id in scripts:
        assert (
            list(sharded.session(session_id).log().entries)
            == list(single.session(session_id).log().entries)
        )
        used_shards.add(sharded.shard_for(session_id))
    assert len(used_shards) > 1, "workload should exercise several shards"
    assert sharded.metrics.steps_executed == single.metrics.steps_executed


def test_e17_throughput_smoke(benchmark):
    """Small sharded throughput measurement (CI smoke size)."""
    metrics = benchmark.pedantic(
        _measure,
        args=(40, 300, 6, SHARDS),
        iterations=1,
        rounds=3,
    )
    assert metrics["steps_per_second"] > 0


def test_e17_sharding_preserves_throughput():
    """Routing overhead stays bounded: sharded vs single-engine.

    The expected ratio is ~0.92 in-process, but this compares two
    near-equal wall-clock timings on shared CI runners, so the
    assertion only guards against a collapse (an accidentally
    quadratic routing path), not against ordinary runner noise.
    """
    record = run_experiment(sessions=200, products=300, steps=6)
    print(
        f"\nE17: single {record['single_engine']['steps_per_second']:.0f} "
        f"steps/s, sharded {record['sharded']['steps_per_second']:.0f} "
        f"steps/s, ratio {record['sharded_vs_single_ratio']:.2f}"
    )
    assert record["sharded_vs_single_ratio"] >= 0.3


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
    parser.add_argument("--shards", type=int, default=SHARDS)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_e17.json",
    )
    args = parser.parse_args()
    sessions = (
        args.sessions
        if args.sessions is not None
        else (100 if args.smoke else FULL_SESSIONS)
    )
    products = (
        args.products
        if args.products is not None
        else (300 if args.smoke else PRODUCTS)
    )
    if sessions < 1:
        parser.error("--sessions must be >= 1")
    if products < 1:
        parser.error("--products must be >= 1")
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    record = run_experiment(
        sessions=sessions, products=products, shards=args.shards
    )
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
