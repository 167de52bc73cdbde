"""E22: process-level pod server -- HTTP front-end vs in-process runtime.

Drives the store-traffic shape (many independent customer sessions over
one shared catalog) through a :class:`~repro.server.frontend.PodServer`
-- one worker *process* per shard behind a threaded HTTP front-end --
via :class:`~repro.server.client.PodClient`, and compares against the
in-process :class:`~repro.pods.service.PodService` running the exact
same request stream.  The record answers two questions:

* what does the process boundary cost?  Every request now pays JSON
  encode/decode twice plus a localhost HTTP round-trip plus a
  multiprocessing queue hop, so the ``http_vs_in_process_ratio`` is the
  honest price of crash isolation and per-shard address spaces;
* how does throughput scale with ``workers``?  Worker processes are
  the server's only parallelism: on a multi-core box extra workers buy
  real parallelism (separate interpreters, no shared GIL); on a
  single-core box the grid should stay flat, and the record stores
  ``cpu_count`` next to the numbers so a reader can tell which regime
  produced them.

Run as a script to emit the ``BENCH_e22.json`` perf record::

    python benchmarks/bench_e22_pod_server.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.commerce.catalog import Catalog, CatalogGenerator
from repro.commerce.models import build_friendly
from repro.pods import PodService, StepRequest
from repro.server import PodClient, PodServer

SEED = 11
PRODUCTS = 100
SESSIONS = 400
STEPS_PER_SESSION = 6
BATCH_SIZE = 64
QUEUE_DEPTH = 128
WORKERS_GRID = (1, 2, 4)

_REPO_ROOT = Path(__file__).resolve().parent.parent


def session_script(catalog: Catalog, index: int, steps: int) -> list[dict]:
    """Deterministic shopping script: order product k, pay it, repeat."""
    script: list[dict] = []
    for k in range(steps):
        product = catalog.products[(index + k // 2) % len(catalog.products)]
        if k % 2 == 0:
            script.append({"order": {(product,)}})
        else:
            script.append({"pay": {(product, catalog.priced(product))}})
    return script


def interleaved_requests(
    catalog: Catalog, sessions: int, steps: int
) -> list[StepRequest]:
    """The round-robin request stream both runtimes execute.

    Round-robin across sessions is the store-traffic shape: no session
    issues two consecutive requests, so per-shard batches stay mixed.
    """
    scripts = [session_script(catalog, n, steps) for n in range(sessions)]
    return [
        StepRequest(f"customer-{n:06d}", scripts[n][k])
        for k in range(steps)
        for n in range(sessions)
    ]


def chunked(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def measure_server(
    workers: int,
    sessions: int,
    steps: int,
    catalog: Catalog,
    batch_size: int = BATCH_SIZE,
) -> dict:
    """One grid point: drive the stream through a live pod server.

    The stream travels as ``batch_size``-request batches so the
    measurement includes repeated HTTP round-trips (one giant batch
    would amortise the front-end away and measure only the workers).
    """
    requests = interleaved_requests(catalog, sessions, steps)
    batches = chunked(requests, batch_size)
    with PodServer(
        build_friendly,
        catalog.as_database(),
        workers=workers,
        queue_depth=QUEUE_DEPTH,
        keep_logs=False,
    ) as server, PodClient(server.url, build_friendly()) as client:
        for n in range(sessions):
            client.create_session(f"customer-{n:06d}")
        started = time.perf_counter()
        for batch in batches:
            client.submit_batch(batch)
        elapsed = time.perf_counter() - started
        payload = client.metrics_payload()
    total_steps = sessions * steps
    assert payload["pods"]["steps_executed"] == total_steps
    return {
        "workers": workers,
        "sessions": sessions,
        "steps_per_session": steps,
        "total_steps": total_steps,
        "http_batches": len(batches),
        "batch_size": batch_size,
        "elapsed_seconds": round(elapsed, 6),
        "steps_per_second": round(total_steps / elapsed, 3),
        "worker_restarts": payload["server"]["restarts"],
    }


def measure_in_process(
    sessions: int,
    steps: int,
    catalog: Catalog,
    batch_size: int = BATCH_SIZE,
) -> dict:
    """The no-HTTP baseline: same stream, same batch shape, one engine."""
    requests = interleaved_requests(catalog, sessions, steps)
    batches = chunked(requests, batch_size)
    service = PodService(
        build_friendly(), catalog.as_database(), keep_logs=False
    )
    for n in range(sessions):
        service.create_session(f"customer-{n:06d}")
    started = time.perf_counter()
    for batch in batches:
        service.submit_batch(batch)
    elapsed = time.perf_counter() - started
    total_steps = sessions * steps
    assert service.metrics.steps_executed == total_steps
    return {
        "sessions": sessions,
        "steps_per_session": steps,
        "total_steps": total_steps,
        "batch_size": batch_size,
        "elapsed_seconds": round(elapsed, 6),
        "steps_per_second": round(total_steps / elapsed, 3),
    }


def run_experiment(
    sessions: int = SESSIONS,
    steps: int = STEPS_PER_SESSION,
    workers_grid: tuple[int, ...] = WORKERS_GRID,
    batch_size: int = BATCH_SIZE,
) -> dict:
    """The in-process baseline plus one server run per worker count."""
    catalog = CatalogGenerator(seed=SEED).generate(PRODUCTS)
    in_process = measure_in_process(sessions, steps, catalog, batch_size)
    grid = [
        measure_server(w, sessions, steps, catalog, batch_size)
        for w in workers_grid
    ]
    headline = max(grid, key=lambda point: point["steps_per_second"])
    ratio = headline["steps_per_second"] / in_process["steps_per_second"]
    gil_probe = getattr(sys, "_is_gil_enabled", None)
    return {
        "experiment": "e22_pod_server",
        "workload": {
            "transducer": "friendly",
            "catalog_products": PRODUCTS,
            "sessions": sessions,
            "steps_per_session": steps,
            "batch_size": batch_size,
            "order": "round-robin across sessions",
            "seed": SEED,
        },
        "in_process": in_process,
        "grid": grid,
        "headline": {"workers": headline["workers"]},
        "steps_per_second": headline["steps_per_second"],
        "http_vs_in_process_ratio": round(ratio, 3),
        "python": platform.python_version(),
        "gil_enabled": bool(gil_probe()) if gil_probe else True,
        "cpu_count": os.cpu_count(),
        "note": (
            "each grid point starts a fresh server (spawn workers, "
            "temp store) and drives the identical round-robin stream "
            "in fixed-size batches; the ratio prices JSON + HTTP + "
            "queue hops against a direct in-process call, and on a "
            "single-core box the grid is expected to be flat"
        ),
    }


# -- pytest entry points ------------------------------------------------------


def test_e22_server_matches_in_process():
    """Acceptance: the server run is observationally identical to the
    in-process run -- same handles, step counts, states, and logs."""
    catalog = CatalogGenerator(seed=SEED).generate(40)
    sessions, steps = 8, 4
    requests = interleaved_requests(catalog, sessions, steps)
    serial = PodService(build_friendly(), catalog.as_database())
    for n in range(sessions):
        serial.create_session(f"customer-{n:06d}")
    serial_results = serial.submit_batch(requests)
    with PodServer(
        build_friendly, catalog.as_database(), workers=2
    ) as server, PodClient(server.url, build_friendly()) as client:
        for n in range(sessions):
            client.create_session(f"customer-{n:06d}")
        server_results = client.submit_batch(requests)
        assert [r.output for r in server_results] == [
            r.output for r in serial_results
        ]
        assert [r.step for r in server_results] == [
            r.step for r in serial_results
        ]
        for n in range(sessions):
            ours = client.session(f"customer-{n:06d}")
            theirs = serial.session(f"customer-{n:06d}")
            assert ours.steps == theirs.steps
            assert ours.state == theirs.state
            assert ours.log().entries == theirs.log().entries


def test_e22_measurement_roundtrip():
    """One tiny grid point must produce a complete measurement."""
    catalog = CatalogGenerator(seed=SEED).generate(30)
    point = measure_server(2, sessions=10, steps=2, catalog=catalog,
                           batch_size=8)
    assert point["total_steps"] == 20
    assert point["steps_per_second"] > 0
    assert point["http_batches"] == 3
    assert point["worker_restarts"] == 0


def test_e22_server_throughput_smoke(benchmark):
    """Small server throughput measurement (CI smoke size)."""
    catalog = CatalogGenerator(seed=SEED).generate(30)

    def once():
        return measure_server(1, sessions=12, steps=2, catalog=catalog,
                              batch_size=8)

    point = benchmark.pedantic(once, iterations=1, rounds=2)
    assert point["steps_per_second"] > 0


def test_e22_http_overhead_is_bounded():
    """The process boundary must not collapse throughput.

    HTTP + JSON + queue hops are real overhead, so the guard is loose:
    it rejects an accidentally serial-per-request or reconnect-per-step
    front-end, not the honest cost of the wire.
    """
    catalog = CatalogGenerator(seed=SEED).generate(50)
    base = measure_in_process(60, 4, catalog, batch_size=32)
    served = measure_server(2, sessions=60, steps=4, catalog=catalog,
                            batch_size=32)
    ratio = served["steps_per_second"] / base["steps_per_second"]
    print(
        f"\nE22: in-process {base['steps_per_second']:.0f} steps/s, "
        f"server(2 workers) {served['steps_per_second']:.0f} steps/s, "
        f"ratio {ratio:.3f}"
    )
    assert served["worker_restarts"] == 0
    assert ratio >= 0.02


# -- script entry point -------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for CI (80 sessions, 1 and 2 workers)",
    )
    parser.add_argument("--sessions", type=int, default=None)
    parser.add_argument(
        "--out",
        type=Path,
        default=_REPO_ROOT / "BENCH_e22.json",
    )
    args = parser.parse_args()
    sessions = (
        args.sessions
        if args.sessions is not None
        else (80 if args.smoke else SESSIONS)
    )
    if sessions < 1:
        parser.error("--sessions must be >= 1")
    if args.smoke:
        record = run_experiment(
            sessions=sessions,
            steps=4,
            workers_grid=(1, 2),
            batch_size=32,
        )
    else:
        record = run_experiment(sessions=sessions)
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
