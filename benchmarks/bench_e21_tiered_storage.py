"""E21: tiered session storage -- bounded residency vs all-resident.

Drives the store-traffic shape (many independent customer sessions over
one shared catalog) through a :class:`~repro.pods.service.PodService`
whose hot-session cache is bounded by ``max_resident_sessions=``: idle
sessions are evicted to the session store (JSONL directory or the
single-file SQLite backend) and transparently rehydrated on their next
request.  The record answers two questions:

* what does bounding residency cost in steps/s?  The headline run
  creates 100k sessions while keeping at most 1k resident and must stay
  within 0.8x of the all-resident baseline -- eviction is free by
  construction (every step is written through before its result
  returns, so evicting is just dropping the in-memory object) and only
  the rare rehydration pays a store read;
* what does it buy in memory?  Every configuration runs in its own
  subprocess so ``ru_maxrss`` is a clean per-configuration peak, and
  the record stores it next to the throughput number.

Run as a script to emit the ``BENCH_e21.json`` perf record::

    python benchmarks/bench_e21_tiered_storage.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.commerce.catalog import Catalog, CatalogGenerator
from repro.commerce.models import build_friendly
from repro.pods import JsonlDirectoryStore, PodService, SqliteStore, StepRequest

SEED = 11
PRODUCTS = 200
STEPS_PER_SESSION = 2
FULL_SESSIONS = 100_000
RESIDENT_LIMIT = 1_000
REVISITS = 1_000
SWEEP_SESSIONS = (2_000, 10_000)
SWEEP_RESIDENTS = (0, 1_000, 100)
BACKENDS = ("jsonl", "sqlite")

_REPO_ROOT = Path(__file__).resolve().parent.parent


def session_script(catalog: Catalog, index: int, steps: int) -> list[dict]:
    """A deterministic shopping script: order product k, pay it, repeat.

    Cheap to generate for 100k sessions (no per-session RNG) while still
    exercising the order/pay/deliver join pipeline every step.
    """
    script: list[dict] = []
    for k in range(steps):
        product = catalog.products[(index + k // 2) % len(catalog.products)]
        if k % 2 == 0:
            script.append({"order": {(product,)}})
        else:
            script.append({"pay": {(product, catalog.priced(product))}})
    return script


def make_store(backend: str, scratch: Path):
    if backend == "jsonl":
        return JsonlDirectoryStore(scratch / "pods")
    if backend == "sqlite":
        return SqliteStore(scratch / "pods.sqlite")
    raise ValueError(f"unknown backend {backend!r}")


def measure_tier(
    backend: str,
    sessions: int,
    products: int,
    steps: int,
    max_resident: int,
    revisits: int,
    scratch: Path,
) -> dict:
    """Create+step ``sessions`` pods sequentially, then revisit a spread.

    Each session's script is one ``run_session`` call, so the SQLite
    store commits once per session rather than once per step.

    ``max_resident=0`` means explicitly unlimited (the all-resident
    baseline, immune to ``REPRO_MAX_RESIDENT`` in the environment).
    The sequential shape is the tiered store's sweet spot -- each
    session is hot while it is being stepped -- and the revisit phase
    then forces real rehydrations of long-evicted sessions.
    """
    transducer = build_friendly()
    catalog = CatalogGenerator(seed=1).generate(products)
    service = PodService(
        transducer,
        catalog.as_database(),
        store=make_store(backend, scratch),
        max_resident_sessions=max_resident,
        keep_logs=False,
    )
    revisits = min(revisits, sessions)
    stride = max(sessions // revisits, 1) if revisits else 1
    started = time.perf_counter()
    for n in range(sessions):
        handle = service.create_session(f"customer-{n:06d}")
        service.run_session(handle, session_script(catalog, n, steps))
    for r in range(revisits):
        n = (r * stride) % sessions
        product = catalog.products[(n + steps) % len(catalog.products)]
        service.submit(
            StepRequest(f"customer-{n:06d}", {"order": {(product,)}})
        )
    elapsed = time.perf_counter() - started
    counters = service.metrics.snapshot()
    stats = service.store.stats()
    total_steps = sessions * steps + revisits
    return {
        "backend": backend,
        "sessions": sessions,
        "steps_per_session": steps,
        "revisits": revisits,
        "max_resident": max_resident,
        "total_steps": total_steps,
        "elapsed_seconds": round(elapsed, 6),
        "steps_per_second": round(total_steps / elapsed, 3),
        "resident_sessions": len(service.resident_session_ids()),
        "evictions": counters["sessions_evicted"],
        "rehydrations": counters["sessions_rehydrated"],
        "store_sessions": stats.sessions,
        "store_events": stats.events,
        "store_bytes_on_disk": stats.bytes_on_disk,
        "ru_maxrss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
    }


def measure_in_subprocess(config: dict) -> dict:
    """Run one configuration in a fresh interpreter.

    ``ru_maxrss`` is a process-lifetime high-water mark, so sharing one
    interpreter would let the largest configuration mask every other's
    peak; a subprocess per configuration keeps the RSS numbers honest.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    env.pop("REPRO_MAX_RESIDENT", None)
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--worker", json.dumps(config)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def run_worker(config: dict) -> None:
    """``--worker`` entry point: measure one configuration, print JSON."""
    with tempfile.TemporaryDirectory() as scratch:
        record = measure_tier(
            backend=config["backend"],
            sessions=config["sessions"],
            products=config.get("products", PRODUCTS),
            steps=config.get("steps", STEPS_PER_SESSION),
            max_resident=config["max_resident"],
            revisits=config.get("revisits", REVISITS),
            scratch=Path(scratch),
        )
    print(json.dumps(record, sort_keys=True))


def run_experiment(
    sessions: int = FULL_SESSIONS,
    resident_limit: int = RESIDENT_LIMIT,
    sweep_sessions: tuple[int, ...] = SWEEP_SESSIONS,
    sweep_residents: tuple[int, ...] = SWEEP_RESIDENTS,
    compare_sessions: int = 2_000,
) -> dict:
    """The headline bounded-vs-all-resident pair, the residency sweep,
    and the jsonl-vs-sqlite backend comparison (one subprocess each)."""
    revisits = min(REVISITS, sessions)
    headline = {
        name: measure_in_subprocess(
            {
                "backend": "sqlite",
                "sessions": sessions,
                "max_resident": limit,
                "revisits": revisits,
            }
        )
        for name, limit in (
            ("all_resident", 0),
            ("bounded", resident_limit),
        )
    }
    ratio = (
        headline["bounded"]["steps_per_second"]
        / headline["all_resident"]["steps_per_second"]
    )
    sweep = [
        measure_in_subprocess(
            {
                "backend": "sqlite",
                "sessions": total,
                "max_resident": min(resident, total),
                "revisits": min(REVISITS, total),
            }
        )
        for total in sweep_sessions
        for resident in sweep_residents
    ]
    backends = {
        backend: measure_in_subprocess(
            {
                "backend": backend,
                "sessions": compare_sessions,
                "max_resident": min(resident_limit, compare_sessions // 2),
                "revisits": min(REVISITS, compare_sessions),
            }
        )
        for backend in BACKENDS
    }
    gil_probe = getattr(sys, "_is_gil_enabled", None)
    return {
        "experiment": "e21_tiered_storage",
        "workload": {
            "transducer": "friendly",
            "catalog_products": PRODUCTS,
            "sessions": sessions,
            "steps_per_session": STEPS_PER_SESSION,
            "revisits": revisits,
            "store": "sqlite (durability=step)",
            "seed": SEED,
        },
        "headline": headline,
        "steps_per_second": headline["bounded"]["steps_per_second"],
        "bounded_vs_all_resident_ratio": round(ratio, 3),
        "rss_saved_mb": round(
            headline["all_resident"]["ru_maxrss_mb"]
            - headline["bounded"]["ru_maxrss_mb"],
            1,
        ),
        "resident_sweep": sweep,
        "backends": backends,
        "python": platform.python_version(),
        "gil_enabled": bool(gil_probe()) if gil_probe else True,
        "cpu_count": os.cpu_count(),
        "note": (
            "every configuration runs in its own subprocess so ru_maxrss "
            "is a per-configuration peak; logs and snapshots are "
            "byte-identical at every residency bound (write-through per "
            "step), so the ratio measures wall-clock only"
        ),
    }


# -- pytest entry points ------------------------------------------------------


def test_e21_eviction_preserves_stored_bytes(tmp_path):
    """Acceptance: a max_resident=2 run leaves byte-identical JSONL
    session files to an all-resident run of the same scripts."""
    transducer = build_friendly()
    catalog = CatalogGenerator(seed=1).generate(50)

    def run(limit: int, root: Path) -> PodService:
        service = PodService(
            transducer,
            catalog.as_database(),
            store=JsonlDirectoryStore(root),
            max_resident_sessions=limit,
        )
        for n in range(8):
            handle = service.create_session(f"customer-{n:06d}")
            for inputs in session_script(catalog, n, 4):
                service.submit(StepRequest(handle, inputs))
        return service

    bounded = run(2, tmp_path / "bounded")
    unlimited = run(0, tmp_path / "unlimited")
    assert bounded.metrics.sessions_evicted > 0
    assert unlimited.metrics.sessions_evicted == 0
    for n in range(8):
        session_id = f"customer-{n:06d}"
        assert (
            bounded.store.path_of(session_id).read_bytes()
            == unlimited.store.path_of(session_id).read_bytes()
        )


def test_e21_worker_subprocess_roundtrip():
    """The subprocess worker path must produce a complete measurement."""
    record = measure_in_subprocess(
        {"backend": "sqlite", "sessions": 12, "max_resident": 3,
         "revisits": 6, "products": 40}
    )
    assert record["total_steps"] == 12 * STEPS_PER_SESSION + 6
    assert record["steps_per_second"] > 0
    assert record["resident_sessions"] == 3
    assert record["evictions"] > 0
    assert record["rehydrations"] > 0
    assert record["store_sessions"] == 12
    assert record["ru_maxrss_mb"] > 0
    assert record["store_bytes_on_disk"] > 0


def test_e21_bounded_residency_throughput_smoke(benchmark, tmp_path):
    """Small bounded-residency throughput measurement (CI smoke size)."""
    runs = iter(range(100))

    def once():
        scratch = tmp_path / f"run-{next(runs)}"
        scratch.mkdir()
        return measure_tier(
            "sqlite", sessions=60, products=50, steps=2,
            max_resident=10, revisits=20, scratch=scratch,
        )

    record = benchmark.pedantic(once, iterations=1, rounds=3)
    assert record["steps_per_second"] > 0
    assert record["evictions"] > 0
    assert record["rehydrations"] > 0


def test_e21_bounded_residency_keeps_throughput():
    """The bound must not collapse throughput on the sequential shape.

    Eviction is a dict pop (state already written through); only the
    ``revisits`` rehydrations pay a store read.  The guard rejects an
    accidentally quadratic or rehydrate-per-step cache, not noise.
    """
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        base = measure_tier(
            "sqlite", 300, 100, 2, max_resident=0, revisits=100,
            scratch=Path(a),
        )
        bounded = measure_tier(
            "sqlite", 300, 100, 2, max_resident=30, revisits=100,
            scratch=Path(b),
        )
    ratio = bounded["steps_per_second"] / base["steps_per_second"]
    print(
        f"\nE21: all-resident {base['steps_per_second']:.0f} steps/s, "
        f"bounded(30) {bounded['steps_per_second']:.0f} steps/s, "
        f"ratio {ratio:.2f}"
    )
    assert bounded["rehydrations"] >= 100
    assert ratio >= 0.5


# -- script entry point -------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload for CI (2k sessions, 50 resident)",
    )
    parser.add_argument("--sessions", type=int, default=None)
    parser.add_argument("--resident", type=int, default=None)
    parser.add_argument(
        "--worker",
        type=str,
        default=None,
        help="internal: measure one JSON-encoded configuration and exit",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=_REPO_ROOT / "BENCH_e21.json",
    )
    args = parser.parse_args()
    if args.worker is not None:
        run_worker(json.loads(args.worker))
        return
    sessions = (
        args.sessions
        if args.sessions is not None
        else (2_000 if args.smoke else FULL_SESSIONS)
    )
    resident = (
        args.resident
        if args.resident is not None
        else (50 if args.smoke else RESIDENT_LIMIT)
    )
    if sessions < 1:
        parser.error("--sessions must be >= 1")
    if not 0 < resident <= sessions:
        parser.error("--resident must be in [1, --sessions]")
    if args.smoke:
        record = run_experiment(
            sessions=sessions,
            resident_limit=resident,
            sweep_sessions=(400,),
            sweep_residents=(0, 50),
            compare_sessions=300,
        )
    else:
        record = run_experiment(sessions=sessions, resident_limit=resident)
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
