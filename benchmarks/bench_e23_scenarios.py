"""E23: the scenario matrix -- every workload x store.

Every throughput record since BENCH_e16 measured one traffic shape
(the commerce store).  E23 runs the whole scenario registry -- the
paper's store plus feed delivery, the auction protocol, the
data-exchange firewall, the compliant guarded store, and the
adversarial attack traffic -- through :func:`repro.scenarios.
run_scenario`, across session-store backends, each cell audited live
by the scenario's own ``PropertySpec`` list.

Two numbers are new in kind:

* ``audit_under_attack_*``: the adversarial scenario violates its spec
  on most steps, so the auditor's violation plans *match* constantly
  and every hit appends a finding with a replayable trace.  The ratio
  against the same traffic unaudited prices the worst-case audit, not
  the usual all-clean fast path; it is the median of ``ATTACK_PAIRS``
  back-to-back audited/unaudited pairs of alternating order.
* ``http_parity``: each scenario's open-loop traffic is also replayed
  through a process-level pod server via ``PodClient``, and the
  canonical log digests must match the in-process run byte for byte.

Run as a script to emit the ``BENCH_e23.json`` perf record::

    python benchmarks/bench_e23_scenarios.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import tempfile
from functools import partial
from pathlib import Path

from repro.pods import SqliteStore
from repro.scenarios import (
    list_scenarios,
    run_scenario,
    scenario_database,
    scenario_transducer,
)
from repro.server import PodClient, PodServer

SEED = 23
SESSIONS = 150
MEAN_STEPS = 6
STORES = ("memory", "sqlite")
#: Audit-under-attack pairs, and the least timed-loop seconds per side.
ATTACK_PAIRS = 5
ATTACK_SECONDS = 2.0

_REPO_ROOT = Path(__file__).resolve().parent.parent


def matrix_scenarios() -> list[str]:
    """The benchmark population: every standard-profile scenario.

    Slow-profile scenarios (``fraud-detection`` decides a BSR sentence
    per audited step) are excluded from the matrix and listed in the
    record so the exclusion is visible, not silent.
    """
    return [s.name for s in list_scenarios() if s.bench_profile == "standard"]


def excluded_scenarios() -> list[str]:
    return [s.name for s in list_scenarios() if s.bench_profile != "standard"]


def _store_for(kind: str, scratch: Path, tag: str):
    if kind == "memory":
        return None
    if kind == "sqlite":
        return SqliteStore(scratch / f"{tag}.sqlite")
    raise ValueError(f"unknown store kind {kind!r}")


def measure_cell(
    name: str,
    store_kind: str,
    sessions: int,
    steps: int,
    scratch: Path,
    audit: bool = True,
) -> dict:
    """One matrix cell: audited open-loop traffic, logs off (throughput)."""
    report = run_scenario(
        name,
        sessions=sessions,
        steps=steps,
        seed=SEED,
        store=_store_for(store_kind, scratch, f"{name}-{store_kind}"),
        audit=audit,
        keep_logs=False,
    )
    return {
        "scenario": name,
        "store": store_kind,
        "audited": audit,
        "sessions": report.sessions,
        "total_steps": report.total_steps,
        "elapsed_seconds": round(report.wall_seconds, 6),
        "steps_per_second": round(report.steps_per_second, 3),
        "audit_checks": report.audit_checks,
        "audit_violations": report.audit_violations,
    }


def measure_attack_ratio(
    sessions: int,
    steps: int,
    scratch: Path,
    pairs: int = ATTACK_PAIRS,
    min_seconds: float = ATTACK_SECONDS,
) -> dict:
    """Audited over unaudited steps/s of the adversarial memory cell.

    Each side of a pair reruns the cell until its timed loops add up to
    ``min_seconds``.  Even pairs run the audited side first, odd pairs
    last, so neither side always runs warm.
    """
    ratios = []
    for index in range(pairs):
        rate = {}
        for audit in (index % 2 == 0, index % 2 == 1):
            total, wall = 0, 0.0
            while not total or wall < min_seconds:
                cell = measure_cell(
                    "adversarial", "memory", sessions, steps, scratch, audit
                )
                total += cell["total_steps"]
                wall += cell["elapsed_seconds"]
            rate[audit] = total / wall
        ratios.append(rate[True] / rate[False])
    return {
        "min_seconds_per_side": min_seconds,
        "ratios": [round(ratio, 3) for ratio in ratios],
        "median_ratio": round(statistics.median(ratios), 3),
    }


def measure_http_parity(sessions: int, steps: int) -> dict:
    """Replay each scenario through a pod server; digests must match."""
    results = {}
    for name in matrix_scenarios():
        local = run_scenario(name, sessions=sessions, steps=steps, seed=SEED)
        with PodServer(
            partial(scenario_transducer, name),
            scenario_database(name, seed=SEED),
            workers=1,
        ) as server:
            client = PodClient(server.url, scenario_transducer(name))
            remote = run_scenario(
                name, service=client, sessions=sessions, steps=steps, seed=SEED
            )
        results[name] = bool(remote.log_digest == local.log_digest)
    return {
        "sessions": sessions,
        "mean_steps": steps,
        "digests_match": results,
        "all_match": all(results.values()),
    }


def run_experiment(
    sessions: int = SESSIONS,
    steps: int = MEAN_STEPS,
    stores: tuple[str, ...] = STORES,
    parity_sessions: int = 8,
) -> dict:
    names = matrix_scenarios()
    with tempfile.TemporaryDirectory(prefix="bench_e23_") as tmp:
        scratch = Path(tmp)
        matrix = [
            measure_cell(name, store, sessions, steps, scratch)
            for name in names
            for store in stores
        ]
        # The ratio isolates what the constantly-matching auditor costs.
        attack_pairs = measure_attack_ratio(sessions, steps, scratch)
    by_key = {
        (cell["scenario"], cell["store"]): cell for cell in matrix
    }
    headline = by_key[("commerce", "memory")]
    attack = by_key[("adversarial", "memory")]
    parity = measure_http_parity(parity_sessions, min(steps, 5))
    return {
        "experiment": "e23_scenarios",
        "workload": {
            "sessions": sessions,
            "mean_steps_per_session": steps,
            "arrival": "open-loop Poisson, exponential think times",
            "session_lengths": "log-normal (heavy-tailed)",
            "key_skew": "Zipf over catalogs/topics/items/peers",
            "seed": SEED,
        },
        "scenarios": names,
        "excluded_slow": excluded_scenarios(),
        "stores": list(stores),
        "matrix": matrix,
        "steps_per_second": headline["steps_per_second"],
        "headline": {"scenario": "commerce", "store": "memory"},
        "audit_under_attack_steps_per_second": attack["steps_per_second"],
        "audit_under_attack_violations": attack["audit_violations"],
        "audit_under_attack_ratio": attack_pairs["median_ratio"],
        "audit_under_attack": attack_pairs,
        "http_parity": parity,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "note": (
            "every cell drives the scenario's seeded open-loop schedule "
            "through submit_batch with the scenario's own OnlineAuditor "
            "attached (logs off); adversarial traffic violates its spec "
            "on most steps, so its ratio prices the auditor's worst "
            "case -- findings accumulating with replayable traces -- "
            "against the same traffic unaudited (median of back-to-back "
            "pairs of alternating order)"
        ),
    }


# -- pytest entry points ------------------------------------------------------


def test_e23_matrix_cell_roundtrip(tmp_path):
    """One small cell must produce a complete, audited measurement."""
    cell = measure_cell("feed-delivery", "sqlite", 8, 4, tmp_path)
    assert cell["total_steps"] > 0
    assert cell["steps_per_second"] > 0
    assert cell["audit_checks"] > 0
    assert cell["audit_violations"] == 0


def test_e23_matrix_covers_scenarios_and_stores(tmp_path):
    """The matrix shape: >= 4 genuinely new scenarios x >= 2 stores."""
    names = matrix_scenarios()
    assert {"feed-delivery", "auction", "data-exchange", "adversarial"} <= set(
        names
    )
    assert len(STORES) >= 2
    assert "fraud-detection" in excluded_scenarios()


def test_e23_audit_under_attack(tmp_path):
    """The adversarial cell must actually be under attack: violations on
    a large fraction of steps, and a computable audited/unaudited ratio."""
    audited = measure_cell("adversarial", "memory", 12, 5, tmp_path)
    unaudited = measure_cell(
        "adversarial", "memory", 12, 5, tmp_path, audit=False
    )
    assert audited["audit_violations"] > audited["total_steps"] * 0.3
    assert unaudited["audit_checks"] == 0
    ratio = audited["steps_per_second"] / unaudited["steps_per_second"]
    assert ratio > 0
    pairs = measure_attack_ratio(12, 5, tmp_path, pairs=2, min_seconds=0.0)
    assert len(pairs["ratios"]) == 2 and pairs["median_ratio"] > 0


def test_e23_http_parity_smoke():
    """Every standard scenario's traffic crosses the wire byte-identically."""
    parity = measure_http_parity(sessions=4, steps=4)
    assert parity["all_match"], parity["digests_match"]


def test_e23_smoke_benchmark(benchmark):
    """One tiny audited cell as a pytest-benchmark measurement."""

    def once():
        with tempfile.TemporaryDirectory() as tmp:
            return measure_cell("commerce", "memory", 10, 4, Path(tmp))

    cell = benchmark.pedantic(once, iterations=1, rounds=2)
    assert cell["steps_per_second"] > 0


# -- script entry point -------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small matrix for CI (24 sessions, 4 mean steps)",
    )
    parser.add_argument("--sessions", type=int, default=None)
    parser.add_argument(
        "--out",
        type=Path,
        default=_REPO_ROOT / "BENCH_e23.json",
    )
    args = parser.parse_args()
    sessions = (
        args.sessions
        if args.sessions is not None
        else (24 if args.smoke else SESSIONS)
    )
    if sessions < 1:
        parser.error("--sessions must be >= 1")
    if args.smoke:
        record = run_experiment(
            sessions=sessions, steps=4, parity_sessions=4
        )
    else:
        record = run_experiment(sessions=sessions)
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
