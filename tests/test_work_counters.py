"""Exact work counters: a function of (workload, seed), never of timing.

Wall time on a shared host cannot resolve small changes, so the
runtime's work counters are the evidence a performance change keeps
the same work.  Two in-process runs of one scenario with one seed must
count identically -- plan and kernel dispatch (``EvalCounters``),
steps, audit checks, and the SQLite store's commits and event rows --
and a fixed FRIENDLY run pins today's per-step values.
"""

import pytest

from repro.datalog.plan import clear_plan_cache, kernels_compiled
from repro.pods import SqliteStore
from repro.scenarios import run_scenario

#: The snapshot counters that depend only on the workload and seed.
EXACT = (
    "plans_compiled",
    "plan_cache_hits",
    "full_rule_evals",
    "delta_rule_evals",
    "delta_rules_skipped",
    "static_cache_hits",
    "kernel_hits",
    "replans_avoided",
    "steps_executed",
    "audited_steps",
    "audit_checks",
    "audit_violations",
)


#: (steps, kernels compiled, replans avoided) of the fixed FRIENDLY run.
PINNED_FRIENDLY = (192, 9, 928)


def counted_run(name, tmp_path, label, **knobs):
    """One run from cold plans; its exact counters and the store's."""
    # Plans (and their order/kernel memos) are process-wide: start
    # every run from none, as a fresh process would.
    clear_plan_cache()
    store = SqliteStore(tmp_path / f"{label}.sqlite")
    before = kernels_compiled()
    try:
        report = run_scenario(name, store=store, seed=5, **knobs)
        stats = store.stats()
    finally:
        store.close()
    counts = {key: report.metrics[key] for key in EXACT}
    counts["kernels_compiled"] = kernels_compiled() - before
    counts["store_commits"] = stats.commits
    counts["store_events"] = stats.events
    return counts, report


@pytest.mark.parametrize("name", ["commerce", "fraud-detection"])
def test_same_seed_same_counts(name, tmp_path):
    first, _ = counted_run(name, tmp_path, "first", sessions=24, steps=8)
    second, _ = counted_run(name, tmp_path, "second", sessions=24, steps=8)
    assert first == second
    assert first["steps_executed"] > 0
    assert first["store_events"] > first["steps_executed"]


def test_friendly_run_pins_per_step_dispatch(tmp_path):
    # The commerce scenario serves FRIENDLY: 7 output rules, all touching
    # per-step input, so every step re-joins every rule, and each join
    # is one (order, kernel) dispatch that hits or compiles.
    counts, report = counted_run(
        "commerce", tmp_path, "friendly", sessions=16, steps=12, audit=False
    )
    steps = counts["steps_executed"]
    assert steps == report.total_steps
    assert counts["full_rule_evals"] == 7 * steps
    assert counts["kernel_hits"] + counts["kernels_compiled"] == 7 * steps
    assert counts["plans_compiled"] == 1
    assert counts["delta_rule_evals"] == 0
    assert counts["static_cache_hits"] == 0
    assert (steps, counts["kernels_compiled"], counts["replans_avoided"]) == (
        PINNED_FRIENDLY
    )
