"""Throughput and latency counters for the pod runtime.

Pure bookkeeping: a service reports session creations, resumes,
completed steps, and per-step wall-clock durations; the metrics object
aggregates them into the counters the capacity benchmarks (E16/E17)
read.  All derived rates are computed against the service's total
elapsed time, so they are end-to-end numbers, not per-call averages.

:meth:`RuntimeMetrics.merged` folds the per-shard counters of a
:class:`~repro.pods.service.ShardedPodService` into one service-wide
view: counts add, latency extremes combine, and the elapsed clock spans
from the earliest shard start.

Accumulation is thread-safe: every ``record_*`` method updates its
counters under an internal lock, so caller threads submitting directly
never lose increments to read-modify-write races.  Reads
(:meth:`snapshot`, the derived rates, :meth:`merged`) are lock-free --
they read plain ints/floats, each of which is updated atomically under
the lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.datalog.plan.physical import kernels_compiled
from repro.relalg.interning import interned_constants

if TYPE_CHECKING:
    from repro.datalog.plan import EvalCounters


@dataclass
class RuntimeMetrics:
    """Aggregated counters of one pod service (or engine shim).

    The ``plans_*`` / ``*_rule_evals`` / ``*_skipped`` / ``*_hits``
    fields aggregate the per-session
    :class:`~repro.datalog.plan.physical.EvalCounters` the service
    collects around every submit: how many physical plans were compiled
    vs reused, and how much per-step work the incremental executor
    turned into delta joins, outright skips, or static-cache hits.
    ``kernel_hits`` / ``replans_avoided`` do the same for the hot-path
    machinery -- compiled rule kernels reused and join orders served
    from the per-rule memo (see :mod:`repro.datalog.plan.kernels`).
    How many kernels exist is not a per-service fact (the kernel memo
    lives on the process-wide shared plans), so ``kernels_compiled`` is
    a gauge read at :meth:`snapshot` time, like ``interned_constants``.
    """

    sessions_created: int = 0
    sessions_resumed: int = 0
    sessions_closed: int = 0
    sessions_evicted: int = 0
    sessions_rehydrated: int = 0
    steps_executed: int = 0
    step_seconds_total: float = 0.0
    step_seconds_min: float = field(default=float("inf"))
    step_seconds_max: float = 0.0
    plans_compiled: int = 0
    plan_cache_hits: int = 0
    full_rule_evals: int = 0
    delta_rule_evals: int = 0
    delta_rules_skipped: int = 0
    static_cache_hits: int = 0
    kernel_hits: int = 0
    replans_avoided: int = 0
    audited_steps: int = 0
    audit_checks: int = 0
    audit_violations: int = 0
    audit_bsr_decisions: int = 0
    started_at: float = field(default_factory=time.perf_counter)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_session(self) -> None:
        with self._lock:
            self.sessions_created += 1

    def record_resume(self) -> None:
        with self._lock:
            self.sessions_resumed += 1

    def record_close(self) -> None:
        with self._lock:
            self.sessions_closed += 1

    def record_eviction(self) -> None:
        """A resident session was evicted to the store (LRU cache)."""
        with self._lock:
            self.sessions_evicted += 1

    def record_rehydration(self) -> None:
        """An evicted session was restored on its next request."""
        with self._lock:
            self.sessions_rehydrated += 1

    def record_step(self, seconds: float) -> None:
        with self._lock:
            self.steps_executed += 1
            self.step_seconds_total += seconds
            if seconds < self.step_seconds_min:
                self.step_seconds_min = seconds
            if seconds > self.step_seconds_max:
                self.step_seconds_max = seconds

    def record_eval(self, counters: "EvalCounters") -> None:
        """Fold one session's plan/evaluation counter delta in."""
        with self._lock:
            self.plans_compiled += counters.plans_compiled
            self.plan_cache_hits += counters.plan_cache_hits
            self.full_rule_evals += counters.full_rule_evals
            self.delta_rule_evals += counters.delta_rule_evals
            self.delta_rules_skipped += counters.delta_rules_skipped
            self.static_cache_hits += counters.static_cache_hits
            self.kernel_hits += counters.kernel_hits
            self.replans_avoided += counters.replans_avoided

    def record_audit(self, outcome) -> None:
        """Fold one audited step's outcome in.

        ``outcome`` is an :class:`~repro.verify.api.auditor.AuditOutcome`
        (duck-typed to keep :mod:`repro.pods` import-free of the verify
        layer): spec checks, violations, and BSR decisions count into
        the audit counters, and the monitors' plan/evaluation work
        folds into the same ``plans_*`` / ``*_rule_evals`` counters as
        session stepping -- audit joins are ordinary plan executions.
        """
        with self._lock:
            self.audited_steps += 1
            self.audit_checks += outcome.checks
            self.audit_violations += len(outcome.findings)
            self.audit_bsr_decisions += outcome.bsr_decisions
        self.record_eval(outcome.eval_delta)

    # -- aggregation -----------------------------------------------------------

    @classmethod
    def merged(cls, parts: Iterable["RuntimeMetrics"]) -> "RuntimeMetrics":
        """One metrics object summarizing ``parts`` (e.g. all shards)."""
        parts = list(parts)
        total = cls()
        if parts:
            total.started_at = min(p.started_at for p in parts)
        for p in parts:
            total.sessions_created += p.sessions_created
            total.sessions_resumed += p.sessions_resumed
            total.sessions_closed += p.sessions_closed
            total.sessions_evicted += p.sessions_evicted
            total.sessions_rehydrated += p.sessions_rehydrated
            total.steps_executed += p.steps_executed
            total.step_seconds_total += p.step_seconds_total
            total.plans_compiled += p.plans_compiled
            total.plan_cache_hits += p.plan_cache_hits
            total.full_rule_evals += p.full_rule_evals
            total.delta_rule_evals += p.delta_rule_evals
            total.delta_rules_skipped += p.delta_rules_skipped
            total.static_cache_hits += p.static_cache_hits
            total.kernel_hits += p.kernel_hits
            total.replans_avoided += p.replans_avoided
            total.audited_steps += p.audited_steps
            total.audit_checks += p.audit_checks
            total.audit_violations += p.audit_violations
            total.audit_bsr_decisions += p.audit_bsr_decisions
            if p.step_seconds_min < total.step_seconds_min:
                total.step_seconds_min = p.step_seconds_min
            if p.step_seconds_max > total.step_seconds_max:
                total.step_seconds_max = p.step_seconds_max
        return total

    # -- derived rates ---------------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self.started_at

    def steps_per_second(self) -> float:
        elapsed = self.elapsed()
        return self.steps_executed / elapsed if elapsed > 0 else 0.0

    def sessions_per_second(self) -> float:
        elapsed = self.elapsed()
        return self.sessions_created / elapsed if elapsed > 0 else 0.0

    def mean_step_latency(self) -> float:
        if not self.steps_executed:
            return 0.0
        return self.step_seconds_total / self.steps_executed

    def snapshot(self) -> dict:
        """A JSON-ready, deterministic-key summary of the counters.

        ``kernels_compiled`` and ``interned_constants`` are process-wide
        gauges (the rule kernels compiled so far, the live size of the
        storage layer's constant pool), read at snapshot time rather
        than accumulated; merges report the largest observed value (see
        :func:`merge_snapshots` -- summing a gauge would double-count
        whenever two snapshots come from the same process).
        """
        return {
            "sessions_created": self.sessions_created,
            "sessions_resumed": self.sessions_resumed,
            "sessions_closed": self.sessions_closed,
            "sessions_evicted": self.sessions_evicted,
            "sessions_rehydrated": self.sessions_rehydrated,
            "steps_executed": self.steps_executed,
            "step_seconds_total": round(self.step_seconds_total, 9),
            "elapsed_seconds": round(self.elapsed(), 6),
            "steps_per_second": round(self.steps_per_second(), 3),
            "sessions_per_second": round(self.sessions_per_second(), 3),
            "mean_step_latency_seconds": round(self.mean_step_latency(), 9),
            "min_step_latency_seconds": (
                round(self.step_seconds_min, 9)
                if self.steps_executed
                else 0.0
            ),
            "max_step_latency_seconds": round(self.step_seconds_max, 9),
            "plans_compiled": self.plans_compiled,
            "plan_cache_hits": self.plan_cache_hits,
            "full_rule_evals": self.full_rule_evals,
            "delta_rule_evals": self.delta_rule_evals,
            "delta_rules_skipped": self.delta_rules_skipped,
            "static_cache_hits": self.static_cache_hits,
            "kernels_compiled": kernels_compiled(),
            "kernel_hits": self.kernel_hits,
            "replans_avoided": self.replans_avoided,
            "interned_constants": interned_constants(),
            "audited_steps": self.audited_steps,
            "audit_checks": self.audit_checks,
            "audit_violations": self.audit_violations,
            "audit_bsr_decisions": self.audit_bsr_decisions,
        }


#: snapshot() keys that accumulate by summation when merging.
_SUMMED_KEYS = (
    "sessions_created",
    "sessions_resumed",
    "sessions_closed",
    "sessions_evicted",
    "sessions_rehydrated",
    "steps_executed",
    "step_seconds_total",
    "plans_compiled",
    "plan_cache_hits",
    "full_rule_evals",
    "delta_rule_evals",
    "delta_rules_skipped",
    "static_cache_hits",
    "kernel_hits",
    "replans_avoided",
    "audited_steps",
    "audit_checks",
    "audit_violations",
    "audit_bsr_decisions",
)

#: snapshot() keys that are point-in-time gauges: merging takes the max
#: (summing would double-count whenever two snapshots observe the same
#: process -- successive snapshots, or threads of one worker).
_GAUGE_KEYS = ("kernels_compiled", "interned_constants")


def merge_snapshots(snapshots) -> dict:
    """Fold per-worker :meth:`RuntimeMetrics.snapshot` dicts into one.

    The process-level pod server's counterpart of
    :meth:`RuntimeMetrics.merged`: worker processes can only ship the
    JSON-ready snapshot dict across the wire, not the live metrics
    object, so the front-end merges at the dict level -- counts add,
    gauges take their max, latency extremes combine, the elapsed clock
    is the widest worker's (workers start together, so wall-clock rates
    stay end-to-end), and the derived rates are recomputed from the
    merged totals.  Snapshot keys a worker does not report (older wire
    versions) count as zero.
    """
    snapshots = list(snapshots)
    merged: dict = {key: 0 for key in _SUMMED_KEYS}
    for snapshot in snapshots:
        for key in _SUMMED_KEYS:
            merged[key] += snapshot.get(key, 0)
    for key in _GAUGE_KEYS:
        merged[key] = max((s.get(key, 0) for s in snapshots), default=0)
    merged["step_seconds_total"] = round(merged["step_seconds_total"], 9)
    elapsed = max(
        (s.get("elapsed_seconds", 0.0) for s in snapshots), default=0.0
    )
    steps = merged["steps_executed"]
    mins = [
        s["min_step_latency_seconds"]
        for s in snapshots
        if s.get("steps_executed") and "min_step_latency_seconds" in s
    ]
    merged["elapsed_seconds"] = elapsed
    merged["steps_per_second"] = (
        round(steps / elapsed, 3) if elapsed > 0 else 0.0
    )
    merged["sessions_per_second"] = (
        round(merged["sessions_created"] / elapsed, 3) if elapsed > 0 else 0.0
    )
    merged["mean_step_latency_seconds"] = (
        round(merged["step_seconds_total"] / steps, 9) if steps else 0.0
    )
    merged["min_step_latency_seconds"] = min(mins) if mins else 0.0
    merged["max_step_latency_seconds"] = max(
        (s.get("max_step_latency_seconds", 0.0) for s in snapshots),
        default=0.0,
    )
    return merged
