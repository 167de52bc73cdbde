"""Concurrent submit_batch: equivalence with serial execution.

The tentpole guarantee of the concurrency layer is *observational
transparency*: ``submit_batch(requests, concurrency=N)`` produces, for
every session, exactly the results, logs, final states, and persisted
snapshots of serial execution -- for random interleaved multi-session
workloads (hypothesis), through a JSONL-store restart, and under both
non-strict and strict online audits.  Strict audits stopping a batch
midway attach the completed results to the raised
:class:`~repro.errors.AuditViolation` with per-session prefix ordering
guaranteed under both execution modes.
"""

import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commerce.catalog import Catalog, CatalogGenerator
from repro.commerce.models import (
    FIGURE1_INPUTS,
    build_buggy_store,
    build_friendly,
    build_short,
    default_database,
)
from repro.commerce.workloads import SessionGenerator
from repro.errors import AuditViolation, SessionError, ShardError
from repro.pods import (
    CONCURRENCY_ENV,
    PodService,
    SessionHandle,
    ShardedPodService,
    StepRequest,
    batch_concurrency,
)
from repro.verify.api import LogValidity, OnlineAuditor

CATALOG = CatalogGenerator(seed=11).generate(20)
# The Figure 1 catalog (matches default_database()): the audited
# variants run the per-step BSR-backed LogValidity monitor, whose cost
# grows with the domain, so they script against the tiny catalog.
FIGURE1_CATALOG = Catalog(
    ("time", "newsweek", "le_monde"),
    {"time": 55, "newsweek": 45, "le_monde": 350},
    frozenset(("time", "newsweek", "le_monde")),
)


def scripts_for(counts, seed, catalog=CATALOG, pending_bills=True):
    """One seeded shopping script per session, lengths from ``counts``.

    ``pending_bills=False`` restricts the scripts to order/pay steps
    (the input schema of the SHORT/buggy stores).
    """
    return {
        f"customer-{index:02d}": SessionGenerator(
            catalog, seed=seed * 1_000_003 + index,
            supports_pending_bills=pending_bills,
        ).session(count)
        for index, count in enumerate(counts)
    }


def batch_of(scripts, order):
    """An interleaved batch: ``order`` names sessions, scripts feed steps."""
    ids = sorted(scripts)
    cursors = {session_id: 0 for session_id in ids}
    batch = []
    for index in order:
        session_id = ids[index]
        batch.append(
            StepRequest(session_id, scripts[session_id][cursors[session_id]])
        )
        cursors[session_id] += 1
    return batch


def run_batch(service, scripts, batch, concurrency):
    for session_id in scripts:
        service.create_session(session_id)
    return service.submit_batch(batch, concurrency=concurrency)


def assert_equivalent(serial, concurrent, scripts, serial_results, results):
    assert [r.step for r in results] == [r.step for r in serial_results]
    assert [r.output for r in results] == [r.output for r in serial_results]
    assert [r.session for r in results] == [r.session for r in serial_results]
    for session_id in scripts:
        assert (
            list(concurrent.session(session_id).log().entries)
            == list(serial.session(session_id).log().entries)
        )
        assert (
            concurrent.session(session_id).state
            == serial.session(session_id).state
        )


@st.composite
def workloads(draw):
    """(per-session step counts, interleaving, generator seed)."""
    counts = draw(
        st.lists(st.integers(0, 5), min_size=1, max_size=4)
    )
    multiset = [i for i, count in enumerate(counts) for _ in range(count)]
    order = draw(st.permutations(multiset))
    seed = draw(st.integers(0, 999))
    return counts, list(order), seed


class TestConcurrentEqualsSerial:
    def test_fixed_workload_all_concurrency_levels(self):
        scripts = scripts_for([4, 4, 4, 4, 4, 4], seed=3)
        order = [i for step in range(4) for i in range(6)]
        serial = PodService(build_friendly(), CATALOG.as_database())
        serial_results = run_batch(
            serial, scripts, batch_of(scripts, order), concurrency=1
        )
        for concurrency in (2, 8):
            service = PodService(build_friendly(), CATALOG.as_database())
            results = run_batch(
                service, scripts, batch_of(scripts, order), concurrency
            )
            assert_equivalent(
                serial, service, scripts, serial_results, results
            )
            assert service.metrics.steps_executed == len(order)

    @settings(max_examples=25, deadline=None)
    @given(workloads())
    def test_random_interleaved_workloads(self, workload):
        counts, order, seed = workload
        scripts = scripts_for(counts, seed)
        batch = batch_of(scripts, order)
        serial = PodService(build_friendly(), CATALOG.as_database())
        concurrent = PodService(build_friendly(), CATALOG.as_database())
        serial_results = run_batch(serial, scripts, batch, concurrency=1)
        results = run_batch(concurrent, scripts, batch, concurrency=3)
        assert_equivalent(serial, concurrent, scripts, serial_results, results)

    @settings(max_examples=10, deadline=None)
    @given(workloads())
    def test_jsonl_store_restart_roundtrip(self, workload):
        """Concurrent stepping persists the exact serial snapshots, and a
        service revived over the directory finishes with the logs of an
        uninterrupted serial run."""
        counts, order, seed = workload
        scripts = scripts_for(counts, seed)
        batch = batch_of(scripts, order)
        serial = PodService(build_friendly(), CATALOG.as_database())
        run_batch(serial, scripts, batch, concurrency=1)
        with tempfile.TemporaryDirectory() as scratch:
            directory = Path(scratch) / "pods"
            concurrent = PodService(
                build_friendly(), CATALOG.as_database(), store=directory
            )
            run_batch(concurrent, scripts, batch, concurrency=4)
            for session_id in scripts:
                assert (
                    concurrent.store.load(session_id)
                    == serial.store.load(session_id)
                )
            del concurrent  # the serving process "dies"
            revived = PodService(
                build_friendly(), CATALOG.as_database(), store=directory
            )
            for session_id in scripts:
                assert (
                    list(revived.session(session_id).log().entries)
                    == list(serial.session(session_id).log().entries)
                )
                assert (
                    revived.session(session_id).state
                    == serial.session(session_id).state
                )

    @settings(max_examples=10, deadline=None)
    @given(workloads())
    def test_audited_non_strict_matches_serial(self, workload):
        """A (non-strict) auditor over the drifting store records the same
        findings under serial and concurrent execution."""
        counts, order, seed = workload
        scripts = scripts_for(
            counts, seed, catalog=FIGURE1_CATALOG, pending_bills=False
        )
        batch = batch_of(scripts, order)
        short = build_short()

        def audited_service():
            return PodService(
                build_buggy_store(),
                default_database(),
                auditor=OnlineAuditor([LogValidity()], reference=short),
            )

        serial = audited_service()
        concurrent = audited_service()
        serial_results = run_batch(serial, scripts, batch, concurrency=1)
        results = run_batch(concurrent, scripts, batch, concurrency=3)
        assert_equivalent(serial, concurrent, scripts, serial_results, results)

        def digest(findings):
            return sorted(
                (f.session_id, f.step, f.violation) for f in findings
            )

        assert digest(concurrent.audit_findings()) == digest(
            serial.audit_findings()
        )
        for session_id in scripts:
            # Per-session findings arrive in step order either way.
            steps = [
                f.step for f in concurrent.audit_findings(session_id)
            ]
            assert steps == sorted(steps)
        assert (
            concurrent.metrics.audit_checks == serial.metrics.audit_checks
        )

    def test_sharded_service_fans_out_identically(self):
        scripts = scripts_for([3, 3, 3, 3, 3, 3, 3, 3], seed=9)
        order = [i for step in range(3) for i in range(8)]
        batch = batch_of(scripts, order)
        serial = ShardedPodService(
            build_friendly(), CATALOG.as_database(), shards=4
        )
        concurrent = ShardedPodService(
            build_friendly(), CATALOG.as_database(), shards=4
        )
        serial_results = run_batch(serial, scripts, batch, concurrency=1)
        results = run_batch(concurrent, scripts, batch, concurrency=4)
        assert_equivalent(serial, concurrent, scripts, serial_results, results)
        assert concurrent.metrics.steps_executed == len(order)
        assert sum(
            m.steps_executed for m in concurrent.shard_metrics()
        ) == len(order)


class TestStrictAuditPartialResults:
    """AuditViolation mid-batch: completed results ride on the exception."""

    def make_service(self):
        auditor = OnlineAuditor(
            [LogValidity()], reference=build_short(), strict=True
        )
        service = PodService(
            build_buggy_store(), default_database(), auditor=auditor
        )
        service.create_session("alice")
        service.create_session("bob")
        return service

    # alice's empty step 2 makes the buggy store deliver unpaid (an
    # invalid log step); bob's pay-after-order log is valid under SHORT.
    BATCH = [
        StepRequest("alice", {"order": {("time",)}}),
        StepRequest("bob", {"order": {("newsweek",)}}),
        StepRequest("alice", {}),
        StepRequest("bob", {"pay": {("newsweek", 45)}}),
    ]

    def test_serial_prefix_attached(self):
        service = self.make_service()
        with pytest.raises(AuditViolation) as excinfo:
            service.submit_batch(self.BATCH, concurrency=1)
        partial = excinfo.value.partial_results
        assert [r is not None for r in partial] == [True, True, False, False]
        assert partial[0].session == SessionHandle("alice", 0)
        assert partial[1].step == 1
        # The violating step was applied and persisted; bob's last
        # request never ran -- exactly what the store shows.
        assert service.session("alice").steps == 2
        assert service.session("bob").steps == 1
        assert excinfo.value.findings[0].step == 2

    def test_concurrent_per_session_prefixes(self):
        service = self.make_service()
        with pytest.raises(AuditViolation) as excinfo:
            service.submit_batch(self.BATCH, concurrency=2)
        partial = excinfo.value.partial_results
        assert len(partial) == len(self.BATCH)
        # bob's group is unaffected and ran to completion; alice's
        # stopped at the violating request (applied, result discarded).
        assert [r is not None for r in partial] == [True, True, False, True]
        assert partial[3].step == 2
        assert service.session("alice").steps == 2
        assert service.session("bob").steps == 2
        # Ordering guarantee: each session's completed results form a
        # prefix of that session's subsequence, in order.
        for session_id in ("alice", "bob"):
            steps = [
                r.step
                for r, request in zip(partial, self.BATCH)
                if r is not None and request.session == session_id
            ]
            assert steps == list(range(1, len(steps) + 1))

    def test_submit_outside_a_batch_has_no_partial_results(self):
        service = self.make_service()
        service.submit(StepRequest("alice", {"order": {("time",)}}))
        with pytest.raises(AuditViolation) as excinfo:
            service.submit(StepRequest("alice", {}))
        assert excinfo.value.partial_results is None


class TestConcurrencyKnob:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(CONCURRENCY_ENV, raising=False)
        assert batch_concurrency() == 1
        assert batch_concurrency(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(CONCURRENCY_ENV, "4")
        assert batch_concurrency() == 4
        assert batch_concurrency(2) == 2  # explicit argument wins

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(SessionError, match=">= 1"):
            batch_concurrency(0)
        monkeypatch.setenv(CONCURRENCY_ENV, "zero")
        with pytest.raises(SessionError, match="need an integer"):
            batch_concurrency()
        monkeypatch.setenv(CONCURRENCY_ENV, "-2")
        service = PodService(build_short(), default_database())
        with pytest.raises(SessionError, match=">= 1"):
            service.submit_batch([])

    def test_env_drives_submit_batch(self, monkeypatch):
        monkeypatch.setenv(CONCURRENCY_ENV, "3")
        scripts = scripts_for([2, 2, 2], seed=5)
        order = [0, 1, 2, 0, 1, 2]
        serial = PodService(build_friendly(), CATALOG.as_database())
        concurrent = PodService(build_friendly(), CATALOG.as_database())
        batch = batch_of(scripts, order)
        monkeypatch.delenv(CONCURRENCY_ENV, raising=False)
        serial_results = run_batch(serial, scripts, batch, concurrency=None)
        monkeypatch.setenv(CONCURRENCY_ENV, "3")
        for session_id in scripts:
            concurrent.create_session(session_id)
        results = concurrent.submit_batch(batch)
        assert_equivalent(serial, concurrent, scripts, serial_results, results)

    def test_non_audit_errors_propagate(self):
        service = PodService(build_short(), default_database())
        service.create_session("alice")
        batch = [
            StepRequest("alice", FIGURE1_INPUTS[0]),
            StepRequest("ghost", FIGURE1_INPUTS[0]),
        ]
        with pytest.raises(SessionError, match="no such session"):
            service.submit_batch(batch, concurrency=2)
        # alice's group was unaffected by the failing ghost group.
        assert service.session("alice").steps == 1

    def test_stale_handle_propagates_from_worker(self):
        service = ShardedPodService(
            build_short(), default_database(), shards=4
        )
        handle = service.create_session("alice")
        stale = SessionHandle("alice", (handle.shard + 1) % 4)
        with pytest.raises(ShardError, match="routes to shard"):
            service.submit_batch(
                [StepRequest(stale, FIGURE1_INPUTS[0])] * 2, concurrency=2
            )


class TestFirstTouchRace:
    def test_fresh_plan_first_touch_matches_serial(self):
        """Restores racing on a just-compiled shared plan -- its rule
        categories and (order, kernel) memos -- serve the serial logs
        and compile exactly the serial run's kernels and plans."""
        from repro.datalog.plan import (
            clear_plan_cache,
            kernels_compiled,
            plan_cache_info,
        )
        from repro.scenarios.runner import log_digest

        scripts = scripts_for([4] * 8, seed=5)
        order = [i for step in range(4) for i in range(8)]

        def run(concurrency):
            clear_plan_cache()
            kernels_before = kernels_compiled()
            plans_before = plan_cache_info()["compiled"]
            service = PodService(
                build_friendly(),
                CATALOG.as_database(),
                max_resident_sessions=2,
            )
            results = run_batch(
                service, scripts, batch_of(scripts, order), concurrency
            )
            return (
                [(r.session, r.step, r.output) for r in results],
                log_digest(service, scripts),
                kernels_compiled() - kernels_before,
                plan_cache_info()["compiled"] - plans_before,
                service.metrics.sessions_rehydrated > 0,
            )

        serial = run(concurrency=1)
        assert serial[2] > 0 and serial[3] == 1 and serial[4]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for _ in range(3):
                assert run(concurrency=4) == serial
        finally:
            sys.setswitchinterval(interval)
