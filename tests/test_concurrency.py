"""Caller threads on distinct sessions: equivalence with serial execution.

``submit_batch`` is serial; parallelism across sessions belongs to the
worker processes of the pod server.  Callers may still call ``submit``
from their own threads, and the service's locks (the session map, the
cache pins, the index build-once lock, the store and auditor locks)
must make that *observationally transparent*: a few plain threads, each
stepping its own sessions, produce exactly the results, logs, final
states, and persisted snapshots of a serial ``submit_batch`` of the same
traffic -- for random interleaved multi-session workloads (hypothesis),
through a JSONL-store restart, under a non-strict online audit, and
across the two worker processes of a pod server.  A strict audit
stopping a batch midway attaches the completed results to the raised
:class:`~repro.errors.AuditViolation`.
"""

import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.commerce.models import (
    build_buggy_store,
    build_friendly,
    build_short,
    default_database,
)
from repro.errors import AuditViolation
from repro.pods import (
    PodService,
    SessionHandle,
    StepRequest,
    shard_of,
)
from repro.server import PodClient, PodServer
from repro.verify.api import LogValidity, OnlineAuditor
from traffic import (
    CATALOG,
    FIGURE1_CATALOG,
    batch_of,
    scripts_for,
    workloads,
)


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


class TestConcurrentEqualsSerial:
    def test_fixed_workload_all_concurrency_levels(self, run_batch):
        scripts = scripts_for([4, 4, 4, 4, 4, 4], seed=3, pending_bills=True)
        order = [i for step in range(4) for i in range(6)]
        serial = PodService(build_friendly(), CATALOG.as_database())
        serial_results = run_batch(serial, scripts, batch_of(scripts, order))
        for threads in (2, 8):
            service = PodService(build_friendly(), CATALOG.as_database())
            results = run_batch(
                service, scripts, batch_of(scripts, order), threads
            )
            assert_equivalent(
                serial, service, scripts, serial_results, results
            )
            assert service.metrics.steps_executed == len(order)

    @settings(max_examples=25, deadline=None)
    @given(workloads())
    def test_random_interleaved_workloads(self, run_batch, workload):
        counts, order, seed = workload
        scripts = scripts_for(counts, seed, pending_bills=True)
        batch = batch_of(scripts, order)
        serial = PodService(build_friendly(), CATALOG.as_database())
        concurrent = PodService(build_friendly(), CATALOG.as_database())
        serial_results = run_batch(serial, scripts, batch)
        results = run_batch(concurrent, scripts, batch, 3)
        assert_equivalent(serial, concurrent, scripts, serial_results, results)

    @settings(max_examples=10, deadline=None)
    @given(workloads())
    def test_jsonl_store_restart_roundtrip(self, run_batch, workload):
        """Threaded stepping persists the exact serial snapshots, and a
        service revived over the directory finishes with the logs of an
        uninterrupted serial run."""
        counts, order, seed = workload
        scripts = scripts_for(counts, seed, pending_bills=True)
        batch = batch_of(scripts, order)
        serial = PodService(build_friendly(), CATALOG.as_database())
        run_batch(serial, scripts, batch)
        with tempfile.TemporaryDirectory() as scratch:
            directory = Path(scratch) / "pods"
            concurrent = PodService(
                build_friendly(), CATALOG.as_database(), store=directory
            )
            run_batch(concurrent, scripts, batch, 4)
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
    def test_audited_non_strict_matches_serial(self, run_batch, workload):
        """A (non-strict) auditor over the drifting store records the same
        findings under serial and threaded execution."""
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
        serial_results = run_batch(serial, scripts, batch)
        results = run_batch(concurrent, scripts, batch, 3)
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

    def test_sharded_service_fans_out_identically(self, run_batch):
        """Caller threads on a two-worker pod server: each request
        reaches its id's worker, and the results, logs and states are
        a serial in-process run's."""
        scripts = scripts_for([3, 3, 3, 3, 3, 3, 3, 3], seed=9, pending_bills=True)
        order = [i for step in range(3) for i in range(8)]
        batch = batch_of(scripts, order)
        serial = PodService(build_friendly(), CATALOG.as_database())
        serial_results = run_batch(serial, scripts, batch)
        with PodServer(
            build_friendly, CATALOG.as_database(), workers=2
        ) as server, PodClient(server.url, build_friendly()) as concurrent:
            results = run_batch(concurrent, scripts, batch, 4)
            assert [r.step for r in results] == [
                r.step for r in serial_results
            ]
            assert [r.output for r in results] == [
                r.output for r in serial_results
            ]
            assert [
                (r.session.session_id, r.session.shard) for r in results
            ] == [(r.session, shard_of(r.session, 2)) for r in batch]
            for session_id in scripts:
                view = concurrent.session(session_id)
                ref = serial.session(session_id)
                assert list(view.log().entries) == list(ref.log().entries)
                assert view.state == ref.state
            per_worker = concurrent.metrics_payload()["per_worker"]
        assert [row["steps_executed"] for row in per_worker] == [
            sum(1 for r in batch if shard_of(r.session, 2) == index)
            for index in range(2)
        ]


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
            service.submit_batch(self.BATCH)
        partial = excinfo.value.partial_results
        assert [r is not None for r in partial] == [True, True, False, False]
        assert partial[0].session == SessionHandle("alice", 0)
        assert partial[1].step == 1
        # The violating step was applied and persisted; bob's last
        # request never ran -- exactly what the store shows.
        assert service.session("alice").steps == 2
        assert service.session("bob").steps == 1
        assert excinfo.value.findings[0].step == 2

    def test_submit_outside_a_batch_has_no_partial_results(self):
        service = self.make_service()
        service.submit(StepRequest("alice", {"order": {("time",)}}))
        with pytest.raises(AuditViolation) as excinfo:
            service.submit(StepRequest("alice", {}))
        assert excinfo.value.partial_results is None


class TestFirstTouchRace:
    def test_fresh_plan_first_touch_matches_serial(self, run_batch):
        """Restores racing on a just-compiled shared plan -- its rule
        categories and (order, kernel) memos -- serve the serial logs
        and compile exactly the serial run's kernels and plans."""
        from repro.datalog.plan import (
            clear_plan_cache,
            kernels_compiled,
            plan_cache_info,
        )
        from repro.scenarios.runner import log_digest

        scripts = scripts_for([4] * 8, seed=5, pending_bills=True)
        order = [i for step in range(4) for i in range(8)]

        def run(threads):
            clear_plan_cache()
            kernels_before = kernels_compiled()
            plans_before = plan_cache_info()["compiled"]
            service = PodService(
                build_friendly(),
                CATALOG.as_database(),
                max_resident_sessions=2,
            )
            results = run_batch(
                service, scripts, batch_of(scripts, order), threads
            )
            return (
                [(r.session, r.step, r.output) for r in results],
                log_digest(service, scripts),
                kernels_compiled() - kernels_before,
                plan_cache_info()["compiled"] - plans_before,
                service.metrics.sessions_rehydrated > 0,
            )

        serial = run(threads=1)
        assert serial[2] > 0 and serial[3] == 1 and serial[4]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for _ in range(3):
                assert run(threads=4) == serial
        finally:
            sys.setswitchinterval(interval)
