"""Run semantics of the pod runtime: sessions, driving, metrics, traffic.

Every behaviour here is observed through :class:`PodService`: a session
reproduces ``transducer.run`` exactly, interleaving sessions changes no
run, and the metrics count what was driven.  The typed API, stores and
sharding in depth are tested in ``test_pods.py``.
"""

import pytest

from repro.commerce.catalog import CatalogGenerator
from repro.commerce.models import (
    FIGURE1_INPUTS,
    build_friendly,
    build_short,
    default_database,
)
from repro.commerce.workloads import SessionGenerator
from repro.errors import SessionError
from repro.pods import PodService, RuntimeMetrics, StepRequest


@pytest.fixture
def service():
    return PodService(build_short(), default_database())


class TestSession:
    def test_session_matches_run_semantics(self, service):
        handle = service.create_session()
        results = service.run_session(handle, FIGURE1_INPUTS)
        run = build_short().run(default_database(), FIGURE1_INPUTS)
        assert [result.output for result in results] == list(run.outputs)
        assert list(service.session(handle).log().entries) == list(run.logs)
        assert service.session(handle).state == run.last_state

    def test_step_counter(self, service):
        handle = service.create_session()
        results = service.run_session(handle, FIGURE1_INPUTS)
        assert [result.step for result in results] == [1, 2, 3, 4]
        assert service.session(handle).steps == len(FIGURE1_INPUTS)

    def test_keep_log_off(self):
        service = PodService(build_short(), default_database(), keep_logs=False)
        handle = service.create_session()
        service.run_session(handle, FIGURE1_INPUTS)
        assert len(service.session(handle).log()) == 0
        assert service.session(handle).steps == len(FIGURE1_INPUTS)
        assert service.metrics.steps_executed == len(FIGURE1_INPUTS)


class TestEngine:
    def test_session_ids_are_unique_and_ordered(self, service):
        ids = [service.create_session().session_id for _ in range(5)]
        assert ids == sorted(set(ids))
        assert service.session_ids() == ids

    def test_unknown_session_raises(self, service):
        with pytest.raises(SessionError):
            service.submit(StepRequest("nobody", {"order": {("time",)}}))

    def test_close_session_returns_log(self, service):
        handle = service.create_session()
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        log = service.close_session(handle)
        assert log.session_id == handle.session_id
        assert len(log) == 1
        assert handle.session_id not in service.session_ids()
        assert service.metrics.sessions_closed == 1

    def test_interleaved_equals_sequential(self):
        """Stepping sessions round-robin gives the same per-session runs
        (logs and states) as running each session back to back
        (session isolation)."""
        transducer = build_friendly()
        catalog = CatalogGenerator(seed=3).generate(20)
        scripts = [
            SessionGenerator(
                catalog, seed=s, supports_pending_bills=True
            ).session(5)
            for s in range(4)
        ]

        interleaved = PodService(transducer, catalog.as_database())
        workload = {
            interleaved.create_session(): script for script in scripts
        }
        interleaved.drive(workload, round_robin=True)

        for handle, script in workload.items():
            run = transducer.run(catalog.as_database(), script)
            session = interleaved.session(handle)
            assert list(session.log().entries) == list(run.logs)
            assert session.state == run.last_state
        assert interleaved.metrics.steps_executed == 20

    def test_step_batch(self, service):
        first, second = service.create_session(), service.create_session()
        results = service.submit_batch(
            [
                StepRequest(first, {"order": {("time",)}}),
                StepRequest(second, {"order": {("newsweek",)}}),
                StepRequest(first, {"pay": {("time", 55)}}),
            ]
        )
        assert [r.session for r in results] == [first, second, first]
        assert ("time",) in results[2].output["deliver"]

    def test_drive_tolerates_empty_sequences(self, service):
        busy = service.create_session()
        idle = service.create_session()
        service.drive({busy: FIGURE1_INPUTS[:1], idle: []}, round_robin=True)
        assert service.session(busy).steps == 1
        assert service.session(idle).steps == 0

    def test_drive_sequential(self, service):
        workload = {
            service.create_session(): FIGURE1_INPUTS,
            service.create_session(): FIGURE1_INPUTS[:2],
        }
        service.drive(workload, round_robin=False)
        lengths = sorted(len(log) for log in service.logs())
        assert lengths == [2, 4]


class TestMetrics:
    def test_counters(self, service):
        handle = service.create_session()
        service.run_session(handle, FIGURE1_INPUTS)
        metrics = service.metrics
        assert metrics.sessions_created == 1
        assert metrics.steps_executed == 4
        assert metrics.step_seconds_total > 0
        assert metrics.step_seconds_min <= metrics.step_seconds_max
        assert metrics.mean_step_latency() > 0

    def test_snapshot_keys_are_stable(self, service):
        snapshot = service.metrics.snapshot()
        assert list(snapshot) == sorted(snapshot, key=list(snapshot).index)
        assert {"steps_per_second", "sessions_per_second"} <= set(snapshot)
        service.run_session(service.create_session(), FIGURE1_INPUTS)
        assert list(service.metrics.snapshot()) == list(snapshot)

    def test_empty_metrics(self):
        metrics = RuntimeMetrics()
        assert metrics.mean_step_latency() == 0.0
        assert metrics.snapshot()["min_step_latency_seconds"] == 0.0


class TestWorkloadDriver:
    def test_customer_traffic_runs_every_script(self, drive_customers):
        catalog = CatalogGenerator(seed=2).generate(30)
        service = PodService(
            build_friendly(), catalog.as_database(), keep_logs=False
        )
        scripts = drive_customers(service, catalog, 12, 4, seed=5)
        assert service.session_ids() == sorted(scripts)
        assert service.metrics.snapshot()["steps_executed"] == 48
        assert {service.session(sid).steps for sid in scripts} == {4}

    def test_workload_is_seed_deterministic(self, drive_customers):
        catalog = CatalogGenerator(seed=2).generate(10)

        def drive():
            service = PodService(build_short(), catalog.as_database())
            drive_customers(service, catalog, 6, 3, seed=11, pending_bills=False)
            return service.logs()

        first, second = drive(), drive()
        assert first == second
        assert [len(log) for log in first] == [3] * 6
