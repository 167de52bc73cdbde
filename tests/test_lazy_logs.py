"""The store is the one home of a session's log.

A resident session holds its state, its step count and its last step;
every log read -- ``Session.log()``, ``snapshot()``,
``close_session``, ``PodService.logs()`` -- goes to the store, and a
store's ``load`` reads the state and step count only, leaving the log
to a :class:`~repro.pods.api.StoredLog` that reads it on first use.
The hypothesis block checks that whatever the backend, the residency
bound, a reopen in the middle and ``keep_logs``, those reads equal the
logs of a standalone ``transducer.run`` of the same inputs.  The
memory test checks the point of it: stepping a session keeps no
per-step objects alive.
"""

import gc
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commerce.models import build_friendly
from repro.errors import SessionError
from repro.pods import (
    InMemoryStore,
    PodService,
    SqliteStore,
    StepRequest,
    open_store,
)
from repro.pods.api import StoredLog, facts_of
from traffic import CATALOG, batch_of, scripts_for, workloads

BACKENDS = ("memory", "jsonl", "sqlite")


def store_target(backend, root):
    """What a service opens for ``backend``: the memory store is one
    object, so a "reopen" hands the same object to a new service."""
    if backend == "memory":
        return InMemoryStore()
    if backend == "jsonl":
        return str(Path(root) / "pods")
    return str(Path(root) / "pods.sqlite")


def entries_facts(entries):
    return tuple(facts_of(entry) for entry in entries)


class TestReadsEqualTheStandaloneRun:
    @settings(max_examples=60, deadline=None)
    @given(
        workload=workloads(),
        backend=st.sampled_from(BACKENDS),
        resident=st.sampled_from([None, 1, 2]),
        keep_logs=st.booleans(),
        cut=st.floats(0, 1),
        reopen=st.booleans(),
    )
    def test_log_snapshot_and_close(
        self, workload, backend, resident, keep_logs, cut, reopen
    ):
        counts, order, seed = workload
        scripts = scripts_for(counts, seed)
        batch = batch_of(scripts, order)
        cut = int(cut * len(batch))
        transducer = build_friendly()
        database = CATALOG.as_database()
        with tempfile.TemporaryDirectory() as root:
            target = store_target(backend, root)

            def open_service():
                return PodService(
                    transducer,
                    database,
                    store=target,
                    keep_logs=keep_logs,
                    max_resident_sessions=resident,
                )

            service = open_service()
            for session_id in scripts:
                service.create_session(session_id)
            service.submit_batch(batch[:cut])
            if reopen:
                service.close()
                service = open_service()
            service.submit_batch(batch[cut:])

            expected = {}
            for session_id, script in scripts.items():
                run = transducer.run(database, script)
                state = run.states[-1] if script else transducer.initial_state()
                logs = run.logs if keep_logs else ()
                expected[session_id] = (len(script), facts_of(state), logs)
            # logs() covers the sessions this service opened or
            # touched: after a reopen, those the second half stepped.
            assert [log.entries for log in service.logs()] == [
                expected[session_id][2]
                for session_id in service.session_ids()
            ]
            for session_id, (steps, state, logs) in expected.items():
                session = service.session(session_id)
                assert session.log().entries == logs
                snapshot = session.snapshot()
                assert (snapshot.steps, snapshot.state_facts) == (steps, state)
                assert snapshot.log_facts == entries_facts(logs)
                stored = service.store.load(session_id)
                # A store holds no state before the first step (S_0).
                assert stored.steps == steps
                assert stored.state_facts == (state if steps else {})
                assert stored.log_facts == entries_facts(logs)
            for session_id, (_steps, _state, logs) in expected.items():
                assert service.close_session(session_id).entries == logs
                assert service.store.load(session_id) is None
            service.close()


class CountingStore:
    """Forwards to a real store, counting ``load_log`` calls."""

    def __init__(self, inner):
        self._inner = inner
        self.log_reads = 0

    def load_log(self, session_id, steps):
        self.log_reads += 1
        return self._inner.load_log(session_id, steps)

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)


ORDER = {"order": {("time",)}}


class TestLogsAreReadOnDemand:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rehydration_reads_no_log(self, backend, tmp_path):
        store = CountingStore(open_store(store_target(backend, tmp_path)))
        service = PodService(
            build_friendly(),
            CATALOG.as_database(),
            store=store,
            max_resident_sessions=1,
        )
        for session_id in ("alice", "bob"):
            service.create_session(session_id)
        for _ in range(3):
            for session_id in ("alice", "bob"):
                service.submit(StepRequest(session_id, ORDER))
        assert service.metrics.sessions_rehydrated > 0
        assert store.log_reads == 0
        assert len(service.session("alice").log()) == 3
        assert store.log_reads == 1
        service.close()

    def test_sqlite_load_leaves_out_the_log_column(self, tmp_path):
        store = SqliteStore(tmp_path / "pods.sqlite")
        service = PodService(build_friendly(), CATALOG.as_database(), store=store)
        service.create_session("alice")
        for _ in range(4):
            service.submit(StepRequest("alice", ORDER))
        statements = []
        store._conn.set_trace_callback(statements.append)
        snapshot = store.load("alice")
        loaded = list(statements)
        assert snapshot.steps == 4 and isinstance(snapshot.log_facts, StoredLog)
        assert loaded and not any("log" in sql for sql in loaded)
        assert len(snapshot.log_facts) == 4
        assert any("SELECT log" in sql for sql in statements[len(loaded):])
        store._conn.set_trace_callback(None)
        service.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_snapshot_log_stops_at_its_step(self, backend, tmp_path):
        target = store_target(backend, tmp_path)
        service = PodService(build_friendly(), CATALOG.as_database(), store=target)
        service.create_session("alice")
        service.submit(StepRequest("alice", ORDER))
        early = service.store.load("alice")
        taken = service.session("alice").snapshot()
        service.submit(StepRequest("alice", ORDER))
        assert len(early.log_facts) == len(taken.log_facts) == 1
        assert len(service.store.load("alice").log_facts) == 2
        unread = service.store.load("alice")
        service.close_session("alice")
        with pytest.raises(SessionError, match="closed before its log"):
            list(unread.log_facts)
        service.close()


def test_stepping_keeps_no_per_step_memory(tmp_path):
    """A resident session over SQLite keeps nothing per step: its log
    lives in the store.  (With the log in the session: ~900 B and ~5
    GC-tracked objects per step.)"""
    store = SqliteStore(tmp_path / "pods.sqlite")
    service = PodService(build_friendly(), CATALOG.as_database(), store=store)
    prices = sorted(CATALOG.as_database()["price"])[:4]
    script = [
        inputs
        for name, price in prices
        for inputs in ({"order": {(name,)}}, {"pay": {(name, price)}})
    ]
    session_ids = [service.create_session(f"s{i}").session_id for i in range(4)]

    def step(first, count):
        service.submit_batch(
            StepRequest(
                session_ids[k % 4], script[(k // 4) % len(script)]
            )
            for k in range(first, first + count)
        )

    step(0, 500)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        objects_before = len(gc.get_objects())
        step(500, 1500)
        gc.collect()
        after = tracemalloc.take_snapshot()
        objects_after = len(gc.get_objects())
    finally:
        tracemalloc.stop()
    kept = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert kept / 1500 < 100
    assert (objects_after - objects_before) / 1500 < 0.5
    service.close()
