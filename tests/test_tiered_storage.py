"""Tiered session storage: SQLite store, LRU cache, lifecycle API.

The guarantee is *observational transparency*.  Whatever the backend
({in-memory, JSONL directory, single-file SQLite}) and whatever the
residency bound (unlimited, or as tight as ``max_resident_sessions=1``
forcing an eviction on almost every step), a service produces
byte-identical logs, states, and persisted snapshots -- serially, from
caller threads on distinct sessions, across a restart, and with an
:class:`OnlineAuditor` attached (audits keep firing after rehydration).
On top sit the lifecycle surface (``close``/``stats``), the
typed ``MigrationReport``, and the crash-safety of JSONL compaction.
"""

import json
import os
import sqlite3
import tempfile
import threading
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commerce.catalog import CatalogGenerator
from repro.commerce.models import (
    build_buggy_store,
    build_friendly,
    build_short,
    default_database,
)
from repro.errors import AuditViolation, SessionError, StoreError
from repro.pods import (
    MAX_RESIDENT_ENV,
    InMemoryStore,
    JsonlDirectoryStore,
    LruSessionCache,
    PodService,
    SqliteStore,
    StepRequest,
    StoreStats,
    max_resident_sessions,
    migrate_sessions,
    open_store,
    shard_of,
)
from repro.pods.session import Session
from repro.pods.store import _STORE_METHODS, SessionStore, _encode_facts
from repro.relalg.schema import DatabaseSchema, RelationSchema
from repro.server import PodClient, PodServer
from repro.server.worker import WorkerConfig, _build_service, database_facts_of
from repro.verify.api import LogValidity, OnlineAuditor
from traffic import batch_of, scripts_for, workloads

CATALOG = CatalogGenerator(seed=23).generate(12)


def canonical(snapshot):
    """A snapshot in its canonical bytes (the JSONL/SQLite wire form)."""
    return (
        snapshot.session_id,
        snapshot.steps,
        json.dumps(_encode_facts(snapshot.state_facts), sort_keys=True),
        tuple(
            json.dumps(_encode_facts(entry), sort_keys=True)
            for entry in snapshot.log_facts
        ),
    )


def fresh_session(session_id="s"):
    transducer = build_short()
    return Session(
        session_id, transducer, transducer.coerce_database(default_database())
    )


class TestSqliteStore:
    def test_service_roundtrip_and_restart(self, tmp_path, run_batch):
        path = tmp_path / "pods.sqlite"
        scripts = scripts_for([3, 2], seed=7, catalog=CATALOG)
        order = [0, 1, 0, 1, 0]
        batch = batch_of(scripts, order)
        reference = PodService(build_friendly(), CATALOG.as_database())
        run_batch(reference, scripts, batch)
        service = PodService(
            build_friendly(), CATALOG.as_database(), store=SqliteStore(path)
        )
        run_batch(service, scripts, batch)
        revived = PodService(
            build_friendly(), CATALOG.as_database(), store=SqliteStore(path)
        )
        for session_id in scripts:
            assert canonical(revived.store.load(session_id)) == canonical(
                reference.store.load(session_id)
            )
            assert list(revived.session(session_id).log().entries) == list(
                reference.session(session_id).log().entries
            )

    def test_path_string_routes_to_sqlite(self, tmp_path):
        for suffix in (".sqlite", ".sqlite3", ".db"):
            store = open_store(str(tmp_path / f"pods{suffix}"))
            assert isinstance(store, SqliteStore)
        assert isinstance(open_store(str(tmp_path / "plain")),
                          JsonlDirectoryStore)
        service = PodService(
            build_short(),
            default_database(),
            store=str(tmp_path / "svc.sqlite"),
        )
        assert isinstance(service.store, SqliteStore)

    def test_durability_reaches_sqlite_through_open_store(self, tmp_path):
        # A worker opens its store through open_store: the suffix match
        # ignores case, and durability applies to SQLite targets only.
        store = open_store(str(tmp_path / "PODS.DB"), durability="full")
        assert isinstance(store, SqliteStore)
        assert store.durability == "full"
        store.close()
        assert isinstance(open_store(None, durability="full"), InMemoryStore)
        assert isinstance(
            open_store(str(tmp_path / "plain"), durability="full"),
            JsonlDirectoryStore,
        )
        config = WorkerConfig(
            transducer_factory=build_short,
            database_facts=database_facts_of(default_database()),
            store_target=str(tmp_path / "WORKER.DB"),
            durability="full",
        )
        service = _build_service(1, config)
        assert isinstance(service.store, SqliteStore)
        assert service.store.durability == "full"
        (level,) = service.store._conn.execute(
            "PRAGMA synchronous"
        ).fetchone()
        assert level == 2  # FULL
        service.close()

    def test_wal_mode_is_on(self, tmp_path):
        store = SqliteStore(tmp_path / "pods.sqlite")
        (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode.lower() == "wal"

    def test_knob_validation(self, tmp_path):
        with pytest.raises(StoreError, match="durability"):
            SqliteStore(tmp_path / "a.sqlite", durability="paranoid")
        # StoreError is a SessionError: existing handlers keep working.
        assert issubclass(StoreError, SessionError)

    def test_durability_full_sets_synchronous(self, tmp_path):
        store = SqliteStore(tmp_path / "pods.sqlite", durability="full")
        (level,) = store._conn.execute("PRAGMA synchronous").fetchone()
        assert level == 2  # FULL

    def test_close_then_use_raises(self, tmp_path):
        store = SqliteStore(tmp_path / "pods.sqlite")
        store.record_created("alice")
        store.close()
        store.close()  # idempotent
        with pytest.raises(StoreError, match="closed"):
            store.load("alice")
        with pytest.raises(StoreError, match="closed"):
            store.record_created("bob")

    def test_context_manager_flushes_and_closes(self, tmp_path):
        path = tmp_path / "pods.sqlite"
        with SqliteStore(path) as store:
            # A scope left open (e.g. by another thread) holds its
            # events in an uncommitted transaction; closing commits it.
            scope = store.scope()
            scope.__enter__()
            store.record_created("alice")
        assert SqliteStore(path).session_ids() == ["alice"]
        with pytest.raises(StoreError, match="closed"):
            store.session_ids()

    def test_record_closed_drops_the_session(self, tmp_path):
        store = SqliteStore(tmp_path / "pods.sqlite")
        service = PodService(build_short(), default_database(), store=store)
        handle = service.create_session("alice")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        service.close_session(handle)
        assert store.load("alice") is None
        assert store.session_ids() == []

    def test_recreating_an_id_truncates_history(self, tmp_path):
        store = SqliteStore(tmp_path / "pods.sqlite")
        session = fresh_session("alice")
        store.record_created("alice")
        session.step({"order": {("time",)}})
        store.record_step(
            "alice", session.steps, session.state, session.last_log_entry
        )
        store.record_created("alice")
        snapshot = store.load("alice")
        assert snapshot.steps == 0 and snapshot.log_facts == ()

    def test_import_collision_raises(self, tmp_path):
        store = SqliteStore(tmp_path / "pods.sqlite")
        store.record_created("alice")
        snapshot = store.load("alice")
        with pytest.raises(SessionError, match="already exists"):
            store.import_snapshot(snapshot)

    def test_stats(self, tmp_path):
        store = SqliteStore(tmp_path / "pods.sqlite")
        assert store.stats() == StoreStats(0, 0, store.stats().bytes_on_disk, 0)
        service = PodService(build_short(), default_database(), store=store)
        handle = service.create_session("alice")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        service.create_session("bob")
        stats = store.stats()
        assert stats.sessions == 2
        assert stats.open_sessions == 2
        assert stats.events == 3  # two snapshot rows + one log row
        assert stats.bytes_on_disk > 0

    def test_migrate_jsonl_to_sqlite_and_back(self, tmp_path):
        jsonl = JsonlDirectoryStore(tmp_path / "pods")
        service = PodService(build_short(), default_database(), store=jsonl)
        handle = service.create_session("alice")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        sqlite_store = SqliteStore(tmp_path / "pods.sqlite")
        report = migrate_sessions(jsonl, sqlite_store)
        assert report.migrated == ("alice",)
        assert canonical(sqlite_store.load("alice")) == canonical(
            jsonl.load("alice")
        )
        moved = PodService(
            build_short(), default_database(), store=sqlite_store
        )
        moved.submit(StepRequest("alice", {"pay": {("time", 55)}}))
        assert moved.session("alice").steps == 2
        back = InMemoryStore()
        assert migrate_sessions(sqlite_store, back).migrated == ("alice",)

    def test_sqlite_errors_wrapped_as_store_errors(self, tmp_path):
        store = SqliteStore(tmp_path / "pods.sqlite")
        store._conn.close()  # simulate a dead backend
        with pytest.raises((StoreError, sqlite3.Error)):
            store.record_created("alice")


class TestLruSessionCache:
    def put(self, cache, session_id, **kwargs):
        return cache.put(session_id, fresh_session(session_id), **kwargs)

    def test_evicts_least_recently_used(self):
        cache = LruSessionCache(max_resident=2)
        assert self.put(cache, "a") == []
        assert self.put(cache, "b") == []
        assert cache.get("a") is not None  # freshen a: b is now LRU
        evicted = self.put(cache, "c")
        assert [session_id for session_id, _ in evicted] == ["b"]
        assert cache.ids() == ["a", "c"]

    def test_pinned_entries_survive_pressure(self):
        cache = LruSessionCache(max_resident=1)
        self.put(cache, "a")
        assert cache.pin("a") is not None
        # a is pinned, so the unpinned newcomer is itself shed to keep
        # the bound -- harmless for the service (its state is already
        # in the store; the next request rehydrates it).
        evicted = self.put(cache, "b")
        assert [session_id for session_id, _ in evicted] == ["b"]
        assert cache.ids() == ["a"]
        assert cache.unpin("a") == []  # back within bounds: nothing shed

    def test_all_pinned_overflows_then_sheds_on_unpin(self):
        cache = LruSessionCache(max_resident=1)
        self.put(cache, "a", pin=True)
        assert self.put(cache, "b", pin=True) == []  # both mid-step
        assert len(cache) == 2  # temporary overflow, never an eviction
        evicted = cache.unpin("a")
        assert [session_id for session_id, _ in evicted] == ["a"]
        assert cache.ids() == ["b"]

    def test_put_pin_is_atomic_and_duplicates_raise(self):
        cache = LruSessionCache(max_resident=1)
        self.put(cache, "a", pin=True)
        with pytest.raises(SessionError, match="already resident"):
            self.put(cache, "a")
        assert cache.pop("a") is not None  # pop removes even pinned
        assert cache.pop("a") is None

    def test_unlimited_cache_never_evicts(self):
        cache = LruSessionCache(max_resident=None)
        for index in range(50):
            assert self.put(cache, f"s{index}") == []
        assert len(cache) == 50

    def test_unpin_of_popped_entry_is_harmless(self):
        cache = LruSessionCache(max_resident=1)
        self.put(cache, "a", pin=True)
        cache.pop("a")
        assert cache.unpin("a") == []

    def test_limit_validation(self):
        with pytest.raises(SessionError, match=">= 1"):
            LruSessionCache(max_resident=0)


class TestResidencyKnob:
    def test_default_is_unlimited(self, monkeypatch):
        monkeypatch.delenv(MAX_RESIDENT_ENV, raising=False)
        assert max_resident_sessions() is None
        assert max_resident_sessions(0) is None

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(MAX_RESIDENT_ENV, "8")
        assert max_resident_sessions() == 8
        assert max_resident_sessions(3) == 3  # explicit argument wins
        assert max_resident_sessions(0) is None  # explicit unlimited wins
        monkeypatch.setenv(MAX_RESIDENT_ENV, "0")
        assert max_resident_sessions() is None

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(SessionError, match=">= 0"):
            max_resident_sessions(-1)
        monkeypatch.setenv(MAX_RESIDENT_ENV, "many")
        with pytest.raises(SessionError, match="need an integer"):
            max_resident_sessions()

    def test_service_exposes_the_bound(self, monkeypatch):
        monkeypatch.delenv(MAX_RESIDENT_ENV, raising=False)
        service = PodService(
            build_short(), default_database(), max_resident_sessions=2
        )
        assert service.max_resident_sessions == 2
        monkeypatch.setenv(MAX_RESIDENT_ENV, "5")
        from_env = PodService(build_short(), default_database())
        assert from_env.max_resident_sessions == 5

    def test_sharded_bound_is_per_shard(self, monkeypatch):
        monkeypatch.delenv(MAX_RESIDENT_ENV, raising=False)
        with PodServer(
            build_short, default_database(), workers=2,
            max_resident_sessions=1,
        ) as server:
            client = PodClient(server.url, build_short())
            for index in range(6):
                client.create_session(f"s{index}")
            per_worker = client.metrics_payload()["per_worker"]
            assert client.session_ids() == [f"s{index}" for index in range(6)]
        # Each worker keeps one session resident and evicted the rest.
        created = [
            sum(1 for index in range(6) if shard_of(f"s{index}", 2) == shard)
            for shard in range(2)
        ]
        assert [row["sessions_created"] for row in per_worker] == created
        assert [row["sessions_evicted"] for row in per_worker] == [
            count - 1 for count in created
        ]


class TestEvictionRehydration:
    def drive(self, service, rounds=3):
        handles = [service.create_session(f"s{index}") for index in range(5)]
        for _ in range(rounds):
            for handle in handles:
                service.submit(StepRequest(handle, {"order": {("time",)}}))
        return handles

    def test_bounded_residency_identical_behavior(self):
        unlimited = PodService(build_short(), default_database())
        bounded = PodService(
            build_short(), default_database(), max_resident_sessions=2
        )
        self.drive(unlimited)
        self.drive(bounded)
        assert len(bounded.resident_session_ids()) <= 2
        assert bounded.session_ids() == unlimited.session_ids()
        assert bounded.metrics.sessions_evicted > 0
        assert bounded.metrics.sessions_rehydrated > 0
        assert unlimited.metrics.sessions_evicted == 0
        for session_id in bounded.session_ids():
            assert canonical(bounded.store.load(session_id)) == canonical(
                unlimited.store.load(session_id)
            )
        assert [list(log.entries) for log in bounded.logs()] == [
            list(log.entries) for log in unlimited.logs()
        ]

    def test_jsonl_files_identical_under_eviction(self, tmp_path):
        stores = {}
        for name, resident in (("free", 0), ("tight", 1)):
            store = JsonlDirectoryStore(tmp_path / name)
            stores[name] = store
            self.drive(
                PodService(
                    build_short(),
                    default_database(),
                    store=store,
                    max_resident_sessions=resident,
                )
            )
        for path in sorted(stores["free"].directory.glob("*.jsonl")):
            twin = stores["tight"].directory / path.name
            assert twin.read_bytes() == path.read_bytes()

    def test_rehydration_not_counted_as_resume(self):
        service = PodService(
            build_short(), default_database(), max_resident_sessions=1
        )
        self.drive(service, rounds=2)
        assert service.metrics.sessions_resumed == 0
        assert service.metrics.sessions_rehydrated > 0
        # A genuinely new service over the same store resumes instead.
        revived = PodService(
            build_short(), default_database(), store=service.store
        )
        revived.session("s0")
        assert revived.metrics.sessions_resumed == 1
        assert revived.metrics.sessions_rehydrated == 0

    def test_close_evicted_session(self):
        service = PodService(
            build_short(), default_database(), max_resident_sessions=1
        )
        handles = self.drive(service, rounds=1)
        # s0 was evicted long ago; closing it still returns its log.
        assert "s0" not in service.resident_session_ids()
        log = service.close_session(handles[0])
        assert len(log.entries) == 1
        assert not service.has_session("s0")
        assert "s0" not in service.session_ids()
        with pytest.raises(SessionError, match="no such session"):
            service.close_session(handles[0])

    def test_concurrent_batches_under_heavy_eviction(self, run_batch):
        """Caller threads shedding cache surplus never evict a session
        another thread is stepping (the pin holds it)."""
        scripts = scripts_for([4, 4, 4, 4, 4, 4], seed=3, catalog=CATALOG)
        order = [i for _ in range(4) for i in range(6)]
        batch = batch_of(scripts, order)
        reference = PodService(build_friendly(), CATALOG.as_database())
        reference_results = run_batch(reference, scripts, batch)
        service = PodService(
            build_friendly(), CATALOG.as_database(), max_resident_sessions=1
        )
        results = run_batch(service, scripts, batch, 4)
        assert [r.output for r in results] == [
            r.output for r in reference_results
        ]
        assert service.metrics.sessions_evicted > 0
        for session_id in scripts:
            assert service.session(session_id).state == reference.session(
                session_id
            ).state

    def test_eviction_counters_in_snapshot(self):
        service = PodService(
            build_short(), default_database(), max_resident_sessions=1
        )
        self.drive(service, rounds=1)
        snapshot = service.metrics.snapshot()
        assert snapshot["sessions_evicted"] == (
            service.metrics.sessions_evicted
        )
        assert snapshot["sessions_rehydrated"] == (
            service.metrics.sessions_rehydrated
        )

class TestAuditSurvivesRehydration:
    def audited(self, max_resident):
        return PodService(
            build_buggy_store(),
            default_database(),
            auditor=OnlineAuditor([LogValidity()], reference=build_short()),
            max_resident_sessions=max_resident,
        )

    # alice's empty step 2 makes the buggy store deliver unpaid -- an
    # invalid log step the auditor must catch even though alice was
    # evicted (bob's step pushed her out) and rehydrated in between.
    BATCH = [
        StepRequest("alice", {"order": {("time",)}}),
        StepRequest("bob", {"order": {("newsweek",)}}),
        StepRequest("alice", {}),
        StepRequest("bob", {"pay": {("newsweek", 45)}}),
    ]

    def digest(self, findings):
        return sorted((f.session_id, f.step, f.violation) for f in findings)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_violation_found_after_rehydration(self, run_batch, threads):
        reference = self.audited(max_resident=0)
        run_batch(reference, ("alice", "bob"), self.BATCH)
        service = self.audited(max_resident=1)
        run_batch(service, ("alice", "bob"), self.BATCH, threads)
        if threads == 1:
            assert service.metrics.sessions_evicted > 0
            assert service.metrics.sessions_rehydrated > 0
        assert service.auditor.is_registered("alice")
        findings = self.digest(service.audit_findings())
        assert findings == self.digest(reference.audit_findings())
        assert any(
            session_id == "alice" and step == 2
            for session_id, step, _ in findings
        )
        assert (
            service.metrics.audit_checks == reference.metrics.audit_checks
        )

    def test_registration_survives_eviction(self):
        service = self.audited(max_resident=1)
        service.create_session("alice")
        service.create_session("bob")  # evicts alice
        assert "alice" not in service.resident_session_ids()
        assert service.auditor.is_registered("alice")
        # Re-registering on rehydration is a no-op, not a reset.
        assert service.auditor.register_session("alice") is False


class TestThreeWayEquivalence:
    """{InMemory, Jsonl, Sqlite} x {unbounded, max_resident=1} x
    {serial, threaded} all produce the baseline's bytes."""

    def store_of(self, kind, root):
        if kind == "memory":
            return InMemoryStore()
        if kind == "jsonl":
            return JsonlDirectoryStore(root / "pods")
        return SqliteStore(root / "pods.sqlite")

    @settings(max_examples=6, deadline=None)
    @given(workloads())
    def test_all_backends_and_residencies_agree(self, run_batch, workload):
        counts, order, seed = workload
        scripts = scripts_for(counts, seed, catalog=CATALOG)
        batch = batch_of(scripts, order)
        baseline = PodService(build_friendly(), CATALOG.as_database())
        baseline_results = run_batch(baseline, scripts, batch)
        expected = {
            session_id: canonical(baseline.store.load(session_id))
            for session_id in scripts
        }
        cases = product(
            ("memory", "jsonl", "sqlite"), (0, 1), (1, 3)
        )
        with tempfile.TemporaryDirectory() as scratch:
            for index, (kind, resident, threads) in enumerate(cases):
                root = Path(scratch) / f"case-{index}"
                store = self.store_of(kind, root)
                service = PodService(
                    build_friendly(),
                    CATALOG.as_database(),
                    store=store,
                    max_resident_sessions=resident,
                )
                results = run_batch(service, scripts, batch, threads)
                assert [(r.session, r.step, r.output) for r in results] == [
                    (r.session, r.step, r.output) for r in baseline_results
                ]
                for session_id in scripts:
                    assert canonical(store.load(session_id)) == expected[
                        session_id
                    ]
                    assert list(
                        service.session(session_id).log().entries
                    ) == list(baseline.session(session_id).log().entries)
                if kind == "memory":
                    continue
                # Restart: a fresh service (and store instance) over the
                # same bytes resumes to the same sessions.
                revived = PodService(
                    build_friendly(),
                    CATALOG.as_database(),
                    store=self.store_of(kind, root),
                    max_resident_sessions=resident,
                )
                for session_id in scripts:
                    assert revived.session(
                        session_id
                    ).state == baseline.session(session_id).state

    @settings(max_examples=4, deadline=None)
    @given(workloads())
    def test_forced_eviction_mid_run_then_restart(self, run_batch, workload):
        """Half the batch unbounded, then the bound drops to 1 by
        'restarting' over the same store -- the tail still matches."""
        counts, order, seed = workload
        scripts = scripts_for(counts, seed, catalog=CATALOG)
        batch = batch_of(scripts, order)
        half = len(batch) // 2
        baseline = PodService(build_friendly(), CATALOG.as_database())
        run_batch(baseline, scripts, batch)
        with tempfile.TemporaryDirectory() as scratch:
            store = SqliteStore(Path(scratch) / "pods.sqlite")
            first = PodService(
                build_friendly(), CATALOG.as_database(), store=store
            )
            run_batch(first, scripts, batch[:half])
            second = PodService(
                build_friendly(),
                CATALOG.as_database(),
                store=store,
                max_resident_sessions=1,
            )
            second.submit_batch(batch[half:])
            for session_id in scripts:
                assert canonical(store.load(session_id)) == canonical(
                    baseline.store.load(session_id)
                )


class TestCrashSafeCompaction:
    def multi_record_store(self, tmp_path):
        store = JsonlDirectoryStore(
            tmp_path / "pods", compact_on_open=False
        )
        service = PodService(build_short(), default_database(), store=store)
        handle = service.create_session("alice")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        service.submit(StepRequest(handle, {"pay": {("time", 55)}}))
        return store

    def test_killed_mid_compaction_loses_nothing(self, tmp_path, monkeypatch):
        store = self.multi_record_store(tmp_path)
        before = canonical(store.load("alice"))

        def power_cut(src, dst):
            raise RuntimeError("killed mid-compaction")

        with monkeypatch.context() as patch:
            # Die after the scratch file is written, before the atomic
            # replace: the moment a real kill is most tempted to corrupt.
            patch.setattr(os, "replace", power_cut)
            with pytest.raises(RuntimeError, match="killed"):
                store.compact()
        # The original event file is untouched and still loads fully...
        assert canonical(store.load("alice")) == before
        # ...the stale scratch is swept on the next open, and compaction
        # completes to an equivalent (now single-snapshot) file.
        reopened = JsonlDirectoryStore(tmp_path / "pods")
        assert list((tmp_path / "pods").glob("*.tmp")) == []
        assert canonical(reopened.load("alice")) == before

    def test_concurrent_append_never_lost(self, tmp_path):
        """An append racing compact() lands in the post-compaction file
        (the per-session lock covers read-fold-replace)."""
        store = self.multi_record_store(tmp_path)
        service = PodService(build_short(), default_database(), store=store)
        done = threading.Event()

        def appender():
            session = service.session("alice")
            for _ in range(20):
                service.submit(
                    StepRequest("alice", {"order": {("newsweek",)}})
                )
            done.set()
            return session

        thread = threading.Thread(target=appender)
        thread.start()
        while not done.is_set():
            store.compact()
        thread.join()
        store.compact()
        assert store.load("alice").steps == 22


class TestStoreLifecycleDefaults:
    def test_inmemory_and_jsonl_have_the_surface(self, tmp_path):
        memory = InMemoryStore()
        with memory as store:
            store.record_created("alice")
        stats = memory.stats()
        assert stats.sessions == 1 and stats.bytes_on_disk == 0
        jsonl = JsonlDirectoryStore(tmp_path / "pods")
        service = PodService(build_short(), default_database(), store=jsonl)
        handle = service.create_session("bob")
        service.submit(StepRequest(handle, {"order": {("time",)}}))
        service.close_session(handle)
        service.create_session("carol")
        stats = jsonl.stats()
        assert stats.sessions == 2
        assert stats.open_sessions == 1
        assert stats.bytes_on_disk > 0
        assert stats.events >= 4  # created+step+closed for bob, created carol

    def test_five_method_store_rejected(self):
        class FiveMethods:
            """Records and loads sessions, but lacks the lifecycle."""

            def __init__(self):
                self.inner = InMemoryStore()

            def record_created(self, session_id):
                self.inner.record_created(session_id)

            def record_step(self, session_id, steps, state, log_entry):
                self.inner.record_step(session_id, steps, state, log_entry)

            def record_closed(self, session_id):
                self.inner.record_closed(session_id)

            def load(self, session_id):
                return self.inner.load(session_id)

            def session_ids(self):
                return self.inner.session_ids()

        for store in (FiveMethods(), 42):
            with pytest.raises(StoreError, match="not a session store"):
                PodService(build_short(), default_database(), store=store)

    def test_required_methods_are_the_protocol(self):
        public = {name for name in vars(SessionStore) if not name.startswith("_")}
        assert set(_STORE_METHODS) == public

    def test_forwarding_wrapper_accepted(self):
        """A wrapper that forwards unknown attributes to a real store
        (the shape of podbench's tracing store) is a session store, and
        the service's lifecycle calls reach the wrapped store.  It
        defines only ``evict`` on its class, so a static protocol check
        (``isinstance`` from Python 3.12) would reject it."""

        class Forwarding:
            def __init__(self, inner):
                self._inner = inner
                self.evicted = []

            def evict(self, session_id):
                self.evicted.append(session_id)
                self._inner.evict(session_id)

            def __getattr__(self, attribute):
                return getattr(self._inner, attribute)

        inner = InMemoryStore()
        store = Forwarding(inner)
        service = PodService(
            build_short(),
            default_database(),
            store=store,
            max_resident_sessions=1,
        )
        order = {"order": {("time",)}}
        for session_id in ("alice", "bob"):
            service.submit(StepRequest(service.create_session(session_id), order))
        assert store.evicted == ["alice"]
        results = service.submit_batch([StepRequest("alice", order)])
        assert results[0].step == 2
        assert inner.load("alice").steps == 2
        service.close()


class TestOneCommitPerBatch:
    """``durability="step"``/``"full"`` commit once per ``submit_batch``.

    Inside the batch each event runs in its own savepoint; the batch
    commits once, before ``submit_batch`` returns -- also when it
    raises.  Every check reopens the file with a fresh store, so it
    reads what is on disk, not what one connection has buffered.
    """

    SCRIPT = [
        {"order": {("time",)}},
        {"order": {("newsweek",)}},
        {"pay": {("time", 55)}},
    ]

    def batch(self, ids):
        return [
            StepRequest(session_id, step)
            for step in self.SCRIPT
            for session_id in ids
        ]

    def reopened(self, path):
        return SqliteStore(path)

    @pytest.mark.parametrize("durability", ["step", "full"])
    def test_one_batch_commits_once(self, tmp_path, durability):
        store = SqliteStore(tmp_path / "pods.sqlite", durability=durability)
        service = PodService(build_short(), default_database(), store=store)
        ids = [f"s{index}" for index in range(11)]
        for session_id in ids:
            service.create_session(session_id)
        requests = self.batch(ids)[:32]
        assert len(requests) == 32

        before = store.stats().commits
        service.submit_batch(requests)
        assert store.stats().commits - before == 1

        before = store.stats().commits
        for request in requests:
            service.submit(request)
        assert store.stats().commits - before == 32

    def test_other_stores_count_no_commits(self, tmp_path):
        assert InMemoryStore().stats().commits == 0
        assert JsonlDirectoryStore(tmp_path / "j").stats().commits == 0

    def test_batch_is_durable_when_it_returns(self, tmp_path):
        path = tmp_path / "pods.sqlite"
        service = PodService(
            build_short(), default_database(), store=SqliteStore(path)
        )
        for session_id in ("alice", "bob"):
            service.create_session(session_id)
        service.submit_batch(self.batch(["alice", "bob"]))
        other = self.reopened(path)  # a second connection to the file
        for session_id in ("alice", "bob"):
            snapshot = other.load(session_id)
            assert snapshot.steps == 3
            assert canonical(snapshot) == canonical(
                service.session(session_id).snapshot()
            )

    CHILD = """
import os, sys
from repro.commerce.models import build_short, default_database
from repro.pods import PodService, SqliteStore, StepRequest

store = SqliteStore(sys.argv[1])
service = PodService(build_short(), default_database(), store=store)
record_step = store.record_step
calls = [0]

def dying_record_step(*args):
    record_step(*args)
    calls[0] += 1
    if calls[0] == int(sys.argv[2]):
        os._exit(17)  # no finally, no atexit: a hard kill mid-batch

store.record_step = dying_record_step
service.submit_batch(
    [
        StepRequest(session_id, step)
        for step in ({"pay": {("time", 55)}}, {"order": {("le_monde",)}})
        for session_id in ("alice", "bob")
    ]
)
"""

    def test_killed_mid_batch_leaves_pre_batch_snapshots(self, tmp_path):
        import subprocess
        import sys as sys_module

        path = tmp_path / "pods.sqlite"
        store = SqliteStore(path)
        service = PodService(build_short(), default_database(), store=store)
        for session_id in ("alice", "bob"):
            service.create_session(session_id)
            service.submit(StepRequest(session_id, {"order": {("time",)}}))
        store.close()
        reopened = self.reopened(path)
        before = {
            session_id: canonical(reopened.load(session_id))
            for session_id in ("alice", "bob")
        }
        reopened.close()
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        for kill_at in (1, 3):
            proc = subprocess.run(
                [sys_module.executable, "-c", self.CHILD, str(path),
                 str(kill_at)],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 17, proc.stderr
            after = self.reopened(path)
            for session_id, snapshot in before.items():
                assert canonical(after.load(session_id)) == snapshot
            after.close()

    def test_store_error_keeps_the_events_before_it(self, tmp_path):
        path = tmp_path / "pods.sqlite"
        store = SqliteStore(path)
        service = PodService(build_short(), default_database(), store=store)
        for session_id in ("alice", "bob"):
            service.create_session(session_id)
        # Fail the 5th event of the batch (alice's step 3) in SQLite
        # itself, after its snapshot UPDATE already ran.
        store._conn.execute(
            "CREATE TRIGGER fail_fifth BEFORE INSERT ON events "
            "WHEN NEW.session_id = 'alice' AND NEW.step = 3 "
            "BEGIN SELECT RAISE(ABORT, 'injected'); END"
        )
        store._conn.commit()
        with pytest.raises(StoreError, match="injected"):
            service.submit_batch(self.batch(["alice", "bob"]))
        after = self.reopened(path)
        for session_id in ("alice", "bob"):
            snapshot = after.load(session_id)
            assert snapshot.steps == 2
            assert len(snapshot.log_facts) == snapshot.steps
            (rows,) = after._conn.execute(
                "SELECT COUNT(*) FROM events WHERE session_id = ?",
                (session_id,),
            ).fetchone()
            assert rows == snapshot.steps

    def test_strict_audit_violation_keeps_the_violating_step(self, tmp_path):
        path = tmp_path / "pods.sqlite"
        service = PodService(
            build_buggy_store(),
            default_database(),
            store=SqliteStore(path),
            auditor=OnlineAuditor(
                [LogValidity()], reference=build_short(), strict=True
            ),
        )
        for session_id in ("alice", "bob"):
            service.create_session(session_id)
        with pytest.raises(AuditViolation) as raised:
            service.submit_batch(TestAuditSurvivesRehydration.BATCH)
        # alice's step 2 violated; bob's step 2 never ran.
        assert [r is not None for r in raised.value.partial_results] == [
            True, True, False, False,
        ]
        after = self.reopened(path)
        assert after.load("alice").steps == 2
        assert len(after.load("alice").log_facts) == 2
        assert after.load("bob").steps == 1

    def test_scope_is_per_thread(self, tmp_path):
        store = SqliteStore(tmp_path / "pods.sqlite")
        service = PodService(build_short(), default_database(), store=store)
        service.create_session("alice")
        service.create_session("bob")
        inside = threading.Event()
        release = threading.Event()

        def scoped():
            with store.scope():
                service.submit(StepRequest("alice", self.SCRIPT[0]))
                inside.set()
                release.wait(10)

        worker = threading.Thread(target=scoped)
        worker.start()
        assert inside.wait(10)
        before = store.stats().commits
        # Outside any scope: committed at once, with the open scope's
        # events (which only become durable sooner).
        service.submit(StepRequest("bob", self.SCRIPT[0]))
        assert store.stats().commits == before + 1
        other = self.reopened(tmp_path / "pods.sqlite")
        assert other.load("bob").steps == 1
        assert other.load("alice").steps == 1
        release.set()
        worker.join(10)

    def test_concurrent_batches_are_durable(self, tmp_path):
        path = tmp_path / "pods.sqlite"
        store = SqliteStore(path)
        service = PodService(build_short(), default_database(), store=store)
        ids = [f"s{index}" for index in range(8)]
        for session_id in ids:
            service.create_session(session_id)
        threads = [
            threading.Thread(
                target=service.submit_batch,
                args=(self.batch(ids[part::2]),),
            )
            for part in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        after = self.reopened(path)
        for session_id in ids:
            assert canonical(after.load(session_id)) == canonical(
                service.session(session_id).snapshot()
            )


class TestSqliteImportRace:
    def test_racing_imports_of_one_id(self, tmp_path, monkeypatch):
        """Both importers pass a ``load()`` pre-check together; only
        one may win, and the loser sees ``SessionError``."""
        source = SqliteStore(tmp_path / "source.sqlite")
        source.record_created("alice")
        snapshot = source.load("alice")
        store = SqliteStore(tmp_path / "pods.sqlite")
        barrier = threading.Barrier(2)
        load = store.load

        def meeting_load(session_id):
            try:
                barrier.wait(timeout=1.0)
            except threading.BrokenBarrierError:
                pass
            return load(session_id)

        monkeypatch.setattr(store, "load", meeting_load)
        outcomes = []

        def importer():
            try:
                store.import_snapshot(snapshot)
                outcomes.append("imported")
            except Exception as error:
                outcomes.append(error)

        threads = [threading.Thread(target=importer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert outcomes.count("imported") == 1
        (error,) = [o for o in outcomes if o != "imported"]
        assert type(error) is SessionError
        assert "already exists" in str(error)


_VALUES = st.one_of(
    st.integers(-5, 5),
    st.floats(allow_nan=False, width=32),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
_CELLS = st.one_of(_VALUES, st.tuples(_VALUES, _VALUES))


class TestStateMemo:
    """The SQLite state column is assembled from per-relation JSON
    fragments; it must equal encoding the whole state, byte for byte."""

    SCHEMA = DatabaseSchema([
        RelationSchema("past-order", 1),
        RelationSchema("past-pay", 2),
        RelationSchema("zébu", 2),
        RelationSchema("a b", 1),
    ])

    @staticmethod
    def stored_state(store, session_id):
        (text,) = store._conn.execute(
            "SELECT state FROM snapshots WHERE session_id = ?", (session_id,)
        ).fetchone()
        return text

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_state_text_equals_whole_encoding(self, data):
        from repro.pods.api import facts_of
        from repro.relalg.instance import Instance

        with tempfile.TemporaryDirectory() as directory:
            store = SqliteStore(Path(directory) / "pods.sqlite")
            store.record_created("s")
            relations = {rel.name: frozenset() for rel in self.SCHEMA}
            for step in range(1, data.draw(st.integers(1, 6)) + 1):
                for rel in self.SCHEMA:
                    rows = st.frozensets(
                        st.tuples(*[_CELLS] * rel.arity), max_size=4
                    )
                    change = data.draw(
                        st.sampled_from(["keep", "grow", "replace"])
                    )
                    if change == "grow":  # the Spocus shape: cumulative
                        relations[rel.name] = relations[rel.name] | data.draw(
                            rows
                        )
                    elif change == "replace":  # may shrink (non-Spocus)
                        relations[rel.name] = data.draw(rows)
                state = Instance(self.SCHEMA, relations)
                store.record_step("s", step, state, None)
                assert self.stored_state(store, "s") == json.dumps(
                    _encode_facts(facts_of(state)), sort_keys=True
                )
            store.close()

    def test_spocus_state_keeps_unchanged_relations(self):
        session = fresh_session()
        session.step({"order": {("time",)}})
        before = session.state
        session.step({"order": {("time",)}, "pay": {("time", 55)}})
        after = session.state
        assert after["past-order"] is before["past-order"]
        assert after["past-pay"] is not before["past-pay"]

    def test_no_memo_survives_eviction_or_close(self, tmp_path):
        store = SqliteStore(tmp_path / "pods.sqlite")
        service = PodService(
            build_short(),
            default_database(),
            store=store,
            max_resident_sessions=1,
        )
        for session_id in ("alice", "bob"):
            service.create_session(session_id)
        service.submit(StepRequest("alice", {"order": {("time",)}}))
        assert set(store._state_memo) == {"alice"}
        service.submit(StepRequest("bob", {"order": {("time",)}}))
        assert set(store._state_memo) == {"bob"}  # alice was evicted
        service.close_session("bob")
        assert store._state_memo == {}
        service.submit(StepRequest("alice", {"pay": {("time", 55)}}))
        assert set(store._state_memo) == {"alice"}
        store.close()
        assert store._state_memo == {}

    def test_recreating_an_id_drops_its_memo(self, tmp_path):
        store = SqliteStore(tmp_path / "pods.sqlite")
        session = fresh_session("alice")
        store.record_created("alice")
        session.step({"order": {("time",)}})
        store.record_step("alice", 1, session.state, None)
        assert "alice" in store._state_memo
        store.record_created("alice")
        assert "alice" not in store._state_memo
