"""Tests for the pod service layer: typed API, stores, sharding.

Sharding is one topology: :class:`~repro.server.frontend.PodServer`
worker processes, routed by :func:`~repro.pods.service.shard_of`.  The
routing tests drive a two-worker server through :class:`PodClient`.
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
from repro.errors import ReproError, SessionError, ShardError
from repro.pods import (
    InMemoryStore,
    JsonlDirectoryStore,
    PodService,
    RuntimeMetrics,
    SessionHandle,
    StepRequest,
    merge_snapshots,
    open_store,
    shard_of,
)
from repro.server import PodClient, PodServer


@pytest.fixture
def service():
    return PodService(build_short(), default_database())


@pytest.fixture(scope="module")
def two_workers():
    """A two-worker pod server over SHORT and a client for it, shared by
    the routing tests (each test uses its own session ids)."""
    with PodServer(build_short, default_database(), workers=2) as server:
        yield server, PodClient(server.url, build_short())


def make_scripts(count, length, catalog):
    return {
        f"customer-{n:04d}": SessionGenerator(
            catalog, seed=n, supports_pending_bills=True
        ).session(length)
        for n in range(count)
    }


class TestTypedApi:
    def test_submit_returns_typed_results(self, service):
        handle = service.create_session("alice")
        assert handle == SessionHandle("alice", 0)
        result = service.submit(StepRequest(handle, FIGURE1_INPUTS[0]))
        assert result.session == handle
        assert result.step == 1
        assert result.latency_seconds > 0
        assert ("time", 55) in result.output["sendbill"]

    def test_string_ids_are_accepted_everywhere(self, service):
        service.create_session("alice")
        result = service.submit(StepRequest("alice", FIGURE1_INPUTS[0]))
        assert result.session.session_id == "alice"
        assert service.session("alice").steps == 1
        assert len(service.close_session("alice")) == 1

    def test_submit_batch_matches_run_semantics(self, service):
        handle = service.create_session()
        results = service.submit_batch(
            StepRequest(handle, inputs) for inputs in FIGURE1_INPUTS
        )
        run = build_short().run(default_database(), FIGURE1_INPUTS)
        assert [r.output for r in results] == list(run.outputs)
        assert [r.step for r in results] == [1, 2, 3, 4]

    def test_unknown_session_raises_session_error(self, service):
        with pytest.raises(SessionError, match="no such session"):
            service.submit(StepRequest("ghost", FIGURE1_INPUTS[0]))
        # The runtime error is catchable at the library boundary.
        with pytest.raises(ReproError):
            service.session("ghost")

    def test_duplicate_and_malformed_ids_rejected(self, service):
        service.create_session("alice")
        with pytest.raises(SessionError, match="already exists"):
            service.create_session("alice")
        for bad in ("", "no spaces", "a/b", 7):
            with pytest.raises(SessionError, match="invalid session id"):
                service.create_session(bad)

    def test_generated_ids_are_unique_and_ordered(self, service):
        handles = service.create_sessions(5)
        ids = [handle.session_id for handle in handles]
        assert ids == sorted(set(ids))
        assert service.session_ids() == ids


class TestShardRouting:
    def test_same_id_same_shard_across_instances(self):
        ids = [f"customer-{n}" for n in range(40)]
        first = [shard_of(session_id, 4) for session_id in ids]
        second = [shard_of(session_id, 4) for session_id in ids]
        assert first == second
        assert set(first) == {0, 1, 2, 3}

    def test_service_routing_matches_shard_of(self, two_workers):
        server, client = two_workers
        for n in range(20):
            handle = client.create_session(f"route-{n}")
            assert handle.shard == shard_of(handle.session_id, 2)
            assert server.route(handle.session_id) == handle.shard
        # A worker's PodService stamps its handles with its shard_index.
        service = PodService(build_short(), default_database(), shard_index=3)
        assert service.create_session("alice") == SessionHandle("alice", 3)

    def test_sessions_live_only_on_their_shard(self, two_workers):
        server, client = two_workers
        handle = client.create_session("alice")
        for index in range(server.worker_count):
            shard_ids = server.worker(index).call("ids", {})["session_ids"]
            assert ("alice" in shard_ids) == (index == handle.shard)

    def test_invalid_shard_configuration(self):
        with pytest.raises(ShardError):
            shard_of("alice", 0)

    def test_sharded_metrics_are_merged(self, two_workers):
        server, client = two_workers
        before = client.metrics_payload()["per_worker"]
        for n in range(6):
            client.run_session(
                client.create_session(f"merged-{n}"), FIGURE1_INPUTS[:2]
            )
        payload = client.metrics_payload()
        added = [
            {key: row[key] - old[key] for key in ("sessions_created", "steps_executed")}
            for row, old in zip(payload["per_worker"], before)
        ]
        assert sum(row["sessions_created"] for row in added) == 6
        assert sum(row["steps_executed"] for row in added) == 12
        assert all(row["steps_executed"] for row in added)  # both shards
        assert payload["pods"]["steps_executed"] == sum(
            row["steps_executed"] for row in payload["per_worker"]
        )


class TestStores:
    def test_open_store_coercions(self, tmp_path):
        assert isinstance(open_store(None), InMemoryStore)
        assert isinstance(open_store(tmp_path / "pods"), JsonlDirectoryStore)
        store = InMemoryStore()
        assert open_store(store) is store
        with pytest.raises(SessionError):
            open_store(42)

    def test_in_memory_store_hands_sessions_between_services(self):
        store = InMemoryStore()
        first = PodService(build_short(), default_database(), store=store)
        handle = first.create_session("alice")
        first.run_session(handle, FIGURE1_INPUTS[:2])
        second = PodService(build_short(), default_database(), store=store)
        assert second.stored_session_ids() == ["alice"]
        second.run_session(handle, FIGURE1_INPUTS[2:])
        run = build_short().run(default_database(), FIGURE1_INPUTS)
        assert list(second.session(handle).log().entries) == list(run.logs)

    def test_jsonl_restart_roundtrip_equals_uninterrupted_run(self, tmp_path):
        """Acceptance: stop a JSONL-backed service mid-workload, recreate
        it over the same directory, finish, and get byte-identical
        per-session logs to an uninterrupted in-memory run."""
        transducer = build_friendly()
        catalog = CatalogGenerator(seed=3).generate(25)
        scripts = make_scripts(6, 6, catalog)

        uninterrupted = PodService(transducer, catalog.as_database())
        for session_id in scripts:
            uninterrupted.create_session(session_id)
        uninterrupted.drive(scripts)

        interrupted = PodService(
            transducer, catalog.as_database(), store=tmp_path / "pods"
        )
        for session_id in scripts:
            interrupted.create_session(session_id)
        interrupted.drive(
            {sid: script[:3] for sid, script in scripts.items()}
        )
        del interrupted  # the serving process "dies"

        revived = PodService(
            transducer, catalog.as_database(), store=tmp_path / "pods"
        )
        assert revived.stored_session_ids() == sorted(scripts)
        revived.drive({sid: script[3:] for sid, script in scripts.items()})
        for session_id in scripts:
            assert (
                list(revived.session(session_id).log().entries)
                == list(uninterrupted.session(session_id).log().entries)
            )
            assert (
                revived.session(session_id).state
                == uninterrupted.session(session_id).state
            )
        assert revived.metrics.sessions_resumed == len(scripts)

    def test_jsonl_roundtrip_without_logs(self, tmp_path):
        service = PodService(
            build_short(),
            default_database(),
            store=tmp_path / "pods",
            keep_logs=False,
        )
        handle = service.create_session("alice")
        service.run_session(handle, FIGURE1_INPUTS[:2])
        revived = PodService(
            build_short(),
            default_database(),
            store=tmp_path / "pods",
            keep_logs=False,
        )
        session = revived.session(handle)
        assert session.steps == 2
        assert len(session.log()) == 0
        assert session.state == service.session(handle).state

    def test_resume_with_mismatched_keep_logs_is_rejected(self, tmp_path):
        unlogged = PodService(
            build_short(),
            default_database(),
            store=tmp_path / "pods",
            keep_logs=False,
        )
        handle = unlogged.create_session("alice")
        unlogged.run_session(handle, FIGURE1_INPUTS[:2])
        logged = PodService(
            build_short(), default_database(), store=tmp_path / "pods"
        )
        with pytest.raises(SessionError, match="keep_logs"):
            logged.session(handle)

    def test_closed_sessions_are_not_resumable(self, tmp_path):
        store = JsonlDirectoryStore(tmp_path / "pods")
        service = PodService(build_short(), default_database(), store=store)
        handle = service.create_session("alice")
        service.run_session(handle, FIGURE1_INPUTS[:1])
        service.close_session(handle)
        assert store.load("alice") is None
        assert store.session_ids() == []
        revived = PodService(build_short(), default_database(), store=store)
        with pytest.raises(SessionError, match="no such session"):
            revived.session("alice")
        # The id becomes free again after closing.
        revived.create_session("alice")

    def test_restart_at_step_0_restores_initial_state(self, tmp_path):
        """Regression: a never-stepped session resumes at S_0, not at the
        all-empty state.  Both stores snapshot ``state_facts={}`` before
        the first record_step, so the restore path must rebuild the
        transducer's initial state (which need not be empty)."""
        from repro.core.schema import TransducerSchema
        from repro.core.transducer import FunctionalTransducer
        from repro.relalg.instance import Instance
        from repro.relalg.schema import DatabaseSchema

        schema = TransducerSchema(
            DatabaseSchema.of(ping=1),
            DatabaseSchema.of(seen=1),
            DatabaseSchema.of(echo=1),
            DatabaseSchema.of(),
            (),
        )

        class Seeded(FunctionalTransducer):
            def initial_state(self):
                return Instance(self.schema.state, {"seen": {("seed",)}})

        def make_transducer():
            return Seeded(
                schema,
                lambda inputs, state, db: Instance(
                    schema.state, {"seen": state["seen"] | inputs["ping"]}
                ),
                lambda inputs, state, db: Instance(
                    schema.outputs, {"echo": state["seen"]}
                ),
            )

        for store in (InMemoryStore(), JsonlDirectoryStore(tmp_path / "p")):
            service = PodService(make_transducer(), {}, store=store)
            handle = service.create_session("alice")
            del service  # dies before the session ever stepped
            revived = PodService(make_transducer(), {}, store=store)
            session = revived.session(handle)
            assert session.steps == 0
            assert session.state["seen"] == frozenset({("seed",)})
            # The first step behaves exactly as in an uninterrupted run:
            # the output reads S_0, so the seed row must be visible.
            result = revived.submit(StepRequest(handle, {"ping": {("x",)}}))
            assert result.output["echo"] == frozenset({("seed",)})

    def test_session_ids_scans_without_decoding_facts(
        self, tmp_path, monkeypatch
    ):
        """Regression: deciding resumability must not replay (and decode
        the facts of) every event file -- O(lines), not O(total facts)."""
        import repro.pods.store as store_module

        service = PodService(
            build_short(), default_database(), store=tmp_path / "pods"
        )
        service.create_session("alice")
        service.run_session("alice", FIGURE1_INPUTS[:2])
        service.create_session("bob")  # fresh: created record only
        service.create_session("carol")
        service.run_session("carol", FIGURE1_INPUTS[:1])
        service.close_session("carol")

        def boom(encoded):
            raise AssertionError("session_ids() must not decode facts")

        monkeypatch.setattr(store_module, "_decode_facts", boom)
        assert service.stored_session_ids() == ["alice", "bob"]
        monkeypatch.undo()
        # The cheap scan agrees with the full replay's notion of
        # resumability, and load() itself still decodes.
        assert [
            sid
            for sid in ("alice", "bob", "carol")
            if service.store.load(sid) is not None
        ] == ["alice", "bob"]

    def test_sharded_service_with_per_shard_stores(self, tmp_path):
        transducer = build_friendly()
        catalog = CatalogGenerator(seed=3).generate(25)
        scripts = make_scripts(8, 4, catalog)

        def serve():
            return PodServer(
                build_friendly,
                catalog.as_database(),
                workers=2,
                store_root=str(tmp_path),
            )

        with serve() as first:
            client = PodClient(first.url, transducer)
            for session_id in scripts:
                client.create_session(session_id)
            client.drive({sid: script[:2] for sid, script in scripts.items()})
        # Each worker kept its sessions in its own store directory.
        for index in range(2):
            assert JsonlDirectoryStore(
                tmp_path / f"shard-{index:02d}"
            ).session_ids() == sorted(
                sid for sid in scripts if shard_of(sid, 2) == index
            )

        with serve() as revived:
            client = PodClient(revived.url, transducer)
            client.drive({sid: script[2:] for sid, script in scripts.items()})
            assert client.session_ids() == sorted(scripts)
            for session_id, script in scripts.items():
                run = transducer.run(catalog.as_database(), script)
                assert (
                    list(client.session(session_id).log().entries)
                    == list(run.logs)
                )


class TestWorkloadDriverOnPods:
    def test_sharded_workload_matches_single_engine(self, drive_customers):
        catalog = CatalogGenerator(seed=2).generate(30)
        single = PodService(build_friendly(), catalog.as_database())
        with PodServer(
            build_friendly, catalog.as_database(), workers=4
        ) as server:
            sharded = PodClient(server.url, build_friendly())
            for service in (single, sharded):
                scripts = drive_customers(service, catalog, 12, 4, seed=5)
            assert len({shard_of(sid, 4) for sid in scripts}) > 1
            payload = sharded.metrics_payload()
            assert len(payload["per_worker"]) == 4
            assert sum(
                1 for row in payload["per_worker"] if row["steps_executed"]
            ) > 1
            assert (
                payload["pods"]["steps_executed"]
                == single.metrics.steps_executed
                == 48
            )
            assert sharded.session_ids() == single.session_ids()
            assert [
                sharded.session(sid).log() for sid in sharded.session_ids()
            ] == single.logs()

    def test_workload_with_persistent_store(self, tmp_path, drive_customers):
        catalog = CatalogGenerator(seed=2).generate(10)
        service = PodService(
            build_short(), catalog.as_database(), store=tmp_path / "pods"
        )
        drive_customers(service, catalog, 4, 3, pending_bills=False)
        assert service.metrics.steps_executed == 12
        store = JsonlDirectoryStore(tmp_path / "pods")
        assert store.session_ids() == [f"customer-{n:06d}" for n in range(4)]


class TestMergedMetrics:
    def test_merged_sums_counts_and_combines_extremes(self):
        first, second, idle = RuntimeMetrics(), RuntimeMetrics(), RuntimeMetrics()
        first.record_session()
        first.record_step(0.5)
        second.record_session()
        second.record_resume()
        second.record_step(0.1)
        second.record_step(0.9)
        snapshots = [m.snapshot() for m in (first, second, idle)]
        merged = merge_snapshots(snapshots)
        assert merged["sessions_created"] == 2
        assert merged["sessions_resumed"] == 1
        assert merged["steps_executed"] == 3
        # A worker with no steps reports min 0.0; it must not win.
        assert merged["min_step_latency_seconds"] == 0.1
        assert merged["max_step_latency_seconds"] == 0.9
        assert merged["mean_step_latency_seconds"] == 0.5
        assert merged["elapsed_seconds"] == max(
            s["elapsed_seconds"] for s in snapshots
        )

    def test_merged_of_nothing_is_empty(self):
        merged = merge_snapshots([])
        assert merged["steps_executed"] == 0
        assert merged["min_step_latency_seconds"] == 0.0
        assert merged["steps_per_second"] == 0.0

    def test_merge_snapshots_sums_counts_but_maxes_gauges(self):
        first, second = RuntimeMetrics(), RuntimeMetrics()
        first.record_step(0.5)
        second.record_step(0.1)
        one, two = first.snapshot(), second.snapshot()
        # interned_constants is a point-in-time gauge of one shared
        # pool; two snapshots of the same process must not double it.
        one["interned_constants"], two["interned_constants"] = 40, 70
        one["kernels_compiled"], two["kernels_compiled"] = 3, 5
        merged = merge_snapshots([one, two])
        assert merged["steps_executed"] == 2
        assert merged["interned_constants"] == 70
        assert merged["kernels_compiled"] == 5

    def test_kernels_compiled_is_a_process_wide_gauge(self):
        # Kernels live on the process-wide shared plan, so a second
        # service over the same transducer compiles none of its own; a
        # per-service count would report 0 beside its kernel hits.
        snapshots = []
        for _ in range(2):
            service = PodService(build_short(), default_database())
            handle = service.create_session()
            for inputs in FIGURE1_INPUTS:
                service.submit(StepRequest(handle, inputs))
            snapshots.append(service.metrics.snapshot())
        first, second = snapshots
        assert second["kernel_hits"] > 0
        assert first["kernels_compiled"] > 0
        assert second["kernels_compiled"] == first["kernels_compiled"]


class TestSnapshotCompaction:
    def test_reopen_truncates_to_created_plus_snapshot(self, tmp_path):
        service = PodService(
            build_short(), default_database(), store=tmp_path / "pods"
        )
        handle = service.create_session("alice")
        service.run_session(handle, FIGURE1_INPUTS)
        path = service.store.path_of("alice")
        assert len(path.read_text().splitlines()) == 1 + len(FIGURE1_INPUTS)
        before = service.store.load("alice")
        del service

        reopened = JsonlDirectoryStore(tmp_path / "pods")
        assert len(path.read_text().splitlines()) == 2
        assert reopened.load("alice") == before

    def test_restart_equivalence_after_compaction(self, tmp_path):
        """Acceptance: compaction on restart changes bytes, not behavior
        -- the resumed session finishes with the uninterrupted run's
        exact log and state."""
        transducer = build_friendly()
        catalog = CatalogGenerator(seed=5).generate(25)
        scripts = make_scripts(4, 6, catalog)

        uninterrupted = PodService(transducer, catalog.as_database())
        for session_id in scripts:
            uninterrupted.create_session(session_id)
        uninterrupted.drive(scripts)

        interrupted = PodService(
            transducer, catalog.as_database(), store=tmp_path / "pods"
        )
        for session_id in scripts:
            interrupted.create_session(session_id)
        interrupted.drive({sid: script[:3] for sid, script in scripts.items()})
        del interrupted

        # Reopening the directory compacts every session file ...
        revived = PodService(
            transducer, catalog.as_database(), store=tmp_path / "pods"
        )
        store = revived.store
        for session_id in scripts:
            assert len(store.path_of(session_id).read_text().splitlines()) == 2
        # ... and the runs continue exactly where they stopped.
        revived.drive({sid: script[3:] for sid, script in scripts.items()})
        for session_id in scripts:
            assert (
                list(revived.session(session_id).log().entries)
                == list(uninterrupted.session(session_id).log().entries)
            )
            assert (
                revived.session(session_id).state
                == uninterrupted.session(session_id).state
            )

    def test_compaction_is_idempotent_and_files_stay_appendable(
        self, tmp_path
    ):
        service = PodService(
            build_short(), default_database(), store=tmp_path / "pods"
        )
        handle = service.create_session("alice")
        service.run_session(handle, FIGURE1_INPUTS[:2])
        store = JsonlDirectoryStore(tmp_path / "pods")
        assert store.compact() == 0  # open already compacted it
        before = store.load("alice")

        # New steps append after the snapshot record and replay on top.
        revived = PodService(
            build_short(), default_database(), store=store
        )
        revived.run_session(handle, FIGURE1_INPUTS[2:])
        after = store.load("alice")
        assert after.steps == len(FIGURE1_INPUTS)
        assert len(after.log_facts) == len(FIGURE1_INPUTS)
        assert before.log_facts == after.log_facts[:2]

    def test_compact_skips_closed_and_fresh_sessions(self, tmp_path):
        store = JsonlDirectoryStore(tmp_path / "pods")
        service = PodService(build_short(), default_database(), store=store)
        closed = service.create_session("closed")
        service.run_session(closed, FIGURE1_INPUTS[:2])
        service.close_session(closed)
        service.create_session("fresh")
        assert store.compact() == 0
        assert store.load("closed") is None
        assert store.load("fresh").steps == 0


class TestSessionMigration:
    def test_memory_to_jsonl_round_trip(self, tmp_path):
        from repro.pods import migrate_sessions

        memory = InMemoryStore()
        service = PodService(build_short(), default_database(), store=memory)
        for session_id in ("alice", "bob"):
            service.create_session(session_id)
        service.run_session("alice", FIGURE1_INPUTS[:2])
        service.run_session("bob", FIGURE1_INPUTS[:1])

        jsonl = JsonlDirectoryStore(tmp_path / "pods")
        report = migrate_sessions(memory, jsonl)
        assert report.migrated == ("alice", "bob")
        assert report.skipped == () and report.errors == ()
        back = InMemoryStore()
        assert migrate_sessions(jsonl, back).migrated == ("alice", "bob")
        for session_id in ("alice", "bob"):
            assert back.load(session_id) == memory.load(session_id)

    def test_report_is_a_plain_value(self):
        from repro.pods import MigrationReport, migrate_sessions

        memory = InMemoryStore()
        service = PodService(build_short(), default_database(), store=memory)
        service.create_session("alice")
        report = migrate_sessions(memory, InMemoryStore())
        assert report == MigrationReport(migrated=("alice",))
        assert report != ["alice"]
        assert hash(report) == hash(MigrationReport(migrated=("alice",)))
        assert {report: "migrated"}[report] == "migrated"

    def test_migrated_sessions_resume_exactly(self, tmp_path):
        from repro.pods import migrate_sessions

        memory = InMemoryStore()
        service = PodService(build_short(), default_database(), store=memory)
        handle = service.create_session("alice")
        service.run_session(handle, FIGURE1_INPUTS[:2])

        jsonl = JsonlDirectoryStore(tmp_path / "pods")
        migrate_sessions(memory, jsonl)
        moved = PodService(build_short(), default_database(), store=jsonl)
        moved.run_session(handle, FIGURE1_INPUTS[2:])
        run = build_short().run(default_database(), FIGURE1_INPUTS)
        assert list(moved.session(handle).log().entries) == list(run.logs)

    def test_collisions_and_unsupported_destinations_raise(self):
        from repro.pods import migrate_sessions

        memory = InMemoryStore()
        service = PodService(build_short(), default_database(), store=memory)
        service.create_session("alice")
        service.create_session("bob")
        target = InMemoryStore()
        target.record_created("bob")
        with pytest.raises(SessionError, match="already exist"):
            migrate_sessions(memory, target)
        # The collision is detected up front: nothing was migrated.
        assert target.session_ids() == ["bob"]
        with pytest.raises(SessionError, match="import_snapshot"):
            migrate_sessions(memory, object())


class TestEvalMetrics:
    def test_plan_and_eval_counters_aggregate(self):
        service = PodService(build_short(), default_database())
        first = service.create_session()
        second = service.create_session()
        service.run_session(first, FIGURE1_INPUTS)
        service.run_session(second, FIGURE1_INPUTS[:2])
        metrics = service.metrics
        # One compiled plan shared by both sessions (possibly compiled
        # by an earlier test: the cache is process-wide).  Each cache
        # rehydration rebuilds a step context, which re-fetches the
        # plan -- so under a REPRO_MAX_RESIDENT bound the count grows
        # by exactly the rehydrations.
        assert (
            metrics.plans_compiled + metrics.plan_cache_hits
            == 2 + metrics.sessions_rehydrated
        )
        assert metrics.full_rule_evals > 0
        snapshot = metrics.snapshot()
        assert {
            "plans_compiled",
            "plan_cache_hits",
            "full_rule_evals",
            "delta_rule_evals",
            "delta_rules_skipped",
            "static_cache_hits",
        } <= set(snapshot)

    def test_delta_counters_fire_for_state_only_rules(self):
        from repro.core.spocus import SpocusTransducer

        transducer = SpocusTransducer.make(
            inputs={"add": 1},
            outputs={"seen": 1, "known": 2},
            database={"db": 2},
            rules="seen(X) :- add(X);"
                  "known(X, Y) :- past-add(X), db(X, Y);",
        )
        service = PodService(
            transducer, {"db": {("a", "b"), ("b", "c")}}
        )
        handle = service.create_session()
        for value in ("a", "b", "a"):
            service.submit(StepRequest(handle, {"add": {(value,)}}))
        metrics = service.metrics
        # The output of step i sees the state cumulated through step
        # i-1: step 1 evaluates 'known' in full (empty cache), steps 2
        # and 3 extend it from the past-add deltas {a} and {b}.
        assert metrics.delta_rule_evals == 2
        assert metrics.delta_rules_skipped == 0
        # Step 3 re-added 'a', so step 4 sees unchanged state and the
        # rule is skipped outright -- yet still answers from cache.
        result = service.submit(StepRequest(handle, {"add": {("c",)}}))
        assert service.metrics.delta_rules_skipped == 1
        assert result.output["known"] == frozenset(
            {("a", "b"), ("b", "c")}
        )
