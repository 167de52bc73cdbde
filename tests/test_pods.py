"""Tests for the pod service layer: typed API, stores, sharding, shim."""

import warnings

import pytest

from repro.commerce.catalog import CatalogGenerator
from repro.commerce.models import (
    FIGURE1_INPUTS,
    build_friendly,
    build_short,
    default_database,
)
from repro.commerce.workloads import SessionGenerator, simulate_concurrent_customers
from repro.errors import ReproError, SessionError, ShardError
from repro.pods import (
    InMemoryStore,
    JsonlDirectoryStore,
    PodService,
    RuntimeMetrics,
    SessionHandle,
    ShardedPodService,
    StepRequest,
    merge_snapshots,
    open_store,
    shard_of,
)
import repro.runtime.engine as engine_module
from repro.runtime import MultiSessionEngine


@pytest.fixture
def service():
    return PodService(build_short(), default_database())


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

    def test_service_routing_matches_shard_of(self):
        service = ShardedPodService(
            build_short(), default_database(), shards=4
        )
        for n in range(20):
            handle = service.create_session(f"customer-{n}")
            assert handle.shard == shard_of(handle.session_id, 4)
            assert service.shard_for(handle) == handle.shard

    def test_sessions_live_only_on_their_shard(self):
        service = ShardedPodService(
            build_short(), default_database(), shards=4
        )
        handle = service.create_session("alice")
        for index in range(service.shard_count):
            shard_ids = service.shard(index).session_ids()
            assert ("alice" in shard_ids) == (index == handle.shard)

    def test_stale_handle_raises_shard_error(self):
        service = ShardedPodService(
            build_short(), default_database(), shards=4
        )
        handle = service.create_session("alice")
        stale = SessionHandle("alice", (handle.shard + 1) % 4)
        with pytest.raises(ShardError, match="routes to shard"):
            service.submit(StepRequest(stale, FIGURE1_INPUTS[0]))

    def test_invalid_shard_configuration(self):
        with pytest.raises(ShardError):
            ShardedPodService(build_short(), default_database(), shards=0)
        with pytest.raises(ShardError):
            shard_of("alice", 0)
        service = ShardedPodService(
            build_short(), default_database(), shards=2
        )
        with pytest.raises(ShardError, match="no such shard"):
            service.shard(5)

    def test_sharded_metrics_are_merged(self):
        service = ShardedPodService(
            build_short(), default_database(), shards=3
        )
        for n in range(6):
            service.run_session(
                service.create_session(f"customer-{n}"), FIGURE1_INPUTS[:2]
            )
        merged = service.metrics
        assert merged.sessions_created == 6
        assert merged.steps_executed == 12
        assert merged.steps_executed == sum(
            m.steps_executed for m in service.shard_metrics()
        )
        assert merged.snapshot()["steps_executed"] == 12


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

        def factory(index):
            return tmp_path / f"shard-{index:02d}"

        first = ShardedPodService(
            transducer, catalog.as_database(), shards=4, store_factory=factory
        )
        for session_id in scripts:
            first.create_session(session_id)
        first.drive({sid: script[:2] for sid, script in scripts.items()})
        del first

        revived = ShardedPodService(
            transducer, catalog.as_database(), shards=4, store_factory=factory
        )
        assert revived.stored_session_ids() == sorted(scripts)
        revived.drive({sid: script[2:] for sid, script in scripts.items()})
        for session_id, script in scripts.items():
            run = transducer.run(catalog.as_database(), script)
            assert (
                list(revived.session(session_id).log().entries)
                == list(run.logs)
            )


class TestWorkloadDriverOnPods:
    def test_sharded_workload_matches_single_engine(self):
        catalog = CatalogGenerator(seed=2).generate(30)
        kwargs = dict(
            sessions=12, steps_per_session=4, seed=5, keep_logs=True
        )
        single = simulate_concurrent_customers(
            build_friendly(), catalog, **kwargs
        )
        sharded = simulate_concurrent_customers(
            build_friendly(), catalog, shards=4, **kwargs
        )
        assert sharded.shards == 4
        assert sharded.total_steps == single.total_steps
        assert sharded.sample_log_lengths == single.sample_log_lengths

    def test_workload_with_persistent_store(self, tmp_path):
        report = simulate_concurrent_customers(
            build_short(),
            CatalogGenerator(seed=2).generate(10),
            sessions=4,
            steps_per_session=3,
            keep_logs=True,
            store_factory=lambda index: tmp_path / f"shard-{index}",
        )
        assert report.total_steps == 12
        store = JsonlDirectoryStore(tmp_path / "shard-0")
        assert store.session_ids() == [f"customer-{n:06d}" for n in range(4)]


class TestEngineShim:
    pytestmark = pytest.mark.filterwarnings(
        "ignore:MultiSessionEngine is deprecated:DeprecationWarning"
    )

    def test_shim_warns_exactly_once_per_process(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_deprecation_warned", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            MultiSessionEngine(build_short(), default_database())
            MultiSessionEngine(build_short(), default_database())
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1
        assert "PodService" in str(deprecations[0].message)

    def test_shim_parity_with_pr1_behavior(self):
        """The deprecated engine surface produces exactly the outputs,
        logs, and states of the typed service (and of Run)."""
        transducer = build_friendly()
        catalog = CatalogGenerator(seed=3).generate(20)
        scripts = [
            SessionGenerator(
                catalog, seed=s, supports_pending_bills=True
            ).session(5)
            for s in range(4)
        ]
        engine = MultiSessionEngine(transducer, catalog.as_database())
        workload = {engine.create_session(): script for script in scripts}
        assert sorted(workload) == [0, 1, 2, 3]
        engine.drive(workload, round_robin=True)
        for session_id, script in workload.items():
            run = transducer.run(catalog.as_database(), script)
            assert (
                list(engine.session(session_id).log().entries)
                == list(run.logs)
            )
            assert engine.session(session_id).state == run.last_state
        assert engine.metrics.steps_executed == 20
        # Logs returned by the shim carry the PR 1 int ids.
        assert [log.session_id for log in engine.logs()] == [0, 1, 2, 3]
        closed = engine.close_session(2)
        assert closed.session_id == 2

    def test_shim_is_a_thin_client_of_pod_service(self):
        engine = MultiSessionEngine(build_short(), default_database())
        session_id = engine.create_session()
        engine.step(session_id, FIGURE1_INPUTS[0])
        assert isinstance(engine.service, PodService)
        assert engine.service.metrics is engine.metrics
        assert engine.service.session_ids() == [f"{session_id:08d}"]

    def test_shim_unknown_session_raises_session_error(self):
        engine = MultiSessionEngine(build_short(), default_database())
        with pytest.raises(SessionError):
            engine.step(99, FIGURE1_INPUTS[0])


class TestMergedMetrics:
    def test_merged_sums_counts_and_combines_extremes(self):
        first, second = RuntimeMetrics(), RuntimeMetrics()
        first.record_session()
        first.record_step(0.5)
        second.record_session()
        second.record_resume()
        second.record_step(0.1)
        second.record_step(0.9)
        merged = RuntimeMetrics.merged([first, second])
        assert merged.sessions_created == 2
        assert merged.sessions_resumed == 1
        assert merged.steps_executed == 3
        assert merged.step_seconds_min == 0.1
        assert merged.step_seconds_max == 0.9
        assert merged.started_at == min(first.started_at, second.started_at)

    def test_merged_of_nothing_is_empty(self):
        merged = RuntimeMetrics.merged([])
        assert merged.steps_executed == 0
        assert merged.snapshot()["min_step_latency_seconds"] == 0.0

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

    def test_report_still_compares_as_legacy_id_list(self, tmp_path):
        # The PR 2 call shape keeps working (with a one-time
        # DeprecationWarning): the report compares, iterates, and
        # measures like the bare list of migrated ids.
        from repro.pods import migrate_sessions
        from repro.verify import deprecation

        memory = InMemoryStore()
        service = PodService(build_short(), default_database(), store=memory)
        service.create_session("alice")
        report = migrate_sessions(memory, InMemoryStore())
        deprecation._warned_keys.discard("pods.migration-report-as-list")
        with pytest.warns(DeprecationWarning, match="report.migrated"):
            assert report == ["alice"]
        # Once per process: the second legacy use is silent.
        assert list(report) == ["alice"]
        assert len(report) == 1 and "alice" in report

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
