"""Tour of the PodService API: create -> step -> snapshot -> restart -> resume.

The multi-session runtime's public surface is :class:`repro.pods.PodService`:
sessions are addressed by :class:`SessionHandle`, traffic is submitted as
:class:`StepRequest` objects, and every reply is a typed :class:`StepResult`.
Backed by a :class:`JsonlDirectoryStore`, a session's state outlives the
serving process -- the byoda "data pod" shape: stop the service, start a new
one over the same directory, and the conversation continues where it left
off.  :func:`shard_of` is the stable hash that routes each session to a
worker process of a pod server (the final section), and an
:class:`OnlineAuditor` attaches verified property specs to live pods.

See also the quickstart in the top-level README.md.

Run with:  python examples/pod_service_tour.py
"""

import tempfile
from pathlib import Path

from repro.commerce.models import build_buggy_store, build_short, default_database
from repro.pods import (
    JsonlDirectoryStore,
    PodService,
    StepRequest,
    shard_of,
)
from repro.verify.api import LogValidity, OnlineAuditor

FIGURE1_FIRST_HALF = [
    {"order": {("time",)}},
    {"pay": {("time", 55)}},
]
FIGURE1_SECOND_HALF = [
    {"order": {("newsweek",)}},
    {"pay": {("newsweek", 45)}},
]


def main() -> None:
    transducer = build_short()
    database = default_database()

    with tempfile.TemporaryDirectory() as scratch:
        pod_dir = Path(scratch) / "pods"

        # 1. Create: a service over a durable store, one session per
        #    customer, addressed by a handle we choose ourselves.
        service = PodService(
            transducer, database, store=JsonlDirectoryStore(pod_dir)
        )
        alice = service.create_session("alice")
        print(f"created session {alice.session_id!r} on shard {alice.shard}")

        # 2. Step: all traffic is submit(StepRequest) -> StepResult.
        for inputs in FIGURE1_FIRST_HALF:
            result = service.submit(StepRequest(alice, inputs))
            print(
                f"  step {result.step}: "
                f"deliver={sorted(result.output['deliver'])} "
                f"sendbill={sorted(result.output['sendbill'])}"
            )

        # 3. Snapshot: every step was written through to the store as a
        #    JSON line; this is the session's whole persistent state.
        snapshot_file = service.store.path_of("alice")
        print(f"\nsnapshot file {snapshot_file.name}:")
        for line in snapshot_file.read_text().splitlines():
            print(f"  {line[:76]}{'...' if len(line) > 76 else ''}")

        # 4. Restart: drop the service (the process "dies"), then build
        #    a fresh one over the same directory.
        del service
        revived = PodService(
            transducer, database, store=JsonlDirectoryStore(pod_dir)
        )
        print(f"\nnew service sees stored sessions: {revived.stored_session_ids()}")

        # 5. Resume: the first touch of the old handle restores the pod
        #    (cumulative state, step count, log) and stepping continues.
        for inputs in FIGURE1_SECOND_HALF:
            result = revived.submit(StepRequest(alice, inputs))
            print(
                f"  step {result.step}: "
                f"deliver={sorted(result.output['deliver'])}"
            )
        log = revived.close_session(alice)
        uninterrupted = transducer.run(
            database, FIGURE1_FIRST_HALF + FIGURE1_SECOND_HALF
        )
        print(
            f"resumed log has {len(log)} entries; identical to an "
            f"uninterrupted run: {log.entries == uninterrupted.logs}"
        )

    # 6. Routing: shard_of is a stable CRC-32 hash, so every process
    #    agrees where a session id lives.  PodServer(workers=4) would
    #    send each of these customers to the worker printed here
    #    (section 11 runs a real server).
    many = PodService(transducer, database)
    handles = [many.create_session(f"customer-{n}") for n in range(6)]
    print("\nrouting over 4 worker shards:")
    for handle in handles:
        print(f"  {handle.session_id} -> shard {shard_of(handle.session_id, 4)}")
    for handle in handles:
        many.run_session(handle, FIGURE1_FIRST_HALF)
    counters = many.metrics
    print(
        f"metrics: {counters.sessions_created} sessions, "
        f"{counters.steps_executed} steps"
    )

    # 7. Batches: submit_batch steps a batch serially, in request
    #    order, and returns request-aligned results.  Sessions are
    #    independent (a step reads only the shared catalog and the
    #    session's own state), so running them in parallel is a
    #    deployment choice: the worker processes of
    #    PodServer(workers=N), one shard per process (section 11).
    batch = [
        StepRequest(handle, inputs)
        for inputs in FIGURE1_SECOND_HALF
        for handle in handles
    ]
    batch_results = many.submit_batch(batch)
    # The same traffic on a fresh identical service, one submit() at a
    # time.
    one_by_one = PodService(transducer, database)
    for handle in handles:
        one_by_one.create_session(handle.session_id)
        one_by_one.run_session(handle, FIGURE1_FIRST_HALF)
    single_results = [one_by_one.submit(request) for request in batch]
    print(
        f"\nbatch: {len(batch_results)} steps across {len(handles)} "
        "sessions; identical to one submit() at a time: "
        f"{[r.output for r in batch_results] == [r.output for r in single_results]}"
    )

    # 8. Query plans: every session steps through one shared compiled
    #    PhysicalPlan; explain() shows the join orders the cost-based
    #    planner picked against this catalog's index statistics.
    print("\noutput-program plan (cost-based, against the live catalog):")
    for line in transducer.explain_plan(database).splitlines():
        print(f"  {line}")
    # Section 6's service, including section 7's batch.
    snapshot = many.metrics.snapshot()
    print(
        "plan/evaluation counters: "
        f"{snapshot['plans_compiled']} plan(s) compiled, "
        f"{snapshot['plan_cache_hits']} cache hits, "
        f"{snapshot['full_rule_evals']} full rule joins, "
        f"{snapshot['delta_rule_evals']} delta joins "
        f"(+{snapshot['delta_rules_skipped']} skipped as unchanged)"
    )
    # The hot path underneath those joins: each (rule, join order) is
    # compiled once into a kernel and reused, join orders are served
    # from the per-rule memo instead of re-running the cost model, and
    # the catalog's constants sit in the process-wide intern pool.
    print(
        "hot-path counters: "
        f"{snapshot['kernels_compiled']} kernel(s) compiled, "
        f"{snapshot['kernel_hits']} kernel hits, "
        f"{snapshot['replans_avoided']} replans avoided, "
        f"{snapshot['interned_constants']} interned constants"
    )

    # 9. Online audit: attach a verified property spec to a live pod.
    #    Here a *drifting implementation* (the buggy store forgets the
    #    payment check on deliver) serves traffic while the auditor
    #    validates its log, step by step, against the verified SHORT
    #    model -- the paper's audit notion made operational.
    buggy = build_buggy_store()
    auditor = OnlineAuditor([LogValidity()], reference=transducer)
    audited = PodService(buggy, database, auditor=auditor)
    mallory = audited.create_session("mallory")
    print("\nonline audit (buggy store vs verified short reference):")
    audited.submit(StepRequest(mallory, {"order": {("time",)}}))
    audited.submit(StepRequest(mallory, {}))  # buggy delivers unpaid here
    for finding in audited.audit_findings():
        print(f"  step {finding.step}: {finding.violation}")
        # The finding carries a machine-checkable trace: replaying its
        # inputs through a fresh PodService reproduces the violating
        # log exactly.
        replayed = finding.trace.replay(buggy, database)
        print(
            f"  trace replay: {len(replayed.entries)} step(s), "
            f"reproduces the violating log: "
            f"{finding.trace.reproduces(buggy, database)}"
        )
    audit_snapshot = audited.metrics.snapshot()
    print(
        f"audit counters: {audit_snapshot['audited_steps']} steps audited, "
        f"{audit_snapshot['audit_checks']} checks, "
        f"{audit_snapshot['audit_violations']} violation(s)"
    )

    # 10. Tiered storage: a single-file SQLite store plus a bounded
    #     hot-session cache.  max_resident_sessions=1 means at most ONE
    #     live Session object in RAM -- every other open session lives
    #     only in the store -- yet stepping is oblivious: an evicted
    #     session is rehydrated on its next request, byte-identical to
    #     never having been evicted (every step was written through
    #     before its result returned).
    with tempfile.TemporaryDirectory() as scratch:
        from repro.pods import SqliteStore

        db_file = Path(scratch) / "pods.sqlite"
        tiered = PodService(
            transducer,
            database,
            store=SqliteStore(db_file),
            max_resident_sessions=1,
        )
        frank = tiered.create_session("frank")
        grace = tiered.create_session("grace")  # evicts frank (LRU)
        print("\ntiered storage (max_resident_sessions=1):")
        print(f"  open sessions:     {tiered.session_ids()}")
        print(f"  resident sessions: {tiered.resident_session_ids()}")
        # Stepping frank rehydrates him from SQLite -- and evicts grace.
        tiered.submit(StepRequest(frank, FIGURE1_FIRST_HALF[0]))
        tiered.submit(StepRequest(frank, FIGURE1_FIRST_HALF[1]))
        counters = tiered.metrics.snapshot()
        print(
            f"  after stepping frank: resident={tiered.resident_session_ids()}, "
            f"evictions={counters['sessions_evicted']}, "
            f"rehydrations={counters['sessions_rehydrated']}"
        )
        # Every step committed before its result returned.
        stats = tiered.store.stats()
        print(
            f"  store holds "
            f"{stats.sessions} sessions / {stats.events} events in "
            f"{stats.bytes_on_disk} bytes ({db_file.name})"
        )
        # Resume after a "restart", exactly as with the JSONL store.
        resumed = PodService(transducer, database, store=SqliteStore(db_file))
        log = resumed.close_session(frank)
        uninterrupted = transducer.run(database, FIGURE1_FIRST_HALF)
        print(
            f"  restarted service resumes frank: log identical to an "
            f"uninterrupted run: {log.entries == uninterrupted.logs}"
        )

    # 11. The pod *server*: the same runtime behind an HTTP front-end,
    #     one worker process per shard (crash isolation, own store
    #     directory each, and the runtime's only parallelism), stdlib
    #     only.  PodClient speaks the versioned
    #     JSON wire protocol and re-exposes the familiar surface, so
    #     this section reads exactly like section 2 -- the HTTP hop and
    #     the process boundary are invisible until something fails
    #     (full shard -> typed Backpressure / HTTP 429; crashed worker
    #     -> restarted and rehydrated from its write-through store).
    #     The factory is a module-level callable (build_short) because
    #     workers are spawned processes and pickle their config.
    from repro.server import PodClient, PodServer

    print("\npod server (2 worker processes behind HTTP):")
    with (
        PodServer(build_short, database, workers=2) as server,
        PodClient(server.url, transducer) as client,
    ):
        print(f"  listening on {server.url}, healthz: {client.healthz()}")
        henry = client.create_session("henry")
        print(
            f"  created {henry.session_id!r} -> shard {henry.shard} "
            f"(= shard_of('henry', 2): {henry.shard == shard_of('henry', 2)})"
        )
        for inputs in FIGURE1_FIRST_HALF:
            result = client.submit(StepRequest(henry, inputs))
            print(
                f"  step {result.step}: "
                f"deliver={sorted(result.output['deliver'])} "
                f"sendbill={sorted(result.output['sendbill'])}"
            )
        view = client.session(henry)
        print(
            f"  snapshot over the wire: {view.steps} steps, "
            f"log entries: {len(view.log())}"
        )
        payload = client.metrics_payload()
        print(
            f"  merged metrics: {payload['pods']['steps_executed']} steps "
            f"across {payload['server']['workers']} workers "
            f"({payload['server']['restarts']} restarts)"
        )


if __name__ == "__main__":
    main()
