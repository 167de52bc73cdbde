"""The pod services: the runtime's public API.

A :class:`PodService` owns one transducer, one shared (indexed)
database, and a set of sessions -- pods -- addressed by
:class:`~repro.pods.api.SessionHandle`.  All traffic enters through
:meth:`~PodService.submit` / :meth:`~PodService.submit_batch`; the
convenience drivers (``run_session``, ``drive``) are thin clients over
that path, so every future cross-cutting concern (persistence today,
async fan-out or admission control tomorrow) has a single choke point.

Persistence is delegated to a :class:`~repro.pods.store.SessionStore`:
the service writes every lifecycle event through the store and lazily
restores sessions from it, so a service recreated over a durable store
transparently resumes sessions created by a previous process.  The
store is also the one home of every session's log: a resident session
holds its state and step count, a restore reads only those, and log
reads (``Session.log()``, :meth:`PodService.logs`,
:meth:`PodService.close_session`) go to the store on demand.

Residency is bounded by an :class:`~repro.pods.cache.LruSessionCache`
(``max_resident_sessions=``, or :data:`~repro.pods.cache.MAX_RESIDENT_ENV`
from the environment): because every step is written through to the
store before its result is returned, evicting an idle session is just
dropping the in-memory :class:`~repro.pods.session.Session` -- nothing
to write -- and the next :class:`~repro.pods.api.StepRequest` for it
rehydrates from the store through the same restore path a process
restart uses.  Logs, snapshots, and outputs are identical whether a
session was evicted zero or N times; sessions are pinned in the cache
for the duration of a step so a caller's thread shedding cache surplus
never evicts another thread's session mid-step.

Concurrency: ``submit_batch`` steps its batch serially, in request
order.  A step depends only on the database, the session's own state and
its input, so sessions are independent and running them in parallel is
a deployment choice: worker processes behind
:class:`~repro.server.frontend.PodServer`.  Callers that call
``submit`` from their own threads on distinct sessions are still safe:
sessions share only read-only state (the indexed database store, the
compiled physical plan), and everything mutable is either per-session
or internally locked (metrics, the session map, store writes, audit
findings).
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from repro.verify.api.auditor import OnlineAuditor

from repro.core.transducer import InputLike, RelationalTransducer
from repro.errors import AuditViolation, SessionError, ShardError
from repro.pods.api import (
    SessionHandle,
    SessionSnapshot,
    StepRequest,
    StepResult,
    session_id_of,
)
from repro.pods.cache import LruSessionCache
from repro.pods.cache import max_resident_sessions as _resolve_max_resident
from repro.pods.metrics import RuntimeMetrics
from repro.pods.session import Session, SessionLog, stored_log
from repro.pods.store import SessionStore, open_store
from repro.relalg.instance import Instance

_ID_ALLOWED = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def _check_session_id(session_id: str) -> str:
    """Validate a caller-supplied id (it doubles as a file name)."""
    if (
        not isinstance(session_id, str)
        or not session_id
        or not set(session_id) <= _ID_ALLOWED
    ):
        raise SessionError(
            f"invalid session id {session_id!r}: need a non-empty string "
            "of letters, digits, '.', '_' or '-'"
        )
    return session_id


def shard_of(session_id: str, shards: int) -> int:
    """The shard a session id routes to: stable across processes.

    :class:`~repro.server.frontend.PodServer` routes every request to
    worker ``shard_of(id, workers)``, whose :class:`PodService` stamps
    that index on its handles (``shard_index=``).  CRC-32 rather than
    ``hash()`` because Python string hashing is salted per process;
    routing must agree between the process that created a session and
    the one that resumes it.
    """
    if shards < 1:
        raise ShardError(f"shard count must be >= 1, got {shards}")
    return zlib.crc32(session_id.encode("utf-8")) % shards


def generated_session_id(counter: int) -> str:
    """The id a service or server picks when the caller names none."""
    return f"pod-{counter:06d}"


class _PodApi:
    """The traffic methods every pod service offers over ``submit()``."""

    def create_session(self, session_id: str | None = None) -> SessionHandle:
        raise NotImplementedError

    def create_sessions(self, count: int) -> list[SessionHandle]:
        return [self.create_session() for _ in range(count)]

    def submit(self, request: StepRequest) -> StepResult:
        raise NotImplementedError

    def submit_batch(
        self, requests: Iterable[StepRequest]
    ) -> list[StepResult]:
        """Advance many sessions in request order; results align.

        Sessions may appear multiple times.  Parallelism across sessions
        is a deployment choice -- worker processes behind
        :class:`~repro.server.frontend.PodServer` -- not a batch option.

        If a strict auditor raises :class:`~repro.errors.AuditViolation`
        mid-batch, the exception carries ``partial_results``.  Every
        surface (in process, shadowed, over HTTP) meets one contract:

        * entries align with the batch's requests;
        * a :class:`StepResult` entry was applied and persisted;
        * the violating request's entry is ``None``, but its step was
          applied and persisted (the audit runs after apply);
        * no later request of the violating session ran;
        * other sessions' requests may or may not have run -- in
          process the batch stops at the violation, across
          :class:`~repro.server.frontend.PodServer` workers the other
          shards run to completion.

        Callers reconcile the ``None`` entries against the session store.
        """
        requests = list(requests)
        results: "list[StepResult | None]" = [None] * len(requests)
        try:
            for index, request in enumerate(requests):
                results[index] = self.submit(request)
        except AuditViolation as violation:
            violation.partial_results = tuple(results)
            raise
        return results  # fully populated: no request failed

    def run_session(
        self,
        session: SessionHandle | str,
        input_sequence: Sequence[InputLike],
    ) -> list[StepResult]:
        """Drive one session through a whole input sequence."""
        return self.submit_batch(
            StepRequest(session, inputs) for inputs in input_sequence
        )

    def drive(
        self,
        workload: Mapping[SessionHandle | str, Sequence[InputLike]],
        round_robin: bool = True,
    ) -> None:
        """Consume per-session input sequences, interleaved or not.

        ``round_robin=True`` alternates between sessions step by step
        (the concurrent-traffic shape); ``False`` drains each session
        in turn.  Sessions are visited in session-id order, and the
        whole workload goes through one :meth:`submit_batch` call.
        """
        items = sorted(
            workload.items(), key=lambda item: session_id_of(item[0])
        )
        if round_robin:
            longest = max((len(sequence) for _s, sequence in items), default=0)
            requests = [
                StepRequest(session, sequence[position])
                for position in range(longest)
                for session, sequence in items
                if position < len(sequence)
            ]
        else:
            requests = [
                StepRequest(session, inputs)
                for session, sequence in items
                for inputs in sequence
            ]
        if requests:
            self.submit_batch(requests)


class PodService(_PodApi):
    """Create, step, persist, and retire sessions over a shared database.

    ``store`` may be a :class:`~repro.pods.store.SessionStore`, a path
    (a directory opens a
    :class:`~repro.pods.store.JsonlDirectoryStore`; a
    ``.sqlite``/``.sqlite3``/``.db`` file opens a
    :class:`~repro.pods.sqlite_store.SqliteStore`), or ``None`` for the
    in-memory store.  Sessions keep no log in memory: the store holds
    it and log reads go there.  ``keep_logs=False`` turns off log
    persistence (and log reads return empty logs) for load-generation
    scenarios where only throughput matters.

    ``max_resident_sessions`` bounds how many live sessions stay in
    memory at once (``None`` reads
    :data:`~repro.pods.cache.MAX_RESIDENT_ENV`, then defaults to
    unlimited): beyond the bound, least-recently-used idle sessions are
    evicted to the store and transparently rehydrated on their next
    request.  The knob trades a rehydration (one read of the stored
    state plus a step context rebuild) against resident memory;
    observable behavior --
    logs, snapshots, outputs, audit findings -- is unchanged.
    """

    def __init__(
        self,
        transducer: RelationalTransducer,
        database: InputLike,
        *,
        store: "SessionStore | str | None" = None,
        keep_logs: bool = True,
        shard_index: int = 0,
        auditor: "OnlineAuditor | None" = None,
        max_resident_sessions: "int | None" = None,
    ) -> None:
        self._transducer = transducer
        self._database = transducer.coerce_database(database)
        # Warm the shared index cache so the first session does not pay
        # for it inside a latency measurement.
        transducer.database_store(self._database)
        self._store = open_store(store)
        self._keep_logs = keep_logs
        self._shard_index = shard_index
        self._sessions = LruSessionCache(
            _resolve_max_resident(max_resident_sessions)
        )
        # Ids this service instance evicted and has not yet rehydrated
        # or closed.  session() consults it to count a restore as a
        # rehydration rather than a cross-process resume, and
        # close_session() to accept a session that is not resident.
        self._evicted: set[str] = set()
        self._evicted_lock = threading.Lock()
        self._next_id = 0
        # Guards session creation and lazy restore: caller threads
        # touching distinct sessions must not race the session
        # map or restore the same session twice.  submit() reads the
        # cache lock-free-in-spirit on its hot path (one short cache
        # lock, never the service lock -- see session()).
        self._lock = threading.Lock()
        self.metrics = RuntimeMetrics()
        # Online auditing (repro.verify.api.OnlineAuditor): every step
        # applied through submit() is checked against the attached
        # property specs; see the audit block in submit().
        self._auditor = auditor
        if auditor is not None:
            auditor.bind(transducer, self._database)

    # -- session lifecycle -----------------------------------------------------

    @property
    def database(self) -> Instance:
        return self._database

    @property
    def store(self) -> SessionStore:
        return self._store

    @property
    def shard_index(self) -> int:
        return self._shard_index

    @property
    def auditor(self) -> "OnlineAuditor | None":
        return self._auditor

    @property
    def max_resident_sessions(self) -> "int | None":
        """The residency bound in force (None = unlimited)."""
        return self._sessions.max_resident

    def audit_findings(self, session: "SessionHandle | str | None" = None):
        """Recorded audit findings (empty without an attached auditor)."""
        if self._auditor is None:
            return []
        return self._auditor.findings(
            session_id_of(session) if session is not None else None
        )

    def create_session(self, session_id: str | None = None) -> SessionHandle:
        """Open a new session; returns its handle.

        A caller-supplied id makes the pod addressable across restarts
        (and across the worker shards of a
        :class:`~repro.server.frontend.PodServer`); omitted, the
        service generates ``pod-NNNNNN``.
        """
        with self._lock:
            if session_id is None:
                # The counter skips ids a caller already claimed.
                while session_id is None or self.has_session(session_id):
                    session_id = generated_session_id(self._next_id)
                    self._next_id += 1
            else:
                _check_session_id(session_id)
                if (
                    session_id in self._sessions
                    or self._store.load(session_id) is not None
                ):
                    raise SessionError(
                        f"session already exists: {session_id!r}"
                    )
            session = Session(
                session_id,
                self._transducer,
                self._database,
                keep_log=self._keep_logs,
                store=self._store,
            )
            # Publication into the cache comes LAST: session() reads the
            # cache without the service lock, so the moment another
            # thread can see the session (and submit to it) its created
            # record and auditor registration must already exist -- a
            # record_step landing before record_created would corrupt
            # the event file, and an observe_step before registration
            # would silently skip the audit.
            self._store.record_created(session_id)
            if self._auditor is not None:
                self._auditor.register_session(session_id)
            self.metrics.record_session()
            # Plan compile/reuse happened while building the session's
            # step context; later submit() calls record only their delta.
            self.metrics.record_eval(session.eval_counters())
            self._note_evictions(self._sessions.put(session_id, session))
        return SessionHandle(session_id, self._shard_index)

    def _restore(self, snapshot: SessionSnapshot) -> Session:
        """A session at the snapshot's state and step count; its log
        stays in the store (the snapshot's ``log_facts`` is not read)."""
        if snapshot.steps == 0 and not snapshot.state_facts:
            # Stores only snapshot state on the first record_step, so a
            # never-stepped session's snapshot carries no state facts.
            # Its state is S_0 -- which need not be empty for every
            # transducer -- not the all-empty instance.
            state = self._transducer.initial_state()
        else:
            state = Instance(self._transducer.schema.state, snapshot.state_facts)
        return Session(
            snapshot.session_id,
            self._transducer,
            self._database,
            keep_log=self._keep_logs,
            state=state,
            steps=snapshot.steps,
            store=self._store,
        )

    def _note_evictions(
        self, evictions: "list[tuple[str, Session]]"
    ) -> None:
        """Bookkeep cache evictions: remember the ids, bump the counter.

        Nothing is written to the store -- submit() already wrote each
        step through before returning, so an idle session's snapshot is
        durable by construction and eviction is purely dropping memory
        (the store's :meth:`~repro.pods.store.StoreLifecycle.evict`
        hook drops whatever it keeps per resident session).
        """
        if not evictions:
            return
        with self._evicted_lock:
            for session_id, _session in evictions:
                self._evicted.add(session_id)
        for session_id, _session in evictions:
            self._store.evict(session_id)
            self.metrics.record_eviction()

    def _restore_into_cache(self, session_id: str, *, pin: bool) -> Session:
        """Rebuild a session from the store (service lock held)."""
        snapshot = self._store.load(session_id)
        if snapshot is None:
            raise SessionError(f"no such session: {session_id!r}")
        restored = self._restore(snapshot)
        with self._evicted_lock:
            rehydration = session_id in self._evicted
            self._evicted.discard(session_id)
        if self._auditor is not None and not self._auditor.is_registered(
            session_id
        ):
            # A cross-process resume: the auditor gets the *stored* log
            # prefix even when this service runs with keep_logs=False,
            # because the prefix is the resume point of every future
            # finding's replay trace.  A rehydration skips this whole
            # block -- the audit (monitors, history, findings) survived
            # the eviction inside the auditor, keyed by session id.
            schema = self._transducer.schema
            self._auditor.register_session(
                session_id,
                steps=snapshot.steps,
                log=tuple(
                    Instance(schema.log_schema, dict(entry))
                    for entry in snapshot.log_facts
                ),
                state=restored.state,
            )
        if rehydration:
            self.metrics.record_rehydration()
        else:
            self.metrics.record_resume()
        self.metrics.record_eval(restored.eval_counters())
        # Published last: cache readers must only see a session whose
        # auditor registration is complete.  pin=True makes the insert
        # atomic with the caller's pin, so another thread's surplus
        # shedding cannot evict the session before its step runs.
        self._note_evictions(
            self._sessions.put(session_id, restored, pin=pin)
        )
        return restored

    def session(self, session: SessionHandle | str) -> Session:
        """The live session for a handle, restoring from the store.

        A session created by a previous service instance over the same
        store -- or evicted by this one's hot-session cache -- is
        rebuilt from its snapshot on first touch; unknown ids raise
        :class:`~repro.errors.SessionError`.  The hot path (a resident
        session) is one cache-lock'd dictionary read; the restore path
        is double-checked under the service lock so concurrent first
        touches rebuild a session exactly once.
        """
        session_id = session_id_of(session)
        live = self._sessions.get(session_id)
        if live is not None:
            return live
        with self._lock:
            live = self._sessions.get(session_id)
            if live is not None:
                return live
            return self._restore_into_cache(session_id, pin=False)

    def _pinned_session(self, session_id: str) -> Session:
        """The live session, pinned against eviction for one step."""
        session = self._sessions.pin(session_id)
        if session is not None:
            return session
        with self._lock:
            session = self._sessions.pin(session_id)
            if session is not None:
                return session
            return self._restore_into_cache(session_id, pin=True)

    def has_session(self, session: SessionHandle | str) -> bool:
        session_id = session_id_of(session)
        return (
            session_id in self._sessions
            or self._store.load(session_id) is not None
        )

    def session_ids(self) -> list[str]:
        """Ids of all open sessions of this service, sorted.

        Residency-independent: an evicted session, or one stored by an
        earlier service over the same store, is still open -- its state
        lives in the store and the next request restores it -- so it is
        listed alongside the resident ones.
        """
        return sorted(set(self._store.session_ids()).union(self._sessions.ids()))

    def resident_session_ids(self) -> list[str]:
        """Ids of the sessions currently held in memory, sorted."""
        return self._sessions.ids()

    def stored_session_ids(self) -> list[str]:
        """Ids of all resumable sessions known to the store, sorted."""
        return self._store.session_ids()

    def close_session(self, session: SessionHandle | str) -> SessionLog:
        """Retire a session; returns its final log, read from the store
        before the session's records are dropped."""
        live = self.session(session)
        log = live.log()
        session_id = session_id_of(session)
        with self._lock:
            popped = self._sessions.pop(session_id)
            with self._evicted_lock:
                was_evicted = session_id in self._evicted
                self._evicted.discard(session_id)
            # Re-check under the lock: two racing closes must not both
            # succeed.  (The session may legitimately be non-resident
            # here if it was evicted between session() and this lock.)
            if popped is None and not was_evicted:
                raise SessionError(f"no such session: {session_id!r}")
        self._store.record_closed(session_id)
        if self._auditor is not None:
            self._auditor.forget_session(session_id)
        self.metrics.record_close()
        return log

    def close(self) -> None:
        """Release the service: close its store.

        The shutdown hook of the process-level pod server -- a worker
        embedding a :class:`PodService` calls this once on graceful
        exit.  Every acknowledged step is already persisted (stores
        are write-through), so closing only releases the backend.  Open
        sessions are *not* closed (they stay resumable from the
        store); the service must not be used afterwards.
        """
        self._store.close()

    # -- traffic ---------------------------------------------------------------

    def submit_batch(
        self, requests: Iterable[StepRequest]
    ) -> list[StepResult]:
        """:meth:`_PodApi.submit_batch` inside one store scope.

        A store that commits per call (SQLite ``"step"``/``"full"``)
        makes the batch's steps durable together, before returning.
        """
        with self._store.scope():
            return super().submit_batch(requests)

    def submit(self, request: StepRequest) -> StepResult:
        """Advance one session by one input instance.

        The single entry point of the runtime: every driver above
        (``submit_batch``, ``run_session``, ``drive``, the scenario
        runner, the HTTP worker) funnels through here, and the store
        write-through happens here.  The session is pinned in the
        hot-session cache for the duration of the step
        (rehydrating it first if it was evicted), so other caller
        threads shedding cache surplus can never drop a session whose
        step -- or step write-through, or audit -- is still in flight.
        """
        session_id = session_id_of(request.session)
        session = self._pinned_session(session_id)
        try:
            before = session.eval_counters()
            state_before = session.state
            started = time.perf_counter()
            output = session.step(request.inputs)
            elapsed = time.perf_counter() - started
            self.metrics.record_step(elapsed)
            self.metrics.record_eval(session.eval_counters() - before)
            log_entry = session.last_log_entry if self._keep_logs else None
            self._store.record_step(
                session.session_id, session.steps, session.state, log_entry
            )
            result = StepResult(
                session=SessionHandle(session.session_id, self._shard_index),
                step=session.steps,
                output=output,
                latency_seconds=elapsed,
                log_entry=log_entry,
            )
            if self._auditor is not None:
                # The audit runs after the step is applied and persisted:
                # an audit is a judgment on what happened, not admission
                # control, so even a strict auditor never leaves the store
                # and the session disagreeing about the step count.
                outcome = self._auditor.observe_step(
                    session.session_id,
                    step=session.steps,
                    inputs=session.last_inputs,
                    output=output,
                    state_before=state_before,
                    state_after=session.state,
                    log_entry=log_entry,
                )
                self.metrics.record_audit(outcome)
                if self._auditor.strict and outcome.findings:
                    raise AuditViolation(
                        f"session {session.session_id!r} "
                        f"step {session.steps}: "
                        + "; ".join(f.violation for f in outcome.findings),
                        findings=outcome.findings,
                    )
        finally:
            # Unpinning may shed cache surplus deferred while every
            # entry was pinned.
            self._note_evictions(self._sessions.unpin(session_id))
        return result

    def logs(self) -> list[SessionLog]:
        """Logs of all open sessions, ordered by session id.

        Covers evicted sessions too, so the view is independent of cache
        pressure; every log is read from the store, and an evicted
        session is not rehydrated to read it.
        """
        return [
            self._log_of(session_id) for session_id in self.session_ids()
        ]

    def _log_of(self, session_id: str) -> SessionLog:
        live = self._sessions.get(session_id)
        if live is not None:
            return live.log()
        if not self._keep_logs:
            return SessionLog(session_id, ())
        snapshot = self._store.load(session_id)
        if snapshot is None:
            raise SessionError(f"no such session: {session_id!r}")
        return stored_log(
            self._store,
            session_id,
            snapshot.steps,
            self._transducer.schema.log_schema,
        )
