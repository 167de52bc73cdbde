"""Shard worker processes and their parent-side handles.

The process-level server runs each shard as its own
:mod:`multiprocessing` worker: a child process that owns one
:class:`~repro.pods.service.PodService` over its own store directory
and serves wire-format requests from a queue.  Session ids route to
workers with the stable CRC-32 :func:`~repro.pods.service.shard_of`
hash, so a session's home shard -- and its on-disk store -- is the
same in every process, every run.

Workers always start via the ``spawn`` context: the front-end is
threaded (HTTP handler threads, per-worker dispatcher threads), and
forking a threaded parent -- which a crash restart would do constantly
-- is a deadlock lottery.  Spawn also forces the picklability
discipline that keeps :class:`WorkerConfig` honest: a worker is rebuilt
from scratch (factory callable + plain facts), never from leaked parent
state.

Backpressure is enforced on the *parent* side: each
:class:`WorkerHandle` holds a semaphore of ``queue_depth`` admission
slots, and a request that cannot take a slot without blocking is
rejected immediately with a typed :class:`~repro.errors.Backpressure`
-- the transport queues themselves stay unbounded, so an admitted
request never blocks on ``put``.  Overload is therefore a fast, typed
"try again later", never a hang.

Supervision: the handle detects a dead worker process on the next call
(or via :meth:`WorkerHandle.check`), fails the calls that were in
flight with :class:`~repro.errors.ServerError`, and restarts the
worker, which rehydrates every session from the write-through store --
logs and snapshots afterwards are byte-identical to an uninterrupted
run, because nothing observable ever lived only in worker memory.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.errors import Backpressure, ReproError, ServerError, WireError
from repro.pods.api import facts_of
from repro.pods.service import PodService
from repro.pods.store import open_store
from repro.server import wire

if TYPE_CHECKING:
    from repro.core.transducer import RelationalTransducer

#: Wait granularity while a call polls for its response; short enough
#: that a worker crash is noticed promptly, long enough to stay cheap.
_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to rebuild its shard.

    Must stay picklable under the ``spawn`` context: the transducer
    travels as a module-level *factory* callable (e.g.
    :func:`repro.commerce.models.build_short`), the database as plain
    facts, the store as a filesystem target -- never live objects.
    """

    transducer_factory: "Callable[[], RelationalTransducer]"
    database_facts: Mapping[str, frozenset]
    #: This worker's store: a directory (JSONL event store), a
    #: ``.sqlite`` file path, or ``None`` for in-memory (no restart
    #: durability -- test use only).
    store_target: "str | None"
    keep_logs: bool = True
    #: Optional module-level ``factory(shard_index) -> OnlineAuditor``.
    auditor_factory: "Callable[[int], Any] | None" = None
    #: Durability mode for SQLite store targets.
    durability: str = "step"
    max_resident_sessions: "int | None" = None


def _build_service(shard_index: int, config: WorkerConfig) -> PodService:
    transducer = config.transducer_factory()
    auditor = None
    if config.auditor_factory is not None:
        auditor = config.auditor_factory(shard_index)
    return PodService(
        transducer,
        dict(config.database_facts),
        store=open_store(config.store_target, durability=config.durability),
        keep_logs=config.keep_logs,
        shard_index=shard_index,
        auditor=auditor,
        max_resident_sessions=config.max_resident_sessions,
    )


# -- the worker process --------------------------------------------------------


def _handle_op(service: PodService, shard_index: int, op: str, body) -> dict:
    """Execute one wire op against the shard's service; return a body."""
    if op == "create":
        session_id = body.get("session_id")
        if session_id is not None and not isinstance(session_id, str):
            raise WireError(f"malformed session id: {session_id!r}")
        # The service was built with this worker's shard index, so its
        # handles and results already name the server-wide shard.
        handle = service.create_session(session_id)
        return wire.message("handle", wire.encode_handle(handle))
    # Step results travel as JSON text, encoded once here; the front
    # end splices the text into its HTTP body.
    if op == "submit":
        result = service.submit(wire.decode_step_request(body))
        return wire.message(
            "result", {"result": json.dumps(wire.encode_step_result(result))}
        )
    if op == "batch":
        encoded = body.get("requests")
        if not isinstance(encoded, (list, tuple)):
            raise WireError(f"malformed batch request list: {encoded!r}")
        requests = [wire.decode_step_request(entry) for entry in encoded]
        # A strict audit's partial results ride the error envelope
        # (wire.encode_error).
        results = service.submit_batch(requests)
        return wire.message(
            "results",
            {
                "results": [
                    json.dumps(wire.encode_step_result(r)) for r in results
                ]
            },
        )
    if op == "snapshot":
        session_id = body.get("session_id")
        if not isinstance(session_id, str):
            raise WireError(f"malformed session id: {session_id!r}")
        snapshot = service.session(session_id).snapshot()
        return wire.message("snapshot", wire.encode_snapshot(snapshot))
    if op == "close":
        session_id = body.get("session_id")
        if not isinstance(session_id, str):
            raise WireError(f"malformed session id: {session_id!r}")
        log = service.close_session(session_id)
        return wire.message(
            "log",
            {
                "session_id": str(log.session_id),
                "entries": wire.encode_log_entries(log.entries),
            },
        )
    if op == "ids":
        # Every store is write-through, so the stored ids are the open
        # sessions, those of earlier processes over the store included.
        return wire.message(
            "ids", {"session_ids": service.stored_session_ids()}
        )
    if op == "metrics":
        return wire.message(
            "metrics", {"metrics": service.metrics.snapshot()}
        )
    if op == "audits":
        return wire.message(
            "audits", wire.encode_audit_findings(service.audit_findings())
        )
    if op == "ping":
        return wire.message("pong", {"shard": shard_index})
    if op == "sleep":
        # Test/ops aid: hold this worker's single dispatch loop busy so
        # admission slots saturate deterministically (backpressure
        # tests) without patching timing internals.
        seconds = float(body.get("seconds", 0.0))
        time.sleep(min(seconds, 30.0))
        return wire.message("slept", {"seconds": seconds})
    raise WireError(f"unknown worker op {op!r}")


def worker_main(
    shard_index: int,
    config: WorkerConfig,
    requests: "multiprocessing.Queue",
    responses: "multiprocessing.Queue",
) -> None:
    """Entry point of a shard worker process.

    Serves ``(request_id, op, wire_message)`` tuples until a
    ``shutdown`` op arrives; every response -- success or typed error
    envelope -- is tagged with its request id.  The service's store is
    closed on *any* exit path, including SIGTERM.
    """
    # Graceful SIGTERM: raise SystemExit so the finally below closes
    # the store.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    service = _build_service(shard_index, config)
    import queue as queue_module

    try:
        while True:
            # Poll with a timeout rather than blocking forever: the OS
            # may deliver SIGTERM to a non-main thread (the queue
            # feeder), in which case the handler only runs once the
            # main thread wakes -- a bounded wait makes that prompt.
            try:
                request_id, op, payload = requests.get(timeout=0.5)
            except queue_module.Empty:
                continue
            if op == "shutdown":
                responses.put(
                    (request_id, wire.message("bye", {"shard": shard_index}))
                )
                break
            try:
                body = wire.parse_message(payload, expect=op)
                response = _handle_op(service, shard_index, op, body)
            except ReproError as error:
                response = wire.encode_error(error)
            except Exception as error:  # never let a request kill the worker
                response = wire.encode_error(error)
            responses.put((request_id, response))
    finally:
        try:
            service.close()
        except Exception:
            pass


# -- the parent-side handle ----------------------------------------------------


@dataclass
class _Pending:
    event: threading.Event = field(default_factory=threading.Event)
    response: Any = None
    generation: int = 0


class WorkerHandle:
    """The front-end's view of one shard worker process.

    Thread-safe: HTTP handler threads call :meth:`call` concurrently;
    a per-handle lock guards the pending-call table and the
    restart-on-crash transition, and a bounded semaphore enforces the
    admission limit (``queue_depth`` requests in flight per worker).
    """

    def __init__(
        self,
        shard_index: int,
        config: WorkerConfig,
        *,
        queue_depth: int = 64,
        call_timeout: float = 60.0,
    ) -> None:
        if queue_depth < 1:
            raise ServerError(f"queue_depth must be >= 1, got {queue_depth}")
        self.shard_index = shard_index
        self.queue_depth = queue_depth
        self.call_timeout = call_timeout
        self.restarts = 0
        self._config = config
        self._ctx = multiprocessing.get_context("spawn")
        self._admission = threading.BoundedSemaphore(queue_depth)
        self._lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._request_ids = itertools.count(1)
        self._generation = 0
        self._process: "multiprocessing.process.BaseProcess | None" = None
        self._requests = None
        self._responses = None
        self._spawn_locked()

    # -- lifecycle -------------------------------------------------------------

    def _spawn_locked(self) -> None:
        """Start (or restart) the worker process.  Caller holds no lock
        on first spawn; restarts hold ``self._lock``."""
        self._generation += 1
        generation = self._generation
        self._requests = self._ctx.Queue()
        self._responses = self._ctx.Queue()
        self._process = self._ctx.Process(
            target=worker_main,
            args=(
                self.shard_index,
                self._config,
                self._requests,
                self._responses,
            ),
            name=f"pod-worker-{self.shard_index}",
            daemon=True,
        )
        self._process.start()
        dispatcher = threading.Thread(
            target=self._dispatch,
            args=(generation, self._responses),
            name=f"pod-dispatch-{self.shard_index}",
            daemon=True,
        )
        dispatcher.start()

    def _dispatch(self, generation: int, responses) -> None:
        """Deliver worker responses to their waiting callers."""
        import queue as queue_module

        while True:
            with self._lock:
                if generation != self._generation:
                    return
            try:
                request_id, payload = responses.get(timeout=0.2)
            except queue_module.Empty:
                continue
            except (EOFError, OSError, ValueError):
                return
            with self._lock:
                pending = self._pending.pop(request_id, None)
            if pending is not None:
                pending.response = payload
                pending.event.set()

    @property
    def alive(self) -> bool:
        process = self._process
        return process is not None and process.is_alive()

    def check(self) -> bool:
        """Detect a dead worker and restart it; True if it was alive."""
        if self.alive:
            return True
        with self._lock:
            self._restart_locked()
        return False

    def _restart_locked(self) -> None:
        if self._process is not None and self._process.is_alive():
            return
        # Fail everything in flight on the dead generation: the caller
        # cannot know whether its request was applied, and the typed
        # error says exactly that.
        crashed = wire.encode_error(
            ServerError(
                f"worker {self.shard_index} died with request in flight; "
                f"restarted -- retry against the rehydrated shard"
            )
        )
        for pending in self._pending.values():
            pending.response = crashed
            pending.event.set()
        self._pending.clear()
        self.restarts += 1
        self._spawn_locked()

    # -- calls -----------------------------------------------------------------

    def call(self, op: str, body: dict, *, timeout: "float | None" = None):
        """Send one op; return the response body (or raise its error).

        Rejects immediately with :class:`~repro.errors.Backpressure`
        when all ``queue_depth`` admission slots are taken.
        """
        if not self._admission.acquire(blocking=False):
            raise Backpressure(
                f"worker {self.shard_index} is saturated "
                f"({self.queue_depth} requests in flight); retry later",
                shard=self.shard_index,
                queue_depth=self.queue_depth,
            )
        try:
            return self._call_admitted(op, body, timeout)
        finally:
            self._admission.release()

    def _call_admitted(self, op: str, body: dict, timeout: "float | None"):
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.call_timeout
        )
        pending = _Pending()
        with self._lock:
            if self._process is None or not self._process.is_alive():
                self._restart_locked()
            request_id = next(self._request_ids)
            pending.generation = self._generation
            self._pending[request_id] = pending
            requests = self._requests
        requests.put((request_id, op, wire.message(op, body)))
        while not pending.event.wait(_POLL_SECONDS):
            if not self.alive:
                with self._lock:
                    self._restart_locked()
                # _restart_locked set and answered our pending entry
                # (crash error) if it was still registered.
                if not pending.event.is_set():
                    raise ServerError(
                        f"worker {self.shard_index} died before replying"
                    )
            if time.monotonic() > deadline:
                with self._lock:
                    self._pending.pop(request_id, None)
                raise ServerError(
                    f"worker {self.shard_index} timed out after "
                    f"{timeout if timeout is not None else self.call_timeout}s "
                    f"on {op!r}"
                )
        return wire.parse_message(pending.response)

    # -- shutdown --------------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop the worker: graceful shutdown op, then escalate.

        Bypasses admission (shutdown must succeed under saturation).
        The store is closed by the worker's exit path.
        """
        process = self._process
        if process is None:
            return
        with self._lock:
            self._generation += 1  # retire the dispatcher
            for pending in self._pending.values():
                pending.response = wire.encode_error(
                    ServerError(
                        f"worker {self.shard_index} shut down with the "
                        f"request in flight"
                    )
                )
                pending.event.set()
            self._pending.clear()
            requests = self._requests
        if process.is_alive():
            try:
                requests.put((0, "shutdown", wire.message("shutdown", {})))
            except (OSError, ValueError):
                pass
            process.join(timeout)
        if process.is_alive():
            process.terminate()
            process.join(5.0)
        if process.is_alive() and hasattr(process, "kill"):
            process.kill()
            process.join(1.0)
        for queue in (self._requests, self._responses):
            try:
                queue.close()
            except (OSError, ValueError):
                pass

    def kill(self) -> None:
        """Hard-kill the worker process (supervision tests): no store
        close, no goodbye -- the next call detects the corpse and restarts."""
        process = self._process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(5.0)

    def pid(self) -> "int | None":
        process = self._process
        return process.pid if process is not None else None


def default_worker_count() -> int:
    """Workers to start when the caller does not say: one per CPU, at
    least 1, at most 4 (the front-end is I/O bound; shards beyond the
    CPU count only add queue hops)."""
    return max(1, min(4, os.cpu_count() or 1))


def database_facts_of(database) -> dict:
    """An :class:`InputLike` database as the plain picklable facts a
    :class:`WorkerConfig` carries."""
    from repro.relalg.instance import Instance

    if isinstance(database, Instance):
        return dict(facts_of(database))
    return {
        str(name): frozenset(tuple(row) for row in rows)
        for name, rows in database.items()
    }
