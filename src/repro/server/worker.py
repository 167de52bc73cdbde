"""Shard worker processes and their parent-side handles.

The process-level server runs each shard as its own
:mod:`multiprocessing` worker: a child process that owns one
:class:`~repro.pods.service.PodService` over its own store directory
and serves wire-format requests over one duplex pipe.  Session ids
route to workers with the stable CRC-32
:func:`~repro.pods.service.shard_of` hash, so a session's home shard
-- and its on-disk store -- is the same in every process, every run.

Workers always start via the ``spawn`` context: the front-end is
threaded (one HTTP handler thread per connection), and forking a
threaded parent -- which a crash restart would do constantly -- is a
deadlock lottery.  Spawn also forces the picklability discipline that
keeps :class:`WorkerConfig` honest: a worker is rebuilt from scratch
(factory callable + plain facts), never from leaked parent state.

A worker steps serially, so one call in flight is all it can use.  The
calling thread takes the handle's lock, writes its request to the pipe
and reads its own reply.  Requests carry ids; a call that times out
leaves its reply owed, and the next call reads and drops that late
reply before it writes its own request.

Backpressure is enforced on the *parent* side: each
:class:`WorkerHandle` holds a semaphore of ``queue_depth`` admission
slots -- the call on the pipe plus the calls waiting for the lock --
and a request that cannot take a slot without blocking is rejected
immediately with a typed :class:`~repro.errors.Backpressure`.
Overload is therefore a fast, typed "try again later", never a hang.

Supervision: a call that finds the worker process dead restarts it
first; a call whose pipe closes while it waits for its reply restarts
the worker and fails with :class:`~repro.errors.ServerError`.  The new
worker rehydrates every session from the write-through store -- logs
and snapshots afterwards are byte-identical to an uninterrupted run,
because nothing observable ever lived only in worker memory.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.errors import Backpressure, ServerError, WireError
from repro.pods.api import facts_of
from repro.pods.service import PodService
from repro.pods.store import open_store
from repro.server import wire

if TYPE_CHECKING:
    from repro.core.transducer import RelationalTransducer


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
        return wire.message("result", {"result": wire.step_result_json(result)})
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
            {"results": [wire.step_result_json(r) for r in results]},
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
        # Test/ops aid: hold this worker busy so admission slots
        # saturate and calls time out deterministically, without
        # patching timing internals.
        seconds = float(body.get("seconds", 0.0))
        time.sleep(min(seconds, 30.0))
        return wire.message("slept", {"seconds": seconds})
    raise WireError(f"unknown worker op {op!r}")


def worker_main(shard_index: int, config: WorkerConfig, pipe) -> None:
    """Entry point of a shard worker process.

    Serves ``(request_id, op, wire_message)`` tuples from ``pipe``
    until the parent closes its end; every reply -- success or typed
    error envelope -- is tagged with its request id.  The service's
    store is closed on *any* exit path, including SIGTERM.
    """
    # Graceful SIGTERM: raise SystemExit out of the blocking read, so
    # the finally below closes the store.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    service = _build_service(shard_index, config)
    try:
        while True:
            request_id, op, payload = pipe.recv()
            try:
                body = wire.parse_message(payload, expect=op)
                reply = _handle_op(service, shard_index, op, body)
            except Exception as error:  # never let a request kill the worker
                reply = wire.encode_error(error)
            pipe.send((request_id, reply))
    except (EOFError, OSError):
        pass  # the parent closed its end of the pipe
    finally:
        try:
            service.close()
        except Exception:
            pass


# -- the parent-side handle ----------------------------------------------------


class WorkerHandle:
    """The front-end's view of one shard worker process.

    Thread-safe: HTTP handler threads call :meth:`call` concurrently;
    a per-handle lock admits one call to the pipe at a time and guards
    the restart-on-crash transition, and a bounded semaphore enforces
    the admission limit (``queue_depth`` calls per worker).
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
        self._request_ids = itertools.count(1)
        self._closed = False
        self._spawn()

    # -- lifecycle -------------------------------------------------------------

    def _spawn(self) -> None:
        """Start a worker process on a fresh pipe."""
        ours, theirs = self._ctx.Pipe()
        self._process = self._ctx.Process(
            target=worker_main,
            args=(self.shard_index, self._config, theirs),
            name=f"pod-worker-{self.shard_index}",
            daemon=True,
        )
        self._process.start()
        # Only the worker holds its end now, so ours reads EOF the
        # moment the worker exits.
        theirs.close()
        self._pipe = ours
        #: The id of a request whose call timed out: its reply is owed.
        self._late: "int | None" = None

    def _restart_locked(self) -> None:
        """Reap the dead (or dying) worker and start a new one."""
        self._process.join(5.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(1.0)
        self._pipe.close()
        self.restarts += 1
        self._spawn()

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    # -- calls -----------------------------------------------------------------

    def call(self, op: str, body: dict, *, timeout: "float | None" = None):
        """Send one op; return the response body (or raise its error).

        Rejects immediately with :class:`~repro.errors.Backpressure`
        when all ``queue_depth`` admission slots are taken.  The
        timeout covers the wait for the lock and for the reply.
        """
        if not self._admission.acquire(blocking=False):
            raise Backpressure(
                f"worker {self.shard_index} is saturated "
                f"({self.queue_depth} requests in flight); retry later",
                shard=self.shard_index,
                queue_depth=self.queue_depth,
            )
        try:
            seconds = self.call_timeout if timeout is None else timeout
            deadline = time.monotonic() + seconds
            if not self._lock.acquire(timeout=max(seconds, 0.0)):
                raise self._timed_out(op, seconds)
            try:
                reply = self._call_locked(op, body, deadline, seconds)
            finally:
                self._lock.release()
        finally:
            self._admission.release()
        return wire.parse_message(reply)

    def _call_locked(self, op: str, body: dict, deadline: float, seconds):
        if self._closed:
            raise ServerError(f"worker {self.shard_index} is shut down")
        if not self._process.is_alive():
            self._restart_locked()
        if self._late is not None:
            # Read the owed reply before writing: a worker still busy
            # with the late call reads no request, and a large request
            # and a large reply would each wait for the other.
            self._reply_to(self._late, deadline, op, seconds)
            self._late = None
        request_id = next(self._request_ids)
        try:
            self._pipe.send((request_id, op, wire.message(op, body)))
        except OSError:
            raise self._died_locked() from None
        return self._reply_to(request_id, deadline, op, seconds)

    def _reply_to(self, request_id: int, deadline: float, op: str, seconds):
        """Read replies up to ``request_id``'s and return its payload;
        one tagged with an earlier id answers a call that timed out and
        is dropped.  At the deadline the reply stays owed."""
        while True:
            if not self._pipe.poll(max(deadline - time.monotonic(), 0.0)):
                self._late = request_id
                raise self._timed_out(op, seconds)
            try:
                reply_id, payload = self._pipe.recv()
            except (EOFError, OSError):
                raise self._died_locked() from None
            if reply_id == request_id:
                return payload

    def _died_locked(self) -> ServerError:
        """The worker's end of the pipe closed with a call in flight:
        restart it (unless shut down) and return the call's error."""
        if self._closed:
            return ServerError(
                f"worker {self.shard_index} shut down with the request "
                f"in flight"
            )
        self._restart_locked()
        # The caller cannot know whether its request was applied, and
        # the typed error says exactly that.
        return ServerError(
            f"worker {self.shard_index} died with request in flight; "
            f"restarted -- retry against the rehydrated shard"
        )

    def _timed_out(self, op: str, seconds: float) -> ServerError:
        return ServerError(
            f"worker {self.shard_index} timed out after {seconds}s on {op!r}"
        )

    # -- shutdown --------------------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop the worker: close its pipe, which ends its loop, then
        escalate.

        Bypasses admission (shutdown must succeed under saturation),
        and waits up to ``timeout`` for the call in flight to finish.
        The store is closed by the worker's exit path.
        """
        if self._closed:
            return
        self._closed = True
        process = self._process
        if self._lock.acquire(timeout=timeout):
            try:
                self._pipe.close()
                process.join(timeout)
            finally:
                self._lock.release()
        if process.is_alive():
            process.terminate()
            process.join(5.0)
        if process.is_alive():
            process.kill()
            process.join(1.0)

    def kill(self) -> None:
        """Hard-kill the worker process (supervision tests): no
        goodbye -- the next call detects the corpse and restarts."""
        process = self._process
        if process.is_alive():
            process.terminate()
            process.join(5.0)

    def pid(self) -> "int | None":
        return self._process.pid


def default_worker_count() -> int:
    """Workers to start when the caller does not say: one per CPU, at
    least 1, at most 4 (the front-end is I/O bound; shards beyond the
    CPU count only add pipe hops)."""
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
