"""The HTTP front-end of the process-level pod server.

A :class:`PodServer` owns N shard worker processes
(:class:`~repro.server.worker.WorkerHandle` each) and a
:class:`http.server.ThreadingHTTPServer` that speaks the wire format
over five endpoints::

    POST /v1/sessions      create a session (optionally with a chosen id)
    POST /v1/submit        advance one session by one input instance
    POST /v1/submit_batch  advance many sessions; results in request order
    GET  /v1/metrics       merged per-worker runtime counters
    GET  /healthz          worker process liveness (200 ok / 503 degraded)

plus ``POST /v1/snapshot``, ``POST /v1/close`` and ``GET /v1/sessions``
for session lifecycle, and ``GET /v1/audits`` for the merged audit
findings of every worker's auditor (the queryable face of the per-pod
violations ledger).  Requests and responses are wire messages (see
:mod:`repro.server.wire`); errors come back as typed error envelopes
riding the matching HTTP status -- queue overflow is a ``429`` carrying
a ``backpressure`` envelope, never a hang.

Sessions route to workers by the stable CRC-32
:func:`~repro.pods.service.shard_of` hash, so a session's home shard
and on-disk store are the same in every process and across restarts
with the same worker count.  A batch fans out per shard -- each
shard's subsequence stays in order inside one worker ``submit_batch``
call (one admission slot per shard) -- and reassembles in request
order, preserving the serial-equivalence guarantee end to end.  The
worker processes are the server's only parallelism: each worker steps
its slice serially.

Everything is stdlib: ``http.server`` + ``multiprocessing`` +
``threading``.  This is deliberately not a production web stack; it is
the reference topology for the paper's "pods" -- isolated relational
transducers behind a thin router -- with enough supervision (crash
restart + store rehydration, graceful drain on shutdown) to measure
honestly.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import threading
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.config import env_int
from repro.errors import (
    AuditViolation,
    ReproError,
    ServerError,
    SessionError,
    WireError,
)
from repro.pods.metrics import merge_snapshots
from repro.pods.service import shard_of
from repro.server import wire
from repro.server.worker import (
    WorkerConfig,
    WorkerHandle,
    database_facts_of,
    default_worker_count,
)

#: Environment overrides for the server knobs, all parsed by the shared
#: :func:`repro.config.env_int` helper (same validation and messages as
#: ``REPRO_MAX_RESIDENT``).
WORKERS_ENV = "REPRO_SERVER_WORKERS"
QUEUE_DEPTH_ENV = "REPRO_SERVER_QUEUE_DEPTH"


def _session_id_of_wire(session) -> str:
    """The session id inside a wire step-request ``session`` field."""
    if isinstance(session, str):
        return session
    if isinstance(session, Mapping) and isinstance(
        session.get("session_id"), str
    ):
        return session["session_id"]
    raise WireError(f"malformed request session: {session!r}")


class PodServer:
    """N worker processes, one router, one HTTP listener.

    ``transducer_factory`` must be a picklable module-level callable
    (each worker process rebuilds its own transducer); ``database`` is
    an instance or facts mapping shared read-only by every shard.
    ``store_root`` is a directory that receives one store per shard
    (``shard-00``, ``shard-01``, ... -- JSONL event directories, or
    ``shard-NN.sqlite`` files with ``store_kind="sqlite"``); ``None``
    uses a temporary directory owned (and deleted) by the server, which
    still exercises write-through -- crash rehydration works, but
    nothing survives the *server* object itself.

    Unset knobs read ``REPRO_SERVER_WORKERS`` /
    ``REPRO_SERVER_QUEUE_DEPTH``; the queue depth is the per-worker
    admission bound whose overflow is the typed ``backpressure``
    rejection.
    """

    def __init__(
        self,
        transducer_factory: "Callable[[], Any]",
        database,
        *,
        workers: "int | None" = None,
        queue_depth: "int | None" = None,
        store_root: "str | None" = None,
        store_kind: str = "jsonl",
        durability: str = "step",
        keep_logs: bool = True,
        auditor_factory: "Callable[[int], Any] | None" = None,
        max_resident_sessions: "int | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        id_prefix: str = "pod",
        call_timeout: float = 60.0,
    ) -> None:
        if workers is None:
            workers = env_int(
                WORKERS_ENV,
                default=default_worker_count(),
                minimum=1,
                error=ServerError,
            )
        if queue_depth is None:
            queue_depth = env_int(
                QUEUE_DEPTH_ENV, default=64, minimum=1, error=ServerError
            )
        if store_kind not in ("jsonl", "sqlite"):
            raise ServerError(
                f"unknown store_kind {store_kind!r}: choose jsonl or sqlite"
            )
        self.worker_count = workers
        self.queue_depth = queue_depth
        self._host = host
        self._port = port
        self._id_prefix = id_prefix
        self._call_timeout = call_timeout
        self._tempdir: "tempfile.TemporaryDirectory | None" = None
        if store_root is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="pod-server-")
            store_root = self._tempdir.name
        self._store_root = str(store_root)
        os.makedirs(self._store_root, exist_ok=True)
        database_facts = database_facts_of(database)
        self._configs = [
            WorkerConfig(
                transducer_factory=transducer_factory,
                database_facts=database_facts,
                store_target=self._shard_store_target(index, store_kind),
                keep_logs=keep_logs,
                auditor_factory=auditor_factory,
                durability=durability,
                id_prefix=id_prefix,
                max_resident_sessions=max_resident_sessions,
            )
            for index in range(workers)
        ]
        self._workers: list[WorkerHandle] = []
        self._httpd: "ThreadingHTTPServer | None" = None
        self._http_thread: "threading.Thread | None" = None
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._started = False
        self._closed = False

    def _shard_store_target(self, index: int, store_kind: str) -> str:
        name = f"shard-{index:02d}"
        if store_kind == "sqlite":
            name += ".sqlite"
        return os.path.join(self._store_root, name)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "PodServer":
        """Spawn the workers, verify each answers a ping, bind HTTP."""
        if self._started:
            return self
        if self._closed:
            raise ServerError("server already shut down")
        self._workers = [
            WorkerHandle(
                index,
                config,
                queue_depth=self.queue_depth,
                call_timeout=self._call_timeout,
            )
            for index, config in enumerate(self._configs)
        ]
        for worker in self._workers:
            worker.call("ping", {})
        self._httpd = _PodHTTPServer(
            (self._host, self._port), _PodRequestHandler
        )
        self._httpd.pod_server = self  # type: ignore[attr-defined]
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="pod-http",
            daemon=True,
        )
        self._http_thread.start()
        self._started = True
        return self

    @property
    def url(self) -> str:
        if self._httpd is None:
            raise ServerError("server not started")
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self) -> None:
        """Graceful stop: drain HTTP, then shut every worker down --
        each closes its store on the way out."""
        if self._closed:
            return
        self._closed = True
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.close_connections()
            self._httpd.server_close()
            if self._http_thread is not None:
                self._http_thread.join(5.0)
        for worker in self._workers:
            worker.shutdown()
        if self._tempdir is not None:
            self._tempdir.cleanup()

    def __enter__(self) -> "PodServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- routing and supervision -----------------------------------------------

    def route(self, session_id: str) -> int:
        return shard_of(session_id, self.worker_count)

    def worker(self, index: int) -> WorkerHandle:
        if not 0 <= index < len(self._workers):
            raise ServerError(f"no such worker: {index}")
        return self._workers[index]

    def healthz(self) -> tuple[int, dict]:
        """(HTTP status, payload): process liveness without touching
        the workers' queues -- observability never takes a slot."""
        rows = [
            {
                "shard": worker.shard_index,
                "alive": worker.alive,
                "restarts": worker.restarts,
                "pid": worker.pid(),
            }
            for worker in self._workers
        ]
        healthy = bool(rows) and all(row["alive"] for row in rows)
        status = 200 if healthy else 503
        return status, {
            "status": "ok" if healthy else "degraded",
            "workers": rows,
        }

    # -- the API the HTTP handler (and in-process tests) drive -----------------

    def create(self, body: Mapping) -> dict:
        session_id = body.get("session_id")
        if session_id is not None:
            if not isinstance(session_id, str):
                raise WireError(f"malformed session id: {session_id!r}")
            shard = self.route(session_id)
            reply = self._workers[shard].call(
                "create", {"session_id": session_id}
            )
            return wire.message("handle", reply)
        # Generated ids must be unique across the whole server, so the
        # front-end allocates the counter and routes each candidate to
        # its hash shard; a collision with a stored session just
        # advances the counter.
        while True:
            with self._id_lock:
                candidate = f"{self._id_prefix}-{self._next_id:06d}"
                self._next_id += 1
            shard = self.route(candidate)
            try:
                reply = self._workers[shard].call(
                    "create", {"session_id": candidate}
                )
            except SessionError as error:
                if "already exists" in str(error):
                    continue
                raise
            return wire.message("handle", reply)

    def submit(self, body: Mapping) -> dict:
        session_id = _session_id_of_wire(body.get("session"))
        shard = self.route(session_id)
        reply = self._workers[shard].call("submit", dict(body))
        return wire.message("result", reply)

    def submit_batch(self, body: Mapping) -> dict:
        encoded = body.get("requests")
        if not isinstance(encoded, (list, tuple)):
            raise WireError(f"malformed batch request list: {encoded!r}")
        # Group by shard, preserving each shard's subsequence order.
        by_shard: dict[int, list[int]] = {}
        for index, entry in enumerate(encoded):
            if not isinstance(entry, Mapping):
                raise WireError(f"malformed batch entry: {entry!r}")
            session_id = _session_id_of_wire(entry.get("session"))
            by_shard.setdefault(self.route(session_id), []).append(index)
        results: list = [None] * len(encoded)
        errors: dict[int, Exception] = {}

        def run_shard(shard: int, indices: list[int]) -> None:
            payload = {"requests": [encoded[i] for i in indices]}
            try:
                reply = self._workers[shard].call("batch", payload)
                completed = reply.get("results", ())
            except AuditViolation as violation:  # the slice stopped early
                errors[shard] = violation
                completed = violation.partial_results or ()
            except Exception as error:  # kept typed; re-raised below
                errors[shard] = error
                return
            for position, result in zip(indices, completed):
                results[position] = result

        shards = list(by_shard)
        if len(shards) == 1:
            run_shard(shards[0], by_shard[shards[0]])
        elif shards:
            with ThreadPoolExecutor(max_workers=len(shards)) as pool:
                for shard in shards:
                    pool.submit(run_shard, shard, by_shard[shard])
        if errors:
            # Prefer an audit violation (it carries findings and partial
            # results the caller must see), then the failing shard that
            # owns the earliest request in the batch.
            first = min(
                errors,
                key=lambda shard: (
                    not isinstance(errors[shard], AuditViolation),
                    by_shard[shard][0],
                ),
            )
            error = errors[first]
            if isinstance(error, AuditViolation):
                # Request-aligned across every shard: the violating
                # shards' prefixes plus the other shards' full slices.
                error.partial_results = tuple(results)
            raise error
        return wire.message("results", {"results": results})

    def snapshot(self, body: Mapping) -> dict:
        session_id = body.get("session_id")
        if not isinstance(session_id, str):
            raise WireError(f"malformed session id: {session_id!r}")
        reply = self._workers[self.route(session_id)].call(
            "snapshot", {"session_id": session_id}
        )
        return wire.message("snapshot", reply)

    def close_session(self, body: Mapping) -> dict:
        session_id = body.get("session_id")
        if not isinstance(session_id, str):
            raise WireError(f"malformed session id: {session_id!r}")
        reply = self._workers[self.route(session_id)].call(
            "close", {"session_id": session_id}
        )
        return wire.message("log", reply)

    def session_ids(self) -> dict:
        ids: list[str] = []
        for worker in self._workers:
            ids.extend(worker.call("ids", {}).get("session_ids", ()))
        return wire.message("ids", {"session_ids": sorted(ids)})

    def audits(self) -> dict:
        """Merged audit findings across workers, (session, step)-ordered.

        Each worker answers with its shard service's recorded findings
        -- which, when the worker's auditor carries a persistent
        ledger, include findings rehydrated from a previous process
        over the same store.
        """
        findings: list = []
        for worker in self._workers:
            findings.extend(
                wire.decode_audit_findings(worker.call("audits", {}))
            )
        findings.sort(key=lambda f: (f.session_id, f.step))
        return wire.message("audits", wire.encode_audit_findings(findings))

    def metrics(self) -> dict:
        per_worker = []
        for worker in self._workers:
            snapshot = worker.call("metrics", {}).get("metrics", {})
            per_worker.append({"shard": worker.shard_index, **snapshot})
        return wire.message(
            "metrics",
            {
                "server": {
                    "workers": self.worker_count,
                    "queue_depth": self.queue_depth,
                    "restarts": sum(w.restarts for w in self._workers),
                    "cpu_count": os.cpu_count(),
                },
                "pods": merge_snapshots(
                    [
                        {
                            key: value
                            for key, value in row.items()
                            if key != "shard"
                        }
                        for row in per_worker
                    ]
                ),
                "per_worker": per_worker,
            },
        )


class _PodHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that can close its open connections.

    Clients keep connections alive, so each connection's handler thread
    outlives any one request.  :meth:`close_connections` ends them at
    shutdown, so a call after shutdown fails instead of reaching a
    stopped worker.
    """

    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        with self._open_lock:
            requests = list(self._open)
        for request in requests:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class _PodRequestHandler(BaseHTTPRequestHandler):
    """Wire messages over HTTP; every response is a JSON envelope.

    Connections stay open across requests (HTTP/1.1 keep-alive).
    Nagle's algorithm is off: a response goes out as two writes
    (headers, then body), and with Nagle on, the body waits for the
    client's delayed ACK of the headers -- ~40 ms per call.
    """

    protocol_version = "HTTP/1.1"
    server_version = "PodServer/1"
    disable_nagle_algorithm = True

    @property
    def pod(self) -> PodServer:
        return self.server.pod_server  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the server is library code; no per-request stderr spam

    def _respond(self, payload: Mapping, status: "int | None" = None) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(
            status if status is not None else wire.http_status_of(payload)
        )
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _respond_error(self, error: BaseException) -> None:
        self._respond(wire.encode_error(error))

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise WireError(f"request body is not JSON: {error}") from None
        return wire.parse_message(payload)

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        routes = {
            "/v1/sessions": self.pod.create,
            "/v1/submit": self.pod.submit,
            "/v1/submit_batch": self.pod.submit_batch,
            "/v1/snapshot": self.pod.snapshot,
            "/v1/close": self.pod.close_session,
        }
        handler = routes.get(self.path)
        try:
            # Read the body even for an unknown endpoint: the connection
            # stays open, and the next request starts right after it.
            body = self._read_body()
            if handler is None:
                self._respond(
                    wire.message(
                        "error",
                        {
                            "code": "server-error",
                            "message": f"no such endpoint: POST {self.path}",
                            "status": 404,
                        },
                    )
                )
                return
            response = handler(body)
        except ReproError as error:
            self._respond_error(error)
            return
        except Exception as error:
            self._respond_error(error)
            return
        self._respond(response)

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        try:
            if self.path == "/healthz":
                status, payload = self.pod.healthz()
                self._respond(wire.message("health", payload), status)
            elif self.path == "/v1/metrics":
                self._respond(self.pod.metrics())
            elif self.path == "/v1/sessions":
                self._respond(self.pod.session_ids())
            elif self.path == "/v1/audits":
                self._respond(self.pod.audits())
            else:
                self._respond(
                    wire.message(
                        "error",
                        {
                            "code": "server-error",
                            "message": f"no such endpoint: GET {self.path}",
                            "status": 404,
                        },
                    )
                )
        except ReproError as error:
            self._respond_error(error)
        except Exception as error:
            self._respond_error(error)
