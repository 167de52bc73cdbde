"""`PodClient`: the in-process service surface, spoken over HTTP.

The client shares the traffic API of
:class:`~repro.pods.service.PodService` (it subclasses its
:class:`~repro.pods.service._PodApi` mixin) -- ``create_session`` /
``submit`` / ``submit_batch`` / ``run_session`` / ``drive`` /
``session`` / ``close_session`` / ``metrics`` -- so workload drivers
and parity suites written against the in-process services (e.g.
``drive`` over per-customer
:class:`~repro.commerce.workloads.SessionGenerator` scripts) run
unchanged against a live :class:`~repro.server.frontend.PodServer`.

Wire messages carry facts, never schemas, so the client holds its own
copy of the transducer (cheap: schemas and programs, no session state)
purely to rebuild typed :class:`~repro.relalg.instance.Instance`
objects -- step outputs over the output schema, log entries over the
log schema, state over the state schema.  Equality with in-process
results is therefore exact, which is what the byte-identical parity
tests assert.

Each calling thread keeps one HTTP/1.1 keep-alive socket to the
server, so a call costs one round trip, not a TCP handshake plus a
server thread.  The client speaks the little HTTP the pod server needs
straight over that socket: a request is one ``sendall``, and a reply
is its status line, its headers and exactly ``Content-Length`` body
bytes (chunked or length-less replies are refused).  A request is
never re-sent: a broken connection or a malformed reply closes the
socket and the call raises :class:`~repro.errors.ServerError` (a POST
may already have been applied), and the thread's next call reconnects.
:meth:`PodClient.close` (or leaving a ``with PodClient(...)`` block)
closes the sockets of every thread.

Typed errors round-trip: a 4xx/5xx response carries an error envelope,
and the client raises the same exception type an in-process caller
would see -- :class:`~repro.errors.SessionError` for a bad session,
:class:`~repro.errors.AuditViolation` with findings,
:class:`~repro.errors.Backpressure` for queue overflow (HTTP 429).
Transport failures (connection refused, malformed response) raise
:class:`~repro.errors.ServerError`.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.parse
from typing import TYPE_CHECKING, Iterable

from repro.errors import AuditViolation, ServerError, WireError
from repro.pods.api import (
    SessionHandle,
    SessionSnapshot,
    StepRequest,
    StepResult,
    session_id_of,
)
from repro.pods.service import _PodApi
from repro.pods.session import SessionLog
from repro.server import wire

if TYPE_CHECKING:
    from repro.core.transducer import RelationalTransducer
    from repro.relalg.instance import Instance


class ClientSessionView:
    """A read-only session view built from one snapshot fetch.

    Quacks like :class:`~repro.pods.session.Session` where read paths
    care: ``steps``, ``state``, ``log()``, ``snapshot()``.  The view is
    a point-in-time copy -- fetch a fresh one (``client.session(...)``)
    after more traffic.
    """

    def __init__(
        self,
        snapshot: SessionSnapshot,
        transducer: "RelationalTransducer",
    ) -> None:
        from repro.relalg.instance import Instance

        schema = transducer.schema
        self.session_id = snapshot.session_id
        self.steps = snapshot.steps
        self.state: "Instance" = Instance(schema.state, snapshot.state_facts)
        self._entries = tuple(
            Instance(schema.log_schema, entry)
            for entry in snapshot.log_facts
        )
        self._snapshot = snapshot

    def log(self) -> SessionLog:
        return SessionLog(self.session_id, self._entries)

    def snapshot(self) -> SessionSnapshot:
        return self._snapshot


class ClientMetricsView:
    """``client.metrics`` -- duck-types the ``metrics`` attribute of a
    service: ``snapshot()`` returns the merged per-worker counters."""

    def __init__(self, client: "PodClient") -> None:
        self._client = client

    def snapshot(self) -> dict:
        return self._client.metrics_payload()["pods"]


class PodClient(_PodApi):
    """Speak the pod wire protocol to a server at ``base_url``.

    ``transducer`` must be (an equal copy of) the transducer the server
    runs -- typically the same module-level factory the server was
    configured with, called locally.

    ``run_session``, ``create_sessions`` and ``drive`` come from the
    shared :class:`~repro.pods.service._PodApi` traffic methods and
    funnel into ``submit_batch``; ``submit`` and ``submit_batch`` are
    one HTTP call each.
    """

    def __init__(
        self,
        base_url: str,
        transducer: "RelationalTransducer",
        *,
        timeout: float = 60.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._transducer = transducer
        self.metrics = ClientMetricsView(self)
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ServerError(f"not an http:// server URL: {base_url!r}")
        self._host = parts.hostname
        self._port = parts.port or 80
        self._netloc = parts.netloc
        self._prefix = parts.path
        # One keep-alive socket per calling thread; every socket the
        # client opened, for close().
        self._local = threading.local()
        self._sockets: set[socket.socket] = set()
        self._sockets_lock = threading.Lock()

    # -- transport -------------------------------------------------------------

    def close(self) -> None:
        """Close every socket this client opened, on all threads; a
        later call reconnects."""
        with self._sockets_lock:
            sockets, self._sockets = self._sockets, set()
        for sock in sockets:
            sock.close()

    def __enter__(self) -> "PodClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _socket(self) -> socket.socket:
        """This thread's socket to the server, made on first use and
        again after an error or :meth:`close` closed it."""
        sock = getattr(self._local, "socket", None)
        if sock is None or sock.fileno() < 0:
            sock = socket.create_connection(
                (self._host, self._port), timeout=self.timeout
            )
            # A request is one write; don't hold it for an ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._sockets_lock:
                self._sockets.add(sock)
            self._local.socket = sock
        return sock

    def _discard(self, sock: socket.socket) -> None:
        with self._sockets_lock:
            self._sockets.discard(sock)
        sock.close()

    def _request(self, method: str, path: str, payload=None) -> dict:
        head = (
            f"{method} {self._prefix}{path} HTTP/1.1\r\n"
            f"Host: {self._netloc}\r\n"
        )
        if payload is None:
            data = (head + "\r\n").encode("latin-1")
        else:
            body = json.dumps(payload).encode("utf-8")
            data = (
                f"{head}Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1") + body
        # One attempt only: a failed POST may already have been applied
        # (a step would apply twice if re-sent), so a broken connection
        # is closed and surfaces as ServerError.
        sock = None
        try:
            sock = self._socket()
            sock.sendall(data)
            status, raw, close = _read_reply(sock)
        except (OSError, _ReplyError) as error:
            if sock is not None:
                self._discard(sock)
            raise ServerError(
                f"cannot reach pod server at {self.base_url}{path}: "
                f"{error or type(error).__name__}"
            ) from None
        if close:
            self._discard(sock)
        if status >= 400:
            try:
                envelope = json.loads(raw)
            except (ValueError, UnicodeDecodeError):
                raise ServerError(
                    f"HTTP {status} from {method} {path}: {raw[:200]!r}"
                ) from None
            wire.parse_message(envelope)  # raises the typed error
            # A non-error envelope on a 4xx/5xx (e.g. the degraded
            # /healthz payload on 503) is still a valid message; let
            # the caller interpret it.
            return envelope
        try:
            return json.loads(raw)
        except (ValueError, UnicodeDecodeError) as error:
            raise WireError(
                f"non-JSON response from {method} {path}: {error}"
            ) from None

    def _post(self, path: str, kind: str, body: dict, expect: str) -> dict:
        envelope = self._request("POST", path, wire.message(kind, body))
        return wire.parse_message(envelope, expect=expect)

    def _get(self, path: str, expect: str) -> dict:
        return wire.parse_message(self._request("GET", path), expect=expect)

    # -- the service surface ---------------------------------------------------

    def create_session(
        self, session_id: "str | None" = None
    ) -> SessionHandle:
        body = {} if session_id is None else {"session_id": session_id}
        reply = self._post("/v1/sessions", "create", body, "handle")
        return wire.decode_handle(reply)

    def submit(self, request: StepRequest) -> StepResult:
        reply = self._post(
            "/v1/submit", "submit", wire.encode_step_request(request), "result"
        )
        return wire.decode_step_result(reply, self._transducer.schema.outputs)

    def submit_batch(
        self, requests: Iterable[StepRequest]
    ) -> list[StepResult]:
        """One ``POST /v1/submit_batch``; results align with requests.

        A strict audit violation is raised with its ``partial_results``
        decoded, under the contract of
        :meth:`~repro.pods.service._PodApi.submit_batch`:

        * entries align with the batch's requests;
        * a :class:`StepResult` entry was applied and persisted;
        * the violating request's entry is ``None``, but its step was
          applied and persisted;
        * no later request of the violating session ran;
        * other sessions' requests may or may not have run (over HTTP
          the shards other than the violating one run to completion).
        """
        encoded = [wire.encode_step_request(r) for r in requests]
        outputs = self._transducer.schema.outputs
        try:
            reply = self._post(
                "/v1/submit_batch", "batch", {"requests": encoded}, "results"
            )
        except AuditViolation as violation:
            if violation.partial_results is not None:
                violation.partial_results = tuple(
                    None if body is None
                    else wire.decode_step_result(body, outputs)
                    for body in violation.partial_results
                )
            raise
        return [
            wire.decode_step_result(body, outputs)
            for body in reply.get("results", ())
        ]

    def session(self, session: "SessionHandle | str") -> ClientSessionView:
        body = {"session_id": session_id_of(session)}
        reply = self._post("/v1/snapshot", "snapshot", body, "snapshot")
        return ClientSessionView(
            wire.decode_snapshot(reply), self._transducer
        )

    def has_session(self, session: "SessionHandle | str") -> bool:
        return session_id_of(session) in self.session_ids()

    def session_ids(self) -> list[str]:
        reply = self._get("/v1/sessions", "ids")
        return list(reply.get("session_ids", ()))

    def close_session(self, session: "SessionHandle | str") -> SessionLog:
        body = {"session_id": session_id_of(session)}
        reply = self._post("/v1/close", "close", body, "log")
        return SessionLog(
            reply.get("session_id", body["session_id"]),
            wire.decode_log_entries(
                reply.get("entries", ()), self._transducer.schema.log_schema
            ),
        )

    # -- observability ---------------------------------------------------------

    def audit_findings(
        self, session: "SessionHandle | str | None" = None
    ) -> "list[wire.WireFinding]":
        """``GET /v1/audits``: the server's recorded audit findings.

        The merged, (session, step)-ordered view across every worker's
        auditor -- including findings rehydrated from a persistent
        ledger after a server restart.  Mirrors the in-process
        ``service.audit_findings()`` signature, minus the traces (they
        stay server-side).
        """
        reply = self._get("/v1/audits", "audits")
        findings = wire.decode_audit_findings(reply)
        if session is None:
            return list(findings)
        session_id = session_id_of(session)
        return [f for f in findings if f.session_id == session_id]

    def metrics_payload(self) -> dict:
        """The full ``/v1/metrics`` body: ``server`` config + merged
        ``pods`` counters + ``per_worker`` breakdown."""
        return self._get("/v1/metrics", "metrics")

    def healthz(self) -> dict:
        """The ``/healthz`` body -- degraded servers answer 503 with
        the same payload shape (``status`` says so), not an error."""
        return self._get("/healthz", "health")


class _ReplyError(Exception):
    """A reply this client cannot read: cut short, not HTTP/1.x, or
    without a ``Content-Length`` (chunked bodies included)."""


def _read_reply(sock: socket.socket) -> "tuple[int, bytes, bool]":
    """(status, body, server closes) of one HTTP/1.x reply.

    Reads the status line and headers, then exactly ``Content-Length``
    body bytes.  The server answers one request at a time, so nothing
    follows the body on the socket.
    """
    buffer = bytearray()
    while (end := buffer.find(b"\r\n\r\n")) < 0:
        _receive(sock, buffer)
    lines = buffer[:end].decode("ascii", "replace").split("\r\n")
    version, _, rest = lines[0].partition(" ")
    if not version.startswith("HTTP/1.") or not rest[:3].isdigit():
        raise _ReplyError(f"bad status line {lines[0][:80]!r}")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise _ReplyError(
            f"{headers['transfer-encoding']} transfer encoding is not supported"
        )
    length = headers.get("content-length", "")
    if not length.isdigit():
        raise _ReplyError(f"no usable Content-Length: {length!r}")
    end += 4
    total = end + int(length)
    while len(buffer) < total:
        _receive(sock, buffer)
    close = headers.get("connection", "").lower() == "close"
    return int(rest[:3]), bytes(buffer[end:total]), close


def _receive(sock: socket.socket, buffer: bytearray) -> None:
    chunk = sock.recv(65536)
    if not chunk:
        raise _ReplyError("the server closed the connection")
    buffer += chunk
