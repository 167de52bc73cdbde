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

Each calling thread keeps one HTTP/1.1 keep-alive connection to the
server, so a call costs one round trip, not a TCP handshake plus a
server thread.  A request is never re-sent: a broken connection is
closed and the call raises :class:`~repro.errors.ServerError` (a POST
may already have been applied), and the thread's next call reconnects.

Typed errors round-trip: a 4xx/5xx response carries an error envelope,
and the client raises the same exception type an in-process caller
would see -- :class:`~repro.errors.SessionError` for a bad session,
:class:`~repro.errors.AuditViolation` with findings,
:class:`~repro.errors.Backpressure` for queue overflow (HTTP 429).
Transport failures (connection refused, malformed response) raise
:class:`~repro.errors.ServerError`.
"""

from __future__ import annotations

import http.client
import json
import threading
import urllib.parse
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

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
    from repro.core.transducer import InputLike, RelationalTransducer
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

    ``run_session`` and ``create_sessions`` come from the shared
    :class:`~repro.pods.service._PodApi` traffic methods; ``submit``,
    ``submit_batch`` and ``drive`` are one HTTP call each.
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
        self._port = parts.port
        self._prefix = parts.path
        # One keep-alive connection per calling thread.
        self._local = threading.local()

    # -- transport -------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection to the server, made on first use.

        After an error closes it, its next request reconnects.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
        return connection

    def _request(self, method: str, path: str, payload=None) -> dict:
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        # One attempt only: a failed POST may already have been applied
        # (a step would apply twice if re-sent), so a broken connection
        # is closed and surfaces as ServerError.
        connection = self._connection()
        try:
            connection.request(
                method, self._prefix + path, body=data, headers=headers
            )
            response = connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            raise ServerError(
                f"cannot reach pod server at {self.base_url}{path}: "
                f"{error or type(error).__name__}"
            ) from None
        if response.status >= 400:
            try:
                envelope = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                raise ServerError(
                    f"HTTP {response.status} from {method} {path}: "
                    f"{raw[:200]!r}"
                ) from None
            wire.parse_message(envelope)  # raises the typed error
            # A non-error envelope on a 4xx/5xx (e.g. the degraded
            # /healthz payload on 503) is still a valid message; let
            # the caller interpret it.
            return envelope
        try:
            return json.loads(raw.decode("utf-8"))
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

    def drive(
        self,
        workload: "Mapping[SessionHandle | str, Sequence[InputLike]]",
        round_robin: bool = True,
    ) -> None:
        """Same semantics as the in-process ``drive``; the round-robin
        interleaving travels as one batch (per-session order is what
        the runtime guarantees, and it is preserved either way)."""
        items = sorted(
            workload.items(), key=lambda item: session_id_of(item[0])
        )
        requests: list[StepRequest] = []
        if round_robin:
            position = 0
            remaining = True
            while remaining:
                remaining = False
                for session, sequence in items:
                    if position < len(sequence):
                        requests.append(
                            StepRequest(session, sequence[position])
                        )
                        remaining = (
                            remaining or position + 1 < len(sequence)
                        )
                position += 1
        else:
            for session, sequence in items:
                requests.extend(
                    StepRequest(session, inputs) for inputs in sequence
                )
        if requests:
            self.submit_batch(requests)

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
