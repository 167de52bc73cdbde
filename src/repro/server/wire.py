"""The versioned JSON wire format of the pod server.

Every payload that crosses a process boundary -- front-end to worker
over the request queues, server to client over HTTP -- is a *message*::

    {"v": 1, "kind": "<kind>", "body": {...}}

``v`` is :data:`WIRE_VERSION`; a receiver seeing any other version (or
no version at all) rejects the payload with a typed
:class:`~repro.errors.WireError` instead of guessing.  ``kind`` names
the body's schema; :func:`parse_message` validates the envelope, raises
the decoded exception for ``kind == "error"``, and returns the body
otherwise.

Facts travel in the exact sorted-row JSON the session stores persist
(:func:`repro.pods.store.encode_facts`), so a step's output bytes are
identical in a JSONL event file, a SQLite row, and an HTTP response --
the byte-identity the serial-vs-server parity suite asserts.  A step
result is encoded to JSON text once, in the worker that ran it
(:func:`step_result_json`); the text crosses the worker queue as a
string and is spliced into the HTTP body (:func:`message_json`).

Errors map to wire codes (and suggested HTTP statuses) by exception
type; :func:`decode_error` reconstructs the *same* typed exception on
the far side, so a :class:`~repro.server.client.PodClient` caller
catches :class:`~repro.errors.SessionError` /
:class:`~repro.errors.AuditViolation` /
:class:`~repro.errors.Backpressure` exactly as an in-process caller
would.  (Audit findings travel as plain ``(session_id, step,
violation)`` records -- counterexample traces stay server-side.  A
batch's partial results travel as encoded step results; the client
decodes them with its own output schema.)
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    AuditViolation,
    Backpressure,
    ReproError,
    ServerError,
    SessionError,
    ShardError,
    StoreError,
    WireError,
)
from repro.pods.api import (
    SessionHandle,
    SessionSnapshot,
    StepRequest,
    StepResult,
    facts_of,
)
from repro.pods.store import decode_facts, encode_facts, facts_json, facts_layout

if TYPE_CHECKING:
    from repro.relalg.instance import Instance
    from repro.relalg.schema import DatabaseSchema

WIRE_VERSION = 1


# -- envelope ------------------------------------------------------------------


def message(kind: str, body: dict) -> dict:
    """Wrap a body in the versioned envelope."""
    return {"v": WIRE_VERSION, "kind": kind, "body": body}


def message_json(kind: str, body_json: str) -> str:
    """The envelope around a body that already is JSON text; equal to
    ``json.dumps(message(kind, json.loads(body_json)))``."""
    return (
        f'{{"v": {WIRE_VERSION}, "kind": {json.dumps(kind)}, '
        f'"body": {body_json}}}'
    )


def parse_message(payload, expect: "str | None" = None) -> dict:
    """Validate an envelope; return its body.

    Raises :class:`~repro.errors.WireError` for non-objects, missing or
    unsupported versions, and unexpected kinds.  An ``error`` message
    raises the decoded typed exception instead of returning.
    """
    if not isinstance(payload, Mapping):
        raise WireError(
            f"wire payload must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("v")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version!r} (this side speaks "
            f"{WIRE_VERSION})"
        )
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise WireError(f"wire message has no kind: {payload!r}")
    body = payload.get("body")
    if not isinstance(body, Mapping):
        raise WireError(f"wire message {kind!r} has no body object")
    if kind == "error":
        raise decode_error(body)
    if expect is not None and kind != expect:
        raise WireError(f"expected a {expect!r} message, got {kind!r}")
    return dict(body)


# -- facts and the typed API objects -------------------------------------------


def encode_inputs(inputs) -> dict:
    """An :class:`InputLike` (instance or facts mapping) as wire facts."""
    from repro.relalg.instance import Instance

    if isinstance(inputs, Instance):
        return encode_facts(facts_of(inputs))
    if isinstance(inputs, Mapping):
        try:
            return encode_facts(
                {
                    str(name): frozenset(tuple(row) for row in rows)
                    for name, rows in inputs.items()
                }
            )
        except TypeError as error:
            raise WireError(f"unencodable step inputs: {error}") from None
    raise WireError(
        f"step inputs must be an Instance or a facts mapping, "
        f"got {type(inputs).__name__}"
    )


def _facts_body(encoded, label: str) -> dict[str, frozenset[tuple]]:
    """Decode wire facts into frozensets of tuples, one pass per
    relation (nested lists become nested tuples); structural garbage
    raises WireError."""
    if not isinstance(encoded, Mapping):
        raise WireError(f"{label} must be a facts object, got {encoded!r}")
    try:
        return decode_facts(encoded)
    except (TypeError, AttributeError) as error:
        raise WireError(f"malformed {label}: {error}") from None


def encode_handle(handle: SessionHandle) -> dict:
    return {"session_id": handle.session_id, "shard": handle.shard}


def decode_handle(body) -> SessionHandle:
    if not isinstance(body, Mapping) or not isinstance(
        body.get("session_id"), str
    ):
        raise WireError(f"malformed session handle: {body!r}")
    shard = body.get("shard", 0)
    if not isinstance(shard, int) or isinstance(shard, bool):
        raise WireError(f"malformed session handle shard: {body!r}")
    return SessionHandle(body["session_id"], shard)


def encode_step_request(request: StepRequest) -> dict:
    """A :class:`StepRequest` body; the session may be a bare id."""
    session = request.session
    if isinstance(session, SessionHandle):
        encoded_session: "dict | str" = encode_handle(session)
    elif isinstance(session, str):
        encoded_session = session
    else:
        raise WireError(
            f"step request session must be a handle or id string, "
            f"got {type(session).__name__}"
        )
    return {"session": encoded_session, "inputs": encode_inputs(request.inputs)}


def decode_step_request(body) -> StepRequest:
    if not isinstance(body, Mapping) or "session" not in body:
        raise WireError(f"malformed step request: {body!r}")
    session = body["session"]
    if isinstance(session, str):
        decoded: "SessionHandle | str" = session
    else:
        decoded = decode_handle(session)
    return StepRequest(decoded, _facts_body(body.get("inputs"), "step inputs"))


def encode_step_result(result: StepResult) -> dict:
    return {
        "session": encode_handle(result.session),
        "step": result.step,
        "output": encode_facts(facts_of(result.output)),
        "latency_seconds": result.latency_seconds,
    }


def _number_json(value) -> str:
    """``json.dumps(value)`` for a step result's counters and latency."""
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def step_result_json(result: StepResult) -> str:
    """``json.dumps(encode_step_result(result))``, byte for byte.

    The output is encoded once, by the facts encoder the stores share
    (:func:`repro.pods.store.facts_json`), from its schema's cached key
    fragments; no intermediate dict is built.
    """
    handle = result.session
    return (
        '{"session": {"session_id": ' + json.dumps(handle.session_id)
        + ', "shard": ' + _number_json(handle.shard)
        + '}, "step": ' + _number_json(result.step)
        + ', "output": ' + facts_json(*facts_layout(result.output)[1:])
        + ', "latency_seconds": ' + _number_json(result.latency_seconds)
        + "}"
    )


def decode_step_result(body, outputs_schema: "DatabaseSchema") -> StepResult:
    """Rebuild a typed :class:`StepResult`; the caller supplies the
    output schema (wire messages carry facts, never schemas)."""
    from repro.relalg.instance import Instance

    if not isinstance(body, Mapping):
        raise WireError(f"malformed step result: {body!r}")
    step = body.get("step")
    if not isinstance(step, int) or isinstance(step, bool):
        raise WireError(f"malformed step result counter: {body!r}")
    return StepResult(
        session=decode_handle(body.get("session")),
        step=step,
        output=Instance(
            outputs_schema, _facts_body(body.get("output"), "step output")
        ),
        latency_seconds=float(body.get("latency_seconds", 0.0)),
    )


def encode_snapshot(snapshot: SessionSnapshot) -> dict:
    return {
        "session_id": snapshot.session_id,
        "steps": snapshot.steps,
        "state": encode_facts(snapshot.state_facts),
        "logs": [encode_facts(entry) for entry in snapshot.log_facts],
    }


def decode_snapshot(body) -> SessionSnapshot:
    if not isinstance(body, Mapping) or not isinstance(
        body.get("session_id"), str
    ):
        raise WireError(f"malformed session snapshot: {body!r}")
    steps = body.get("steps")
    if not isinstance(steps, int) or isinstance(steps, bool):
        raise WireError(f"malformed snapshot step counter: {body!r}")
    logs = body.get("logs", [])
    if not isinstance(logs, (list, tuple)):
        raise WireError(f"malformed snapshot logs: {body!r}")
    return SessionSnapshot(
        session_id=body["session_id"],
        steps=steps,
        state_facts=_facts_body(body.get("state"), "snapshot state"),
        log_facts=tuple(
            _facts_body(entry, "snapshot log entry") for entry in logs
        ),
    )


def encode_log_entries(entries) -> list:
    """Log :class:`Instance` entries as a list of wire facts."""
    return [encode_facts(facts_of(entry)) for entry in entries]


def decode_log_entries(
    entries, log_schema: "DatabaseSchema"
) -> "tuple[Instance, ...]":
    """Wire log entries as :class:`Instance` objects over ``log_schema``."""
    from repro.relalg.instance import Instance

    if not isinstance(entries, (list, tuple)):
        raise WireError(f"malformed log entries: {entries!r}")
    return tuple(
        Instance(log_schema, _facts_body(entry, "log entry"))
        for entry in entries
    )


# -- the typed error envelope --------------------------------------------------

#: exception type -> (wire code, HTTP status).  Ordered most-specific
#: first; the first matching type wins.
_ERROR_CODES: tuple[tuple[type, str, int], ...] = (
    (Backpressure, "backpressure", 429),
    (WireError, "wire-error", 400),
    (ServerError, "server-error", 503),
    (AuditViolation, "audit-violation", 409),
    (ShardError, "shard-error", 400),
    (StoreError, "store-error", 500),
    (SessionError, "session-error", 400),
    (ReproError, "repro-error", 400),
)


@dataclass(frozen=True)
class WireFinding:
    """An audit finding as it survives the wire: the judgment, minus
    the replayable trace (traces carry live instances and stay on the
    server; re-derive them there when needed).  ``property_name`` names
    the violated spec (empty for findings from servers predating the
    audits endpoint)."""

    session_id: str
    step: int
    violation: str
    property_name: str = ""


def _property_name_of(finding) -> str:
    """The violated spec's name, from whichever shape carries it."""
    name = getattr(finding, "property_name", None)
    if name:
        return str(name)
    spec = getattr(finding, "spec", None)
    describe = getattr(spec, "describe", None)
    if callable(describe):
        return str(describe())
    return ""


def encode_audit_findings(findings) -> dict:
    """An ``audits`` body: the service's recorded findings, in order."""
    return {
        "findings": [
            {
                "session_id": str(finding.session_id),
                "step": int(finding.step),
                "violation": str(finding.violation),
                "property": _property_name_of(finding),
            }
            for finding in findings
        ]
    }


def decode_audit_findings(body) -> tuple[WireFinding, ...]:
    """Inverse of :func:`encode_audit_findings`."""
    findings = body.get("findings")
    if not isinstance(findings, (list, tuple)):
        raise WireError(f"audits body has no findings list: {body!r}")
    return tuple(
        WireFinding(
            session_id=str(f.get("session_id", "")),
            step=int(f.get("step", 0)),
            violation=str(f.get("violation", "")),
            property_name=str(f.get("property", "")),
        )
        for f in findings
        if isinstance(f, Mapping)
    )


def error_code_of(error: BaseException) -> tuple[str, int]:
    """(wire code, HTTP status) for an exception."""
    for exc_type, code, status in _ERROR_CODES:
        if isinstance(error, exc_type):
            return code, status
    return "internal", 500


def encode_error(error: BaseException) -> dict:
    """An exception as an ``error`` message."""
    code, status = error_code_of(error)
    details: dict = {}
    if isinstance(error, Backpressure):
        if error.shard is not None:
            details["shard"] = error.shard
        if error.queue_depth is not None:
            details["queue_depth"] = error.queue_depth
    if isinstance(error, AuditViolation):
        details["findings"] = [
            {
                "session_id": str(finding.session_id),
                "step": int(finding.step),
                "violation": str(finding.violation),
            }
            for finding in error.findings
        ]
        if error.partial_results is not None:
            # Live StepResults from a service, or bodies already encoded
            # by a worker when the front-end re-raises its violation.
            details["partial_results"] = [
                entry
                if entry is None or isinstance(entry, Mapping)
                else encode_step_result(entry)
                for entry in error.partial_results
            ]
    body = {"code": code, "message": str(error), "status": status}
    if details:
        details = {key: details[key] for key in sorted(details)}
        body["details"] = details
    return message("error", body)


def decode_error(body) -> Exception:
    """The typed exception an ``error`` body describes.

    Unknown codes decode to :class:`~repro.errors.ServerError` (a
    future server may grow codes this client predates); a structurally
    broken error body decodes to :class:`~repro.errors.WireError`.
    """
    if not isinstance(body, Mapping) or not isinstance(
        body.get("code"), str
    ):
        return WireError(f"malformed error envelope: {body!r}")
    code = body["code"]
    text = str(body.get("message", code))
    details = body.get("details")
    details = details if isinstance(details, Mapping) else {}
    if code == "backpressure":
        return Backpressure(
            text,
            shard=details.get("shard"),
            queue_depth=details.get("queue_depth"),
        )
    if code == "audit-violation":
        findings = tuple(
            WireFinding(
                session_id=str(f.get("session_id", "")),
                step=int(f.get("step", 0)),
                violation=str(f.get("violation", "")),
            )
            for f in details.get("findings", ())
            if isinstance(f, Mapping)
        )
        # Partial results stay encoded: decoding them needs the output
        # schema, which only the receiver (PodClient) has.
        partial = details.get("partial_results")
        return AuditViolation(
            text,
            findings=findings,
            partial_results=(
                tuple(partial) if isinstance(partial, list) else None
            ),
        )
    plain = {
        "wire-error": WireError,
        "server-error": ServerError,
        "shard-error": ShardError,
        "store-error": StoreError,
        "session-error": SessionError,
        "repro-error": ReproError,
    }.get(code)
    if plain is not None:
        return plain(text)
    return ServerError(f"[{code}] {text}")


def http_status_of(payload: Mapping) -> int:
    """The HTTP status an encoded message should ride on (200 unless
    the payload is an error envelope carrying its own status)."""
    if (
        isinstance(payload, Mapping)
        and payload.get("kind") == "error"
        and isinstance(payload.get("body"), Mapping)
    ):
        status = payload["body"].get("status")
        if isinstance(status, int) and not isinstance(status, bool):
            return status
        code = payload["body"].get("code")
        for _exc_type, known, status in _ERROR_CODES:
            if code == known:
                return status
        return 500
    return 200
