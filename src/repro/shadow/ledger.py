"""The persistent violations ledger: findings through the store seam.

An :class:`AuditLedger` persists :class:`~repro.verify.api.AuditFinding`
and :class:`~repro.shadow.report.DivergenceReport` records through the
exact :class:`~repro.pods.store.SessionStore` protocol the pod runtime
already trusts with session state -- memory, JSONL directory, or SQLite,
all three unchanged.  Each *audited session* owns one ledger "session"
whose synthetic log entries are the encoded records: appending a
finding is one ``record_step``, pruning a closed session is one
``record_closed``, and rehydration after a process restart is the plain
``session_ids`` + ``load`` walk every store already supports.

Records are encoded deterministically -- each becomes a single-relation
fact ``{"__finding__": {(json,)}}`` whose JSON payload is
``sort_keys``-canonical and whose facts travel through
:func:`~repro.pods.store.encode_facts`, the runtime's one fact codec --
so a finding's bytes are identical in a JSONL event file, a SQLite row,
and back out of either, which is what the restart-durability suite
asserts.

The compiled :class:`~repro.verify.api.specs.PropertySpec` object does
not survive the trip (specs hold live formulas); its ``describe()``
string does, carried back on a :class:`LedgerSpec` placeholder, and the
replayable :class:`~repro.verify.api.trace.CounterexampleTrace` rides
along in full -- a rehydrated finding still replays.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.config import parse_int
from repro.errors import StoreError
from repro.pods.store import decode_facts, encode_facts, open_store
from repro.verify.api.auditor import AuditFinding
from repro.verify.api.trace import CounterexampleTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pods.store import SessionStore, StoreStats

__all__ = [
    "AuditLedger",
    "LedgerSpec",
    "LEDGER_RELATION",
    "encode_record",
    "decode_record",
]

#: The single synthetic relation ledger entries live in.  The dunder
#: name cannot collide with a transducer schema (relation names come
#: from the Spocus grammar), so a ledger can even share a store file
#: with real sessions without ambiguity.
LEDGER_RELATION = "__finding__"


@dataclass(frozen=True)
class LedgerSpec:
    """Stand-in spec on a rehydrated finding: the name, not the formula.

    ``AuditFinding.spec`` is excluded from equality, so findings compare
    the same before and after the round trip; ``describe()`` keeps the
    property name flowing into re-encoding and wire codecs.
    """

    name: str = ""

    def describe(self) -> str:
        return self.name


def _property_of(record) -> str:
    spec = getattr(record, "spec", None)
    describe = getattr(spec, "describe", None)
    if callable(describe):
        return str(describe())
    trace = getattr(record, "trace", None)
    return str(getattr(trace, "property_name", "") or "")


def _encode_trace(trace: "CounterexampleTrace | None"):
    if trace is None:
        return None
    return {
        "kind": trace.kind,
        "inputs": [encode_facts(step) for step in trace.inputs],
        "log": [encode_facts(entry) for entry in trace.log],
        "database": (
            encode_facts(trace.database) if trace.database is not None else None
        ),
        "step": trace.step,
        "violation": trace.violation,
        "property_name": trace.property_name,
        "resume_steps": trace.resume_steps,
        "resume_state": (
            encode_facts(trace.resume_state)
            if trace.resume_state is not None
            else None
        ),
    }


def _decode_trace(body) -> "CounterexampleTrace | None":
    if body is None:
        return None
    return CounterexampleTrace(
        kind=str(body.get("kind", "")),
        inputs=tuple(decode_facts(step) for step in body.get("inputs", ())),
        log=tuple(decode_facts(entry) for entry in body.get("log", ())),
        database=(
            decode_facts(body["database"])
            if body.get("database") is not None
            else None
        ),
        step=body.get("step"),
        violation=str(body.get("violation", "")),
        property_name=str(body.get("property_name", "")),
        resume_steps=int(body.get("resume_steps", 0)),
        resume_state=(
            decode_facts(body["resume_state"])
            if body.get("resume_state") is not None
            else None
        ),
    )


def encode_record(record) -> dict:
    """A finding or divergence report as a canonical JSON-ready dict."""
    from repro.shadow.report import DivergenceReport

    if isinstance(record, AuditFinding):
        return {
            "type": "finding",
            "session_id": record.session_id,
            "step": record.step,
            "property": _property_of(record),
            "violation": record.violation,
            "trace": _encode_trace(record.trace),
        }
    if isinstance(record, DivergenceReport):
        return {
            "type": "divergence",
            "session_id": record.session_id,
            "step": record.step,
            "kind": record.kind,
            "detail": record.detail,
            "policy": record.policy,
            "incumbent": encode_facts(record.incumbent),
            "candidate": encode_facts(record.candidate),
            "trace": _encode_trace(record.trace),
        }
    raise StoreError(
        f"the audit ledger stores AuditFinding / DivergenceReport "
        f"records, got {type(record).__name__}"
    )


def decode_record(payload: Mapping):
    """Inverse of :func:`encode_record`."""
    from repro.shadow.report import DivergenceReport

    record_type = payload.get("type")
    if record_type == "finding":
        return AuditFinding(
            session_id=str(payload.get("session_id", "")),
            step=int(payload.get("step", 0)),
            spec=LedgerSpec(str(payload.get("property", ""))),
            violation=str(payload.get("violation", "")),
            trace=_decode_trace(payload.get("trace")),
        )
    if record_type == "divergence":
        return DivergenceReport(
            session_id=str(payload.get("session_id", "")),
            step=int(payload.get("step", 0)),
            kind=str(payload.get("kind", "")),
            detail=str(payload.get("detail", "")),
            policy=str(payload.get("policy", "")),
            incumbent=decode_facts(payload.get("incumbent", {})),
            candidate=decode_facts(payload.get("candidate", {})),
            trace=_decode_trace(payload.get("trace")),
        )
    raise StoreError(f"unknown ledger record type {record_type!r}")


class AuditLedger:
    """Per-session violation records over any :class:`SessionStore`.

    ``store`` accepts everything :func:`~repro.pods.store.open_store`
    does: ``None`` (in-memory -- survives service instances, not the
    process), a directory path (JSONL), a ``.sqlite`` path, or a live
    store object.  Thread-safe: appends arrive concurrently from caller
    threads that submit to distinct sessions.

    ``max_findings_per_session`` bounds retention: when an append would
    exceed the bound, the oldest records of that session are pruned on
    the write path (every store backend truncates a recreated session
    id, so pruning is a rewrite of the newest ``max - 1`` records plus
    the new one).  The bound survives restarts -- a rehydrated ledger
    keeps pruning from the persisted counts -- and ``None`` (the
    default) retains everything, as before.
    """

    def __init__(
        self,
        store: "SessionStore | str | None" = None,
        *,
        max_findings_per_session: "int | None" = None,
    ) -> None:
        if max_findings_per_session is not None:
            max_findings_per_session = parse_int(
                "max_findings_per_session",
                max_findings_per_session,
                minimum=1,
                error=StoreError,
            )
        self._max = max_findings_per_session
        self._store = open_store(store)
        self._lock = threading.Lock()
        # Appended-record count per ledger session; primed from the
        # store so a rehydrated ledger keeps appending, not truncating.
        self._counts: dict[str, int] = {}
        for session_id in self._store.session_ids():
            snapshot = self._store.load(session_id)
            if snapshot is not None:
                self._counts[session_id] = snapshot.steps

    @property
    def store(self) -> "SessionStore":
        return self._store

    def session_ids(self) -> list[str]:
        """Sorted ids of every session with retained records."""
        with self._lock:
            return sorted(self._counts)

    def append(self, session_id: str, record) -> None:
        """Persist one finding/report under the audited session's id.

        With a retention bound, an append that would exceed it first
        drops the session's oldest records (oldest-first pruning on the
        write path).
        """
        blob = json.dumps(encode_record(record), sort_keys=True)
        entry = {LEDGER_RELATION: frozenset({(blob,)})}
        with self._lock:
            count = self._counts.get(session_id)
            if count is None:
                self._store.record_created(session_id)
                count = 0
            if self._max is not None and count >= self._max:
                count = self._prune_to(session_id, self._max - 1)
            count += 1
            self._counts[session_id] = count
            self._store.record_step(session_id, count, {}, entry)

    def _prune_to(self, session_id: str, keep: int) -> int:
        """Rewrite one session retaining only its newest ``keep`` records.

        Relies on the store contract shared by all three backends:
        ``record_created`` on an existing id truncates its history, so
        the rewrite is truncate + re-append (renumbered from 1).  Called
        under the lock.  Returns the retained count.
        """
        blobs: list[str] = []
        snapshot = self._store.load(session_id)
        if snapshot is not None:
            for entry in snapshot.log_facts:
                for row in entry.get(LEDGER_RELATION, ()):
                    blobs.append(row[0])
        kept = blobs[max(0, len(blobs) - keep):] if keep > 0 else []
        self._store.record_created(session_id)
        for number, blob in enumerate(kept, 1):
            self._store.record_step(
                session_id, number, {}, {LEDGER_RELATION: frozenset({(blob,)})}
            )
        return len(kept)

    def records(self, session_id: str) -> list:
        """The decoded records of one session, in append order."""
        snapshot = self._store.load(session_id)
        if snapshot is None:
            return []
        out = []
        for entry in snapshot.log_facts:
            for row in entry.get(LEDGER_RELATION, ()):
                out.append(decode_record(json.loads(row[0])))
        return out

    def all_records(self) -> list:
        """Every retained record, ordered by (session id, append order)."""
        out = []
        for session_id in self.session_ids():
            out.extend(self.records(session_id))
        return out

    def forget(self, session_id: str) -> None:
        """Prune one session's records (the session was closed)."""
        with self._lock:
            self._counts.pop(session_id, None)
            self._store.record_closed(session_id)

    # -- lifecycle (delegates to the backing store) ----------------------------

    def close(self) -> None:
        self._store.close()

    def stats(self) -> "StoreStats":
        return self._store.stats()

    def __enter__(self) -> "AuditLedger":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
