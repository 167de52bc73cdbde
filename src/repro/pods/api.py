"""Typed request/response objects of the PodService API.

Sessions are addressed and stepped through small value objects:

* a :class:`SessionHandle` names a session by a stable string id plus
  the shard it lives on -- the address of a pod, valid across service
  restarts (the id, not the handle object, is what persists);
* a :class:`StepRequest` is one unit of traffic: "advance this session
  by this input instance";
* a :class:`StepResult` is the service's reply: the output instance,
  the session's step counter after the step, and the measured latency;
* a :class:`SessionSnapshot` is the persistence-format view of a
  session -- plain fact dictionaries, no live objects -- exchanged with
  :class:`~repro.pods.store.SessionStore` implementations; a
  :class:`StoredLog` is its log as read from a store on first use.

Handles are deliberately cheap and immutable: they carry no reference
to the service, so they can be stored, logged, or sent across a process
boundary and resolved later.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Mapping, TYPE_CHECKING

from repro.errors import SessionError
from repro.relalg.instance import Instance

if TYPE_CHECKING:
    from repro.core.transducer import InputLike


Facts = Mapping[str, frozenset[tuple]]
"""Relation name -> set of tuples; the wire form of an instance."""


@dataclass(frozen=True)
class SessionHandle:
    """The address of one session (pod): a string id and its shard.

    ``shard`` is the ``shard_index`` of the service that issued the
    handle: 0 for a standalone :class:`~repro.pods.service.PodService`,
    and for a :class:`~repro.server.frontend.PodServer` the worker the
    id hash-routes to (:func:`~repro.pods.service.shard_of`).  Equality
    is by value, so handles obtained from different service instances
    over the same store compare equal.
    """

    session_id: str
    shard: int = 0


@dataclass(frozen=True)
class StepRequest:
    """One step of traffic: advance ``session`` by ``inputs``.

    ``session`` may be a handle or a bare session id string; every
    service entry point accepts both.
    """

    session: "SessionHandle | str"
    inputs: "InputLike"


@dataclass(frozen=True)
class StepResult:
    """The reply to one :class:`StepRequest`.

    ``step`` is the session's step counter *after* the step (1-based for
    the first step), matching the paper's numbering of run positions.
    ``log_entry`` is the session's ``(I ∪ O)|log`` for the step, for the
    shadow diff to reuse: never on the wire, never compared, ``None``
    when the service keeps no log.
    """

    session: SessionHandle
    step: int
    output: "Instance"
    latency_seconds: float
    log_entry: "Instance | None" = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SessionSnapshot:
    """A session's persistent state, in plain-facts form.

    ``state_facts`` is the cumulative state after ``steps`` steps;
    ``log_facts`` holds one facts-mapping per logged step (empty when
    the session was run with logging off).  A snapshot from a store's
    ``load`` carries its log as a :class:`StoredLog`, read from the
    store only when first used; it compares equal to the tuple of the
    same entries.  The snapshot carries no schemas: the service that
    restores it supplies them from its transducer, so snapshots
    survive process restarts.
    """

    session_id: str
    steps: int
    state_facts: Facts
    log_facts: "Sequence[Facts]" = ()


class StoredLog(Sequence):
    """The log entries of steps 1..``steps`` of a stored session, read
    from ``store`` (its ``load_log``) on first use and kept after.

    Sessions and store snapshots hand out their logs in this form, so
    restoring a session never reads its log: only the callers that use
    the entries pay for decoding them.  A session closed before the
    read raises :class:`~repro.errors.SessionError`.
    """

    __slots__ = ("_store", "_session_id", "_steps", "_entries")

    def __init__(self, store, session_id: str, steps: int) -> None:
        self._store = store
        self._session_id = session_id
        self._steps = steps
        self._entries: "tuple[Facts, ...] | None" = None

    def _read(self) -> "tuple[Facts, ...]":
        if self._entries is None:
            entries = self._store.load_log(self._session_id, self._steps)
            if entries is None:
                raise SessionError(
                    f"session {self._session_id!r} was closed before its"
                    " log was read"
                )
            self._entries = entries
        return self._entries

    def __len__(self) -> int:
        return len(self._read())

    def __getitem__(self, index):
        return self._read()[index]

    def __iter__(self):
        return iter(self._read())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, StoredLog)):
            return self._read() == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"StoredLog({self._read()!r})"


def session_id_of(session: SessionHandle | str) -> str:
    """The session id named by a handle or a bare id string."""
    if isinstance(session, SessionHandle):
        return session.session_id
    return session


def facts_of(instance: "Instance | Facts") -> dict[str, frozenset[tuple]]:
    """An instance's relations as a plain dict (shared frozensets).

    Plain facts mappings pass through (normalized to frozenset rows),
    so store ``record_step`` paths -- which all funnel through this
    function -- accept either a live instance or the wire form.  The
    audit ledger leans on that: it persists findings as synthetic log
    entries that never were instances.
    """
    if isinstance(instance, Instance):
        return {name: instance[name] for name in instance.schema.names}
    return {
        str(name): frozenset(tuple(row) for row in rows)
        for name, rows in instance.items()
    }
