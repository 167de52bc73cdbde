"""Session persistence: the durability seam of the pod runtime.

A :class:`SessionStore` receives every lifecycle event of every session
(:meth:`record_created`, :meth:`record_step`, :meth:`record_closed`)
and can reproduce any live session as a
:class:`~repro.pods.api.SessionSnapshot`.  Three implementations:

* :class:`InMemoryStore` keeps snapshots in process memory -- the
  behavior of the PR 1 engine, plus the ability to hand a session from
  one service instance to another inside the same process;
* :class:`JsonlDirectoryStore` appends one JSON line per event to a
  per-session file, so a service can be killed at any step boundary,
  recreated over the same directory, and resume every session exactly
  where it stopped -- the byoda data-pod shape: the pod's state outlives
  the serving process;
* :class:`~repro.pods.sqlite_store.SqliteStore` keeps every session in
  one transactional SQLite file (one row per step, WAL mode) -- the
  tier that scales past "one file per session".

The JSON wire format stores relation facts as sorted lists of rows;
values must be JSON-representable (the repro domain uses strings and
numbers).  Rows round-trip back to tuples (nested sequences included)
on load.

All stores serialize their writes per session: record events for one
session are applied atomically and in call order even when they arrive
from different threads (callers that submit from their own threads
usually own disjoint sessions, but nothing stops two of them from
submitting the same session -- the store stays consistent
either way; *ordering* across racing writers of one session remains the
caller's contract).

Every store is write-through: an event is persisted when the call that
recorded it returns (for a batch, when the batch's
:meth:`~StoreLifecycle.scope` exits); no store keeps a buffer that
needs draining.  Beyond the recording seam, every store is a managed
resource: it exposes :meth:`~StoreLifecycle.close` (release the
backend), works as a context manager, and reports a typed
:class:`StoreStats`.  :func:`open_store` rejects any object that lacks
part of this surface.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.errors import SessionError, StoreError
from repro.pods.api import Facts, SessionSnapshot, facts_of
from repro.relalg.instance import Instance


@dataclass(frozen=True)
class StoreStats:
    """A store's size, as the capacity benchmarks read it.

    ``sessions`` counts every session the backend still holds data for
    (closed-but-retained files included, where the backend retains
    them); ``open_sessions`` counts the resumable ones;
    ``bytes_on_disk`` is the backend's current on-disk footprint (0 for
    in-memory); ``events`` is the number of persisted event records --
    each backend documents its own notion (in-memory: created + steps
    retained; JSONL: total lines; SQLite: session rows + step rows).
    ``commits`` counts the transactions the store committed since it
    was opened (SQLite only; 0 for the other backends).
    """

    sessions: int = 0
    open_sessions: int = 0
    bytes_on_disk: int = 0
    events: int = 0
    commits: int = 0


@dataclass(frozen=True)
class MigrationReport:
    """What :func:`migrate_sessions` did, per session.

    ``migrated`` holds the ids now live in the destination; ``skipped``
    the ids that vanished between listing and loading (e.g. closed by a
    concurrent service); ``errors`` maps ids to the message of the
    :class:`~repro.errors.SessionError` their import raised.
    """

    migrated: tuple[str, ...] = ()
    skipped: tuple[str, ...] = ()
    errors: tuple[tuple[str, str], ...] = ()


@runtime_checkable
class SessionStore(Protocol):
    """Where session state lives between (and across) service instances.

    :meth:`record_step` receives the live (immutable) instances, so a
    store decides for itself when to pay for serialization: the
    in-memory store just keeps references on the hot path, the JSONL
    store encodes eagerly, the SQLite store encodes eagerly and
    commits once per call (see :meth:`scope`).  ``log_entry`` is
    ``None`` when the service runs with logging off; stores then
    persist only state and step count, and restored sessions resume
    with an empty log (matching ``keep_logs=False`` semantics).

    On top of the recording seam, a store is a managed resource:
    :meth:`close` releases the backend and :meth:`stats` reports a
    typed :class:`StoreStats`.  The service also brackets each batch
    call in :meth:`scope` and reports every session it drops from
    memory through :meth:`evict`.  :class:`StoreLifecycle` supplies
    defaults for the last four.
    """

    def record_created(self, session_id: str) -> None:
        """A fresh session was opened (state S_0, step 0)."""
        ...

    def record_step(
        self,
        session_id: str,
        steps: int,
        state: "Instance",
        log_entry: "Instance | None",
    ) -> None:
        """A session advanced one step to ``steps`` total."""
        ...

    def record_closed(self, session_id: str) -> None:
        """A session was retired; it must no longer be resumable."""
        ...

    def load(self, session_id: str) -> SessionSnapshot | None:
        """The snapshot of a resumable session, or ``None``."""
        ...

    def session_ids(self) -> list[str]:
        """Sorted ids of all resumable sessions."""
        ...

    def close(self) -> None:
        """Release the backend; the store is unusable after."""
        ...

    def stats(self) -> StoreStats:
        """The store's current size as a :class:`StoreStats`."""
        ...

    def scope(self) -> "contextlib.AbstractContextManager[None]":
        """A context manager around one service call on this thread."""
        ...

    def evict(self, session_id: str) -> None:
        """The service dropped ``session_id`` from memory."""
        ...


class StoreLifecycle:
    """Default lifecycle surface shared by the concrete stores.

    Stores inherit the no-op :meth:`close` and the context-manager
    protocol (``with open_store(path) as store: ...`` closes on exit).
    Subclasses override :meth:`stats` (the default reports an empty
    store) and whichever lifecycle methods their backend needs.

    Two service-facing hooks are no-ops by default: :meth:`scope`
    brackets one service call (``submit_batch``), and :meth:`evict`
    tells the store a session left the service's memory.
    """

    def scope(self) -> "contextlib.AbstractContextManager[None]":
        """A context manager around one service call on this thread.

        Events recorded inside it must be durable when it exits; a
        store may use it to commit them together.  No-op by default.
        """
        return contextlib.nullcontext()

    def evict(self, session_id: str) -> None:
        """The service dropped ``session_id`` from memory; the store
        may drop whatever it keeps per resident session.  No-op by
        default."""

    def close(self) -> None:
        """Release the backend (no-op by default)."""

    def stats(self) -> StoreStats:
        return StoreStats()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class InMemoryStore(StoreLifecycle):
    """Process-local snapshots; no durability across restarts.

    This is "today's behavior" from PR 1: sessions exist only while the
    serving process lives.  Per-step bookkeeping is two assignments and
    a list append of references to the instances the session already
    holds (instances are immutable, so sharing is safe); snapshots are
    materialized into plain facts only on :meth:`load`.
    """

    def __init__(self) -> None:
        # session id -> [steps, state instance or None, log instances]
        self._records: dict[str, list] = {}
        # One lock serializes all record mutations: the per-event work
        # is two assignments and an append, so finer-grained locking
        # would buy nothing.
        self._lock = threading.Lock()

    def record_created(self, session_id: str) -> None:
        with self._lock:
            self._records[session_id] = [0, None, []]

    def stats(self) -> StoreStats:
        """``events`` counts retained records: one created per session
        plus its current step count (closed sessions are dropped
        outright, so they no longer contribute)."""
        with self._lock:
            sessions = len(self._records)
            events = sum(1 + record[0] for record in self._records.values())
        return StoreStats(
            sessions=sessions,
            open_sessions=sessions,
            bytes_on_disk=0,
            events=events,
        )

    def record_step(
        self,
        session_id: str,
        steps: int,
        state: "Instance",
        log_entry: "Instance | None",
    ) -> None:
        with self._lock:
            record = self._records[session_id]
            record[0] = steps
            record[1] = state
            if log_entry is not None:
                record[2].append(log_entry)

    def record_closed(self, session_id: str) -> None:
        with self._lock:
            self._records.pop(session_id, None)

    def import_snapshot(self, snapshot: SessionSnapshot) -> None:
        """Adopt a session from another store (plain-facts form)."""
        with self._lock:
            if snapshot.session_id in self._records:
                raise SessionError(
                    f"session already exists: {snapshot.session_id!r}"
                )
            self._records[snapshot.session_id] = [
                snapshot.steps,
                dict(snapshot.state_facts),
                [dict(entry) for entry in snapshot.log_facts],
            ]

    @staticmethod
    def _facts(value) -> Facts:
        """Records hold live instances (hot path) or plain facts (import)."""
        if isinstance(value, Mapping):
            return value
        return facts_of(value)

    def load(self, session_id: str) -> SessionSnapshot | None:
        with self._lock:
            record = self._records.get(session_id)
            if record is None:
                return None
            steps, state, log = record
            log = list(log)
        return SessionSnapshot(
            session_id,
            steps,
            self._facts(state) if state is not None else {},
            tuple(self._facts(entry) for entry in log),
        )

    def session_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._records)


def encode_facts(facts: Facts) -> dict[str, list[list]]:
    """Facts as JSON-ready sorted lists (deterministic file contents).

    The one fact codec of the runtime: the JSONL and SQLite stores
    persist through it, and the pod server's wire format
    (:mod:`repro.server.wire`) reuses it verbatim, so a fact's bytes
    are identical in an event file, a SQLite row, and an HTTP body.
    """
    return {name: encode_rows(rows) for name, rows in sorted(facts.items())}


#: id(schema) -> (schema, sorted names, their JSON key fragments); the
#: entry keeps the schema alive, so its id is never reused while cached.
_LAYOUTS: dict[int, tuple] = {}
_LAYOUT_LIMIT = 256


def facts_layout(value) -> tuple[tuple[str, ...], tuple[str, ...], list]:
    """(sorted names, their JSON key fragments, their rows) of an
    :class:`~repro.relalg.instance.Instance` or plain facts mapping.

    A key fragment is a relation's JSON name and ``": "``; an
    instance's names and fragments are cached per schema, so encoding
    a value of a known schema never re-sorts or re-escapes its names.
    """
    if isinstance(value, Instance):
        schema = value.schema
        layout = _LAYOUTS.get(id(schema))
        if layout is None:
            names = tuple(sorted(schema.names))
            layout = (
                schema, names, tuple(json.dumps(name) + ": " for name in names)
            )
            if len(_LAYOUTS) >= _LAYOUT_LIMIT:
                _LAYOUTS.clear()
            _LAYOUTS[id(schema)] = layout
        _schema, names, keys = layout
        relations = value.relations
        return names, keys, [relations[name] for name in names]
    facts = facts_of(value)
    names = tuple(sorted(facts))
    keys = tuple(json.dumps(name) + ": " for name in names)
    return names, keys, [facts[name] for name in names]


def facts_json(keys, relations) -> str:
    """``json.dumps(encode_facts(facts))``, byte for byte, from the key
    fragments and rows :func:`facts_layout` returns.

    The one facts-JSON encoder of the runtime: the SQLite store's log
    and state cells and the worker's step replies are both built here.
    """
    return "{" + ", ".join([
        key + (json.dumps(encode_rows(rows)) if rows else "[]")
        for key, rows in zip(keys, relations)
    ]) + "}"


def encode_rows(rows: frozenset[tuple]) -> list[list]:
    """One relation's rows as JSON-ready lists, sorted by ``repr``."""
    if len(rows) > 1:
        rows = sorted(rows, key=repr)
    return [list(row) for row in rows]


def _decode_row(row: list) -> tuple:
    return tuple(
        _decode_row(value) if isinstance(value, list) else value
        for value in row
    )


def decode_rows(rows: list[list]) -> frozenset[tuple]:
    """Inverse of :func:`encode_rows`: rows back to (nested) tuples.

    One pass over flat rows; a row holding a list (unhashable, so the
    fast pass raises ``TypeError``) is rebuilt with nested tuples.  A
    row that is not iterable, or a value that is unhashable even then,
    raises ``TypeError``.
    """
    try:
        return frozenset(map(tuple, rows))
    except TypeError:
        return frozenset(map(_decode_row, rows))


def decode_facts(encoded: dict[str, list[list]]) -> dict[str, frozenset[tuple]]:
    """Inverse of :func:`encode_facts`: rows back to (nested) tuples."""
    return {name: decode_rows(rows) for name, rows in encoded.items()}


# Original (pre-server) private names, kept for in-repo callers.
_encode_facts = encode_facts
_decode_facts = decode_facts


class JsonlDirectoryStore(StoreLifecycle):
    """One append-only ``<session_id>.jsonl`` event file per session.

    The first line of a file is a ``created`` record; every step appends
    a ``step`` record carrying the *cumulative* state (Spocus state is
    monotone and small) plus that step's log entry; closing appends a
    ``closed`` record, after which the session is no longer resumable
    (recreating the id truncates the file).  :meth:`load` replays the
    file: state and step count come from the last ``step`` (or
    ``snapshot``) record, the log is the concatenation of all entries.

    Because each ``step`` record restates the cumulative state, only the
    last one is load-bearing; on open the store therefore *compacts*
    every session file down to its created record plus one ``snapshot``
    record (last state + step count + the full log), so a long-lived pod
    directory stays O(state + log) instead of O(steps * state).  Pass
    ``compact_on_open=False`` to inspect files as written.
    """

    def __init__(
        self, directory: str | Path, *, compact_on_open: bool = True
    ) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        # Per-session write locks: appends to one session's event file
        # must not interleave mid-line when submitted from threads;
        # distinct sessions write to distinct files and proceed in
        # parallel.  _locks_guard only protects the lock dict itself.
        self._locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        if compact_on_open:
            self.compact()

    def _lock_of(self, session_id: str) -> threading.Lock:
        lock = self._locks.get(session_id)
        if lock is None:
            with self._locks_guard:
                lock = self._locks.setdefault(session_id, threading.Lock())
        return lock

    @property
    def directory(self) -> Path:
        return self._directory

    def path_of(self, session_id: str) -> Path:
        """The event file of one session (exposed for inspection)."""
        return self._directory / f"{session_id}.jsonl"

    def _append(self, session_id: str, record: dict) -> None:
        with self._lock_of(session_id):
            with self.path_of(session_id).open(
                "a", encoding="utf-8"
            ) as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    def record_created(self, session_id: str) -> None:
        record = {"kind": "created", "session_id": session_id, "version": 1}
        with self._lock_of(session_id):
            with self.path_of(session_id).open(
                "w", encoding="utf-8"
            ) as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    def record_step(
        self,
        session_id: str,
        steps: int,
        state: "Instance",
        log_entry: "Instance | None",
    ) -> None:
        self._append(
            session_id,
            {
                "kind": "step",
                "steps": steps,
                "state": _encode_facts(facts_of(state)),
                "log": (
                    _encode_facts(facts_of(log_entry))
                    if log_entry is not None
                    else None
                ),
            },
        )

    def record_closed(self, session_id: str) -> None:
        self._append(session_id, {"kind": "closed"})

    @staticmethod
    def _snapshot_record(snapshot: SessionSnapshot) -> dict:
        """A single record restating a session's whole persistent state."""
        return {
            "kind": "snapshot",
            "steps": snapshot.steps,
            "state": _encode_facts(snapshot.state_facts),
            "logs": [_encode_facts(entry) for entry in snapshot.log_facts],
            "version": 1,
        }

    def import_snapshot(self, snapshot: SessionSnapshot) -> None:
        """Adopt a session from another store (one snapshot record)."""
        if self.load(snapshot.session_id) is not None:
            raise SessionError(
                f"session already exists: {snapshot.session_id!r}"
            )
        self.record_created(snapshot.session_id)
        self._append(snapshot.session_id, self._snapshot_record(snapshot))

    def _fsync_directory(self) -> None:
        """Make a just-completed rename durable (POSIX: fsync the dir).

        Platforms that cannot open a directory for reading (Windows)
        skip the sync -- the rename itself is still atomic there.
        """
        try:
            fd = os.open(self._directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def compact(self) -> int:
        """Fold every multi-record session file into one snapshot line.

        Equivalent by construction: the rewritten file loads to exactly
        the snapshot the original file loads to.  Files already compact
        (at most one state-bearing record) and closed sessions are left
        untouched.  Returns the number of files rewritten.

        Crash-safe: the replacement is written to a ``.tmp`` scratch
        file, fsynced, atomically renamed over the original, and the
        directory entry is fsynced -- at every instant the session's
        path holds either the complete old file or the complete new
        one, so a crash mid-compaction can never lose (or truncate) a
        session's event file.  Stale scratch files from a previous
        crash are swept on entry.
        """
        # A crash between writing a scratch file and the atomic replace
        # leaves a stale .tmp behind; sweep them before rewriting.
        for stale in self._directory.glob("*.jsonl.tmp"):
            stale.unlink()
        compacted = 0
        for path in sorted(self._directory.glob("*.jsonl")):
            # Hold the session's write lock across read-fold-replace so
            # a concurrent append cannot land between the snapshot read
            # and the rename (and be silently dropped by it).
            with self._lock_of(path.stem):
                records = []
                with path.open("r", encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if line:
                            records.append(json.loads(line))
                kinds = [record.get("kind") for record in records]
                if "closed" in kinds:
                    continue
                if sum(1 for k in kinds if k in ("step", "snapshot")) <= 1:
                    continue
                snapshot = self._load_unlocked(path.stem)
                if snapshot is None:
                    continue
                created = next(
                    (r for r in records if r.get("kind") == "created"),
                    {"kind": "created", "session_id": path.stem, "version": 1},
                )
                scratch = path.with_name(path.name + ".tmp")
                with scratch.open("w", encoding="utf-8") as handle:
                    handle.write(json.dumps(created, sort_keys=True) + "\n")
                    handle.write(
                        json.dumps(
                            self._snapshot_record(snapshot), sort_keys=True
                        )
                        + "\n"
                    )
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(scratch, path)
                self._fsync_directory()
                compacted += 1
        return compacted

    def load(self, session_id: str) -> SessionSnapshot | None:
        return self._load_unlocked(session_id)

    def _load_unlocked(self, session_id: str) -> SessionSnapshot | None:
        # Reads never take the session lock (appends are whole-line
        # atomic and loads tolerate a final partial view); compact()
        # calls in here while already holding the lock.
        path = self.path_of(session_id)
        if not path.exists():
            return None
        steps = 0
        state_facts: dict[str, frozenset[tuple]] = {}
        log_facts: list[Facts] = []
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                kind = record.get("kind")
                if kind == "closed":
                    return None
                if kind == "snapshot":
                    steps = record["steps"]
                    state_facts = _decode_facts(record["state"])
                    log_facts = [
                        _decode_facts(entry) for entry in record["logs"]
                    ]
                    continue
                if kind != "step":
                    continue
                steps = record["steps"]
                state_facts = _decode_facts(record["state"])
                if record["log"] is not None:
                    log_facts.append(_decode_facts(record["log"]))
        return SessionSnapshot(session_id, steps, state_facts, tuple(log_facts))

    # Every record is dumped with sort_keys=True and "kind" sorts before
    # every other key this store writes (log/logs/session_id/state/
    # steps/version), so each line starts with its kind marker and
    # resumability is decidable from the raw lines -- no fact decoding.
    _CLOSED_PREFIX = '{"kind": "closed"'

    def _is_resumable(self, path: Path) -> bool:
        """Scan one event file for a ``closed`` record, cheaply.

        Reads lines only (no JSON parsing, no fact decoding) and stops
        at the first ``closed`` marker, making :meth:`session_ids` over
        a large pod directory O(total lines) instead of O(total facts).
        """
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(self._CLOSED_PREFIX):
                    return False
        return True

    def session_ids(self) -> list[str]:
        ids = []
        for path in sorted(self._directory.glob("*.jsonl")):
            if self._is_resumable(path):
                ids.append(path.stem)
        return ids

    def stats(self) -> StoreStats:
        """``events`` counts event lines across all files; ``sessions``
        counts files (a closed session's file is retained until its id
        is recreated, so it still counts)."""
        sessions = open_sessions = bytes_on_disk = events = 0
        for path in sorted(self._directory.glob("*.jsonl")):
            sessions += 1
            bytes_on_disk += path.stat().st_size
            with path.open("r", encoding="utf-8") as handle:
                closed = False
                for line in handle:
                    if line.strip():
                        events += 1
                    if line.startswith(self._CLOSED_PREFIX):
                        closed = True
            if not closed:
                open_sessions += 1
        return StoreStats(
            sessions=sessions,
            open_sessions=open_sessions,
            bytes_on_disk=bytes_on_disk,
            events=events,
        )


def migrate_sessions(
    src_store: SessionStore, dst_store: SessionStore
) -> MigrationReport:
    """Copy every resumable session of ``src_store`` into ``dst_store``.

    Snapshots travel in their plain-facts wire form, so sessions move
    freely between store implementations (in-memory, JSONL directory,
    SQLite file, and back); a service opened over ``dst_store`` resumes
    them exactly where they stopped.  The source is left untouched --
    drop or retire it once the destination is live.

    Raises :class:`~repro.errors.StoreError` up front if the
    destination already knows one of the ids (or cannot import
    snapshots), so a failed migration never leaves it half-populated.
    Per-session outcomes after that pre-flight are collected instead of
    raised: the returned :class:`MigrationReport` lists the ids
    migrated (sorted), the ids skipped because they vanished from the
    source mid-migration, and any per-session import errors.
    """
    importer = getattr(dst_store, "import_snapshot", None)
    if importer is None:
        raise StoreError(
            f"destination store {dst_store!r} does not support "
            "import_snapshot"
        )
    source_ids = src_store.session_ids()
    collisions = set(source_ids) & set(dst_store.session_ids())
    if collisions:
        raise StoreError(
            f"sessions already exist in the destination: "
            f"{sorted(collisions)}"
        )
    migrated: list[str] = []
    skipped: list[str] = []
    errors: list[tuple[str, str]] = []
    for session_id in source_ids:
        snapshot = src_store.load(session_id)
        if snapshot is None:
            skipped.append(session_id)
            continue
        try:
            importer(snapshot)
        except SessionError as error:
            errors.append((session_id, str(error)))
            continue
        migrated.append(session_id)
    return MigrationReport(
        migrated=tuple(migrated),
        skipped=tuple(skipped),
        errors=tuple(errors),
    )


#: The :class:`SessionStore` methods :func:`open_store` requires.  The
#: check goes through ``getattr`` rather than ``isinstance`` so that a
#: wrapper forwarding through ``__getattr__`` counts on every Python
#: version (from 3.12 protocol checks look attributes up statically).
_STORE_METHODS = (
    "record_created",
    "record_step",
    "record_closed",
    "load",
    "session_ids",
    "close",
    "stats",
    "scope",
    "evict",
)

#: File suffixes that make a path argument open a SQLite store rather
#: than a JSONL directory.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


def open_store(
    target: "SessionStore | str | Path | None", *, durability: str = "step"
) -> SessionStore:
    """Coerce a store argument.

    ``None`` opens an in-memory store; a path with a SQLite suffix
    (:data:`SQLITE_SUFFIXES`, any case) opens a
    :class:`~repro.pods.sqlite_store.SqliteStore` in ``durability``
    mode; any other path opens a :class:`JsonlDirectoryStore` over that
    directory.  ``durability`` only applies to SQLite paths.  Objects
    implementing the whole :class:`SessionStore` protocol pass through;
    anything else raises :class:`~repro.errors.StoreError`.
    """
    if target is None:
        return InMemoryStore()
    if isinstance(target, (str, Path)):
        path = Path(target)
        if path.suffix.lower() in SQLITE_SUFFIXES:
            from repro.pods.sqlite_store import SqliteStore

            return SqliteStore(path, durability=durability)
        return JsonlDirectoryStore(path)
    if all(callable(getattr(target, name, None)) for name in _STORE_METHODS):
        return target
    raise StoreError(f"not a session store: {target!r}")
