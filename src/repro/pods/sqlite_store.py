"""A single-file transactional SessionStore backed by SQLite.

The JSONL store burns one file (and one directory entry) per session,
which dies at a few hundred thousand pods; :class:`SqliteStore` keeps
every session of a service in one database file -- the byoda
``datacache/kv_sqlite.py`` shape -- with two tables:

* ``snapshots`` -- one row per open session: its step count and the
  cumulative state (the load-bearing record, restated every step just
  as the JSONL store's ``step`` records restate it, but as an in-place
  UPDATE instead of an append);
* ``events`` -- one row per *logged* step: the step's log entry, keyed
  ``(session_id, step)``.  Services running ``keep_logs=False`` write
  no event rows at all, matching the JSONL semantics of persisting
  only state and step count.

The file is opened in WAL mode so readers never block the writer, and
a ``load`` during heavy stepping sees a consistent snapshot.  The
wire format of facts is exactly the JSONL store's
(:func:`~repro.pods.store._encode_facts` sorted-row JSON), so
snapshots are byte-identical across the two backends and
:func:`~repro.pods.store.migrate_sessions` moves sessions either way.

**Durability knob.**  Per-step fsyncs would bottleneck hot-path
stepping, so writes are governed by ``durability=``:

* ``"full"`` -- ``synchronous=FULL``: a power loss loses nothing ever
  acknowledged;
* ``"step"`` (default) -- ``synchronous=NORMAL`` under WAL:
  crash-of-the-process loses nothing acknowledged, power loss can lose
  the tail of the WAL but never corrupts the database;
* ``"batched"`` -- write-behind: events buffer in memory and commit as
  one transaction every ``flush_every`` events, on any read
  (``load``/``session_ids``/``stats`` -- read-your-writes always
  holds), on :meth:`flush`, and on :meth:`close`.  A crash loses at
  most the unflushed tail; the database itself stays consistent.

In ``"full"`` and ``"step"`` mode a recorded event commits before the
call that recorded it returns.  A plain ``submit`` commits once per
event; a ``submit_batch`` commits once per call, before it returns.
The service brackets the batch in :meth:`SqliteStore.scope`: inside
it, each event runs in its own ``SAVEPOINT`` of one open transaction,
so a failing event rolls back alone, and the transaction commits when
the scope exits -- also when the batch raised.  A process killed
mid-batch loses only that unacknowledged batch.  Scopes are per
thread: a thread outside one (a plain ``submit``, a pool worker of a
concurrent batch) still commits per event.

The state column is re-encoded per relation, not per state: a Spocus
step changes only the ``past-*`` relations its input touched, and the
store keeps each resident session's per-relation JSON text, keyed by
the identity of the relation's (immutable) frozenset.  The text is
byte-identical to encoding the whole state; the memo is dropped when
the session is closed, re-created, or evicted from the service.

All operations are serialized by one internal lock (SQLite connections
are not thread-safe, and the per-event work is tiny next to a datalog
step), which also gives the per-session atomic, in-order write
guarantee of the :class:`~repro.pods.store.SessionStore` contract.
"""

from __future__ import annotations

import atexit
import contextlib
import json
import os
import signal
import sqlite3
import threading
import weakref
from pathlib import Path

from repro.errors import SessionError, StoreError
from repro.pods.api import SessionSnapshot, facts_of
from repro.pods.store import (
    StoreLifecycle,
    StoreStats,
    _decode_facts,
    _encode_facts,
    encode_rows,
)
from repro.relalg.instance import Instance

DURABILITY_MODES = ("full", "step", "batched")

# Open write-behind stores, so an interpreter exit (atexit) or a
# SIGTERM can drain buffers the owner never flush()ed/close()d.  Weak
# references: registration must not keep an abandoned store (and its
# sqlite connection) alive.
_OPEN_BATCHED: "weakref.WeakSet[SqliteStore]" = weakref.WeakSet()
_EXIT_HOOKS = {"installed": False}
_EXIT_HOOKS_LOCK = threading.Lock()


def drain_open_stores() -> int:
    """Flush every open ``durability="batched"`` store; returns events.

    The last-resort drain behind the exit hooks; safe to call at any
    time (a store closed or flushed concurrently just contributes 0).
    Failures are swallowed -- this runs during interpreter shutdown or
    inside a signal handler, where raising would mask the exit itself.
    """
    drained = 0
    for store in list(_OPEN_BATCHED):
        try:
            drained += store.flush()
        except Exception:
            continue
    return drained


def _sigterm_drain(signum, frame):
    """Drain buffers, then die by SIGTERM as if unhandled.

    Restoring ``SIG_DFL`` and re-raising keeps the kill semantics a
    supervisor expects (the process reports termination-by-signal, not
    a clean exit) while still making acknowledged-but-buffered events
    durable first.
    """
    drain_open_stores()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _install_exit_hooks() -> None:
    """Register the atexit drain (and a SIGTERM drain when possible).

    Called once, lazily, by the first batched store.  The SIGTERM hook
    is only installed when the process still has the *default* handler
    and we are on the main thread -- an application (or test harness)
    that manages SIGTERM itself is never overridden; it can call
    :func:`drain_open_stores` from its own handler.
    """
    with _EXIT_HOOKS_LOCK:
        if _EXIT_HOOKS["installed"]:
            return
        _EXIT_HOOKS["installed"] = True
        atexit.register(drain_open_stores)
        try:
            if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
                signal.signal(signal.SIGTERM, _sigterm_drain)
        except (ValueError, OSError):
            # Not the main thread (or an embedded interpreter without
            # signal support): the atexit hook still covers clean exits.
            pass

_SCHEMA = """
CREATE TABLE IF NOT EXISTS snapshots (
    session_id TEXT PRIMARY KEY,
    steps      INTEGER NOT NULL DEFAULT 0,
    state      TEXT
);
CREATE TABLE IF NOT EXISTS events (
    session_id TEXT    NOT NULL,
    step       INTEGER NOT NULL,
    log        TEXT    NOT NULL,
    PRIMARY KEY (session_id, step)
) WITHOUT ROWID;
"""


class SqliteStore(StoreLifecycle):
    """Every session of a service in one transactional SQLite file.

    ``path`` is the database file (created, with parents, on first
    open); ``durability`` and ``flush_every`` are documented in the
    module docstring.  The store is also usable as a context manager::

        with SqliteStore(tmp / "pods.sqlite", durability="batched") as s:
            service = PodService(transducer, db, store=s)
            ...
        # exiting flushed and closed the file
    """

    def __init__(
        self,
        path: str | Path,
        *,
        durability: str = "step",
        flush_every: int = 256,
    ) -> None:
        if durability not in DURABILITY_MODES:
            raise StoreError(
                f"unknown durability {durability!r}: "
                f"choose one of {DURABILITY_MODES}"
            )
        if flush_every < 1:
            raise StoreError(f"flush_every must be >= 1, got {flush_every}")
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self.durability = durability
        self.flush_every = flush_every
        self._lock = threading.RLock()
        # (sql, params) statements not yet committed (batched mode).
        self._pending: list[tuple[str, tuple]] = []
        self._pending_events = 0
        self._closed = False
        self._commits = 0
        # Per-thread scope depth (see scope()).
        self._local = threading.local()
        # session id -> {relation -> (rows, JSON text)} of the state it
        # last recorded (see _state_json).
        self._state_memo: dict[str, dict[str, tuple[frozenset, str]]] = {}
        try:
            self._conn = sqlite3.connect(
                str(self._path), check_same_thread=False
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(
                "PRAGMA synchronous="
                + ("FULL" if durability == "full" else "NORMAL")
            )
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
        except sqlite3.Error as error:
            raise StoreError(
                f"cannot open SQLite store at {self._path}: {error}"
            ) from error
        if durability == "batched":
            # A SIGTERM or plain interpreter exit must not lose the
            # write-behind buffer of a store nobody close()d: register
            # for the module's exit-time drain.
            _install_exit_hooks()
            _OPEN_BATCHED.add(self)

    @property
    def path(self) -> Path:
        """The database file (exposed for inspection)."""
        return self._path

    # -- internal plumbing -----------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError(f"SQLite store at {self._path} is closed")

    def _execute(self, statements: list[tuple[str, tuple]]) -> None:
        """Apply one event's statements per the durability mode.

        Called with the lock held.  ``batched`` buffers and commits on
        threshold.  ``full``/``step`` run the event in its own savepoint
        of the open transaction, so a failing event rolls back alone.
        Outside a :meth:`scope` the event commits at once; inside one,
        the scope's exit commits.  An unscoped commit also commits
        events another thread's scope left open: they become durable
        sooner, never later.
        """
        if self.durability == "batched":
            self._pending.extend(statements)
            self._pending_events += 1
            if self._pending_events >= self.flush_every:
                self._flush_locked()
            return
        conn = self._conn
        try:
            if not conn.in_transaction:
                conn.execute("BEGIN")
            conn.execute("SAVEPOINT event")
            try:
                for sql, params in statements:
                    conn.execute(sql, params)
            except sqlite3.Error:
                conn.execute("ROLLBACK TO event")
                raise
            finally:
                conn.execute("RELEASE event")
                if not getattr(self._local, "depth", 0):
                    self._commit_locked()
        except sqlite3.Error as error:
            raise StoreError(f"SQLite write failed: {error}") from error

    def _commit_locked(self) -> None:
        if self._conn.in_transaction:
            self._conn.commit()
            self._commits += 1

    def _flush_locked(self) -> int:
        if not self._pending:
            return 0
        try:
            for sql, params in self._pending:
                self._conn.execute(sql, params)
            self._commit_locked()
        except sqlite3.Error as error:
            self._conn.rollback()
            raise StoreError(f"SQLite flush failed: {error}") from error
        flushed = self._pending_events
        self._pending.clear()
        self._pending_events = 0
        return flushed

    @contextlib.contextmanager
    def scope(self):
        """Commit the events this thread records inside, once, on exit.

        The exit commit runs whether or not the body raised, so the
        events that completed before an error stay durable.  Scopes
        nest; only the outermost one commits.  (``batched`` events
        are buffered, not executed, so its scopes commit nothing.)
        """
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        try:
            yield
        finally:
            self._local.depth = depth
            if depth == 0:
                with self._lock:
                    if not self._closed:
                        try:
                            self._commit_locked()
                        except sqlite3.Error as error:
                            raise StoreError(
                                f"SQLite commit failed: {error}"
                            ) from error

    def _state_json(self, session_id: str, state) -> str:
        """The state column: ``json.dumps(_encode_facts(facts), sort_keys=True)``.

        Built from per-relation fragments, re-encoding only relations
        whose frozenset is not the one this session last recorded.
        Plain facts mappings (no live instance) are encoded whole.
        """
        if not isinstance(state, Instance):
            return json.dumps(_encode_facts(facts_of(state)), sort_keys=True)
        memo = self._state_memo.get(session_id)
        if memo is None:
            memo = self._state_memo[session_id] = {}
        fragments = []
        for name in sorted(state.schema.names):
            rows = state[name]
            cached = memo.get(name)
            if cached is None or cached[0] is not rows:
                cached = memo[name] = (
                    rows,
                    json.dumps(name) + ": " + json.dumps(encode_rows(rows)),
                )
            fragments.append(cached[1])
        return "{" + ", ".join(fragments) + "}"

    # -- the SessionStore recording seam ---------------------------------------

    def record_created(self, session_id: str) -> None:
        self._check_open()
        self._state_memo.pop(session_id, None)
        with self._lock:
            # Recreating an id truncates its history, exactly as the
            # JSONL store truncates the event file.
            self._execute([
                ("DELETE FROM events WHERE session_id = ?", (session_id,)),
                (
                    "INSERT OR REPLACE INTO snapshots "
                    "(session_id, steps, state) VALUES (?, 0, NULL)",
                    (session_id,),
                ),
            ])

    def record_step(self, session_id, steps, state, log_entry) -> None:
        self._check_open()
        # Encode outside the lock: instances are immutable, and the
        # JSON encoding dominates the per-event cost.
        state_json = self._state_json(session_id, state)
        statements = [
            (
                "UPDATE snapshots SET steps = ?, state = ? "
                "WHERE session_id = ?",
                (steps, state_json, session_id),
            ),
        ]
        if log_entry is not None:
            log_json = json.dumps(
                _encode_facts(facts_of(log_entry)), sort_keys=True
            )
            statements.append((
                "INSERT OR REPLACE INTO events (session_id, step, log) "
                "VALUES (?, ?, ?)",
                (session_id, steps, log_json),
            ))
        with self._lock:
            self._execute(statements)

    def record_closed(self, session_id: str) -> None:
        self._check_open()
        self._state_memo.pop(session_id, None)
        with self._lock:
            # Closed sessions are dropped outright (no tombstone): the
            # API only requires that they stop being resumable, and
            # rows, unlike the JSONL store's files, are free to delete.
            self._execute([
                ("DELETE FROM events WHERE session_id = ?", (session_id,)),
                ("DELETE FROM snapshots WHERE session_id = ?", (session_id,)),
            ])

    def import_snapshot(self, snapshot: SessionSnapshot) -> None:
        """Adopt a session from another store (plain-facts form)."""
        self._check_open()
        state_json = json.dumps(
            _encode_facts(snapshot.state_facts), sort_keys=True
        )
        statements = [(
            "INSERT INTO snapshots (session_id, steps, state) "
            "VALUES (?, ?, ?)",
            (snapshot.session_id, snapshot.steps, state_json),
        )]
        for step, entry in enumerate(snapshot.log_facts, start=1):
            statements.append((
                "INSERT INTO events (session_id, step, log) VALUES (?, ?, ?)",
                (
                    snapshot.session_id,
                    step,
                    json.dumps(_encode_facts(entry), sort_keys=True),
                ),
            ))
        with self._lock:
            # Check and insert under one lock hold, so two racing
            # imports of one id cannot both pass the check.
            self._flush_locked()
            exists = self._conn.execute(
                "SELECT 1 FROM snapshots WHERE session_id = ?",
                (snapshot.session_id,),
            ).fetchone()
            if exists is not None:
                raise SessionError(
                    f"session already exists: {snapshot.session_id!r}"
                )
            self._execute(statements)

    # -- reads (always read-your-writes) ---------------------------------------

    def load(self, session_id: str) -> SessionSnapshot | None:
        self._check_open()
        with self._lock:
            self._flush_locked()
            row = self._conn.execute(
                "SELECT steps, state FROM snapshots WHERE session_id = ?",
                (session_id,),
            ).fetchone()
            if row is None:
                return None
            steps, state_json = row
            log_rows = self._conn.execute(
                "SELECT log FROM events WHERE session_id = ? ORDER BY step",
                (session_id,),
            ).fetchall()
        state_facts = (
            _decode_facts(json.loads(state_json))
            if state_json is not None
            else {}
        )
        return SessionSnapshot(
            session_id,
            steps,
            state_facts,
            tuple(_decode_facts(json.loads(log)) for (log,) in log_rows),
        )

    def session_ids(self) -> list[str]:
        self._check_open()
        with self._lock:
            self._flush_locked()
            rows = self._conn.execute(
                "SELECT session_id FROM snapshots ORDER BY session_id"
            ).fetchall()
        return [session_id for (session_id,) in rows]

    # -- lifecycle -------------------------------------------------------------

    def flush(self) -> int:
        """Commit all buffered events; returns how many were pending."""
        self._check_open()
        with self._lock:
            return self._flush_locked()

    def close(self) -> None:
        """Flush and close the database file; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._flush_locked()
            # A scope still open on another thread: keep its events.
            self._commit_locked()
            self._closed = True
            self._conn.close()
        self._state_memo.clear()
        _OPEN_BATCHED.discard(self)

    def __del__(self) -> None:
        # Best-effort drain for a store garbage-collected before exit
        # (the exit hooks hold only weak references, so GC would
        # otherwise silently drop a pending write-behind buffer).
        try:
            self.close()
        except Exception:
            pass

    def evict(self, session_id: str) -> None:
        """Drop the evicted session's state memo."""
        self._state_memo.pop(session_id, None)

    def stats(self) -> StoreStats:
        """``events`` counts snapshot rows plus log rows; closed
        sessions are deleted outright, so ``sessions`` equals
        ``open_sessions`` for this backend.  ``commits`` counts the
        transactions committed since the store was opened."""
        self._check_open()
        with self._lock:
            self._flush_locked()
            # Checkpoint so bytes_on_disk reflects the database file,
            # not an arbitrarily long WAL tail (not possible while a
            # scope on another thread holds a transaction open).
            if not self._conn.in_transaction:
                self._conn.execute("PRAGMA wal_checkpoint(PASSIVE)")
            (sessions,) = self._conn.execute(
                "SELECT COUNT(*) FROM snapshots"
            ).fetchone()
            (log_rows,) = self._conn.execute(
                "SELECT COUNT(*) FROM events"
            ).fetchone()
            commits = self._commits
        bytes_on_disk = 0
        for suffix in ("", "-wal", "-shm"):
            sibling = Path(str(self._path) + suffix)
            if sibling.exists():
                bytes_on_disk += sibling.stat().st_size
        return StoreStats(
            sessions=sessions,
            open_sessions=sessions,
            bytes_on_disk=bytes_on_disk,
            events=sessions + log_rows,
            commits=commits,
        )
