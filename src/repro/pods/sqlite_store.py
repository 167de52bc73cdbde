"""A single-file transactional SessionStore backed by SQLite.

The JSONL store burns one file (and one directory entry) per session,
which dies at a few hundred thousand pods; :class:`SqliteStore` keeps
every session of a service in one database file -- the byoda
``datacache/kv_sqlite.py`` shape.  The file is log-structured, like
the run it records: a relational transducer folds (state, input) into
(output, next state), and each served step appends one row.  Two
tables:

* ``sessions`` -- one row per open session, written only by create,
  close and import;
* ``events`` -- one row per step, keyed ``(session_id, step)``: the
  step's log entry (``log``, NULL when the service runs
  ``keep_logs=False``) and its state, either whole (``state``) or as
  the change since the previous step (``change``, ``{"+": {rel:
  rows}, "-": {rel: rows}}``, the ``"-"`` key only when a relation
  lost rows).  A step sets exactly one of the two.  Imported and
  converted sessions also carry log-only rows before their full row.

So :meth:`SqliteStore.record_step` runs one ``INSERT``: no snapshot
``UPDATE``, and no ``SAVEPOINT``, because a single statement is
atomic.  A step writes a full ``state`` row when the store holds no
previous state for the session (the first step after create, after
:meth:`~SqliteStore.evict`, after a reopen or an import), or when the
rows written since the last full row reach 1 + the number of rows in
the state.  :meth:`~SqliteStore.load` therefore folds at most
|state| + 1 rows, and full rows cost O(1) per step amortized.  To
diff, the store keeps each resident session's last recorded relations
(the immutable frozensets, by reference) and that row count; a Spocus
step changes only the ``past-*`` relations its input touched, so the
change costs what the step added.  The memo is updated only once the
row is written, and dropped when the session is closed, re-created or
evicted from the service.

Facts are written in the JSONL store's sorted-row JSON
(:func:`~repro.pods.store.encode_facts`): a ``log`` or ``state`` cell
equals ``json.dumps(encode_facts(facts), sort_keys=True)`` byte for
byte (built by :func:`~repro.pods.store.facts_json`, the encoder the
pod server's step replies share), so logs are byte-identical across
the two backends and
:func:`~repro.pods.store.migrate_sessions` moves sessions either way.
A loaded state equals the recorded one under the values' equality (a
frozenset already holds one row for ``1``, ``1.0`` and ``True``).

A file in the earlier layout -- a ``snapshots`` table restating each
session's whole state, and log-only ``events`` rows -- is converted
once, at open, in one transaction: each session's state becomes a
full row at its last step, and ``snapshots`` is dropped.

The file is opened in WAL mode so readers never block the writer, and
a ``load`` during heavy stepping sees a consistent snapshot.

**Durability.**  Every store is write-through: a recorded event
commits before the call that recorded it returns.  ``durability=``
picks only SQLite's ``synchronous`` level:

* ``"full"`` -- ``synchronous=FULL``: a power loss loses nothing ever
  acknowledged;
* ``"step"`` (default) -- ``synchronous=NORMAL`` under WAL:
  crash-of-the-process loses nothing acknowledged, power loss can lose
  the tail of the WAL but never corrupts the database.

A plain ``submit`` commits once per event; a ``submit_batch`` commits
once per call, before it returns.  The service brackets the batch in
:meth:`SqliteStore.scope`: inside it, events join one open
transaction, a failing event leaves the events before it in place, and
the transaction commits when the scope exits -- also when the batch
raised.  A process killed mid-batch loses only that unacknowledged
batch.  Scopes are per thread: a thread outside one (a plain
``submit`` from another caller thread) still commits per event.

All operations are serialized by one internal lock (SQLite connections
are not thread-safe, and the per-event work is tiny next to a datalog
step), which also gives the per-session atomic, in-order write
guarantee of the :class:`~repro.pods.store.SessionStore` contract.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
from pathlib import Path

from repro.errors import SessionError, StoreError
from repro.pods.api import SessionSnapshot
from repro.pods.store import (
    StoreLifecycle,
    StoreStats,
    _decode_facts,
    _encode_facts,
    decode_rows,
    encode_rows,
    facts_json,
    facts_layout,
)

DURABILITY_MODES = ("full", "step")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sessions (
    session_id TEXT PRIMARY KEY
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS events (
    session_id TEXT    NOT NULL,
    step       INTEGER NOT NULL,
    log        TEXT,
    state      TEXT,
    change     TEXT,
    PRIMARY KEY (session_id, step)
) WITHOUT ROWID;
"""

#: Converts the earlier layout (``snapshots`` plus log-only ``events``)
#: in place; run inside one transaction.
_CONVERT = (
    "ALTER TABLE events RENAME TO events_before",
    *[statement for statement in _SCHEMA.split(";") if statement.strip()],
    "INSERT INTO sessions (session_id) SELECT session_id FROM snapshots",
    "INSERT INTO events (session_id, step, log) "
    "SELECT session_id, step, log FROM events_before "
    "WHERE session_id IN (SELECT session_id FROM snapshots)",
    "INSERT INTO events (session_id, step, state) "
    "SELECT session_id, steps, state FROM snapshots "
    "WHERE state IS NOT NULL "
    "ON CONFLICT (session_id, step) DO UPDATE SET state = excluded.state",
    "DROP TABLE events_before",
    "DROP TABLE snapshots",
)

_INSERT_STEP = (
    "INSERT INTO events (session_id, step, log, state, change) "
    "VALUES (?, ?, ?, ?, ?)"
)


class SqliteStore(StoreLifecycle):
    """Every session of a service in one transactional SQLite file.

    ``path`` is the database file (created, with parents, on first
    open); ``durability`` is documented in the module docstring.  The
    store is also usable as a context manager::

        with SqliteStore(tmp / "pods.sqlite") as s:
            service = PodService(transducer, db, store=s)
            ...
        # exiting closed the file
    """

    def __init__(
        self,
        path: str | Path,
        *,
        durability: str = "step",
    ) -> None:
        if durability not in DURABILITY_MODES:
            raise StoreError(
                f"unknown durability {durability!r}: "
                f"choose one of {DURABILITY_MODES}"
            )
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self.durability = durability
        self._lock = threading.RLock()
        self._closed = False
        self._commits = 0
        # Per-thread scope depth (see scope()).
        self._local = threading.local()
        # session id -> (relation names, their rows as last recorded,
        # rows written since the last full row); see record_step.
        self._state_memo: dict[str, tuple[tuple, list, int]] = {}
        try:
            self._conn = sqlite3.connect(
                str(self._path), check_same_thread=False
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(
                "PRAGMA synchronous="
                + ("FULL" if durability == "full" else "NORMAL")
            )
            if self._conn.execute(
                "SELECT 1 FROM sqlite_master "
                "WHERE type = 'table' AND name = 'snapshots'"
            ).fetchone():
                self._execute([(sql, ()) for sql in _CONVERT])
            else:
                self._conn.executescript(_SCHEMA)
            self._conn.commit()
        except (sqlite3.Error, StoreError) as error:
            raise StoreError(
                f"cannot open SQLite store at {self._path}: {error}"
            ) from error

    @property
    def path(self) -> Path:
        """The database file (exposed for inspection)."""
        return self._path

    # -- internal plumbing -----------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError(f"SQLite store at {self._path} is closed")

    def _execute(self, statements: list[tuple[str, tuple]]) -> None:
        """Apply one multi-statement event (create, close, import).

        Called with the lock held.  The event runs in its own savepoint
        of the open transaction, so a failing event rolls back alone.
        Outside a :meth:`scope` the event commits at once; inside one,
        the scope's exit commits.  An unscoped commit also commits
        events another thread's scope left open: they become durable
        sooner, never later.
        """
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
                self._commit_unscoped()
        except sqlite3.Error as error:
            raise StoreError(f"SQLite write failed: {error}") from error

    def _commit_unscoped(self) -> None:
        if not getattr(self._local, "depth", 0):
            self._commit_locked()

    def _commit_locked(self) -> None:
        if self._conn.in_transaction:
            self._conn.commit()
            self._commits += 1

    @contextlib.contextmanager
    def scope(self):
        """Commit the events this thread records inside, once, on exit.

        The exit commit runs whether or not the body raised, so the
        events that completed before an error stay durable.  Scopes
        nest; only the outermost one commits.
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
                    "INSERT OR IGNORE INTO sessions (session_id) VALUES (?)",
                    (session_id,),
                ),
            ])

    def record_step(self, session_id, steps, state, log_entry) -> None:
        """Append the step's one row: its log entry and its state,
        whole or as the change since the session's last recorded
        state (see the module docstring)."""
        self._check_open()
        names, keys, relations = facts_layout(state)
        log_json = None
        if log_entry is not None:
            log_json = facts_json(*facts_layout(log_entry)[1:])
        with self._lock:
            # Diff and write under one lock hold, so the memo always
            # describes the last row written for the session.
            memo = self._state_memo.get(session_id)
            if (
                memo is None
                or memo[0] != names
                or memo[2] > sum(map(len, relations))
            ):
                state_json, change_json = facts_json(keys, relations), None
                written = 1
            else:
                state_json, change_json = None, self._change_json(
                    keys, relations, memo[1]
                )
                written = memo[2] + 1
            try:
                self._conn.execute(
                    _INSERT_STEP,
                    (session_id, steps, log_json, state_json, change_json),
                )
                self._state_memo[session_id] = (names, relations, written)
                self._commit_unscoped()
            except sqlite3.Error as error:
                raise StoreError(f"SQLite write failed: {error}") from error

    @staticmethod
    def _change_json(keys, relations, before) -> str:
        """``{"+": {rel: rows}, "-": {rel: rows}}`` from ``before`` to
        ``relations`` (JSON text, sorted keys; ``"-"`` only when rows
        were removed)."""
        added: list[str] = []
        removed: list[str] = []
        for key, rows, old in zip(keys, relations, before):
            if rows is old:
                continue
            grown = rows - old
            if grown:
                added.append(key + json.dumps(encode_rows(grown)))
            lost = old - rows
            if lost:
                removed.append(key + json.dumps(encode_rows(lost)))
        text = '{"+": {' + ", ".join(added) + "}"
        if removed:
            text += ', "-": {' + ", ".join(removed) + "}"
        return text + "}"

    def record_closed(self, session_id: str) -> None:
        self._check_open()
        self._state_memo.pop(session_id, None)
        with self._lock:
            # Closed sessions are dropped outright (no tombstone): the
            # API only requires that they stop being resumable, and
            # rows, unlike the JSONL store's files, are free to delete.
            self._execute([
                ("DELETE FROM events WHERE session_id = ?", (session_id,)),
                ("DELETE FROM sessions WHERE session_id = ?", (session_id,)),
            ])

    def import_snapshot(self, snapshot: SessionSnapshot) -> None:
        """Adopt a session from another store (plain-facts form).

        Its log entries become log-only rows at steps 1, 2, ...; its
        state becomes a full row at its last step.
        """
        self._check_open()
        session_id = snapshot.session_id
        rows: dict[int, list] = {
            step: [json.dumps(_encode_facts(entry), sort_keys=True), None]
            for step, entry in enumerate(snapshot.log_facts, start=1)
        }
        rows.setdefault(snapshot.steps, [None, None])[1] = json.dumps(
            _encode_facts(snapshot.state_facts), sort_keys=True
        )
        statements = [(
            "INSERT INTO sessions (session_id) VALUES (?)", (session_id,)
        )]
        statements.extend(
            (
                "INSERT INTO events (session_id, step, log, state) "
                "VALUES (?, ?, ?, ?)",
                (session_id, step, log, state),
            )
            for step, (log, state) in sorted(rows.items())
        )
        with self._lock:
            # Check and insert under one lock hold, so two racing
            # imports of one id cannot both pass the check.
            exists = self._conn.execute(
                "SELECT 1 FROM sessions WHERE session_id = ?",
                (session_id,),
            ).fetchone()
            if exists is not None:
                raise SessionError(f"session already exists: {session_id!r}")
            self._execute(statements)

    # -- reads (always read-your-writes) ---------------------------------------

    def load(self, session_id: str) -> SessionSnapshot | None:
        """The session's snapshot: every log entry, and the state of
        its last full row with the changes after it folded in."""
        self._check_open()
        with self._lock:
            if self._conn.execute(
                "SELECT 1 FROM sessions WHERE session_id = ?",
                (session_id,),
            ).fetchone() is None:
                return None
            rows = self._conn.execute(
                "SELECT step, log, state, change FROM events "
                "WHERE session_id = ? ORDER BY step",
                (session_id,),
            ).fetchall()
        full = len(rows) - 1
        while full >= 0 and rows[full][2] is None:
            full -= 1
        if full < 0:
            state_facts = {}
        elif full == len(rows) - 1:
            state_facts = _decode_facts(json.loads(rows[full][2]))
        else:
            state_facts = self._fold(rows[full][2], rows[full + 1:])
        return SessionSnapshot(
            session_id,
            rows[-1][0] if rows else 0,
            state_facts,
            tuple(
                _decode_facts(json.loads(log))
                for _step, log, _state, _change in rows
                if log is not None
            ),
        )

    @staticmethod
    def _fold(state_json: str, changes) -> dict[str, frozenset]:
        """A full state's JSON text with the later rows' changes applied."""
        relations = {
            name: set(rows)
            for name, rows in _decode_facts(json.loads(state_json)).items()
        }
        for _step, _log, _state, change_json in changes:
            if change_json is None:
                continue
            change = json.loads(change_json)
            for name, rows in change["+"].items():
                relations.setdefault(name, set()).update(decode_rows(rows))
            for name, rows in change.get("-", {}).items():
                relations[name].difference_update(decode_rows(rows))
        return {name: frozenset(rows) for name, rows in relations.items()}

    def session_ids(self) -> list[str]:
        self._check_open()
        with self._lock:
            rows = self._conn.execute(
                "SELECT session_id FROM sessions ORDER BY session_id"
            ).fetchall()
        return [session_id for (session_id,) in rows]

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close the database file; idempotent."""
        with self._lock:
            if self._closed:
                return
            # A scope still open on another thread: keep its events.
            self._commit_locked()
            self._closed = True
            self._conn.close()
        self._state_memo.clear()

    def evict(self, session_id: str) -> None:
        """Drop the evicted session's state memo: its next step writes
        a full row."""
        self._state_memo.pop(session_id, None)

    def stats(self) -> StoreStats:
        """``events`` counts session rows plus step rows; closed
        sessions are deleted outright, so ``sessions`` equals
        ``open_sessions`` for this backend.  ``commits`` counts the
        transactions committed since the store was opened."""
        self._check_open()
        with self._lock:
            # Checkpoint so bytes_on_disk reflects the database file,
            # not an arbitrarily long WAL tail (not possible while a
            # scope on another thread holds a transaction open).
            if not self._conn.in_transaction:
                self._conn.execute("PRAGMA wal_checkpoint(PASSIVE)")
            (sessions,) = self._conn.execute(
                "SELECT COUNT(*) FROM sessions"
            ).fetchone()
            (step_rows,) = self._conn.execute(
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
            events=sessions + step_rows,
            commits=commits,
        )
