"""The hot-session cache: bounded residency for the pod runtime.

A :class:`~repro.pods.service.PodService` historically kept every open
session fully in RAM, so memory grew linearly with *created* sessions
-- a few tens of thousands of resident states and the ROADMAP's
"millions of users" north star is dead.  The tiered-storage design
splits the two numbers: the :class:`~repro.pods.store.SessionStore` is
the system of record (every step is written through to it already), and
the service keeps only a bounded working set of *live*
:class:`~repro.pods.session.Session` objects in an
:class:`LruSessionCache`.  When the cache exceeds its limit, the least
recently used idle session is evicted -- dropped from memory, nothing
written, because the store already holds its snapshot -- and the next
:class:`~repro.pods.api.StepRequest` for it transparently rehydrates it
from the store.  Logs, snapshots, and outputs are identical whether a
session was evicted zero or N times.

Pinning makes eviction safe when callers call ``submit`` from their own
threads: the service pins a session for the duration of a step (through
the store write-through), and the cache never evicts a pinned entry.  If
every entry is pinned the cache temporarily overflows its limit and
sheds the surplus as pins are released.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.config import env_int
from repro.errors import SessionError

if TYPE_CHECKING:
    from repro.pods.session import Session


#: Environment override for the default residency limit: when a
#: ``PodService`` is built without an explicit ``max_resident_sessions``,
#: this variable (an integer >= 1, or 0/empty for unlimited) supplies
#: it.  CI runs the whole test suite once with ``REPRO_MAX_RESIDENT=8``
#: so every session-shaped code path is exercised through eviction and
#: rehydration, not just the dedicated tiered-storage tests.
MAX_RESIDENT_ENV = "REPRO_MAX_RESIDENT"


def max_resident_sessions(limit: "int | None" = None) -> "int | None":
    """Resolve a ``max_resident_sessions`` argument.

    ``None`` falls back to :data:`MAX_RESIDENT_ENV` (parsed by the
    shared :func:`repro.config.env_int` helper), then to unlimited
    residency (the pre-cache behavior).  ``0`` -- explicit or from the
    environment -- also means unlimited; anything below that raises
    :class:`~repro.errors.SessionError`.
    """
    if limit is None:
        limit = env_int(MAX_RESIDENT_ENV, default=0, minimum=0)
    if limit == 0:
        return None
    if limit < 0:
        raise SessionError(
            f"max_resident_sessions must be >= 0, got {limit}"
        )
    return limit


class _Entry:
    __slots__ = ("session", "pins")

    def __init__(self, session: "Session") -> None:
        self.session = session
        self.pins = 0


class LruSessionCache:
    """An LRU map of resident sessions with per-entry pinning.

    All operations are internally locked (the cache is touched by every
    thread that calls ``submit``); none of them call out while holding
    the lock.  Mutating operations return the entries they evicted as
    ``(session_id, session)`` pairs so the owning service can do its
    bookkeeping (metrics, the evicted-id set) under its own lock --
    lock order is always service lock -> cache lock, never the reverse.

    ``max_resident=None`` disables eviction entirely: the cache is then
    a plain dictionary with recency tracking, preserving the historical
    all-resident behavior at negligible cost.
    """

    def __init__(self, max_resident: "int | None" = None) -> None:
        if max_resident is not None and max_resident < 1:
            raise SessionError(
                f"max_resident must be >= 1 or None, got {max_resident}"
            )
        self.max_resident = max_resident
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._entries

    def ids(self) -> list[str]:
        """Resident session ids, sorted."""
        with self._lock:
            return sorted(self._entries)

    def get(self, session_id: str) -> "Session | None":
        """The resident session, freshened to most recently used."""
        with self._lock:
            entry = self._entries.get(session_id)
            if entry is None:
                return None
            self._entries.move_to_end(session_id)
            return entry.session

    def pin(self, session_id: str) -> "Session | None":
        """Like :meth:`get`, but also protect the entry from eviction."""
        with self._lock:
            entry = self._entries.get(session_id)
            if entry is None:
                return None
            entry.pins += 1
            self._entries.move_to_end(session_id)
            return entry.session

    def unpin(self, session_id: str) -> list[tuple[str, "Session"]]:
        """Release one pin; returns any entries evicted as a result.

        The entry may have been popped (session closed) while pinned;
        that is not an error -- the pin dies with the entry.
        """
        with self._lock:
            entry = self._entries.get(session_id)
            if entry is not None and entry.pins > 0:
                entry.pins -= 1
            return self._evict_surplus()

    def put(
        self, session_id: str, session: "Session", *, pin: bool = False
    ) -> list[tuple[str, "Session"]]:
        """Insert a session (most recently used); returns evictions.

        ``pin=True`` makes the insert-and-pin atomic, so a session
        restored for stepping cannot be evicted between its publication
        and its first pin by another thread's surplus shedding.
        """
        with self._lock:
            if session_id in self._entries:
                raise SessionError(
                    f"session already resident: {session_id!r}"
                )
            entry = _Entry(session)
            if pin:
                entry.pins = 1
            self._entries[session_id] = entry
            return self._evict_surplus()

    def pop(self, session_id: str) -> "Session | None":
        """Remove an entry outright (session closed), pinned or not."""
        with self._lock:
            entry = self._entries.pop(session_id, None)
            return entry.session if entry is not None else None

    def _evict_surplus(self) -> list[tuple[str, "Session"]]:
        """Shed unpinned LRU entries until within the limit (lock held)."""
        if self.max_resident is None:
            return []
        evicted: list[tuple[str, "Session"]] = []
        if len(self._entries) <= self.max_resident:
            return evicted
        # Walk from least to most recently used, skipping pinned
        # entries; stop as soon as the cache is back within its limit.
        for session_id in list(self._entries):
            if len(self._entries) - len(evicted) <= self.max_resident:
                break
            entry = self._entries[session_id]
            if entry.pins:
                continue
            evicted.append((session_id, entry.session))
        for session_id, _session in evicted:
            del self._entries[session_id]
        return evicted
