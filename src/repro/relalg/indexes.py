"""Interned, columnar fact storage with hash indexes.

A :class:`FactStore` holds the facts of a set of predicates.  Storage is
*columnar with interning*: every row that enters a mutable layer is
canonicalized through :mod:`repro.relalg.interning` (equal constants
share one object, equal rows share one tuple), each predicate keeps an
insertion-ordered row list whose positions are the *row ids*, and
per-position columns are materialized on demand.  Hash indexes bucket
**row ids**, not row tuples: the index for predicate ``p`` on positions
``(0, 2)`` maps ``(row[0], row[2])`` to the ids of the rows with those
values (:meth:`FactStore.lookup_ids`, or the whole map from
:meth:`FactStore.id_buckets`).  The compiled rule kernels of
:mod:`repro.datalog.plan` walk id buckets and read values off the
shared row list (:meth:`FactStore.row_list`).

:meth:`index_stats` reads distinct-count summaries straight off the
columns -- no bucket lists are allocated just to count keys -- and the
results are cached per store *version*: the store is version-stamped
(every mutation bumps :attr:`FactStore.version`), so repeated planner
probes against an unchanged store are dictionary hits.

Stores are *insert-only*: :meth:`add` may only grow a predicate, never
shrink it, which lets existing indexes be maintained incrementally (new
row ids are appended to their buckets) instead of rebuilt.  Insert-only
is all datalog fixpoints and cumulative Spocus state need.

A store may *layer* over a read-only ``base`` store.  Predicates not
present locally are served -- rows, indexes, ids, and stats -- by the
base; adding facts for such a predicate first copies its rows into the
local layer (copy-on-write), leaving the base untouched.  This is how
one indexed catalog database is shared by every evaluation of every
session of a :mod:`repro.pods` service: the service indexes the catalog
once, and each transducer step layers its small input/state facts on
top.

Concurrency contract: a store that is only *read* (lookups, scans,
stats) may be shared between threads -- lazy index/column construction
is serialized internally, so the first concurrent touches of a
(predicate, positions) pattern build its buckets exactly once.  That is
what the shared database store relies on when callers call
:meth:`~repro.pods.service.PodService.submit` from their own threads.  Mutation
(:meth:`add`) is not synchronized against concurrent readers of the
same layer; per-step layered stores are session-private by design.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from repro.relalg.interning import intern_row

Positions = tuple[int, ...]
Key = tuple
_IdBuckets = dict[Key, list[int]]

_EMPTY: tuple = ()
_NO_BUCKETS: Mapping[Key, Sequence[int]] = MappingProxyType({})


class _Pad:
    """The padding marker for short rows in columns (see :meth:`FactStore.column`)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<pad>"


#: Fills column slots of rows too short for the position.  A dedicated
#: sentinel -- not ``None`` -- so a genuine ``None`` data value is never
#: mistaken for arity padding (e.g. by ``index_stats`` distinct counts).
PAD = _Pad()


@dataclass(frozen=True)
class IndexStats:
    """Statistics of one (predicate, positions) hash index.

    ``rows`` is the relation's cardinality, ``distinct_keys`` the number
    of distinct key values on those positions.  ``rows / distinct_keys``
    is the classic average-bucket estimate of how many rows an index
    lookup returns, which is what the query planner's cost model
    consumes.
    """

    rows: int
    distinct_keys: int

    @property
    def average_bucket(self) -> float:
        if self.distinct_keys <= 0:
            return 0.0
        return self.rows / self.distinct_keys


class FactStore:
    """Indexed, insert-only collection of facts, optionally layered.

    ``facts`` seeds the local layer; ``base`` is an optional read-only
    store consulted for predicates the local layer does not define.
    """

    __slots__ = (
        "_rows",
        "_id_indexes",
        "_tuples",
        "_columns",
        "_base",
        "_frozen_cache",
        "_index_lock",
        "_version",
        "_stats_cache",
    )

    def __init__(
        self,
        facts: Mapping[str, Iterable[tuple]] | None = None,
        base: "FactStore | None" = None,
        *,
        intern: bool = False,
    ) -> None:
        # Frozensets are adopted by reference (they are immutable, and
        # the hot path hands us per-step Instance relations); anything
        # else is defensively copied and interned.  add() converts to a
        # mutable set on first write.  ``intern=True`` forces interning
        # of frozenset inputs too -- worth its one-time cost for
        # long-lived shared stores (the cached catalog database), whose
        # constants seed the process-wide pools every later equality
        # check benefits from.
        self._rows: dict[str, set[tuple] | frozenset[tuple]] = {}
        self._id_indexes: dict[str, dict[Positions, _IdBuckets]] = {}
        # Insertion-ordered row lists (row id = list position) and the
        # per-position columns over them, both materialized on demand.
        self._tuples: dict[str, list[tuple]] = {}
        self._columns: dict[str, dict[int, list]] = {}
        self._base = base
        self._frozen_cache: dict[str, frozenset[tuple]] = {}
        # Serializes lazy index/column construction only: concurrent
        # readers of a shared store must build each structure exactly
        # once, then read it lock-free (published fully built).
        self._index_lock = threading.Lock()
        self._version = 0
        # (predicate, positions) -> (version, IndexStats); consulted
        # and updated under the index lock: planner probes arrive from
        # every caller thread that steps a session.
        self._stats_cache: dict[tuple[str, Positions], tuple[int, IndexStats]] = {}
        if facts:
            for name, rows in facts.items():
                if isinstance(rows, frozenset) and not intern:
                    self._rows[name] = rows
                else:
                    self._rows[name] = {
                        intern_row(tuple(row)) for row in rows
                    }

    @classmethod
    def layered(
        cls,
        relations: dict[str, frozenset[tuple]],
        base: "FactStore | None",
    ) -> "FactStore":
        """A store whose local layer is ``relations`` itself, over ``base``.

        The dict is adopted, not copied or interned: it becomes the
        store's own local layer (later writes land in it), so pass a
        dict nobody else holds, whose values are frozensets -- as an
        :class:`~repro.relalg.instance.Instance` holds them.  This is
        the per-step store of a transducer step, layered over the
        shared catalog store.
        """
        store = cls(base=base)
        store._rows = relations
        return store

    # -- read side -------------------------------------------------------------

    @property
    def base(self) -> "FactStore | None":
        return self._base

    @property
    def version(self) -> int:
        """Monotone mutation stamp: bumped by every :meth:`add`/:meth:`ensure`.

        Planner-side caches (statistics, memoized join orders) key off
        this to stay exact while the store is unchanged.
        """
        return self._version

    def predicates(self) -> set[str]:
        """All predicates with facts (or registered empty) in any layer."""
        names = set(self._rows)
        if self._base is not None:
            names |= self._base.predicates()
        return names

    def __contains__(self, predicate: str) -> bool:
        return predicate in self._rows or (
            self._base is not None and predicate in self._base
        )

    def rows(self, predicate: str) -> set[tuple] | frozenset[tuple]:
        """All rows of ``predicate`` (empty for unknown predicates)."""
        local = self._rows.get(predicate)
        if local is not None:
            return local
        if self._base is not None:
            return self._base.rows(predicate)
        return frozenset()

    def frozen(self, predicate: str) -> frozenset[tuple]:
        """Immutable snapshot of ``predicate``'s rows, cached per add."""
        local = self._rows.get(predicate)
        if local is None:
            if self._base is not None:
                return self._base.frozen(predicate)
            return frozenset()
        if isinstance(local, frozenset):
            return local
        cached = self._frozen_cache.get(predicate)
        if cached is None:
            # Benign race: concurrent readers may both freeze the same
            # rows; the values are equal and the publish is atomic.
            cached = frozenset(local)
            self._frozen_cache[predicate] = cached
        return cached

    def count(self, predicate: str) -> int:
        return len(self.rows(predicate))

    def contains(self, predicate: str, row: tuple) -> bool:
        return row in self.rows(predicate)

    # -- columnar access -------------------------------------------------------

    def row_list(self, predicate: str) -> Sequence[tuple]:
        """The insertion-ordered row list of ``predicate`` (id = position).

        Requests for predicates served by the base layer delegate, so
        row ids agree with the base's id buckets.
        """
        rows = self._tuples.get(predicate)
        if rows is not None:
            return rows
        if predicate not in self._rows:
            if self._base is not None:
                return self._base.row_list(predicate)
            return _EMPTY
        with self._index_lock:
            rows = self._tuples.get(predicate)
            if rows is None:
                rows = list(self._rows[predicate])
                self._tuples[predicate] = rows
        return rows

    def column(self, predicate: str, position: int) -> Sequence:
        """The values of ``predicate`` at ``position``, indexed by row id.

        Rows too short for the position hold :data:`PAD` (they can
        never match a query bound on it; the arity guard filters them).
        """
        per_pred = self._columns.get(predicate)
        if per_pred is not None:
            cached = per_pred.get(position)
            if cached is not None:
                return cached
        if predicate not in self._rows:
            if self._base is not None:
                return self._base.column(predicate, position)
            return _EMPTY
        rows = self.row_list(predicate)
        with self._index_lock:
            per_pred = self._columns.setdefault(predicate, {})
            cached = per_pred.get(position)
            if cached is None:
                cached = [
                    row[position] if len(row) > position else PAD
                    for row in rows
                ]
                per_pred[position] = cached
        return cached

    def lookup_ids(
        self, predicate: str, positions: Positions, key: Key
    ) -> Sequence[int]:
        """Ids of the rows with ``row[p] == key[i]`` at each position.

        The (predicate, positions) index is built on first use and
        maintained incrementally; dereference the ids against
        :meth:`row_list`.  Base-layer predicates delegate so the shared
        catalog is indexed once.
        """
        return self.id_buckets(predicate, positions).get(key, _EMPTY)

    def id_buckets(
        self, predicate: str, positions: Positions
    ) -> Mapping[Key, Sequence[int]]:
        """The (predicate, positions) index itself: key -> row ids.

        What :meth:`lookup_ids` probes, for callers that probe one
        index many times (the compiled rule kernels fetch it once per
        call).  Read-only to callers; base-layer predicates delegate.
        """
        if predicate not in self._rows:
            if self._base is not None:
                return self._base.id_buckets(predicate, positions)
            return _NO_BUCKETS
        return self._id_buckets(predicate, positions)

    def _id_buckets(self, predicate: str, positions: Positions) -> _IdBuckets:
        """Id-bucket map of the (local) index, built on first use.

        Build-once under concurrency: the first thread to miss takes the
        lock, re-checks, builds, and publishes the finished map in one
        assignment; later calls hit the lock-free fast path.
        """
        per_pred = self._id_indexes.setdefault(predicate, {})
        buckets = per_pred.get(positions)
        if buckets is not None:
            return buckets
        rows = self.row_list(predicate)
        with self._index_lock:
            buckets = per_pred.get(positions)
            if buckets is not None:
                return buckets
            buckets = {}
            width = max(positions) + 1 if positions else 0
            for rid, row in enumerate(rows):
                if len(row) < width:
                    # Rows too short for the pattern can never match a
                    # query on these positions (the naive scan path
                    # skips them via its arity guard).
                    continue
                bucket_key = tuple(row[p] for p in positions)
                bucket = buckets.get(bucket_key)
                if bucket is None:
                    buckets[bucket_key] = [rid]
                else:
                    bucket.append(rid)
            per_pred[positions] = buckets
        return buckets

    def index_stats(self, predicate: str, positions: Positions) -> IndexStats:
        """Cardinality and distinct-key count of ``predicate`` on ``positions``.

        Distinct counts are read off the columns (or off an id-bucket
        index that already exists) without allocating bucket lists, and
        cached per store version: the planner may probe the same
        pattern thousands of times between mutations and pays for the
        scan once.  Requests for base-layer predicates are delegated so
        the shared catalog is profiled once.
        """
        if predicate not in self._rows:
            if self._base is not None:
                return self._base.index_stats(predicate, positions)
            return IndexStats(0, 0)
        cache_key = (predicate, positions)
        version = self._version
        cached = self._stats_cache.get(cache_key)
        if cached is not None and cached[0] == version:
            return cached[1]
        with self._index_lock:
            cached = self._stats_cache.get(cache_key)
            if cached is not None and cached[0] == version:
                return cached[1]
        rows = len(self._rows[predicate])
        built = self._id_indexes.get(predicate, {}).get(positions)
        if built is not None:
            distinct = len(built)
        elif not positions:
            distinct = 1 if rows else 0
        elif len(positions) == 1:
            column = self.column(predicate, positions[0])
            distinct = len(set(column)) - (1 if PAD in column else 0)
        else:
            width = max(positions) + 1
            distinct = len(
                {
                    tuple(row[p] for p in positions)
                    for row in self.row_list(predicate)
                    if len(row) >= width
                }
            )
        stats = IndexStats(rows, distinct)
        with self._index_lock:
            self._stats_cache[cache_key] = (version, stats)
        return stats

    # -- write side ------------------------------------------------------------

    def ensure(self, predicate: str) -> None:
        """Register ``predicate`` in the local layer (possibly empty)."""
        if predicate not in self._rows and not (
            self._base is not None and predicate in self._base
        ):
            self._rows[predicate] = set()
            self._version += 1

    def add(self, predicate: str, rows: Iterable[tuple]) -> frozenset[tuple]:
        """Add ``rows``; return the subset that was actually new.

        Rows are interned on the way in (see
        :mod:`repro.relalg.interning`).  Existing indexes, row lists,
        and columns on the predicate are maintained incrementally, and
        the store version is bumped when anything actually lands.  If
        the predicate currently lives in the base layer its rows are
        first copied locally (the base is never mutated).
        """
        local = self._rows.get(predicate)
        if local is None:
            if self._base is not None and predicate in self._base:
                local = set(self._base.rows(predicate))
            else:
                local = set()
            self._rows[predicate] = local
        elif isinstance(local, frozenset):
            local = set(local)
            self._rows[predicate] = local
        fresh: list[tuple] = []
        for row in rows:
            row = intern_row(tuple(row))
            if row in local:
                continue
            local.add(row)
            fresh.append(row)
        if not fresh:
            return frozenset()
        self._version += 1
        self._frozen_cache.pop(predicate, None)
        row_list = self._tuples.get(predicate)
        first_id = len(row_list) if row_list is not None else 0
        if row_list is not None:
            row_list.extend(fresh)
        for position, column in self._columns.get(predicate, {}).items():
            column.extend(
                row[position] if len(row) > position else PAD
                for row in fresh
            )
        for positions, buckets in self._id_indexes.get(predicate, {}).items():
            width = max(positions) + 1 if positions else 0
            for offset, row in enumerate(fresh):
                if len(row) < width:
                    continue
                bucket_key = tuple(row[p] for p in positions)
                bucket = buckets.get(bucket_key)
                if bucket is None:
                    buckets[bucket_key] = [first_id + offset]
                else:
                    bucket.append(first_id + offset)
        return frozenset(fresh)

    # -- export ----------------------------------------------------------------

    def as_dict(self) -> dict[str, frozenset[tuple]]:
        """All facts of all layers as a plain predicate -> rows mapping."""
        return {name: self.frozen(name) for name in self.predicates()}

    def __iter__(self) -> Iterator[str]:
        return iter(self.predicates())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}({self.count(name)})" for name in sorted(self.predicates())
        )
        return f"FactStore({parts})"
