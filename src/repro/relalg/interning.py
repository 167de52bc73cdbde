"""Constant and row interning for the columnar fact storage.

The datalog hot path churns through millions of small tuples whose
values are drawn from a tiny active domain (product names, customer
ids, prices).  Interning canonicalizes them process-wide: equal
same-typed constants share one object and equal same-typed rows share
one tuple (pools are keyed by :func:`pool_key`, which keeps each
value's type, a float's sign and a nested tuple's element types, so
equal values that differ inside -- ``True``/``1``/``1.0``, ``0.0``/
``-0.0``, ``(1, "a")``/``(1.0, "a")`` -- are never conflated), so

* equality checks inside joins hit CPython's identity fast path,
* the per-position columns of a :class:`~repro.relalg.indexes.FactStore`
  reference shared objects instead of per-row copies, and
* a session's cumulative state, the shared catalog store, and every
  per-step layer agree on object identity for equal facts.

Interning is *canonicalization only*: nothing is ever allowed to depend
on pool residency for correctness, so both pools are bounded and simply
cleared when they overflow (mirroring the plan cache's policy).  The
pools are process-wide and written from every caller thread that
steps a session; all mutation happens under one lock, and
reads go through ``dict.setdefault``-free locked paths so one canonical
object wins every race.
"""

from __future__ import annotations

import threading
from math import copysign

__all__ = [
    "intern_constant",
    "intern_row",
    "interned_constants",
    "clear_intern_pools",
]

_POOL_LIMIT = 1 << 20

_constants: dict = {}
_rows: dict[tuple, tuple] = {}
_lock = threading.Lock()


def pool_key(value):
    """The pool key of one constant: ``(type, value)``, refined where
    equal values can still differ.

    A float also keys by its sign (``0.0 == -0.0``), and a tuple keys
    by its elements' keys (``(1, "a") == (1.0, "a")``).  Unhashable
    values give an unhashable key.
    """
    cls = value.__class__
    if cls is float:
        return (cls, value, copysign(1.0, value))
    if cls is tuple:
        return (cls, tuple(map(pool_key, value)))
    return (cls, value)


def intern_constant(value):
    """The canonical object equal to ``value`` (singletons/unhashables pass through).

    The first caller to intern a value donates its object; later equal
    values *of the same key* are swapped for the canonical one.  The
    pool is keyed by :func:`pool_key`, never by bare value: ``True``,
    ``1``, and ``1.0`` compare equal across types (as do ``0.0`` and
    ``-0.0``, and tuples holding them), and keying by equality alone
    would silently rewrite one to another (pool-order dependent) on the
    way into a store.  ``None``/``True``/``False``
    are already process-wide singletons and skip the pool; values that
    cannot be hashed (never produced by the parsers, but FactStore
    accepts raw tuples) are returned untouched.
    """
    if value is None or value is True or value is False:
        return value
    key = pool_key(value)
    try:
        canonical = _constants.get(key)
    except TypeError:
        return value
    if canonical is not None:
        return canonical
    with _lock:
        canonical = _constants.get(key)
        if canonical is None:
            if len(_constants) >= _POOL_LIMIT:
                _constants.clear()
            _constants[key] = value
            canonical = value
    return canonical


def intern_row(row: tuple) -> tuple:
    """The canonical tuple equal to ``row``, with interned constants.

    The pool is keyed by the elements' :func:`pool_key`, so a cached
    tuple is only returned when the element *types* (and float signs)
    match too -- ``("widget", True)`` and ``("widget", 1)`` stay
    distinct tuples.
    Rows containing unhashable values are returned untouched (they can
    never be stored in a relation's row set anyway).
    """
    try:
        key = tuple(map(pool_key, row))
        canonical = _rows.get(key)
    except TypeError:
        return row
    if canonical is not None:
        return canonical
    # Intern the constants before taking the lock (the lock is not
    # reentrant, and intern_constant takes it on a pool miss).
    interned = tuple(intern_constant(value) for value in row)
    with _lock:
        canonical = _rows.get(key)
        if canonical is None:
            if len(_rows) >= _POOL_LIMIT:
                _rows.clear()
            _rows[key] = interned
            canonical = interned
    return canonical


def interned_constants() -> int:
    """Current size of the constant pool (a gauge, for metrics)."""
    return len(_constants)


def clear_intern_pools() -> None:
    """Drop both pools (tests and benchmarks)."""
    with _lock:
        _constants.clear()
        _rows.clear()
