"""Database instances: finite relations over a schema.

An :class:`Instance` maps each relation name of a
:class:`~repro.relalg.schema.DatabaseSchema` to a finite set of tuples of
the right arity.  Instances are *value objects*: mutating operations
return new instances, which makes runs of transducers easy to reason
about and to test (the run semantics of Section 2.2 is a fold over
immutable instances).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import ArityError, SchemaError
from repro.relalg.domain import active_domain
from repro.relalg.schema import DatabaseSchema, RelationSchema


def _check_tuples(rel: RelationSchema, rows: Iterable[tuple]) -> frozenset[tuple]:
    if type(rows) is frozenset or type(rows) is set:
        # Check each row, then reuse the set rather than copy it row by row.
        arity = rel.arity
        for row in rows:
            if type(row) is not tuple or len(row) != arity:
                break
        else:
            return rows if type(rows) is frozenset else frozenset(rows)
    checked = set()
    for row in rows:
        row = tuple(row)
        if len(row) != rel.arity:
            raise ArityError(
                f"relation {rel.name!r} has arity {rel.arity}, "
                f"got tuple of length {len(row)}: {row!r}"
            )
        checked.add(row)
    return frozenset(checked)


class Instance:
    """An immutable instance of a database schema.

    Relations not mentioned at construction time are empty.  Tuples are
    plain Python tuples of hashable values.
    """

    __slots__ = ("_schema", "_relations")

    def __init__(
        self,
        schema: DatabaseSchema,
        relations: Mapping[str, Iterable[tuple]] | None = None,
    ) -> None:
        self._schema = schema
        data: dict[str, frozenset[tuple]] = {}
        if relations:
            for name, rows in relations.items():
                rel = schema.relation(name)
                data[name] = _check_tuples(rel, rows)
        if len(data) != len(schema):
            for rel in schema:
                data.setdefault(rel.name, frozenset())
        self._relations: Mapping[str, frozenset[tuple]] = data

    # -- construction helpers -------------------------------------------------

    @classmethod
    def empty(cls, schema: DatabaseSchema) -> "Instance":
        """The instance in which every relation is empty."""
        return cls(schema)

    def with_facts(self, name: str, rows: Iterable[tuple]) -> "Instance":
        """Return a new instance with ``rows`` added to relation ``name``."""
        rel = self._schema.relation(name)
        new_rows = self._relations[name] | _check_tuples(rel, rows)
        merged = dict(self._relations)
        merged[name] = new_rows
        return self._from_checked(self._schema, merged)

    def with_relation(self, name: str, rows: Iterable[tuple]) -> "Instance":
        """Return a new instance with relation ``name`` replaced by ``rows``."""
        rel = self._schema.relation(name)
        merged = dict(self._relations)
        merged[name] = _check_tuples(rel, rows)
        return self._from_checked(self._schema, merged)

    @classmethod
    def _from_checked(
        cls, schema: DatabaseSchema, data: dict[str, frozenset[tuple]]
    ) -> "Instance":
        inst = cls.__new__(cls)
        inst._schema = schema
        inst._relations = data
        return inst

    # -- accessors ------------------------------------------------------------

    @property
    def schema(self) -> DatabaseSchema:
        return self._schema

    def __getitem__(self, name: str) -> frozenset[tuple]:
        try:
            # Every schema relation has an entry, so a hit is a known name.
            return self._relations[name]
        except KeyError:
            self._schema.relation(name)  # raise on unknown names
            raise

    def get(self, name: str) -> frozenset[tuple]:
        """Like ``inst[name]`` but returns empty for unknown relations."""
        return self._relations.get(name, frozenset())

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema.names)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self._schema == other._schema
            and self._relations == other._relations
        )

    def __hash__(self) -> int:
        return hash(frozenset(self._relations.items()))

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self._schema.names):
            rows = self._relations[name]
            if rows:
                shown = sorted(map(repr, rows))
                parts.append(f"{name}={{{', '.join(shown)}}}")
        return f"Instance({'; '.join(parts) or 'empty'})"

    def is_empty(self) -> bool:
        """True if every relation is empty."""
        return all(not rows for rows in self._relations.values())

    def total_facts(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(rows) for rows in self._relations.values())

    def facts(self) -> Iterator[tuple[str, tuple]]:
        """Yield (relation, tuple) pairs for all facts, sorted for determinism."""
        for name in sorted(self._schema.names):
            for row in sorted(self._relations[name], key=repr):
                yield name, row

    def active_domain(self) -> set:
        """All values occurring anywhere in the instance."""
        domain: set = set()
        for rows in self._relations.values():
            domain |= active_domain(rows)
        return domain

    # -- set operations over instances ----------------------------------------

    def union(self, other: "Instance") -> "Instance":
        """Relation-wise union; schemas must match."""
        self._require_same_schema(other)
        merged = {
            name: self._relations[name] | other._relations[name]
            for name in self._relations
        }
        return self._from_checked(self._schema, merged)

    def difference(self, other: "Instance") -> "Instance":
        """Relation-wise difference; schemas must match."""
        self._require_same_schema(other)
        merged = {
            name: self._relations[name] - other._relations[name]
            for name in self._relations
        }
        return self._from_checked(self._schema, merged)

    def restrict(self, names: Iterable[str]) -> "Instance":
        """Project the instance onto a sub-schema (the paper's log operation).

        ``(I ∪ O)|log`` in Section 2.2 is ``I.union(O).restrict(log_names)``
        modulo schema bookkeeping.
        """
        sub = self._schema.restrict(names)
        data = {rel.name: self._relations[rel.name] for rel in sub}
        return Instance._from_checked(sub, data)

    def project_onto(self, schema: DatabaseSchema) -> "Instance":
        """Re-host this instance's facts onto ``schema``.

        Relations present in both schemas keep their tuples (arities must
        agree); relations only in ``schema`` become empty; relations only
        in ``self`` are dropped.
        """
        data: dict[str, frozenset[tuple]] = {}
        for rel in schema:
            rows = self._relations.get(rel.name, frozenset())
            if rows and self._schema.arity(rel.name) != rel.arity:
                raise SchemaError(
                    f"cannot re-host {rel.name!r}: arity mismatch"
                )
            data[rel.name] = rows
        return Instance._from_checked(schema, data)

    def _require_same_schema(self, other: "Instance") -> None:
        if self._schema != other._schema:
            raise SchemaError("instances have different schemas")
