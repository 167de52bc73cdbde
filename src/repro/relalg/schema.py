"""Relation and database schemas.

A :class:`RelationSchema` is a relation name plus an arity (and optional
attribute names, used only for display).  A :class:`DatabaseSchema` is a
collection of relation schemas with unique names.  Transducer schemas
(Section 2.2 of the paper) are built from five database schemas; see
:mod:`repro.core.schema`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.errors import SchemaError, UnknownRelationError


@dataclass(frozen=True)
class RelationSchema:
    """A relation name with a fixed arity.

    Attribute names are optional; when provided their count must equal
    the arity.  Relations of arity 0 are allowed (propositional
    relations, used heavily in Sections 3.1 and 4).
    """

    name: str
    arity: int
    attributes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation name must be non-empty")
        if self.arity < 0:
            raise SchemaError(f"relation {self.name!r}: arity must be >= 0")
        if self.attributes is not None and len(self.attributes) != self.arity:
            raise SchemaError(
                f"relation {self.name!r}: {len(self.attributes)} attribute "
                f"names given for arity {self.arity}"
            )

    def __str__(self) -> str:
        if self.attributes:
            return f"{self.name}({', '.join(self.attributes)})"
        return f"{self.name}/{self.arity}"


class DatabaseSchema:
    """An immutable set of relation schemas indexed by name."""

    def __init__(self, relations: Iterable[RelationSchema] = ()) -> None:
        by_name: dict[str, RelationSchema] = {}
        for rel in relations:
            if rel.name in by_name:
                raise SchemaError(f"duplicate relation name {rel.name!r}")
            by_name[rel.name] = rel
        self._by_name: Mapping[str, RelationSchema] = by_name

    @classmethod
    def of(cls, **arities: int) -> "DatabaseSchema":
        """Build a schema from keyword arguments: ``of(price=2, order=1)``."""
        return cls(RelationSchema(name, arity) for name, arity in arities.items())

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, DatabaseSchema):
            return NotImplemented
        return self._by_name == other._by_name

    def __repr__(self) -> str:
        rels = ", ".join(str(r) for r in self)
        return f"DatabaseSchema({rels})"

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._by_name)

    def relation(self, name: str) -> RelationSchema:
        """Return the schema of relation ``name`` or raise."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownRelationError(
                f"unknown relation {name!r}; known: {sorted(self._by_name)}"
            ) from None

    def arity(self, name: str) -> int:
        return self.relation(name).arity

    def restrict(self, names: Iterable[str]) -> "DatabaseSchema":
        """Return the sub-schema containing only ``names``."""
        wanted = set(names)
        missing = wanted - set(self._by_name)
        if missing:
            raise UnknownRelationError(f"unknown relations {sorted(missing)}")
        return DatabaseSchema(r for r in self if r.name in wanted)

    def merge(self, other: "DatabaseSchema") -> "DatabaseSchema":
        """Union of two schemas; shared names must agree on arity."""
        merged = dict(self._by_name)
        for rel in other:
            existing = merged.get(rel.name)
            if existing is not None and existing.arity != rel.arity:
                raise SchemaError(
                    f"relation {rel.name!r} declared with arities "
                    f"{existing.arity} and {rel.arity}"
                )
            merged.setdefault(rel.name, rel)
        return DatabaseSchema(merged.values())

    def disjoint_with(self, other: "DatabaseSchema") -> bool:
        """Return True if no relation name is shared with ``other``."""
        return not (set(self.names) & set(other.names))
