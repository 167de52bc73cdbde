"""Transducer schemas.

Section 2.2: a transducer schema is (in, state, out, db, log) where the
first four are pairwise disjoint relation schemas and log ⊆ in ∪ out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from repro.errors import SchemaError
from repro.relalg.schema import DatabaseSchema


@dataclass(frozen=True)
class TransducerSchema:
    """The five-component schema of a relational transducer.

    ``log`` is the tuple of log relation *names* (a subset of the input
    and output relation names); the paper calls the log *full* when it
    contains all of them.
    """

    inputs: DatabaseSchema
    state: DatabaseSchema
    outputs: DatabaseSchema
    database: DatabaseSchema
    log: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        named = {
            "input": self.inputs,
            "state": self.state,
            "output": self.outputs,
            "database": self.database,
        }
        for (name_a, schema_a), (name_b, schema_b) in combinations(
            named.items(), 2
        ):
            overlap = set(schema_a.names) & set(schema_b.names)
            if overlap:
                raise SchemaError(
                    f"{name_a} and {name_b} relations overlap: "
                    f"{sorted(overlap)}"
                )
        visible = set(self.inputs.names) | set(self.outputs.names)
        stray = set(self.log) - visible
        if stray:
            raise SchemaError(
                f"log relations must be inputs or outputs; "
                f"not so: {sorted(stray)}"
            )
        if len(set(self.log)) != len(self.log):
            raise SchemaError("duplicate names in log")

    # -- derived schemas ---------------------------------------------------------

    @cached_property
    def log_schema(self) -> DatabaseSchema:
        """Schema of the log relations (from inputs and outputs), built once."""
        return self.inputs.merge(self.outputs).restrict(self.log)

    def io_schema(self) -> DatabaseSchema:
        return self.inputs.merge(self.outputs)

    def visible_schema(self) -> DatabaseSchema:
        """Everything an output rule may mention: in ∪ state ∪ db."""
        return self.inputs.merge(self.state).merge(self.database)

    def is_full_log(self) -> bool:
        """True when the log contains every input and output relation."""
        return set(self.log) == set(self.inputs.names) | set(self.outputs.names)

    def logged_inputs(self) -> tuple[str, ...]:
        return tuple(n for n in self.log if n in self.inputs)

    def logged_outputs(self) -> tuple[str, ...]:
        return tuple(n for n in self.log if n in self.outputs)

    def with_log(self, log: tuple[str, ...]) -> "TransducerSchema":
        """Same schema with a different log component."""
        return TransducerSchema(
            self.inputs, self.state, self.outputs, self.database, tuple(log)
        )
