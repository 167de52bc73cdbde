"""Spocus transducers (Section 3.1) and the projection extension.

A Spocus ("semipositive output, cumulative state") transducer restricts
the general model as follows:

1. the state relations are exactly ``past-R`` for each input relation
   ``R``, of the same arity;
2. the state function cumulates inputs:
   ``σ(I, S, D)(past-R) = S(past-R) ∪ I(R)``;
3. outputs are defined by a finite set of rules ``A₀ :- A₁, …, Aₙ``
   where ``A₀`` is an output atom, each ``Aᵢ`` is a possibly negated
   atom over input/state/database relations or an inequality, and every
   variable occurs positively in the body.

Because output predicates cannot occur in rule bodies, the output
program is automatically nonrecursive and semipositive.  All conditions
are checked at construction time; violations raise
:class:`~repro.errors.SpocusViolation` naming the offending rule.

:class:`ExtendedStateTransducer` implements the *non-Spocus* extension
of Proposition 3.1 (state rules with projection), which the paper
proves makes log validity undecidable.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SchemaError, SpocusViolation
from repro.core.schema import TransducerSchema
from repro.core.transducer import RelationalTransducer
from repro.datalog.ast import Program, Rule
from repro.datalog import evaluate as _evaluate
from repro.datalog.evaluate import evaluate_program
from repro.datalog.parser import parse_program
from repro.datalog.plan import (
    PhysicalPlan,
    compile_cached,
    incremental_executor_for,
)
from repro.datalog.safety import check_rule_safety
from repro.errors import SafetyError
from repro.relalg.indexes import FactStore
from repro.relalg.instance import Instance
from repro.relalg.schema import DatabaseSchema, RelationSchema

PAST_PREFIX = "past-"


def stage_store(
    transducer: RelationalTransducer,
    database: Instance,
    *instances: Instance,
) -> FactStore:
    """A per-stage fact store layering ``instances`` over the database.

    Each instance contributes its relations as small in-memory facts on
    top of the transducer's shared (cached, hash-indexed) store for
    ``database``, so catalog indexes are built once per database rather
    than once per stage.  The runtime layers (input, state) for rule
    evaluation; the :mod:`repro.verify.api` monitors layer whatever view
    of a stage their property program reads (outputs and state for
    T_past-input properties, inputs and prior state for Tsdi
    disciplines).
    """
    local: dict[str, frozenset[tuple]] = {}
    for instance in instances:
        for name in instance.schema.names:
            local[name] = instance[name]
    return FactStore(local, base=transducer.database_store(database))


def _step_store(
    transducer: RelationalTransducer,
    inputs: Instance,
    state: Instance,
    database: Instance,
) -> FactStore:
    """Per-step fact store: input/state facts over the shared database."""
    return stage_store(transducer, database, inputs, state)


def past(name: str) -> str:
    """The state relation recording the history of input ``name``."""
    return PAST_PREFIX + name


def _program_step_context(transducer: RelationalTransducer, program: Program):
    """A per-session incremental executor for ``program``, or ``None``.

    Input relations are volatile (replaced every step), state relations
    are monotone (both Spocus and the projection extension cumulate),
    and the database is static -- exactly the contract of
    :meth:`~repro.datalog.plan.physical.IncrementalExecutor.step`.
    Programs outside the incremental scope (non-flat) fall back to full
    per-step evaluation by returning ``None``.
    """
    if not transducer.incremental_stepping:
        return None
    return incremental_executor_for(
        program,
        volatile=transducer.schema.inputs.names,
        monotone=transducer.schema.state.names,
    )


def _output_via_context(
    transducer: RelationalTransducer,
    ctx,
    inputs: Instance,
    state: Instance,
    database: Instance,
) -> Instance:
    """Derive the output instance through a step context (or without)."""
    if ctx is None or _evaluate._FORCE_NAIVE:
        # No context, or the naive-reference hook is active: take the
        # stateless path so naive_evaluation() keeps measuring the whole
        # pipeline.  A skipped step is safe for the executor: its delta
        # tracking is against whatever state it last saw.
        return transducer.output_function(inputs, state, database)
    facts = _step_store(transducer, inputs, state, database)
    monotone = {name: state[name] for name in state.schema.names}
    derived = ctx.step(facts, monotone)
    return Instance(
        transducer.schema.outputs,
        {
            rel.name: derived.get(rel.name, frozenset())
            for rel in transducer.schema.outputs
        },
    )


def derive_state_schema(inputs: DatabaseSchema) -> DatabaseSchema:
    """The Spocus state schema: one ``past-R`` per input ``R``."""
    return DatabaseSchema(
        RelationSchema(past(rel.name), rel.arity) for rel in inputs
    )


class SpocusTransducer(RelationalTransducer):
    """The restricted transducer class of Section 3.1."""

    def __init__(
        self,
        inputs: DatabaseSchema,
        outputs: DatabaseSchema,
        database: DatabaseSchema,
        output_program: Program | str,
        log: Sequence[str] = (),
    ) -> None:
        if isinstance(output_program, str):
            output_program = parse_program(output_program)
        state = derive_state_schema(inputs)
        schema = TransducerSchema(inputs, state, outputs, database, tuple(log))
        super().__init__(schema)
        self._program = output_program
        self._validate_program()

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def make(
        cls,
        inputs: dict[str, int],
        outputs: dict[str, int],
        database: dict[str, int] | None = None,
        rules: str | Program = "",
        log: Sequence[str] = (),
    ) -> "SpocusTransducer":
        """Compact constructor from name->arity dictionaries."""
        return cls(
            DatabaseSchema.of(**inputs),
            DatabaseSchema.of(**outputs),
            DatabaseSchema.of(**(database or {})),
            rules,
            log,
        )

    # -- static validation ---------------------------------------------------------

    def _validate_program(self) -> None:
        schema = self.schema
        visible = schema.visible_schema()
        for rule in self._program:
            if rule.cumulative:
                raise SpocusViolation(
                    f"rule {rule}: Spocus transducers have implicit state "
                    "rules; explicit cumulative rules are not allowed"
                )
            head = rule.head
            if head.predicate not in schema.outputs:
                raise SpocusViolation(
                    f"rule {rule}: head {head.predicate!r} is not an "
                    "output relation"
                )
            declared = schema.outputs.arity(head.predicate)
            if head.arity != declared:
                raise SpocusViolation(
                    f"rule {rule}: head arity {head.arity} != declared "
                    f"arity {declared}"
                )
            for atom in rule.positive_atoms() + rule.negated_atoms():
                if atom.predicate in schema.outputs:
                    raise SpocusViolation(
                        f"rule {rule}: output relation {atom.predicate!r} "
                        "used in a rule body (outputs are not recursive)"
                    )
                if atom.predicate not in visible:
                    raise SpocusViolation(
                        f"rule {rule}: body relation {atom.predicate!r} is "
                        "not an input, state, or database relation"
                    )
                if atom.arity != visible.arity(atom.predicate):
                    raise SpocusViolation(
                        f"rule {rule}: atom {atom} has arity {atom.arity}, "
                        f"declared {visible.arity(atom.predicate)}"
                    )
            try:
                check_rule_safety(rule)
            except SafetyError as exc:
                raise SpocusViolation(str(exc)) from exc

    # -- the two functions ----------------------------------------------------------

    @property
    def output_program(self) -> Program:
        return self._program

    @property
    def output_plan(self) -> PhysicalPlan:
        """The (shared, cached) compiled plan of the output program."""
        plan, _hit = compile_cached(self._program)
        return plan

    def explain_plan(self, database: "Instance | None" = None) -> str:
        """The output program's plan description (see ``PhysicalPlan.explain``).

        With a database, join orders and estimates are computed against
        its (cached, indexed) store -- what sessions over that catalog
        actually execute.
        """
        if database is None:
            return self.output_plan.explain()
        db = self.coerce_database(database)
        return self.output_plan.explain(self.database_store(db))

    def rules_for(self, predicate: str) -> list[Rule]:
        """The output rules defining ``predicate``."""
        return self._program.rules_for(predicate)

    def new_step_context(self, database: Instance):
        return _program_step_context(self, self._program)

    def output_with_context(
        self, ctx, inputs: Instance, state: Instance, database: Instance
    ) -> Instance:
        return _output_via_context(self, ctx, inputs, state, database)

    def state_function(
        self, inputs: Instance, state: Instance, database: Instance
    ) -> Instance:
        data = {}
        for rel in self.schema.inputs:
            seen = state[past(rel.name)]
            new = inputs[rel.name]
            # Keep an unchanged relation by identity: the SQLite store
            # diffs only relations whose frozenset changed.
            data[past(rel.name)] = seen if new <= seen else seen | new
        return Instance(self.schema.state, data)

    def output_function(
        self, inputs: Instance, state: Instance, database: Instance
    ) -> Instance:
        # The small per-step input/state facts are layered over the
        # (cached, lazily indexed) database store, so catalog indexes
        # are built once per database rather than once per step.
        facts = _step_store(self, inputs, state, database)
        derived = evaluate_program(self._program, facts)
        return Instance(
            self.schema.outputs,
            {
                rel.name: derived.get(rel.name, frozenset())
                for rel in self.schema.outputs
            },
        )

    # -- conveniences -----------------------------------------------------------------

    def with_log(self, log: Sequence[str]) -> "SpocusTransducer":
        """The same transducer with a different log declaration."""
        clone = SpocusTransducer(
            self.schema.inputs,
            self.schema.outputs,
            self.schema.database,
            self._program,
            tuple(log),
        )
        return clone

    def with_extra_rules(
        self,
        rules: str | Program,
        extra_inputs: dict[str, int] | None = None,
        extra_outputs: dict[str, int] | None = None,
    ) -> "SpocusTransducer":
        """Customization helper: add relations and rules (Section 3.3).

        Returns a new transducer with the added input/output relations
        and the added output rules; the log is unchanged.
        """
        if isinstance(rules, str):
            rules = parse_program(rules)
        inputs = self.schema.inputs.merge(
            DatabaseSchema.of(**(extra_inputs or {}))
        )
        outputs = self.schema.outputs.merge(
            DatabaseSchema.of(**(extra_outputs or {}))
        )
        program = Program(tuple(self._program.rules) + tuple(rules.rules))
        return SpocusTransducer(
            inputs, outputs, self.schema.database, program, self.schema.log
        )


class ExtendedStateTransducer(RelationalTransducer):
    """Spocus extended with projection state rules (NOT Spocus).

    State relations are declared explicitly and populated by cumulative
    rules ``S(x̄) +:- body`` whose bodies range over input relations; the
    projection case (head variables a strict subset of body variables)
    is exactly the extension Proposition 3.1 proves undecidable.
    Output rules follow the Spocus discipline.
    """

    def __init__(
        self,
        inputs: DatabaseSchema,
        state: DatabaseSchema,
        outputs: DatabaseSchema,
        database: DatabaseSchema,
        state_program: Program | str,
        output_program: Program | str,
        log: Sequence[str] = (),
    ) -> None:
        if isinstance(state_program, str):
            state_program = parse_program(state_program)
        if isinstance(output_program, str):
            output_program = parse_program(output_program)
        schema = TransducerSchema(inputs, state, outputs, database, tuple(log))
        super().__init__(schema)
        self._state_program = state_program
        self._output_program = output_program
        for rule in state_program:
            if not rule.cumulative:
                raise SchemaError(
                    f"state rule {rule} must be cumulative (+:-)"
                )
            if rule.head.predicate not in state:
                raise SchemaError(
                    f"state rule {rule}: head is not a state relation"
                )
            check_rule_safety(rule)
        for rule in output_program:
            if rule.head.predicate not in outputs:
                raise SchemaError(
                    f"output rule {rule}: head is not an output relation"
                )
            check_rule_safety(rule)

    @property
    def state_program(self) -> Program:
        return self._state_program

    @property
    def output_program(self) -> Program:
        return self._output_program

    def new_step_context(self, database: Instance):
        return _program_step_context(self, self._output_program)

    def output_with_context(
        self, ctx, inputs: Instance, state: Instance, database: Instance
    ) -> Instance:
        return _output_via_context(self, ctx, inputs, state, database)

    def state_function(
        self, inputs: Instance, state: Instance, database: Instance
    ) -> Instance:
        facts = _step_store(self, inputs, state, database)
        plain = Program(
            tuple(
                Rule(rule.head, rule.body, cumulative=False)
                for rule in self._state_program
            )
        )
        derived = evaluate_program(plain, facts)
        data = {
            rel.name: state[rel.name] | derived.get(rel.name, frozenset())
            for rel in self.schema.state
        }
        return Instance(self.schema.state, data)

    def output_function(
        self, inputs: Instance, state: Instance, database: Instance
    ) -> Instance:
        facts = _step_store(self, inputs, state, database)
        derived = evaluate_program(self._output_program, facts)
        return Instance(
            self.schema.outputs,
            {
                rel.name: derived.get(rel.name, frozenset())
                for rel in self.schema.outputs
            },
        )
